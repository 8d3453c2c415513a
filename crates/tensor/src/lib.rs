//! # dial-tensor
//!
//! A minimal, dependency-light reverse-mode automatic-differentiation engine
//! powering the DIAL reproduction. It provides:
//!
//! * [`Matrix`] — dense row-major `f32` matrices whose `matmul` /
//!   `matmul_t` / `t_matmul` run on the [`kernels`] module;
//! * [`kernels`] — the three products (and the all-pairs squared
//!   distances) as register-tiled AVX2 code, and `exp`/`tanh` as in-repo
//!   definitions with the GELU / softmax / log-sum-exp / sigmoid slice
//!   kernels built on them; all picked at runtime, with the scalar bodies
//!   kept as fallback and parity oracle; plus the row ops (bias add,
//!   LayerNorm, mean-pool) the tape and `dial-tplm`'s graph-free forward
//!   share;
//! * [`ParamStore`] / [`ParamId`] — named trainable parameters with gradient
//!   buffers, freezing, snapshot/restore (used to reset the matcher to its
//!   pre-trained weights each active-learning round); values are shared
//!   (`Arc`) with tapes, snapshots and clones, never copied to be read;
//! * [`Grads`] — a gradient shard: what each worker of a data-parallel
//!   step accumulates into while all of them read one store;
//! * [`Graph`] / [`Var`] — a define-by-run tape with the ops needed by a
//!   small transformer (matmul, softmax, layer-norm, GELU, gather, dropout)
//!   and by DIAL's losses (row/cross squared distances, log-sum-exp, BCE,
//!   softmax cross-entropy);
//! * [`optim`] — AdamW with per-prefix learning-rate groups and the paper's
//!   linear no-warm-up schedule, plus plain SGD.
//!
//! The engine is strictly 2-D: sequences are `[seq_len, d]` matrices and
//! batch parallelism is expressed *across* graphs (one graph per example,
//! gradients accumulated into per-worker [`Grads`] shards and reduced in a
//! fixed order), which is both simpler and faster at DIAL's model sizes
//! than padded batched tensors.
//!
//! # Determinism
//!
//! Every result is a pure function of its inputs and the thread count —
//! never of the SIMD level. The AVX2 kernels multiply and add separately
//! (no FMA) and sum each output element in the scalar loop's order, so
//! they are bitwise equal to the scalar loops (proptested in
//! `tests/proptests.rs`), and `DIAL_FORCE_SCALAR=1` — the one switch shared
//! with `dial-ann` through `dial-simd` — changes speed only. See
//! [`kernels`] for the contract, the zero-skip argument and the tile
//! shapes.
//!
//! Nor of the host's libm on the hot path: `tanh` and `exp` — under GELU,
//! softmax, log-sum-exp, sigmoid and the losses that use them — are the
//! polynomial definitions in [`kernels`], the same bits on every host.
//! libm is still called for `ln`/`ln_1p` (once per log-sum-exp row and per
//! BCE term), `ln`/`cos` in [`init::normal`] and `powi` in AdamW's bias
//! correction.
//!
//! ```
//! use dial_tensor::{Graph, Matrix, ParamStore, optim::Sgd};
//!
//! // Fit y = 2x with one weight.
//! let mut store = ParamStore::new();
//! let w = store.add("w", Matrix::scalar(0.0));
//! let opt = Sgd::new(0.05);
//! for _ in 0..200 {
//!     let mut g = Graph::new();
//!     let x = g.input(Matrix::from_vec(4, 1, vec![1.0, 2.0, 3.0, 4.0]));
//!     let wv = g.param(&store, w);
//!     let pred = g.matmul(x, wv);
//!     let target = g.input(Matrix::from_vec(4, 1, vec![2.0, 4.0, 6.0, 8.0]));
//!     let err = g.sub(pred, target);
//!     let sq = g.mul(err, err);
//!     let loss = g.mean(sq);
//!     g.backward(loss, &mut store);
//!     opt.step(&mut store);
//! }
//! assert!((store.value(w).item() - 2.0).abs() < 1e-3);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod graph;
pub mod init;
pub mod kernels;
pub mod matrix;
pub mod optim;
pub mod params;

pub use graph::{Graph, Var};
pub use kernels::{logsumexp, sigmoid};
pub use matrix::{dot, sq_dist, Matrix};
pub use params::{Grads, ParamId, ParamStore, Snapshot};
