//! The mini transformer encoder.
//!
//! Architecture (BERT/RoBERTa post-layer-norm):
//!
//! ```text
//! x   = TokEmb[ids] + PosEmb[0..n]
//! for each layer:
//!     a = MultiHeadSelfAttention(x)
//!     x = LayerNorm(x + Dropout(a))
//!     f = W2 · GELU(W1 · x + b1) + b2
//!     x = LayerNorm(x + Dropout(f))
//! ```
//!
//! The model owns only parameter *handles*; values live in the caller's
//! [`ParamStore`], so the same weights serve the matcher (which fine-tunes
//! them) and the blocker (which freezes them), and a store snapshot
//! implements the paper's per-round reset to pre-trained weights.

use crate::config::TplmConfig;
use dial_tensor::{init, kernels, GradSink, Graph, Matrix, ParamId, ParamStore, Var};
use dial_text::TokenId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-layer parameter handles.
#[derive(Debug, Clone)]
struct LayerParams {
    wq: ParamId,
    wk: ParamId,
    wv: ParamId,
    wo: ParamId,
    bo: ParamId,
    ln1_gain: ParamId,
    ln1_bias: ParamId,
    ff_w1: ParamId,
    ff_b1: ParamId,
    ff_w2: ParamId,
    ff_b2: ParamId,
    ln2_gain: ParamId,
    ln2_bias: ParamId,
}

/// Transformer encoder with learned token and position embeddings.
#[derive(Debug, Clone)]
pub struct Tplm {
    config: TplmConfig,
    tok_emb: ParamId,
    pos_emb: ParamId,
    layers: Vec<LayerParams>,
}

/// Buffers of the graph-free forward and backward ([`Tplm::encode_into`],
/// [`Tplm::encode_train`], [`Tplm::backward`]): sized on first use, then
/// reused across sequences of any length.
///
/// Under training every layer keeps its activations in a set of buffers
/// of its own, which is what the backward reads; inference runs every
/// layer on the first set, so nothing outlives its layer.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    layers: Vec<LayerActs>,
    /// The output `[n, d]`.
    out: Vec<f32>,
    /// `[n, d]`: each projection before it is split into heads, then each
    /// sub-layer's output.
    proj: Vec<f32>,
    /// One head's scores `[n, n]` and output `[n, d_head]`.
    scores: Vec<f32>,
    head: Vec<f32>,
    /// Whether the last forward kept every layer's activations
    /// ([`Tplm::encode_train`]), and whether it applied dropout masks.
    kept: bool,
    dropped: bool,
    grad: TrunkGrads,
}

/// One layer's activations: everything [`Tplm::backward`] reads.
#[derive(Debug, Default)]
struct LayerActs {
    /// The layer's input `[n, d]`.
    x: Vec<f32>,
    /// q, k and v split into heads: head `h`'s `[n, d_head]` block starts
    /// at `h·n·d_head`.
    qh: Vec<f32>,
    kh: Vec<f32>,
    vh: Vec<f32>,
    /// Each head's attention probabilities `[n, n]`, head after head.
    attn: Vec<f32>,
    /// The heads' outputs side by side `[n, d]`.
    concat: Vec<f32>,
    /// Dropout masks on the attention and feed-forward outputs `[n, d]`.
    mask_attn: Vec<f32>,
    mask_ffn: Vec<f32>,
    /// The inputs of the two LayerNorms `[n, d]`, and the first one's
    /// output.
    res1: Vec<f32>,
    x1: Vec<f32>,
    res2: Vec<f32>,
    /// GELU's input, its saved `tanh` and its output `[n, d_ff]`.
    ffn_in: Vec<f32>,
    ffn_tanh: Vec<f32>,
    ffn: Vec<f32>,
}

/// Gradient buffers of [`Tplm::backward`], named after the value whose
/// gradient they hold.
#[derive(Debug, Default)]
struct TrunkGrads {
    /// The residual stream at the current point `[n, d]`.
    x: Vec<f32>,
    /// A LayerNorm's input, the first LayerNorm's output, a sub-layer's
    /// output, a projection's input before it is added `[n, d]`.
    res: Vec<f32>,
    x1: Vec<f32>,
    sub: Vec<f32>,
    input: Vec<f32>,
    /// The feed-forward's hidden layer `[n, d_ff]`.
    ffn: Vec<f32>,
    /// The heads' concatenation, and q, k, v `[n, d]`.
    concat: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// One head's output, q, k, v slices `[n, d_head]`; its probabilities
    /// and scores `[n, n]`.
    head: Vec<f32>,
    qh: Vec<f32>,
    kh: Vec<f32>,
    vh: Vec<f32>,
    attn: Vec<f32>,
    scores: Vec<f32>,
    /// Parameter gradients: a `[d, d]` weight, a feed-forward weight
    /// (`[d, d_ff]` or `[d_ff, d]`), a width-`d` row, a width-`d_ff` row,
    /// a LayerNorm gain.
    w: Vec<f32>,
    w_ff: Vec<f32>,
    row: Vec<f32>,
    row_ff: Vec<f32>,
    gain: Vec<f32>,
}

/// Resize every buffer in `bufs` to `len`.
fn size<const N: usize>(bufs: [&mut Vec<f32>; N], len: usize) {
    for b in bufs {
        b.resize(len, 0.0);
    }
}

/// Columns `lo..lo + w` of every `cols`-wide row of `src`, packed into
/// `dst` (`[n, w]`).
fn copy_cols(src: &[f32], cols: usize, lo: usize, dst: &mut [f32], w: usize) {
    for (d, s) in dst.chunks_exact_mut(w).zip(src.chunks_exact(cols)) {
        d.copy_from_slice(&s[lo..lo + w]);
    }
}

/// The tape's gradient of a column slice (`Graph::slice_cols`) landing on
/// its source: `src` (`[n, w]`) zero-padded to columns `lo..lo + w` of
/// `d`-wide rows, copied into `dst` if it is the first contribution and
/// added otherwise. The padding is added too: `+0.0` turns a `-0.0` into
/// `+0.0`, as on the tape.
fn acc_cols(dst: &mut [f32], src: &[f32], d: usize, lo: usize, first: bool) {
    let w = src.len() / (dst.len() / d).max(1);
    for (row, s) in dst.chunks_exact_mut(d).zip(src.chunks_exact(w.max(1))) {
        let (before, rest) = row.split_at_mut(lo);
        let (mid, after) = rest.split_at_mut(w);
        if first {
            before.fill(0.0);
            mid.copy_from_slice(s);
            after.fill(0.0);
        } else {
            before.iter_mut().chain(after.iter_mut()).for_each(|v| *v += 0.0);
            kernels::add_assign(mid, s);
        }
    }
}

/// Parameter-name prefix for all trunk weights. The matcher's AdamW uses it
/// to give the trunk the paper's 3e-5 learning rate, and the blocker uses it
/// to freeze the trunk.
pub const TRUNK_PREFIX: &str = "tplm.";

/// Identity plus Gaussian noise of standard deviation `noise`.
fn near_identity(d: usize, noise: f32, rng: &mut StdRng) -> Matrix {
    let mut m = init::normal(d, d, noise, rng);
    for i in 0..d {
        let v = m.get(i, i) + 1.0;
        m.set(i, i, v);
    }
    m
}

impl Tplm {
    /// Register all trunk parameters in `store` and return the model.
    pub fn new(config: TplmConfig, store: &mut ParamStore) -> Self {
        config.validate();
        let d = config.d_model;
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Token embeddings: row 0 is [PAD] and stays zero.
        let mut tok = init::normal(config.vocab_size, d, 0.02_f32.sqrt().min(0.1), &mut rng);
        // Scale to unit-ish variance rows like pre-trained embeddings.
        for v in tok.as_mut_slice().iter_mut() {
            *v *= 5.0;
        }
        let tok_emb = store.add(format!("{TRUNK_PREFIX}tok_emb"), tok);
        let pos_emb = store
            .add(format!("{TRUNK_PREFIX}pos_emb"), init::normal(config.max_len, d, 0.05, &mut rng));

        let mut layers = Vec::with_capacity(config.n_layers);
        for l in 0..config.n_layers {
            let p = |suffix: &str| format!("{TRUNK_PREFIX}layer{l}.{suffix}");
            // Q/K/V start near the identity: attention scores then begin as
            // token-embedding similarity, so "attend to your own copy in
            // the other segment" is available from step one. Pre-trained
            // transformers arrive with such matching heads (this is the
            // behavioural prior our pre-training substitute cannot learn
            // from co-occurrence alone); see DESIGN.md §2.
            layers.push(LayerParams {
                wq: store.add(p("wq"), near_identity(d, 0.05, &mut rng)),
                wk: store.add(p("wk"), near_identity(d, 0.05, &mut rng)),
                wv: store.add(p("wv"), near_identity(d, 0.05, &mut rng)),
                wo: store.add(p("wo"), init::xavier_uniform(d, d, &mut rng)),
                bo: store.add(p("bo"), Matrix::zeros(1, d)),
                ln1_gain: store.add(p("ln1.gain"), Matrix::full(1, d, 1.0)),
                ln1_bias: store.add(p("ln1.bias"), Matrix::zeros(1, d)),
                ff_w1: store.add(p("ff.w1"), init::xavier_uniform(d, config.d_ff, &mut rng)),
                ff_b1: store.add(p("ff.b1"), Matrix::zeros(1, config.d_ff)),
                ff_w2: store.add(p("ff.w2"), init::xavier_uniform(config.d_ff, d, &mut rng)),
                ff_b2: store.add(p("ff.b2"), Matrix::zeros(1, d)),
                ln2_gain: store.add(p("ln2.gain"), Matrix::full(1, d, 1.0)),
                ln2_bias: store.add(p("ln2.bias"), Matrix::zeros(1, d)),
            });
        }
        Tplm { config, tok_emb, pos_emb, layers }
    }

    pub fn config(&self) -> &TplmConfig {
        &self.config
    }

    /// Handle of the token-embedding table (the pre-training substitute
    /// writes into it; the multilingual alignment initializer reads it).
    pub fn token_embedding_param(&self) -> ParamId {
        self.tok_emb
    }

    /// Freeze or unfreeze every trunk parameter.
    pub fn set_trunk_frozen(&self, store: &mut ParamStore, frozen: bool) {
        store.set_frozen_by_prefix(TRUNK_PREFIX, frozen);
    }

    fn check_len(&self, ids: &[TokenId]) {
        assert!(!ids.is_empty(), "cannot encode an empty sequence");
        assert!(
            ids.len() <= self.config.max_len,
            "sequence length {} exceeds max_len {}",
            ids.len(),
            self.config.max_len
        );
    }

    /// Encode a token sequence to contextual embeddings `[n, d]` on the
    /// tape — the bitwise oracle of [`Tplm::encode_into`],
    /// [`Tplm::encode_train`] and [`Tplm::backward`].
    ///
    /// `dropout > 0` requires `rng`; pass `0.0` for inference.
    pub fn encode(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        ids: &[TokenId],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        self.check_len(ids);
        let n = ids.len();
        let tok = g.gather(store, self.tok_emb, ids);
        let positions: Vec<u32> = (0..n as u32).collect();
        let pos = g.gather(store, self.pos_emb, &positions);
        let mut x = g.add(tok, pos);

        let scale = 1.0 / (self.config.d_head() as f32).sqrt();
        for layer in &self.layers {
            // ---- multi-head self-attention ----
            let wq = g.param(store, layer.wq);
            let wk = g.param(store, layer.wk);
            let wv = g.param(store, layer.wv);
            let q = g.matmul(x, wq);
            let k = g.matmul(x, wk);
            let v = g.matmul(x, wv);

            let dh = self.config.d_head();
            let mut heads = Vec::with_capacity(self.config.n_heads);
            for h in 0..self.config.n_heads {
                let (lo, hi) = (h * dh, (h + 1) * dh);
                let qh = g.slice_cols(q, lo, hi);
                let kh = g.slice_cols(k, lo, hi);
                let vh = g.slice_cols(v, lo, hi);
                let scores = g.matmul_t(qh, kh);
                let scores = g.scale(scores, scale);
                let attn = g.softmax_rows(scores);
                heads.push(g.matmul(attn, vh));
            }
            let concat = g.concat_cols(&heads);
            let wo = g.param(store, layer.wo);
            let bo = g.param(store, layer.bo);
            let a = g.linear(concat, wo, bo);
            let a = g.dropout(a, dropout, rng);
            let res = g.add(x, a);
            let ln1_gain = g.param(store, layer.ln1_gain);
            let ln1_bias = g.param(store, layer.ln1_bias);
            x = g.layer_norm(res, ln1_gain, ln1_bias);

            // ---- feed-forward ----
            let w1 = g.param(store, layer.ff_w1);
            let b1 = g.param(store, layer.ff_b1);
            let w2 = g.param(store, layer.ff_w2);
            let b2 = g.param(store, layer.ff_b2);
            let h1 = g.linear(x, w1, b1);
            let h1 = g.gelu(h1);
            let h2 = g.linear(h1, w2, b2);
            let h2 = g.dropout(h2, dropout, rng);
            let res2 = g.add(x, h2);
            let ln2_gain = g.param(store, layer.ln2_gain);
            let ln2_bias = g.param(store, layer.ln2_bias);
            x = g.layer_norm(res2, ln2_gain, ln2_bias);
        }
        x
    }

    /// Single-mode record embedding `E(x)`: the mean of the last layer's
    /// token embeddings (paper Eq. 3), shape `[1, d]`.
    pub fn encode_single(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        ids: &[TokenId],
        dropout: f32,
        rng: &mut StdRng,
    ) -> Var {
        let ctx = self.encode(g, store, ids, dropout, rng);
        g.mean_rows(ctx)
    }

    /// [`Tplm::encode`] at `dropout = 0` without a tape: the contextual
    /// embeddings `[n, d]`, computed in `scratch` and borrowed from it.
    /// Nothing is kept for a backward pass.
    pub fn encode_into<'s>(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        scratch: &'s mut EncodeScratch,
    ) -> &'s [f32] {
        self.forward(store, ids, None, scratch)
    }

    /// [`Tplm::encode`] without a tape, keeping in `scratch` what
    /// [`Tplm::backward`] reads. Dropout masks are drawn from `rng` in the
    /// tape's order, so with the same `rng` the output is bitwise
    /// `encode`'s.
    pub fn encode_train<'s>(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        dropout: f32,
        rng: &mut StdRng,
        scratch: &'s mut EncodeScratch,
    ) -> &'s [f32] {
        assert!((0.0..1.0).contains(&dropout), "dropout probability must be in [0, 1)");
        self.forward(store, ids, Some((dropout, rng)), scratch)
    }

    /// The forward behind [`Tplm::encode_into`] (`train = None`) and
    /// [`Tplm::encode_train`]. Issues the kernel calls `encode` issues, in
    /// its order, on buffers instead of graph nodes.
    fn forward<'s>(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        mut train: Option<(f32, &mut StdRng)>,
        scratch: &'s mut EncodeScratch,
    ) -> &'s [f32] {
        self.check_len(ids);
        let (n, d, dh, d_ff) =
            (ids.len(), self.config.d_model, self.config.d_head(), self.config.d_ff);
        let heads = self.config.n_heads;
        let keep = train.is_some();
        let EncodeScratch { layers, out, proj, scores, head, kept, dropped, .. } = scratch;
        *kept = keep;
        *dropped = train.as_ref().is_some_and(|(p, _)| *p > 0.0);
        let slots = if keep { self.layers.len() } else { 1 };
        if layers.len() < slots {
            layers.resize_with(slots, LayerActs::default);
        }
        let (tok, pos) = (store.value(self.tok_emb), store.value(self.pos_emb));
        let x = &mut layers[0].x;
        x.clear();
        for (p, &id) in ids.iter().enumerate() {
            x.extend(tok.row(id as usize).iter().zip(pos.row(p)).map(|(t, p)| t + p));
        }
        proj.resize(n * d, 0.0);
        scores.resize(n * n, 0.0);
        head.resize(n * dh, 0.0);

        let w = |id: ParamId| store.value(id).as_slice();
        let scale = 1.0 / (dh as f32).sqrt();
        for (l, layer) in self.layers.iter().enumerate() {
            let a = &mut layers[if keep { l } else { 0 }];
            size([&mut a.qh, &mut a.kh, &mut a.vh, &mut a.concat], n * d);
            size([&mut a.res1, &mut a.x1, &mut a.res2], n * d);
            size([&mut a.ffn_in, &mut a.ffn_tanh, &mut a.ffn], n * d_ff);
            a.attn.resize(heads * n * n, 0.0);

            // ---- multi-head self-attention ----
            for (wt, split) in [(layer.wq, &mut a.qh), (layer.wk, &mut a.kh), (layer.wv, &mut a.vh)]
            {
                kernels::matmul(&a.x, w(wt), n, d, d, proj);
                for (h, blk) in split.chunks_exact_mut(n * dh).enumerate() {
                    copy_cols(proj, d, h * dh, blk, dh);
                }
            }
            for h in 0..heads {
                let (blk, probs) = (h * n * dh..(h + 1) * n * dh, h * n * n..(h + 1) * n * n);
                let attn = &mut a.attn[probs];
                kernels::matmul_t(&a.qh[blk.clone()], &a.kh[blk.clone()], n, n, dh, scores);
                kernels::scale(scores, scale);
                kernels::softmax_rows(scores, n, attn);
                kernels::matmul(attn, &a.vh[blk], n, n, dh, head);
                for (row, hrow) in a.concat.chunks_exact_mut(d).zip(head.chunks_exact(dh)) {
                    row[h * dh..(h + 1) * dh].copy_from_slice(hrow);
                }
            }
            kernels::matmul(&a.concat, w(layer.wo), n, d, d, proj);
            kernels::add_row(proj, w(layer.bo));
            if let Some((p, rng)) = &mut train {
                kernels::dropout(*p, &mut **rng, &mut a.mask_attn, proj);
            }
            a.res1.copy_from_slice(&a.x);
            kernels::add_assign(&mut a.res1, proj);
            a.x1.copy_from_slice(&a.res1);
            kernels::layer_norm_rows(&mut a.x1, w(layer.ln1_gain), w(layer.ln1_bias));

            // ---- feed-forward ----
            kernels::matmul(&a.x1, w(layer.ff_w1), n, d, d_ff, &mut a.ffn_in);
            kernels::add_row(&mut a.ffn_in, w(layer.ff_b1));
            kernels::gelu(&a.ffn_in, &mut a.ffn, &mut a.ffn_tanh);
            kernels::matmul(&a.ffn, w(layer.ff_w2), n, d_ff, d, proj);
            kernels::add_row(proj, w(layer.ff_b2));
            if let Some((p, rng)) = &mut train {
                kernels::dropout(*p, &mut **rng, &mut a.mask_ffn, proj);
            }
            a.res2.copy_from_slice(&a.x1);
            kernels::add_assign(&mut a.res2, proj);
            out.clear();
            out.extend_from_slice(&a.res2);
            kernels::layer_norm_rows(out, w(layer.ln2_gain), w(layer.ln2_bias));
            if l + 1 < self.layers.len() {
                std::mem::swap(out, &mut layers[if keep { l + 1 } else { 0 }].x);
            }
        }
        out
    }

    /// Backpropagate `d_out`, the gradient of the output of the last
    /// [`Tplm::encode_train`] on `scratch` (same `store` and `ids`), through
    /// the trunk, adding every parameter's gradient into `sink`.
    ///
    /// Straight-line code over the saved activations that issues the tape's
    /// backward kernel calls in its reverse-node order, so every gradient
    /// is bitwise `Graph::backward`'s on `encode`'s tape: a value used twice
    /// takes its first contribution as a copy and adds the later ones, a
    /// layer input sums the residual's gradient first and then `v`'s, `k`'s
    /// and `q`'s, each parameter's gradient is added into `sink` once, and
    /// the embedding tables take one row per position, in position order.
    pub fn backward(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        d_out: &[f32],
        scratch: &mut EncodeScratch,
        sink: &mut GradSink<'_>,
    ) {
        let (n, d, dh, d_ff) =
            (ids.len(), self.config.d_model, self.config.d_head(), self.config.d_ff);
        let heads = self.config.n_heads;
        assert_eq!(d_out.len(), n * d, "backward: output gradient is not {n}x{d}");
        let EncodeScratch { layers, kept, dropped, grad: g, .. } = scratch;
        assert!(*kept, "backward reads the activations of the last encode_train on this scratch");
        size([&mut g.res, &mut g.x1, &mut g.sub, &mut g.input], n * d);
        size([&mut g.concat, &mut g.q, &mut g.k, &mut g.v], n * d);
        size([&mut g.head, &mut g.qh, &mut g.kh, &mut g.vh], n * dh);
        size([&mut g.attn, &mut g.scores], n * n);
        size([&mut g.ffn], n * d_ff);
        size([&mut g.w], d * d);
        size([&mut g.w_ff], d * d_ff);
        size([&mut g.row, &mut g.gain], d);
        size([&mut g.row_ff], d_ff);
        g.x.clear();
        g.x.extend_from_slice(d_out);

        let w = |id: ParamId| store.value(id).as_slice();
        let scale = 1.0 / (dh as f32).sqrt();
        for (layer, a) in self.layers.iter().zip(layers.iter()).rev() {
            // ---- x = LayerNorm(x1 + Dropout(W2 · GELU(W1 · x1 + b1) + b2)) ----
            let (res, gain, row) = (&mut g.res, &mut g.gain, &mut g.row);
            kernels::layer_norm_backward(&a.res2, w(layer.ln2_gain), &g.x, res, gain, row);
            sink.add(layer.ln2_bias, row);
            sink.add(layer.ln2_gain, gain);
            g.x1.copy_from_slice(res);
            g.sub.copy_from_slice(res);
            if *dropped {
                kernels::mul_assign(&mut g.sub, &a.mask_ffn);
            }
            kernels::add_row_backward(&g.sub, row);
            kernels::matmul_backward(
                &a.ffn,
                w(layer.ff_w2),
                &g.sub,
                n,
                d_ff,
                d,
                &mut g.ffn,
                &mut g.w_ff,
            );
            sink.add(layer.ff_b2, row);
            sink.add(layer.ff_w2, &g.w_ff);
            kernels::gelu_backward(&a.ffn_in, &a.ffn_tanh, &mut g.ffn);
            kernels::add_row_backward(&g.ffn, &mut g.row_ff);
            kernels::matmul_backward(
                &a.x1,
                w(layer.ff_w1),
                &g.ffn,
                n,
                d,
                d_ff,
                &mut g.input,
                &mut g.w_ff,
            );
            kernels::add_assign(&mut g.x1, &g.input);
            sink.add(layer.ff_b1, &g.row_ff);
            sink.add(layer.ff_w1, &g.w_ff);

            // ---- x1 = LayerNorm(x + Dropout(Wo · heads + bo)) ----
            let (res, gain, row) = (&mut g.res, &mut g.gain, &mut g.row);
            kernels::layer_norm_backward(&a.res1, w(layer.ln1_gain), &g.x1, res, gain, row);
            sink.add(layer.ln1_bias, row);
            sink.add(layer.ln1_gain, gain);
            g.x.copy_from_slice(res);
            g.sub.copy_from_slice(res);
            if *dropped {
                kernels::mul_assign(&mut g.sub, &a.mask_attn);
            }
            kernels::add_row_backward(&g.sub, row);
            kernels::matmul_backward(
                &a.concat,
                w(layer.wo),
                &g.sub,
                n,
                d,
                d,
                &mut g.concat,
                &mut g.w,
            );
            sink.add(layer.bo, row);
            sink.add(layer.wo, &g.w);

            // ---- heads, last first ----
            for h in (0..heads).rev() {
                let (blk, probs) = (h * n * dh..(h + 1) * n * dh, h * n * n..(h + 1) * n * n);
                copy_cols(&g.concat, d, h * dh, &mut g.head, dh);
                let (attn, vh) = (&a.attn[probs], &a.vh[blk.clone()]);
                kernels::matmul_backward(attn, vh, &g.head, n, n, dh, &mut g.attn, &mut g.vh);
                kernels::softmax_rows_backward(attn, &g.attn, n, &mut g.scores);
                kernels::scale(&mut g.scores, scale);
                let (qh, kh) = (&a.qh[blk.clone()], &a.kh[blk]);
                kernels::matmul_t_backward(qh, kh, &g.scores, n, n, dh, &mut g.qh, &mut g.kh);
                let first = h + 1 == heads;
                acc_cols(&mut g.v, &g.vh, d, h * dh, first);
                acc_cols(&mut g.k, &g.kh, d, h * dh, first);
                acc_cols(&mut g.q, &g.qh, d, h * dh, first);
            }
            for (wt, dp) in [(layer.wv, &g.v), (layer.wk, &g.k), (layer.wq, &g.q)] {
                kernels::matmul_backward(&a.x, w(wt), dp, n, d, d, &mut g.input, &mut g.w);
                kernels::add_assign(&mut g.x, &g.input);
                sink.add(wt, &g.w);
            }
        }
        // ---- x = TokEmb[ids] + PosEmb[0..n] ----
        for (p, row) in g.x.chunks_exact(d).enumerate() {
            sink.add_row(self.pos_emb, p, row);
        }
        for (&id, row) in ids.iter().zip(g.x.chunks_exact(d)) {
            sink.add_row(self.tok_emb, id as usize, row);
        }
    }

    /// Inference-only single-mode embedding `E(x)` into `out` (`d` floats),
    /// graph-free; `scratch` is reusable across calls.
    pub fn embed_single_into(
        &self,
        store: &ParamStore,
        ids: &[TokenId],
        scratch: &mut EncodeScratch,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.config.d_model, "embed_single_into: output width");
        kernels::mean_rows(self.encode_into(store, ids, scratch), out);
    }

    /// Inference-only single-mode embedding as a plain vector.
    pub fn embed_single(&self, store: &ParamStore, ids: &[TokenId]) -> Vec<f32> {
        let mut out = vec![0.0; self.config.d_model];
        self.embed_single_into(store, ids, &mut EncodeScratch::default(), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Tplm, ParamStore) {
        let mut store = ParamStore::new();
        let model = Tplm::new(TplmConfig::tiny(), &mut store);
        (model, store)
    }

    #[test]
    fn encode_shapes() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.encode(&mut g, &store, &[1, 7, 9, 2], 0.0, &mut rng);
        assert_eq!(g.value(out).shape(), (4, 16));
    }

    #[test]
    fn single_mode_is_row() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model.encode_single(&mut g, &store, &[1, 7, 9, 2], 0.0, &mut rng);
        assert_eq!(g.value(out).shape(), (1, 16));
    }

    #[test]
    fn encoding_is_deterministic_without_dropout() {
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 2]);
        let b = model.embed_single(&store, &[1, 5, 6, 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_tokens_give_different_embeddings() {
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 2]);
        let b = model.embed_single(&store, &[1, 8, 9, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn context_matters_beyond_bag_of_words() {
        // Same multiset of tokens, different order: learned positions make
        // the contextual embeddings differ.
        let (model, store) = tiny();
        let a = model.embed_single(&store, &[1, 5, 6, 7, 2]);
        let b = model.embed_single(&store, &[1, 7, 6, 5, 2]);
        assert_ne!(a, b);
    }

    #[test]
    fn trunk_freezing_blocks_all_grads() {
        let (model, mut store) = tiny();
        model.set_trunk_frozen(&mut store, true);
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = model.encode_single(&mut g, &store, &[1, 3, 2], 0.0, &mut rng);
        let sq = g.mul(e, e);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        assert_eq!(store.grad_sq_norm(), 0.0);
    }

    #[test]
    fn gradients_flow_through_full_stack() {
        let (model, mut store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let e = model.encode_single(&mut g, &store, &[1, 3, 4, 2], 0.0, &mut rng);
        let sq = g.mul(e, e);
        let loss = g.sum(sq);
        g.backward(loss, &mut store);
        // Every layer's attention weights should receive gradient.
        let touched = store
            .ids()
            .filter(|&id| store.name(id).contains("wq") && store.grad(id).sq_norm() > 0.0)
            .count();
        assert_eq!(touched, 1);
        assert!(store.grad(model.token_embedding_param()).sq_norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "last encode_train")]
    fn backward_after_an_inference_forward_panics() {
        // The inference forward reuses the first layer's buffers, so the
        // activations a backward would read are gone.
        let (model, store) = tiny();
        let (ids, mut scratch) = ([1, 3, 4, 2], EncodeScratch::default());
        model.encode_train(&store, &ids, 0.0, &mut StdRng::seed_from_u64(0), &mut scratch);
        model.encode_into(&store, &ids, &mut scratch);
        let mut grads = store.new_grads();
        let mut sink = store.grad_sink_into(&mut grads);
        model.backward(&store, &ids, &[0.0; 4 * 16], &mut scratch, &mut sink);
    }

    #[test]
    #[should_panic(expected = "exceeds max_len")]
    fn too_long_sequence_panics() {
        let (model, store) = tiny();
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let ids: Vec<u32> = (0..100).map(|i| 5 + (i % 30)).collect();
        model.encode(&mut g, &store, &ids, 0.0, &mut rng);
    }
}
