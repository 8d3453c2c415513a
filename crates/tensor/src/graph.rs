//! Reverse-mode automatic differentiation on a per-batch tape.
//!
//! A [`Graph`] is built afresh for every forward pass (the "define-by-run"
//! style). Each op appends a [`Node`] holding its computed value and enough
//! information to propagate gradients to its parents. [`Graph::backward`]
//! walks the tape in reverse, accumulating parameter gradients directly into
//! a [`ParamStore`].
//!
//! Everything is a 2-D [`Matrix`]; see the matrix module docs for the shape
//! conventions. Ops are an enum rather than boxed closures: dispatch is a
//! match, values needed by backward are the stored node values themselves.

use crate::kernels;
use crate::matrix::{dot, Matrix};
use crate::params::{GradSink, Grads, ParamId, ParamStore};
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    /// External input (no gradient beyond the graph).
    Input,
    /// Read of a trainable parameter from the store.
    Param(ParamId),
    /// Row gather from an embedding table parameter.
    Gather {
        table: ParamId,
        indices: Vec<u32>,
    },
    /// `a @ b`
    MatMul(Var, Var),
    /// `a @ b^T`
    MatMulT(Var, Var),
    /// Element-wise sum, identical shapes.
    Add(Var, Var),
    /// Broadcast add of a `[1, c]` row vector over every row of `a`.
    AddRow(Var, Var),
    Sub(Var, Var),
    /// Element-wise product, identical shapes.
    Mul(Var, Var),
    Scale(Var, f32),
    Tanh(Var),
    /// `tanh` holds the forward's `tanh(u)` per element, which backward
    /// needs again.
    Gelu {
        x: Var,
        tanh: Vec<f32>,
    },
    Relu(Var),
    Abs(Var),
    /// Element-wise `sqrt(x + eps)` (eps keeps the gradient finite at 0).
    SqrtEps(Var, f32),
    /// Row-wise softmax.
    SoftmaxRows(Var),
    /// Row-wise log-sum-exp, `[n, c] -> [n, 1]`.
    LogSumExpRows(Var),
    /// Row-wise layer normalization with learned gain and bias rows.
    LayerNorm {
        x: Var,
        gain: Var,
        bias: Var,
    },
    /// Column-mean over rows, `[n, c] -> [1, c]`.
    MeanRows(Var),
    SliceRows {
        x: Var,
        lo: usize,
        hi: usize,
    },
    SliceCols {
        x: Var,
        lo: usize,
        hi: usize,
    },
    ConcatCols(Vec<Var>),
    ConcatRows(Vec<Var>),
    Transpose(Var),
    /// Replicate a `[1, c]` row `n` times to `[n, c]`.
    RepeatRow {
        x: Var,
        n: usize,
    },
    /// Inverted dropout; `mask` holds `0` or `1/keep` per element.
    Dropout {
        x: Var,
        mask: Vec<f32>,
    },
    /// Row-wise squared distances, `([n,d], [n,d]) -> [n, 1]`.
    RowSqDists(Var, Var),
    /// All-pairs squared distances, `([n,d], [m,d]) -> [n, m]`.
    CrossSqDists(Var, Var),
    /// Sum of all elements, `-> [1,1]`.
    Sum(Var),
    /// Mean of all elements, `-> [1,1]`.
    Mean(Var),
    /// Mean binary cross-entropy with logits; targets in `{0, 1}`.
    BceWithLogits {
        logits: Var,
        targets: Vec<f32>,
    },
    /// Mean softmax cross-entropy over rows against class indices.
    SoftmaxCrossEntropy {
        logits: Var,
        targets: Vec<u32>,
    },
}

#[derive(Debug)]
struct Node {
    op: Op,
    /// Shared so that a parameter read is the store's own matrix, not a
    /// copy of it.
    value: Arc<Matrix>,
}

/// A single-use computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
}

impl Graph {
    pub fn new() -> Self {
        Graph { nodes: Vec::with_capacity(64) }
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value computed at `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        self.push_shared(op, Arc::new(value))
    }

    fn push_shared(&mut self, op: Op, value: Arc<Matrix>) -> Var {
        debug_assert!(!value.has_non_finite(), "non-finite value out of {op:?}");
        self.nodes.push(Node { op, value });
        Var(self.nodes.len() - 1)
    }

    // ---- leaf constructors -------------------------------------------------

    /// Insert an external input.
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Input, value)
    }

    /// Read a parameter (the tape shares the store's matrix; gradients
    /// flow back into the store).
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        self.push_shared(Op::Param(id), store.value_shared(id))
    }

    /// Gather rows `indices` of the embedding table `table`.
    pub fn gather(&mut self, store: &ParamStore, table: ParamId, indices: &[u32]) -> Var {
        let t = store.value(table);
        let mut out = Matrix::zeros(indices.len(), t.cols());
        for (r, &ix) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(t.row(ix as usize));
        }
        self.push(Op::Gather { table, indices: indices.to_vec() }, out)
    }

    // ---- linear algebra ----------------------------------------------------

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul(self.value(b));
        self.push(Op::MatMul(a, b), v)
    }

    /// `a @ b^T` (used for attention scores).
    pub fn matmul_t(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).matmul_t(self.value(b));
        self.push(Op::MatMulT(a, b), v)
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let mut v = va.clone();
        v.add_assign(vb);
        self.push(Op::Add(a, b), v)
    }

    /// Add a `[1, c]` bias row to every row of `a`.
    pub fn add_row(&mut self, a: Var, bias: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(bias));
        assert_eq!(vb.rows(), 1, "add_row bias must be a row vector");
        assert_eq!(va.cols(), vb.cols(), "add_row width mismatch");
        let mut v = va.clone();
        kernels::add_row(v.as_mut_slice(), vb.as_slice());
        self.push(Op::AddRow(a, bias), v)
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let mut v = va.clone();
        v.axpy(-1.0, vb);
        self.push(Op::Sub(a, b), v)
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let mut v = va.clone();
        for (x, y) in v.as_mut_slice().iter_mut().zip(vb.as_slice()) {
            *x *= y;
        }
        self.push(Op::Mul(a, b), v)
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let mut v = self.value(a).clone();
        v.scale(alpha);
        self.push(Op::Scale(a, alpha), v)
    }

    // ---- nonlinearities ----------------------------------------------------

    pub fn tanh(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        kernels::tanh_slice(v.as_mut_slice());
        self.push(Op::Tanh(a), v)
    }

    pub fn gelu(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut v = Matrix::zeros(va.rows(), va.cols());
        let mut tanh = vec![0.0; va.len()];
        kernels::gelu(va.as_slice(), v.as_mut_slice(), &mut tanh);
        self.push(Op::Gelu { x: a, tanh }, v)
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        v.as_mut_slice().iter_mut().for_each(|x| *x = x.max(0.0));
        self.push(Op::Relu(a), v)
    }

    pub fn abs(&mut self, a: Var) -> Var {
        let mut v = self.value(a).clone();
        v.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
        self.push(Op::Abs(a), v)
    }

    /// Element-wise `sqrt(x + eps)`; inputs must be non-negative.
    pub fn sqrt_eps(&mut self, a: Var, eps: f32) -> Var {
        assert!(eps > 0.0, "sqrt_eps needs a positive epsilon");
        let mut v = self.value(a).clone();
        v.as_mut_slice().iter_mut().for_each(|x| *x = (*x + eps).sqrt());
        self.push(Op::SqrtEps(a, eps), v)
    }

    pub fn softmax_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut v = Matrix::zeros(va.rows(), va.cols());
        kernels::softmax_rows(va.as_slice(), va.cols(), v.as_mut_slice());
        self.push(Op::SoftmaxRows(a), v)
    }

    pub fn logsumexp_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = Matrix::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            out.set(r, 0, kernels::logsumexp(va.row(r)));
        }
        self.push(Op::LogSumExpRows(a), out)
    }

    /// Row-wise layer normalization; `gain` and `bias` are `[1, c]`.
    pub fn layer_norm(&mut self, x: Var, gain: Var, bias: Var) -> Var {
        let (vx, vg, vb) = (self.value(x), self.value(gain), self.value(bias));
        assert_eq!(vg.shape(), (1, vx.cols()), "layer_norm gain shape");
        assert_eq!(vb.shape(), (1, vx.cols()), "layer_norm bias shape");
        let mut v = vx.clone();
        kernels::layer_norm_rows(v.as_mut_slice(), vg.as_slice(), vb.as_slice());
        self.push(Op::LayerNorm { x, gain, bias }, v)
    }

    // ---- shape ops ---------------------------------------------------------

    pub fn mean_rows(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let mut out = Matrix::zeros(1, va.cols());
        kernels::mean_rows(va.as_slice(), out.as_mut_slice());
        self.push(Op::MeanRows(a), out)
    }

    pub fn slice_rows(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let v = self.value(x).slice_rows(lo, hi);
        self.push(Op::SliceRows { x, lo, hi }, v)
    }

    pub fn slice_cols(&mut self, x: Var, lo: usize, hi: usize) -> Var {
        let vx = self.value(x);
        assert!(lo <= hi && hi <= vx.cols(), "slice_cols out of bounds");
        let mut v = Matrix::zeros(vx.rows(), hi - lo);
        for r in 0..vx.rows() {
            v.row_mut(r).copy_from_slice(&vx.row(r)[lo..hi]);
        }
        self.push(Op::SliceCols { x, lo, hi }, v)
    }

    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols of nothing");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let mut v = Matrix::zeros(rows, total);
        let mut off = 0;
        for &p in parts {
            let vp = self.value(p);
            assert_eq!(vp.rows(), rows, "concat_cols row mismatch");
            for r in 0..rows {
                v.row_mut(r)[off..off + vp.cols()].copy_from_slice(vp.row(r));
            }
            off += vp.cols();
        }
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows of nothing");
        let mats: Vec<&Matrix> = parts.iter().map(|&p| self.value(p)).collect();
        let v = Matrix::vstack(&mats);
        self.push(Op::ConcatRows(parts.to_vec()), v)
    }

    pub fn transpose(&mut self, x: Var) -> Var {
        let v = self.value(x).transpose();
        self.push(Op::Transpose(x), v)
    }

    pub fn repeat_row(&mut self, x: Var, n: usize) -> Var {
        let vx = self.value(x);
        assert_eq!(vx.rows(), 1, "repeat_row input must be a row vector");
        let mut v = Matrix::zeros(n, vx.cols());
        for r in 0..n {
            v.row_mut(r).copy_from_slice(vx.row(0));
        }
        self.push(Op::RepeatRow { x, n }, v)
    }

    /// Inverted dropout with keep probability `1 - p`; identity when
    /// `p == 0`.
    pub fn dropout(&mut self, x: Var, p: f32, rng: &mut StdRng) -> Var {
        assert!((0.0..1.0).contains(&p), "dropout probability must be in [0, 1)");
        if p == 0.0 {
            return x;
        }
        let keep = 1.0 - p;
        let vx = self.value(x);
        let mask: Vec<f32> =
            (0..vx.len()).map(|_| if rng.gen::<f32>() < keep { 1.0 / keep } else { 0.0 }).collect();
        let mut v = vx.clone();
        for (a, m) in v.as_mut_slice().iter_mut().zip(&mask) {
            *a *= m;
        }
        self.push(Op::Dropout { x, mask }, v)
    }

    // ---- distances ----------------------------------------------------------

    /// `out[i, 0] = ||a_i - b_i||^2` for row-aligned `a`, `b`.
    pub fn row_sq_dists(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "row_sq_dists shape mismatch");
        let mut out = Matrix::zeros(va.rows(), 1);
        for r in 0..va.rows() {
            out.set(r, 0, crate::matrix::sq_dist(va.row(r), vb.row(r)));
        }
        self.push(Op::RowSqDists(a, b), out)
    }

    /// `out[i, j] = ||a_i - b_j||^2` for all row pairs.
    pub fn cross_sq_dists(&mut self, a: Var, b: Var) -> Var {
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.cols(), vb.cols(), "cross_sq_dists width mismatch");
        let mut out = Matrix::zeros(va.rows(), vb.rows());
        kernels::cross_sq_dists_into(
            va.as_slice(),
            vb.as_slice(),
            va.rows(),
            vb.rows(),
            va.cols(),
            out.as_mut_slice(),
        );
        self.push(Op::CrossSqDists(a, b), out)
    }

    // ---- reductions / losses -------------------------------------------------

    pub fn sum(&mut self, a: Var) -> Var {
        let v = Matrix::scalar(self.value(a).sum());
        self.push(Op::Sum(a), v)
    }

    pub fn mean(&mut self, a: Var) -> Var {
        let va = self.value(a);
        let v = Matrix::scalar(va.sum() / va.len() as f32);
        self.push(Op::Mean(a), v)
    }

    /// Mean binary cross-entropy over `[n, 1]` logits with `{0,1}` targets.
    pub fn bce_with_logits(&mut self, logits: Var, targets: &[f32]) -> Var {
        let vl = self.value(logits);
        assert_eq!(vl.cols(), 1, "bce logits must be a column");
        assert_eq!(vl.rows(), targets.len(), "bce target count mismatch");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let z = vl.get(r, 0);
            // Numerically stable: max(z,0) - z*t + ln(1 + exp(-|z|))
            loss += z.max(0.0) - z * t + kernels::exp(-z.abs()).ln_1p();
        }
        let v = Matrix::scalar(loss / targets.len() as f32);
        self.push(Op::BceWithLogits { logits, targets: targets.to_vec() }, v)
    }

    /// Mean softmax cross-entropy over rows of `[n, C]` logits.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let vl = self.value(logits);
        assert_eq!(vl.rows(), targets.len(), "cross-entropy target count mismatch");
        let mut loss = 0.0;
        for (r, &t) in targets.iter().enumerate() {
            let row = vl.row(r);
            assert!((t as usize) < row.len(), "target class out of range");
            loss += kernels::logsumexp(row) - row[t as usize];
        }
        let v = Matrix::scalar(loss / targets.len() as f32);
        self.push(Op::SoftmaxCrossEntropy { logits, targets: targets.to_vec() }, v)
    }

    // ---- composite helpers -----------------------------------------------------

    /// `x @ w + b` with `b` broadcast over rows.
    pub fn linear(&mut self, x: Var, w: Var, b: Var) -> Var {
        let h = self.matmul(x, w);
        self.add_row(h, b)
    }

    // ---- backward -----------------------------------------------------------

    /// Run reverse-mode accumulation from scalar `root`, adding parameter
    /// gradients into `store`. Gradients of frozen parameters are skipped.
    pub fn backward(&self, root: Var, store: &mut ParamStore) {
        self.backward_to(root, store.grad_sink());
    }

    /// As [`Graph::backward`], but adding parameter gradients into `grads`
    /// (made by [`ParamStore::new_grads`] on `store`) and leaving `store`
    /// untouched, so workers sharing one store can each fill a shard.
    pub fn backward_into(&self, root: Var, store: &ParamStore, grads: &mut Grads) {
        self.backward_to(root, store.grad_sink_into(grads));
    }

    fn backward_to(&self, root: Var, mut sink: GradSink<'_>) {
        assert_eq!(self.value(root).len(), 1, "backward root must be scalar");
        let mut grads: Vec<Option<Matrix>> = vec![None; self.nodes.len()];
        grads[root.0] = Some(Matrix::scalar(1.0));

        for i in (0..=root.0).rev() {
            let Some(g) = grads[i].take() else { continue };
            self.backprop_node(i, &g, &mut grads, &mut sink);
        }
    }

    fn backprop_node(
        &self,
        i: usize,
        g: &Matrix,
        grads: &mut [Option<Matrix>],
        sink: &mut GradSink<'_>,
    ) {
        let node = &self.nodes[i];
        match &node.op {
            Op::Input => {}
            Op::Param(id) => {
                if let Some(gp) = sink.grad_mut(*id) {
                    gp.add_assign(g);
                }
            }
            Op::Gather { table, indices } => {
                if let Some(gt) = sink.grad_mut(*table) {
                    for (r, &ix) in indices.iter().enumerate() {
                        let dst = gt.row_mut(ix as usize);
                        for (d, s) in dst.iter_mut().zip(g.row(r)) {
                            *d += s;
                        }
                    }
                }
            }
            Op::MatMul(a, b) => {
                // dA = g @ B^T ; dB = A^T @ g
                let da = g.matmul_t(self.value(*b));
                let db = self.value(*a).t_matmul(g);
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::MatMulT(a, b) => {
                // y = A @ B^T : dA = g @ B ; dB = g^T @ A
                let da = g.matmul(self.value(*b));
                let db = g.t_matmul(self.value(*a));
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::Add(a, b) => {
                acc(grads, *a, g.clone());
                acc(grads, *b, g.clone());
            }
            Op::AddRow(a, bias) => {
                acc(grads, *a, g.clone());
                let mut gb = Matrix::zeros(1, g.cols());
                for r in 0..g.rows() {
                    for (o, x) in gb.row_mut(0).iter_mut().zip(g.row(r)) {
                        *o += x;
                    }
                }
                acc(grads, *bias, gb);
            }
            Op::Sub(a, b) => {
                acc(grads, *a, g.clone());
                let mut gb = g.clone();
                gb.scale(-1.0);
                acc(grads, *b, gb);
            }
            Op::Mul(a, b) => {
                let mut da = g.clone();
                for (x, y) in da.as_mut_slice().iter_mut().zip(self.value(*b).as_slice()) {
                    *x *= y;
                }
                let mut db = g.clone();
                for (x, y) in db.as_mut_slice().iter_mut().zip(self.value(*a).as_slice()) {
                    *x *= y;
                }
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::Scale(a, alpha) => {
                let mut da = g.clone();
                da.scale(*alpha);
                acc(grads, *a, da);
            }
            Op::Tanh(a) => {
                let mut da = g.clone();
                for (x, y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                    *x *= 1.0 - y * y;
                }
                acc(grads, *a, da);
            }
            Op::Gelu { x, tanh } => {
                let mut da = g.clone();
                let inputs = self.value(*x).as_slice();
                for ((d, inp), t) in da.as_mut_slice().iter_mut().zip(inputs).zip(tanh) {
                    *d *= gelu_grad(*inp, *t);
                }
                acc(grads, *x, da);
            }
            Op::Relu(a) => {
                let mut da = g.clone();
                for (x, inp) in da.as_mut_slice().iter_mut().zip(self.value(*a).as_slice()) {
                    if *inp <= 0.0 {
                        *x = 0.0;
                    }
                }
                acc(grads, *a, da);
            }
            Op::Abs(a) => {
                let mut da = g.clone();
                for (x, inp) in da.as_mut_slice().iter_mut().zip(self.value(*a).as_slice()) {
                    if *inp < 0.0 {
                        *x = -*x;
                    }
                }
                acc(grads, *a, da);
            }
            Op::SqrtEps(a, eps) => {
                debug_assert!(*eps > 0.0);
                // d/dx sqrt(x + eps) = 1 / (2 sqrt(x + eps)) = 1 / (2 y)
                let mut da = g.clone();
                for (x, y) in da.as_mut_slice().iter_mut().zip(node.value.as_slice()) {
                    *x *= 0.5 / y;
                }
                acc(grads, *a, da);
            }
            Op::SoftmaxRows(a) => {
                // dx = y * (g - sum(g * y, per row))
                let y = &node.value;
                let mut da = Matrix::zeros(y.rows(), y.cols());
                for r in 0..y.rows() {
                    let s = dot(g.row(r), y.row(r));
                    for ((d, gg), yy) in da.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r)) {
                        *d = yy * (gg - s);
                    }
                }
                acc(grads, *a, da);
            }
            Op::LogSumExpRows(a) => {
                // dx_rc = g_r * softmax(x_r)_c
                let x = self.value(*a);
                let mut da = Matrix::zeros(x.rows(), x.cols());
                kernels::softmax_rows(x.as_slice(), x.cols(), da.as_mut_slice());
                for r in 0..x.rows() {
                    let gr = g.get(r, 0);
                    da.row_mut(r).iter_mut().for_each(|d| *d *= gr);
                }
                acc(grads, *a, da);
            }
            Op::LayerNorm { x, gain, bias } => {
                let vx = self.value(*x);
                let vg = self.value(*gain);
                let c = vx.cols() as f32;
                let mut dx = Matrix::zeros(vx.rows(), vx.cols());
                let mut dgain = Matrix::zeros(1, vx.cols());
                let mut dbias = Matrix::zeros(1, vx.cols());
                for r in 0..vx.rows() {
                    let row = vx.row(r);
                    let (mean, inv_std) = kernels::row_moments(row);
                    let xhat: Vec<f32> = row.iter().map(|&v| (v - mean) * inv_std).collect();
                    let gr = g.row(r);
                    // Parameter grads.
                    for ((dg, db_), (gg, xh)) in dgain
                        .row_mut(0)
                        .iter_mut()
                        .zip(dbias.row_mut(0).iter_mut())
                        .zip(gr.iter().zip(&xhat))
                    {
                        *dg += gg * xh;
                        *db_ += gg;
                    }
                    // Input grad.
                    let dxhat: Vec<f32> =
                        gr.iter().zip(vg.row(0)).map(|(gg, gn)| gg * gn).collect();
                    let mean_dxhat = dxhat.iter().sum::<f32>() / c;
                    let mean_dxhat_xhat =
                        dxhat.iter().zip(&xhat).map(|(a, b)| a * b).sum::<f32>() / c;
                    for ((d, dh), xh) in dx.row_mut(r).iter_mut().zip(&dxhat).zip(&xhat) {
                        *d = inv_std * (dh - mean_dxhat - xh * mean_dxhat_xhat);
                    }
                }
                acc(grads, *x, dx);
                acc(grads, *gain, dgain);
                acc(grads, *bias, dbias);
            }
            Op::MeanRows(a) => {
                let n = self.value(*a).rows();
                let mut da = Matrix::zeros(n, g.cols());
                let inv = 1.0 / n as f32;
                for r in 0..n {
                    for (d, s) in da.row_mut(r).iter_mut().zip(g.row(0)) {
                        *d = s * inv;
                    }
                }
                acc(grads, *a, da);
            }
            Op::SliceRows { x, lo, hi } => {
                let vx = self.value(*x);
                debug_assert_eq!(g.rows(), hi - lo);
                let mut da = Matrix::zeros(vx.rows(), vx.cols());
                for r in 0..g.rows() {
                    da.row_mut(lo + r).copy_from_slice(g.row(r));
                }
                acc(grads, *x, da);
            }
            Op::SliceCols { x, lo, hi } => {
                let vx = self.value(*x);
                debug_assert_eq!(g.cols(), hi - lo);
                let mut da = Matrix::zeros(vx.rows(), vx.cols());
                for r in 0..g.rows() {
                    da.row_mut(r)[*lo..lo + g.cols()].copy_from_slice(g.row(r));
                }
                acc(grads, *x, da);
            }
            Op::ConcatCols(parts) => {
                let mut off = 0;
                for &p in parts {
                    let w = self.value(p).cols();
                    let mut dp = Matrix::zeros(g.rows(), w);
                    for r in 0..g.rows() {
                        dp.row_mut(r).copy_from_slice(&g.row(r)[off..off + w]);
                    }
                    acc(grads, p, dp);
                    off += w;
                }
            }
            Op::ConcatRows(parts) => {
                let mut off = 0;
                for &p in parts {
                    let h = self.value(p).rows();
                    acc(grads, p, g.slice_rows(off, off + h));
                    off += h;
                }
            }
            Op::Transpose(x) => {
                acc(grads, *x, g.transpose());
            }
            Op::RepeatRow { x, n } => {
                let mut dx = Matrix::zeros(1, g.cols());
                for r in 0..*n {
                    for (d, s) in dx.row_mut(0).iter_mut().zip(g.row(r)) {
                        *d += s;
                    }
                }
                acc(grads, *x, dx);
            }
            Op::Dropout { x, mask } => {
                let mut da = g.clone();
                for (d, m) in da.as_mut_slice().iter_mut().zip(mask) {
                    *d *= m;
                }
                acc(grads, *x, da);
            }
            Op::RowSqDists(a, b) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(vb.rows(), vb.cols());
                for r in 0..va.rows() {
                    let gr = 2.0 * g.get(r, 0);
                    for ((d_a, d_b), (x, y)) in da
                        .row_mut(r)
                        .iter_mut()
                        .zip(db.row_mut(r).iter_mut())
                        .zip(va.row(r).iter().zip(vb.row(r)))
                    {
                        let diff = gr * (x - y);
                        *d_a += diff;
                        *d_b -= diff;
                    }
                }
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::CrossSqDists(a, b) => {
                let (va, vb) = (self.value(*a), self.value(*b));
                let mut da = Matrix::zeros(va.rows(), va.cols());
                let mut db = Matrix::zeros(vb.rows(), vb.cols());
                for i in 0..va.rows() {
                    for j in 0..vb.rows() {
                        let gij = 2.0 * g.get(i, j);
                        if gij == 0.0 {
                            continue;
                        }
                        let (ra, rb) = (va.row(i), vb.row(j));
                        let dai = da.row_mut(i);
                        for (k, d) in dai.iter_mut().enumerate() {
                            *d += gij * (ra[k] - rb[k]);
                        }
                        let dbj = db.row_mut(j);
                        for (k, d) in dbj.iter_mut().enumerate() {
                            *d -= gij * (ra[k] - rb[k]);
                        }
                    }
                }
                acc(grads, *a, da);
                acc(grads, *b, db);
            }
            Op::Sum(a) => {
                let va = self.value(*a);
                acc(grads, *a, Matrix::full(va.rows(), va.cols(), g.item()));
            }
            Op::Mean(a) => {
                let va = self.value(*a);
                let v = g.item() / va.len() as f32;
                acc(grads, *a, Matrix::full(va.rows(), va.cols(), v));
            }
            Op::BceWithLogits { logits, targets } => {
                let vl = self.value(*logits);
                let scale = g.item() / targets.len() as f32;
                let mut dl = Matrix::zeros(vl.rows(), 1);
                for (r, &t) in targets.iter().enumerate() {
                    dl.set(r, 0, scale * (kernels::sigmoid(vl.get(r, 0)) - t));
                }
                acc(grads, *logits, dl);
            }
            Op::SoftmaxCrossEntropy { logits, targets } => {
                let vl = self.value(*logits);
                let scale = g.item() / targets.len() as f32;
                let mut dl = Matrix::zeros(vl.rows(), vl.cols());
                kernels::softmax_rows(vl.as_slice(), vl.cols(), dl.as_mut_slice());
                for (r, &t) in targets.iter().enumerate() {
                    let row = dl.row_mut(r);
                    row[t as usize] -= 1.0;
                    row.iter_mut().for_each(|d| *d *= scale);
                }
                acc(grads, *logits, dl);
            }
        }
    }
}

fn acc(grads: &mut [Option<Matrix>], v: Var, delta: Matrix) {
    match &mut grads[v.0] {
        Some(g) => g.add_assign(&delta),
        slot @ None => *slot = Some(delta),
    }
}

/// GELU's derivative at `x`, given the `t` that [`kernels::gelu`] saved in
/// the forward.
#[inline]
fn gelu_grad(x: f32, t: f32) -> f32 {
    let du = kernels::GELU_C * (1.0 + 3.0 * kernels::GELU_K * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::normal;
    use rand::SeedableRng;

    /// Central finite-difference check of the gradient flowing into `store`
    /// parameter `id` for a scalar-valued builder.
    fn check_param_grad<F>(store: &mut ParamStore, id: ParamId, build: F, tol: f32)
    where
        F: Fn(&mut Graph, &ParamStore) -> Var,
    {
        store.zero_grads();
        let mut g = Graph::new();
        let loss = build(&mut g, store);
        g.backward(loss, store);
        let analytic = store.grad(id).clone();

        let eps = 3e-3f32;
        for k in 0..store.value(id).len() {
            let orig = store.value(id).as_slice()[k];
            store.value_mut(id).as_mut_slice()[k] = orig + eps;
            let mut gp = Graph::new();
            let lp = build(&mut gp, store);
            let fp = gp.value(lp).item();
            store.value_mut(id).as_mut_slice()[k] = orig - eps;
            let mut gm = Graph::new();
            let lm = build(&mut gm, store);
            let fm = gm.value(lm).item();
            store.value_mut(id).as_mut_slice()[k] = orig;
            let numeric = (fp - fm) / (2.0 * eps);
            let a = analytic.as_slice()[k];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                "grad mismatch at {k}: analytic {a}, numeric {numeric}"
            );
        }
    }

    fn seeded_store(shapes: &[(usize, usize)]) -> (ParamStore, Vec<ParamId>) {
        let mut rng = StdRng::seed_from_u64(123);
        let mut store = ParamStore::new();
        let ids = shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| store.add(format!("p{i}"), normal(r, c, 0.5, &mut rng)))
            .collect();
        (store, ids)
    }

    #[test]
    fn grad_linear_tanh_bce() {
        let (mut store, ids) = seeded_store(&[(3, 4), (4, 1), (1, 1)]);
        let (i0, i1, i2) = (ids[0], ids[1], ids[2]);
        let x = normal(5, 3, 1.0, &mut StdRng::seed_from_u64(9));
        for &id in &ids {
            let x = x.clone();
            check_param_grad(
                &mut store,
                id,
                move |g, s| {
                    let xin = g.input(x.clone());
                    let w1 = g.param(s, i0);
                    let w2 = g.param(s, i1);
                    let b = g.param(s, i2);
                    let h = g.matmul(xin, w1);
                    let h = g.tanh(h);
                    let z = g.matmul(h, w2);
                    let z = g.add_row(z, b);
                    g.bce_with_logits(z, &[1.0, 0.0, 1.0, 1.0, 0.0])
                },
                2e-2,
            );
        }
    }

    #[test]
    fn grad_softmax_cross_entropy() {
        let (mut store, ids) = seeded_store(&[(4, 3)]);
        let i0 = ids[0];
        let x = normal(2, 4, 1.0, &mut StdRng::seed_from_u64(5));
        check_param_grad(
            &mut store,
            i0,
            move |g, s| {
                let xin = g.input(x.clone());
                let w = g.param(s, i0);
                let z = g.matmul(xin, w);
                g.softmax_cross_entropy(z, &[2, 0])
            },
            2e-2,
        );
    }

    #[test]
    fn grad_layer_norm() {
        let (mut store, ids) = seeded_store(&[(3, 6), (1, 6), (1, 6)]);
        let (i0, i1, i2) = (ids[0], ids[1], ids[2]);
        let x = normal(4, 3, 1.0, &mut StdRng::seed_from_u64(11));
        for &id in &ids {
            let x = x.clone();
            check_param_grad(
                &mut store,
                id,
                move |g, s| {
                    let xin = g.input(x.clone());
                    let w = g.param(s, i0);
                    let gain = g.param(s, i1);
                    let bias = g.param(s, i2);
                    let h = g.matmul(xin, w);
                    let h = g.layer_norm(h, gain, bias);
                    let h = g.gelu(h);
                    g.mean(h)
                },
                3e-2,
            );
        }
    }

    #[test]
    fn grad_attention_shaped_graph() {
        // A miniature attention: softmax(QK^T) V with shared projections.
        let (mut store, ids) = seeded_store(&[(5, 4), (5, 4), (5, 4)]);
        let (i0, i1, i2) = (ids[0], ids[1], ids[2]);
        let x = normal(3, 5, 0.7, &mut StdRng::seed_from_u64(17));
        for &id in &ids {
            let x = x.clone();
            check_param_grad(
                &mut store,
                id,
                move |g, s| {
                    let xin = g.input(x.clone());
                    let wq = g.param(s, i0);
                    let wk = g.param(s, i1);
                    let wv = g.param(s, i2);
                    let q = g.matmul(xin, wq);
                    let k = g.matmul(xin, wk);
                    let v = g.matmul(xin, wv);
                    let scores = g.matmul_t(q, k);
                    let scores = g.scale(scores, 0.5);
                    let attn = g.softmax_rows(scores);
                    let out = g.matmul(attn, v);
                    g.mean(out)
                },
                3e-2,
            );
        }
    }

    #[test]
    fn grad_gather_and_mean_pool() {
        let (mut store, ids) = seeded_store(&[(7, 4)]);
        let i0 = ids[0];
        check_param_grad(
            &mut store,
            i0,
            move |g, s| {
                let e = g.gather(s, i0, &[1, 3, 3, 6]);
                let pooled = g.mean_rows(e);
                let sq = g.mul(pooled, pooled);
                g.sum(sq)
            },
            2e-2,
        );
    }

    #[test]
    fn grad_contrastive_shaped_graph() {
        // InfoNCE over squared distances, as the blocker uses.
        let (mut store, ids) = seeded_store(&[(4, 3)]);
        let i0 = ids[0];
        let pr = normal(2, 4, 0.8, &mut StdRng::seed_from_u64(31));
        let ps = normal(2, 4, 0.8, &mut StdRng::seed_from_u64(32));
        let nr = normal(3, 4, 0.8, &mut StdRng::seed_from_u64(33));
        let ns = normal(3, 4, 0.8, &mut StdRng::seed_from_u64(34));
        check_param_grad(
            &mut store,
            i0,
            move |g, s| {
                let u = g.param(s, i0);
                let epr0 = g.input(pr.clone());
                let eps0 = g.input(ps.clone());
                let enr0 = g.input(nr.clone());
                let ens0 = g.input(ns.clone());
                let epr = g.matmul(epr0, u);
                let eps_ = g.matmul(eps0, u);
                let enr = g.matmul(enr0, u);
                let ens = g.matmul(ens0, u);
                let pos = g.row_sq_dists(epr, eps_);
                let d_rs = g.cross_sq_dists(epr, ens);
                let d_sr_t = g.cross_sq_dists(enr, eps_);
                let d_sr = g.transpose(d_sr_t);
                let d_nn = g.row_sq_dists(enr, ens);
                let d_nn_row = g.transpose(d_nn);
                let d_nn_rep = g.repeat_row(d_nn_row, 2);
                let all = g.concat_cols(&[pos, d_rs, d_sr, d_nn_rep]);
                let z = g.scale(all, -1.0);
                let lse = g.logsumexp_rows(z);
                let zpos = g.slice_cols(z, 0, 1);
                let per = g.sub(lse, zpos);
                g.mean(per)
            },
            3e-2,
        );
    }

    #[test]
    fn grad_concat_abs_diff_head() {
        // SentenceBERT-style head: [u, v, |u - v|] -> linear.
        let (mut store, ids) = seeded_store(&[(4, 2), (6, 2)]);
        let (i0, i1) = (ids[0], ids[1]);
        let u0 = normal(3, 4, 0.8, &mut StdRng::seed_from_u64(41));
        let v0 = normal(3, 4, 0.8, &mut StdRng::seed_from_u64(42));
        for &id in &ids {
            let (u0, v0) = (u0.clone(), v0.clone());
            check_param_grad(
                &mut store,
                id,
                move |g, s| {
                    let w = g.param(s, i0);
                    let head = g.param(s, i1);
                    let ui = g.input(u0.clone());
                    let vi = g.input(v0.clone());
                    let u = g.matmul(ui, w);
                    let v = g.matmul(vi, w);
                    let d = g.sub(u, v);
                    let d = g.abs(d);
                    let cat = g.concat_cols(&[u, v, d]);
                    let z = g.matmul(cat, head);
                    g.softmax_cross_entropy(z, &[0, 1, 0])
                },
                3e-2,
            );
        }
    }

    #[test]
    fn grad_sqrt_eps() {
        let (mut store, ids) = seeded_store(&[(3, 3)]);
        let i0 = ids[0];
        let x = normal(2, 3, 0.6, &mut StdRng::seed_from_u64(77));
        check_param_grad(
            &mut store,
            i0,
            move |g, s| {
                let xin = g.input(x.clone());
                let w = g.param(s, i0);
                let h = g.matmul(xin, w);
                let sq = g.mul(h, h);
                let root = g.sqrt_eps(sq, 1e-6);
                g.mean(root)
            },
            3e-2,
        );
    }

    #[test]
    fn frozen_param_gets_no_grad() {
        let (mut store, ids) = seeded_store(&[(3, 3)]);
        store.set_frozen(ids[0], true);
        let mut g = Graph::new();
        let x = g.input(Matrix::full(2, 3, 1.0));
        let w = g.param(&store, ids[0]);
        let h = g.matmul(x, w);
        let loss = g.mean(h);
        g.backward(loss, &mut store);
        assert_eq!(store.grad(ids[0]).sq_norm(), 0.0);
    }

    #[test]
    fn dropout_zero_p_is_identity() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let x = g.input(Matrix::full(2, 2, 3.0));
        let y = g.dropout(x, 0.0, &mut rng);
        assert_eq!(x, y);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut g = Graph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let x = g.input(Matrix::full(10, 10, 1.0));
        let y = g.dropout(x, 0.5, &mut rng);
        let vals = g.value(y).as_slice();
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-6));
        let survivors = vals.iter().filter(|&&v| v != 0.0).count();
        assert!(survivors > 20 && survivors < 80, "{survivors} survivors");
    }

    #[test]
    fn logsumexp_handles_extremes() {
        assert!((kernels::logsumexp(&[1000.0, 1000.0]) - (1000.0 + 2.0f32.ln())).abs() < 1e-3);
        assert!((kernels::logsumexp(&[-1000.0, 0.0]) - 0.0).abs() < 1e-3);
    }
}
