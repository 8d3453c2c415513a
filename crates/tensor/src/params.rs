//! Parameter store: named, trainable matrices plus their gradient buffers.
//!
//! A [`ParamStore`] owns every trainable matrix of a model. Forward passes
//! — a fresh [`crate::graph::Graph`] per batch, or a tapeless forward on
//! plain buffers — *read* parameter values; `Graph::backward` and the
//! tapeless backward *accumulate* into gradient buffers through a
//! [`GradSink`], the store's own or a worker's [`Grads`] shard. Optimizers
//! then walk the store.
//!
//! Values are held as `Arc<Matrix>`: a tape node reading a parameter, a
//! [`Snapshot`] and a cloned store all *share* the matrix, and the first
//! write through [`ParamStore::value_mut`] while it is shared copies it
//! (`Arc::make_mut`). That makes snapshot/restore — which DIAL uses to
//! reset the matcher to its "pre-trained" weights at the start of every
//! active learning round (paper §4.2: no warm start between rounds) — and
//! reading weights onto one tape per example free of copies.

use crate::kernels;
use crate::matrix::Matrix;
use std::sync::Arc;

/// Handle to one parameter matrix inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index into the store (stable for the store's lifetime).
    pub fn index(self) -> usize {
        self.0
    }
}

/// A collection of named trainable matrices and their gradients.
#[derive(Debug, Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Arc<Matrix>>,
    grads: Grads,
    /// Parameters marked frozen are skipped by optimizers and receive no
    /// gradient accumulation (saves the scatter work for frozen trunks).
    frozen: Vec<bool>,
}

/// One gradient buffer per parameter of the store that made it
/// ([`ParamStore::new_grads`]). Data-parallel training gives each worker
/// one of these to accumulate into (through a [`GradSink`]) while every
/// worker reads the same store, then reduces them in a fixed order with
/// [`ParamStore::accumulate_grads_from`].
///
/// Each buffer also knows which of its rows may be non-zero. A row added
/// through [`GradSink::add_row`] (an embedding table's gathered rows) is
/// recorded; any other write marks the whole buffer. Zeroing, reducing,
/// rescaling, clipping and [`AdamW`](crate::optim::AdamW) then visit only
/// the recorded rows. That is exact: every other row is `+0.0`, which
/// adds nothing to a sum, scales to itself and leaves a row's moments at
/// zero.
#[derive(Debug, Clone, Default)]
pub struct Grads {
    bufs: Vec<Matrix>,
    touched: Vec<Touched>,
}

/// Which rows of one gradient buffer may be non-zero; all others are
/// `+0.0`.
#[derive(Debug, Clone)]
enum Touched {
    /// Any row.
    All,
    /// Only these, ascending and distinct.
    Rows(Vec<u32>),
}

impl Touched {
    /// The recorded rows, or `None` if any row may be non-zero.
    fn rows(&self) -> Option<&[u32]> {
        match self {
            Touched::All => None,
            Touched::Rows(rows) => Some(rows),
        }
    }

    fn insert(&mut self, row: u32) {
        if let Touched::Rows(rows) = self {
            if let Err(at) = rows.binary_search(&row) {
                rows.insert(at, row);
            }
        }
    }
}

/// `f(row)` for every row of `m` that `touched` says may be non-zero.
fn for_touched_rows(m: &mut Matrix, touched: &Touched, mut f: impl FnMut(&mut [f32])) {
    match touched.rows() {
        None => f(m.as_mut_slice()),
        Some(rows) => rows.iter().for_each(|&r| f(m.row_mut(r as usize))),
    }
}

/// `m.sq_norm()` read only from the rows `touched` names: the same lanes
/// and order as [`crate::matrix::dot`], which the skipped rows (all
/// `+0.0`) could not change.
fn touched_sq_norm(m: &Matrix, touched: &Touched) -> f32 {
    let Some(rows) = touched.rows() else { return m.sq_norm() };
    let (cols, body) = (m.cols(), m.len() / 4 * 4);
    let mut acc = [0.0f32; 4];
    let mut tail = Vec::new();
    for &r in rows {
        for (i, &x) in (r as usize * cols..).zip(m.row(r as usize)) {
            if i < body {
                acc[i % 4] += x * x;
            } else {
                tail.push(x * x);
            }
        }
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for t in tail {
        s += t;
    }
    s
}

impl Grads {
    /// Zero every buffer (keeps allocations): only the recorded rows of a
    /// row-tracked buffer, which then records none.
    pub fn fill_zero(&mut self) {
        for (g, t) in self.bufs.iter_mut().zip(&mut self.touched) {
            for_touched_rows(g, t, |row| row.fill(0.0));
            match t {
                Touched::Rows(rows) => rows.clear(),
                Touched::All => *t = Touched::Rows(Vec::new()),
            }
        }
    }

    /// The gradient buffer of `id`.
    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.bufs[id.0]
    }

    /// The rows of `id`'s buffer that may be non-zero, ascending, or
    /// `None` if any may be.
    pub fn touched_rows(&self, id: ParamId) -> Option<&[u32]> {
        self.touched[id.0].rows()
    }

    /// Whole-buffer access; the buffer stops tracking rows.
    fn whole_mut(&mut self, k: usize) -> &mut Matrix {
        self.touched[k] = Touched::All;
        &mut self.bufs[k]
    }
}

/// Where a backward pass writes parameter gradients: a set of buffers
/// plus the frozen flags that say which of them to leave alone
/// ([`ParamStore::grad_sink_into`]).
pub struct GradSink<'a> {
    frozen: &'a [bool],
    grads: &'a mut Grads,
}

impl GradSink<'_> {
    /// The gradient buffer of `id`, or `None` if the parameter is frozen;
    /// the buffer stops tracking rows.
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> Option<&mut Matrix> {
        if self.frozen[id.0] {
            None
        } else {
            Some(self.grads.whole_mut(id.0))
        }
    }

    /// `grad[id] += delta` over the whole buffer (nothing if frozen).
    pub fn add(&mut self, id: ParamId, delta: &[f32]) {
        if let Some(g) = self.grad_mut(id) {
            kernels::add_assign(g.as_mut_slice(), delta);
        }
    }

    /// `grad[id][row] += delta` for one row of a table, recording the row
    /// (nothing if frozen). This is a gather's backward: called once per
    /// gathered position, in position order.
    pub fn add_row(&mut self, id: ParamId, row: usize, delta: &[f32]) {
        if self.frozen[id.0] {
            return;
        }
        let k = id.0;
        for (d, s) in self.grads.bufs[k].row_mut(row).iter_mut().zip(delta) {
            *d += s;
        }
        self.grads.touched[k].insert(row as u32);
    }
}

/// The value of every parameter at one point in time, shared with the
/// store until either side is written.
#[derive(Debug, Clone)]
pub struct Snapshot {
    values: Vec<Arc<Matrix>>,
}

impl ParamStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new trainable matrix and return its handle.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let id = ParamId(self.values.len());
        self.grads.bufs.push(Matrix::zeros(value.rows(), value.cols()));
        self.grads.touched.push(Touched::Rows(Vec::new()));
        self.values.push(Arc::new(value));
        self.names.push(name.into());
        self.frozen.push(false);
        id
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters (frozen included).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.len()).sum()
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Mutable access to a value; copies it first if a tape, snapshot or
    /// cloned store still shares it.
    pub fn value_mut(&mut self, id: ParamId) -> &mut Matrix {
        Arc::make_mut(&mut self.values[id.0])
    }

    /// The shared handle a tape node keeps ([`crate::Graph::param`]).
    pub(crate) fn value_shared(&self, id: ParamId) -> Arc<Matrix> {
        Arc::clone(&self.values[id.0])
    }

    pub fn grad(&self, id: ParamId) -> &Matrix {
        self.grads.get(id)
    }

    /// Mutable access to a gradient; it stops tracking rows.
    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        self.grads.whole_mut(id.0)
    }

    /// The rows of `id`'s gradient that may be non-zero, ascending, or
    /// `None` if any may be ([`Grads`]).
    pub fn grad_touched_rows(&self, id: ParamId) -> Option<&[u32]> {
        self.grads.touched_rows(id)
    }

    /// Every parameter in id order: its value (made unique as in
    /// [`ParamStore::value_mut`]), its gradient, the gradient's non-zero
    /// rows (`None`: any) and whether it is frozen — what an optimizer
    /// step reads and writes.
    pub(crate) fn params_mut(
        &mut self,
    ) -> impl Iterator<Item = (&mut Matrix, &Matrix, Option<&[u32]>, bool)> {
        let Grads { bufs, touched } = &self.grads;
        self.values
            .iter_mut()
            .zip(bufs.iter().zip(touched))
            .zip(&self.frozen)
            .map(|((v, (g, t)), &f)| (Arc::make_mut(v), g, t.rows(), f))
    }

    /// Zeroed gradient buffers laid out like this store's.
    pub fn new_grads(&self) -> Grads {
        Grads {
            bufs: self.values.iter().map(|v| Matrix::zeros(v.rows(), v.cols())).collect(),
            touched: vec![Touched::Rows(Vec::new()); self.values.len()],
        }
    }

    /// Backward passes into the store's own gradient buffers.
    pub(crate) fn grad_sink(&mut self) -> GradSink<'_> {
        GradSink { frozen: &self.frozen, grads: &mut self.grads }
    }

    /// Backward passes into `grads` (made by [`ParamStore::new_grads`]),
    /// under this store's frozen flags.
    pub fn grad_sink_into<'a>(&'a self, grads: &'a mut Grads) -> GradSink<'a> {
        assert_eq!(grads.bufs.len(), self.values.len(), "param layout mismatch");
        GradSink { frozen: &self.frozen, grads }
    }

    /// Mark a parameter (not) frozen. Frozen parameters are skipped by
    /// gradient accumulation and by optimizers.
    pub fn set_frozen(&mut self, id: ParamId, frozen: bool) {
        self.frozen[id.0] = frozen;
    }

    pub fn is_frozen(&self, id: ParamId) -> bool {
        self.frozen[id.0]
    }

    /// Freeze or unfreeze every parameter whose name starts with `prefix`.
    pub fn set_frozen_by_prefix(&mut self, prefix: &str, frozen: bool) {
        for i in 0..self.names.len() {
            if self.names[i].starts_with(prefix) {
                self.frozen[i] = frozen;
            }
        }
    }

    /// Iterate over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> + '_ {
        (0..self.values.len()).map(ParamId)
    }

    /// Zero every gradient buffer (keeps allocations).
    pub fn zero_grads(&mut self) {
        self.grads.fill_zero();
    }

    /// Sum of squared gradient norms over unfrozen parameters.
    pub fn grad_sq_norm(&self) -> f32 {
        let Grads { bufs, touched } = &self.grads;
        bufs.iter()
            .zip(touched)
            .zip(&self.frozen)
            .filter(|(_, f)| !**f)
            .map(|((g, t), _)| touched_sq_norm(g, t))
            .sum()
    }

    /// Multiply every unfrozen gradient by `alpha`.
    pub fn scale_grads(&mut self, alpha: f32) {
        let Grads { bufs, touched } = &mut self.grads;
        for ((g, t), f) in bufs.iter_mut().zip(&*touched).zip(&self.frozen) {
            if !*f {
                for_touched_rows(g, t, |row| kernels::scale(row, alpha));
            }
        }
    }

    /// Globally rescale unfrozen gradients so their joint L2 norm is at most
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_sq_norm().sqrt();
        if norm > max_norm && norm > 0.0 {
            self.scale_grads(max_norm / norm);
        }
        norm
    }

    /// Add a gradient shard made by [`ParamStore::new_grads`] into the
    /// store's own buffers; this is how per-thread shards are reduced after
    /// a rayon map. Calling it shard by shard keeps every sum's order. A
    /// row-tracked shard buffer adds only its recorded rows, and the
    /// store's buffer records them too.
    pub fn accumulate_grads_from(&mut self, other: &Grads) {
        assert_eq!(self.values.len(), other.bufs.len(), "param layout mismatch");
        let mine = &mut self.grads;
        for (k, (theirs, t)) in other.bufs.iter().zip(&other.touched).enumerate() {
            match t.rows() {
                None => mine.whole_mut(k).add_assign(theirs),
                Some(rows) => {
                    for &r in rows {
                        kernels::add_assign(
                            mine.bufs[k].row_mut(r as usize),
                            theirs.row(r as usize),
                        );
                        mine.touched[k].insert(r);
                    }
                }
            }
        }
    }

    /// All current parameter values, shared rather than copied.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { values: self.values.clone() }
    }

    /// Restore values from a snapshot taken on a store with the same layout.
    pub fn restore(&mut self, snap: &Snapshot) {
        assert_eq!(self.values.len(), snap.values.len(), "snapshot layout mismatch");
        self.values.clone_from(&snap.values);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_two() -> (ParamStore, ParamId, ParamId) {
        let mut s = ParamStore::new();
        let a = s.add("layer.w", Matrix::full(2, 2, 1.0));
        let b = s.add("layer.b", Matrix::full(1, 2, 0.5));
        (s, a, b)
    }

    #[test]
    fn add_and_lookup() {
        let (s, a, b) = store_with_two();
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_scalars(), 6);
        assert_eq!(s.name(a), "layer.w");
        assert_eq!(s.value(b).as_slice(), &[0.5, 0.5]);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let (mut s, a, _) = store_with_two();
        let snap = s.snapshot();
        s.value_mut(a).as_mut_slice()[0] = 99.0;
        assert_eq!(s.value(a).get(0, 0), 99.0);
        s.restore(&snap);
        assert_eq!(s.value(a).get(0, 0), 1.0);
    }

    #[test]
    fn clip_grad_norm_scales_down() {
        let (mut s, a, b) = store_with_two();
        s.grad_mut(a).as_mut_slice().copy_from_slice(&[3.0, 0.0, 0.0, 0.0]);
        s.grad_mut(b).as_mut_slice().copy_from_slice(&[4.0, 0.0]);
        let pre = s.clip_grad_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        let post = s.grad_sq_norm().sqrt();
        assert!((post - 1.0).abs() < 1e-5);
    }

    #[test]
    fn frozen_params_excluded_from_norm() {
        let (mut s, a, b) = store_with_two();
        s.grad_mut(a).as_mut_slice().copy_from_slice(&[3.0, 0.0, 0.0, 0.0]);
        s.grad_mut(b).as_mut_slice().copy_from_slice(&[4.0, 0.0]);
        s.set_frozen(a, true);
        assert!((s.grad_sq_norm().sqrt() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn freeze_by_prefix() {
        let (mut s, a, b) = store_with_two();
        s.set_frozen_by_prefix("layer.", true);
        assert!(s.is_frozen(a) && s.is_frozen(b));
        s.set_frozen_by_prefix("layer.w", false);
        assert!(!s.is_frozen(a) && s.is_frozen(b));
    }

    #[test]
    fn accumulate_grads_sums() {
        let (mut s, a, _) = store_with_two();
        let mut shard = s.new_grads();
        s.grad_mut(a).as_mut_slice()[0] = 1.0;
        shard.whole_mut(a.0).as_mut_slice()[0] = 2.0;
        s.accumulate_grads_from(&shard);
        assert_eq!(s.grad(a).get(0, 0), 3.0);
        shard.fill_zero();
        s.accumulate_grads_from(&shard);
        assert_eq!(s.grad(a).get(0, 0), 3.0);
    }

    #[test]
    fn snapshots_and_clones_share_values_until_written() {
        let (mut s, a, b) = store_with_two();
        let snap = s.snapshot();
        let copy = s.clone();
        assert!(Arc::ptr_eq(&s.values[a.0], &snap.values[a.0]));
        assert!(Arc::ptr_eq(&s.values[a.0], &copy.values[a.0]));
        s.value_mut(a).as_mut_slice()[0] = 7.0;
        // Copy-on-write: the writer got its own matrix, the others kept
        // theirs, and the untouched parameter is still shared.
        assert_eq!(snap.values[a.0].get(0, 0), 1.0);
        assert_eq!(copy.value(a).get(0, 0), 1.0);
        assert!(Arc::ptr_eq(&s.values[b.0], &snap.values[b.0]));
        s.restore(&snap);
        assert!(Arc::ptr_eq(&s.values[a.0], &snap.values[a.0]));
    }
}
