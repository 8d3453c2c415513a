//! Parameter store: named, trainable matrices plus their gradient buffers.
//!
//! A [`ParamStore`] owns every trainable matrix of a model. Forward passes
//! build a fresh [`crate::graph::Graph`] per batch that *reads* parameter
//! values; `Graph::backward` *accumulates* into the store's gradient
//! buffers. Optimizers then walk the store.
//!
//! Values are held as `Arc<Matrix>`: a tape node reading a parameter, a
//! [`Snapshot`] and a cloned store all *share* the matrix, and the first
//! write through [`ParamStore::value_mut`] while it is shared copies it
//! (`Arc::make_mut`). That makes snapshot/restore — which DIAL uses to
//! reset the matcher to its "pre-trained" weights at the start of every
//! active learning round (paper §4.2: no warm start between rounds) — and
//! reading weights onto one tape per example free of copies.

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
/// one of these to accumulate into
/// ([`Graph::backward_into`](crate::graph::Graph::backward_into)) while
/// every worker reads the same store, then reduces them in a fixed order
/// with [`ParamStore::accumulate_grads_from`].
#[derive(Debug, Clone, Default)]
pub struct Grads(Vec<Matrix>);

impl Grads {
    /// Zero every buffer (keeps allocations).
    pub fn fill_zero(&mut self) {
        for g in &mut self.0 {
            g.fill_zero();
        }
    }
}

/// Where a backward pass writes parameter gradients: a set of buffers
/// plus the frozen flags that say which of them to leave alone.
pub(crate) struct GradSink<'a> {
    frozen: &'a [bool],
    grads: &'a mut Grads,
}

impl GradSink<'_> {
    /// The gradient buffer of `id`, or `None` if the parameter is frozen.
    pub(crate) fn grad_mut(&mut self, id: ParamId) -> Option<&mut Matrix> {
        if self.frozen[id.0] {
            None
        } else {
            Some(&mut self.grads.0[id.0])
        }
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
        self.grads.0.push(Matrix::zeros(value.rows(), value.cols()));
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
        &self.grads.0[id.0]
    }

    pub fn grad_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads.0[id.0]
    }

    /// A value (made unique as in [`ParamStore::value_mut`]) together with
    /// its gradient — what an optimizer step reads and writes.
    pub(crate) fn value_mut_and_grad(&mut self, id: ParamId) -> (&mut Matrix, &Matrix) {
        (Arc::make_mut(&mut self.values[id.0]), &self.grads.0[id.0])
    }

    /// Zeroed gradient buffers laid out like this store's.
    pub fn new_grads(&self) -> Grads {
        Grads(self.values.iter().map(|v| Matrix::zeros(v.rows(), v.cols())).collect())
    }

    /// Backward passes into the store's own gradient buffers.
    pub(crate) fn grad_sink(&mut self) -> GradSink<'_> {
        GradSink { frozen: &self.frozen, grads: &mut self.grads }
    }

    /// Backward passes into `grads`, under this store's frozen flags.
    pub(crate) fn grad_sink_into<'a>(&'a self, grads: &'a mut Grads) -> GradSink<'a> {
        assert_eq!(grads.0.len(), self.values.len(), "param layout mismatch");
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
        self.grads.0.iter().zip(&self.frozen).filter(|(_, f)| !**f).map(|(g, _)| g.sq_norm()).sum()
    }

    /// Globally rescale unfrozen gradients so their joint L2 norm is at most
    /// `max_norm`. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_sq_norm().sqrt();
        if norm > max_norm && norm > 0.0 {
            let scale = max_norm / norm;
            for (g, f) in self.grads.0.iter_mut().zip(&self.frozen) {
                if !*f {
                    g.scale(scale);
                }
            }
        }
        norm
    }

    /// Add a gradient shard made by [`ParamStore::new_grads`] into the
    /// store's own buffers; this is how per-thread shards are reduced after
    /// a rayon map. Calling it shard by shard keeps every sum's order.
    pub fn accumulate_grads_from(&mut self, other: &Grads) {
        assert_eq!(self.values.len(), other.0.len(), "param layout mismatch");
        for (mine, theirs) in self.grads.0.iter_mut().zip(&other.0) {
            mine.add_assign(theirs);
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
        shard.0[a.0].as_mut_slice()[0] = 2.0;
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
