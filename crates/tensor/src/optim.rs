//! Optimizers and learning-rate schedules.
//!
//! DIAL trains the transformer trunk with AdamW at `3e-5` and the
//! lightweight heads at `1e-3` under a linear schedule with no warm-up
//! (paper §4.2). [`AdamW`] supports per-parameter-group learning rates keyed
//! by name prefix to reproduce that split.

use crate::matrix::Matrix;
use crate::params::{ParamId, ParamStore};

/// A learning-rate schedule evaluated per optimizer step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Constant learning-rate multiplier of 1.
    Constant,
    /// Linear decay from 1 at step 0 to 0 at `total_steps` (no warm-up),
    /// matching the paper's configuration.
    LinearDecay { total_steps: usize },
}

impl Schedule {
    /// Multiplier applied to the base learning rate at `step`.
    pub fn factor(&self, step: usize) -> f32 {
        match *self {
            Schedule::Constant => 1.0,
            Schedule::LinearDecay { total_steps } => {
                if total_steps == 0 {
                    return 1.0;
                }
                (1.0 - step as f32 / total_steps as f32).max(0.0)
            }
        }
    }
}

/// One learning-rate group: every parameter whose name starts with `prefix`
/// steps with `lr`. Groups are matched in order; first match wins.
#[derive(Debug, Clone)]
pub struct LrGroup {
    pub prefix: String,
    pub lr: f32,
}

/// Decoupled-weight-decay Adam (AdamW, Loshchilov & Hutter 2019).
#[derive(Debug)]
pub struct AdamW {
    groups: Vec<LrGroup>,
    default_lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    schedule: Schedule,
    step: usize,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl AdamW {
    /// Build an optimizer for `store` with a single learning rate.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        Self::with_groups(store, lr, Vec::new(), Schedule::Constant)
    }

    /// Build with name-prefix learning-rate groups and a schedule.
    pub fn with_groups(
        store: &ParamStore,
        default_lr: f32,
        groups: Vec<LrGroup>,
        schedule: Schedule,
    ) -> Self {
        let m = store.ids().map(|id| zeros_like(store.value(id))).collect();
        let v = store.ids().map(|id| zeros_like(store.value(id))).collect();
        AdamW {
            groups,
            default_lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            schedule,
            step: 0,
            m,
            v,
        }
    }

    pub fn set_weight_decay(&mut self, wd: f32) -> &mut Self {
        self.weight_decay = wd;
        self
    }

    pub fn set_betas(&mut self, beta1: f32, beta2: f32) -> &mut Self {
        self.beta1 = beta1;
        self.beta2 = beta2;
        self
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.step
    }

    fn lr_for(&self, name: &str) -> f32 {
        for g in &self.groups {
            if name.starts_with(&g.prefix) {
                return g.lr;
            }
        }
        self.default_lr
    }

    /// Apply one update from the accumulated gradients, then zero them.
    /// Frozen parameters are skipped.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.step += 1;
        let t = self.step as i32;
        let sched = self.schedule.factor(self.step - 1);
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        let ids: Vec<ParamId> = store.ids().collect();
        for id in ids {
            if store.is_frozen(id) {
                continue;
            }
            let lr = self.lr_for(store.name(id)) * sched;
            let k = id.index();
            let m = self.m[k].as_mut_slice();
            let v = self.v[k].as_mut_slice();
            let (value, grad) = store.value_mut_and_grad(id);
            let (value, grad) = (value.as_mut_slice(), grad.as_slice());
            for i in 0..grad.len() {
                let g = grad[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                // Decoupled weight decay: shrink first, then Adam step.
                value[i] -= lr * self.weight_decay * value[i];
                value[i] -= lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        store.zero_grads();
    }
}

/// Plain stochastic gradient descent (used by unit tests and baselines).
#[derive(Debug)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// One descent step from accumulated gradients; zeroes them after.
    pub fn step(&self, store: &mut ParamStore) {
        let ids: Vec<ParamId> = store.ids().collect();
        for id in ids {
            if store.is_frozen(id) {
                continue;
            }
            let (value, grad) = store.value_mut_and_grad(id);
            value.axpy(-self.lr, grad);
        }
        store.zero_grads();
    }
}

fn zeros_like(m: &Matrix) -> Matrix {
    Matrix::zeros(m.rows(), m.cols())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize (w - 3)^2 and check convergence.
    fn quadratic_store() -> (ParamStore, ParamId) {
        let mut s = ParamStore::new();
        let w = s.add("w", Matrix::scalar(0.0));
        (s, w)
    }

    fn quadratic_loss(store: &mut ParamStore, w: ParamId) -> f32 {
        let mut g = Graph::new();
        let wv = g.param(store, w);
        let target = g.input(Matrix::scalar(3.0));
        let d = g.sub(wv, target);
        let sq = g.mul(d, d);
        let loss = g.sum(sq);
        let out = g.value(loss).item();
        g.backward(loss, store);
        out
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let (mut s, w) = quadratic_store();
        let opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_loss(&mut s, w);
            opt.step(&mut s);
        }
        assert!((s.value(w).item() - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adamw_converges_on_quadratic() {
        let (mut s, w) = quadratic_store();
        let mut opt = AdamW::new(&s, 0.1);
        opt.set_weight_decay(0.0);
        for _ in 0..300 {
            quadratic_loss(&mut s, w);
            opt.step(&mut s);
        }
        assert!((s.value(w).item() - 3.0).abs() < 1e-2, "got {}", s.value(w).item());
    }

    #[test]
    fn adamw_skips_frozen() {
        let (mut s, w) = quadratic_store();
        s.set_frozen(w, true);
        let mut opt = AdamW::new(&s, 0.1);
        for _ in 0..10 {
            quadratic_loss(&mut s, w);
            opt.step(&mut s);
        }
        assert_eq!(s.value(w).item(), 0.0);
    }

    #[test]
    fn lr_groups_select_by_prefix() {
        let mut s = ParamStore::new();
        let trunk = s.add("trunk.w", Matrix::scalar(1.0));
        let head = s.add("head.w", Matrix::scalar(1.0));
        let opt = AdamW::with_groups(
            &s,
            1e-3,
            vec![LrGroup { prefix: "trunk.".into(), lr: 3e-5 }],
            Schedule::Constant,
        );
        assert_eq!(opt.lr_for(s.name(trunk)), 3e-5);
        assert_eq!(opt.lr_for(s.name(head)), 1e-3);
    }

    #[test]
    fn linear_schedule_decays_to_zero() {
        let sch = Schedule::LinearDecay { total_steps: 10 };
        assert_eq!(sch.factor(0), 1.0);
        assert!((sch.factor(5) - 0.5).abs() < 1e-6);
        assert_eq!(sch.factor(10), 0.0);
        assert_eq!(sch.factor(20), 0.0);
    }

    #[test]
    fn weight_decay_shrinks_without_grads() {
        let mut s = ParamStore::new();
        let w = s.add("w", Matrix::scalar(10.0));
        let mut opt = AdamW::new(&s, 0.1);
        opt.set_weight_decay(0.5);
        // No gradient accumulated: Adam part ~0, decay still applies.
        opt.step(&mut s);
        assert!(s.value(w).item() < 10.0);
    }
}
