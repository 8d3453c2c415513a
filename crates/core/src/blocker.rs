//! DIAL's blocker: a committee of lightweight embedding heads over the
//! frozen matcher-tuned trunk, plus Index-By-Committee retrieval (§3.2).
//!
//! Each member `k` owns a fixed random binary mask `M_k` and an affine map
//! `U_k`, producing `E_k(x) = tanh(U_k (M_k ⊙ E(x), 1))` (Eq. 7). Members
//! are (re-)initialized and retrained from scratch every round on the
//! *frozen* trunk embeddings — only the `U_k` parameters move.
//!
//! Training data and objective are configurable to reproduce the paper's
//! ablations: random vs labeled negatives (§3.2.2, Table 4) and
//! contrastive vs triplet vs classification objectives (§3.2.3, Table 5).

use crate::config::{BlockerObjective, DialConfig, NegativeSource};
use crate::encode::ListEmbeddings;
use dial_datasets::LabeledPair;
use dial_tensor::optim::AdamW;
use dial_tensor::{init, kernels, Graph, Matrix, ParamId, ParamStore, Var};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Parameter-name prefix of all committee parameters.
pub const COMMITTEE_PREFIX: &str = "committee.";

/// Per-coordinate standardization fitted on the current round's trunk
/// embeddings. Mean-pooled layer-norm embeddings concentrate in a tiny
/// ball around the corpus centroid; standardizing spreads the informative
/// directions so the committee's tanh layer and the contrastive softmax
/// operate at unit scale. (KNN over raw embeddings is translation
/// invariant, so this only affects the learned blocker.)
#[derive(Debug, Clone)]
pub struct Normalization {
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl Normalization {
    /// Identity normalization (used before the first fit).
    pub fn identity(dim: usize) -> Self {
        Normalization { mean: vec![0.0; dim], inv_std: vec![1.0; dim] }
    }

    /// Fit on the union of the given embedding lists.
    pub fn fit(lists: &[&ListEmbeddings]) -> Self {
        let dim = lists[0].dim;
        let n: usize = lists.iter().map(|l| l.len()).sum();
        assert!(n > 0, "cannot fit normalization on zero vectors");
        let mut mean = vec![0.0f64; dim];
        for l in lists {
            for row in l.data.chunks(dim) {
                for (m, &v) in mean.iter_mut().zip(row) {
                    *m += v as f64;
                }
            }
        }
        for m in &mut mean {
            *m /= n as f64;
        }
        let mut var = vec![0.0f64; dim];
        for l in lists {
            for row in l.data.chunks(dim) {
                for ((vv, &v), m) in var.iter_mut().zip(row).zip(&mean) {
                    *vv += (v as f64 - m).powi(2);
                }
            }
        }
        let inv_std = var.iter().map(|v| (1.0 / ((v / n as f64).sqrt() + 1e-6)) as f32).collect();
        Normalization { mean: mean.into_iter().map(|m| m as f32).collect(), inv_std }
    }

    /// Standardize one row in place.
    pub fn apply(&self, row: &mut [f32]) {
        for ((v, m), s) in row.iter_mut().zip(&self.mean).zip(&self.inv_std) {
            *v = (*v - m) * s;
        }
    }
}

/// One committee member's parameters and mask.
#[derive(Debug, Clone)]
pub struct CommitteeMember {
    mask: Vec<f32>,
    w: ParamId,
    b: ParamId,
    /// Classifier head used only by the Classification objective ablation.
    clf_w: ParamId,
    clf_b: ParamId,
}

impl CommitteeMember {
    /// Transform one (standardized) trunk embedding without building a
    /// graph: the row-at-a-time definition [`Committee::embed_list`]'s
    /// whole-list products are tested against.
    pub fn embed(&self, store: &ParamStore, e: &[f32]) -> Vec<f32> {
        let w = store.value(self.w);
        let b = store.value(self.b);
        let d_out = w.cols();
        let mut out = vec![0.0f32; d_out];
        for (i, (&x, &m)) in e.iter().zip(&self.mask).enumerate() {
            let xm = x * m;
            if xm == 0.0 {
                continue;
            }
            for (o, &wv) in out.iter_mut().zip(w.row(i)) {
                *o += xm * wv;
            }
        }
        for (o, &bv) in out.iter_mut().zip(b.row(0)) {
            *o += bv;
        }
        // The `tanh` that `embed_graph` trains with.
        kernels::tanh_slice(&mut out);
        out
    }

    /// Graph-mode transform of a batch of trunk embeddings `[n, d]`.
    fn embed_graph(&self, g: &mut Graph, store: &ParamStore, x: Var) -> Var {
        let n = g.value(x).rows();
        let mask_row = g.input(Matrix::row_vector(self.mask.clone()));
        let mask = g.repeat_row(mask_row, n);
        let masked = g.mul(x, mask);
        let w = g.param(store, self.w);
        let b = g.param(store, self.b);
        let h = g.linear(masked, w, b);
        g.tanh(h)
    }
}

/// The blocker committee.
#[derive(Debug, Clone)]
pub struct Committee {
    members: Vec<CommitteeMember>,
    dim: usize,
    mask_p: f32,
    norm: Normalization,
}

impl Committee {
    /// Register `n` members' parameters (once per system; values and masks
    /// are re-randomized each round via [`Committee::reinit`]).
    pub fn new(store: &mut ParamStore, n: usize, dim: usize, mask_p: f32, seed: u64) -> Self {
        assert!(n >= 1 && dim >= 1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb10c);
        let members = (0..n)
            .map(|k| CommitteeMember {
                mask: sample_mask(dim, mask_p, &mut rng),
                // Near-identity start: each member begins as a "minor
                // variation" of the base embedding (§3.2.1), which keeps
                // the pre-trained space's recall and lets the contrastive
                // objective refine rather than rebuild it.
                w: store
                    .add(format!("{COMMITTEE_PREFIX}{k}.w"), near_identity(dim, 0.05, &mut rng)),
                b: store.add(format!("{COMMITTEE_PREFIX}{k}.b"), Matrix::zeros(1, dim)),
                clf_w: store.add(
                    format!("{COMMITTEE_PREFIX}{k}.clf_w"),
                    init::xavier_uniform(3 * dim, 1, &mut rng),
                ),
                clf_b: store.add(format!("{COMMITTEE_PREFIX}{k}.clf_b"), Matrix::zeros(1, 1)),
            })
            .collect();
        Committee { members, dim, mask_p, norm: Normalization::identity(dim) }
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    pub fn members(&self) -> &[CommitteeMember] {
        &self.members
    }

    /// Re-randomize masks and parameters (start of each AL round: the
    /// committee, like the matcher, is not warm-started).
    pub fn reinit(&mut self, store: &mut ParamStore, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb10c2);
        for m in &mut self.members {
            m.mask = sample_mask(self.dim, self.mask_p, &mut rng);
            *store.value_mut(m.w) = near_identity(self.dim, 0.05, &mut rng);
            *store.value_mut(m.b) = Matrix::zeros(1, self.dim);
            *store.value_mut(m.clf_w) = init::xavier_uniform(3 * self.dim, 1, &mut rng);
            *store.value_mut(m.clf_b) = Matrix::zeros(1, 1);
        }
    }

    /// Train every member on the labeled duplicates with the configured
    /// negative source and objective. `emb_r` / `emb_s` are the frozen
    /// trunk embeddings of the two lists. Returns the mean final-epoch loss
    /// across members.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        store: &mut ParamStore,
        emb_r: &ListEmbeddings,
        emb_s: &ListEmbeddings,
        labeled: &[LabeledPair],
        cfg: &DialConfig,
        round: usize,
    ) -> f32 {
        let positives: Vec<&LabeledPair> = labeled.iter().filter(|p| p.label).collect();
        assert!(!positives.is_empty(), "committee needs at least one labeled duplicate");
        let negatives: Vec<&LabeledPair> = labeled.iter().filter(|p| !p.label).collect();
        self.norm = Normalization::fit(&[emb_r, emb_s]);

        let mut total = 0.0;
        for (k, member) in self.members.iter().enumerate() {
            let mut rng =
                StdRng::seed_from_u64(cfg.seed ^ ((round as u64) << 32) ^ ((k as u64) << 8));
            total += train_member(
                member, store, &self.norm, emb_r, emb_s, &positives, &negatives, cfg, &mut rng,
            );
        }
        total / self.members.len() as f32
    }

    /// Committee embeddings of a whole list: one packed `[n, d]` buffer per
    /// member, `tanh((M_k ⊙ x) · W_k + b_k)` as one product over the
    /// standardized list. Row `i` is bitwise [`CommitteeMember::embed`] of
    /// record `i`: the product sums each output element over the input
    /// coordinates in order, as `embed`'s loop does, and skipping its
    /// masked-out zeros is the identity (see `dial_tensor::kernels`).
    pub fn embed_list(&self, store: &ParamStore, emb: &ListEmbeddings) -> Vec<Vec<f32>> {
        let (n, d) = (emb.len(), self.dim);
        let mut x = emb.data.clone();
        x.chunks_exact_mut(d).for_each(|row| self.norm.apply(row));
        self.members
            .iter()
            .map(|m| {
                let masked: Vec<f32> =
                    x.iter().zip(m.mask.iter().cycle()).map(|(v, k)| v * k).collect();
                let w = store.value(m.w);
                let mut out = vec![0.0; n * w.cols()];
                kernels::matmul(&masked, w.as_slice(), n, d, w.cols(), &mut out);
                kernels::add_row(&mut out, store.value(m.b).as_slice());
                kernels::tanh_slice(&mut out);
                out
            })
            .collect()
    }

    /// Fitted normalization of the last training round.
    pub fn normalization(&self) -> &Normalization {
        &self.norm
    }
}

/// Identity plus Gaussian noise.
fn near_identity(d: usize, noise: f32, rng: &mut StdRng) -> Matrix {
    let mut m = init::normal(d, d, noise, rng);
    for i in 0..d {
        let v = m.get(i, i) + 1.0;
        m.set(i, i, v);
    }
    m
}

fn sample_mask(dim: usize, keep_p: f32, rng: &mut StdRng) -> Vec<f32> {
    loop {
        let mask: Vec<f32> =
            (0..dim).map(|_| if rng.gen::<f32>() < keep_p { 1.0 } else { 0.0 }).collect();
        // Guard against the (unlikely) all-zero mask.
        if mask.iter().any(|&m| m != 0.0) {
            return mask;
        }
    }
}

/// Gather rows `ids` of a list embedding into a standardized input matrix.
fn gather_rows(emb: &ListEmbeddings, norm: &Normalization, ids: &[u32]) -> Matrix {
    let mut m = Matrix::zeros(ids.len(), emb.dim);
    for (i, &id) in ids.iter().enumerate() {
        m.row_mut(i).copy_from_slice(emb.row(id));
        norm.apply(m.row_mut(i));
    }
    m
}

#[allow(clippy::too_many_arguments)]
fn train_member(
    member: &CommitteeMember,
    store: &mut ParamStore,
    norm: &Normalization,
    emb_r: &ListEmbeddings,
    emb_s: &ListEmbeddings,
    positives: &[&LabeledPair],
    negatives: &[&LabeledPair],
    cfg: &DialConfig,
    rng: &mut StdRng,
) -> f32 {
    let mut opt = AdamW::new(store, cfg.lr_committee);
    let mut order: Vec<usize> = (0..positives.len()).collect();
    let mut last_loss = 0.0;
    for _epoch in 0..cfg.blocker_epochs {
        order.shuffle(rng);
        let mut loss_sum = 0.0f64;
        let mut n = 0usize;
        for batch in order.chunks(cfg.batch_size) {
            let pos_r: Vec<u32> = batch.iter().map(|&i| positives[i].r).collect();
            let pos_s: Vec<u32> = batch.iter().map(|&i| positives[i].s).collect();
            let b = batch.len();

            // Negative pairs per §3.2.2: random records from each list
            // (each member shuffles independently) or the labeled hard
            // negatives, per the ablation switch.
            let (neg_r, neg_s): (Vec<u32>, Vec<u32>) = match cfg.negatives {
                NegativeSource::Random => {
                    let nr: Vec<u32> =
                        (0..b).map(|_| rng.gen_range(0..emb_r.len() as u32)).collect();
                    let ns: Vec<u32> =
                        (0..b).map(|_| rng.gen_range(0..emb_s.len() as u32)).collect();
                    (nr, ns)
                }
                NegativeSource::Labeled => {
                    if negatives.is_empty() {
                        // Degenerate fallback: random negatives.
                        let nr: Vec<u32> =
                            (0..b).map(|_| rng.gen_range(0..emb_r.len() as u32)).collect();
                        let ns: Vec<u32> =
                            (0..b).map(|_| rng.gen_range(0..emb_s.len() as u32)).collect();
                        (nr, ns)
                    } else {
                        let picks: Vec<&LabeledPair> =
                            (0..b).map(|_| negatives[rng.gen_range(0..negatives.len())]).collect();
                        (picks.iter().map(|p| p.r).collect(), picks.iter().map(|p| p.s).collect())
                    }
                }
            };

            let mut g = Graph::new();
            let pr_in = g.input(gather_rows(emb_r, norm, &pos_r));
            let ps_in = g.input(gather_rows(emb_s, norm, &pos_s));
            let nr_in = g.input(gather_rows(emb_r, norm, &neg_r));
            let ns_in = g.input(gather_rows(emb_s, norm, &neg_s));
            let epr = member.embed_graph(&mut g, store, pr_in);
            let eps_ = member.embed_graph(&mut g, store, ps_in);
            let enr = member.embed_graph(&mut g, store, nr_in);
            let ens = member.embed_graph(&mut g, store, ns_in);

            let loss = match cfg.objective {
                BlockerObjective::Contrastive => contrastive_loss(&mut g, epr, eps_, enr, ens, b),
                BlockerObjective::Triplet => triplet_loss(&mut g, epr, eps_, enr, ens),
                BlockerObjective::Classification => {
                    classification_loss(&mut g, store, member, epr, eps_, enr, ens)
                }
            };
            loss_sum += g.value(loss).item() as f64 * b as f64;
            n += b;
            g.backward(loss, store);
            opt.step(store);
        }
        last_loss = (loss_sum / n.max(1) as f64) as f32;
    }
    last_loss
}

/// Eq. 8: for each positive `(r_p, s_p)`, contrast against the `b` random
/// pairs `(r_i, s_p)`, `(r_p, s_i)` and `(r_i, s_i)` under similarity
/// `s(u, v) = exp(-||u - v||²)`.
fn contrastive_loss(g: &mut Graph, epr: Var, eps_: Var, enr: Var, ens: Var, b: usize) -> Var {
    let n_pos = g.value(epr).rows();
    let pos = g.row_sq_dists(epr, eps_); // [p, 1]
    let d_rp_si = g.cross_sq_dists(epr, ens); // [p, b]
    let d_ri_sp_t = g.cross_sq_dists(enr, eps_); // [b, p]
    let d_ri_sp = g.transpose(d_ri_sp_t); // [p, b]
    let d_ri_si = g.row_sq_dists(enr, ens); // [b, 1]
    let d_ri_si_row = g.transpose(d_ri_si); // [1, b]
    let d_ri_si_rep = g.repeat_row(d_ri_si_row, n_pos); // [p, b]
    let all = g.concat_cols(&[pos, d_rp_si, d_ri_sp, d_ri_si_rep]);
    // Adaptive temperature: Eq. 8 uses exp(-||u-v||²) directly, which
    // assumes unit-scale distances. Mean-pooled layer-norm embeddings live
    // at a much smaller (and training-dependent) scale, so we divide by
    // the batch-mean distance — computed as a detached constant — to keep
    // the softmax in its sensitive range at every scale. This is the
    // paper's "scaled cosine similarity is another good choice" remark
    // made scale-free.
    let tau = {
        let v = g.value(all);
        (v.sum() / v.len() as f32).max(1e-6)
    };
    let z = g.scale(all, -1.0 / tau);
    let lse = g.logsumexp_rows(z);
    let z_pos = g.slice_cols(z, 0, 1);
    let per = g.sub(lse, z_pos);
    debug_assert_eq!(g.value(per).shape(), (n_pos, 1));
    let _ = b;
    g.mean(per)
}

/// Triplet loss with Euclidean distance and margin 1 (§4.6.2), anchored at
/// both sides of each positive, against the aligned random pair.
fn triplet_loss(g: &mut Graph, epr: Var, eps_: Var, enr: Var, ens: Var) -> Var {
    let n_pos = g.value(epr).rows();
    let pos_sq = g.row_sq_dists(epr, eps_);
    let pos_d = g.sqrt_eps(pos_sq, 1e-9);
    // Align random negatives with positives by cycling rows.
    let (enr_al, ens_al) = (cycle_rows(g, enr, n_pos), cycle_rows(g, ens, n_pos));
    let n1_sq = g.row_sq_dists(epr, ens_al);
    let n1_d = g.sqrt_eps(n1_sq, 1e-9);
    let n2_sq = g.row_sq_dists(enr_al, eps_);
    let n2_d = g.sqrt_eps(n2_sq, 1e-9);
    // Margin scaled to the batch's negative-distance scale (the paper's
    // margin of 1 presumes RoBERTa-scale distances).
    let margin_v = {
        let v = g.value(n1_d);
        0.5 * v.sum() / v.rows() as f32
    };
    let margin = g.input(Matrix::full(n_pos, 1, margin_v));
    let t1 = g.sub(pos_d, n1_d);
    let t1 = g.add(t1, margin);
    let t1 = g.relu(t1);
    let margin2 = g.input(Matrix::full(n_pos, 1, margin_v));
    let t2 = g.sub(pos_d, n2_d);
    let t2 = g.add(t2, margin2);
    let t2 = g.relu(t2);
    let total = g.add(t1, t2);
    g.mean(total)
}

/// SentenceBERT-style binary classification on `(u, v, |u - v|)`.
fn classification_loss(
    g: &mut Graph,
    store: &ParamStore,
    member: &CommitteeMember,
    epr: Var,
    eps_: Var,
    enr: Var,
    ens: Var,
) -> Var {
    let n_pos = g.value(epr).rows();
    let n_neg = g.value(enr).rows();
    let pos_feat = pair_features(g, epr, eps_);
    let neg_feat = pair_features(g, enr, ens);
    let feats = g.concat_rows(&[pos_feat, neg_feat]);
    let w = g.param(store, member.clf_w);
    let b = g.param(store, member.clf_b);
    let z = g.linear(feats, w, b);
    let mut targets = vec![1.0; n_pos];
    targets.extend(std::iter::repeat_n(0.0, n_neg));
    g.bce_with_logits(z, &targets)
}

fn pair_features(g: &mut Graph, u: Var, v: Var) -> Var {
    let d = g.sub(u, v);
    let d = g.abs(d);
    g.concat_cols(&[u, v, d])
}

/// Repeat/trim the rows of `x` to exactly `n` rows.
fn cycle_rows(g: &mut Graph, x: Var, n: usize) -> Var {
    let have = g.value(x).rows();
    if have == n {
        return x;
    }
    if have > n {
        return g.slice_rows(x, 0, n);
    }
    let mut parts = Vec::new();
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(have);
        parts.push(g.slice_rows(x, 0, take));
        remaining -= take;
    }
    g.concat_rows(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DialConfig;

    /// Trunk embeddings where s_i is a *feature-rotated* copy of r_i: raw
    /// L2 retrieval fails, but a learned linear map can align the lists.
    fn toy_embeddings(n: usize, dim: usize) -> (ListEmbeddings, ListEmbeddings) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut r = Vec::new();
        let mut s = Vec::new();
        for _ in 0..n {
            let row: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            r.extend_from_slice(&row);
            for k in 0..dim {
                s.push(row[(k + 3) % dim] + 0.02); // rotated features
            }
        }
        (ListEmbeddings { dim, data: r }, ListEmbeddings { dim, data: s })
    }

    fn toy_cfg(objective: BlockerObjective, negatives: NegativeSource) -> DialConfig {
        DialConfig {
            blocker_epochs: 30,
            batch_size: 8,
            lr_head: 1e-2,
            objective,
            negatives,
            ..DialConfig::smoke()
        }
    }

    fn labeled_pairs(n: usize) -> Vec<LabeledPair> {
        (0..n as u32 / 2)
            .map(|i| LabeledPair::new(i, i, true))
            .chain((0..n as u32 / 2).map(|i| LabeledPair::new(i, (i + 5) % (n as u32), false)))
            .collect()
    }

    #[test]
    fn committee_members_have_distinct_masks() {
        let mut store = ParamStore::new();
        let c = Committee::new(&mut store, 3, 32, 0.5, 0);
        assert_ne!(c.members()[0].mask, c.members()[1].mask);
        assert_ne!(c.members()[1].mask, c.members()[2].mask);
    }

    #[test]
    fn reinit_changes_masks_and_weights() {
        let mut store = ParamStore::new();
        let mut c = Committee::new(&mut store, 2, 16, 0.5, 0);
        let w_before = store.value(c.members()[0].w).clone();
        let m_before = c.members()[0].mask.clone();
        c.reinit(&mut store, 99);
        assert_ne!(store.value(c.members()[0].w), &w_before);
        assert_ne!(c.members()[0].mask, m_before);
    }

    #[test]
    fn embed_matches_graph_path() {
        let mut store = ParamStore::new();
        let c = Committee::new(&mut store, 1, 8, 0.5, 3);
        let e: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let fast = c.members()[0].embed(&store, &e);
        let mut g = Graph::new();
        let x = g.input(Matrix::row_vector(e));
        let out = c.members()[0].embed_graph(&mut g, &store, x);
        let slow = g.value(out).as_slice();
        for (a, b) in fast.iter().zip(slow) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    fn recall_at_1(
        store: &ParamStore,
        c: &Committee,
        er: &ListEmbeddings,
        es: &ListEmbeddings,
    ) -> f32 {
        // For each s, is its true partner r the nearest under member 0?
        let views_r = c.embed_list(store, er);
        let views_s = c.embed_list(store, es);
        let (vr, vs) = (&views_r[0], &views_s[0]);
        let d = er.dim;
        let n = er.len();
        let mut hits = 0;
        for si in 0..n {
            let es_v = &vs[si * d..(si + 1) * d];
            let mut best = (usize::MAX, f32::INFINITY);
            for ri in 0..n {
                let er_v = &vr[ri * d..(ri + 1) * d];
                let dd = dial_ann::sq_l2(es_v, er_v);
                if dd < best.1 {
                    best = (ri, dd);
                }
            }
            if best.0 == si {
                hits += 1;
            }
        }
        hits as f32 / n as f32
    }

    #[test]
    fn contrastive_training_improves_duplicate_retrieval() {
        let (er, es) = toy_embeddings(48, 16);
        let mut store = ParamStore::new();
        let mut c = Committee::new(&mut store, 1, 16, 1.0, 1);
        let cfg = DialConfig {
            blocker_epochs: 150,
            ..toy_cfg(BlockerObjective::Contrastive, NegativeSource::Random)
        };
        let before = recall_at_1(&store, &c, &er, &es);
        let labeled = labeled_pairs(48);
        let loss = c.train(&mut store, &er, &es, &labeled, &cfg, 0);
        assert!(loss.is_finite());
        let rec = recall_at_1(&store, &c, &er, &es);
        assert!(
            rec > before + 0.2 && rec > 0.25,
            "recall@1 should improve: before {before}, after {rec}"
        );
    }

    #[test]
    fn all_objectives_produce_finite_loss() {
        let (er, es) = toy_embeddings(16, 8);
        let labeled = labeled_pairs(16);
        for obj in [
            BlockerObjective::Contrastive,
            BlockerObjective::Triplet,
            BlockerObjective::Classification,
        ] {
            let mut store = ParamStore::new();
            let mut c = Committee::new(&mut store, 2, 8, 0.6, 2);
            let cfg = DialConfig { blocker_epochs: 3, ..toy_cfg(obj, NegativeSource::Random) };
            let loss = c.train(&mut store, &er, &es, &labeled, &cfg, 0);
            assert!(loss.is_finite(), "{obj:?} loss not finite");
        }
    }

    #[test]
    fn labeled_negative_source_uses_negatives() {
        let (er, es) = toy_embeddings(16, 8);
        let labeled = labeled_pairs(16);
        let mut store = ParamStore::new();
        let mut c = Committee::new(&mut store, 1, 8, 0.6, 2);
        let cfg = DialConfig {
            blocker_epochs: 3,
            ..toy_cfg(BlockerObjective::Contrastive, NegativeSource::Labeled)
        };
        let loss = c.train(&mut store, &er, &es, &labeled, &cfg, 0);
        assert!(loss.is_finite());
    }

    #[test]
    fn embed_list_is_bitwise_the_per_record_embed() {
        // A fitted normalization, trained weights and a sparse mask, at the
        // default trunk width.
        let (er, es) = toy_embeddings(37, 64);
        let mut store = ParamStore::new();
        let mut c = Committee::new(&mut store, 3, 64, 0.5, 7);
        let cfg = DialConfig {
            blocker_epochs: 2,
            ..toy_cfg(BlockerObjective::Contrastive, NegativeSource::Random)
        };
        c.train(&mut store, &er, &es, &labeled_pairs(37), &cfg, 0);
        let views = c.embed_list(&store, &es);
        for (member, view) in c.members().iter().zip(&views) {
            for id in 0..es.len() as u32 {
                let mut e = es.row(id).to_vec();
                c.normalization().apply(&mut e);
                let want = member.embed(&store, &e);
                let got = &view[id as usize * 64..(id as usize + 1) * 64];
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&want), "record {id}");
            }
        }
    }

    #[test]
    fn embed_list_shapes() {
        let (er, _) = toy_embeddings(10, 8);
        let mut store = ParamStore::new();
        let c = Committee::new(&mut store, 3, 8, 0.5, 0);
        let views = c.embed_list(&store, &er);
        assert_eq!(views.len(), 3);
        for v in &views {
            assert_eq!(v.len(), 10 * 8);
        }
    }
}
