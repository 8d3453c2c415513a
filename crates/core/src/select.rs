//! Example-selection strategies (§2.3, §4.7, Table 8, Figure 7).
//!
//! All selectors operate on the candidate set with the matcher's current
//! probabilities (and, where needed, feature vectors); they return at most
//! `budget` pairs to send to the labeler. Pairs in the exclusion set
//! (`Dtest ∩ cand` plus already-labeled pairs, per §4.2) are never chosen.

use crate::candidates::Candidate;
use crate::config::SelectionStrategy;
use dial_ann::kmeans_pp_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// Everything a selector may need about the current round.
pub struct SelectionInputs<'a> {
    pub cands: &'a [Candidate],
    /// Matcher probability per candidate.
    pub probs: &'a [f32],
    /// Penultimate matcher-head activation per candidate (BADGE).
    pub feats: &'a [Vec<f32>],
    /// Labeled-pair features with labels (QBC bootstrap committee).
    pub labeled_feats: &'a [(Vec<f32>, bool)],
    /// Pairs that must not be selected.
    pub excluded: &'a HashSet<(u32, u32)>,
    pub budget: usize,
}

/// Whether `strategy` reads [`SelectionInputs::feats`]; the others accept
/// an empty slice there.
pub fn reads_feats(strategy: SelectionStrategy) -> bool {
    matches!(strategy, SelectionStrategy::Qbc | SelectionStrategy::Badge)
}

/// Whether `strategy` reads [`SelectionInputs::labeled_feats`]; the others
/// accept an empty slice there.
pub fn reads_labeled_feats(strategy: SelectionStrategy) -> bool {
    strategy == SelectionStrategy::Qbc
}

/// Binary entropy of a probability (Eq. 4), in nats.
pub fn entropy(p: f32) -> f32 {
    let p = p.clamp(1e-7, 1.0 - 1e-7);
    -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
}

/// Run the chosen strategy. Returns selected pair keys, at most
/// `inputs.budget`.
pub fn select(
    strategy: SelectionStrategy,
    inputs: &SelectionInputs<'_>,
    rng: &mut StdRng,
) -> Vec<(u32, u32)> {
    let eligible: Vec<usize> = (0..inputs.cands.len())
        .filter(|&i| {
            let c = &inputs.cands[i];
            !inputs.excluded.contains(&(c.r, c.s))
        })
        .collect();
    if eligible.is_empty() || inputs.budget == 0 {
        return Vec::new();
    }

    let picked: Vec<usize> = match strategy {
        SelectionStrategy::Random => {
            let mut e = eligible;
            e.shuffle(rng);
            e.truncate(inputs.budget);
            e
        }
        SelectionStrategy::Greedy => {
            top_by(&eligible, inputs.budget, |i| -inputs.cands[i].distance)
        }
        SelectionStrategy::Uncertainty => {
            top_by(&eligible, inputs.budget, |i| entropy(inputs.probs[i]))
        }
        SelectionStrategy::Qbc => qbc_select(&eligible, inputs, rng),
        SelectionStrategy::Partition2 => partition_select(&eligible, inputs, false),
        SelectionStrategy::Partition4 => partition_select(&eligible, inputs, true),
        SelectionStrategy::Badge => badge_select(&eligible, inputs, rng),
    };
    picked.into_iter().map(|i| (inputs.cands[i].r, inputs.cands[i].s)).collect()
}

/// Indices with the `n` largest scores, deterministic tie-break by index.
fn top_by(eligible: &[usize], n: usize, score: impl Fn(usize) -> f32) -> Vec<usize> {
    let mut scored: Vec<(usize, f32)> = eligible.iter().map(|&i| (i, score(i))).collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
    scored.truncate(n);
    scored.into_iter().map(|(i, _)| i).collect()
}

/// High-confidence sampling with partition (§2.3.3): split candidates by
/// predicted label, rank by entropy within each side. Partition-2 queries
/// the low-confidence halves; Partition-4 also queries the high-confidence
/// ones.
fn partition_select(eligible: &[usize], inputs: &SelectionInputs<'_>, four: bool) -> Vec<usize> {
    let positives: Vec<usize> =
        eligible.iter().copied().filter(|&i| inputs.probs[i] > 0.5).collect();
    let negatives: Vec<usize> =
        eligible.iter().copied().filter(|&i| inputs.probs[i] <= 0.5).collect();
    let parts = if four { 4 } else { 2 };
    let per = (inputs.budget / parts).max(1);

    let mut out = Vec::new();
    // Low-confidence = highest entropy.
    out.extend(top_by(&positives, per, |i| entropy(inputs.probs[i])));
    out.extend(top_by(&negatives, per, |i| entropy(inputs.probs[i])));
    if four {
        let chosen: HashSet<usize> = out.iter().copied().collect();
        let hc_pos: Vec<usize> =
            positives.iter().copied().filter(|i| !chosen.contains(i)).collect();
        let hc_neg: Vec<usize> =
            negatives.iter().copied().filter(|i| !chosen.contains(i)).collect();
        out.extend(top_by(&hc_pos, per, |i| -entropy(inputs.probs[i])));
        out.extend(top_by(&hc_neg, per, |i| -entropy(inputs.probs[i])));
    }
    out.truncate(inputs.budget);
    out
}

/// Soft query-by-committee (§4.7): train a bootstrap committee of logistic
/// heads on the labeled-pair features, score candidates by the entropy of
/// the committee's mean probability.
fn qbc_select(eligible: &[usize], inputs: &SelectionInputs<'_>, rng: &mut StdRng) -> Vec<usize> {
    const COMMITTEE: usize = 5;
    if inputs.labeled_feats.is_empty() {
        return top_by(eligible, inputs.budget, |i| entropy(inputs.probs[i]));
    }
    let dim = inputs.labeled_feats[0].0.len();
    let heads: Vec<(Vec<f32>, f32)> = (0..COMMITTEE)
        .map(|_| {
            // Bootstrap resample (Mozafari et al.).
            let sample: Vec<&(Vec<f32>, bool)> = (0..inputs.labeled_feats.len())
                .map(|_| &inputs.labeled_feats[rng.gen_range(0..inputs.labeled_feats.len())])
                .collect();
            train_logistic(&sample, dim, 80, 0.5)
        })
        .collect();

    let score = |i: usize| {
        let mean: f32 =
            heads.iter().map(|(w, b)| logistic_prob(w, *b, &inputs.feats[i])).sum::<f32>()
                / COMMITTEE as f32;
        entropy(mean)
    };
    top_by(eligible, inputs.budget, score)
}

/// BADGE (§2.3.4): hallucinated gradient embedding
/// `g_x = (p − ŷ) · [h; 1]`, then k-means++ seeding for diverse, uncertain
/// picks.
fn badge_select(eligible: &[usize], inputs: &SelectionInputs<'_>, rng: &mut StdRng) -> Vec<usize> {
    if eligible.len() <= inputs.budget {
        return eligible.to_vec();
    }
    let dim = inputs.feats.first().map(|f| f.len() + 1).unwrap_or(1);
    let mut packed = Vec::with_capacity(eligible.len() * dim);
    for &i in eligible {
        let p = inputs.probs[i];
        let yhat = if p > 0.5 { 1.0 } else { 0.0 };
        let coeff = p - yhat; // d loss / d logit at the hallucinated label
        for &f in &inputs.feats[i] {
            packed.push(coeff * f);
        }
        packed.push(coeff); // bias component
    }
    let seeds = kmeans_pp_seed(&packed, dim, inputs.budget, rng);
    seeds.into_iter().map(|s| eligible[s]).collect()
}

/// Tiny logistic-regression trainer (full-batch gradient descent).
fn train_logistic(
    sample: &[&(Vec<f32>, bool)],
    dim: usize,
    iters: usize,
    lr: f32,
) -> (Vec<f32>, f32) {
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;
    let n = sample.len() as f32;
    for _ in 0..iters {
        let mut gw = vec![0.0f32; dim];
        let mut gb = 0.0f32;
        for (x, y) in sample.iter().map(|p| (&p.0, p.1)) {
            let p = logistic_prob(&w, b, x);
            let err = p - if y { 1.0 } else { 0.0 };
            for (g, &xv) in gw.iter_mut().zip(x) {
                *g += err * xv;
            }
            gb += err;
        }
        for (wv, g) in w.iter_mut().zip(&gw) {
            *wv -= lr * g / n;
        }
        b -= lr * gb / n;
    }
    (w, b)
}

fn logistic_prob(w: &[f32], b: f32, x: &[f32]) -> f32 {
    let z: f32 = w.iter().zip(x).map(|(a, c)| a * c).sum::<f32>() + b;
    dial_tensor::sigmoid(z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn make_inputs<'a>(
        cands: &'a [Candidate],
        probs: &'a [f32],
        feats: &'a [Vec<f32>],
        labeled: &'a [(Vec<f32>, bool)],
        excluded: &'a HashSet<(u32, u32)>,
        budget: usize,
    ) -> SelectionInputs<'a> {
        SelectionInputs { cands, probs, feats, labeled_feats: labeled, excluded, budget }
    }

    fn toy() -> (Vec<Candidate>, Vec<f32>, Vec<Vec<f32>>) {
        let cands: Vec<Candidate> =
            (0..10).map(|i| Candidate { r: i, s: i, distance: i as f32, rank: 0 }).collect();
        // Probabilities: 0.0, 0.1, ..., 0.9 — most uncertain near 0.5.
        let probs: Vec<f32> = (0..10).map(|i| i as f32 / 10.0).collect();
        let feats: Vec<Vec<f32>> = (0..10).map(|i| vec![i as f32, 1.0 - i as f32]).collect();
        (cands, probs, feats)
    }

    #[test]
    fn entropy_peaks_at_half() {
        assert!(entropy(0.5) > entropy(0.3));
        assert!(entropy(0.3) > entropy(0.05));
        assert!((entropy(0.5) - (2.0f32).ln().abs()).abs() < 1e-4);
    }

    #[test]
    fn uncertainty_picks_most_entropic() {
        let (cands, probs, feats) = toy();
        let excl = HashSet::new();
        let inputs = make_inputs(&cands, &probs, &feats, &[], &excl, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let out = select(SelectionStrategy::Uncertainty, &inputs, &mut rng);
        // p = 0.5 (index 5) and p = 0.4 (index 4) are most uncertain.
        assert_eq!(out, vec![(5, 5), (4, 4)]);
    }

    #[test]
    fn greedy_picks_smallest_distance() {
        let (cands, probs, feats) = toy();
        let excl = HashSet::new();
        let inputs = make_inputs(&cands, &probs, &feats, &[], &excl, 3);
        let mut rng = StdRng::seed_from_u64(0);
        let out = select(SelectionStrategy::Greedy, &inputs, &mut rng);
        assert_eq!(out, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn exclusion_is_respected_by_all_strategies() {
        let (cands, probs, feats) = toy();
        let excl: HashSet<(u32, u32)> = (0..10).map(|i| (i, i)).filter(|p| p.0 % 2 == 0).collect();
        let labeled: Vec<(Vec<f32>, bool)> =
            (0..6).map(|i| (vec![i as f32, -(i as f32)], i % 2 == 0)).collect();
        for strat in [
            SelectionStrategy::Random,
            SelectionStrategy::Greedy,
            SelectionStrategy::Uncertainty,
            SelectionStrategy::Qbc,
            SelectionStrategy::Partition2,
            SelectionStrategy::Partition4,
            SelectionStrategy::Badge,
        ] {
            let inputs = make_inputs(&cands, &probs, &feats, &labeled, &excl, 4);
            let mut rng = StdRng::seed_from_u64(1);
            let out = select(strat, &inputs, &mut rng);
            assert!(out.iter().all(|p| !excl.contains(p)), "{strat:?} selected an excluded pair");
            assert!(out.len() <= 4);
        }
    }

    #[test]
    fn strategies_that_read_no_features_select_the_same_without_them() {
        let (cands, probs, feats) = toy();
        let excl: HashSet<(u32, u32)> = [(3, 3)].into_iter().collect();
        let labeled: Vec<(Vec<f32>, bool)> =
            (0..6).map(|i| (vec![i as f32, -(i as f32)], i % 2 == 0)).collect();
        for strat in [
            SelectionStrategy::Random,
            SelectionStrategy::Greedy,
            SelectionStrategy::Uncertainty,
            SelectionStrategy::Partition2,
            SelectionStrategy::Partition4,
        ] {
            assert!(!reads_feats(strat) && !reads_labeled_feats(strat));
            let with = make_inputs(&cands, &probs, &feats, &labeled, &excl, 4);
            let without = make_inputs(&cands, &probs, &[], &[], &excl, 4);
            let pick = |inputs| select(strat, inputs, &mut StdRng::seed_from_u64(9));
            assert_eq!(pick(&with), pick(&without), "{strat:?}");
            assert!(!pick(&without).is_empty());
        }
        // BADGE reads candidate features only; QBC both.
        assert!(reads_feats(SelectionStrategy::Badge));
        assert!(!reads_labeled_feats(SelectionStrategy::Badge));
        assert!(reads_feats(SelectionStrategy::Qbc) && reads_labeled_feats(SelectionStrategy::Qbc));
        let badge = |labeled| {
            let inputs = make_inputs(&cands, &probs, &feats, labeled, &excl, 3);
            select(SelectionStrategy::Badge, &inputs, &mut StdRng::seed_from_u64(9))
        };
        assert_eq!(badge(&labeled[..]), badge(&[]));
    }

    #[test]
    fn budget_zero_selects_nothing() {
        let (cands, probs, feats) = toy();
        let excl = HashSet::new();
        let inputs = make_inputs(&cands, &probs, &feats, &[], &excl, 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(select(SelectionStrategy::Uncertainty, &inputs, &mut rng).is_empty());
    }

    #[test]
    fn partition2_mixes_predicted_sides() {
        let (cands, probs, feats) = toy();
        let excl = HashSet::new();
        let inputs = make_inputs(&cands, &probs, &feats, &[], &excl, 4);
        let mut rng = StdRng::seed_from_u64(0);
        let out = select(SelectionStrategy::Partition2, &inputs, &mut rng);
        let has_pos = out.iter().any(|&(r, _)| probs[r as usize] > 0.5);
        let has_neg = out.iter().any(|&(r, _)| probs[r as usize] <= 0.5);
        assert!(has_pos && has_neg, "partition should straddle the boundary: {out:?}");
    }

    #[test]
    fn badge_returns_diverse_budget() {
        let (cands, probs, feats) = toy();
        let excl = HashSet::new();
        let inputs = make_inputs(&cands, &probs, &feats, &[], &excl, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let out = select(SelectionStrategy::Badge, &inputs, &mut rng);
        assert_eq!(out.len(), 3);
        let set: HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn logistic_trainer_separates_linearly_separable() {
        let data: Vec<(Vec<f32>, bool)> = (0..20)
            .map(|i| {
                let x = i as f32 / 10.0 - 1.0;
                (vec![x, 1.0], x > 0.0)
            })
            .collect();
        let refs: Vec<&(Vec<f32>, bool)> = data.iter().collect();
        let (w, b) = train_logistic(&refs, 2, 200, 1.0);
        assert!(logistic_prob(&w, b, &[0.8, 1.0]) > 0.6);
        assert!(logistic_prob(&w, b, &[-0.8, 1.0]) < 0.4);
    }
}
