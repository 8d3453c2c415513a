//! The matcher: TPLM in paired mode + RoBERTa-style classification head
//! (paper §3.1).
//!
//! `Pr(y=1 | (r,s)) = sigmoid(F_W(E(r,s)))` where `E(r,s)` is the `[CLS]`
//! contextual embedding and `F_W` is dropout → linear → tanh → dropout →
//! linear (the default RoBERTa classification head, §4.2). Training
//! minimizes binary cross-entropy (Eq. 6) over the labeled pairs with
//! AdamW, a smaller trunk learning rate, and a linear no-warm-up schedule.
//!
//! Inference — [`Matcher::prob`], [`Matcher::prob_and_feature`] and the
//! batch entry [`Matcher::score_batch`] — runs graph-free: the trunk's
//! `encode_into` and the head's few kernel calls on plain buffers, with the
//! coverage block shared with the tape path, so a score is bitwise
//! `logit_and_hidden(train = false)`'s and nothing is recorded that only a
//! backward pass would read.
//!
//! Gradient batches are data-parallel: the batch is split into chunks, each
//! chunk reads the one parameter store and accumulates into a gradient
//! shard of its own (allocated once per `train` call), and the shards are
//! reduced in chunk order before the optimizer step — numerically
//! identical to a serial batch up to float addition order.

use crate::config::DialConfig;
use dial_datasets::LabeledPair;
use dial_tensor::optim::{AdamW, LrGroup, Schedule};
use dial_tensor::{init, kernels, sigmoid, Grads, Graph, Matrix, ParamId, ParamStore, Var};
use dial_text::{paired_mode_ids, Record, TokenId, Vocab};
use dial_tplm::{EncodeScratch, Tplm, TRUNK_PREFIX};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use std::ops::Range;

/// Pairs one worker scores on one [`EncodeScratch`] in
/// [`Matcher::score_batch`].
const SCORE_CHUNK: usize = 64;

/// Parameter-name prefix of the matcher head.
pub const MATCHER_PREFIX: &str = "matcher.";

/// Paired-mode matcher over a shared TPLM trunk.
#[derive(Debug, Clone)]
pub struct Matcher {
    w1: ParamId,
    b1: ParamId,
    w2: ParamId,
    b2: ParamId,
    dropout: f32,
}

impl Matcher {
    /// Register head parameters. The trunk must already be registered in
    /// `store` (its handles live in `model`).
    pub fn new(store: &mut ParamStore, model: &Tplm) -> Self {
        let d = model.config().d_model;
        let mut rng = StdRng::seed_from_u64(model.config().seed ^ 0x4ead);
        Matcher {
            w1: store.add(format!("{MATCHER_PREFIX}w1"), init::xavier_uniform(4 * d, d, &mut rng)),
            b1: store.add(format!("{MATCHER_PREFIX}b1"), Matrix::zeros(1, d)),
            w2: store.add(format!("{MATCHER_PREFIX}w2"), init::xavier_uniform(d + 8, 1, &mut rng)),
            b2: store.add(format!("{MATCHER_PREFIX}b2"), Matrix::zeros(1, 1)),
            dropout: model.config().dropout,
        }
    }

    /// Build the logit graph for one paired token sequence. Returns the
    /// `[1, 1]` logit variable.
    ///
    /// The head reads `[E(r,s); mean_r; mean_s; |mean_r − mean_s|]` where
    /// `E(r,s)` is the CLS contextual embedding and `mean_r`/`mean_s` are
    /// the contextual mean-pools of the two segments. A fully pre-trained
    /// RoBERTa packs this pair-comparison signal into CLS itself; a mini
    /// transformer trained from a shallow prior needs it spelled out
    /// (DESIGN.md §2).
    pub fn logit_graph(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        model: &Tplm,
        ids: &[TokenId],
        train: bool,
        rng: &mut StdRng,
    ) -> Var {
        self.logit_and_hidden(g, store, model, ids, train, rng).0
    }

    /// As [`Matcher::logit_graph`], additionally returning the penultimate
    /// head activation (used as the BADGE/QBC feature vector).
    pub fn logit_and_hidden(
        &self,
        g: &mut Graph,
        store: &ParamStore,
        model: &Tplm,
        ids: &[TokenId],
        train: bool,
        rng: &mut StdRng,
    ) -> (Var, Var) {
        let p = if train { self.dropout } else { 0.0 };
        let ctx = model.encode(g, store, ids, p, rng);
        let (span_r, span_s) = segment_spans(ids);
        let cls = g.slice_rows(ctx, 0, 1);
        let seg_r = g.slice_rows(ctx, span_r.start, span_r.end);
        let seg_s = g.slice_rows(ctx, span_s.start, span_s.end);
        let mean_r = g.mean_rows(seg_r);
        let mean_s = g.mean_rows(seg_s);
        let diff = g.sub(mean_r, mean_s);
        let diff = g.abs(diff);
        // The coverage block is *detached*: it is a deterministic reading of
        // the embeddings, computed outside the tape, so its (large)
        // gradients cannot crowd out the trunk's under global norm
        // clipping.
        let d = model.config().d_model;
        // A segment's contextual rows are contiguous in `ctx`: borrow them.
        let ctx_rows = g.value(ctx).as_slice();
        let cov_vals = coverage_block(
            store.value(model.token_embedding_param()),
            (&ids[span_r.clone()], &ctx_rows[span_r.start * d..span_r.end * d]),
            (&ids[span_s.clone()], &ctx_rows[span_s.start * d..span_s.end * d]),
        );
        let cov = g.input(Matrix::row_vector(cov_vals.to_vec()));
        let feat = g.concat_cols(&[cls, mean_r, mean_s, diff]);
        let feat = g.dropout(feat, p, rng);
        let w1 = g.param(store, self.w1);
        let b1 = g.param(store, self.b1);
        let h = g.linear(feat, w1, b1);
        let h = g.tanh(h);
        let h = g.dropout(h, p, rng);
        // Output layer reads the deep representation plus the coverage
        // block through a direct linear path.
        let h_full = g.concat_cols(&[h, cov]);
        let w2 = g.param(store, self.w2);
        let b2 = g.param(store, self.b2);
        let logit = g.linear(h_full, w2, b2);
        (logit, h_full)
    }

    /// Duplicate probability for one record pair (inference).
    pub fn prob(
        &self,
        store: &ParamStore,
        model: &Tplm,
        vocab: &Vocab,
        r: &Record,
        s: &Record,
    ) -> f32 {
        self.prob_and_feature(store, model, vocab, r, s).0
    }

    /// Probability plus the penultimate head activation (the feature vector
    /// whose output-layer gradient BADGE embeds).
    pub fn prob_and_feature(
        &self,
        store: &ParamStore,
        model: &Tplm,
        vocab: &Vocab,
        r: &Record,
        s: &Record,
    ) -> (f32, Vec<f32>) {
        let ids = paired_mode_ids(r, s, vocab, model.config().max_len);
        let mut feature = vec![0.0; self.feature_width(store)];
        let p = self.score_ids(store, model, &ids, &mut EncodeScratch::default(), &mut feature);
        (p, feature)
    }

    /// Width of the feature vector: the head's hidden layer plus the
    /// coverage block.
    pub fn feature_width(&self, store: &ParamStore) -> usize {
        store.value(self.w2).rows()
    }

    /// Duplicate probabilities of many pairs, rayon-parallel, and their
    /// feature vectors packed `[pairs.len(), feature_width]` — each pair
    /// bitwise [`Matcher::prob_and_feature`]'s. Workers take
    /// [`SCORE_CHUNK`] pairs at a time on one scratch.
    pub fn score_batch(
        &self,
        store: &ParamStore,
        model: &Tplm,
        vocab: &Vocab,
        pairs: &[(&Record, &Record)],
    ) -> (Vec<f32>, Vec<f32>) {
        let (width, max_len) = (self.feature_width(store), model.config().max_len);
        let (probs, feats): (Vec<Vec<f32>>, Vec<Vec<f32>>) = pairs
            .par_chunks(SCORE_CHUNK)
            .map(|chunk| {
                let mut scratch = EncodeScratch::default();
                let mut feats = vec![0.0; chunk.len() * width];
                let probs = chunk
                    .iter()
                    .zip(feats.chunks_exact_mut(width))
                    .map(|((r, s), feature)| {
                        let ids = paired_mode_ids(r, s, vocab, max_len);
                        self.score_ids(store, model, &ids, &mut scratch, feature)
                    })
                    .collect();
                (probs, feats)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .unzip();
        (probs.concat(), feats.concat())
    }

    /// The forward of [`Matcher::logit_and_hidden`] at `train = false`
    /// without a tape: the head activation into `feature`
    /// ([`Matcher::feature_width`] floats), the probability returned. Same
    /// kernel calls in the same order, so both are bitwise the tape's.
    fn score_ids(
        &self,
        store: &ParamStore,
        model: &Tplm,
        ids: &[TokenId],
        scratch: &mut EncodeScratch,
        feature: &mut [f32],
    ) -> f32 {
        let d = model.config().d_model;
        let w = |id: ParamId| store.value(id).as_slice();
        let ctx = model.encode_into(store, ids, scratch);
        let (span_r, span_s) = segment_spans(ids);
        let (ctx_r, ctx_s) =
            (&ctx[span_r.start * d..span_r.end * d], &ctx[span_s.start * d..span_s.end * d]);

        // [cls; mean_r; mean_s; |mean_r − mean_s|]
        let mut feat = vec![0.0; 4 * d];
        let (cls, rest) = feat.split_at_mut(d);
        let (mean_r, rest) = rest.split_at_mut(d);
        let (mean_s, diff) = rest.split_at_mut(d);
        cls.copy_from_slice(&ctx[..d]);
        kernels::mean_rows(ctx_r, mean_r);
        kernels::mean_rows(ctx_s, mean_s);
        for ((o, a), b) in diff.iter_mut().zip(&*mean_r).zip(&*mean_s) {
            *o = (a - b).abs();
        }

        let (hidden, cov) = feature.split_at_mut(d);
        kernels::matmul(&feat, w(self.w1), 1, 4 * d, d, hidden);
        kernels::add_row(hidden, w(self.b1));
        kernels::tanh_slice(hidden);
        cov.copy_from_slice(&coverage_block(
            store.value(model.token_embedding_param()),
            (&ids[span_r], ctx_r),
            (&ids[span_s], ctx_s),
        ));
        let mut logit = [0.0];
        kernels::matmul(feature, w(self.w2), 1, feature.len(), 1, &mut logit);
        kernels::add_row(&mut logit, w(self.b2));
        sigmoid(logit[0])
    }

    /// Fine-tune trunk + head on `labeled` pairs (Eq. 6). Returns the mean
    /// loss of the final epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &self,
        store: &mut ParamStore,
        model: &Tplm,
        vocab: &Vocab,
        r_list: &dial_text::RecordList,
        s_list: &dial_text::RecordList,
        labeled: &[LabeledPair],
        cfg: &DialConfig,
        round: usize,
    ) -> f32 {
        assert!(!labeled.is_empty(), "cannot train the matcher on zero pairs");
        if cfg.freeze_trunk {
            model.set_trunk_frozen(store, true);
        }
        let max_len = model.config().max_len;
        // Pre-tokenize once.
        // Class-balance weights: actively-selected batches grow increasingly
        // negative-heavy; without re-weighting the small model collapses to
        // the majority class (RoBERTa's capacity absorbs this, ours needs
        // the standard re-weighting).
        let n_pos = labeled.iter().filter(|p| p.label).count().max(1);
        let n_neg = (labeled.len() - n_pos.min(labeled.len())).max(1);
        let w_pos = labeled.len() as f32 / (2.0 * n_pos as f32);
        let w_neg = labeled.len() as f32 / (2.0 * n_neg as f32);
        let examples: Vec<(Vec<TokenId>, f32, f32)> = labeled
            .iter()
            .map(|p| {
                let ids = paired_mode_ids(r_list.get(p.r), s_list.get(p.s), vocab, max_len);
                if p.label {
                    (ids, 1.0, w_pos)
                } else {
                    (ids, 0.0, w_neg)
                }
            })
            .collect();

        let steps_per_epoch = examples.len().div_ceil(cfg.batch_size);
        let total_steps = steps_per_epoch * cfg.matcher_epochs;
        let mut opt = AdamW::with_groups(
            store,
            cfg.lr_head,
            vec![LrGroup { prefix: TRUNK_PREFIX.into(), lr: cfg.lr_trunk }],
            Schedule::LinearDecay { total_steps },
        );

        // One gradient shard per worker, reused by every step.
        let mut shards = vec![store.new_grads(); rayon::current_num_threads().max(1)];
        let mut order: Vec<usize> = (0..examples.len()).collect();
        let mut epoch_rng = StdRng::seed_from_u64(cfg.seed ^ (round as u64) << 20);
        let mut last_epoch_loss = 0.0;
        for epoch in 0..cfg.matcher_epochs {
            order.shuffle(&mut epoch_rng);
            let mut loss_sum = 0.0f64;
            for (step, batch) in order.chunks(cfg.batch_size).enumerate() {
                let loss = self.grad_step(
                    store,
                    &mut shards,
                    model,
                    &examples,
                    batch,
                    cfg.seed ^ hash3(round, epoch, step),
                );
                store.clip_grad_norm(5.0);
                opt.step(store);
                loss_sum += loss as f64 * batch.len() as f64;
            }
            last_epoch_loss = (loss_sum / examples.len() as f64) as f32;
        }
        if cfg.freeze_trunk {
            model.set_trunk_frozen(store, false);
        }
        last_epoch_loss
    }

    /// One data-parallel gradient accumulation over `batch` indices: the
    /// batch is cut into one chunk per shard, every chunk reads `store` and
    /// fills its own shard, and the shards are added into `store`'s
    /// (zeroed) gradients in chunk order. Returns the mean loss.
    fn grad_step(
        &self,
        store: &mut ParamStore,
        shards: &mut [Grads],
        model: &Tplm,
        examples: &[(Vec<TokenId>, f32, f32)],
        batch: &[usize],
        seed: u64,
    ) -> f32 {
        let chunk = batch.len().div_ceil(shards.len()).max(1);
        let shared: &ParamStore = store;
        let work: Vec<(&[usize], &mut Grads)> =
            batch.chunks(chunk).zip(shards.iter_mut()).collect();
        let losses: Vec<f64> = work
            .into_par_iter()
            .map(|(ixs, shard)| {
                shard.fill_zero();
                let mut loss = 0.0f64;
                for &i in ixs {
                    let (ids, label, weight) = &examples[i];
                    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64));
                    let mut g = Graph::new();
                    let z = self.logit_graph(&mut g, shared, model, ids, true, &mut rng);
                    let l = g.bce_with_logits(z, &[*label]);
                    let l = g.scale(l, *weight);
                    loss += g.value(l).item() as f64;
                    g.backward_into(l, shared, shard);
                }
                loss
            })
            .collect();
        // One loss per chunk that ran: the zip stops at the shards in use.
        let mut loss_sum = 0.0;
        for (shard, loss) in shards.iter().zip(&losses) {
            store.accumulate_grads_from(shard);
            loss_sum += loss;
        }
        // Mean over the batch: gradients were summed per example, so
        // rescale to match a mean-reduction batch loss.
        let scale = 1.0 / batch.len() as f32;
        for id in store.ids().collect::<Vec<_>>() {
            if !store.is_frozen(id) {
                store.grad_mut(id).scale(scale);
            }
        }
        (loss_sum / batch.len() as f64) as f32
    }
}

/// Token positions of the two records in a paired sequence: between CLS
/// and the middle SEP (the first after CLS), and between it and the
/// closing SEP.
fn segment_spans(ids: &[TokenId]) -> (Range<usize>, Range<usize>) {
    let n = ids.len();
    let boundary =
        ids.iter().position(|&t| t == Vocab::SEP).expect("paired input must contain a separator");
    (1..boundary.max(2), (boundary + 1).min(n - 1)..n - 1)
}

/// Width of the crisp hash-identity embeddings.
const CRISP_DIM: usize = 16;

/// The head's coverage block, from one side's `(token ids, contextual
/// rows)` and the other's — the one definition under training and
/// inference.
///
/// Bidirectional soft-containment at two sharpness scales, over both the
/// *contextual* embeddings and the raw token embeddings (where token
/// identity is crisp): for each token on one side, the log-sum-exp of
/// negated scaled distances to the other side ≈ its best alignment.
/// Duplicates are covered both ways; near-duplicates leave decisive tokens
/// unmatched. RoBERTa learns this comparison internally; the mini model
/// gets it as an explicit feature block wired straight into the output
/// layer (DESIGN.md §2).
fn coverage_block(
    tok_table: &Matrix,
    r: (&[TokenId], &[f32]),
    s: (&[TokenId], &[f32]),
) -> [f32; 8] {
    let d = tok_table.cols();
    let ((ids_r, ctx_r), (ids_s, ctx_s)) = (r, s);
    // Crisp identity embeddings: fixed hash-random vectors per token id.
    // Coverage over these is a smooth token-Jaccard, unaffected by how
    // much pre-training contracts the semantic space.
    let (crisp_r, crisp_s) =
        (pack_rows(ids_r, CRISP_DIM, crisp_row), pack_rows(ids_s, CRISP_DIM, crisp_row));
    let tok_row = |t: TokenId, row: &mut [f32]| row.copy_from_slice(tok_table.row(t as usize));
    let (tok_r, tok_s) = (pack_rows(ids_r, d, tok_row), pack_rows(ids_s, d, tok_row));
    let mut cov = [0.0; 8];
    for (slot, (a, b, dim)) in
        [(&crisp_r[..], &crisp_s[..], CRISP_DIM), (ctx_r, ctx_s, d), (&tok_r[..], &tok_s[..], d)]
            .into_iter()
            .enumerate()
    {
        // One distance matrix serves both directions: `(x − y)²` and
        // `(y − x)²` are the same bits, so the transpose is exactly
        // what scoring `b` against `a` pair by pair would give.
        let dists = pair_sq_dists(a, b, dim);
        let tau = dim as f32 / 8.0;
        cov[2 * slot] = 0.25 * coverage(&dists, tau);
        cov[2 * slot + 1] = 0.25 * coverage(&dists.transpose(), tau);
    }
    // Plus a hard token-Jaccard scalar for good measure; `cov[7]` is
    // reserved.
    cov[6] = hard_jaccard(ids_r, ids_s);
    cov
}

/// One `dim`-wide row per token, packed row-major; `fill` writes a row.
fn pack_rows(ids: &[TokenId], dim: usize, fill: impl Fn(TokenId, &mut [f32])) -> Vec<f32> {
    let mut rows = vec![0.0; ids.len() * dim];
    for (&t, row) in ids.iter().zip(rows.chunks_exact_mut(dim)) {
        fill(t, row);
    }
    rows
}

/// Deterministic pseudo-random unit-scale vector for a token id
/// (splitmix64-expanded), identical across runs and machines.
fn crisp_row(token: TokenId, row: &mut [f32]) {
    let mut state = (token as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd1b5_4a32_d192_ed03;
    for v in row {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        *v = (z as f32 / u64::MAX as f32) * 2.0 - 1.0;
    }
}

/// Exact token-multiset Jaccard between two id slices.
fn hard_jaccard(a: &[TokenId], b: &[TokenId]) -> f32 {
    use std::collections::HashSet;
    let sa: HashSet<TokenId> = a.iter().copied().collect();
    let sb: HashSet<TokenId> = b.iter().copied().collect();
    if sa.is_empty() && sb.is_empty() {
        return 0.0;
    }
    sa.intersection(&sb).count() as f32 / sa.union(&sb).count() as f32
}

/// `[|a|, |b|]` squared distances between two packed sets of `dim`-wide
/// rows.
fn pair_sq_dists(a: &[f32], b: &[f32], dim: usize) -> Matrix {
    let (na, nb) = (a.len() / dim, b.len() / dim);
    let mut out = Matrix::zeros(na, nb);
    kernels::cross_sq_dists_into(a, b, na, nb, dim, out.as_mut_slice());
    out
}

/// Mean over the rows of `dists` of the soft-min (−τ·LSE) alignment score
/// of that row's token against the other side.
fn coverage(dists: &Matrix, tau: f32) -> f32 {
    if dists.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    let mut zs = vec![0.0; dists.cols()];
    for r in 0..dists.rows() {
        for (z, d) in zs.iter_mut().zip(dists.row(r)) {
            *z = -d / tau;
        }
        total += dial_tensor::logsumexp(&zs);
    }
    total / dists.rows() as f32
}

fn hash3(a: usize, b: usize, c: usize) -> u64 {
    (a as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((b as u64).wrapping_mul(0x85eb_ca6b))
        .wrapping_add(c as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_text::{RecordList, Schema};
    use dial_tplm::TplmConfig;

    fn setup() -> (ParamStore, Tplm, Matcher, Vocab, RecordList, RecordList) {
        let mut store = ParamStore::new();
        let model = Tplm::new(TplmConfig::tiny(), &mut store);
        let matcher = Matcher::new(&mut store, &model);
        let vocab = Vocab::new(64);
        let schema = Schema::new(vec!["t"]);
        let mut r = RecordList::new(schema.clone());
        let mut s = RecordList::new(schema);
        // Matching pairs share most tokens; non-matching share only one.
        let words = ["apple", "berry", "cedar", "dune", "ember", "fig", "grove", "holly"];
        for i in 0..8 {
            let text = format!("{} {} {} gadget", words[i], words[(i + 1) % 8], words[(i + 2) % 8]);
            r.push(vec![text.clone()]);
            s.push(vec![text]);
        }
        (store, model, matcher, vocab, r, s)
    }

    fn tiny_cfg() -> DialConfig {
        DialConfig {
            tplm: TplmConfig::tiny(),
            matcher_epochs: 30,
            batch_size: 4,
            lr_trunk: 1e-3,
            lr_head: 1e-2,
            ..DialConfig::smoke()
        }
    }

    #[test]
    fn prob_is_a_probability() {
        let (store, model, matcher, vocab, r, s) = setup();
        let p = matcher.prob(&store, &model, &vocab, r.get(0), s.get(0));
        assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn training_separates_easy_pairs() {
        let (mut store, model, matcher, vocab, r, s) = setup();
        let labeled: Vec<LabeledPair> = (0..8)
            .map(|i| LabeledPair::new(i, i, true))
            .chain((0..8).map(|i| LabeledPair::new(i, (i + 3) % 8, false)))
            .collect();
        let cfg = tiny_cfg();
        let loss = matcher.train(&mut store, &model, &vocab, &r, &s, &labeled, &cfg, 0);
        assert!(loss < 0.55, "loss {loss} did not drop");
        let p_dup = matcher.prob(&store, &model, &vocab, r.get(1), s.get(1));
        let p_non = matcher.prob(&store, &model, &vocab, r.get(1), s.get(5));
        assert!(p_dup > p_non, "trained matcher should rank dup {p_dup} above non-dup {p_non}");
    }

    #[test]
    fn score_batch_matches_single() {
        let (store, model, matcher, vocab, r, s) = setup();
        // More pairs than one chunk, so a scratch is reused and a second
        // chunk starts fresh.
        let pairs: Vec<(&Record, &Record)> =
            (0..SCORE_CHUNK as u32 + 5).map(|i| (r.get(i % 8), s.get(i * 3 % 8))).collect();
        let (probs, feats) = matcher.score_batch(&store, &model, &vocab, &pairs);
        assert_eq!(probs.len(), pairs.len());
        let width = matcher.feature_width(&store);
        for (i, (r, s)) in pairs.iter().enumerate() {
            let (p, f) = matcher.prob_and_feature(&store, &model, &vocab, r, s);
            assert_eq!(probs[i].to_bits(), p.to_bits(), "pair {i}");
            assert_eq!(&feats[i * width..(i + 1) * width], &f[..], "pair {i}");
        }
    }

    #[test]
    fn feature_vector_has_model_width() {
        let (store, model, matcher, vocab, r, s) = setup();
        let (_, feat) = matcher.prob_and_feature(&store, &model, &vocab, r.get(0), s.get(1));
        assert_eq!(feat.len(), 16 + 8);
    }

    #[test]
    fn freeze_trunk_leaves_trunk_untouched() {
        let (mut store, model, matcher, vocab, r, s) = setup();
        let before = store.value(model.token_embedding_param()).clone();
        let labeled: Vec<LabeledPair> = (0..4)
            .map(|i| LabeledPair::new(i, i, true))
            .chain((0..4).map(|i| LabeledPair::new(i, (i + 2) % 8, false)))
            .collect();
        let cfg = DialConfig { freeze_trunk: true, ..tiny_cfg() };
        matcher.train(&mut store, &model, &vocab, &r, &s, &labeled, &cfg, 0);
        assert_eq!(store.value(model.token_embedding_param()), &before);
        // And the trunk is unfrozen again afterwards.
        assert!(!store.is_frozen(model.token_embedding_param()));
    }

    #[test]
    fn deterministic_training() {
        let run = || {
            let (mut store, model, matcher, vocab, r, s) = setup();
            let labeled: Vec<LabeledPair> = (0..4)
                .map(|i| LabeledPair::new(i, i, true))
                .chain((0..4).map(|i| LabeledPair::new(i, (i + 2) % 8, false)))
                .collect();
            let cfg = tiny_cfg();
            matcher.train(&mut store, &model, &vocab, &r, &s, &labeled, &cfg, 0);
            matcher.prob(&store, &model, &vocab, r.get(0), s.get(0))
        };
        // Shard reduction order is deterministic (par_chunks preserves
        // order in collect), so repeated runs agree exactly.
        assert_eq!(run(), run());
    }
}
