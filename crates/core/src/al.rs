//! The DIAL active-learning loop (Algorithm 1).
//!
//! Each round: (1) reset all parameters to the pre-trained checkpoint (no
//! warm start, §4.2); (2) fine-tune the matcher on the labeled pairs
//! (Eq. 6); (3) build the candidate set with the configured blocking
//! strategy — for DIAL, retrain the committee on frozen trunk embeddings
//! and run Index-By-Committee; (4) evaluate blocker recall, test-set F1 and
//! all-pairs F1; (5) select `B` informative pairs (excluding
//! `Dtest ∩ cand`) and query the oracle.
//!
//! Per-operation wall-clock timings are recorded to reproduce Tables 9
//! and 10.

use crate::blocker::Committee;
use crate::candidates::{index_single, CandidateSet};
use crate::config::{BlockerObjective, BlockingStrategy, DialConfig, NegativeSource};
use crate::encode::encode_list;
use crate::engine::{RetrievalEngine, TuneConfig, TuningOutcome};
use crate::eval::{all_pairs_prf, blocker_recall, test_prf, Prf};
use crate::matcher::Matcher;
use crate::oracle::Oracle;
use crate::select::{reads_feats, reads_labeled_feats, select, SelectionInputs};
use dial_datasets::{EmDataset, LabeledPair};
use dial_tensor::{ParamStore, Snapshot};
use dial_text::{Record, TokenId, Vocab};
use dial_tplm::{inject_alignment, pretrain_sgns, PretrainConfig, Tplm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::time::Instant;

/// Wall-clock seconds per operation in one round (Table 9's rows).
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTimings {
    pub train_matcher: f64,
    pub train_committee: f64,
    pub indexing_retrieval: f64,
    pub selection: f64,
    /// Blocking + matching time over the candidate set — the paper's "RT"
    /// (time to find all duplicate pairs, Table 2) for this round.
    pub find_dups: f64,
    /// Seconds the retrieval engine spent building or refreshing member
    /// indexes this round (0 for the fixed-candidate strategies).
    pub index_build: f64,
    /// Seconds the engine spent probing member indexes. With the
    /// build/probe pipeline on, builds overlap probes, so
    /// `index_build + index_probe` can exceed `indexing_retrieval`.
    pub index_probe: f64,
    /// Committee members whose index was refreshed incrementally instead
    /// of rebuilt from scratch this round.
    pub incremental_members: usize,
    /// How much of the round's background snapshot I/O (loading member
    /// snapshots at warm start, saving them after the first build) hid
    /// behind foreground work, as `background_secs / selection_secs`
    /// capped at 1. `0` when snapshots are off or the round did no
    /// snapshot work; close to 1 means the I/O cost the loop nothing.
    pub overlap_ratio: f64,
}

/// Metrics captured after training/blocking in one round.
#[derive(Debug, Clone)]
pub struct RoundMetrics {
    pub round: usize,
    /// `|T|` used for this round's training.
    pub labels_used: usize,
    pub blocker_recall: f64,
    pub cand_size: usize,
    pub test: Prf,
    pub all_pairs: Prf,
    pub timings: RoundTimings,
}

/// Outcome of a full run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub rounds: Vec<RoundMetrics>,
    /// The retrieval engine's calibration record, when the run was
    /// auto-tuned and the index family had a knob to turn
    /// (`DialConfig::auto_tune` with an IVF-backed spec).
    pub tuning: Option<TuningOutcome>,
    /// Per-shard probe counters merged over the final round's committee
    /// indexes, when the spec was `Sharded` — probe balance and hedge
    /// activity of the run's retrieval fan-out. `None` for unsharded
    /// specs.
    pub shard_stats: Option<dial_ann::ShardStatsSnapshot>,
}

impl RunResult {
    /// Metrics of the final round.
    pub fn last(&self) -> &RoundMetrics {
        self.rounds.last().expect("run produced no rounds")
    }
}

/// The integrated matcher–blocker system.
pub struct DialSystem {
    pub config: DialConfig,
    store: ParamStore,
    model: Tplm,
    matcher: Matcher,
    committee: Committee,
    vocab: Vocab,
    pretrained: Option<Snapshot>,
}

impl DialSystem {
    /// Build the system: register all parameters and the hashed vocabulary.
    pub fn new(config: DialConfig) -> Self {
        config.validate();
        let mut store = ParamStore::new();
        let model = Tplm::new(config.tplm, &mut store);
        let matcher = Matcher::new(&mut store, &model);
        // SentenceBERT blocking uses a single unmasked head trained with the
        // classification objective; everything else gets the full committee.
        let committee = match config.blocking {
            BlockingStrategy::SentenceBert => {
                Committee::new(&mut store, 1, config.tplm.d_model, 1.0, config.seed)
            }
            _ => Committee::new(
                &mut store,
                config.committee,
                config.tplm.d_model,
                config.mask_p,
                config.seed,
            ),
        };
        let vocab = Vocab::new(config.tplm.vocab_size as u32 - Vocab::NUM_SPECIAL);
        DialSystem { config, store, model, matcher, committee, vocab, pretrained: None }
    }

    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Run the pre-training substitute over the unlabeled records of both
    /// lists (must precede [`DialSystem::run`]; called automatically if
    /// skipped). For the multilingual benchmark, pass the dictionary via
    /// [`DialSystem::align_embeddings`] *after* this.
    pub fn pretrain(&mut self, data: &EmDataset) {
        if self.config.pretrain_epochs > 0 {
            let max_len = self.config.tplm.max_len;
            let corpus: Vec<Vec<TokenId>> = data
                .r
                .iter()
                .chain(data.s.iter())
                .map(|rec| rec.single_mode_ids(&self.vocab, max_len))
                .collect();
            pretrain_sgns(
                &mut self.store,
                self.model.token_embedding_param(),
                self.config.tplm.vocab_size,
                &corpus,
                PretrainConfig {
                    epochs: self.config.pretrain_epochs,
                    seed: self.config.seed,
                    ..Default::default()
                },
            );
        }
        self.pretrained = Some(self.store.snapshot());
    }

    /// Simulate multilingual-BERT alignment: tie translated token
    /// embeddings up to `noise_std`. Refreshes the pre-trained checkpoint.
    pub fn align_embeddings(&mut self, pairs: &[(TokenId, TokenId)], noise_std: f32) {
        inject_alignment(
            &mut self.store,
            self.model.token_embedding_param(),
            pairs,
            noise_std,
            self.config.seed ^ 0xa119,
        );
        self.pretrained = Some(self.store.snapshot());
    }

    /// Execute the active-learning loop. `rule_pairs` supplies the fixed
    /// candidate set for [`BlockingStrategy::Rules`].
    pub fn run(&mut self, data: &EmDataset, rule_pairs: Option<&[(u32, u32)]>) -> RunResult {
        if self.pretrained.is_none() {
            self.pretrain(data);
        }
        let cfg = self.config.clone();
        // Every retrieval index holds one view of R, so Auto resolves
        // against |R| (per shard, when sharded); the engine persists
        // across rounds, carrying each member's index and embedding
        // cache from round to round. With `auto_tune` on, the engine
        // also calibrates IVF-backed specs from observed recall before
        // the first retrieval.
        let index_spec = cfg.index_spec_for(data.r.len());
        let mut engine = if cfg.auto_tune {
            RetrievalEngine::with_tuning(
                index_spec.clone(),
                cfg.incremental_threshold,
                cfg.pipeline_depth,
                TuneConfig {
                    recall_target: cfg.tune_recall_target,
                    sample: cfg.tune_sample,
                    ..TuneConfig::default()
                },
            )
        } else {
            RetrievalEngine::new(index_spec.clone(), cfg.incremental_threshold, cfg.pipeline_depth)
        };
        engine.set_rows(cfg.row_format);
        // Snapshot persistence / warm start: the loader thread spawned
        // here overlaps round-0 matcher + committee training below, so a
        // warm run's snapshot reads are off the critical path entirely.
        engine.set_snapshot(cfg.snapshot_dir.clone(), cfg.warm_start, cfg.tplm.d_model);
        let cand_cap = cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
        let k = if cfg.abt_buy_like { cfg.k.max(20) } else { cfg.k };

        let mut oracle = Oracle::new(data);
        let mut labeled: Vec<LabeledPair> = data.seed_labeled(cfg.seed_pos, cfg.seed_neg, cfg.seed);
        let test_keys = data.test_keys();

        // PairedFixed: candidates from the pre-trained embeddings, computed
        // once.
        let fixed_cand: Option<CandidateSet> = match cfg.blocking {
            BlockingStrategy::PairedFixed => {
                let snap = self.pretrained.as_ref().unwrap().clone();
                self.store.restore(&snap);
                let er = encode_list(&self.model, &self.store, &data.r, &self.vocab);
                let es = encode_list(&self.model, &self.store, &data.s, &self.vocab);
                Some(index_single(&er, &es, k, cand_cap, &index_spec))
            }
            BlockingStrategy::Rules => Some(CandidateSet::from_pairs(
                rule_pairs.expect("Rules strategy requires rule_pairs"),
            )),
            _ => None,
        };

        let mut rounds = Vec::with_capacity(cfg.rounds);
        for round in 0..cfg.rounds {
            // (1) Reset to pre-trained weights.
            let snap = self.pretrained.as_ref().unwrap();
            self.store.restore(snap);

            // (2) Train the matcher.
            let t0 = Instant::now();
            self.matcher.train(
                &mut self.store,
                &self.model,
                &self.vocab,
                &data.r,
                &data.s,
                &labeled,
                &cfg,
                round,
            );
            let train_matcher = t0.elapsed().as_secs_f64();

            // (3) Blocking.
            let mut train_committee = 0.0;
            let t_block = Instant::now();
            let cand = match cfg.blocking {
                BlockingStrategy::PairedFixed | BlockingStrategy::Rules => {
                    fixed_cand.clone().unwrap()
                }
                BlockingStrategy::PairedAdapt => {
                    let er = encode_list(&self.model, &self.store, &data.r, &self.vocab);
                    let es = encode_list(&self.model, &self.store, &data.s, &self.vocab);
                    engine.retrieve_single(&er, &es, k, cand_cap)
                }
                // SentenceBERT blocking is DIAL's committee pass with a
                // different training recipe (classification objective on
                // the labeled negatives); everything else — encode,
                // reinit, frozen-trunk training, embed, retrieve — is
                // the same pipeline.
                BlockingStrategy::SentenceBert => {
                    let sbert_cfg = DialConfig {
                        objective: BlockerObjective::Classification,
                        negatives: NegativeSource::Labeled,
                        ..cfg.clone()
                    };
                    self.committee_round(
                        &mut engine,
                        data,
                        &labeled,
                        &sbert_cfg,
                        round,
                        k,
                        cand_cap,
                        &mut train_committee,
                    )
                }
                BlockingStrategy::Dial => self.committee_round(
                    &mut engine,
                    data,
                    &labeled,
                    &cfg,
                    round,
                    k,
                    cand_cap,
                    &mut train_committee,
                ),
            };
            let indexing_retrieval = t_block.elapsed().as_secs_f64() - train_committee;
            let (index_build, index_probe, incremental_members) = match cfg.blocking {
                BlockingStrategy::PairedFixed | BlockingStrategy::Rules => (0.0, 0.0, 0),
                _ => {
                    let st = engine.last_round();
                    (st.build_secs, st.probe_secs, st.incremental_members)
                }
            };

            // (4) Matcher probabilities over the candidate set (drives both
            // evaluation and selection).
            let t_match = Instant::now();
            let pairs: Vec<(&Record, &Record)> =
                cand.pairs().iter().map(|c| (data.r.get(c.r), data.s.get(c.s))).collect();
            let (probs, packed_feats) =
                self.matcher.score_batch(&self.store, &self.model, &self.vocab, &pairs);
            let matching_time = t_match.elapsed().as_secs_f64();

            let cand_keys = cand.key_set();
            let predicted: HashSet<(u32, u32)> = cand
                .pairs()
                .iter()
                .zip(&probs)
                .filter(|(_, &p)| p > 0.5)
                .map(|(c, _)| (c.r, c.s))
                .collect();

            // Test-set prediction: in cand AND matcher-positive. Every such
            // pair was scored above, so `predicted` already holds the answer.
            let test_preds: HashSet<(u32, u32)> =
                data.test.iter().map(|p| p.key()).filter(|k| predicted.contains(k)).collect();

            let metrics = RoundMetrics {
                round,
                labels_used: labeled.len(),
                blocker_recall: blocker_recall(data, &cand_keys),
                cand_size: cand.len(),
                test: test_prf(&data.test, &test_preds),
                all_pairs: all_pairs_prf(data, &predicted),
                timings: RoundTimings {
                    train_matcher,
                    train_committee,
                    indexing_retrieval,
                    selection: 0.0,
                    find_dups: train_committee + indexing_retrieval + matching_time,
                    index_build,
                    index_probe,
                    incremental_members,
                    overlap_ratio: 0.0,
                },
            };
            rounds.push(metrics);

            // (5) Select and label (skipped after the final round).
            if round + 1 < cfg.rounds {
                let t_sel = Instant::now();
                let mut excluded: HashSet<(u32, u32)> = test_keys.clone();
                excluded.extend(labeled.iter().map(|p| p.key()));
                // Only BADGE and QBC read features, and only QBC the
                // labeled pairs' (one more scoring pass): the other
                // selectors get empty slices.
                let width = self.matcher.feature_width(&self.store);
                let rows = |packed: &[f32]| -> Vec<Vec<f32>> {
                    packed.chunks_exact(width).map(<[f32]>::to_vec).collect()
                };
                let feats =
                    if reads_feats(cfg.selection) { rows(&packed_feats) } else { Vec::new() };
                let labeled_feats: Vec<(Vec<f32>, bool)> = if reads_labeled_feats(cfg.selection) {
                    let pairs: Vec<(&Record, &Record)> =
                        labeled.iter().map(|p| (data.r.get(p.r), data.s.get(p.s))).collect();
                    let (_, packed) =
                        self.matcher.score_batch(&self.store, &self.model, &self.vocab, &pairs);
                    rows(&packed).into_iter().zip(labeled.iter().map(|p| p.label)).collect()
                } else {
                    Vec::new()
                };
                let inputs = SelectionInputs {
                    cands: cand.pairs(),
                    probs: &probs,
                    feats: &feats,
                    labeled_feats: &labeled_feats,
                    excluded: &excluded,
                    budget: cfg.budget,
                };
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e1e ^ (round as u64) << 16);
                let picked = select(cfg.selection, &inputs, &mut rng);
                let timings = &mut rounds.last_mut().unwrap().timings;
                timings.selection = t_sel.elapsed().as_secs_f64();
                // Cross-round overlap won: background snapshot work
                // (round-0 loads rode behind training, saves behind this
                // selection stage) relative to the foreground stage it
                // hid behind. Joining here — not earlier — is what keeps
                // the saver off the critical path.
                let bg = engine.take_background_secs();
                if bg > 0.0 && timings.selection > 0.0 {
                    timings.overlap_ratio = (bg / timings.selection).min(1.0);
                }
                labeled.extend(oracle.label_batch(&picked));
            }
        }
        RunResult {
            rounds,
            tuning: engine.last_tuning().cloned(),
            shard_stats: engine.shard_stats(),
        }
    }

    /// One committee blocking pass — the shared body of the DIAL and
    /// SentenceBERT arms, which differ only in the training-config delta
    /// (`blocker_cfg`): encode both lists with the current trunk,
    /// re-initialize the committee, train it on frozen-trunk embeddings,
    /// embed both lists per member, and run Index-By-Committee through
    /// the persistent retrieval `engine`. Committee-training seconds
    /// land in `train_committee`.
    #[allow(clippy::too_many_arguments)]
    fn committee_round(
        &mut self,
        engine: &mut RetrievalEngine,
        data: &EmDataset,
        labeled: &[LabeledPair],
        blocker_cfg: &DialConfig,
        round: usize,
        k: usize,
        cand_cap: usize,
        train_committee: &mut f64,
    ) -> CandidateSet {
        let er = encode_list(&self.model, &self.store, &data.r, &self.vocab);
        let es = encode_list(&self.model, &self.store, &data.s, &self.vocab);
        let t1 = Instant::now();
        self.committee.reinit(&mut self.store, self.config.seed ^ (round as u64) << 8);
        self.model.set_trunk_frozen(&mut self.store, true);
        self.committee.train(&mut self.store, &er, &es, labeled, blocker_cfg, round);
        self.model.set_trunk_frozen(&mut self.store, false);
        *train_committee = t1.elapsed().as_secs_f64();
        let vr = self.committee.embed_list(&self.store, &er);
        let vs = self.committee.embed_list(&self.store, &es);
        engine.retrieve_committee(&vr, &vs, self.config.tplm.d_model, k, cand_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_datasets::{Benchmark, ScaleProfile};

    fn smoke_run(blocking: BlockingStrategy) -> RunResult {
        let data = Benchmark::AbtBuy.generate(ScaleProfile::Smoke, 1);
        let cfg = DialConfig { blocking, ..DialConfig::smoke() };
        let mut sys = DialSystem::new(cfg);
        let rules = data
            .stats()
            .name
            .starts_with("Abt")
            .then(|| dial_datasets::rule_candidates(&data, dial_datasets::RuleKind::Product));
        sys.run(&data, rules.as_deref())
    }

    #[test]
    fn dial_smoke_run_completes_with_sane_metrics() {
        let result = smoke_run(BlockingStrategy::Dial);
        assert_eq!(result.rounds.len(), 2);
        for m in &result.rounds {
            assert!((0.0..=1.0).contains(&m.blocker_recall));
            assert!((0.0..=1.0).contains(&m.all_pairs.f1));
            assert!(m.cand_size > 0);
        }
        // Labels grow between rounds.
        assert!(result.rounds[1].labels_used > result.rounds[0].labels_used);
    }

    #[test]
    fn all_blocking_strategies_complete() {
        for b in [
            BlockingStrategy::PairedFixed,
            BlockingStrategy::PairedAdapt,
            BlockingStrategy::SentenceBert,
            BlockingStrategy::Rules,
        ] {
            let r = smoke_run(b);
            assert_eq!(r.rounds.len(), 2, "{b:?} wrong round count");
        }
    }

    #[test]
    fn paired_fixed_recall_constant_across_rounds() {
        let r = smoke_run(BlockingStrategy::PairedFixed);
        assert_eq!(r.rounds[0].blocker_recall, r.rounds[1].blocker_recall);
    }

    #[test]
    fn auto_tuned_run_records_calibration() {
        use crate::config::IndexBackend;
        let data = Benchmark::AbtBuy.generate(ScaleProfile::Smoke, 1);
        let cfg = DialConfig {
            auto_tune: true,
            index_backend: IndexBackend::IvfFlat { nlist: 8, nprobe: 1 },
            tune_sample: 64,
            ..DialConfig::smoke()
        };
        let mut sys = DialSystem::new(cfg);
        let result = sys.run(&data, None);
        let t = result.tuning.as_ref().expect("an IVF run under --auto-tune must calibrate");
        assert!(t.chosen_recall >= t.static_recall, "{t:?}");
        assert!(t.chosen_width >= 1 && t.chosen_width <= t.ceiling);
        assert!(!t.steps.is_empty());
        // The untuned run keeps no record.
        let data2 = Benchmark::AbtBuy.generate(ScaleProfile::Smoke, 1);
        let mut plain = DialSystem::new(DialConfig::smoke());
        assert!(plain.run(&data2, None).tuning.is_none());
    }

    #[test]
    fn timings_are_recorded() {
        let r = smoke_run(BlockingStrategy::Dial);
        let t = &r.rounds[0].timings;
        assert!(t.train_matcher > 0.0);
        assert!(t.train_committee > 0.0);
        assert!(t.find_dups > 0.0);
        assert!(r.rounds[0].timings.selection > 0.0, "non-final round must time selection");
    }

    #[test]
    fn warm_started_run_follows_the_cold_trajectory_exactly() {
        // A run that saved snapshots, then a second identical run warm-
        // started from them: every round's recall, F1, candidate count,
        // and label count must be bitwise the cold run's — warm start
        // changes when indexing work happens, never what is retrieved.
        let dir = std::env::temp_dir().join(format!("dial_al_snap_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let data = Benchmark::AbtBuy.generate(ScaleProfile::Smoke, 1);
        let run = |snapshot_dir: Option<std::path::PathBuf>, warm_start: bool| {
            let cfg = DialConfig { snapshot_dir, warm_start, ..DialConfig::smoke() };
            DialSystem::new(cfg).run(&data, None)
        };
        let cold = run(Some(dir.clone()), false);
        assert!(dir.join("member-0.snap").exists(), "round-0 members must be persisted");
        let warm = run(Some(dir.clone()), true);
        let plain = run(None, false);
        let key = |r: &RunResult| {
            r.rounds
                .iter()
                .map(|m| {
                    (
                        m.labels_used,
                        m.cand_size,
                        m.blocker_recall.to_bits(),
                        m.test.f1.to_bits(),
                        m.all_pairs.f1.to_bits(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&warm), key(&cold), "warm start must not change the trajectory");
        assert_eq!(key(&plain), key(&cold), "snapshot saving must not change the trajectory");
        // The warm run skipped round-0 rebuilds: its first round took the
        // incremental path for every member, and the snapshot I/O it did
        // do is accounted to the overlap ratio.
        assert_eq!(
            warm.rounds[0].timings.incremental_members,
            DialConfig::smoke().committee,
            "warm start must refresh, not rebuild, in round 0"
        );
        assert!(warm.rounds[0].timings.overlap_ratio > 0.0);
        assert!(warm.rounds[0].timings.overlap_ratio <= 1.0);
        assert_eq!(plain.rounds[0].timings.overlap_ratio, 0.0, "no snapshots, no overlap");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
