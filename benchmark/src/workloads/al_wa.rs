//! `al_wa`: one DIAL active-learning run on a Walmart-Amazon-shaped
//! dataset — the paper's cost unit (Table 9 per-operation seconds,
//! Table 2 RT).
//!
//! Sized so that two runs fit one 15-second measurement: half of
//! `ScaleProfile::Bench` (|R| = 160, |S| = 1200, so 3600 candidates a
//! round) and `DialConfig::default()` with `rounds = 2` and half the
//! matcher epochs (20). Matcher training stays ~55 % of the run and
//! scoring ~42 %, as at full Bench scale.
//!
//! The untraced run times `DialSystem::run`. The traced run unrolls the
//! same loop here from the layers' public functions, with a span around
//! each call, and must reproduce `DialSystem::run`'s trajectory bit for
//! bit — which is what licenses attributing its spans to the round.

use super::{finish, finish_trace, set_up, Ctx};
use crate::report::{Report, Tally};
use crate::stats::median;
use crate::trace::{Clock, Tracer};
use dial_core::{
    all_pairs_prf, blocker_recall, encode_list, select, test_prf, Committee, DialConfig,
    DialSystem, Matcher, Oracle, RetrievalEngine, RunResult, SelectionInputs,
};
use dial_datasets::{
    generate_product, Benchmark, EmDataset, LabeledPair, NoiseProfile, ProductConfig, ScaleProfile,
};
use dial_tensor::{Graph, Matrix, ParamStore, Snapshot};
use dial_text::{paired_mode_ids, TokenId, Vocab};
use dial_tplm::{pretrain_sgns, PretrainConfig, Tplm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// What must repeat exactly: per round, labels used, candidate count and
/// the bits of blocker recall, test F1 and all-pairs F1.
pub type Trajectory = Vec<(usize, usize, u64, u64, u64)>;

fn trajectory(result: &RunResult) -> Trajectory {
    result
        .rounds
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
        .collect()
}

fn dataset_and_config(ctx: &Ctx) -> (EmDataset, DialConfig) {
    if ctx.scale < 1.0 {
        let data = Benchmark::WalmartAmazon.generate(ScaleProfile::Smoke, ctx.seed);
        return (data, DialConfig { seed: ctx.seed, ..DialConfig::smoke() });
    }
    // `Benchmark::WalmartAmazon` at half of `ScaleProfile::Bench`.
    let data = generate_product(&ProductConfig {
        name: "Walmart-Amazon".into(),
        r_size: 160,
        s_size: 1200,
        n_dup_entities: 70,
        m2m_frac: 0.05,
        test_size: 128,
        r_noise: NoiseProfile::MILD,
        s_noise: NoiseProfile::MODERATE,
        price_jitter: 0.05,
        family_size: 3,
        sibling_fill_frac: 0.35,
        textual: false,
        seed: ctx.seed,
    });
    (data, DialConfig { rounds: 2, matcher_epochs: 20, seed: ctx.seed, ..DialConfig::default() })
}

/// Compare a run's trajectory with the reference; each differing round
/// is a wrong answer.
pub fn check_trajectory(tally: &mut Tally, what: &str, got: &Trajectory, want: &Trajectory) {
    if got.len() != want.len() {
        tally.wrong(|| format!("{what}: {} rounds, reference has {}", got.len(), want.len()));
        return;
    }
    for (round, (g, w)) in got.iter().zip(want).enumerate() {
        if g == w {
            tally.ok();
        } else {
            tally.wrong(|| format!("{what}: round {round} diverged: {g:?} != {w:?}"));
        }
    }
}

/// What any healthy run satisfies, whatever the seed.
fn check_sanity(tally: &mut Tally, cfg: &DialConfig, data: &EmDataset, result: &RunResult) {
    let cap = cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
    for m in &result.rounds {
        let labels = cfg.seed_pos + cfg.seed_neg + m.round * cfg.budget;
        let healthy = m.labels_used == labels
            && m.cand_size > 0
            && m.cand_size <= cap
            && m.blocker_recall > 0.0
            && m.blocker_recall <= 1.0
            && (0.0..=1.0).contains(&m.all_pairs.f1);
        if healthy {
            tally.ok();
        } else {
            tally.wrong(|| format!("round {} unhealthy: {m:?}", m.round));
        }
    }
    if result.rounds.len() != cfg.rounds {
        tally.wrong(|| format!("{} rounds ran, {} configured", result.rounds.len(), cfg.rounds));
    }
}

struct Timed {
    round_s: f64,
    find_dups_s: f64,
    pairs_per_s: f64,
    result: RunResult,
}

fn timed_run(sys: &mut DialSystem, data: &EmDataset) -> Timed {
    let t = Instant::now();
    let result = sys.run(data, None);
    let wall = t.elapsed().as_secs_f64();
    let scored: usize = result.rounds.iter().map(|m| m.cand_size).sum();
    let matching: f64 = result
        .rounds
        .iter()
        .map(|m| m.timings.find_dups - m.timings.train_committee - m.timings.indexing_retrieval)
        .sum();
    Timed {
        round_s: wall / result.rounds.len() as f64,
        find_dups_s: result.rounds.iter().map(|m| m.timings.find_dups).sum::<f64>()
            / result.rounds.len() as f64,
        pairs_per_s: scored as f64 / matching,
        result,
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("al_wa", ctx.seed, ctx.seconds, ctx.trace);
    let mut setup_samples = Vec::new();
    let mut generate_s = 0.0;
    // Everything before the timed run: data generation, parameter
    // registration, pre-training.
    let mut fresh = || {
        let t = Instant::now();
        let (data, cfg) = dataset_and_config(ctx);
        generate_s = t.elapsed().as_secs_f64();
        let mut sys = DialSystem::new(cfg.clone());
        sys.pretrain(&data);
        (data, cfg, sys)
    };
    let (data, cfg, mut sys) = set_up(&mut setup_samples, &mut fresh);

    let started = Instant::now();
    let first = timed_run(&mut sys, &data);
    check_sanity(&mut report.tally, &cfg, &data, &first.result);
    let reference = trajectory(&first.result);
    let mut runs = vec![first];

    if ctx.trace {
        let mut tracer = Tracer::new(true, Clock::start());
        let mut unrolled = Unrolled::new(cfg.clone());
        unrolled.pretrain(&data);
        let t = Instant::now();
        let (got, engine_stats) = unrolled.run(&data, &mut tracer);
        let unrolled_round_s = t.elapsed().as_secs_f64() / cfg.rounds as f64;
        check_trajectory(&mut report.tally, "unrolled traced run", &got, &reference);
        layer_metrics(&mut report, &tracer, &cfg, &data, unrolled_round_s, engine_stats);
        let base = runs[0].round_s;
        report.set("trace_overhead_pct", (unrolled_round_s - base) / base * 100.0);
        report.set("core.al.round_s", base);
        report.set("core.al.find_dups_s", runs[0].find_dups_s);
        report.set("core.al.final_f1", runs[0].result.last().all_pairs.f1);
        report.set("core.al.blocker_recall", runs[0].result.last().blocker_recall);
        report.set("datasets.generate_s", generate_s);
        micro_probes(&mut report, &cfg, &data);
        finish_trace(&mut report, &tracer, ctx);
    } else {
        // Repeat while at least half of another run still fits the
        // measurement; every repeat of one seed must follow the first
        // one's trajectory.
        while started.elapsed().as_secs_f64() + 0.5 * runs[0].round_s * cfg.rounds as f64
            <= ctx.seconds
        {
            let (data, _, mut sys) = fresh();
            let again = timed_run(&mut sys, &data);
            check_trajectory(&mut report.tally, "repeat", &trajectory(&again.result), &reference);
            runs.push(again);
        }
    }

    let col = |f: fn(&Timed) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    report.set("primary_ms", col(|r| r.round_s) * 1e3);
    report.set("secondary_ms", col(|r| r.find_dups_s) * 1e3);
    report.set("rate_per_s", col(|r| r.pairs_per_s));
    let last = runs[0].result.last();
    report.note(format!(
        "{} run(s) of {} rounds; |R| {} |S| {}; final all-pairs F1 {:.4}, blocker recall {:.4}, \
         {} candidates",
        runs.len(),
        cfg.rounds,
        data.r.len(),
        data.s.len(),
        last.all_pairs.f1,
        last.blocker_recall,
        last.cand_size
    ));
    report.note(format!("trajectory {reference:x?}"));
    finish(&mut report, &setup_samples);
    report
}

/// Per-layer numbers of the traced run, read off its spans.
fn layer_metrics(
    report: &mut Report,
    tracer: &Tracer,
    cfg: &DialConfig,
    data: &EmDataset,
    round_s: f64,
    engine: (f64, f64),
) {
    let rounds = cfg.rounds as f64;
    let train_pairs: usize = (0..cfg.rounds)
        .map(|r| (cfg.seed_pos + cfg.seed_neg + r * cfg.budget) * cfg.matcher_epochs)
        .sum();
    let scored = tracer.spans().iter().filter(|s| s.name == "core.matcher.score").count()
        * cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
    let train_s = tracer.total_s("core.matcher.train");
    let score_s = tracer.total_s("core.matcher.score");
    let encode_s = tracer.total_s("core.encode.encode_list");
    report.set("core.matcher.train_s", train_s / rounds);
    report.set("core.matcher.train_pairs_per_s", train_pairs as f64 / train_s);
    report.set("core.matcher.score_s", score_s / rounds);
    report.set("core.matcher.pairs_scored", scored as f64);
    report.set("core.matcher.pairs_per_s", scored as f64 / score_s);
    report.set("core.encode.encode_s", encode_s / rounds);
    report
        .set("core.encode.records_per_s", rounds * (data.r.len() + data.s.len()) as f64 / encode_s);
    report.set("core.blocker.train_s", tracer.total_s("core.blocker.train") / rounds);
    report.set("core.blocker.embed_s", tracer.total_s("core.blocker.embed_list") / rounds);
    report.set("core.select.select_s", tracer.total_s("core.select.select"));
    report.set("core.al.eval_s", tracer.total_s("core.al.eval") / rounds);
    report.set("core.engine.build_s", engine.0 / rounds);
    report.set("core.engine.probe_s", engine.1 / rounds);
    // The stage spans against the wall-clock of the rounds they sit in.
    let stages: f64 = tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_some_and(|p| tracer.spans()[p].name == "core.al.round"))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    report.set("core.al.stage_cover", stages / (round_s * rounds));
    report.note(format!(
        "ANN probe time is {:.4} % of the round",
        engine.1 / rounds / round_s * 100.0
    ));
}

/// Direct calls into `tplm`, `tensor` and `text` at the workload's shapes.
fn micro_probes(report: &mut Report, cfg: &DialConfig, data: &EmDataset) {
    let mut store = ParamStore::new();
    let model = Tplm::new(cfg.tplm, &mut store);
    let matcher = Matcher::new(&mut store, &model);
    let vocab = Vocab::new(cfg.tplm.vocab_size as u32 - Vocab::NUM_SPECIAL);
    let max_len = cfg.tplm.max_len;

    let records = &data.s.records()[..data.s.len().min(64)];
    let t = Instant::now();
    let singles: Vec<Vec<TokenId>> =
        records.iter().map(|r| r.single_mode_ids(&vocab, max_len)).collect();
    report.set("text.ids_us_per_record", t.elapsed().as_secs_f64() * 1e6 / records.len() as f64);

    let tokens: usize = singles.iter().map(Vec::len).sum();
    let t = Instant::now();
    for ids in &singles {
        black_box(model.embed_single(&store, black_box(ids)));
    }
    report.set("tplm.forward_us_per_token", t.elapsed().as_secs_f64() * 1e6 / tokens as f64);

    let pairs: Vec<Vec<TokenId>> = data
        .train_pool
        .iter()
        .take(32)
        .map(|p| paired_mode_ids(data.r.get(p.r), data.s.get(p.s), &vocab, max_len))
        .collect();
    let tokens: usize = pairs.iter().map(Vec::len).sum();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let t = Instant::now();
    for ids in &pairs {
        let mut g = Graph::new();
        let logit = matcher.logit_graph(&mut g, &store, &model, ids, true, &mut rng);
        let loss = g.bce_with_logits(logit, &[1.0]);
        g.backward(loss, &mut store);
    }
    report.set("tplm.train_step_us_per_token", t.elapsed().as_secs_f64() * 1e6 / tokens as f64);

    // The trunk's three matmul shapes at a typical sequence length:
    // [n,d]x[d,d] (q/k/v/o), [n,d]x[d,ff] and [n,ff]x[d_ff,d].
    let (n, d, ff) = (tokens / pairs.len().max(1), cfg.tplm.d_model, cfg.tplm.d_ff);
    let fill = |r: usize, c: usize| {
        Matrix::from_vec(r, c, (0..r * c).map(|i| (i % 17) as f32 * 0.01).collect())
    };
    let shapes = [(fill(n, d), fill(d, d)), (fill(n, d), fill(d, ff)), (fill(n, ff), fill(ff, d))];
    let reps = 2000;
    let mut flops = 0.0;
    let t = Instant::now();
    for _ in 0..reps {
        for (a, b) in &shapes {
            black_box(black_box(a).matmul(black_box(b)));
            flops += 2.0 * (a.rows() * a.cols() * b.cols()) as f64;
        }
    }
    report.set("tensor.matmul_gflops", flops / t.elapsed().as_secs_f64() / 1e9);
}

/// `DialSystem` rebuilt from the layers' public constructors, so that a
/// round can be run call by call.
struct Unrolled {
    cfg: DialConfig,
    store: ParamStore,
    model: Tplm,
    matcher: Matcher,
    committee: Committee,
    vocab: Vocab,
    pretrained: Option<Snapshot>,
}

impl Unrolled {
    /// As `DialSystem::new` for `BlockingStrategy::Dial`.
    fn new(cfg: DialConfig) -> Unrolled {
        cfg.validate();
        let mut store = ParamStore::new();
        let model = Tplm::new(cfg.tplm, &mut store);
        let matcher = Matcher::new(&mut store, &model);
        let committee =
            Committee::new(&mut store, cfg.committee, cfg.tplm.d_model, cfg.mask_p, cfg.seed);
        let vocab = Vocab::new(cfg.tplm.vocab_size as u32 - Vocab::NUM_SPECIAL);
        Unrolled { cfg, store, model, matcher, committee, vocab, pretrained: None }
    }

    /// As `DialSystem::pretrain`.
    fn pretrain(&mut self, data: &EmDataset) {
        if self.cfg.pretrain_epochs > 0 {
            let max_len = self.cfg.tplm.max_len;
            let corpus: Vec<Vec<TokenId>> = data
                .r
                .iter()
                .chain(data.s.iter())
                .map(|rec| rec.single_mode_ids(&self.vocab, max_len))
                .collect();
            pretrain_sgns(
                &mut self.store,
                self.model.token_embedding_param(),
                self.cfg.tplm.vocab_size,
                &corpus,
                PretrainConfig {
                    epochs: self.cfg.pretrain_epochs,
                    seed: self.cfg.seed,
                    ..Default::default()
                },
            );
        }
        self.pretrained = Some(self.store.snapshot());
    }

    /// As `DialSystem::run` for the DIAL strategy without auto-tuning:
    /// the trajectory, and the engine's summed (build, probe) seconds.
    fn run(&mut self, data: &EmDataset, tr: &mut Tracer) -> (Trajectory, (f64, f64)) {
        let cfg = self.cfg.clone();
        let mut engine = RetrievalEngine::new(
            cfg.index_spec_for(data.r.len()),
            cfg.incremental_threshold,
            cfg.pipeline_depth,
        );
        engine.set_rows(cfg.row_format);
        engine.set_snapshot(cfg.snapshot_dir.clone(), cfg.warm_start, cfg.tplm.d_model);
        let cand_cap = cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
        let k = cfg.k;
        let mut oracle = Oracle::new(data);
        let mut labeled: Vec<LabeledPair> = data.seed_labeled(cfg.seed_pos, cfg.seed_neg, cfg.seed);
        let test_keys = data.test_keys();
        let mut out = Trajectory::new();
        let (mut build_s, mut probe_s) = (0.0, 0.0);

        for round in 0..cfg.rounds {
            let id = round as u64;
            let round_span = tr.begin("core.al.round", id);
            self.store.restore(self.pretrained.as_ref().expect("pretrain before run"));

            let (store, model, vocab) = (&mut self.store, &self.model, &self.vocab);
            tr.call("core.matcher.train", id, || {
                self.matcher.train(store, model, vocab, &data.r, &data.s, &labeled, &cfg, round)
            });

            let er = tr
                .call("core.encode.encode_list", id, || encode_list(model, store, &data.r, vocab));
            let es = tr
                .call("core.encode.encode_list", id, || encode_list(model, store, &data.s, vocab));
            tr.call("core.blocker.train", id, || {
                self.committee.reinit(store, cfg.seed ^ ((round as u64) << 8));
                model.set_trunk_frozen(store, true);
                self.committee.train(store, &er, &es, &labeled, &cfg, round);
                model.set_trunk_frozen(store, false);
            });
            let vr =
                tr.call("core.blocker.embed_list", id, || self.committee.embed_list(store, &er));
            let vs =
                tr.call("core.blocker.embed_list", id, || self.committee.embed_list(store, &es));
            let cand = tr.call("core.engine.retrieve_committee", id, || {
                engine.retrieve_committee(&vr, &vs, cfg.tplm.d_model, k, cand_cap)
            });
            build_s += engine.last_round().build_secs;
            probe_s += engine.last_round().probe_secs;

            let store = &self.store;
            let scored: Vec<(f32, Vec<f32>)> = tr.call("core.matcher.score", id, || {
                cand.pairs()
                    .par_iter()
                    .map(|c| {
                        self.matcher.prob_and_feature(
                            store,
                            model,
                            vocab,
                            data.r.get(c.r),
                            data.s.get(c.s),
                        )
                    })
                    .collect()
            });
            let probs: Vec<f32> = scored.iter().map(|(p, _)| *p).collect();
            let feats: Vec<Vec<f32>> = scored.into_iter().map(|(_, f)| f).collect();

            let eval = tr.begin("core.al.eval", id);
            let cand_keys = cand.key_set();
            let predicted: HashSet<(u32, u32)> = cand
                .pairs()
                .iter()
                .zip(&probs)
                .filter(|(_, &p)| p > 0.5)
                .map(|(c, _)| (c.r, c.s))
                .collect();
            let test_preds: HashSet<(u32, u32)> = data
                .test
                .par_iter()
                .filter(|p| cand_keys.contains(&p.key()))
                .map(|p| {
                    (p, self.matcher.prob(store, model, vocab, data.r.get(p.r), data.s.get(p.s)))
                })
                .filter(|(_, prob)| *prob > 0.5)
                .map(|(p, _)| p.key())
                .collect();
            out.push((
                labeled.len(),
                cand.len(),
                blocker_recall(data, &cand_keys).to_bits(),
                test_prf(&data.test, &test_preds).f1.to_bits(),
                all_pairs_prf(data, &predicted).f1.to_bits(),
            ));
            tr.end(eval);

            if round + 1 < cfg.rounds {
                let sel = tr.begin("core.select.select", id);
                let mut excluded: HashSet<(u32, u32)> = test_keys.clone();
                excluded.extend(labeled.iter().map(|p| p.key()));
                let labeled_feats: Vec<(Vec<f32>, bool)> = labeled
                    .par_iter()
                    .map(|p| {
                        let (_, f) = self.matcher.prob_and_feature(
                            store,
                            model,
                            vocab,
                            data.r.get(p.r),
                            data.s.get(p.s),
                        );
                        (f, p.label)
                    })
                    .collect();
                let inputs = SelectionInputs {
                    cands: cand.pairs(),
                    probs: &probs,
                    feats: &feats,
                    labeled_feats: &labeled_feats,
                    excluded: &excluded,
                    budget: cfg.budget,
                };
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e1e ^ ((round as u64) << 16));
                let picked = select(cfg.selection, &inputs, &mut rng);
                tr.end(sel);
                engine.take_background_secs();
                labeled
                    .extend(tr.call("core.oracle.label_batch", id, || oracle.label_batch(&picked)));
            }
            tr.end(round_span);
        }
        (out, (build_s, probe_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_diverging_trajectory_is_a_wrong_answer() {
        let want: Trajectory = vec![(16, 100, 1, 2, 3), (24, 100, 4, 5, 6)];
        let mut tally = Tally::default();
        check_trajectory(&mut tally, "repeat", &want.clone(), &want);
        assert_eq!((tally.attempted, tally.failed), (2, 0));

        let mut got = want.clone();
        got[1].4 ^= 1; // one bit of the last round's F1
        check_trajectory(&mut tally, "repeat", &got, &want);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (4, 1, 1));
        assert!(tally.fail_share() > 0.0);
        assert!(tally.reasons[0].contains("round 1 diverged"));

        let mut tally = Tally::default();
        check_trajectory(&mut tally, "repeat", &want[..1].to_vec(), &want);
        assert_eq!(tally.wrong, 1, "a missing round is a divergence");

        let mut report = Report::new("al_wa", 0, 1.0, false);
        report.tally = tally;
        assert_ne!(report.exit_code(), 0);
    }

    #[test]
    fn the_unrolled_run_follows_dial_system_bit_for_bit() {
        let ctx =
            Ctx { seed: 5, seconds: 1.0, trace: true, out_dir: std::env::temp_dir(), scale: 0.1 };
        let (data, cfg) = dataset_and_config(&ctx);
        let mut sys = DialSystem::new(cfg.clone());
        let reference = trajectory(&sys.run(&data, None));
        let mut unrolled = Unrolled::new(cfg.clone());
        unrolled.pretrain(&data);
        let mut tracer = Tracer::new(true, Clock::start());
        let (got, _) = unrolled.run(&data, &mut tracer);
        assert_eq!(got, reference);
        assert_eq!(tracer.spans().iter().filter(|s| s.name == "core.al.round").count(), cfg.rounds);
    }
}
