//! `ibc_scale`: Index-By-Committee alone. Three synthetic committee
//! views of |R| = |S| = 10 000 rows, dim 64, k = 3, candidate cap 3·|S|,
//! retrieved through `RetrievalEngine::with_tuning` on spec `ivf:128,8`
//! with `incremental_threshold = 0.01` and snapshots to a directory of
//! the run's own. `tplm` is never called.
//!
//! The rounds follow a drift schedule — *cold → unchanged → 1 % of rows
//! rewritten → all rows redrawn* — repeated while the measurement lasts,
//! so that build, calibration, no-op refresh, in-place refresh and
//! rebuild each get rounds of their own.
//!
//! Recall is pinned. Clusters overlap (centres drawn at half the noise's
//! reach) and S rows are noisy copies of R rows, which puts the static
//! `nprobe = 8` at recall ≈ 0.93, so the tuner has to move: it is armed
//! at target 0.98 over 2048 sample probes and lands on 32 (recall
//! ≈ 0.989; 16 reads ≈ 0.966). After every round member 0's index is
//! cloned and probed with 2048 held-out S rows against an exact scan; a
//! round below 0.95 is a failed operation. The gap between 0.98 and 0.95
//! covers the one round that runs on a stale width: the rebuild round
//! probes a retrained quantizer at the width tuned for the old one.

use super::{finish, finish_trace, flat_index, probe_kernels, set_up, Ctx};
use crate::gen::{self, Clustered};
use crate::report::{Report, Tally};
use crate::stats::median;
use crate::trace::{Clock, Tracer};
use dial_ann::{kmeans, AnnIndex, IndexSpec, IvfFlatIndex, IvfParams, Metric, RowFormat};
use dial_core::{recall_at_k, Candidate, CandidateSet, RetrievalEngine, TuneConfig};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const DIM: usize = 64;
const MEMBERS: usize = 3;
const K: usize = 3;
const NLIST: usize = 128;
const STATIC_NPROBE: usize = 8;
const INCREMENTAL_THRESHOLD: f64 = 0.01;
const TUNE_TARGET: f64 = 0.98;
const TUNE_SAMPLE: usize = 2048;
pub const RECALL_FLOOR: f64 = 0.95;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Cold,
    Noop,
    Refresh,
    Rebuild,
}

const SCHEDULE: [Kind; 4] = [Kind::Cold, Kind::Noop, Kind::Refresh, Kind::Rebuild];

/// The two lists as the committee sees them.
struct Views {
    shape: Clustered,
    masks: Vec<Vec<f32>>,
    base_r: Vec<f32>,
    r: Vec<Vec<f32>>,
    s: Vec<Vec<f32>>,
}

impl Views {
    fn new(n: usize, rng: &mut StdRng) -> Views {
        let shape = Clustered::new(DIM, 256, 0.5, 0.5, rng);
        let masks = (0..MEMBERS).map(|_| gen::mask(DIM, rng)).collect();
        let mut v = Views { shape, masks, base_r: Vec::new(), r: Vec::new(), s: Vec::new() };
        v.redraw(n, rng);
        v
    }

    /// Draw every row of both lists afresh: S row `i` is a noisy copy of
    /// an R row, so each probe has a true nearest neighbour.
    fn redraw(&mut self, n: usize, rng: &mut StdRng) {
        self.base_r = self.shape.draw(n, rng);
        let copies: Vec<f32> =
            (0..n).flat_map(|i| self.base_r[(i * 7919 % n) * DIM..][..DIM].to_vec()).collect();
        let base_s = gen::jitter(&copies, 0.2, rng);
        self.r = self.masks.iter().map(|m| gen::masked(&self.base_r, m)).collect();
        self.s = self.masks.iter().map(|m| gen::masked(&base_s, m)).collect();
    }

    /// Move one row in a hundred a little: far below the engine's drift
    /// threshold, so the indexes are refreshed in place.
    fn rewrite_one_percent(&mut self, rng: &mut StdRng) {
        let n = self.base_r.len() / DIM;
        for _ in 0..n / 100 {
            let row = rng.gen_range(0..n) * DIM;
            let moved = gen::jitter(&self.base_r[row..row + DIM], 0.15, rng);
            self.base_r[row..row + DIM].copy_from_slice(&moved);
            for (view, mask) in self.r.iter_mut().zip(&self.masks) {
                view[row..row + DIM].copy_from_slice(&gen::masked(&moved, mask));
            }
        }
    }
}

fn spec(seed: u64) -> IndexSpec {
    IndexSpec::IvfFlat(IvfParams {
        nlist: NLIST,
        nprobe: STATIC_NPROBE,
        seed,
        ..Default::default()
    })
}

fn engine(seed: u64) -> RetrievalEngine {
    RetrievalEngine::with_tuning(
        spec(seed),
        INCREMENTAL_THRESHOLD,
        2,
        TuneConfig { recall_target: TUNE_TARGET, sample: TUNE_SAMPLE, ..TuneConfig::default() },
    )
}

/// A round whose held-out recall is under the floor failed.
pub fn check_recall(tally: &mut Tally, round: usize, recall: f64) {
    if recall >= RECALL_FLOOR {
        tally.ok();
    } else {
        tally
            .fail(|| format!("round {round}: held-out recall {recall:.4} is below {RECALL_FLOOR}"));
    }
}

struct Round {
    kind: Kind,
    retrieve_s: f64,
    recall: f64,
    build_s: f64,
    probe_s: f64,
    incremental: usize,
    rebuilt: usize,
}

#[derive(Default)]
struct Pass {
    rounds: Vec<Round>,
    calibrate_s: Vec<f64>,
    chosen_width: usize,
    static_recall: f64,
}

impl Pass {
    fn kind_s(&self, kind: Kind) -> f64 {
        median(
            &self
                .rounds
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.retrieve_s)
                .collect::<Vec<_>>(),
        )
    }

    /// Mean seconds of a `retrieve_committee` call over the schedule.
    fn retrieve_s(&self) -> f64 {
        SCHEDULE.iter().map(|&k| self.kind_s(k)).sum::<f64>() / SCHEDULE.len() as f64
    }
}

/// Run the schedule for about `seconds`, at least once through.
#[allow(clippy::too_many_arguments)]
fn pass(
    views: &mut Views,
    eng: &mut RetrievalEngine,
    snap_dir: &Path,
    rng: &mut StdRng,
    held_out: usize,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Pass {
    let n = views.base_r.len() / DIM;
    let cap = 3 * n;
    let mut out = Pass::default();
    let started = Instant::now();
    loop {
        let cycle = Instant::now();
        for kind in SCHEDULE {
            let id = out.rounds.len() as u64;
            let round = tr.begin("ibc.round", id);
            match kind {
                Kind::Cold => {
                    eng.reset();
                    eng.set_snapshot(Some(snap_dir.to_path_buf()), false, DIM);
                }
                Kind::Noop => {}
                Kind::Refresh => views.rewrite_one_percent(rng),
                Kind::Rebuild => views.redraw(n, rng),
            }
            let t = Instant::now();
            let cand = tr.call("core.engine.retrieve_committee", id, || {
                eng.retrieve_committee(&views.r, &views.s, DIM, K, cap)
            });
            let retrieve_s = t.elapsed().as_secs_f64();
            // The snapshot writer runs beside the round; it is joined
            // here, off the clock.
            eng.take_background_secs();
            let st = *eng.last_round();
            if kind == Kind::Cold {
                if let Some(t) = eng.last_tuning() {
                    out.calibrate_s.push(t.calibrate_secs);
                    out.chosen_width = t.chosen_width;
                    out.static_recall = t.static_recall;
                }
            }

            let held = &views.s[0][(n - held_out) * DIM..];
            let recall =
                match tr.call("core.engine.clone_member_index", id, || eng.clone_member_index(0)) {
                    Some(ix) => {
                        let truth = tr.call("ann.flat.search_batch", id, || {
                            flat_index(&views.r[0], DIM).search_batch(held, K)
                        });
                        let hits = tr.call("ann.ivf.search_batch", id, || ix.search_batch(held, K));
                        recall_at_k(&hits, &truth, K)
                    }
                    None => 0.0,
                };
            check_recall(tally, out.rounds.len(), recall);
            let in_place = matches!(kind, Kind::Noop | Kind::Refresh);
            let took_its_path = if in_place {
                st.incremental_members == MEMBERS
            } else {
                st.rebuilt_members == MEMBERS
            };
            if took_its_path && !cand.is_empty() && cand.len() <= cap {
                tally.ok();
            } else {
                tally.fail(|| {
                    format!(
                        "round {id} ({kind:?}): {} refreshed, {} rebuilt, {} candidates",
                        st.incremental_members,
                        st.rebuilt_members,
                        cand.len()
                    )
                });
            }
            out.rounds.push(Round {
                kind,
                retrieve_s,
                recall,
                build_s: st.build_secs,
                probe_s: st.probe_secs,
                incremental: st.incremental_members,
                rebuilt: st.rebuilt_members,
            });
            tr.end(round);
        }
        // Another pass through the schedule only if most of it still fits.
        if started.elapsed().as_secs_f64() + 0.5 * cycle.elapsed().as_secs_f64() > seconds {
            return out;
        }
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("ibc_scale", ctx.seed, ctx.seconds, ctx.trace);
    let n = ctx.sized(10_000, 1_000);
    let held_out = TUNE_SAMPLE.min(n / 2);
    let snap_dir = ctx.scratch_dir("ibc");
    let mut rng = gen::rng(ctx.seed, 0x1BC);
    let mut setup_samples = Vec::new();
    let (mut views, mut eng) =
        set_up(&mut setup_samples, || (Views::new(n, &mut rng), engine(ctx.seed)));

    let clock = Clock::start();
    let mut off = Tracer::new(false, clock);
    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let base = pass(
        &mut views,
        &mut eng,
        &snap_dir,
        &mut rng,
        held_out,
        seconds,
        &mut off,
        &mut report.tally,
    );

    report.set("primary_ms", base.retrieve_s() * 1e3);
    report.set("secondary_ms", base.kind_s(Kind::Rebuild) * 1e3);
    report.set("rate_per_s", (n * MEMBERS) as f64 / base.kind_s(Kind::Noop));
    let min_recall = |p: &Pass| p.rounds.iter().map(|r| r.recall).fold(f64::INFINITY, f64::min);
    report.note(format!(
        "{} rounds over {n} x {DIM} rows, {MEMBERS} views; static nprobe {STATIC_NPROBE} reads recall \
         {:.4}, tuner chose {}; min held-out recall {:.4} over {held_out} probes",
        base.rounds.len(),
        base.static_recall,
        base.chosen_width,
        min_recall(&base)
    ));

    if ctx.trace {
        let mut tracer = Tracer::new(true, clock);
        let traced = pass(
            &mut views,
            &mut eng,
            &snap_dir,
            &mut rng,
            held_out,
            seconds,
            &mut tracer,
            &mut report.tally,
        );
        report.set(
            "trace_overhead_pct",
            (traced.retrieve_s() - base.retrieve_s()) / base.retrieve_s() * 100.0,
        );
        let rounds = traced.rounds.len() as f64;
        report.set("core.engine.retrieve_s", traced.retrieve_s());
        report.set("core.engine.ibc_recall", min_recall(&traced).min(min_recall(&base)));
        report.set("core.engine.cold_s", traced.kind_s(Kind::Cold));
        report.set("core.engine.noop_s", traced.kind_s(Kind::Noop));
        report.set("core.engine.refresh_s", traced.kind_s(Kind::Refresh));
        report.set("core.engine.rebuild_s", traced.kind_s(Kind::Rebuild));
        report.set(
            "core.engine.build_s",
            traced.rounds.iter().map(|r| r.build_s).sum::<f64>() / rounds,
        );
        report.set(
            "core.engine.probe_s",
            traced.rounds.iter().map(|r| r.probe_s).sum::<f64>() / rounds,
        );
        report.set("core.engine.calibrate_s", median(&traced.calibrate_s));
        report.set(
            "core.engine.incremental_members",
            traced.rounds.iter().map(|r| r.incremental).sum::<usize>() as f64,
        );
        report.set(
            "core.engine.rebuilt_members",
            traced.rounds.iter().map(|r| r.rebuilt).sum::<usize>() as f64,
        );
        report.set("core.engine.chosen_width", traced.chosen_width as f64);
        micro_probes(&mut report, &views, traced.chosen_width, ctx.seed, &snap_dir, n);
        finish_trace(&mut report, &tracer, ctx);
    }
    drop(eng);
    let _ = std::fs::remove_dir_all(&snap_dir);
    finish(&mut report, &setup_samples);
    report
}

/// Direct calls into `ann` on member 0's view, and the candidate merge.
fn micro_probes(report: &mut Report, views: &Views, width: usize, seed: u64, dir: &Path, n: usize) {
    let rows = &views.r[0];
    let queries = &views.s[0][..TUNE_SAMPLE.min(n) * DIM];
    let nq = queries.len() / DIM;

    let t = Instant::now();
    black_box(kmeans(rows, DIM, NLIST.min(n), 20, &mut gen::rng(seed, 1)));
    report.set("ann.kmeans.train_s", t.elapsed().as_secs_f64());

    let params = IvfParams { nlist: NLIST, nprobe: width.max(1), seed, ..Default::default() };
    let t = Instant::now();
    let mut ivf = IvfFlatIndex::build(rows, DIM, Metric::L2, params);
    report.set("ann.ivf.build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let hits = black_box(ivf.search_batch(queries, K));
    report.set("ann.ivf.probe_ns_per_query", t.elapsed().as_nanos() as f64 / nq as f64);

    let path = dir.join("micro.snap");
    let t = Instant::now();
    let saved = ivf.save_snapshot(&path);
    report.set("ann.snapshot.save_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let loaded = IndexSpec::IvfFlat(params).load_snapshot(&path, DIM, Metric::L2, RowFormat::F32);
    report.set("ann.snapshot.load_s", t.elapsed().as_secs_f64());
    report.set("ann.snapshot.bytes", std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64));
    match (saved, loaded) {
        (Ok(()), Ok(ix)) => {
            let same =
                ix.search_batch(queries, K).iter().zip(&hits).all(|(a, b)| super::hits_equal(a, b));
            if same {
                report.tally.ok();
            } else {
                report
                    .tally
                    .wrong(|| "a loaded snapshot probes differently from the saved index".into());
            }
        }
        (s, l) => {
            report.tally.fail(|| format!("snapshot round trip: save {s:?}, load {:?}", l.err()))
        }
    }

    let changed: Vec<u32> = (0..n as u32).step_by(100).collect();
    let t = Instant::now();
    let applied = ivf.refresh(rows, &changed);
    report.set("ann.ivf.refresh_s", t.elapsed().as_secs_f64());
    if !applied {
        report.tally.fail(|| "IVF declined an in-place refresh of 1 % of its rows".into());
    }

    probe_kernels(report, &queries[..64.min(nq) * DIM], rows, DIM, MEMBERS, K);

    // The engine's merge of every member's scored probes into the capped
    // candidate set, on as many pairs as one round pools.
    let scored: Vec<Candidate> = (0..MEMBERS)
        .flat_map(|_| hits.iter().cycle().take(n).enumerate())
        .flat_map(|(s, list)| {
            list.iter().enumerate().map(move |(rank, h)| Candidate {
                r: h.id,
                s: s as u32,
                distance: h.distance,
                rank: rank as u32,
            })
        })
        .collect();
    let t = Instant::now();
    black_box(CandidateSet::from_scored(scored, 3 * n));
    report.set("core.candidates.from_scored_s", t.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recall_of_094_is_a_failed_round() {
        let mut tally = Tally::default();
        check_recall(&mut tally, 0, 0.95);
        check_recall(&mut tally, 1, 0.989);
        assert_eq!((tally.attempted, tally.failed), (2, 0));
        check_recall(&mut tally, 2, 0.94);
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(tally.fail_share() > 0.0);
        let mut report = Report::new("ibc_scale", 0, 1.0, false);
        report.tally = tally;
        assert_ne!(report.exit_code(), 0);
    }

    #[test]
    fn the_rewrite_stays_under_the_drift_threshold_and_the_redraw_over_it() {
        let mut rng = gen::rng(3, 0);
        let mut v = Views::new(2000, &mut rng);
        let before = v.r[0].clone();
        v.rewrite_one_percent(&mut rng);
        let changed = before.chunks(DIM).zip(v.r[0].chunks(DIM)).filter(|(a, b)| a != b).count();
        assert!((1..=20).contains(&changed), "{changed} rows changed");
        assert_eq!(v.s[0].len(), before.len());
        v.redraw(2000, &mut rng);
        let changed = before.chunks(DIM).zip(v.r[0].chunks(DIM)).filter(|(a, b)| a != b).count();
        assert_eq!(changed, 2000);
    }
}
