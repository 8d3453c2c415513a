//! `serve_unique` and `serve_zipf`: `QueryService` (default config plus a
//! 50 ms deadline) over a 20 000 x 64 `FlatIndex`, k = 10, driven from
//! one process by one generator thread and one collector thread.
//!
//! Both run the same three phases, splitting the measurement 6 : 12 : 3:
//!
//! * `sat` — closed loop, 256 tickets outstanding: what the service can
//!   answer per second;
//! * `open` — open loop at the fixed `RATE_MID`: latency from each
//!   request's **due time** to `ServeResponse::finished_ns`, read on the
//!   one clock the service was built with; percentiles per half-second
//!   window, median over windows. Requests this sparse are dispatched one
//!   by one, a 0.3 ms scan each, so the rate keeps that path at about a
//!   third of what it can take: nearer to its limit, waiting time — and
//!   p90 with it — swings with every change in scan time;
//! * `over` — open loop at the fixed `RATE_OVER` (about 1.3 of
//!   saturation): reported, not gated — it sheds and rejects by design.
//!
//! Rates are constants, never calibrated per run, so two runs are
//! offered the same load. Schedule, query pool and key order are a
//! function of the seed and fixed before the clock starts.
//!
//! `serve_unique` cycles 8192 distinct queries through the default
//! 4096-entry cache: no hit, no duplicate in flight — scan-bound.
//! `serve_zipf` draws 4096 queries zipf(1.0) — cache-bound — and twice
//! during `open` installs a pre-built index of identical content, so
//! reads run while the index is replaced and the cache is invalidated.
//!
//! Every response is compared bit for bit with a direct
//! `FlatIndex::search` computed beforehand.

use super::{finish, finish_trace, flat_index, hits_equal, set_up, Ctx};
use crate::gen::{self, KeyOrder};
use crate::report::{Report, Tally};
use crate::stats::{median, percentile, window_median_us, windows, FAILED_NS};
use crate::trace::{Clock, Tracer};
use dial_ann::{AnnIndex, Hit};
use dial_core::cache::key_hash;
use dial_core::{
    CacheLookup, QueryService, ResultCache, ServeConfig, ServeError, ServeResponse, ServeStats,
    Ticket,
};
use std::hint::black_box;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIM: usize = 64;
const K: usize = 10;
/// Open-loop rate of phase `open`, requests per second.
pub const RATE_MID: f64 = 1_000.0;
/// Open-loop rate of phase `over`, requests per second.
pub const RATE_OVER: f64 = 16_000.0;
/// Tickets outstanding in phase `sat`.
const OUTSTANDING: usize = 256;
/// The service's default deadline, which phase `over` runs under.
const DEADLINE: Duration = Duration::from_millis(50);
/// The deadline requests of the gated phases carry. This box stalls a
/// vCPU for 50 to 200 ms now and then; with the default deadline such a
/// stall sheds whatever is queued, and a shed request is a failed
/// operation. Here it is a slow one: it shows in p99 and max.
const GATED_DEADLINE: Duration = Duration::from_secs(2);
const WINDOW_NS: u64 = 500_000_000;
/// Keys generated for a closed-loop phase, which wraps around them; a
/// multiple of both pool sizes, so a cycle wraps seamlessly.
const CLOSED_KEYS: usize = 1 << 18;

struct Variant {
    name: &'static str,
    pool: usize,
    order: KeyOrder,
    /// Index installs during phase `open`.
    swaps: usize,
    /// The open-phase percentiles `primary_ms` and `secondary_ms` hold.
    /// A cache hit costs one worker wake-up, which reads 40 or 80 us from
    /// run to run on this box. Where four requests in five are hits, the
    /// gated figures are the miss path's: p90 is its median, p95 its
    /// upper quartile.
    gated: (f64, f64),
}

const UNIQUE: Variant = Variant {
    name: "serve_unique",
    pool: 8192,
    order: KeyOrder::Cycle,
    swaps: 0,
    gated: (50.0, 90.0),
};
const ZIPF: Variant = Variant {
    name: "serve_zipf",
    pool: 4096,
    order: KeyOrder::Zipf,
    swaps: 2,
    gated: (90.0, 95.0),
};

pub fn run_unique(ctx: &Ctx) -> Report {
    run(ctx, &UNIQUE)
}

pub fn run_zipf(ctx: &Ctx) -> Report {
    run(ctx, &ZIPF)
}

struct Inputs {
    rows: Vec<f32>,
    pool: Vec<Arc<[f32]>>,
    /// `truth[key]`: a direct scan for pool query `key`.
    truth: Vec<Vec<Hit>>,
    /// Indexes of identical content, built ahead for the hot swaps.
    spares: Vec<Box<dyn AnnIndex>>,
}

fn inputs(n: usize, pool: usize, seed: u64, spares: usize) -> Inputs {
    let (rows, pool) = gen::corpus_and_pool(n, pool, DIM, seed);
    // One direct scan per pool query, taken in blocks: `search_batch`
    // equals mapping `search` by the `AnnIndex` contract and costs a
    // third of it.
    let packed: Vec<f32> = pool.iter().flat_map(|q| q.iter().copied()).collect();
    let truth = flat_index(&rows, DIM).search_batch(&packed, K);
    let spares =
        (0..spares).map(|_| Box::new(flat_index(&rows, DIM)) as Box<dyn AnnIndex>).collect();
    Inputs { rows, pool, truth, spares }
}

/// One request on its way from the generator to the collector.
struct Sent {
    key: u32,
    /// When the request was due (open loop) or sent (closed loop).
    due_ns: u64,
    /// Clock readings around `submit`, taken only when tracing.
    submit: Option<(u64, u64)>,
    outcome: Result<Ticket, ServeError>,
}

/// What the collector saw of one phase.
#[derive(Default)]
struct Collected {
    tally: Tally,
    /// `(due_ns, latency_ns)`; a failed request carries `FAILED_NS`.
    samples: Vec<(u64, u64)>,
    /// `finished_ns - admitted_ns` of answered requests.
    service_ns: Vec<u64>,
    answered: u64,
    shed: u64,
    rejected: u64,
}

/// Account for one resolved request; the latency it is charged with.
pub fn account(
    c_tally: &mut Tally,
    key: u32,
    due_ns: u64,
    resolved: Result<ServeResponse, ServeError>,
    truth: &[Vec<Hit>],
) -> u64 {
    match resolved {
        Ok(resp) if hits_equal(&resp.hits, &truth[key as usize]) => {
            c_tally.ok();
            resp.finished_ns.saturating_sub(due_ns)
        }
        Ok(_) => {
            c_tally.wrong(|| format!("key {key}: served hits differ from a direct search"));
            FAILED_NS
        }
        Err(e) => {
            c_tally.fail(|| format!("key {key}: {e}"));
            FAILED_NS
        }
    }
}

/// Wait on every ticket in the order sent. One request in `span_every`
/// leaves spans: the closed loop answers hundreds of thousands a second.
fn collect(
    rx: mpsc::Receiver<Sent>,
    truth: &[Vec<Hit>],
    mut tr: Tracer,
    span_every: usize,
) -> (Collected, Tracer) {
    let mut c = Collected::default();
    for (id, sent) in rx.into_iter().enumerate() {
        let resolved = sent.outcome.and_then(Ticket::wait);
        match &resolved {
            Ok(resp) => {
                c.answered += 1;
                c.service_ns.push(resp.finished_ns.saturating_sub(resp.admitted_ns));
                if let Some((s0, s1)) = sent.submit.filter(|_| id.is_multiple_of(span_every)) {
                    let req = tr.record(
                        "core.serve.request",
                        id as u64,
                        sent.due_ns,
                        resp.finished_ns,
                        None,
                    );
                    tr.record("loadgen.lag", id as u64, sent.due_ns, s0, req);
                    tr.record("core.serve.submit", id as u64, s0, s1, req);
                    tr.record(
                        "core.serve.queue_and_scan",
                        id as u64,
                        resp.admitted_ns,
                        resp.finished_ns,
                        req,
                    );
                }
            }
            Err(ServeError::Overloaded) => c.rejected += 1,
            Err(ServeError::DeadlineExceeded { .. }) => c.shed += 1,
            Err(_) => {}
        }
        let lat = account(&mut c.tally, sent.key, sent.due_ns, resolved, truth);
        c.samples.push((sent.due_ns, lat));
    }
    (c, tr)
}

/// What the generator saw of one phase.
#[derive(Default)]
struct Generated {
    start_ns: u64,
    sent: u64,
    /// How late each request left, against its due time.
    lag_ns: Vec<u64>,
    submit_ns: Vec<u64>,
    /// `(when, seconds)` of each `install_index`.
    installs: Vec<(u64, f64)>,
    /// `(when, hits, served)` samples of the service counters.
    hit_timeline: Vec<(u64, u64, u64)>,
}

struct Phase {
    gen: Generated,
    col: Collected,
    stats: ServeStats,
    wall_s: f64,
}

fn stats_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    ServeStats {
        submitted: after.submitted - before.submitted,
        rejected: after.rejected - before.rejected,
        shed: after.shed - before.shed,
        served: after.served - before.served,
        batches: after.batches - before.batches,
        scanned: after.scanned - before.scanned,
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        coalesced: after.coalesced - before.coalesced,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        ..ServeStats::default()
    }
}

/// The service's own counters over a drained phase must close, and agree
/// with what the collector counted.
pub fn check_closure(
    tally: &mut Tally,
    phase: &str,
    stats: &ServeStats,
    sent: u64,
    col: (u64, u64, u64),
) {
    let (answered, shed, rejected) = col;
    let agrees = stats.submitted == sent
        && stats.served == answered
        && stats.shed == shed
        && stats.rejected == rejected;
    if stats.accounting_closes() && agrees {
        tally.ok();
    } else {
        tally.fail(|| {
            format!(
                "phase {phase}: ServeStats do not close: {stats:?} against sent {sent}, answered \
                 {answered}, shed {shed}, rejected {rejected}"
            )
        });
    }
}

enum Load<'a> {
    /// Send as fast as `OUTSTANDING` tickets in flight allow.
    Closed { seconds: f64 },
    /// Send request `i` when `schedule[i]` falls due, whatever came back.
    Open { schedule: &'a [u64], swaps: Vec<(u64, Box<dyn AnnIndex>)>, deadline: Option<Duration> },
}

/// Drive one phase: this thread generates, a second one collects.
fn phase(
    svc: &QueryService,
    clock: Clock,
    inp: &Inputs,
    keys: &[u32],
    load: Load<'_>,
    tracing: bool,
    tracer: &mut Tracer,
) -> Phase {
    let before = svc.stats();
    let (mut gen, col, spans) = std::thread::scope(|scope| {
        let mut g = Generated { start_ns: clock.now_ns(), ..Generated::default() };
        let col_tracer = Tracer::new(tracing, clock);
        let truth = &inp.truth;
        let (deadline, sample_hits) = match &load {
            Load::Closed { .. } => (Some(GATED_DEADLINE), false),
            Load::Open { deadline, swaps, .. } => (*deadline, !swaps.is_empty()),
        };
        let submit = |g: &mut Generated, i: usize, due_ns: u64, now: u64| -> Sent {
            let key = keys[i % keys.len()];
            let outcome = svc.submit(inp.pool[key as usize].clone(), K, deadline);
            let submit = tracing.then(|| (now, clock.now_ns()));
            if let Some((s0, s1)) = submit {
                g.submit_ns.push(s1 - s0);
                // Only a phase that swaps the index has a refill to time.
                if sample_hits && i.is_multiple_of(64) {
                    let s = svc.stats();
                    g.hit_timeline.push((s1, s.hits, s.served));
                }
            }
            g.sent += 1;
            Sent { key, due_ns, submit, outcome }
        };
        // One bounded channel serves both loops: in the closed loop its
        // capacity is the tickets outstanding, and `send` blocks on it;
        // in the open loop it holds the whole schedule and never blocks.
        let (capacity, span_every) = match &load {
            Load::Closed { .. } => (OUTSTANDING, 64),
            Load::Open { schedule, .. } => (schedule.len().max(1), 1),
        };
        let (tx, rx) = mpsc::sync_channel::<Sent>(capacity);
        let collector = scope.spawn(move || collect(rx, truth, col_tracer, span_every));
        match load {
            Load::Closed { seconds } => {
                let end_ns = g.start_ns + (seconds * 1e9) as u64;
                for i in 0.. {
                    let now = clock.now_ns();
                    if now >= end_ns || tx.send(submit(&mut g, i, now, now)).is_err() {
                        break;
                    }
                }
            }
            Load::Open { schedule, mut swaps, .. } => {
                swaps.reverse();
                for (i, &offset) in schedule.iter().enumerate() {
                    let due_ns = g.start_ns + offset;
                    // Wait out the schedule, never the server: sleep the
                    // bulk of a long gap, spin the rest.
                    let now = loop {
                        let now = clock.now_ns();
                        if now >= due_ns {
                            break now;
                        }
                        let left = due_ns - now;
                        if left > 200_000 {
                            std::thread::sleep(Duration::from_nanos(left - 150_000));
                        } else {
                            std::hint::spin_loop();
                        }
                    };
                    if swaps.last().is_some_and(|(at, _)| g.start_ns + at <= now) {
                        let (_, index) = swaps.pop().expect("checked non-empty");
                        let t = Instant::now();
                        svc.install_index(index).expect("same dimension as the served index");
                        g.installs.push((now, t.elapsed().as_secs_f64()));
                    }
                    g.lag_ns.push(now - due_ns);
                    if tx.send(submit(&mut g, i, due_ns, now)).is_err() {
                        break;
                    }
                }
            }
        }
        drop(tx);
        let (col, spans) = collector.join().expect("collector thread");
        (g, col, spans)
    });
    tracer.absorb(spans);
    gen.lag_ns.sort_unstable();
    let stats = stats_delta(&svc.stats(), &before);
    // The collector has waited on every ticket: the phase is drained.
    let wall_s = (clock.now_ns() - gen.start_ns) as f64 / 1e9;
    Phase { gen, col, stats, wall_s }
}

/// The three phases of one pass.
struct Pass {
    sat: Phase,
    open: Phase,
    over: Phase,
    open_secs: f64,
}

impl Pass {
    /// Correct responses per second in phase `sat`: the median over
    /// quarter-second windows of the responses that finished in each.
    fn sat_qps(&self) -> f64 {
        const QUARTER_NS: u64 = 250_000_000;
        let finished: Vec<(u64, u64)> = self
            .sat
            .col
            .samples
            .iter()
            .filter(|(_, lat)| *lat != FAILED_NS)
            .map(|&(due, lat)| (due + lat, lat))
            .collect();
        let count = ((self.sat.wall_s * 1e9) as u64 / QUARTER_NS).max(1) as usize;
        let per: Vec<f64> = windows(&finished, self.sat.gen.start_ns, QUARTER_NS, count)
            .iter()
            .map(|w| w.sorted_ns.len() as f64 * 1e9 / QUARTER_NS as f64)
            .collect();
        median(&per)
    }

    fn open_windows(&self) -> Vec<crate::stats::Window> {
        let count = (self.open_secs * 1e9 / WINDOW_NS as f64).floor().max(1.0) as usize;
        windows(&self.open.col.samples, self.open.gen.start_ns, WINDOW_NS, count)
    }
}

#[allow(clippy::too_many_arguments)]
fn pass(
    svc: &QueryService,
    clock: Clock,
    inp: &mut Inputs,
    variant: &Variant,
    seed: u64,
    seconds: f64,
    tracing: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    pass_ix: u64,
    sent: &mut u64,
) -> Pass {
    let (sat_secs, open_secs, over_secs) =
        (seconds * 6.0 / 21.0, seconds * 12.0 / 21.0, seconds * 3.0 / 21.0);
    let open_sched = gen::schedule(RATE_MID, open_secs);
    let over_sched = gen::schedule(RATE_OVER, over_secs);
    let keys = |count: usize, stream: u64, sent: u64| {
        gen::keys(variant.order, variant.pool, count.max(1), seed, stream + (pass_ix << 12), sent)
    };
    let swaps: Vec<(u64, Box<dyn AnnIndex>)> = (1..=variant.swaps)
        .map(|i| {
            let at = (open_secs * 1e9 * i as f64 / (variant.swaps + 1) as f64) as u64;
            (at, inp.spares.pop().expect("a spare index per swap, built in set-up"))
        })
        .collect();
    let inp = &*inp;

    let sat = phase(
        svc,
        clock,
        inp,
        &keys(CLOSED_KEYS, 0x5A7, *sent),
        Load::Closed { seconds: sat_secs },
        tracing,
        tracer,
    );
    *sent += sat.gen.sent;
    let open_load = Load::Open { schedule: &open_sched, swaps, deadline: Some(GATED_DEADLINE) };
    let open =
        phase(svc, clock, inp, &keys(open_sched.len(), 0x09E, *sent), open_load, tracing, tracer);
    *sent += open.gen.sent;
    let over_load = Load::Open { schedule: &over_sched, swaps: Vec::new(), deadline: None };
    let over =
        phase(svc, clock, inp, &keys(over_sched.len(), 0x0FE, *sent), over_load, tracing, tracer);
    *sent += over.gen.sent;
    for (name, p) in [("sat", &sat), ("open", &open), ("over", &over)] {
        check_closure(
            tally,
            name,
            &p.stats,
            p.gen.sent,
            (p.col.answered, p.col.shed, p.col.rejected),
        );
    }
    // `sat` and `open` are gated: nothing may fail in them. `over` is
    // offered more than the service can take; only a wrong answer counts.
    tally.merge(sat.col.tally.clone());
    tally.merge(open.col.tally.clone());
    for _ in 0..over.col.tally.wrong {
        tally.wrong(|| "phase over: served hits differ from a direct search".into());
    }
    Pass { sat, open, over, open_secs }
}

fn run(ctx: &Ctx, variant: &Variant) -> Report {
    let mut report = Report::new(variant.name, ctx.seed, ctx.seconds, ctx.trace);
    let n = ctx.sized(20_000, 2_000);
    let pool = variant.pool;
    let clock = Clock::start();
    let mut setup_samples = Vec::new();
    // Set-up: corpus, pool, the exact answer of every pool query, the
    // index, its spares and the service.
    let (mut inp, svc) = set_up(&mut setup_samples, || {
        let passes = if ctx.trace { 2 } else { 1 };
        let inp = inputs(n, pool, ctx.seed, variant.swaps * passes);
        let cfg = ServeConfig { default_deadline: Some(DEADLINE), ..ServeConfig::default() };
        let svc =
            QueryService::with_clock(Box::new(flat_index(&inp.rows, DIM)), cfg, Arc::new(clock));
        (inp, svc)
    });

    // Let the worker, the executor threads and the allocator settle
    // before anything is timed.
    let mut off = Tracer::new(false, clock);
    let warm = gen::keys(variant.order, pool, CLOSED_KEYS, ctx.seed, 0x3A2, 0);
    let warmed = phase(
        &svc,
        clock,
        &inp,
        &warm,
        Load::Closed { seconds: 0.5_f64.min(ctx.seconds / 20.0) },
        false,
        &mut off,
    );
    let mut sent = warmed.gen.sent;
    report.tally.merge(warmed.col.tally);

    let seconds = if ctx.trace { ctx.seconds / 2.0 } else { ctx.seconds };
    let base = pass(
        &svc,
        clock,
        &mut inp,
        variant,
        ctx.seed,
        seconds,
        false,
        &mut off,
        &mut report.tally,
        0,
        &mut sent,
    );
    let w = base.open_windows();
    let ((p50, n50), (p90, _)) = (window_median_us(&w, 50.0), window_median_us(&w, 90.0));
    let primary = window_median_us(&w, variant.gated.0).0;
    let secondary = window_median_us(&w, variant.gated.1).0;
    report.set("primary_ms", primary / 1e3);
    report.set("secondary_ms", secondary / 1e3);
    report.set("rate_per_s", base.sat_qps());
    let hit_rate = base.open.stats.hits as f64 / base.open.stats.served.max(1) as f64;
    report.note(format!(
        "sat: {:.0} correct/s over {:.2} s ({} sent); open at {RATE_MID}/s: p50 {p50:.1} us, p90 {p90:.1} us \
         over {} windows of >= {n50} samples, hit rate {hit_rate:.4}, generator p99 lag {:.1} us",
        base.sat_qps(),
        base.sat.wall_s,
        base.sat.gen.sent,
        w.len(),
        percentile(&base.open.gen.lag_ns, 99.0).unwrap_or(0) as f64 / 1e3,
    ));
    let o = &base.over.col;
    report.note(format!(
        "over at {RATE_OVER}/s: {} sent, {} answered, {} shed, {} rejected",
        base.over.gen.sent, o.answered, o.shed, o.rejected
    ));

    if ctx.trace {
        let mut tracer = Tracer::new(true, clock);
        let traced = pass(
            &svc,
            clock,
            &mut inp,
            variant,
            ctx.seed,
            seconds,
            true,
            &mut tracer,
            &mut report.tally,
            1,
            &mut sent,
        );
        // On the open-loop latency: the closed loop's rate over a phase
        // this short moves by more than any tracing cost.
        let traced_primary = window_median_us(&traced.open_windows(), variant.gated.0).0;
        report.set("trace_overhead_pct", (traced_primary - primary) / primary * 100.0);
        report.note(tracer.cost_note(seconds));
        layer_metrics(&mut report, &traced);
        micro_probes(&mut report, &inp);
        finish_trace(&mut report, &tracer, ctx);
    }
    svc.shutdown();
    finish(&mut report, &setup_samples);
    report
}

fn layer_metrics(report: &mut Report, p: &Pass) {
    let w = p.open_windows();
    report.set("core.serve.sat_qps", p.sat_qps());
    report.set("core.serve.lat_p50_us", window_median_us(&w, 50.0).0);
    report.set("core.serve.lat_p90_us", window_median_us(&w, 90.0).0);
    report.set("core.serve.lat_p99_us", window_median_us(&w, 99.0).0);
    report.set("core.serve.lat_max_us", window_median_us(&w, 100.0).0);
    for (phase, s) in [("sat", &p.sat.stats), ("open", &p.open.stats)] {
        let mut set =
            |name: &str, v: u64| report.set(&format!("core.serve.{phase}.{name}"), v as f64);
        set("submitted", s.submitted);
        set("served", s.served);
        set("shed", s.shed);
        set("rejected", s.rejected);
        set("scanned", s.scanned);
        set("hits", s.hits);
        set("coalesced", s.coalesced);
        set("batches", s.batches);
        set("evictions", s.evictions);
        set("invalidations", s.invalidations);
    }
    let sat = &p.sat.stats;
    report.set("core.serve.batch_mean", sat.scanned as f64 / sat.batches.max(1) as f64);
    let mut submit: Vec<u64> = p.open.gen.submit_ns.clone();
    submit.sort_unstable();
    report.set("core.serve.submit_ns", percentile(&submit, 50.0).unwrap_or(0) as f64);
    let mut service = p.open.col.service_ns.clone();
    service.sort_unstable();
    report.set("core.serve.service_p50_us", percentile(&service, 50.0).unwrap_or(0) as f64 / 1e3);
    report.set(
        "core.serve.gen_lag_p99_us",
        percentile(&p.open.gen.lag_ns, 99.0).unwrap_or(0) as f64 / 1e3,
    );

    let over = &p.over.col;
    let good = over.samples.iter().filter(|(_, lat)| *lat <= DEADLINE.as_nanos() as u64).count();
    report.set("core.serve.over_good_share", good as f64 / over.samples.len().max(1) as f64);
    report.set("core.serve.over_shed", over.shed as f64);
    report.set("core.serve.over_rejected", over.rejected as f64);

    let open = &p.open.stats;
    report.set("core.cache.hit_rate", open.hits as f64 / open.served.max(1) as f64);
    let installs = &p.open.gen.installs;
    if !installs.is_empty() {
        report.set(
            "core.serve.install_us",
            median(&installs.iter().map(|(_, s)| s * 1e6).collect::<Vec<_>>()),
        );
        // From each install to the first counter sample after which more
        // than half of the newly served requests were cache hits.
        let refills: Vec<f64> = installs
            .iter()
            .filter_map(|&(at, _)| {
                p.open.gen.hit_timeline.windows(2).find_map(|pair| {
                    let ((t0, h0, s0), (t1, h1, s1)) = (pair[0], pair[1]);
                    (t0 >= at && s1 > s0 && (h1 - h0) * 2 > (s1 - s0))
                        .then(|| (t1 - at) as f64 / 1e6)
                })
            })
            .collect();
        if !refills.is_empty() {
            report.set("core.serve.refill_ms", median(&refills));
        }
    }
}

/// Direct calls into `core.cache` and `ann.flat`.
fn micro_probes(report: &mut Report, inp: &Inputs) {
    let pool = &inp.pool[..inp.pool.len().min(1024)];
    let per = |t: Instant| t.elapsed().as_nanos() as f64 / pool.len() as f64;
    let t = Instant::now();
    for q in pool {
        black_box(key_hash(black_box(q), K));
    }
    report.set("core.cache.key_hash_ns", per(t));
    let cache = ResultCache::new(4096, 16 << 20);
    let t = Instant::now();
    for (q, hits) in pool.iter().zip(&inp.truth) {
        black_box(cache.insert(q.clone(), K, 0, hits.clone()));
    }
    report.set("core.cache.insert_ns", per(t));
    let t = Instant::now();
    let mut found = 0;
    for q in pool {
        found += matches!(cache.lookup(q, K, 0), CacheLookup::Hit(_)) as usize;
    }
    report.set("core.cache.lookup_ns", per(t));
    if found != pool.len() {
        report
            .tally
            .fail(|| format!("ResultCache found {found} of {} entries just inserted", pool.len()));
    }

    let index = flat_index(&inp.rows, DIM);
    let mut us = Vec::new();
    for (q, want) in pool.iter().zip(&inp.truth).take(256) {
        let t = Instant::now();
        let got = index.search(q, K);
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if !hits_equal(&got, want) {
            report.tally.wrong(|| "two direct searches of one query differ".into());
        }
    }
    report.set("ann.flat.search_us", median(&us));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(hits: Vec<Hit>) -> ServeResponse {
        ServeResponse { hits, admitted_ns: 1_000, finished_ns: 9_000 }
    }

    #[test]
    fn a_flipped_bit_an_overload_and_a_shed_each_fail_the_request() {
        let truth = vec![vec![Hit { id: 4, distance: 0.125 }, Hit { id: 8, distance: 0.5 }]];
        let mut tally = Tally::default();
        let lat = account(&mut tally, 0, 500, Ok(response(truth[0].clone())), &truth);
        assert_eq!(lat, 8_500, "latency runs from the due time, not from admission");
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut flipped = truth[0].clone();
        flipped[0].distance = f32::from_bits(flipped[0].distance.to_bits() ^ 1);
        assert_eq!(account(&mut tally, 0, 500, Ok(response(flipped)), &truth), FAILED_NS);
        assert_eq!((tally.failed, tally.wrong), (1, 1));

        assert_eq!(account(&mut tally, 0, 500, Err(ServeError::Overloaded), &truth), FAILED_NS);
        let shed = ServeError::DeadlineExceeded { waited_ns: 60_000_000 };
        assert_eq!(account(&mut tally, 0, 500, Err(shed), &truth), FAILED_NS);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (4, 3, 1));

        let mut report = Report::new("serve_unique", 0, 1.0, false);
        report.tally = tally;
        assert!(report.tally.fail_share() > 0.5);
        assert_ne!(report.exit_code(), 0);
    }

    #[test]
    fn serve_stats_must_close_and_agree_with_the_collector() {
        let closed = ServeStats {
            submitted: 100,
            served: 90,
            shed: 6,
            rejected: 4,
            scanned: 50,
            hits: 30,
            coalesced: 10,
            ..ServeStats::default()
        };
        let mut tally = Tally::default();
        check_closure(&mut tally, "open", &closed, 100, (90, 6, 4));
        assert_eq!(tally.failed, 0);
        // A ticket that never resolved.
        check_closure(&mut tally, "open", &ServeStats { served: 89, ..closed }, 100, (89, 6, 4));
        assert_eq!(tally.failed, 1);
        // A served request nobody paid for.
        check_closure(&mut tally, "open", &ServeStats { scanned: 49, ..closed }, 100, (90, 6, 4));
        assert_eq!(tally.failed, 2);
        // Counters that close but disagree with what came back.
        check_closure(&mut tally, "open", &closed, 100, (88, 8, 4));
        assert_eq!(tally.failed, 3);
    }

    #[test]
    fn both_variants_serve_a_small_corpus_correctly() {
        let clock = Clock::start();
        for variant in [&UNIQUE, &ZIPF] {
            let variant = &Variant { pool: 256, ..*variant };
            let mut inp = inputs(1_000, variant.pool, 11, variant.swaps);
            // A cache far smaller than the pool, as in the measured run.
            let cfg = ServeConfig {
                default_deadline: Some(DEADLINE),
                cache_entries: 64,
                ..ServeConfig::default()
            };
            let svc = QueryService::with_clock(
                Box::new(flat_index(&inp.rows, DIM)),
                cfg,
                Arc::new(clock),
            );
            let mut tracer = Tracer::new(true, clock);
            let mut tally = Tally::default();
            let p = pass(
                &svc,
                clock,
                &mut inp,
                variant,
                11,
                0.7,
                true,
                &mut tracer,
                &mut tally,
                0,
                &mut 0,
            );
            assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
            assert!(p.sat_qps() > 0.0);
            assert_eq!(p.open.gen.sent as usize, gen::schedule(RATE_MID, 0.7 * 12.0 / 21.0).len());
            assert_eq!(p.open.gen.installs.len(), variant.swaps);
            let hit_rate = p.open.stats.hits as f64 / p.open.stats.served as f64;
            match variant.order {
                KeyOrder::Cycle => assert_eq!(p.open.stats.hits, 0),
                KeyOrder::Zipf => assert!(hit_rate > 0.3, "zipf hit rate {hit_rate}"),
            }
            assert!(tracer.spans().iter().any(|s| s.name == "core.serve.queue_and_scan"));
            svc.shutdown();
        }
    }
}
