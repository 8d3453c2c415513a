//! `shard_probe`: the `ann.sharded` scatter/merge used two ways. One
//! client in a closed loop sends 64-query batches (k = 10) over
//! 20 000 x 64 exact rows, first through `ShardedIndex::build(Flat, 2)`
//! in process, then through the same composite `ship`ped to two
//! `spawn_loopback()` nodes, for half of the measurement each. Every
//! batch is compared bit for bit with `FlatIndex::search_batch`.
//!
//! Nothing here touches `core.serve` or `tplm`.

use super::{finish, finish_trace, flat_index, hits_equal, probe_kernels, set_up, Ctx};
use crate::gen;
use crate::report::{Report, Tally};
use crate::stats::{median, percentile};
use crate::trace::{Clock, Tracer};
use dial_ann::{
    spawn_loopback, FlatIndex, Hit, IndexSpec, Metric, RemoteShard, ShardedIndex, TransportError,
};
use std::time::Instant;

const DIM: usize = 64;
const K: usize = 10;
const BATCH: usize = 64;
const SHARDS: usize = 2;
/// Distinct batches cycled through, so consecutive batches differ.
const POOL: usize = 32;

struct Inputs {
    rows: Vec<f32>,
    batches: Vec<Vec<f32>>,
    truth: Vec<Vec<Vec<Hit>>>,
    flat: FlatIndex,
}

fn inputs(n: usize, seed: u64) -> Inputs {
    let (rows, pool) = gen::corpus_and_pool(n, POOL * BATCH, DIM, seed);
    let batches: Vec<Vec<f32>> =
        pool.chunks(BATCH).map(|b| b.iter().flat_map(|q| q.iter().copied()).collect()).collect();
    let flat = flat_index(&rows, DIM);
    let truth = batches.iter().map(|b| flat.search_batch(b, K)).collect();
    Inputs { rows, batches, truth, flat }
}

/// Check one answered batch against the exact scan.
pub fn check_batch(
    tally: &mut Tally,
    what: &str,
    got: Result<Vec<Vec<Hit>>, TransportError>,
    want: &[Vec<Hit>],
) {
    match got {
        Err(e) => tally.fail(|| format!("{what}: {e}")),
        Ok(lists) => {
            if lists.len() == want.len() && lists.iter().zip(want).all(|(g, w)| hits_equal(g, w)) {
                tally.ok();
            } else {
                tally.wrong(|| format!("{what}: a batch differs from FlatIndex::search_batch"));
            }
        }
    }
}

/// Closed loop, one client: batch after batch for `seconds`; the sorted
/// batch times in ms.
fn closed_loop(
    name: &'static str,
    index: &ShardedIndex,
    inp: &Inputs,
    seconds: f64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Vec<f64> {
    let mut times = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let i = times.len() % inp.batches.len();
        let t = Instant::now();
        let got = tr.call(name, times.len() as u64, || index.try_search_batch(&inp.batches[i], K));
        times.push(t.elapsed().as_secs_f64() * 1e3);
        check_batch(tally, name, got, &inp.truth[i]);
    }
    times.sort_by(f64::total_cmp);
    times
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::new("shard_probe", ctx.seed, ctx.seconds, ctx.trace);
    let n = ctx.sized(20_000, 2_000);
    let mut setup_samples = Vec::new();
    let mut ship_samples = Vec::new();
    // Set-up: inputs, exact answers, both composites, node spawn and
    // ship (the nodes of earlier repeats idle on).
    let (inp, local, remote, addrs) = set_up(&mut setup_samples, || {
        let inp = inputs(n, ctx.seed);
        let local = ShardedIndex::build(&IndexSpec::Flat, SHARDS, &inp.rows, DIM, Metric::L2);
        let addrs: Vec<String> = (0..SHARDS)
            .map(|_| spawn_loopback().expect("bind a loopback shard node").to_string())
            .collect();
        let endpoints: Vec<Vec<String>> = addrs.iter().map(|a| vec![a.clone()]).collect();
        let ship = Instant::now();
        let remote = ShardedIndex::build(&IndexSpec::Flat, SHARDS, &inp.rows, DIM, Metric::L2)
            .ship(&endpoints)
            .expect("ship both shards to their loopback nodes");
        ship_samples.push(ship.elapsed().as_secs_f64());
        (inp, local, remote, addrs)
    });

    let clock = Clock::start();
    let half = if ctx.trace { ctx.seconds / 4.0 } else { ctx.seconds / 2.0 };
    let mut off = Tracer::new(false, clock);
    let local_ms = closed_loop(
        "ann.sharded.local.search_batch",
        &local,
        &inp,
        half,
        &mut off,
        &mut report.tally,
    );
    let remote_ms = closed_loop(
        "ann.sharded.remote.search_batch",
        &remote,
        &inp,
        half,
        &mut off,
        &mut report.tally,
    );
    let (l50, r50) = (median(&local_ms), median(&remote_ms));
    report.set("primary_ms", l50);
    report.set("secondary_ms", r50);
    let answered = (local_ms.len() + remote_ms.len()) * BATCH;
    report.set(
        "rate_per_s",
        answered as f64 / (local_ms.iter().sum::<f64>() + remote_ms.iter().sum::<f64>()) * 1e3,
    );
    report.note(format!(
        "{n} x {DIM} rows, {SHARDS} shards, {BATCH}-query batches, k {K}: local p50 {l50:.3} ms over {} \
         batches, remote p50 {r50:.3} ms over {}",
        local_ms.len(),
        remote_ms.len()
    ));

    if ctx.trace {
        let mut tracer = Tracer::new(true, clock);
        let tl = closed_loop(
            "ann.sharded.local.search_batch",
            &local,
            &inp,
            half,
            &mut tracer,
            &mut report.tally,
        );
        let trm = closed_loop(
            "ann.sharded.remote.search_batch",
            &remote,
            &inp,
            half,
            &mut tracer,
            &mut report.tally,
        );
        report.set("trace_overhead_pct", (median(&tl) - l50) / l50 * 100.0);
        report.set("ann.sharded.local_batch_ms", median(&tl));
        report.set("ann.sharded.remote_batch_ms", median(&trm));
        report.set("ann.sharded.local_batch_p99_ms", percentile(&tl, 99.0).unwrap_or(f64::NAN));
        report.set("ann.transport.remote_vs_local", median(&tl) / median(&trm));
        report.set("ann.transport.ship_s", median(&ship_samples));

        // The same batches through the unsharded index.
        let mut flat_ms = Vec::new();
        for (b, want) in inp.batches.iter().zip(&inp.truth) {
            let t = Instant::now();
            let got = tracer.call("ann.flat.search_batch", 0, || inp.flat.search_batch(b, K));
            flat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            check_batch(&mut report.tally, "ann.flat.search_batch", Ok(got), want);
        }
        report.set("ann.flat.batch_ms", median(&flat_ms));
        report.set("ann.sharded.local_vs_flat", median(&flat_ms) / median(&tl));

        let mut total = local.shard_stats().total();
        let r = remote.shard_stats().total();
        report.set("ann.sharded.probes", (total.probes + r.probes) as f64);
        total.hedges_fired += r.hedges_fired;
        total.failovers += r.failovers;
        total.errors += r.errors;
        report.set("ann.sharded.hedges_fired", total.hedges_fired as f64);
        report.set("ann.sharded.failovers", total.failovers as f64);
        report.set("ann.sharded.errors", total.errors as f64);

        match RemoteShard::connect(addrs[0].as_str()) {
            Ok(node) => {
                let mut rtt = Vec::new();
                for i in 0..200 {
                    let t = Instant::now();
                    let pong = tracer.call("ann.transport.ping", i, || node.ping());
                    rtt.push(t.elapsed().as_secs_f64() * 1e6);
                    if let Err(e) = pong {
                        report.tally.fail(|| format!("ping: {e}"));
                    }
                }
                report.set("ann.transport.rtt_us", median(&rtt));
            }
            Err(e) => report.tally.fail(|| format!("connect {}: {e}", addrs[0])),
        }
        // Computed from the wire format, not measured: per shard one
        // request frame (22 bytes of framing, the packed queries, their
        // length and k) and one response frame (a count, then per query
        // a length and k hits of id + distance bits).
        let request = 22 + 8 + BATCH * DIM * 4 + 8;
        let response = 22 + 8 + BATCH * (8 + K * 8);
        report.set("ann.transport.bytes_per_batch", (SHARDS * (request + response)) as f64);

        probe_kernels(&mut report, &inp.batches[0], &inp.rows, DIM, SHARDS, K);
        finish_trace(&mut report, &tracer, ctx);
    }
    finish(&mut report, &setup_samples);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_or_a_transport_error_fails_the_batch() {
        let want = vec![vec![Hit { id: 1, distance: 0.5 }], vec![Hit { id: 2, distance: 0.75 }]];
        let mut tally = Tally::default();
        check_batch(&mut tally, "local", Ok(want.clone()), &want);
        assert_eq!((tally.attempted, tally.failed), (1, 0));

        let mut flipped = want.clone();
        flipped[1][0].distance = f32::from_bits(flipped[1][0].distance.to_bits() ^ 1);
        check_batch(&mut tally, "local", Ok(flipped), &want);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (2, 1, 1));

        check_batch(&mut tally, "remote", Err(TransportError::Truncated), &want);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (3, 2, 1));
        check_batch(&mut tally, "remote", Ok(want[..1].to_vec()), &want);
        assert_eq!(tally.wrong, 2, "a missing hit list is a wrong answer");

        let mut report = Report::new("shard_probe", 0, 1.0, false);
        report.tally = tally;
        assert!(report.tally.fail_share() > 0.0);
        assert_ne!(report.exit_code(), 0);
    }

    #[test]
    fn sharded_and_shipped_composites_answer_like_the_flat_scan() {
        let inp = inputs(500, 9);
        let local = ShardedIndex::build(&IndexSpec::Flat, SHARDS, &inp.rows, DIM, Metric::L2);
        let mut tally = Tally::default();
        let mut off = Tracer::new(false, Clock::start());
        let times =
            closed_loop("ann.sharded.local.search_batch", &local, &inp, 0.05, &mut off, &mut tally);
        assert!(!times.is_empty());
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.attempted as usize, times.len());
    }
}
