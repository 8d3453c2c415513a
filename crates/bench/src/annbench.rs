//! ANN micro-bench with persisted results.
//!
//! Three sweeps, all written to `REPRO_OUT/BENCH_ann.json` so the perf
//! trajectory is tracked across PRs:
//!
//! * **probe** — ns/query and recall@k of every backend's `search_batch`
//!   against two baselines: the pre-kernel scalar scan
//!   (`FlatIndex::search_batch_scalar`, exact ground truth) and the
//!   blocked flat path with SIMD dispatch forced to the scalar tier
//!   (re-measured in the same run; the `speedup_vs_scalar` denominator,
//!   so the column isolates what runtime dispatch buys). Includes
//!   f16/bf16 compressed-row flat scans next to the f32 one;
//! * **incremental** — one simulated AL re-index round per backend:
//!   [`dial_ann::AnnIndex::refresh`] against the prior round's structure
//!   vs a from-scratch rebuild, at drift 0 and at a perturbed row set,
//!   with exactness checked against the rebuild;
//! * **pipeline** — the committee build/probe overlap: wall-clock of the
//!   [`dial_core::RetrievalEngine`] at `pipeline_depth = 0` (strictly
//!   sequential) vs a pipelined depth, with candidate-set identity
//!   checked;
//! * **snapshot** — versioned on-disk snapshots per backend: save a
//!   trained index, load it back through
//!   [`dial_ann::IndexSpec::load_snapshot`] in the same process, check
//!   the loaded index probes bitwise like the built one, and record the
//!   load-vs-build speedup (the warm-start payoff — file I/O instead of
//!   k-means / graph construction);
//! * **transport** — shard-transport modes head to head: the same
//!   sharded composite probed in-process, over loopback
//!   [`dial_ann::RemoteShard`]s (bitwise parity checked per query), and
//!   with one artificially slowed replica both unhedged and hedged —
//!   the hedged p99 must not exceed the unhedged p99, which is the
//!   whole point of firing hedges.
//!
//! The report records the worker-thread count
//! ([`rayon::current_num_threads`], pinnable via `RAYON_NUM_THREADS`)
//! and the selected SIMD dispatch tier (`dial_ann::simd_label`, forced
//! to `"scalar"` under `DIAL_FORCE_SCALAR`) so numbers are comparable
//! across hosts. Shared by the `ann` criterion
//! bench (`cargo bench -p dial-bench --bench ann`, `--smoke` for the
//! CI-bounded variant) and the `repro bench` subcommand
//! (`REPRO_SCALE=smoke` bounds it the same way).

use crate::report::{json_f64, json_obj, json_str, print_table, ToJson};
use dial_ann::{
    force_scalar, set_force_scalar, simd_label, spawn_loopback, FlatIndex, Hit, HnswParams,
    IndexSpec, IvfParams, Knob, Metric, PqParams, RemoteShard, RowFormat, ShardedIndex,
};
use dial_core::{recall_at_k, IndexBackend, RetrievalEngine, TuneConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// One measured `(backend, shard count)` case.
#[derive(Debug, Clone)]
pub struct AnnBenchRow {
    pub backend: String,
    /// Row storage format the index scanned (`f32`, `f16`, or `bf16`).
    pub rows: String,
    pub shards: usize,
    /// Corpus rows / dimensionality / neighbours per probe.
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub build_ms: f64,
    /// Best-of-reps batch probe time divided by the query count.
    pub ns_per_query: f64,
    /// recall@k against the exact scalar-path ground truth.
    pub recall: f64,
    /// Forced-scalar-dispatch flat `ns/query ÷ this row's ns/query` (the
    /// `flat_scalar_dispatch` row is 1.0 by construction).
    pub speedup_vs_scalar: f64,
}

/// One incremental-maintenance case: `refresh` against the previous
/// round's structure vs a from-scratch rebuild over the same new rows.
#[derive(Debug, Clone)]
pub struct IncrementalRow {
    pub backend: String,
    pub n: usize,
    pub dim: usize,
    /// Rows overwritten / appended by the refresh (both 0 = the drift-0
    /// round: embeddings did not move at all).
    pub changed: usize,
    pub appended: usize,
    pub rebuild_ms: f64,
    pub refresh_ms: f64,
    /// `rebuild_ms / refresh_ms` — the indexing-time reduction of the
    /// incremental round.
    pub speedup: f64,
    /// Refreshed index returns bitwise the same hits as the rebuild.
    pub exact: bool,
}

/// The committee build/probe overlap: sequential vs pipelined retrieval
/// through [`RetrievalEngine`] over the same member views.
#[derive(Debug, Clone)]
pub struct PipelineRow {
    pub members: usize,
    pub n: usize,
    pub dim: usize,
    pub nq: usize,
    pub k: usize,
    /// Wall-clock of the `pipeline_depth = 0` (build-then-probe) path.
    pub sequential_ms: f64,
    /// Wall-clock with member builds overlapping the previous member's
    /// probes (`pipeline_depth = 2`).
    pub pipelined_ms: f64,
    /// `(build_secs + probe_secs) / wall_secs` of the pipelined run —
    /// above 1.0 means build genuinely overlapped probe.
    pub overlap: f64,
    /// Pipelined and sequential candidate sets are identical.
    pub identical: bool,
}

/// One snapshot round-trip case: save a trained index, load it back
/// under the same spec, and compare against paying the build again.
#[derive(Debug, Clone)]
pub struct SnapshotRow {
    pub backend: String,
    /// Row storage format the snapshot preserves (`f32`, `f16`, `bf16`).
    pub rows: String,
    pub n: usize,
    pub dim: usize,
    /// Training cost the snapshot amortizes away.
    pub build_ms: f64,
    /// Serialize + write the versioned container.
    pub save_ms: f64,
    /// Read + validate + reconstruct the index.
    pub load_ms: f64,
    /// On-disk size of the snapshot file.
    pub bytes: u64,
    /// `build_ms / load_ms` — what a warm start saves over a cold build.
    pub speedup: f64,
    /// Loaded index returns bitwise the same hits as the built one.
    pub exact: bool,
}

/// One `(label, nprobe)` point of the auto-tuner comparison: the
/// calibration sweep's steps plus the `static` (untuned heuristic
/// default) and `tuned` (chosen) configurations measured head to head.
#[derive(Debug, Clone)]
pub struct TuningRow {
    /// `step`, `static`, or `tuned`.
    pub case: String,
    pub nprobe: usize,
    pub recall: f64,
    pub ns_per_query: f64,
}

/// The observed-metrics auto-tuner run on a clustered IVF workload: the
/// engine's calibration record plus a head-to-head measurement of the
/// tuned configuration against the static `auto` IVF default.
#[derive(Debug, Clone)]
pub struct TuningReport {
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub sample: usize,
    pub nlist: usize,
    pub shards: usize,
    pub static_nprobe: usize,
    pub chosen_nprobe: usize,
    /// Head-to-head on the full query set (same built index, widths
    /// switched through the knob): the static heuristic's width…
    pub static_recall: f64,
    pub static_ns_per_query: f64,
    /// …and the tuned one.
    pub tuned_recall: f64,
    pub tuned_ns_per_query: f64,
    /// Build cost of the measured index and wall-clock of the whole
    /// calibration stage — the budget `assert_no_regression` bounds.
    pub build_ms: f64,
    pub calibrate_ms: f64,
    pub steps: Vec<TuningRow>,
}

/// One shard-transport mode measured on the same sharded flat corpus:
/// in-process children, loopback `RemoteShard`s, and the hedging
/// comparison with one artificially slowed replica.
#[derive(Debug, Clone)]
pub struct TransportRow {
    /// `local`, `loopback`, `loopback_slow_unhedged`, or
    /// `loopback_slow_hedged`.
    pub mode: String,
    pub shards: usize,
    /// Replicas behind the slowed shard (1 everywhere else).
    pub replicas: usize,
    pub n: usize,
    pub dim: usize,
    pub k: usize,
    pub nq: usize,
    /// Nearest-rank percentiles over per-query `try_search` calls.
    pub p50_us: f64,
    pub p99_us: f64,
    /// Every query returned bitwise the ids and distances of the
    /// in-process composite.
    pub exact: bool,
    pub hedges_fired: u64,
    pub hedges_won: u64,
}

/// The full sweep: probe kernels, incremental rounds, pipeline overlap,
/// the auto-tuner comparison, the shard-transport comparison, plus the
/// worker-thread count they all ran under.
#[derive(Debug, Clone)]
pub struct AnnBenchReport {
    /// `RAYON_NUM_THREADS`-pinnable worker count the sweep ran with.
    pub threads: usize,
    /// SIMD tier the kernel dispatch selected for this run (`"avx2"`,
    /// `"neon"`, or `"scalar"`; `DIAL_FORCE_SCALAR` forces the last).
    pub simd: String,
    pub probe: Vec<AnnBenchRow>,
    pub incremental: Vec<IncrementalRow>,
    pub pipeline: Vec<PipelineRow>,
    pub snapshot: Vec<SnapshotRow>,
    pub tuning: Option<TuningReport>,
    pub transport: Vec<TransportRow>,
}

impl ToJson for AnnBenchRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("backend", json_str(&self.backend)),
            ("rows", json_str(&self.rows)),
            ("shards", self.shards.to_string()),
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("k", self.k.to_string()),
            ("build_ms", json_f64(self.build_ms)),
            ("ns_per_query", json_f64(self.ns_per_query)),
            ("recall", json_f64(self.recall)),
            ("speedup_vs_scalar", json_f64(self.speedup_vs_scalar)),
        ])
    }
}

impl ToJson for IncrementalRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("backend", json_str(&self.backend)),
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("changed", self.changed.to_string()),
            ("appended", self.appended.to_string()),
            ("rebuild_ms", json_f64(self.rebuild_ms)),
            ("refresh_ms", json_f64(self.refresh_ms)),
            ("speedup", json_f64(self.speedup)),
            ("exact", self.exact.to_string()),
        ])
    }
}

impl ToJson for PipelineRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("members", self.members.to_string()),
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("nq", self.nq.to_string()),
            ("k", self.k.to_string()),
            ("sequential_ms", json_f64(self.sequential_ms)),
            ("pipelined_ms", json_f64(self.pipelined_ms)),
            ("overlap", json_f64(self.overlap)),
            ("identical", self.identical.to_string()),
        ])
    }
}

impl ToJson for SnapshotRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("backend", json_str(&self.backend)),
            ("rows", json_str(&self.rows)),
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("build_ms", json_f64(self.build_ms)),
            ("save_ms", json_f64(self.save_ms)),
            ("load_ms", json_f64(self.load_ms)),
            ("bytes", self.bytes.to_string()),
            ("speedup", json_f64(self.speedup)),
            ("exact", self.exact.to_string()),
        ])
    }
}

impl ToJson for TuningRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("case", json_str(&self.case)),
            ("nprobe", self.nprobe.to_string()),
            ("recall", json_f64(self.recall)),
            ("ns_per_query", json_f64(self.ns_per_query)),
        ])
    }
}

impl ToJson for TuningReport {
    fn to_json(&self) -> String {
        let steps: Vec<String> = self.steps.iter().map(ToJson::to_json).collect();
        json_obj(&[
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("k", self.k.to_string()),
            ("sample", self.sample.to_string()),
            ("nlist", self.nlist.to_string()),
            ("shards", self.shards.to_string()),
            ("static_nprobe", self.static_nprobe.to_string()),
            ("chosen_nprobe", self.chosen_nprobe.to_string()),
            ("static_recall", json_f64(self.static_recall)),
            ("static_ns_per_query", json_f64(self.static_ns_per_query)),
            ("tuned_recall", json_f64(self.tuned_recall)),
            ("tuned_ns_per_query", json_f64(self.tuned_ns_per_query)),
            ("build_ms", json_f64(self.build_ms)),
            ("calibrate_ms", json_f64(self.calibrate_ms)),
            ("steps", format!("[{}]", steps.join(","))),
        ])
    }
}

impl ToJson for TransportRow {
    fn to_json(&self) -> String {
        json_obj(&[
            ("mode", json_str(&self.mode)),
            ("shards", self.shards.to_string()),
            ("replicas", self.replicas.to_string()),
            ("n", self.n.to_string()),
            ("dim", self.dim.to_string()),
            ("k", self.k.to_string()),
            ("nq", self.nq.to_string()),
            ("p50_us", json_f64(self.p50_us)),
            ("p99_us", json_f64(self.p99_us)),
            ("exact", self.exact.to_string()),
            ("hedges_fired", self.hedges_fired.to_string()),
            ("hedges_won", self.hedges_won.to_string()),
        ])
    }
}

impl ToJson for AnnBenchReport {
    fn to_json(&self) -> String {
        let arr = |rows: Vec<String>| format!("[\n  {}\n ]", rows.join(",\n  "));
        json_obj(&[
            ("threads", self.threads.to_string()),
            ("simd", json_str(&self.simd)),
            ("probe", arr(self.probe.iter().map(ToJson::to_json).collect())),
            ("incremental", arr(self.incremental.iter().map(ToJson::to_json).collect())),
            ("pipeline", arr(self.pipeline.iter().map(ToJson::to_json).collect())),
            ("snapshot", arr(self.snapshot.iter().map(ToJson::to_json).collect())),
            ("tuning", self.tuning.as_ref().map_or("null".into(), ToJson::to_json)),
            ("transport", arr(self.transport.iter().map(ToJson::to_json).collect())),
        ])
    }
}

fn data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Best-of-`reps` wall-clock nanoseconds for one run of `f` (minimum
/// filters scheduler noise better than the mean on shared runners).
fn time_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let out = f();
        best = best.min(t0.elapsed().as_nanos() as f64);
        last = Some(out);
    }
    (best, last.expect("reps >= 1"))
}

/// Run every sweep. `smoke` bounds corpus size and repetitions for CI.
pub fn run(smoke: bool) -> AnnBenchReport {
    AnnBenchReport {
        threads: rayon::current_num_threads(),
        simd: simd_label().into(),
        probe: run_probe(smoke),
        incremental: run_incremental(smoke),
        pipeline: run_pipeline(smoke),
        snapshot: run_snapshot(smoke),
        tuning: Some(run_tuning(smoke)),
        transport: run_transport(smoke),
    }
}

/// Kernel probe sweep: blocked `search_batch` vs the scalar baselines.
fn run_probe(smoke: bool) -> Vec<AnnBenchRow> {
    // The acceptance workload: 10k × 128-d, k = 10.
    let (n, dim, nq, k, reps) =
        if smoke { (2_000, 64, 64, 10, 3) } else { (10_000, 128, 256, 10, 5) };
    let base = data(n, dim, 1);
    let queries = data(nq, dim, 2);

    let mut flat = FlatIndex::new(dim, Metric::L2);
    flat.add_batch(&base);
    // Pre-kernel scalar scan: exact ground truth (and a historical
    // timing point — no longer the speedup denominator).
    let (oracle_ns, truth) = time_ns(reps, || flat.search_batch_scalar(&queries, k));
    let oracle_nsq = oracle_ns / nq as f64;

    // The `speedup_vs_scalar` denominator: the same blocked flat path
    // with kernel dispatch forced to the scalar tier, re-measured in
    // this run so the column isolates dispatch selection from the
    // blocking. Save/restore so an ambient `DIAL_FORCE_SCALAR` (the CI
    // fallback-exercise run) stays in force for every other row.
    let was_forced = force_scalar();
    set_force_scalar(true);
    let (forced_ns, forced_hits) = time_ns(reps, || flat.search_batch(&queries, k));
    set_force_scalar(was_forced);
    let forced_nsq = forced_ns / nq as f64;

    let mut rows = vec![
        AnnBenchRow {
            backend: "flat_scalar".into(),
            rows: "f32".into(),
            shards: 1,
            n,
            dim,
            k,
            build_ms: 0.0,
            ns_per_query: oracle_nsq,
            recall: 1.0,
            speedup_vs_scalar: forced_nsq / oracle_nsq,
        },
        AnnBenchRow {
            backend: "flat_scalar_dispatch".into(),
            rows: "f32".into(),
            shards: 1,
            n,
            dim,
            k,
            build_ms: 0.0,
            ns_per_query: forced_nsq,
            recall: recall_at_k(&forced_hits, &truth, k),
            speedup_vs_scalar: 1.0,
        },
    ];

    let cases: Vec<(&str, usize, IndexSpec, RowFormat)> = vec![
        ("flat", 1, IndexSpec::Flat, RowFormat::F32),
        ("flat_f16", 1, IndexSpec::Flat, RowFormat::F16),
        ("flat_bf16", 1, IndexSpec::Flat, RowFormat::Bf16),
        (
            "ivf:64,8",
            1,
            IndexSpec::IvfFlat(IvfParams { nlist: 64, nprobe: 8, ..Default::default() }),
            RowFormat::F32,
        ),
        ("pq:8,6", 1, IndexSpec::Pq(PqParams { m: 8, nbits: 6, seed: 0 }), RowFormat::F32),
        ("hnsw:16,48", 1, IndexSpec::Hnsw(HnswParams::default()), RowFormat::F32),
        ("flat", 4, IndexSpec::Flat.sharded(4), RowFormat::F32),
    ];
    for (name, shards, spec, format) in cases {
        let (build_ns, ix) = time_ns(1, || spec.build_rows(&base, dim, Metric::L2, format));
        let (probe_ns, hits) = time_ns(reps, || ix.search_batch(&queries, k));
        let nsq = probe_ns / nq as f64;
        rows.push(AnnBenchRow {
            backend: name.into(),
            rows: format.label().into(),
            shards,
            n,
            dim,
            k,
            build_ms: build_ns / 1e6,
            ns_per_query: nsq,
            recall: recall_at_k(&hits, &truth, k),
            speedup_vs_scalar: forced_nsq / nsq,
        });
    }
    rows
}

/// One simulated AL re-index round per refresh-capable backend:
/// `refresh` against the previous round's structure vs a from-scratch
/// rebuild. Measured at drift 0 (no rows moved — the case the engine's
/// default threshold admits) and, for the exact families, at a perturbed
/// row set with an appended tail.
fn run_incremental(smoke: bool) -> Vec<IncrementalRow> {
    let (n, dim, k) = if smoke { (2_000, 64, 10) } else { (10_000, 128, 10) };
    let base = data(n, dim, 3);
    let queries = data(64, dim, 4);
    let cases: Vec<(&str, IndexSpec)> = vec![
        ("flat", IndexSpec::Flat),
        ("ivf:64,8", IndexSpec::IvfFlat(IvfParams { nlist: 64, nprobe: 8, ..Default::default() })),
        ("flat@4", IndexSpec::Flat.sharded(4)),
    ];
    let mut rows = Vec::new();
    for (name, spec) in cases {
        // Drift = 0: the embeddings did not move; refresh is the cost of
        // discovering there is nothing to do.
        let mut ix = spec.build(&base, dim, Metric::L2);
        let (rebuild_ns, rebuilt) = time_ns(1, || spec.build(&base, dim, Metric::L2));
        let (refresh_ns, handled) = time_ns(1, || ix.refresh(&base, &[]));
        assert!(handled, "{name} must support in-place refresh");
        rows.push(IncrementalRow {
            backend: name.into(),
            n,
            dim,
            changed: 0,
            appended: 0,
            rebuild_ms: rebuild_ns / 1e6,
            refresh_ms: refresh_ns / 1e6,
            speedup: rebuild_ns / refresh_ns.max(1.0),
            exact: ix.search_batch(&queries, k) == rebuilt.search_batch(&queries, k),
        });

        // A real incremental round: 1% of rows drifted, 1% appended.
        let changed_rows: Vec<u32> = (0..(n / 100) as u32).map(|i| i * 97 % n as u32).collect();
        let mut new = base.clone();
        for &r in &changed_rows {
            new[r as usize * dim] += 0.125;
        }
        let appended = n / 100;
        new.extend_from_slice(&data(appended, dim, 5));
        let mut ix = spec.build(&base, dim, Metric::L2);
        let (rebuild_ns, rebuilt) = time_ns(1, || spec.build(&new, dim, Metric::L2));
        let (refresh_ns, _) = time_ns(1, || ix.refresh(&new, &changed_rows));
        rows.push(IncrementalRow {
            backend: name.into(),
            n,
            dim,
            changed: changed_rows.len(),
            appended,
            rebuild_ms: rebuild_ns / 1e6,
            refresh_ms: refresh_ns / 1e6,
            speedup: rebuild_ns / refresh_ns.max(1.0),
            // IVF re-assigns against its stale quantizer, so only the
            // exact families are expected to match the rebuild bitwise.
            exact: ix.search_batch(&queries, k) == rebuilt.search_batch(&queries, k),
        });
    }
    rows
}

/// Clustered corpus + probes for the tuner workload: `n` corpus points
/// and `nq` probes drawn around the *same* `clusters` tight blobs — the
/// shape trained committee embeddings take (list `S` sits near list `R`
/// in embedding space), and the regime where the static
/// `nprobe = nlist/8` guess over-scans: a probe's true neighbours live
/// in the one or two cells covering its own blob.
fn clustered(n: usize, nq: usize, dim: usize, clusters: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..clusters * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let points = |count: usize, rng: &mut StdRng| -> Vec<f32> {
        (0..count)
            .flat_map(|i| {
                let c = i % clusters;
                centers[c * dim..(c + 1) * dim]
                    .iter()
                    .map(|&x| x + rng.gen_range(-0.005f32..0.005))
                    .collect::<Vec<f32>>()
            })
            .collect()
    };
    let base = points(n, &mut rng);
    let queries = points(nq, &mut rng);
    (base, queries)
}

/// The observed-metrics auto-tuner on the acceptance workload: calibrate
/// an IVF index sized exactly as the static `auto` heuristic's IVF arm
/// would size it (`nlist = √n`, `nprobe = nlist/8`), then measure the
/// tuned width head-to-head against that static default on one built
/// index. The choice itself comes from the engine's calibration stage —
/// the same code path `--auto-tune` runs in the AL loop.
fn run_tuning(smoke: bool) -> TuningReport {
    // More blobs than inverted lists: cells then hold whole blobs (a
    // tight blob is never carved up between centroids), so a probe's
    // true neighbours concentrate in its own cell — exactly the regime
    // where the static `nlist/8` width over-scans.
    let (n, dim, nq, k, clusters, reps) =
        if smoke { (2_000, 64, 128, 10, 88, 3) } else { (10_000, 128, 256, 10, 200, 5) };
    let (base, queries) = clustered(n, nq, dim, clusters, 40);

    // The static auto default, mirroring IndexBackend::resolve's IVF arm
    // at this row count.
    let nlist = (n as f64).sqrt() as usize;
    let static_nprobe = (nlist / 8).max(1);
    let shards = IndexBackend::auto_shards(n, rayon::current_num_threads());
    let ivf = IndexSpec::IvfFlat(IvfParams { nlist, nprobe: static_nprobe, ..Default::default() });
    let spec = if shards > 1 { ivf.clone().sharded(shards) } else { ivf };

    // Calibrate through the engine — the exact `--auto-tune` code path.
    let mut engine = RetrievalEngine::with_tuning(
        spec.clone(),
        0.0,
        0,
        TuneConfig { sample: nq, ..TuneConfig::default() },
    );
    engine.retrieve_committee(
        std::slice::from_ref(&base),
        std::slice::from_ref(&queries),
        dim,
        k,
        usize::MAX,
    );
    let outcome = engine.last_tuning().expect("an IVF spec must calibrate").clone();

    // Head-to-head: one built index, widths switched through the knob,
    // recall against the exact flat ground truth.
    let mut flat = FlatIndex::new(dim, Metric::L2);
    flat.add_batch(&base);
    let truth = flat.search_batch(&queries, k);
    let (build_ns, mut ix) = time_ns(1, || spec.build(&base, dim, Metric::L2));
    let mut measure = |nprobe: usize| {
        ix.set_knob(Knob::Nprobe, nprobe);
        let (ns, hits) = time_ns(reps, || ix.search_batch(&queries, k));
        (recall_at_k(&hits, &truth, k), ns / nq as f64)
    };
    let (static_recall, static_nsq) = measure(static_nprobe);
    let (tuned_recall, tuned_nsq) = measure(outcome.chosen_width);

    let mut steps: Vec<TuningRow> = outcome
        .steps
        .iter()
        .map(|s| TuningRow {
            case: "step".into(),
            nprobe: s.width,
            recall: s.recall,
            ns_per_query: s.probe_ns_per_query,
        })
        .collect();
    steps.push(TuningRow {
        case: "static".into(),
        nprobe: static_nprobe,
        recall: static_recall,
        ns_per_query: static_nsq,
    });
    steps.push(TuningRow {
        case: "tuned".into(),
        nprobe: outcome.chosen_width,
        recall: tuned_recall,
        ns_per_query: tuned_nsq,
    });

    TuningReport {
        n,
        dim,
        k,
        sample: outcome.sample,
        nlist: outcome.ceiling,
        shards: outcome.shards,
        static_nprobe,
        chosen_nprobe: outcome.chosen_width,
        static_recall,
        static_ns_per_query: static_nsq,
        tuned_recall,
        tuned_ns_per_query: tuned_nsq,
        build_ms: build_ns / 1e6,
        calibrate_ms: outcome.calibrate_secs * 1e3,
        steps,
    }
}

/// Committee build/probe overlap: a synthetic 3-member committee run
/// through [`RetrievalEngine`] sequentially and pipelined.
fn run_pipeline(smoke: bool) -> Vec<PipelineRow> {
    let (members, n, dim, nq, k) =
        if smoke { (3, 1_500, 64, 256, 10) } else { (3, 8_000, 128, 512, 10) };
    let views_r: Vec<Vec<f32>> = (0..members).map(|m| data(n, dim, 10 + m as u64)).collect();
    let views_s: Vec<Vec<f32>> = (0..members).map(|m| data(nq, dim, 20 + m as u64)).collect();
    let run_once = |depth: usize| {
        let mut engine = RetrievalEngine::new(IndexSpec::Flat, 0.0, depth);
        let cand = engine.retrieve_committee(&views_r, &views_s, dim, k, usize::MAX);
        let st = *engine.last_round();
        (cand, st)
    };
    let (seq_cand, seq_stats) = run_once(0);
    let (pip_cand, pip_stats) = run_once(2);
    vec![PipelineRow {
        members,
        n,
        dim,
        nq,
        k,
        sequential_ms: seq_stats.wall_secs * 1e3,
        pipelined_ms: pip_stats.wall_secs * 1e3,
        overlap: (pip_stats.build_secs + pip_stats.probe_secs) / pip_stats.wall_secs.max(1e-12),
        identical: seq_cand.pairs() == pip_cand.pairs(),
    }]
}

/// Snapshot round-trip per backend: build, save the versioned container,
/// load it back under the same spec, and verify the loaded index probes
/// bitwise like the built one. `speedup` is the warm-start payoff:
/// training cost over file-I/O cost.
fn run_snapshot(smoke: bool) -> Vec<SnapshotRow> {
    let (n, dim, nq, k) = if smoke { (2_000, 64, 64, 10) } else { (10_000, 128, 256, 10) };
    let base = data(n, dim, 6);
    let queries = data(nq, dim, 7);
    let dir = std::env::temp_dir().join(format!("dial_snap_{}", std::process::id()));
    let cases: Vec<(&str, IndexSpec, RowFormat)> = vec![
        ("flat", IndexSpec::Flat, RowFormat::F32),
        ("flat_f16", IndexSpec::Flat, RowFormat::F16),
        (
            "ivf:64,8",
            IndexSpec::IvfFlat(IvfParams { nlist: 64, nprobe: 8, ..Default::default() }),
            RowFormat::F32,
        ),
        ("pq:8,6", IndexSpec::Pq(PqParams { m: 8, nbits: 6, seed: 0 }), RowFormat::F32),
        ("hnsw:16,48", IndexSpec::Hnsw(HnswParams::default()), RowFormat::F32),
        ("flat@4", IndexSpec::Flat.sharded(4), RowFormat::F32),
    ];
    let mut rows = Vec::new();
    for (name, spec, format) in cases {
        let path = dir.join(format!("{}.snap", name.replace([':', ',', '@'], "_")));
        let (build_ns, built) = time_ns(1, || spec.build_rows(&base, dim, Metric::L2, format));
        let (save_ns, saved) = time_ns(1, || built.save_snapshot(&path));
        saved.unwrap_or_else(|e| panic!("{name}: snapshot save failed: {e}"));
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let (load_ns, loaded) = time_ns(1, || spec.load_snapshot(&path, dim, Metric::L2, format));
        let loaded = loaded.unwrap_or_else(|e| panic!("{name}: snapshot load failed: {e}"));
        let _ = std::fs::remove_file(&path);
        rows.push(SnapshotRow {
            backend: name.into(),
            rows: format.label().into(),
            n,
            dim,
            build_ms: build_ns / 1e6,
            save_ms: save_ns / 1e6,
            load_ms: load_ns / 1e6,
            bytes,
            speedup: build_ns / load_ns.max(1.0),
            exact: loaded.search_batch(&queries, k) == built.search_batch(&queries, k),
        });
    }
    let _ = std::fs::remove_dir(&dir);
    rows
}

/// Shard-transport comparison: one round-robin sharded flat corpus
/// probed through each transport mode. `local` keeps the shards
/// in-process (and is the ground truth for every `exact` column);
/// `loopback` ships them to socket-served nodes inside this process;
/// the two `slow` modes give shard 0 a second replica, put an
/// artificial delay on its preferred one, and measure the tail without
/// hedging (a hedge delay far beyond the slowdown, so probes always
/// wait the slow replica out) and with a 100 µs hedge to the fast
/// replica.
fn run_transport(smoke: bool) -> Vec<TransportRow> {
    let (n, dim, nq, k) = if smoke { (2_000, 32, 48, 10) } else { (8_000, 64, 96, 10) };
    let shards = 3usize;
    let base = data(n, dim, 8);
    let queries = data(nq, dim, 9);
    let slow = Duration::from_millis(3);

    let local = ShardedIndex::build(&IndexSpec::Flat, shards, &base, dim, Metric::L2);
    let truth: Vec<Vec<Hit>> = queries.chunks(dim).map(|q| local.search(q, k)).collect();

    // Per-query `try_search` latencies (nearest-rank p50/p99 in µs)
    // plus bitwise parity against the in-process composite.
    let measure = |ix: &ShardedIndex| -> (f64, f64, bool) {
        let mut lat: Vec<u64> = Vec::with_capacity(nq);
        let mut exact = true;
        for (q, want) in queries.chunks(dim).zip(&truth) {
            let t0 = Instant::now();
            let got = ix.try_search(q, k).expect("transport bench probe failed");
            lat.push(t0.elapsed().as_nanos() as u64);
            exact &= got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.id == w.id && g.distance.to_bits() == w.distance.to_bits());
        }
        lat.sort_unstable();
        let pct = |p: usize| lat[(lat.len() * p).div_ceil(100) - 1] as f64 / 1e3;
        (pct(50), pct(99), exact)
    };
    let mut rows: Vec<TransportRow> = Vec::new();
    let mut push = |mode: &str, replicas: usize, ix: &ShardedIndex| {
        let (p50_us, p99_us, exact) = measure(ix);
        let totals = ix.shard_stats().total();
        rows.push(TransportRow {
            mode: mode.into(),
            shards,
            replicas,
            n,
            dim,
            k,
            nq,
            p50_us,
            p99_us,
            exact,
            hedges_fired: totals.hedges_fired,
            hedges_won: totals.hedges_won,
        });
    };
    let nodes = |count: usize| -> Vec<String> {
        (0..count)
            .map(|_| spawn_loopback().expect("bind loopback shard node").to_string())
            .collect()
    };

    push("local", 1, &local);

    let plain_nodes = nodes(shards);
    let plain_endpoints: Vec<Vec<String>> = plain_nodes.iter().map(|a| vec![a.clone()]).collect();
    let loopback = ShardedIndex::build(&IndexSpec::Flat, shards, &base, dim, Metric::L2)
        .ship(&plain_endpoints)
        .expect("ship shards to loopback nodes");
    push("loopback", 1, &loopback);

    // Fresh nodes per slow mode so the artificial delay never leaks:
    // shard 0 = [slow preferred replica, fast replica], rest one node.
    let slow_mode = |hedge: Duration| -> ShardedIndex {
        let addrs = nodes(shards + 1);
        let mut endpoints = vec![vec![addrs[0].clone(), addrs[1].clone()]];
        endpoints.extend(addrs[2..].iter().map(|a| vec![a.clone()]));
        let mut ix = ShardedIndex::build(&IndexSpec::Flat, shards, &base, dim, Metric::L2)
            .ship(&endpoints)
            .expect("ship shards to replicated loopback nodes");
        RemoteShard::connect(&addrs[0])
            .and_then(|r| r.set_artificial_delay(slow))
            .expect("slow down shard 0's preferred replica");
        ix.set_hedge_delay(Some(hedge));
        ix
    };
    push("loopback_slow_unhedged", 2, &slow_mode(Duration::from_secs(5)));
    push("loopback_slow_hedged", 2, &slow_mode(Duration::from_micros(100)));
    rows
}

/// Render the sweeps as fixed-width tables.
pub fn print(report: &AnnBenchReport) {
    let rows = &report.probe;
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                r.rows.clone(),
                r.shards.to_string(),
                format!("{}x{}", r.n, r.dim),
                format!("{:.1}", r.build_ms),
                format!("{:.0}", r.ns_per_query),
                format!("{:.3}", r.recall),
                format!("{:.2}x", r.speedup_vs_scalar),
            ]
        })
        .collect();
    print_table(
        &format!(
            "ANN kernel bench (k = {}, {} threads, simd = {})",
            rows.first().map(|r| r.k).unwrap_or(0),
            report.threads,
            report.simd
        ),
        &["Backend", "Rows", "Shards", "Corpus", "Build(ms)", "ns/query", "Recall@k", "vs scalar"],
        &cells,
    );

    let cells: Vec<Vec<String>> = report
        .incremental
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                format!("{}x{}", r.n, r.dim),
                format!("{}+{}", r.changed, r.appended),
                format!("{:.1}", r.rebuild_ms),
                format!("{:.2}", r.refresh_ms),
                format!("{:.1}x", r.speedup),
                r.exact.to_string(),
            ]
        })
        .collect();
    print_table(
        "Incremental re-index: refresh vs from-scratch rebuild",
        &["Backend", "Corpus", "Changed+App", "Rebuild(ms)", "Refresh(ms)", "Speedup", "Exact"],
        &cells,
    );

    let cells: Vec<Vec<String>> = report
        .pipeline
        .iter()
        .map(|r| {
            vec![
                r.members.to_string(),
                format!("{}x{}", r.n, r.dim),
                format!("{:.1}", r.sequential_ms),
                format!("{:.1}", r.pipelined_ms),
                format!("{:.2}", r.overlap),
                r.identical.to_string(),
            ]
        })
        .collect();
    print_table(
        "Committee pipeline: sequential vs overlapped build/probe",
        &["Members", "Corpus", "Seq(ms)", "Pipelined(ms)", "Overlap", "Identical"],
        &cells,
    );

    let cells: Vec<Vec<String>> = report
        .snapshot
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                r.rows.clone(),
                format!("{}x{}", r.n, r.dim),
                format!("{:.1}", r.build_ms),
                format!("{:.2}", r.save_ms),
                format!("{:.2}", r.load_ms),
                format!("{:.1}", r.bytes as f64 / 1024.0),
                format!("{:.1}x", r.speedup),
                r.exact.to_string(),
            ]
        })
        .collect();
    print_table(
        "Snapshot round-trip: load a trained index vs build it again",
        &[
            "Backend",
            "Rows",
            "Corpus",
            "Build(ms)",
            "Save(ms)",
            "Load(ms)",
            "KiB",
            "Speedup",
            "Exact",
        ],
        &cells,
    );

    if let Some(t) = &report.tuning {
        let cells: Vec<Vec<String>> = t
            .steps
            .iter()
            .map(|r| {
                vec![
                    r.case.clone(),
                    r.nprobe.to_string(),
                    format!("{:.3}", r.recall),
                    format!("{:.0}", r.ns_per_query),
                ]
            })
            .collect();
        print_table(
            &format!(
                "Auto-tuner: nlist={} shards={} on {}x{} (calibration {:.1} ms, chose nprobe {} over static {})",
                t.nlist, t.shards, t.n, t.dim, t.calibrate_ms, t.chosen_nprobe, t.static_nprobe
            ),
            &["Case", "nprobe", "Recall@k", "ns/query"],
            &cells,
        );
    }

    let cells: Vec<Vec<String>> = report
        .transport
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                format!("{}x{}", r.shards, r.replicas),
                format!("{}x{}", r.n, r.dim),
                format!("{:.0}", r.p50_us),
                format!("{:.0}", r.p99_us),
                r.exact.to_string(),
                format!("{}/{}", r.hedges_won, r.hedges_fired),
            ]
        })
        .collect();
    print_table(
        "Shard transport: in-process vs loopback nodes vs hedged slow replica",
        &["Mode", "Shards", "Corpus", "p50(us)", "p99(us)", "Exact", "Hedge won/fired"],
        &cells,
    );
}

/// Persist the report to `REPRO_OUT/BENCH_ann.json` (one JSON object —
/// `threads` + the three row arrays — overwritten each run: the jsonl
/// append convention would mix machines and configs; this file is the
/// *current* profile). The default directory is anchored to the
/// workspace root, not the CWD: `cargo bench` runs bench binaries from
/// the package directory, `repro` runs from wherever it was invoked, and
/// both must land in one place.
pub fn write(report: &AnnBenchReport) {
    let dir = std::env::var("REPRO_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../results").into());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        // Not fatal (the sweep already printed), but say so: the CI
        // artifact step depends on this file existing.
        eprintln!("annbench: cannot create {dir}: {e}");
        return;
    }
    let path = std::path::Path::new(&dir).join("BENCH_ann.json");
    if let Err(e) = std::fs::write(&path, format!("{}\n", report.to_json())) {
        eprintln!("annbench: cannot write {}: {e}", path.display());
    }
}

/// Loud regression guard for the CI smoke job:
///
/// * with a SIMD tier selected, the flat path must not fall behind the
///   forced-scalar-dispatch flat baseline re-measured in the same run,
///   and must stay exact; when dispatch is scalar (no SIMD host, or the
///   `DIAL_FORCE_SCALAR` fallback-exercise run) the two rows run the
///   same code and only scheduler noise separates them, so the floor
///   loosens to 0.8×;
/// * f16 compressed rows must hold recall@k ≥ 0.99 against the exact
///   f32 ground truth (the compression guarantee is *recall*, not
///   ranking identity);
/// * the drift-0 incremental round must not be slower than a full
///   rebuild, and must not lose candidate-set exactness;
/// * the pipelined committee must retrieve exactly what the sequential
///   one does (no wall-clock bound — a 1-core runner cannot overlap);
/// * every snapshot-loaded index must probe bitwise like the one that
///   was saved, and for the train-heavy families (IVF's k-means, HNSW's
///   graph construction) loading must be at least 5x cheaper than
///   building — the warm-start payoff the feature exists for;
/// * every shard-transport mode must return bitwise what the in-process
///   composite returns, and with one artificially slowed replica the
///   hedged p99 must not exceed the unhedged p99 — with hedges actually
///   firing — which is the tail-cutting guarantee hedging exists for.
pub fn assert_no_regression(report: &AnnBenchReport) {
    let rows = &report.probe;
    let flat =
        rows.iter().find(|r| r.backend == "flat" && r.shards == 1).expect("flat row present");
    let floor = if report.simd == "scalar" { 0.8 } else { 1.0 };
    assert!(
        flat.speedup_vs_scalar >= floor,
        "blocked flat search_batch regressed below the scalar-dispatch path (simd = {}):          {:.2}x < {floor}x ({:.0} ns/q)",
        report.simd,
        flat.speedup_vs_scalar,
        flat.ns_per_query,
    );
    assert!(
        (flat.recall - 1.0).abs() < 1e-9,
        "blocked flat retrieval is no longer exact: recall {}",
        flat.recall
    );
    let f16 = rows.iter().find(|r| r.backend == "flat_f16").expect("f16 row present");
    assert!(
        f16.recall >= 0.99,
        "f16 compressed rows fell below the recall floor: recall@{} = {:.4} < 0.99",
        f16.k,
        f16.recall
    );
    if report.simd != "scalar" {
        // With fused half-width kernels the compressed scan touches half
        // the row bytes; it must not run meaningfully slower than the
        // f32 scan (15% headroom for runner noise — the full bench's
        // recorded numbers are the strict comparison).
        assert!(
            f16.ns_per_query <= flat.ns_per_query * 1.15,
            "f16 compressed scan ({:.0} ns/q) fell behind the f32 scan ({:.0} ns/q)",
            f16.ns_per_query,
            flat.ns_per_query
        );
    }
    for r in report.incremental.iter().filter(|r| r.changed == 0 && r.appended == 0) {
        assert!(
            r.refresh_ms <= r.rebuild_ms,
            "{}: drift-0 refresh ({:.2} ms) slower than a full rebuild ({:.2} ms)",
            r.backend,
            r.refresh_ms,
            r.rebuild_ms
        );
        assert!(r.exact, "{}: drift-0 refresh lost candidate-set exactness", r.backend);
    }
    for r in &report.pipeline {
        assert!(r.identical, "pipelined committee diverged from the sequential candidate set");
    }
    for r in &report.snapshot {
        assert!(
            r.exact,
            "{}: snapshot-loaded index no longer probes bitwise like the saved one",
            r.backend
        );
        if r.backend.starts_with("ivf") || r.backend.starts_with("hnsw") {
            assert!(
                r.speedup >= 5.0,
                "{}: snapshot load ({:.2} ms) is not >= 5x cheaper than the build ({:.2} ms): \
                 {:.1}x",
                r.backend,
                r.load_ms,
                r.build_ms,
                r.speedup
            );
        }
    }
    if let Some(t) = &report.tuning {
        assert!(
            t.tuned_recall + 1e-9 >= t.static_recall,
            "tuned configuration (nprobe {}) lost recall to the static auto default (nprobe {}): \
             {:.4} < {:.4}",
            t.chosen_nprobe,
            t.static_nprobe,
            t.tuned_recall,
            t.static_recall
        );
        // Latency floor: a narrower (or equal) probe width is cheaper by
        // construction; only when the tuner chose a *wider* probe (the
        // recall target demanded it) must the measured clock back it up.
        assert!(
            t.chosen_nprobe <= t.static_nprobe || t.tuned_ns_per_query <= t.static_ns_per_query,
            "tuned configuration is both wider (nprobe {} > {}) and slower ({:.0} > {:.0} ns/q) \
             than the static auto default",
            t.chosen_nprobe,
            t.static_nprobe,
            t.tuned_ns_per_query,
            t.static_ns_per_query
        );
        // Calibration budget: ground truth + one probe-index build + a
        // handful of sample sweeps must stay within a small multiple of
        // one index build — it runs once per quantizer generation.
        let budget_ms = 10.0 * t.build_ms + 250.0;
        assert!(
            t.calibrate_ms <= budget_ms,
            "calibration cost {:.1} ms exceeds its budget of {:.1} ms (10x build + 250 ms)",
            t.calibrate_ms,
            budget_ms
        );
    }
    for r in &report.transport {
        assert!(
            r.exact,
            "{}: transport probe lost bitwise parity with the in-process composite",
            r.mode
        );
    }
    let unhedged = report.transport.iter().find(|r| r.mode == "loopback_slow_unhedged");
    let hedged = report.transport.iter().find(|r| r.mode == "loopback_slow_hedged");
    if let (Some(u), Some(h)) = (unhedged, hedged) {
        assert!(
            h.hedges_fired > 0,
            "hedged slow-replica mode never fired a hedge against a {} us unhedged tail",
            u.p99_us
        );
        assert!(
            h.p99_us <= u.p99_us,
            "hedged probes did not cut the slowed replica's tail: p99 {:.0} us hedged > {:.0} us \
             unhedged",
            h.p99_us,
            u.p99_us
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dial_ann::Hit;

    #[test]
    fn row_json_is_wellformed() {
        let r = AnnBenchRow {
            backend: "flat".into(),
            rows: "f16".into(),
            shards: 1,
            n: 10,
            dim: 4,
            k: 3,
            build_ms: 0.5,
            ns_per_query: 123.4,
            recall: 1.0,
            speedup_vs_scalar: 3.5,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"backend\":\"flat\""));
        assert!(j.contains("\"rows\":\"f16\""));
        assert!(j.contains("\"speedup_vs_scalar\":3.5"));
    }

    #[test]
    fn recall_of_truth_is_one() {
        let hits = vec![vec![Hit { id: 1, distance: 0.1 }, Hit { id: 2, distance: 0.2 }]];
        assert_eq!(recall_at_k(&hits, &hits, 2), 1.0);
        let other = vec![vec![Hit { id: 9, distance: 0.1 }, Hit { id: 2, distance: 0.2 }]];
        assert_eq!(recall_at_k(&other, &hits, 2), 0.5);
    }

    #[test]
    fn report_json_records_threads_and_sections() {
        let report = AnnBenchReport {
            threads: 4,
            simd: "avx2".into(),
            probe: Vec::new(),
            incremental: vec![IncrementalRow {
                backend: "flat".into(),
                n: 10,
                dim: 4,
                changed: 0,
                appended: 0,
                rebuild_ms: 1.0,
                refresh_ms: 0.1,
                speedup: 10.0,
                exact: true,
            }],
            pipeline: vec![PipelineRow {
                members: 3,
                n: 10,
                dim: 4,
                nq: 2,
                k: 1,
                sequential_ms: 2.0,
                pipelined_ms: 1.5,
                overlap: 1.3,
                identical: true,
            }],
            snapshot: vec![
                SnapshotRow {
                    backend: "ivf:64,8".into(),
                    rows: "f32".into(),
                    n: 10,
                    dim: 4,
                    build_ms: 50.0,
                    save_ms: 0.4,
                    load_ms: 0.5,
                    bytes: 4096,
                    speedup: 100.0,
                    exact: true,
                },
                SnapshotRow {
                    backend: "hnsw:16,48".into(),
                    rows: "f32".into(),
                    n: 10,
                    dim: 4,
                    build_ms: 80.0,
                    save_ms: 0.6,
                    load_ms: 1.0,
                    bytes: 8192,
                    speedup: 80.0,
                    exact: true,
                },
            ],
            tuning: Some(TuningReport {
                n: 10,
                dim: 4,
                k: 1,
                sample: 2,
                nlist: 8,
                shards: 1,
                static_nprobe: 4,
                chosen_nprobe: 2,
                static_recall: 0.9,
                static_ns_per_query: 400.0,
                tuned_recall: 0.9,
                tuned_ns_per_query: 200.0,
                build_ms: 5.0,
                calibrate_ms: 12.0,
                steps: vec![TuningRow {
                    case: "tuned".into(),
                    nprobe: 2,
                    recall: 0.9,
                    ns_per_query: 200.0,
                }],
            }),
            transport: vec![
                TransportRow {
                    mode: "loopback_slow_unhedged".into(),
                    shards: 3,
                    replicas: 2,
                    n: 10,
                    dim: 4,
                    k: 1,
                    nq: 8,
                    p50_us: 3_000.0,
                    p99_us: 3_200.0,
                    exact: true,
                    hedges_fired: 0,
                    hedges_won: 0,
                },
                TransportRow {
                    mode: "loopback_slow_hedged".into(),
                    shards: 3,
                    replicas: 2,
                    n: 10,
                    dim: 4,
                    k: 1,
                    nq: 8,
                    p50_us: 150.0,
                    p99_us: 400.0,
                    exact: true,
                    hedges_fired: 8,
                    hedges_won: 8,
                },
            ],
        };
        let j = report.to_json();
        assert!(j.contains("\"threads\":4"), "{j}");
        assert!(j.contains("\"simd\":\"avx2\""), "{j}");
        assert!(j.contains("\"incremental\":[") && j.contains("\"exact\":true"), "{j}");
        assert!(j.contains("\"pipeline\":[") && j.contains("\"identical\":true"), "{j}");
        assert!(j.contains("\"snapshot\":[") && j.contains("\"save_ms\":0.4"), "{j}");
        assert!(j.contains("\"tuning\":{") && j.contains("\"chosen_nprobe\":2"), "{j}");
        assert!(
            j.contains("\"transport\":[") && j.contains("\"mode\":\"loopback_slow_hedged\""),
            "{j}"
        );
        assert!(j.contains("\"hedges_fired\":8"), "{j}");
        // The regression gate passes this healthy report... (probe rows
        // absent would panic on the flat lookup, so give it one).
        let mut ok = report.clone();
        let flat_row = AnnBenchRow {
            backend: "flat".into(),
            rows: "f32".into(),
            shards: 1,
            n: 10,
            dim: 4,
            k: 1,
            build_ms: 0.1,
            ns_per_query: 100.0,
            recall: 1.0,
            speedup_vs_scalar: 1.5,
        };
        let f16_row = AnnBenchRow {
            backend: "flat_f16".into(),
            rows: "f16".into(),
            ns_per_query: 80.0,
            recall: 0.995,
            speedup_vs_scalar: 1.9,
            ..flat_row.clone()
        };
        ok.probe = vec![flat_row, f16_row];
        assert_no_regression(&ok);
        // The flat floor depends on the dispatch tier: 1.2x is fine
        // under scalar dispatch but a regression under avx2.
        let mut scalar_ok = ok.clone();
        scalar_ok.simd = "scalar".into();
        scalar_ok.probe[0].speedup_vs_scalar = 0.97;
        assert_no_regression(&scalar_ok);
        let mut bad = ok.clone();
        bad.probe[0].speedup_vs_scalar = 0.97;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // f16 recall below the floor fails.
        let mut bad = ok.clone();
        bad.probe[1].recall = 0.9;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // An f16 scan far behind the f32 scan fails under SIMD dispatch
        // but is tolerated under scalar (no fused kernels to hold to).
        let mut bad = ok.clone();
        bad.probe[1].ns_per_query = 200.0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        bad.simd = "scalar".into();
        bad.probe[0].speedup_vs_scalar = 1.5;
        assert_no_regression(&bad);
        // ...and fails loudly when the drift-0 refresh regresses.
        let mut bad = ok.clone();
        bad.incremental[0].refresh_ms = 5.0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // A snapshot load that lost bitwise parity fails...
        let mut bad = ok.clone();
        bad.snapshot[0].exact = false;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // ...as does a train-heavy family whose load fell under the 5x
        // warm-start floor; a slow *flat* load is tolerated (nothing to
        // amortize — the build is already memcpy-speed).
        let mut bad = ok.clone();
        bad.snapshot[1].speedup = 3.0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        let mut slow_flat = ok.clone();
        slow_flat.snapshot[0].backend = "flat".into();
        slow_flat.snapshot[0].speedup = 0.5;
        assert_no_regression(&slow_flat);
        // Tuned recall below the static baseline fails.
        let mut bad = ok.clone();
        bad.tuning.as_mut().unwrap().tuned_recall = 0.5;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // Wider AND slower than the static default fails.
        let mut bad = ok.clone();
        {
            let t = bad.tuning.as_mut().unwrap();
            t.chosen_nprobe = 8;
            t.tuned_ns_per_query = 800.0;
        }
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // A blown calibration budget fails.
        let mut bad = ok.clone();
        bad.tuning.as_mut().unwrap().calibrate_ms = 10_000.0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // A transport mode that lost bitwise parity fails.
        let mut bad = ok.clone();
        bad.transport[1].exact = false;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // A hedged tail slower than the slowed unhedged tail fails...
        let mut bad = ok.clone();
        bad.transport[1].p99_us = 9_000.0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
        // ...as does a hedged mode that never actually fired a hedge.
        let mut bad = ok.clone();
        bad.transport[1].hedges_fired = 0;
        assert!(std::panic::catch_unwind(|| assert_no_regression(&bad)).is_err());
    }
}
