//! The five workloads. Each runs in one process, drives every layer only
//! through its public functions, checks what comes back, and returns a
//! [`Report`].

pub mod al_wa;
pub mod ibc_scale;
pub mod serve;
pub mod shard_probe;

use crate::report::{peak_rss_mb, Report};
use crate::trace::Tracer;
use dial_ann::{merge_topk, sq_l2_batch, FlatIndex, Hit, Metric};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

pub struct Ctx {
    pub seed: u64,
    /// How long the timed phases of the run last in total.
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and temporary snapshot files go.
    pub out_dir: PathBuf,
    /// `1.0` for a measured run; `dialbench check` runs every workload
    /// at a tenth of the size.
    pub scale: f64,
}

impl Ctx {
    /// `full` rows at scale 1, never fewer than `floor`.
    pub fn sized(&self, full: usize, floor: usize) -> usize {
        ((full as f64 * self.scale) as usize).max(floor)
    }

    /// A directory of this run's own under the out dir, emptied first.
    pub fn scratch_dir(&self, name: &str) -> PathBuf {
        let dir = self.out_dir.join(format!("tmp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under the out dir");
        dir
    }
}

pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload is in the benchmark.
    pub why: &'static str,
    pub run: fn(&Ctx) -> Report,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "al_wa",
        why: "One DIAL active-learning run on Walmart-Amazon: tensor, tplm and the matcher do ~99% of \
              the work and the index ~0.1%, so a training or inference gain shows and an index gain does not.",
        run: al_wa::run,
    },
    Workload {
        name: "ibc_scale",
        why: "Index-By-Committee alone over 3 synthetic views at pinned recall: engine, IVF, k-means, \
              kernels and snapshots work across cold, unchanged, refreshed and rebuilt rounds; tplm is bypassed.",
        run: ibc_scale::run,
    },
    Workload {
        name: "shard_probe",
        why: "One client, 64-query batches through the same 2-shard scatter/merge in process and over \
              loopback nodes: a fan-out fix moves both, a transport change only the remote half.",
        run: shard_probe::run,
    },
    Workload {
        name: "serve_unique",
        why: "QueryService over distinct queries (cache and single-flight paid for, never hit): \
              admission, batching and the flat scan do the work, so a cache change must not move it.",
        run: serve::run_unique,
    },
    Workload {
        name: "serve_zipf",
        why: "The same service under zipf(1.0) repeats with the index hot-swapped under load: cache and \
              dispatch do the work, and a change that speeds hits but slows swap or refill shows.",
        run: serve::run_zipf,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Bitwise equality of two hit lists: ids and `distance.to_bits()`.
pub fn hits_equal(got: &[Hit], want: &[Hit]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.id == w.id && g.distance.to_bits() == w.distance.to_bits())
}

/// An exact index over packed `rows`, scanned under L2.
pub fn flat_index(rows: &[f32], dim: usize) -> FlatIndex {
    let mut ix = FlatIndex::new(dim, Metric::L2);
    ix.add_batch(rows);
    ix
}

/// The distance kernel and the top-k merge on their own: one block of
/// `queries` against every row, and `lists` sorted lists of `k` hits.
/// Flops are the cross term's 2·nq·nr·dim; bytes are the operands read
/// once and the tile written — both computed, not measured.
pub fn probe_kernels(
    report: &mut Report,
    queries: &[f32],
    rows: &[f32],
    dim: usize,
    lists: usize,
    k: usize,
) {
    let (nq, nr) = (queries.len() / dim, rows.len() / dim);
    let q_sq = dial_ann::kernels::sq_norms(queries, dim);
    let r_sq = dial_ann::kernels::sq_norms(rows, dim);
    let mut tile = vec![0.0f32; nq * nr];
    let reps = 20;
    let t = Instant::now();
    for _ in 0..reps {
        sq_l2_batch(black_box(queries), &q_sq, black_box(rows), &r_sq, dim, &mut tile);
        black_box(&mut tile);
    }
    let secs = t.elapsed().as_secs_f64() / reps as f64;
    report.set("ann.kernels.sq_l2_gflops", 2.0 * (nq * nr * dim) as f64 / secs / 1e9);
    report.set("ann.kernels.sq_l2_gb_per_s", 4.0 * ((nq + nr) * dim + nq * nr) as f64 / secs / 1e9);

    let input: Vec<Vec<Hit>> = (0..lists)
        .map(|l| {
            (0..k)
                .map(|i| Hit { id: (l * k + i) as u32, distance: (i * lists + l) as f32 })
                .collect()
        })
        .collect();
    let reps = 20_000;
    let t = Instant::now();
    for _ in 0..reps {
        black_box(merge_topk(black_box(&input), k));
    }
    report.set("ann.topk.merge_ns_per_list", t.elapsed().as_nanos() as f64 / (reps * lists) as f64);
}

/// Close a traced run: the per-span-name table into the notes, every
/// span into `<out>/<workload>.trace.json`.
pub fn finish_trace(report: &mut Report, tracer: &Tracer, ctx: &Ctx) {
    for row in tracer.table() {
        report.note(format!(
            "span {:<34} n {:>6}  total {:>9.4} s  self {:>9.4} s",
            row.name, row.count, row.total_s, row.self_s
        ));
    }
    let path = ctx.out_dir.join(format!("{}.trace.json", report.workload));
    if let Err(e) = tracer.write(&path, report.workload, ctx.seed) {
        report.tally.fail(|| format!("cannot write {}: {e}", path.display()));
    }
}

/// Run a workload's set-up — everything before its timed phases — at
/// least three times, and while it stays cheap up to nine, recording
/// each; the last one's product is what the run measures on. One run
/// reports the median, so that work moved into set-up shows steadily.
pub fn set_up<T>(samples: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let built = build();
        samples.push(t.elapsed().as_secs_f64());
        if samples.len() >= 3 && (samples.len() >= 9 || started.elapsed().as_secs_f64() >= 1.0) {
            return built;
        }
    }
}

/// What every workload reports at the end.
pub fn finish(report: &mut Report, setup_samples: &[f64]) {
    report.set("setup_s", crate::stats::median(setup_samples));
    if report.traced {
        report.set("peak_rss_mb", peak_rss_mb());
        report.set("fail_share", report.tally.fail_share());
        report.set("rayon.threads", rayon::current_num_threads() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_distance_bit_is_not_equal() {
        let want = vec![Hit { id: 3, distance: 0.25 }, Hit { id: 9, distance: 0.5 }];
        let mut got = want.clone();
        assert!(hits_equal(&got, &want));
        got[1].distance = f32::from_bits(got[1].distance.to_bits() ^ 1);
        assert!(!hits_equal(&got, &want));
        let mut got = want.clone();
        got[0].id = 4;
        assert!(!hits_equal(&got, &want));
        assert!(!hits_equal(&want[..1], &want));
        // -0.0 == 0.0 numerically, but not bit for bit.
        assert!(!hits_equal(&[Hit { id: 0, distance: -0.0 }], &[Hit { id: 0, distance: 0.0 }]));
    }

    #[test]
    fn set_up_repeats_at_least_three_times_and_keeps_the_last() {
        let mut samples = Vec::new();
        let mut calls = 0;
        let last = set_up(&mut samples, || {
            calls += 1;
            calls
        });
        assert_eq!(samples.len(), 9, "a cheap set-up is repeated nine times");
        assert_eq!(last, 9);
        let mut samples = Vec::new();
        set_up(&mut samples, || std::thread::sleep(std::time::Duration::from_millis(400)));
        assert_eq!(samples.len(), 3, "a dear one three times");
    }

    #[test]
    fn workload_names_and_reasons_fit_the_contract() {
        assert_eq!(WORKLOADS.len(), 5);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: why has {} characters", w.name, w.why.len());
            assert!(!w.why.contains('\n'));
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}
