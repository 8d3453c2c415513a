//! The absolute golden of the smoke AL trajectory, per index backend
//! (ROADMAP 5e): labels, candidates and the bits of recall/F1 of every
//! round, hashed and pinned.
//!
//! `simd_trajectory.rs` is the relative check (forced-scalar ==
//! dispatched, whatever the values are); this one pins the values. They
//! can be pinned because the hot path computes `exp`/`tanh` with the
//! in-repo kernels, not the host's libm. What still comes from libm —
//! `ln`/`ln_1p` in the losses and coverage rows, `ln`/`cos` in
//! `init::normal` — is why the test is limited to x86_64 Linux (glibc).
//! The matcher reduces one gradient shard per worker, so the worker count
//! is pinned to 2; that has to happen before the first parallel call,
//! hence a binary of its own with a single test. It must pass unchanged
//! under `DIAL_FORCE_SCALAR=1`.
//!
//! A change that moves bits on purpose re-records: the failure message
//! prints the new table ready to paste over `GOLDEN`.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use dial_core::{DialConfig, DialSystem, IndexBackend, RunResult};
use dial_datasets::{Benchmark, ScaleProfile};

/// `(backend spec, FNV-1a64 of the trajectory)`. `flat@4` must equal
/// `flat` (sharding is exact); the IVF spec is narrow enough to lose
/// recall at smoke scale, so its row pins k-means and the probe as well.
const GOLDEN: [(&str, u64); 3] =
    [("flat", 0xdfa983dab19d74dc), ("ivf:8,1", 0x8adee43079ad8e7e), ("flat@4", 0xdfa983dab19d74dc)];

/// Per round: labels used, candidate count, and the bits of blocker
/// recall, test F1 and all-pairs F1 — little-endian, in that order.
fn trajectory_hash(r: &RunResult) -> u64 {
    let mut bytes = Vec::new();
    for m in &r.rounds {
        for word in [
            m.labels_used as u64,
            m.cand_size as u64,
            m.blocker_recall.to_bits(),
            m.test.f1.to_bits(),
            m.all_pairs.f1.to_bits(),
        ] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    dial_text::fnv1a(&bytes)
}

#[test]
fn smoke_al_trajectory_matches_the_recorded_golden_per_backend() {
    assert_eq!(rayon::set_num_threads(2), 2, "the worker count was resolved before this test");
    let data = Benchmark::WalmartAmazon.generate(ScaleProfile::Smoke, 1);
    let mut actual = Vec::new();
    let mut readable = String::new();
    for (spec, _) in GOLDEN {
        let (index_backend, index_shards) =
            IndexBackend::parse_sharded(spec).expect("a valid backend spec");
        let cfg = DialConfig { index_backend, index_shards, ..DialConfig::smoke() };
        let result = DialSystem::new(cfg).run(&data, None);
        actual.push((spec, trajectory_hash(&result)));
        for m in &result.rounds {
            readable.push_str(&format!(
                "  {spec}: round {} labels {} candidates {} recall {:.4} test F1 {:.4} all-pairs F1 {:.4}\n",
                m.round, m.labels_used, m.cand_size, m.blocker_recall, m.test.f1, m.all_pairs.f1
            ));
        }
    }
    let table = |rows: &[(&str, u64)]| {
        let cells: Vec<String> = rows.iter().map(|(s, h)| format!("({s:?}, {h:#018x})")).collect();
        format!("const GOLDEN: [(&str, u64); 3] = [{}];", cells.join(", "))
    };
    assert!(
        actual == GOLDEN,
        "the smoke AL trajectory moved ({} dispatch).\nactual:\n{}\nexpected:\n{}\n{readable}",
        dial_simd::simd_label(),
        table(&actual),
        table(&GOLDEN),
    );
}
