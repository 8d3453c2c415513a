//! The body shared by the worker-count trajectory tests: the smoke
//! Walmart-Amazon AL run on the `flat` backend at a given worker count
//! must reproduce the `flat` row of `golden_trajectory.rs`, which is
//! pinned at two workers. The count is resolved once per process, so each
//! count is a test binary of its own with a single test.

use dial_core::{DialConfig, DialSystem, IndexBackend, RunResult};
use dial_datasets::{Benchmark, ScaleProfile};

/// The `flat` row of `golden_trajectory.rs`'s `GOLDEN`.
const FLAT_GOLDEN: u64 = 0xdfa983dab19d74dc;

/// Per round: labels used, candidate count, and the bits of blocker
/// recall, test F1 and all-pairs F1 — little-endian, in that order (as in
/// `golden_trajectory.rs`).
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

/// Run the golden's `flat` trajectory on `workers` workers and assert its
/// pinned hash.
pub fn assert_flat_golden_at(workers: usize) {
    assert_eq!(
        rayon::set_num_threads(workers),
        workers,
        "the worker count was resolved before this test"
    );
    let data = Benchmark::WalmartAmazon.generate(ScaleProfile::Smoke, 1);
    let (index_backend, index_shards) =
        IndexBackend::parse_sharded("flat").expect("a valid backend spec");
    let cfg = DialConfig { index_backend, index_shards, ..DialConfig::smoke() };
    let hash = trajectory_hash(&DialSystem::new(cfg).run(&data, None));
    assert_eq!(
        hash, FLAT_GOLDEN,
        "the flat trajectory at {workers} worker(s) is {hash:#018x}, not the golden pinned at two"
    );
}
