//! The paper-level trajectory does not depend on the SIMD dispatch level.
//!
//! One test, in a binary of its own: `set_force_scalar` is process-wide,
//! and although flipping it can never change another test's result (that
//! is what this test shows), it would change which path that test
//! exercises.

use dial_core::{DialConfig, DialSystem, RunResult};
use dial_datasets::{Benchmark, ScaleProfile};

/// What must repeat exactly: per round, labels used, candidate count and
/// the bits of blocker recall, test F1 and all-pairs F1.
fn trajectory(r: &RunResult) -> Vec<(usize, usize, u64, u64, u64)> {
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
        .collect()
}

#[test]
fn smoke_al_trajectory_is_the_same_under_forced_scalar_and_dispatch() {
    let data = Benchmark::WalmartAmazon.generate(ScaleProfile::Smoke, 1);
    let run = || DialSystem::new(DialConfig::smoke()).run(&data, None);

    let was = dial_ann::force_scalar();
    // One switch: forcing it through `dial-ann`'s path pins the tensor
    // kernels too.
    dial_ann::set_force_scalar(true);
    assert_eq!(dial_simd::simd_label(), "scalar");
    let scalar = run();
    dial_ann::set_force_scalar(false);
    let dispatched = run();
    dial_ann::set_force_scalar(was);

    assert!(!scalar.rounds.is_empty());
    assert_eq!(
        trajectory(&dispatched),
        trajectory(&scalar),
        "SIMD dispatch ({}) moved the AL trajectory",
        dial_simd::simd_label()
    );
}
