//! The smoke `flat` AL trajectory on four workers equals the golden
//! pinned on two (`worker_count/mod.rs`).
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

mod worker_count;

#[test]
fn flat_trajectory_on_four_workers_matches_the_golden() {
    worker_count::assert_flat_golden_at(4);
}
