//! The executor's thread budget, observed from outside: after the first
//! parallel call has created the pool, later calls create no threads.
//! This file holds one test so that no other test's threads come and go
//! while it counts.

use rayon::prelude::*;

/// Threads of this process, as Linux lists them.
#[cfg(target_os = "linux")]
fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is mounted").count()
}

#[cfg(target_os = "linux")]
#[test]
fn a_thousand_calls_after_the_first_create_no_threads() {
    let sum =
        |n: u64| -> u64 { (0..n).into_par_iter().map(|x| x * 2).collect::<Vec<_>>().iter().sum() };
    assert_eq!(sum(1000), 999 * 1000);
    let before = task_count();
    for i in 0..1000u64 {
        assert_eq!(sum(i + 2), (i + 1) * (i + 2));
    }
    assert_eq!(task_count(), before, "parallel calls must reuse the pool's workers");
}
