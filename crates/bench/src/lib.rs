//! # dial-bench
//!
//! The experiment harness: one subcommand per table/figure of the paper's
//! evaluation (run `cargo run --release -p dial-bench --bin repro -- help`),
//! plus the `tensor_ops` kernel bench. Performance is measured by
//! `dialbench` (`bash benchmark/bench.sh`), not here.
//!
//! Environment knobs (all optional):
//! * `REPRO_SCALE`  — `bench` (default) | `smoke` | `paper`;
//! * `REPRO_ROUNDS` — active-learning rounds (default 5);
//! * `REPRO_SEEDS`  — averaged random seeds (default 1; paper uses 3);
//! * `REPRO_OUT`    — directory for JSON result rows (default `results/`).

pub mod report;
pub mod runner;

pub use report::{print_table, write_json};
pub use runner::{run_jedai_row, run_rf_row, run_tplm, ExpContext, TplmRunSummary};
