//! The benchmark's metric names, and the report one run prints.
//!
//! The tables here are the single source of `BENCHMARK.json`
//! (`dialbench manifest` writes it, `dialbench check` compares them).

use crate::json::{num, quote};
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen; 0 for
    /// per-layer metrics, which carry no bound.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a user of the system sees. Every workload reports every one of
/// these; `primary_ms`, `secondary_ms` and `rate_per_s` are defined per
/// workload (see `workloads::WORKLOADS` and the README glossary).
pub const END_TO_END: &[MetricDef] = &[
    e2e("primary_ms", "ms", "lower", 0.25),
    e2e("secondary_ms", "ms", "lower", 0.25),
    e2e("rate_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer metrics, `<layer>.<name>`. A workload that does not
/// reach a layer reports 0 for it, which is the evidence of the bypass.
pub const PER_LAYER: &[MetricDef] = &[
    // al_wa
    layer("core.al.round_s", "s", "lower"),
    layer("core.al.find_dups_s", "s", "lower"),
    layer("core.al.final_f1", "ratio", "higher"),
    layer("core.al.blocker_recall", "ratio", "higher"),
    layer("core.al.eval_s", "s", "lower"),
    layer("core.al.stage_cover", "ratio", "higher"),
    layer("core.matcher.train_s", "s", "lower"),
    layer("core.matcher.train_pairs_per_s", "1/s", "higher"),
    layer("core.matcher.score_s", "s", "lower"),
    layer("core.matcher.pairs_scored", "count", "higher"),
    layer("core.matcher.pairs_per_s", "1/s", "higher"),
    layer("core.encode.encode_s", "s", "lower"),
    layer("core.encode.records_per_s", "1/s", "higher"),
    layer("core.blocker.train_s", "s", "lower"),
    layer("core.blocker.embed_s", "s", "lower"),
    layer("core.select.select_s", "s", "lower"),
    layer("tplm.forward_us_per_token", "us", "lower"),
    layer("tplm.train_step_us_per_token", "us", "lower"),
    layer("tensor.matmul_gflops", "Gflop/s", "higher"),
    layer("datasets.generate_s", "s", "lower"),
    layer("text.ids_us_per_record", "us", "lower"),
    // al_wa and ibc_scale
    layer("core.engine.build_s", "s", "lower"),
    layer("core.engine.probe_s", "s", "lower"),
    // ibc_scale
    layer("core.engine.retrieve_s", "s", "lower"),
    layer("core.engine.ibc_recall", "ratio", "higher"),
    layer("core.engine.cold_s", "s", "lower"),
    layer("core.engine.noop_s", "s", "lower"),
    layer("core.engine.refresh_s", "s", "lower"),
    layer("core.engine.rebuild_s", "s", "lower"),
    layer("core.engine.calibrate_s", "s", "lower"),
    layer("core.engine.incremental_members", "count", "higher"),
    layer("core.engine.rebuilt_members", "count", "lower"),
    layer("core.engine.chosen_width", "count", "lower"),
    layer("ann.kmeans.train_s", "s", "lower"),
    layer("ann.ivf.build_s", "s", "lower"),
    layer("ann.ivf.probe_ns_per_query", "ns", "lower"),
    layer("ann.ivf.refresh_s", "s", "lower"),
    layer("ann.snapshot.save_s", "s", "lower"),
    layer("ann.snapshot.load_s", "s", "lower"),
    layer("ann.snapshot.bytes", "B", "lower"),
    layer("core.candidates.from_scored_s", "s", "lower"),
    // ibc_scale and shard_probe
    layer("ann.kernels.sq_l2_gflops", "Gflop/s", "higher"),
    layer("ann.kernels.sq_l2_gb_per_s", "GB/s", "higher"),
    layer("ann.topk.merge_ns_per_list", "ns", "lower"),
    // shard_probe
    layer("ann.sharded.local_batch_ms", "ms", "lower"),
    layer("ann.sharded.remote_batch_ms", "ms", "lower"),
    layer("ann.sharded.local_batch_p99_ms", "ms", "lower"),
    layer("ann.sharded.local_vs_flat", "ratio", "higher"),
    layer("ann.sharded.probes", "count", "higher"),
    layer("ann.sharded.hedges_fired", "count", "lower"),
    layer("ann.sharded.failovers", "count", "lower"),
    layer("ann.sharded.errors", "count", "lower"),
    layer("ann.flat.batch_ms", "ms", "lower"),
    layer("ann.transport.ship_s", "s", "lower"),
    layer("ann.transport.rtt_us", "us", "lower"),
    layer("ann.transport.bytes_per_batch", "B", "lower"),
    layer("ann.transport.remote_vs_local", "ratio", "higher"),
    // serve_unique and serve_zipf
    layer("core.serve.sat_qps", "1/s", "higher"),
    layer("core.serve.lat_p50_us", "us", "lower"),
    layer("core.serve.lat_p90_us", "us", "lower"),
    layer("core.serve.lat_p99_us", "us", "lower"),
    layer("core.serve.lat_max_us", "us", "lower"),
    layer("core.serve.sat.submitted", "count", "higher"),
    layer("core.serve.sat.served", "count", "higher"),
    layer("core.serve.sat.shed", "count", "lower"),
    layer("core.serve.sat.rejected", "count", "lower"),
    layer("core.serve.sat.scanned", "count", "lower"),
    layer("core.serve.sat.hits", "count", "higher"),
    layer("core.serve.sat.coalesced", "count", "higher"),
    layer("core.serve.sat.batches", "count", "lower"),
    layer("core.serve.sat.evictions", "count", "lower"),
    layer("core.serve.sat.invalidations", "count", "lower"),
    layer("core.serve.open.submitted", "count", "higher"),
    layer("core.serve.open.served", "count", "higher"),
    layer("core.serve.open.shed", "count", "lower"),
    layer("core.serve.open.rejected", "count", "lower"),
    layer("core.serve.open.scanned", "count", "lower"),
    layer("core.serve.open.hits", "count", "higher"),
    layer("core.serve.open.coalesced", "count", "higher"),
    layer("core.serve.open.batches", "count", "lower"),
    layer("core.serve.open.evictions", "count", "lower"),
    layer("core.serve.open.invalidations", "count", "lower"),
    layer("core.serve.batch_mean", "count", "higher"),
    layer("core.serve.submit_ns", "ns", "lower"),
    layer("core.serve.service_p50_us", "us", "lower"),
    layer("core.serve.gen_lag_p99_us", "us", "lower"),
    layer("core.serve.over_good_share", "ratio", "higher"),
    layer("core.serve.over_shed", "count", "lower"),
    layer("core.serve.over_rejected", "count", "lower"),
    layer("core.serve.install_us", "us", "lower"),
    layer("core.serve.refill_ms", "ms", "lower"),
    layer("core.cache.hit_rate", "ratio", "higher"),
    layer("core.cache.lookup_ns", "ns", "lower"),
    layer("core.cache.insert_ns", "ns", "lower"),
    layer("core.cache.key_hash_ns", "ns", "lower"),
    layer("ann.flat.search_us", "us", "lower"),
    // every workload
    layer("peak_rss_mb", "MB", "lower"),
    layer("fail_share", "ratio", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("rayon.threads", "count", "higher"),
];

/// Operations attempted and failed over the gated phases of a run. An
/// operation fails when it errors, is shed or rejected, or returns a
/// wrong answer.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Of the failed, those that returned an answer that was wrong.
    pub wrong: u64,
    /// The first few failures, for the report.
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(reason());
        }
    }

    /// A failure that is a wrong answer rather than a refusal or error.
    pub fn wrong(&mut self, reason: impl FnOnce() -> String) {
        self.wrong += 1;
        self.fail(reason);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for r in other.reasons {
            if self.reasons.len() < 5 {
                self.reasons.push(r);
            }
        }
    }

    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one run of one workload measured.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tally: Tally,
    values: BTreeMap<&'static str, f64>,
    /// Lines for the reader: sample counts, trajectory, layer table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Report {
        Report {
            workload,
            seed,
            seconds,
            traced,
            tally: Tally::default(),
            values: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Record a metric. The name must be in one of the tables above: a
    /// metric nobody declared cannot be compared by anybody.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in report.rs"));
        self.values.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Outputs verified and nothing failed.
    pub fn passed(&self) -> bool {
        self.tally.failed == 0 && self.missing_end_to_end().is_empty()
    }

    /// End-to-end metrics the workload did not report or reported as a
    /// value that cannot be compared (zero, negative, not finite).
    pub fn missing_end_to_end(&self) -> Vec<&'static str> {
        END_TO_END
            .iter()
            .filter(|m| !self.get(m.name).is_some_and(|v| v.is_finite() && v > 0.0))
            .map(|m| m.name)
            .collect()
    }

    pub fn exit_code(&self) -> i32 {
        if self.passed() {
            0
        } else {
            1
        }
    }

    /// The metrics of this run's mode, in table order: end-to-end for an
    /// untraced run, per-layer for a traced one.
    pub fn mode_metrics(&self) -> Vec<(&'static MetricDef, f64)> {
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        defs.iter().map(|d| (d, self.get(d.name).unwrap_or(0.0))).collect()
    }

    /// The table a person reads.
    pub fn human(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  seconds {}  {}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "untraced" }
        );
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.get(d.name) {
                out.push_str(&format!("  {:<36} {:>16.6} {}\n", d.name, v, d.unit));
            }
        }
        out.push_str(&format!(
            "  attempted {}  failed {}  wrong {}  fail_share {:.6}\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.wrong,
            self.tally.fail_share()
        ));
        for r in &self.tally.reasons {
            out.push_str(&format!("  FAILED: {r}\n"));
        }
        for m in self.missing_end_to_end() {
            out.push_str(&format!("  FAILED: end-to-end metric {m} missing or not positive\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  {n}\n"));
        }
        out
    }

    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .mode_metrics()
            .iter()
            .map(|(d, v)| {
                format!("{}:{{\"value\":{},\"unit\":{}}}", quote(d.name), num(*v), quote(d.unit))
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.tally.wrong == 0 && self.missing_end_to_end().is_empty(),
            self.tally.attempted.max(1),
            self.tally.failed,
            metrics.join(",")
        )
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn full_report() -> Report {
        let mut r = Report::new("al_wa", 1, 10.0, false);
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, 1.5 + i as f64);
        }
        r.tally.ok();
        r
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = full_report();
        let j = Json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(m["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(r.exit_code(), 0);

        let mut traced = Report::new("al_wa", 1, 10.0, true);
        traced.set("core.al.round_s", 2.0);
        let j = Json::parse(&traced.result_line()).unwrap();
        let m = j.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), PER_LAYER.len());
        assert_eq!(m["core.serve.sat_qps"].get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn any_failure_or_missing_metric_fails_the_run() {
        let mut r = full_report();
        r.tally.fail(|| "shed".into());
        assert_eq!(r.exit_code(), 1);
        assert!(r.tally.fail_share() > 0.0);
        assert!(r.result_line().contains("\"correct\":true"), "a refusal is not a wrong answer");

        let mut r = full_report();
        r.tally.wrong(|| "bit flipped".into());
        assert_eq!(r.exit_code(), 1);
        assert!(r.result_line().contains("\"correct\":false"));

        let mut r = full_report();
        r.set("primary_ms", 0.0);
        assert_eq!(r.missing_end_to_end(), ["primary_ms"]);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn an_undeclared_metric_is_refused() {
        Report::new("al_wa", 1, 1.0, true).set("core.made.up", 1.0);
    }

    #[test]
    fn peak_rss_reads_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
