//! `dialbench manifest` writes `BENCHMARK.json` from the tables in
//! `report.rs` and `workloads`; `dialbench check` is the pre-commit
//! smoke: it holds the committed `BENCHMARK.json` against those tables,
//! then runs every workload at a tenth of its size, untraced and traced,
//! and validates the result line, the metric names and correctness.

use crate::json::{num, quote, Json};
use crate::report::{MetricDef, Report, END_TO_END, PER_LAYER};
use crate::workloads::{Ctx, WORKLOADS};
use crate::{Args, RUN_SECONDS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const COMMAND: [&str; 2] = ["bash", "benchmark/bench.sh"];
const PATHS: [&str; 1] = ["benchmark"];

fn metric_json(d: &MetricDef, with_bound: bool) -> String {
    let bound = if with_bound { format!(", \"bound\": {}", num(d.bound)) } else { String::new() };
    format!(
        "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
        quote(d.name),
        quote(d.unit),
        quote(d.better)
    )
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        COMMAND.map(quote).join(", "),
        PATHS.map(quote).join(", "),
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why)))
                .collect()
        ),
        list(END_TO_END.iter().map(|d| metric_json(d, true)).collect()),
        list(PER_LAYER.iter().map(|d| metric_json(d, false)).collect()),
    )
}

/// Everything wrong with one result line, against the run's mode.
pub fn validate_result(report: &Report) -> Vec<String> {
    let mut wrong = Vec::new();
    let line = report.result_line();
    let j = match Json::parse(&line) {
        Ok(j) => j,
        Err(e) => return vec![format!("result line does not parse: {e}")],
    };
    let keys: Vec<&str> =
        j.as_obj().map(|o| o.keys().map(String::as_str).collect()).unwrap_or_default();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        wrong.push(format!("result keys are {keys:?}"));
    }
    if j.get("correct") != Some(&Json::Bool(true)) {
        wrong.push("correct is not true".into());
    }
    if j.get("failed").and_then(Json::as_f64) != Some(0.0) {
        wrong.push(format!("failed operations: {:?}", report.tally.reasons));
    }
    if !j.get("attempted").and_then(Json::as_f64).is_some_and(|a| a >= 1.0 && a.fract() == 0.0) {
        wrong.push("attempted is not a whole number >= 1".into());
    }
    let expected = if report.traced { PER_LAYER } else { END_TO_END };
    let got = j.get("metrics").and_then(Json::as_obj);
    let names: Vec<&str> = got.map(|m| m.keys().map(String::as_str).collect()).unwrap_or_default();
    let mut want: Vec<&str> = expected.iter().map(|d| d.name).collect();
    want.sort_unstable();
    if names != want {
        wrong.push(format!(
            "metric names differ from the {} table",
            if report.traced { "per-layer" } else { "end-to-end" }
        ));
    }
    for d in expected {
        let m = got.and_then(|m| m.get(d.name));
        let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
        if m.and_then(|m| m.get("unit")).and_then(Json::as_str) != Some(d.unit) {
            wrong.push(format!("{}: unit is not {}", d.name, d.unit));
        }
        match value {
            None => wrong.push(format!("{}: value is not a finite number", d.name)),
            Some(v) if !report.traced && v <= 0.0 => {
                wrong.push(format!("{}: {v} is not positive", d.name))
            }
            Some(_) => {}
        }
    }
    wrong
}

/// Everything in which `BENCHMARK.json` differs from the tables.
pub fn validate_manifest(text: &str) -> Vec<String> {
    let (have, want) = match (Json::parse(text), Json::parse(&manifest())) {
        (Ok(h), Ok(w)) => (h, w),
        (Err(e), _) => return vec![format!("BENCHMARK.json does not parse: {e}")],
        (_, Err(e)) => return vec![format!("generated manifest does not parse: {e}")],
    };
    let mut wrong = Vec::new();
    for key in ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"] {
        if have.get(key) != want.get(key) {
            wrong.push(format!(
                "BENCHMARK.json: {key} differs from the benchmark's tables (dialbench manifest)"
            ));
        }
    }
    if have.as_obj().map(|o| o.len()) != Some(6) {
        wrong.push("BENCHMARK.json: not exactly the six contract keys".into());
    }
    wrong
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let started = Instant::now();
    let path = args.words.first().map_or("BENCHMARK.json", String::as_str);
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut wrong = validate_manifest(&text);
    let out_dir = PathBuf::from(args.flag("out").unwrap_or("benchmark/out"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    for w in WORKLOADS {
        for trace in [false, true] {
            let ctx = Ctx { seed: 1, seconds: 1.0, trace, out_dir: out_dir.clone(), scale: 0.1 };
            let t = Instant::now();
            let report = (w.run)(&ctx);
            let found = validate_result(&report);
            println!(
                "check: {:<13} {:<9} {:>5.1} s  {}",
                w.name,
                if trace { "traced" } else { "untraced" },
                t.elapsed().as_secs_f64(),
                if found.is_empty() { "ok" } else { "FAILED" }
            );
            wrong.extend(found.into_iter().map(|f| {
                format!("{} ({}): {f}", w.name, if trace { "traced" } else { "untraced" })
            }));
        }
    }
    for w in &wrong {
        println!("check: {w}");
    }
    println!("check: {} problem(s) in {:.1} s", wrong.len(), started.elapsed().as_secs_f64());
    Ok(if wrong.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_generated_manifest_meets_the_contract() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        assert!(validate_manifest(&text).is_empty());
        let j = Json::parse(&text).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let n = j.get("workloads").unwrap().as_arr().unwrap().len();
        assert!((2..=8).contains(&n));
        let secs = j.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        // 4 + 22 runs a workload, with set-up and two builds, in 3420 s.
        assert!((4.0 + 22.0 * n as f64) * (secs + 8.0) + 2.0 * 300.0 < 3420.0);
        for p in j.get("paths").unwrap().as_arr().unwrap() {
            let p = p.as_str().unwrap();
            assert!(!p.starts_with('/') && !p.contains(".."));
        }
        let e2e = j.get("end_to_end").unwrap().as_arr().unwrap();
        assert!(e2e.iter().all(|m| m.as_obj().unwrap().len() == 4));
        let layers = j.get("per_layer").unwrap().as_arr().unwrap();
        assert!(layers.iter().all(|m| m.as_obj().unwrap().len() == 3));
    }

    #[test]
    fn a_drifted_manifest_is_reported() {
        let drifted = manifest().replace("\"run_seconds\": ", "\"run_seconds\": 1");
        assert_eq!(validate_manifest(&drifted).len(), 1);
        let extra = manifest().replacen('{', "{\"results\": [],", 1);
        assert!(validate_manifest(&extra).iter().any(|w| w.contains("six contract keys")));
        assert!(!validate_manifest("{").is_empty());
    }

    #[test]
    fn a_result_with_a_failure_or_a_missing_metric_does_not_validate() {
        let mut good = Report::new("al_wa", 1, 1.0, false);
        for d in END_TO_END {
            good.set(d.name, 2.5);
        }
        good.tally.ok();
        assert!(validate_result(&good).is_empty(), "{:?}", validate_result(&good));

        let mut failed = Report::new("al_wa", 1, 1.0, false);
        for d in END_TO_END {
            failed.set(d.name, 2.5);
        }
        failed.tally.fail(|| "injected Overloaded".into());
        assert!(validate_result(&failed).iter().any(|w| w.contains("failed operations")));

        let mut missing = Report::new("al_wa", 1, 1.0, false);
        missing.tally.ok();
        assert!(validate_result(&missing).iter().any(|w| w.contains("not positive")));
    }
}
