//! `dialbench compare <a.json> <b.json>`: per end-to-end metric and
//! workload, both medians, the benchmark's fixed bound and a verdict on
//! whether `b` is worse than `a`.
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `unresolved` — the spread between repeats (quartile distance over
//!   median, of either side) exceeds the bound, so the runs cannot tell,
//!   unless every run of `b` reads better than every run of `a`;
//! * `same` — neither: `b` is no worse than `a` within the bound.
//!
//! Per-layer medians of the traced runs are printed beside them, without
//! a verdict: they carry no bound.

use crate::json::Json;
use crate::report::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workloads::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Same,
    Worse,
    Unresolved,
}

/// By how much of `a` the value `b` is worse, in the metric's direction.
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        "lower" => (b - a) / a.abs(),
        _ => (a - b) / a.abs(),
    }
}

pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    // Set-up time is held to its bound on the medians alone, as the
    // driver does: a run sets up a few times, too few to pin its spread.
    let noisy =
        def.name != "setup_s" && [a, b].iter().any(|v| spread(v).is_some_and(|s| s > def.bound));
    if noisy {
        let b_always_better = a.iter().all(|&x| b.iter().all(|&y| worsening(def, x, y) < 0.0));
        return if b_always_better { Verdict::Same } else { Verdict::Unresolved };
    }
    if worsening(def, median(a), median(b)) > def.bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

/// `(workload, traced) -> metric -> values over the repeats`.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

struct ResultFile {
    env: String,
    runs: Runs,
}

fn load(path: &str) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for run in j.get("runs").and_then(Json::as_arr).ok_or(format!("{path}: no runs"))? {
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let traced = run.get("trace").and_then(Json::as_f64) == Some(1.0);
        let metrics = run
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        let slot = runs.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    let env = j.get("env").and_then(Json::as_obj).map_or(String::new(), |e| {
        e.iter()
            .map(|(k, v)| {
                format!(
                    "{k}={}",
                    v.as_str()
                        .map_or_else(|| format!("{:?}", v.as_f64().unwrap_or(0.0)), String::from)
                )
            })
            .collect::<Vec<_>>()
            .join(" ")
    });
    Ok(ResultFile { env, runs })
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let [a_path, b_path] = args.words.as_slice() else {
        return Err("compare: two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!("a: {a_path}  {}", a.env);
    println!("b: {b_path}  {}", b.env);
    println!(
        "{:<13} {:<13} {:>14} {:>14} {:>8} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median a", "median b", "worse by", "bound", "spread a", "spread b"
    );
    let mut bad = 0;
    for w in WORKLOADS {
        let key = (w.name.to_string(), false);
        for def in END_TO_END {
            let (Some(va), Some(vb)) = (
                a.runs.get(&key).and_then(|m| m.get(def.name)),
                b.runs.get(&key).and_then(|m| m.get(def.name)),
            ) else {
                println!("{:<13} {:<13} missing from one side", w.name, def.name);
                bad += 1;
                continue;
            };
            let v = verdict(def, va, vb);
            bad += (v != Verdict::Same) as usize;
            let pct = |x: Option<f64>| x.map_or("-".to_string(), |s| format!("{:.1}%", s * 100.0));
            println!(
                "{:<13} {:<13} {:>14.4} {:>14.4} {:>+7.1}% {:>6.0}% {:>8} {:>8}  {}",
                w.name,
                def.name,
                median(va),
                median(vb),
                worsening(def, median(va), median(vb)) * 100.0,
                def.bound * 100.0,
                pct(spread(va)),
                pct(spread(vb)),
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    println!("\nper-layer medians of the traced runs (no bound, no verdict):");
    for w in WORKLOADS {
        let key = (w.name.to_string(), true);
        let (Some(ma), Some(mb)) = (a.runs.get(&key), b.runs.get(&key)) else { continue };
        for def in PER_LAYER {
            if let (Some(va), Some(vb)) = (ma.get(def.name), mb.get(def.name)) {
                let (x, y) = (median(va), median(vb));
                if x != 0.0 || y != 0.0 {
                    println!(
                        "{:<13} {:<34} {:>16.4} {:>16.4} {}",
                        w.name, def.name, x, y, def.unit
                    );
                }
            }
        }
    }
    println!("\n{bad} end-to-end pairing(s) worse, unresolved or missing");
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef { name: "t", unit: "ms", better: "lower", bound: 0.10 };
    const HIGHER: MetricDef = MetricDef { name: "q", unit: "1/s", better: "higher", bound: 0.10 };

    #[test]
    fn verdicts_follow_the_bound_the_direction_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&LOWER, &a, &[104.0, 105.0, 103.0, 104.5, 103.5]), Verdict::Same);
        assert_eq!(verdict(&LOWER, &a, &[114.0, 115.0, 113.0, 114.5, 113.5]), Verdict::Worse);
        // An improvement is not worse.
        assert_eq!(verdict(&LOWER, &a, &[80.0, 81.0, 79.0, 80.5, 79.5]), Verdict::Same);
        // For a rate, lower is worse.
        assert_eq!(verdict(&HIGHER, &a, &[86.0, 87.0, 85.0, 86.5, 85.5]), Verdict::Worse);
        assert_eq!(verdict(&HIGHER, &a, &[114.0, 115.0, 113.0, 114.5, 113.5]), Verdict::Same);
        // Repeats that disagree by more than the bound cannot resolve it...
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(verdict(&LOWER, &a, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&LOWER, &noisy, &a), Verdict::Unresolved);
        // ...unless every run of b beats every run of a.
        assert_eq!(verdict(&LOWER, &noisy, &[50.0, 51.0, 49.0, 50.5, 49.5]), Verdict::Same);
        // A single run has no spread: only the medians speak.
        assert_eq!(verdict(&LOWER, &[100.0], &[120.0]), Verdict::Worse);
        // Set-up time is judged on its medians whatever its spread.
        let setup = MetricDef { name: "setup_s", ..LOWER };
        assert_eq!(verdict(&setup, &a, &noisy), Verdict::Same);
        assert_eq!(verdict(&setup, &a, &[130.0, 100.0, 160.0]), Verdict::Worse);
    }
}
