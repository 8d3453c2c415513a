//! `dialbench suite`: every workload, each run a process of its own,
//! `--repeats` untraced runs and one traced run per workload, written
//! with the machine's description to one result file that
//! `dialbench compare` reads.

use crate::json::{num, quote, Json};
use crate::workloads::WORKLOADS;
use crate::{Args, RUN_SECONDS};
use std::process::{Command, ExitCode};

fn one_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &str,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", workload, "--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }, "--out", out])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}:\n{stdout}", output.status));
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    Json::parse(&line)
        .map_err(|e| format!("{workload}: last line is not a result ({e}): {line}"))?;
    if trace {
        // The per-layer table of the traced run is for the reader.
        eprintln!("{}", stdout.trim_end().strip_suffix(line.as_str()).unwrap_or(&stdout));
    }
    Ok(line)
}

pub fn main(args: &Args) -> Result<ExitCode, String> {
    let label = args.flag("label").ok_or("suite: --label <name>")?;
    let out_file = args.flag("out-file").ok_or("suite: --out-file <path>")?;
    let out_dir = args.flag("out").unwrap_or("benchmark/out");
    let seed: u64 = args.number("seed", 1)?;
    let repeats: usize = args.number("repeats", 5)?;
    let seconds: f64 = args.number("seconds", RUN_SECONDS as f64)?;

    let mut env = vec![
        ("label".to_string(), quote(label)),
        ("seed".to_string(), seed.to_string()),
        ("seconds".to_string(), num(seconds)),
        ("repeats".to_string(), repeats.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism().map_or(0, usize::from).to_string(),
        ),
        ("executor_threads".to_string(), rayon::current_num_threads().to_string()),
        ("simd".to_string(), quote(dial_ann::simd_label())),
    ];
    for kv in args.all("env") {
        let (k, v) = kv.split_once('=').ok_or(format!("--env {kv}: expected key=value"))?;
        env.push((k.to_string(), quote(v)));
    }

    let mut runs = Vec::new();
    for w in WORKLOADS {
        for rep in 0..=repeats {
            // The last run of each workload is the traced one.
            let trace = rep == repeats;
            eprintln!(
                "suite: {} {}",
                w.name,
                if trace { "traced".into() } else { format!("run {}", rep + 1) }
            );
            let line = one_run(w.name, seed, seconds, trace, out_dir)?;
            runs.push(format!(
                "{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"result\":{line}}}",
                quote(w.name),
                trace as u8
            ));
        }
    }
    let env: Vec<String> = env.iter().map(|(k, v)| format!("{}:{v}", quote(k))).collect();
    let text = format!("{{\"env\":{{{}}},\n\"runs\":[\n{}\n]}}\n", env.join(","), runs.join(",\n"));
    std::fs::write(out_file, text).map_err(|e| format!("{out_file}: {e}"))?;
    eprintln!("suite: wrote {out_file}");
    Ok(ExitCode::SUCCESS)
}
