//! `dialbench`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! dialbench run <workload> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <dir>]
//! dialbench suite --label <l> --out-file <f> [--seed <n>] [--repeats <r>] [--env k=v]...
//! dialbench compare <a.json> <b.json>
//! dialbench check [<BENCHMARK.json>]
//! dialbench manifest
//! ```
//!
//! `run` also takes `--workload <name>`, the form the driver appends to
//! the command in `BENCHMARK.json`. Its last line of standard output is
//! the result object; its exit code is non-zero when anything failed.

mod check;
mod compare;
mod gen;
mod json;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u32 = 15;

/// `--name value` pairs and bare words of a command line.
pub struct Args {
    pub words: Vec<String>,
    pub flags: Vec<(String, String)>,
}

impl Args {
    /// Flags listed in `optional_value` may stand alone (`--trace`).
    pub fn parse(raw: &[String], optional_value: &[&str]) -> Result<Args, String> {
        let mut out = Args { words: Vec::new(), flags: Vec::new() };
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                None => out.words.push(a.clone()),
                Some(name) => {
                    let bare = optional_value.contains(&name)
                        && it.peek().is_none_or(|next| {
                            next.starts_with("--") || next.parse::<u8>().is_err()
                        });
                    let value = if bare {
                        "1".to_string()
                    } else {
                        it.next().ok_or(format!("--{name} needs a value"))?.clone()
                    };
                    out.flags.push((name.to_string(), value));
                }
            }
        }
        Ok(out)
    }

    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    pub fn all(&self, name: &str) -> Vec<&str> {
        self.flags.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a number")),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.flag("workload").or(args.words.first().map(String::as_str));
    let names = || workloads::WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ");
    let name = name.ok_or_else(|| format!("run: which workload? one of {}", names()))?;
    let workload = workloads::find(name)
        .ok_or_else(|| format!("run: no workload {name}; there are {}", names()))?;
    let seconds: f64 = args.number("seconds", RUN_SECONDS as f64)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds}: between 0 and 60"));
    }
    let ctx = workloads::Ctx {
        seed: args.number("seed", 1u64)?,
        seconds,
        trace: args.number("trace", 0u8)? != 0,
        out_dir: PathBuf::from(args.flag("out").unwrap_or("benchmark/out")),
        scale: 1.0,
    };
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let report = (workload.run)(&ctx);
    print!("{}", report.human());
    println!("{}", report.result_line());
    Ok(ExitCode::from(report.exit_code() as u8))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match raw.split_first() {
        // The driver's form has no sub-command: flags only.
        Some((first, _)) if first.starts_with("--") => ("run", &raw[..]),
        Some((first, rest)) => (first.as_str(), rest),
        None => ("help", &raw[..]),
    };
    let outcome =
        Args::parse(rest, &["trace"]).and_then(|args| match cmd {
            "run" => run(&args),
            "suite" => suite::main(&args),
            "compare" => compare::main(&args),
            "check" => check::main(&args),
            "manifest" => {
                print!("{}", check::manifest());
                Ok(ExitCode::SUCCESS)
            }
            _ => Err("usage: dialbench run|suite|compare|check|manifest (see benchmark/README.md)"
                .into()),
        });
    outcome.unwrap_or_else(|e| {
        eprintln!("dialbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Args {
        let raw: Vec<String> = line.split_whitespace().map(String::from).collect();
        Args::parse(&raw, &["trace"]).unwrap()
    }

    #[test]
    fn the_drivers_form_and_the_readers_form_both_parse() {
        let a = parse("--workload al_wa --seed 7 --seconds 10 --trace 1");
        assert_eq!(a.flag("workload"), Some("al_wa"));
        assert_eq!(a.number("seed", 0u64), Ok(7));
        assert_eq!(a.number("trace", 0u8), Ok(1));
        assert_eq!(parse("--trace 0 --seed 2").number("trace", 1u8), Ok(0));

        let a = parse("ibc_scale --seed 3 --trace");
        assert_eq!(a.words, ["ibc_scale"]);
        assert_eq!(a.number("trace", 0u8), Ok(1));
        assert_eq!(parse("x --trace --seed 3").number("seed", 0u64), Ok(3));
        assert_eq!(parse("x").number("seconds", 10.0), Ok(10.0));
        assert!(parse("x --seed abc").number("seed", 0u64).is_err());
        let raw = vec!["--seed".to_string()];
        assert!(Args::parse(&raw, &[]).is_err());
        assert_eq!(parse("--env a=1 --env b=2").all("env"), ["a=1", "b=2"]);
    }
}
