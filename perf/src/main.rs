//! The nicsim benchmark.
//!
//! ```text
//! perf run [--seed N] [--seconds S] [--smoke]     every workload, then latest.json
//! perf compare <a.json> <b.json>                   judge b against base a
//! perf spec                                        print BENCHMARK.json
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                                  one workload, one result line
//! ```
//!
//! See `perf/README.md` for the workloads, the metrics and how they
//! interact.

mod alloc;
mod compare;
mod digest;
mod kernels;
mod measure;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use measure::Trace;
use nicsim_exp::Json;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: perf run [--seed N] [--seconds S] [--smoke]
       perf compare <a.json> <b.json>
       perf spec
       perf --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

/// `--flag value` pairs and bare `--smoke`, in any order.
struct Flags {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Trace,
    smoke: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: None,
        trace: Trace::Off,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            flags.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot use '{value}'");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                flags.seconds = Some(s);
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => Trace::Off,
                    "1" => Trace::On,
                    "both" => Trace::Both,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(flags)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `Ok(true)` when the command ran and every check passed.
fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let flags = parse_flags(&args[1..])?;
            if flags.workload.is_some() {
                return Err("run measures every workload; drop --workload".into());
            }
            runner::run(&runner::RunArgs {
                seed: flags.seed,
                seconds: flags.seconds.unwrap_or(16.0),
                smoke: flags.smoke,
            })
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(&load(a)?, &load(b)?),
            _ => Err("compare takes two result files".into()),
        },
        Some("spec") => {
            println!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => {
            let flags = parse_flags(args)?;
            let args = measure::Args {
                workload: flags.workload.ok_or("--workload is required")?,
                seed: flags.seed,
                seconds: flags.seconds.unwrap_or(spec::RUN_SECONDS as f64),
                trace: flags.trace,
                smoke: flags.smoke,
            };
            let line = measure::run(&args)?;
            // The contract's result: one JSON object, last on stdout.
            println!("{}", line.compact());
            Ok(line.get("correct") == Some(&Json::Bool(true)))
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    if !alloc::pin_mmap_threshold() {
        eprintln!("perf: mallopt refused M_MMAP_THRESHOLD; set-up time and RSS may be bimodal");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAIL: a check did not pass (see above)");
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("perf: {msg}");
            ExitCode::from(2)
        }
    }
}
