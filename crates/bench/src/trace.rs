//! Frame-lifecycle trace capture: run the 6-core line-rate
//! configuration with the full observability bundle and write a Chrome
//! `trace_event` JSON (open it at <https://ui.perfetto.dev>) plus the
//! per-frame latency stage breakdown in `results/BENCH_trace.json`.
//!
//! ```text
//! repro BENCH_trace --trace results/trace_events.json
//! repro BENCH_trace --cores 1
//! ```
//!
//! `--trace <path>` picks the trace-file destination (default
//! `trace_events.json` in the results directory); `--cores N` and
//! `--dispatch` come from the shared command line ([`crate::Args`]).
//! The run fails if the probe observes an inconsistent frame lifecycle
//! (a stage start without its completion) or if the written trace does
//! not parse back as non-empty JSON.

use crate::{header, traced_run, Args};
use nicsim::NicConfig;
use nicsim_exp::Json;

pub fn run(args: &Args) {
    let exp = &args.exp;
    header(
        "Frame-lifecycle trace: Chrome trace_event + latency percentiles",
        "per-frame stage breakdown for the line-rate configuration",
    );
    let cfg = args.configure(NicConfig::default());
    std::fs::create_dir_all(exp.results_dir()).expect("create results directory");
    let default_path = exp.results_dir().join("trace_events.json");
    let path = args.trace.as_deref().unwrap_or(&default_path);
    let label = format!("cores={},cpu_mhz={}", cfg.cores, cfg.cpu_mhz);
    let run = traced_run(exp, &label, cfg, path);

    // The trace file must round-trip as non-empty JSON: this is the
    // smoke check CI leans on (scripts/check.sh).
    let text = std::fs::read_to_string(path).expect("read back trace file");
    let doc = nicsim_exp::json::parse(&text).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| match v {
            Json::Arr(a) => Some(a.len()),
            _ => None,
        })
        .expect("trace file has a traceEvents array");
    assert!(events > 0, "trace file has no events");
    println!("trace file round-trips: {events} events");

    let extra = Json::obj().with("trace_file", path.display().to_string());
    exp.finish(vec![run], Some(extra)).expect("write results");
}
