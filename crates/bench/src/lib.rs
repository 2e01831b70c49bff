//! The registry of experiments that regenerate the paper's tables and
//! figures, and what they share.
//!
//! Every [`REGISTRY`] entry regenerates one table or figure of the
//! paper (or one study beyond it) through the
//! [`nicsim_exp::Experiment`] engine, so all results come from
//! identical methodology:
//!
//! * warm up 2 ms of simulated time, then measure a 4 ms steady-state
//!   window (scaled down by `NICSIM_QUICK=1` for smoke runs);
//! * always validate: every run asserts zero corrupt, reordered, or
//!   invalid frames end to end;
//! * an entry's runs execute in parallel (`--jobs N`), and every
//!   entry writes its structured results to `results/<name>.json`
//!   (schema documented in EXPERIMENTS.md).

#![forbid(unsafe_code)]

use nicsim::{ChromeTrace, FrameTracker, Metrics, NicConfig};
use nicsim_exp::{latency_to_json, Experiment, RunReport};
use std::path::Path;

mod ablation;
pub mod cli;
mod fault_sweep;
mod fleet;
mod paper;
mod trace;

pub use cli::Args;

/// One experiment `repro <name>` runs.
pub struct Entry {
    /// The command name and results file stem (`results/<name>.json`).
    pub name: &'static str,
    /// The [`cli::GATED`] flags the entry reads.
    pub reads: &'static [&'static str],
    /// Runs the entry, writing its results file.
    pub run: fn(&Args),
}

/// Every experiment, in the order `repro all` runs them.
pub const REGISTRY: &[Entry] = &[
    entry("table1", &[], paper::table1),
    entry("table2", &[], paper::table2),
    entry("fig3", &[], paper::fig3),
    entry("table3", &[], paper::table3),
    entry("table4", &[], paper::table4),
    entry("table5", &[], paper::table5),
    entry("table6", &[], paper::table6),
    entry("fig7", &["--trace"], paper::fig7),
    entry("fig8", &[], paper::fig8),
    entry("ablation_banks", &[], ablation::banks),
    entry("ablation_icache", &[], ablation::icache),
    entry("archsweep", &[], ablation::archsweep),
    entry("fault_sweep", &[], fault_sweep::run),
    entry("fleet", &["--nics", "--shards", "--workload"], fleet::run),
    entry("BENCH_trace", &["--trace"], trace::run),
];

const fn entry(name: &'static str, reads: &'static [&'static str], run: fn(&Args)) -> Entry {
    Entry { name, reads, run }
}

/// The entries `names` ask for, in order (`all`: every entry), each
/// checked against the command-line flags `argv`.
///
/// # Errors
///
/// A message naming an unknown name, or no name at all, and listing
/// the valid ones; or the first entry's [`Args::parse_from`] error.
pub fn select(names: &[String], argv: &[String]) -> Result<Vec<&'static Entry>, String> {
    let valid: Vec<_> = REGISTRY.iter().map(|e| e.name).collect();
    let usage = format!("usage: repro all|<name>... [flags]; names: {valid:?}");
    let mut entries = Vec::new();
    for name in names {
        match REGISTRY.iter().find(|e| e.name == name) {
            Some(e) => entries.push(e),
            None if name == "all" => entries.extend(REGISTRY),
            None => return Err(format!("unknown experiment '{name}'\n{usage}")),
        }
    }
    if entries.is_empty() {
        return Err(usage);
    }
    for e in &entries {
        Args::parse_from(e.name, e.reads, argv)?;
    }
    Ok(entries)
}

/// Run `cfg` once with the full observability bundle — a Chrome
/// `trace_event` exporter, the per-frame latency tracker, and the
/// counter/histogram metrics — writing the Perfetto-openable trace
/// JSON to `path` and merging the latency stage breakdown into the
/// returned report (its `"latency"` key in `nicsim-exp/v1` results).
///
/// This is the `--trace <path>` implementation the entries that read
/// `--trace` share (see [`Args::trace`]).
///
/// # Panics
///
/// Panics if the configuration is invalid, the run fails validation,
/// the trace file cannot be written, or the frame lifecycle the probe
/// observed is inconsistent (a start without a matching completion).
pub fn traced_run(exp: &Experiment, label: &str, cfg: NicConfig, path: &Path) -> RunReport {
    let probe = (ChromeTrace::new(), (FrameTracker::new(), Metrics::new()));
    let (mut report, sys) = exp.run_with_probe(label, cfg, probe);
    let (chrome, (tracker, metrics)) = sys.unwrap_probe();

    let violations = tracker.violations();
    assert!(
        violations.is_empty(),
        "frame lifecycle violations: {violations:?}"
    );
    report.latency = Some(latency_to_json(&tracker.summary()));

    chrome.write(path).expect("write chrome trace");
    println!(
        "wrote {} ({} trace events{}) — open at https://ui.perfetto.dev",
        path.display(),
        chrome.len(),
        if chrome.dropped() > 0 {
            format!(", {} dropped at the entry limit", chrome.dropped())
        } else {
            String::new()
        }
    );
    let grants: u64 = metrics.sp_grants().iter().sum();
    let conflicts: u64 = metrics.sp_conflicts().iter().sum();
    let [dma_rd, dma_wr] = metrics.dma_depth();
    println!(
        "probed window: icache hit rate {:.1}%, {} crossbar grants / {} conflicts, \
         mean dma inflight rd {:.2} / wr {:.2}",
        metrics.icache_hit_rate() * 100.0,
        grants,
        conflicts,
        dma_rd.mean(),
        dma_wr.mean(),
    );
    report
}

/// Print a standard experiment header.
pub fn header(what: &str, paper: &str) {
    println!("================================================================");
    println!("{what}");
    println!("(paper reference: {paper})");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_exp::Json;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn select_checks_every_name() {
        let select = |names: &[&str]| select(&strings(names), &[]);
        let all = select(&["all"]).unwrap();
        assert_eq!(all.len(), REGISTRY.len());
        let two = select(&["fig7", "table3"]).unwrap();
        assert_eq!(
            two.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["fig7", "table3"]
        );
        // An unknown name anywhere, or no name, lists the valid ones.
        for bad in [&["tabel3"][..], &["table3", "fleetbench"], &[]] {
            let err = select(bad).err().expect("refused");
            assert!(
                err.contains("table1") && err.contains("BENCH_trace"),
                "{err}"
            );
        }
        assert!(select(&["tabel3"]).err().unwrap().contains("'tabel3'"));
        // Every selected entry checks the flags before anything runs.
        let trace = strings(&["--trace", "t.json"]);
        assert!(super::select(&strings(&["fig7", "BENCH_trace"]), &trace).is_ok());
        let err = super::select(&strings(&["fig7", "table3"]), &trace)
            .err()
            .unwrap();
        assert!(err.contains("table3 does not read --trace"), "{err}");
    }

    /// The registry and the committed `results/` name each other: every
    /// results file's experiment is an entry, every entry has a
    /// committed file, and no name repeats.
    #[test]
    fn registry_and_results_match() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), REGISTRY.len(), "a registry name repeats");
        for name in names {
            let file = dir.join(format!("{name}.json"));
            assert!(
                file.is_file(),
                "entry {name} has no committed results/{name}.json"
            );
        }
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).expect("results/ exists") {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let name = doc.get("experiment").and_then(Json::as_str);
            assert!(
                name.is_some_and(|n| REGISTRY.iter().any(|e| e.name == n)),
                "{} names experiment {name:?}, which no registry entry produces",
                path.display()
            );
            files += 1;
        }
        assert_eq!(files, REGISTRY.len());
    }
}
