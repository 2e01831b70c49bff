//! Shared infrastructure for the table/figure regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper through the [`nicsim_exp::Experiment`] engine, so all results
//! come from identical methodology:
//!
//! * warm up 2 ms of simulated time, then measure a 4 ms steady-state
//!   window (scaled down by `NICSIM_QUICK=1` for smoke runs);
//! * always validate: every run asserts zero corrupt, reordered, or
//!   invalid frames end to end;
//! * sweeps run in parallel (`--jobs N` / `NICSIM_JOBS`), and every
//!   binary writes its structured results to `results/<name>.json`
//!   (schema documented in EXPERIMENTS.md).
//!
//! This crate keeps only what the binaries share beyond the engine:
//! the report header and the ILP trace conversion.

use nicsim::{ChromeTrace, FrameTracker, Metrics, NicConfig};
use nicsim_cpu::PendingOp;
use nicsim_exp::{latency_to_json, Experiment, RunReport};
use nicsim_ilp::TraceOp;
use nicsim_mem::SpOp;
use std::path::Path;

pub mod cli;

pub use cli::Args;

/// Run `cfg` once with the full observability bundle — a Chrome
/// `trace_event` exporter, the per-frame latency tracker, and the
/// counter/histogram metrics — writing the Perfetto-openable trace
/// JSON to `path` and merging the latency stage breakdown into the
/// returned report (its `"latency"` key in `nicsim-exp/v1` results).
///
/// This is the `--trace <path>` implementation every bench binary
/// shares (see [`Experiment::trace_path`]).
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

/// Convert the operations a core charged into the ILP analyzer's trace
/// alphabet (`wfi` counts as one ALU instruction).
pub fn to_ilp_trace(ops: &[PendingOp]) -> Vec<TraceOp> {
    ops.iter()
        .map(|&op| match op {
            PendingOp::Alu(n) => TraceOp::Alu(n),
            PendingOp::Wfi => TraceOp::Alu(1),
            PendingOp::Branch { mispredict } => TraceOp::Branch { mispredict },
            PendingOp::Mem(req) => match req.op {
                SpOp::Read => TraceOp::Load,
                SpOp::Write(_) => TraceOp::Store,
                _ => TraceOp::Rmw,
            },
        })
        .collect()
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

    #[test]
    fn ilp_trace_conversion_is_faithful() {
        let mem = |op| PendingOp::Mem(nicsim_mem::SpRequest { addr: 0, op });
        let ops = [
            PendingOp::Alu(3),
            mem(SpOp::Read),
            mem(SpOp::Write(1)),
            mem(SpOp::SetBit(2)),
            PendingOp::Branch { mispredict: true },
            PendingOp::Wfi,
        ];
        use TraceOp::{Alu, Branch, Load, Rmw, Store};
        let want = [
            Alu(3),
            Load,
            Store,
            Rmw,
            Branch { mispredict: true },
            Alu(1),
        ];
        assert_eq!(to_ilp_trace(&ops), want);
    }
}
