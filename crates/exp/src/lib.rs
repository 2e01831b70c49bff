//! # nicsim-exp — the experiment engine
//!
//! Declarative, parallel, reproducible experiments over the `nicsim`
//! full-system simulator:
//!
//! * [`Sweep`] describes an experiment as named axes over a base
//!   [`NicConfig`](nicsim::NicConfig); the engine expands the cartesian
//!   product into labeled runs and validates every configuration before
//!   anything executes.
//! * [`Experiment`] runs configurations with the paper's standard
//!   methodology (warm up, measure a steady-state window, validate every
//!   frame end to end). Sweeps run across a pool of work-stealing
//!   worker threads — each `NicSystem` is single-threaded and
//!   deterministic, so runs are embarrassingly parallel and results are
//!   bit-identical at any `--jobs` count.
//! * [`RunReport`] / [`SweepReport`] carry config + stats + wall-clock
//!   for every run, and serialize to `results/<experiment>.json` in the
//!   stable, dependency-free `nicsim-exp/v1` schema ([`json::Json`] is
//!   a hand-rolled writer/parser; see `EXPERIMENTS.md` for the schema).
//!
//! ```no_run
//! use nicsim::{FwMode, NicConfig};
//! use nicsim_exp::{Experiment, Sweep};
//!
//! let exp = Experiment::new("freq_scan"); // honors NICSIM_JOBS
//! let sweep = Sweep::new(NicConfig::default())
//!     .axis("cpu_mhz", [100u64, 166, 200], |cfg, v| cfg.cpu_mhz = v);
//! let report = exp.sweep(&sweep);
//! for run in &report.runs {
//!     println!("{}: {:.2} Gb/s", run.label, run.stats.total_udp_gbps());
//! }
//! exp.write(&report).unwrap(); // results/freq_scan.json
//! ```

pub mod engine;
pub mod json;
pub mod report;
pub mod sweep;

pub use engine::{git_describe, parse_flags, Experiment};
pub use json::Json;
pub use report::{
    config_from_json, config_to_json, latency_to_json, mode_str, stats_to_json, RunReport,
    SweepReport, SCHEMA,
};
pub use sweep::{RunSpec, Sweep};
