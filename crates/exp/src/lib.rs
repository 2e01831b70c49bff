//! # nicsim-exp — the experiment engine
//!
//! Parallel, reproducible experiments over the `nicsim`
//! full-system simulator:
//!
//! * An experiment is a plain list of [`RunSpec`]s over
//!   [`NicConfig`](nicsim::NicConfig)s, built with ordinary loops;
//!   [`RunSpec::at`] labels a grid point `"axis=value,…"`.
//! * [`Experiment`] runs configurations with the paper's standard
//!   methodology (warm up, measure a steady-state window, validate every
//!   frame end to end). [`Experiment::run_all`] validates every
//!   configuration of a list before anything executes, then runs the
//!   list across a pool of work-stealing worker threads — each
//!   `NicSystem` is single-threaded and deterministic, so runs are
//!   embarrassingly parallel and results are bit-identical at any
//!   `--jobs` count.
//! * [`RunReport`] / [`SweepReport`] carry config + stats + wall-clock
//!   for every run, and [`Experiment::finish`] serializes them to
//!   `results/<experiment>.json` in the stable, dependency-free
//!   `nicsim-exp/v1` schema ([`json::Json`] is a hand-rolled
//!   writer/parser; see `EXPERIMENTS.md` for the schema).
//!
//! ```no_run
//! use nicsim::NicConfig;
//! use nicsim_exp::{Experiment, RunSpec};
//!
//! let exp = Experiment::new("freq_scan").jobs(4);
//! let mut specs = Vec::new();
//! for mhz in [100u64, 166, 200] {
//!     let cfg = NicConfig::builder().cpu_mhz(mhz).build().unwrap();
//!     specs.push(RunSpec::at(cfg, &[("cpu_mhz", &mhz)]));
//! }
//! let runs = exp.run_all(&specs).unwrap();
//! for run in &runs {
//!     println!("{}: {:.2} Gb/s", run.label, run.stats.total_udp_gbps());
//! }
//! exp.finish(runs, None).unwrap(); // results/freq_scan.json
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod json;
pub mod report;

pub use engine::{git_describe, Experiment, RunSpec};
pub use json::Json;
pub use report::{
    config_from_json, config_to_json, latency_to_json, mode_str, stats_to_json, RunReport,
    SweepReport, SCHEMA,
};
