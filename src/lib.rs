//! Workspace facade for the `nicsim` reproduction of *An Efficient
//! Programmable 10 Gigabit Ethernet Network Interface Card* (HPCA 2005).
//!
//! Re-exports the public API of the [`nicsim`] core crate plus the
//! [`nicsim_exp`] experiment engine, so downstream code (and the
//! workspace-level `examples/` and `tests/`) needs a single import
//! path:
//!
//! ```no_run
//! use nicsim_repro::{Experiment, NicConfig};
//!
//! let report = Experiment::new("quickstart").run("rmw@166", NicConfig::rmw_166());
//! println!("{:.2} Gb/s duplex", report.stats.total_udp_gbps());
//! ```
//!
//! See the README for the repository tour and EXPERIMENTS.md for
//! paper-vs-measured results and the `results/*.json` schema.

pub use nicsim::*;
pub use nicsim_exp::{
    config_to_json, git_describe, latency_to_json, mode_str, stats_to_json, Experiment, Json,
    RunReport, RunSpec, SweepReport, SCHEMA,
};

/// The experiment engine crate, re-exported whole for access to its
/// submodules (e.g. [`nicsim_exp::json`]).
pub use nicsim_exp as exp;
