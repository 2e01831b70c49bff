//! The one command-line surface every bench binary shares.
//!
//! [`Args::parse`] wraps [`Experiment::from_args`] (which handles
//! `--jobs`, `--quiet`, `--trace`, `--faults` and ignores what it does
//! not know) and adds the simulator-level flags the binaries used to
//! hand-roll individually:
//!
//! * `--dispatch polling|interrupt` — the firmware dispatch mode
//!   ablation axis ([`DispatchMode`]);
//! * `--cores N` — override the core count of every configuration the
//!   binary builds;
//! * `--dma-engines N` / `--macs N` — frame-side topology overrides
//!   (the `archsweep` axes): DMA engine pairs and MACs per
//!   configuration;
//! * `--nics N` / `--shards N` / `--workload SPEC` — fleet-level
//!   overrides for binaries that run multi-NIC fleets (fleet size,
//!   worker-thread shards, and a `nicsim_net::Workload` spec string
//!   such as `pattern=incast,target=0,fps=2e5`).
//!
//! Binaries route each configuration they construct through
//! [`Args::configure`], so the overrides apply uniformly — sweeps that
//! set their own core axis simply assign `cores` after `configure` and
//! win.

use nicsim::{DispatchMode, NicConfig};
use nicsim_exp::Experiment;

/// Parsed shared command line: the experiment engine plus the
/// simulator-level overrides.
pub struct Args {
    /// The experiment engine (windows, jobs, results output, tracing,
    /// fault plan).
    pub exp: Experiment,
    /// `--dispatch`: how the firmware waits for work (default polling,
    /// the paper's Figure 5).
    pub dispatch: DispatchMode,
    /// `--cores`: core-count override, if given.
    pub cores: Option<usize>,
    /// `--dma-engines`: DMA engine pair count override, if given.
    pub dma_engines: Option<usize>,
    /// `--macs`: MAC count override, if given.
    pub macs: Option<usize>,
    /// `--nics`: fleet size override, if given (fleet binaries only).
    pub nics: Option<usize>,
    /// `--shards`: fleet worker-thread override, if given (fleet
    /// binaries only).
    pub shards: Option<usize>,
    /// `--workload`: fleet workload spec override, if given (fleet
    /// binaries only; parsed eagerly so typos fail at startup).
    pub workload: Option<nicsim_net::Workload>,
}

impl Args {
    /// Parse the process's command line for experiment `name`.
    ///
    /// Exits with status 2 and a usage message on a malformed value;
    /// unknown flags are ignored (each layer parses only its own).
    pub fn parse(name: &str) -> Args {
        let exp = Experiment::from_args(name);
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut dispatch = DispatchMode::Polling;
        let mut cores = None;
        let mut dma_engines = None;
        let mut macs = None;
        let mut nics = None;
        let mut shards = None;
        let mut workload = None;
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            if let Some(v) = arg.strip_prefix("--dispatch=") {
                dispatch = parse_dispatch(v);
            } else if arg == "--dispatch" {
                i += 1;
                dispatch = parse_dispatch(argv.get(i).unwrap_or_else(|| usage_dispatch()));
            } else if let Some(v) = arg.strip_prefix("--cores=") {
                cores = Some(parse_cores(v));
            } else if arg == "--cores" {
                i += 1;
                cores = Some(parse_cores(argv.get(i).unwrap_or_else(|| usage_cores())));
            } else if let Some(v) = arg.strip_prefix("--dma-engines=") {
                dma_engines = Some(parse_count(v, "--dma-engines"));
            } else if arg == "--dma-engines" {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage_count("--dma-engines"));
                dma_engines = Some(parse_count(v, "--dma-engines"));
            } else if let Some(v) = arg.strip_prefix("--macs=") {
                macs = Some(parse_count(v, "--macs"));
            } else if arg == "--macs" {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage_count("--macs"));
                macs = Some(parse_count(v, "--macs"));
            } else if let Some(v) = arg.strip_prefix("--nics=") {
                nics = Some(parse_count(v, "--nics"));
            } else if arg == "--nics" {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage_count("--nics"));
                nics = Some(parse_count(v, "--nics"));
            } else if let Some(v) = arg.strip_prefix("--shards=") {
                shards = Some(parse_count(v, "--shards"));
            } else if arg == "--shards" {
                i += 1;
                let v = argv.get(i).unwrap_or_else(|| usage_count("--shards"));
                shards = Some(parse_count(v, "--shards"));
            } else if let Some(v) = arg.strip_prefix("--workload=") {
                workload = Some(parse_workload(v));
            } else if arg == "--workload" {
                i += 1;
                let v = argv
                    .get(i)
                    .unwrap_or_else(|| usage_workload("missing spec"));
                workload = Some(parse_workload(v));
            }
            i += 1;
        }
        Args {
            exp,
            dispatch,
            cores,
            dma_engines,
            macs,
            nics,
            shards,
            workload,
        }
    }

    /// Apply the shared overrides to one configuration.
    #[must_use]
    pub fn configure(&self, mut cfg: NicConfig) -> NicConfig {
        cfg.dispatch = self.dispatch;
        if let Some(c) = self.cores {
            cfg.cores = c;
        }
        if let Some(d) = self.dma_engines {
            cfg.topology.dma_engines = d;
        }
        if let Some(m) = self.macs {
            cfg.topology.macs = m;
        }
        cfg
    }
}

fn parse_dispatch(v: &str) -> DispatchMode {
    match v {
        "polling" => DispatchMode::Polling,
        "interrupt" => DispatchMode::Interrupt,
        _ => usage_dispatch(),
    }
}

fn parse_cores(v: &str) -> usize {
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage_cores(),
    }
}

fn usage_dispatch() -> ! {
    eprintln!("--dispatch needs 'polling' or 'interrupt'");
    std::process::exit(2);
}

fn usage_cores() -> ! {
    eprintln!("--cores needs a positive integer");
    std::process::exit(2);
}

fn parse_count(v: &str, flag: &str) -> usize {
    match v.parse() {
        Ok(n) if n > 0 => n,
        _ => usage_count(flag),
    }
}

fn usage_count(flag: &str) -> ! {
    eprintln!("{flag} needs a positive integer");
    std::process::exit(2);
}

fn parse_workload(v: &str) -> nicsim_net::Workload {
    match nicsim_net::Workload::parse(v) {
        Ok(w) => w,
        Err(e) => usage_workload(&e),
    }
}

fn usage_workload(why: &str) -> ! {
    eprintln!("--workload needs a spec like 'pattern=incast,target=0,fps=2e5': {why}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configure_applies_overrides() {
        let args = Args {
            exp: Experiment::new("t"),
            dispatch: DispatchMode::Interrupt,
            cores: Some(3),
            dma_engines: Some(2),
            macs: Some(2),
            nics: None,
            shards: None,
            workload: None,
        };
        let cfg = args.configure(NicConfig::default());
        assert_eq!(cfg.dispatch, DispatchMode::Interrupt);
        assert_eq!(cfg.cores, 3);
        assert_eq!(cfg.topology.dma_engines, 2);
        assert_eq!(cfg.topology.macs, 2);
        let args = Args {
            exp: Experiment::new("t"),
            dispatch: DispatchMode::Polling,
            cores: None,
            dma_engines: None,
            macs: None,
            nics: None,
            shards: None,
            workload: None,
        };
        let cfg = args.configure(NicConfig::default());
        assert_eq!(cfg.dispatch, DispatchMode::Polling);
        assert_eq!(cfg.cores, NicConfig::default().cores);
        assert_eq!(cfg.topology, nicsim::Topology::default());
    }
}
