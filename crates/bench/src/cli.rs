//! The one command-line surface every bench binary shares.
//!
//! [`Args::parse`] walks the command line once: the experiment engine's
//! flags (`--jobs`, `--quiet`, `--trace`, `--faults`) go to
//! [`Experiment::accept_flag`], an argument nobody recognises is a
//! usage error, and this layer adds the simulator-level flags the
//! binaries used to hand-roll individually:
//!
//! * `--dispatch polling|interrupt` — the firmware dispatch mode
//!   ablation axis ([`DispatchMode`]);
//! * `--cores N` — override the core count of every configuration the
//!   binary builds;
//! * `--dma-engines N` — the frame-side topology override (the
//!   `archsweep` axis): DMA engine pairs per configuration;
//! * `--nics N` / `--shards N` / `--workload SPEC` — fleet-level
//!   overrides for binaries that run multi-NIC fleets (fleet size,
//!   worker-thread shards, and a `nicsim_net::Workload` spec string
//!   such as `pattern=incast,target=0,fps=2e5`).
//!
//! Binaries route each configuration they construct through
//! [`Args::configure`], so the overrides — and a `--faults` plan, which
//! every binary accepts — apply uniformly: sweeps that
//! set their own core axis simply assign `cores` after `configure` and
//! win, and an override the configuration cannot take (`--cores 2` on
//! the single-core ideal firmware) is a usage error, not a panic.

use nicsim::{ConfigError, DispatchMode, NicConfig};
use nicsim_exp::{parse_flags, Experiment};

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
    /// Exits with status 2 and a usage message on a malformed value or
    /// an argument no layer recognises.
    pub fn parse(name: &str) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Args::parse_from(name, &argv).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns the usage line for a malformed or missing value, or a
    /// message naming an argument neither this layer nor the
    /// experiment engine recognises.
    pub fn parse_from(name: &str, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            exp: Experiment::new(name),
            dispatch: DispatchMode::Polling,
            cores: None,
            dma_engines: None,
            nics: None,
            shards: None,
            workload: None,
        };
        parse_flags(argv, |flag, value| {
            let mut count = || {
                value()
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{flag} needs a positive integer"))
            };
            match flag {
                "--dispatch" => {
                    args.dispatch = match value() {
                        Ok("polling") => DispatchMode::Polling,
                        Ok("interrupt") => DispatchMode::Interrupt,
                        _ => return Err("--dispatch needs 'polling' or 'interrupt'".into()),
                    }
                }
                "--cores" => args.cores = Some(count()?),
                "--dma-engines" => args.dma_engines = Some(count()?),
                "--nics" => args.nics = Some(count()?),
                "--shards" => args.shards = Some(count()?),
                "--workload" => {
                    let spec = value().map_err(|_| "missing spec".to_string());
                    let parsed = spec.and_then(nicsim_net::Workload::parse);
                    args.workload = Some(parsed.map_err(|why| {
                        format!(
                            "--workload needs a spec like \
                             'pattern=incast,target=0,fps=2e5': {why}"
                        )
                    })?);
                }
                _ => return args.exp.accept_flag(flag, value),
            }
            Ok(true)
        })?;
        Ok(args)
    }

    /// Apply the shared overrides to one configuration.
    ///
    /// Exits with status 2, printing the [`ConfigError`], when the
    /// overridden configuration no longer validates.
    #[must_use]
    pub fn configure(&self, cfg: NicConfig) -> NicConfig {
        self.try_configure(cfg).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// [`Args::configure`] returning the error instead of exiting.
    ///
    /// # Errors
    ///
    /// The [`ConfigError`] of the configuration with the overrides applied.
    pub fn try_configure(&self, mut cfg: NicConfig) -> Result<NicConfig, ConfigError> {
        cfg.dispatch = self.dispatch;
        if let Some(plan) = self.exp.faults() {
            cfg.faults = Some(plan);
        }
        if let Some(c) = self.cores {
            cfg.cores = c;
        }
        if let Some(d) = self.dma_engines {
            cfg.topology.dma_engines = d;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        Args::parse_from("t", &argv)
    }

    #[test]
    fn unrecognised_arguments_are_usage_errors() {
        let args = parse(&["--cores=3", "--jobs", "2", "--dispatch", "interrupt"]).unwrap();
        assert_eq!(args.cores, Some(3));
        assert_eq!(args.exp.jobs_configured(), 2);
        assert_eq!(args.dispatch, DispatchMode::Interrupt);
        let w = parse(&["--workload=pattern=incast,target=0"])
            .unwrap()
            .workload;
        assert!(w.is_some(), "a spec's own '=' signs stay in the value");

        // An unknown flag, a misspelt known one, a stray positional and
        // a missing value: each names what was wrong instead of running
        // the default configuration under the requested label.
        for (argv, names) in [
            (&["--assist", "9x9"][..], "--assist"),
            (&["--core", "1"], "--core"),
            (&["--dispath=interrupt"], "--dispath=interrupt"),
            (&["--cores", "2", "extra"], "extra"),
            (&["--cores"], "--cores"),
            (&["--jobs"], "--jobs"),
            (&["--workload"], "--workload"),
            (&["--workload", "fps=1e99"], "--workload"),
        ] {
            let err = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{argv:?} parsed"));
            assert!(err.contains(names), "{argv:?}: {err}");
        }
    }

    #[test]
    fn configure_applies_overrides() {
        let args = parse(&["--dispatch=interrupt", "--cores=3", "--dma-engines=2"]).unwrap();
        let cfg = args.configure(NicConfig::default());
        assert_eq!(cfg.dispatch, DispatchMode::Interrupt);
        assert_eq!(cfg.cores, 3);
        assert_eq!(cfg.topology.dma_engines, 2);
        // Overrides are validated against the configuration they land on.
        assert_eq!(
            args.try_configure(NicConfig::ideal()),
            Err(ConfigError::IdealMultiCore { cores: 3 })
        );
        let crowded = Args {
            cores: Some(100),
            ..args
        };
        assert_eq!(
            crowded.try_configure(NicConfig::default()),
            Err(ConfigError::TooManyPorts { ports: 106 })
        );
        let args = parse(&[]).unwrap();
        let cfg = args.configure(NicConfig::default());
        assert_eq!(cfg.dispatch, DispatchMode::Polling);
        assert_eq!(cfg.cores, NicConfig::default().cores);
        assert_eq!(cfg.topology, nicsim::Topology::default());
        assert_eq!(cfg.faults, None, "no --faults, no plan");
    }

    /// `--faults` reaches every configuration a binary builds, not only
    /// the ones that remembered to ask `exp.faults()`.
    #[test]
    fn configure_installs_the_fault_plan() {
        let args = parse(&["--faults", "seed=1,rate=0.1"]).unwrap();
        let plan = args.exp.faults();
        assert_eq!(plan.map(|p| p.seed), Some(1));
        for cfg in [NicConfig::default(), NicConfig::software_only_200()] {
            assert_eq!(args.configure(cfg).faults, plan);
        }
    }
}
