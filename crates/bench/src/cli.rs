//! The one command-line surface every registry entry shares.
//!
//! [`Args::parse_from`] walks the command line once, and an argument
//! nobody recognises is a usage error. The engine's flags are `--jobs
//! N`, `--quiet`, `--trace PATH` (a traced run's Chrome `trace_event`
//! output) and `--faults SPEC`; the simulator-level flags are:
//!
//! * `--dispatch polling|interrupt` — the firmware dispatch mode
//!   ablation axis ([`DispatchMode`]);
//! * `--cores N` — override the core count of every configuration the
//!   entry builds;
//! * `--dma-engines N` — the frame-side topology override (the
//!   `archsweep` axis): DMA engine pairs per configuration;
//! * `--nics N` / `--shards N` / `--workload SPEC` — fleet-level
//!   overrides for entries that run multi-NIC fleets (fleet size,
//!   worker-thread shards, and a `nicsim_net::Workload` spec string
//!   such as `pattern=incast,target=0,fps=2e5`).
//!
//! Each flag is given at most once: a repeat is a usage error, not a
//! silent override. An entry that does not list a [`GATED`] flag in its
//! `reads` refuses it, so no flag is silently ignored. Entries route
//! each configuration they construct through [`Args::configure`], so
//! the overrides — and a `--faults` plan, which every entry accepts —
//! apply uniformly: sweeps that set their own core axis simply assign
//! `cores` after `configure` and win, and an override the
//! configuration cannot take (`--cores 2` on the single-core ideal
//! firmware) is a usage error, not a panic.

use nicsim::{ConfigError, DispatchMode, FaultPlan, NicConfig};
use nicsim_exp::Experiment;
use std::path::PathBuf;

/// The flags an entry must list in its `reads` to accept.
pub const GATED: [&str; 4] = ["--trace", "--nics", "--shards", "--workload"];

/// Parsed shared command line: the experiment engine plus the
/// simulator-level overrides.
pub struct Args {
    /// The experiment engine (windows, jobs, results output).
    pub exp: Experiment,
    /// `--trace`: the Chrome `trace_event` output path, if given.
    pub trace: Option<PathBuf>,
    /// `--faults`: the fault plan [`Args::configure`] installs, if given.
    /// Under a plan the engine skips the end-to-end cleanliness
    /// assertions, and the report carries `err_*` counters plus the
    /// plan's spec string.
    pub faults: Option<FaultPlan>,
    /// `--dispatch`: how the firmware waits for work (default polling,
    /// the paper's Figure 5).
    pub dispatch: DispatchMode,
    /// `--cores`: core-count override, if given.
    pub cores: Option<usize>,
    /// `--dma-engines`: DMA engine pair count override, if given.
    pub dma_engines: Option<usize>,
    /// `--nics`: fleet size override, if given (fleet entries only).
    pub nics: Option<usize>,
    /// `--shards`: fleet thread count override, the calling thread
    /// included, if given (fleet entries only).
    pub shards: Option<usize>,
    /// `--workload`: fleet workload spec override, if given (fleet
    /// entries only; parsed eagerly so typos fail at startup).
    pub workload: Option<nicsim_net::Workload>,
}

impl Args {
    /// Parse `argv` for the entry `name`, which reads the [`GATED`]
    /// flags listed in `reads`.
    ///
    /// # Errors
    ///
    /// Returns the usage line for a malformed or missing value, or a
    /// message naming an argument this layer does not recognise or a
    /// gated flag the entry does not read.
    pub fn parse_from(name: &str, reads: &[&str], argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            exp: Experiment::new(name),
            trace: None,
            faults: None,
            dispatch: DispatchMode::Polling,
            cores: None,
            dma_engines: None,
            nics: None,
            shards: None,
            workload: None,
        };
        let (mut jobs, mut quiet) = (args.exp.jobs_configured(), false);
        parse_flags(argv, |flag, value| {
            if GATED.contains(&flag) && !reads.contains(&flag) {
                return Err(format!("{name} does not read {flag}"));
            }
            let mut count = || {
                value()
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{flag} needs a positive integer"))
            };
            match flag {
                "--quiet" => quiet = true,
                "--jobs" => jobs = count()?,
                "--trace" => {
                    // Checked here, so a path the trace cannot be
                    // written to stops the command before the runs
                    // whose trace it would hold.
                    let path = PathBuf::from(value()?);
                    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
                    if path.is_dir() || dir.is_some_and(|d| !d.is_dir()) {
                        let path = path.display();
                        return Err(format!(
                            "--trace {path}: not a file in an existing directory"
                        ));
                    }
                    args.trace = Some(path);
                }
                "--faults" => {
                    let v = value()?;
                    // Validated through the same builder path
                    // configurations take, so `--faults` and
                    // `NicConfigBuilder::faults_spec` share one grammar
                    // and one error surface.
                    let built = NicConfig::builder()
                        .faults_spec(v)
                        .and_then(|b| b.build())
                        .map_err(|e| format!("--faults {v}: {e}"))?;
                    args.faults = built.faults;
                }
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
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        args.exp = args.exp.jobs(jobs);
        args.exp = if quiet { args.exp.quiet() } else { args.exp };
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
        cfg.faults = self.faults.or(cfg.faults);
        if let Some(c) = self.cores {
            cfg.cores = c;
        }
        if let Some(d) = self.dma_engines {
            cfg.dma_engines = d;
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Walk a command line once. Each argument is split into its flag and
/// a getter for the flag's value (`--flag=value`, or the next argument
/// for `--flag value`) and handed to `accept`, which answers whether it
/// recognised the flag.
///
/// # Errors
///
/// Returns `accept`'s error, or one naming the first argument `accept`
/// did not recognise or the first flag given twice.
fn parse_flags<'a>(
    argv: &'a [String],
    mut accept: impl FnMut(&str, &mut dyn FnMut() -> Result<&'a str, String>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut rest = argv.iter();
    let mut seen = Vec::new();
    while let Some(arg) = rest.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, v)) => (flag, Some(v)),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .or_else(|| rest.next().map(String::as_str))
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        if !accept(flag, &mut value)? {
            return Err(format!("unknown argument '{arg}'"));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        seen.push(flag);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse as registry entry `name`, or as an entry that reads every
    /// gated flag.
    fn parse_as(name: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        let reads = crate::REGISTRY
            .iter()
            .find(|e| e.name == name)
            .map_or(&GATED[..], |e| e.reads);
        Args::parse_from(name, reads, &argv)
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_as("t", argv)
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
            (&["--trace", "/nonexistent/dir/x.json"], "--trace"),
            (&["--trace", "."], "--trace"),
            // A repeated flag would silently keep its last value.
            (
                &["--workload", "fps=1e5", "--workload", "fps=2e5"],
                "--workload given twice",
            ),
            (&["--cores", "2", "--cores=3"], "--cores given twice"),
            (&["--quiet", "--quiet"], "--quiet given twice"),
            (
                &["--faults", "crc=0.1", "--faults", "crc=0.1"],
                "--faults given twice",
            ),
            // A spec's own grammar errors name the item.
            (&["--workload", "fps=1e5,fps=2e5"], "fps=2e5"),
            (&["--faults", "crc=0.5,rate=1e-3"], "rate=1e-3"),
        ] {
            let err = parse(argv)
                .err()
                .unwrap_or_else(|| panic!("{argv:?} parsed"));
            assert!(err.contains(names), "{argv:?}: {err}");
        }
        // A gated flag the entry does not read names the entry and the
        // flag instead of being silently ignored.
        for (name, argv, flag) in [
            ("table3", &["--trace", "t.json"], "--trace"),
            ("table1", &["--nics", "4"], "--nics"),
        ] {
            let err = parse_as(name, argv)
                .err()
                .unwrap_or_else(|| panic!("{name} {argv:?} parsed"));
            assert!(err.contains(name) && err.contains(flag), "{argv:?}: {err}");
        }
        assert!(parse_as("BENCH_trace", &["--trace", "t.json"]).is_ok());
        assert!(parse_as("fleet", &["--nics", "4"]).is_ok());
    }

    #[test]
    fn configure_applies_overrides() {
        let args = parse(&["--dispatch=interrupt", "--cores=3", "--dma-engines=2"]).unwrap();
        let cfg = args.configure(NicConfig::default());
        assert_eq!(cfg.dispatch, DispatchMode::Interrupt);
        assert_eq!(cfg.cores, 3);
        assert_eq!(cfg.dma_engines, 2);
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
        assert_eq!(cfg.dma_engines, 1);
        assert_eq!(cfg.faults, None, "no --faults, no plan");
    }

    /// `--faults` reaches every configuration an entry builds, not only
    /// the ones that remembered to read `args.faults`.
    #[test]
    fn configure_installs_the_fault_plan() {
        let args = parse(&["--faults", "seed=1,rate=0.1"]).unwrap();
        let plan = args.faults;
        assert_eq!(plan.map(|p| p.seed), Some(1));
        for cfg in [NicConfig::default(), NicConfig::software_only_200()] {
            assert_eq!(args.configure(cfg).faults, plan);
        }
    }
}
