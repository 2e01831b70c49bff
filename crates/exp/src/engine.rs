//! The experiment engine: run configurations — serially or across a
//! pool of work-stealing worker threads — with the standard measurement
//! methodology, and persist structured results.
//!
//! Each `NicSystem` is single-threaded and fully deterministic, so the
//! runs of a sweep are embarrassingly parallel: workers pull the next
//! un-started run off a shared counter, and results land in declaration
//! order regardless of completion order. A sweep therefore produces
//! bit-identical statistics whether it runs with `--jobs 1` or
//! `--jobs 32` (asserted by `tests/determinism`).

use crate::json::Json;
use crate::report::{RunReport, SweepReport};
use crate::sweep::{RunSpec, Sweep};
use nicsim::{ConfigError, FaultPlan, NicConfig, NicSystem, NullProbe, Probe};
use nicsim_sim::Ps;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A named experiment: measurement windows, worker count, and results
/// location. The single entry point for running configurations —
/// one-offs ([`run`](Experiment::run)) and declared sweeps
/// ([`sweep`](Experiment::sweep)) share the same methodology.
pub struct Experiment {
    name: String,
    warmup: Ps,
    window: Ps,
    jobs: usize,
    out_dir: PathBuf,
    quiet: bool,
    trace_path: Option<PathBuf>,
    faults: Option<FaultPlan>,
    started: Instant,
}

impl Experiment {
    /// Create an experiment from the environment:
    ///
    /// * `NICSIM_QUICK=1` shrinks the warm-up/measure windows from
    ///   2 ms/4 ms to 1 ms/1 ms of simulated time (smoke runs);
    /// * `NICSIM_JOBS=<n>` sets the worker count (default: available
    ///   hardware parallelism);
    /// * `NICSIM_RESULTS_DIR=<dir>` overrides the `results/` output
    ///   directory;
    /// * `NICSIM_QUIET=1` silences per-run progress on stderr.
    pub fn new(name: &str) -> Experiment {
        let (warmup_ms, window_ms) = if env_is("NICSIM_QUICK", "1") {
            (1, 1)
        } else {
            (2, 4)
        };
        let jobs = std::env::var("NICSIM_JOBS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(default_jobs);
        let out_dir = std::env::var("NICSIM_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        Experiment {
            name: name.to_string(),
            warmup: Ps::from_ms(warmup_ms),
            window: Ps::from_ms(window_ms),
            jobs,
            out_dir,
            quiet: env_is("NICSIM_QUIET", "1"),
            trace_path: None,
            faults: None,
            started: Instant::now(),
        }
    }

    /// Apply one command-line flag if it is one of the engine's
    /// (`--jobs <n>`, `--quiet`, `--trace <path>`, `--faults <spec>`;
    /// `Ok(false)`: not ours), pulling its value from `value`.
    /// Binaries with flags of their own call this from their
    /// [`parse_flags`] callback for whatever they do not recognise, so
    /// the command line is walked once.
    ///
    /// # Errors
    ///
    /// Returns the usage line for a missing or malformed value.
    pub fn accept_flag<'a>(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut() -> Result<&'a str, String>,
    ) -> Result<bool, String> {
        match flag {
            "--quiet" => self.quiet = true,
            "--jobs" => {
                self.jobs = value()
                    .ok()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .ok_or("usage: --jobs <positive integer>")?;
            }
            "--trace" => {
                self.trace_path = Some(PathBuf::from(
                    value().map_err(|_| "usage: --trace <output path>")?,
                ));
            }
            "--faults" => {
                let v = value()
                    .map_err(|_| "usage: --faults <spec>, e.g. --faults seed=7,rate=1e-4")?;
                self.faults = Some(parse_faults(v)?);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Where `--trace <path>` asked for a Chrome `trace_event` JSON
    /// file, if it did. Binaries that support tracing check this and
    /// run their traced configuration through
    /// [`Experiment::run_with_probe`] with a
    /// [`nicsim::ChromeTrace`] sink.
    pub fn trace_path(&self) -> Option<&std::path::Path> {
        self.trace_path.as_deref()
    }

    /// The fault plan `--faults <spec>` asked for, if any. The bench
    /// binaries' shared `Args::configure` installs it in every
    /// configuration they run; under a plan the engine
    /// skips the end-to-end cleanliness assertions — drops and retries
    /// are the point — and the report carries `err_*` counters plus the
    /// plan's spec string.
    pub fn faults(&self) -> Option<FaultPlan> {
        self.faults
    }

    /// Override the worker-thread count (clamped to at least 1).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Experiment {
        self.jobs = jobs.max(1);
        self
    }

    /// Override the warm-up and measurement windows (milliseconds of
    /// simulated time).
    #[must_use]
    pub fn windows_ms(mut self, warmup_ms: u64, window_ms: u64) -> Experiment {
        self.warmup = Ps::from_ms(warmup_ms);
        self.window = Ps::from_ms(window_ms);
        self
    }

    /// Override the results directory.
    #[must_use]
    pub fn out_dir(mut self, dir: impl Into<PathBuf>) -> Experiment {
        self.out_dir = dir.into();
        self
    }

    /// Silence per-run progress reporting.
    #[must_use]
    pub fn quiet(mut self) -> Experiment {
        self.quiet = true;
        self
    }

    /// The experiment name (and results file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured worker count.
    pub fn jobs_configured(&self) -> usize {
        self.jobs
    }

    /// Run one configuration with the standard methodology (warm up,
    /// measure, validate every frame) and return its report.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (check it first with
    /// [`NicConfig::validate`]) or if end-to-end validation fails.
    pub fn run(&self, label: &str, cfg: NicConfig) -> RunReport {
        self.run_with_probe(label, cfg, NullProbe).0
    }

    /// [`Experiment::run`] with an observability probe attached — every
    /// frame-lifecycle event of warmup and window goes to `probe` —
    /// returning the simulated system beside the report, for post-run
    /// inspection (trace extraction for the coherence and ILP studies)
    /// and to hand the probe back ([`NicSystem::unwrap_probe`],
    /// [`NicSystem::probe`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`Experiment::run`].
    pub fn run_with_probe<P: Probe>(
        &self,
        label: &str,
        cfg: NicConfig,
        probe: P,
    ) -> (RunReport, NicSystem<P>) {
        let out = self.measure(&RunSpec::single(label, cfg), probe);
        self.progress(1, 1, &out.0);
        out
    }

    /// Expand and run a declared sweep across the worker pool, in
    /// parallel, returning reports in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if any expanded configuration is invalid (use
    /// [`Experiment::try_sweep`]) or any run fails validation.
    pub fn sweep(&self, sweep: &Sweep) -> SweepReport {
        match self.try_sweep(sweep) {
            Ok(report) => report,
            Err(e) => panic!("experiment '{}': invalid sweep: {e}", self.name),
        }
    }

    /// Fallible [`Experiment::sweep`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any expanded configuration is
    /// invalid; nothing runs in that case.
    pub fn try_sweep(&self, sweep: &Sweep) -> Result<SweepReport, ConfigError> {
        let specs = sweep.runs()?;
        Ok(self.run_specs(specs))
    }

    /// Run an explicit list of specs across the worker pool and collect
    /// a report (the lower-level form of [`Experiment::sweep`]).
    ///
    /// # Panics
    ///
    /// Panics if any configuration is invalid or fails validation.
    pub fn run_specs(&self, specs: Vec<RunSpec>) -> SweepReport {
        // Work-stealing: scoped workers pull the next un-started spec
        // from a shared counter until none remain. One worker runs the
        // specs in declaration order.
        let total = specs.len();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<RunReport>>> = (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(total) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let (report, _) = self.measure(&specs[i], NullProbe);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    self.progress(finished, total, &report);
                    *slots[i].lock().expect("result slot") = Some(report);
                });
            }
        });
        let runs = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every spec ran to completion")
            })
            .collect();
        self.report(runs)
    }

    /// Wrap finished runs into a [`SweepReport`] carrying this
    /// experiment's methodology metadata.
    pub fn report(&self, runs: Vec<RunReport>) -> SweepReport {
        SweepReport {
            experiment: self.name.clone(),
            jobs: self.jobs,
            warmup_ms: ps_to_ms(self.warmup),
            window_ms: ps_to_ms(self.window),
            runs,
            wall: self.started.elapsed(),
            extra: None,
        }
    }

    /// Serialize a report to `<out_dir>/<experiment>.json` and return
    /// the path.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing
    /// the file.
    pub fn write(&self, report: &SweepReport) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{}.json", report.experiment));
        std::fs::write(&path, report.to_json(git_describe()).pretty())?;
        if !self.quiet {
            eprintln!("wrote {}", path.display());
        }
        Ok(path)
    }

    /// Run a report through [`Experiment::report`] + [`Experiment::write`]
    /// in one call: the common tail of every bench binary.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from [`Experiment::write`].
    pub fn finish(&self, runs: Vec<RunReport>, extra: Option<Json>) -> io::Result<SweepReport> {
        let mut report = self.report(runs);
        report.extra = extra;
        self.write(&report)?;
        Ok(report)
    }

    /// Build, warm up, measure and check one spec. No progress line:
    /// callers report on completion so sweep counters stay monotone.
    fn measure<P: Probe>(&self, spec: &RunSpec, probe: P) -> (RunReport, NicSystem<P>) {
        let start = Instant::now();
        let label = &spec.label;
        let mut sys = match NicSystem::build(spec.cfg).probe(probe).finish() {
            Ok(sys) => sys,
            Err(e) => panic!("run '{label}': invalid NicConfig: {e}"),
        };
        let stats = sys.run_measured(self.warmup, self.window);
        assert!(
            spec.cfg.faults.is_some()
                || (stats.tx_errors == 0 && stats.rx_corrupt == 0 && stats.rx_out_of_order == 0),
            "run '{label}' failed end-to-end validation: {} tx errors, {} corrupt, {} out of order",
            stats.tx_errors,
            stats.rx_corrupt,
            stats.rx_out_of_order
        );
        let report = RunReport {
            label: label.clone(),
            axes: spec.axes.clone(),
            config: spec.cfg,
            stats,
            latency: None,
            wall: start.elapsed(),
        };
        (report, sys)
    }

    fn progress(&self, finished: usize, total: usize, report: &RunReport) {
        if !self.quiet {
            eprintln!(
                "[{}] [{finished}/{total}] {}: {:.2} Gb/s duplex ({:.1}s)",
                self.name,
                report.label,
                report.stats.total_udp_gbps(),
                report.wall.as_secs_f64()
            );
        }
    }
}

fn ps_to_ms(ps: Ps) -> u64 {
    ps.0 / 1_000_000_000
}

fn env_is(key: &str, value: &str) -> bool {
    std::env::var(key).is_ok_and(|v| v == value)
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Walk a command line once. Each argument is split into its flag and
/// a getter for the flag's value (`--flag=value`, or the next argument
/// for `--flag value`) and handed to `accept`, which answers whether it
/// recognised the flag.
///
/// # Errors
///
/// Returns `accept`'s error, or one naming the first argument `accept`
/// did not recognise.
pub fn parse_flags<'a>(
    argv: &'a [String],
    mut accept: impl FnMut(&str, &mut dyn FnMut() -> Result<&'a str, String>) -> Result<bool, String>,
) -> Result<(), String> {
    let mut rest = argv.iter();
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
    }
    Ok(())
}

fn parse_faults(v: &str) -> Result<FaultPlan, String> {
    // Validated through the same builder path configurations take, so
    // `--faults` and `NicConfigBuilder::faults_spec` share one grammar
    // and one error surface.
    let built = NicConfig::builder()
        .faults_spec(v)
        .and_then(|b| b.build())
        .map_err(|e| format!("--faults {v}: {e}"))?;
    Ok(built.faults.expect("faults_spec installs a plan"))
}

/// `git describe --always --dirty` of the working tree, cached for the
/// process; `None` when git or the repository is unavailable.
pub fn git_describe() -> Option<&'static str> {
    static GIT: OnceLock<Option<String>> = OnceLock::new();
    GIT.get_or_init(|| {
        let out = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty", "--tags"])
            .output()
            .ok()?;
        if !out.status.success() {
            return None;
        }
        let s = String::from_utf8(out.stdout).ok()?.trim().to_string();
        (!s.is_empty()).then_some(s)
    })
    .as_deref()
}
