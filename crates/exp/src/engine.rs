//! The experiment engine: run configurations — serially or across a
//! pool of work-stealing worker threads — with the standard measurement
//! methodology, and persist structured results.
//!
//! An experiment is a plain list of [`RunSpec`]s, built with ordinary
//! loops. Each `NicSystem` is single-threaded and fully deterministic,
//! so the runs are embarrassingly parallel: workers pull the next
//! un-started run off a shared counter, and results land in the order
//! given regardless of completion order. A list therefore produces
//! bit-identical statistics whether it runs with `--jobs 1` or
//! `--jobs 32` (asserted by `tests/determinism`).

use crate::json::Json;
use crate::report::{RunReport, SweepReport};
use nicsim::{ConfigError, NicConfig, NicSystem, NullProbe, Probe};
use nicsim_sim::Ps;
use std::fmt::Display;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One run of an experiment: its label, its coordinates, and the
/// configuration it simulates.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// `"axis=value,axis=value"` for a grid point.
    pub label: String,
    /// `(axis name, value)` pairs in axis order; empty for a single run.
    pub axes: Vec<(String, String)>,
    /// The configuration this run simulates.
    pub cfg: NicConfig,
}

impl RunSpec {
    /// A single labeled run outside any grid.
    pub fn single(label: &str, cfg: NicConfig) -> RunSpec {
        RunSpec {
            label: label.to_string(),
            axes: Vec::new(),
            cfg,
        }
    }

    /// The run of `cfg` at one grid point: `axes` names each coordinate
    /// and its value, in order, and the label is `"name=value,…"`.
    pub fn at(cfg: NicConfig, axes: &[(&str, &dyn Display)]) -> RunSpec {
        let axes: Vec<(String, String)> = axes
            .iter()
            .map(|(name, value)| (name.to_string(), value.to_string()))
            .collect();
        let label = axes
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect::<Vec<_>>()
            .join(",");
        RunSpec { label, axes, cfg }
    }
}

/// A named experiment: measurement windows, worker count, and results
/// location. The single entry point for running configurations —
/// one-offs ([`run`](Experiment::run)) and lists of runs
/// ([`run_all`](Experiment::run_all)) share the same methodology, and
/// [`finish`](Experiment::finish) writes the results file.
pub struct Experiment {
    name: String,
    warmup: Ps,
    window: Ps,
    quick: bool,
    jobs: usize,
    out_dir: PathBuf,
    quiet: bool,
    started: Instant,
}

impl Experiment {
    /// Create an experiment with the available hardware parallelism as
    /// its worker count, from the environment:
    ///
    /// * `NICSIM_QUICK=1` shrinks the warm-up/measure windows from
    ///   2 ms/4 ms to 1 ms/1 ms of simulated time (smoke runs);
    /// * `NICSIM_RESULTS_DIR=<dir>` overrides the `results/` output
    ///   directory.
    pub fn new(name: &str) -> Experiment {
        let quick = std::env::var("NICSIM_QUICK").is_ok_and(|v| v == "1");
        let (warmup_ms, window_ms) = if quick { (1, 1) } else { (2, 4) };
        let out_dir = std::env::var("NICSIM_RESULTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        Experiment {
            name: name.to_string(),
            warmup: Ps::from_ms(warmup_ms),
            window: Ps::from_ms(window_ms),
            quick,
            jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
            out_dir,
            quiet: false,
            started: Instant::now(),
        }
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

    /// The results directory.
    pub fn results_dir(&self) -> &Path {
        &self.out_dir
    }

    /// The experiment name (and results file stem).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured worker count.
    pub fn jobs_configured(&self) -> usize {
        self.jobs
    }

    /// Whether `NICSIM_QUICK=1` shrank the windows: entries that pick
    /// their own windows shrink them too.
    pub fn is_quick(&self) -> bool {
        self.quick
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
    /// event of warmup and window in the classes `probe` reads goes to
    /// it — returning the simulated system beside the report, for
    /// post-run inspection and to hand the probe back
    /// ([`NicSystem::unwrap_probe`], [`NicSystem::probe`]). The Figure 3
    /// coherence study's access trace and Table 2's op trace (the work
    /// class, [`Probe::WORK_EVENTS`]) are such probes.
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

    /// Run every spec across the worker pool and return the reports in
    /// the order given. One worker runs them in that order; more
    /// workers pull the next un-started spec off a shared counter.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] any spec's configuration
    /// violates; every spec is checked before any run starts.
    ///
    /// # Panics
    ///
    /// Panics if a run fails end-to-end validation.
    pub fn run_all(&self, specs: &[RunSpec]) -> Result<Vec<RunReport>, ConfigError> {
        for spec in specs {
            spec.cfg.validate()?;
        }
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
        Ok(slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every spec ran to completion")
            })
            .collect())
    }

    /// Wrap finished runs and `extra` (appended verbatim under
    /// `"extra"`) into a [`SweepReport`] carrying this experiment's
    /// methodology metadata, and write it to
    /// `<out_dir>/<experiment>.json`: the common tail of every `repro`
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the directory or writing
    /// the file.
    pub fn finish(&self, runs: Vec<RunReport>, extra: Option<Json>) -> io::Result<SweepReport> {
        let report = SweepReport {
            experiment: self.name.clone(),
            jobs: self.jobs,
            warmup_ms: ps_to_ms(self.warmup),
            window_ms: ps_to_ms(self.window),
            runs,
            wall: self.started.elapsed(),
            extra,
        };
        std::fs::create_dir_all(&self.out_dir)?;
        let path = self.out_dir.join(format!("{}.json", self.name));
        std::fs::write(&path, report.to_json(git_describe()).pretty())?;
        if !self.quiet {
            eprintln!("wrote {}", path.display());
        }
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
