//! One workload, one process: a discarded warm-up repetition, timed
//! repetitions with tracing off, then (when asked) one traced
//! repetition. This is both the interface `BENCHMARK.json` names and
//! the child `perf run` starts per workload, so `peak_rss_mb` is the
//! workload's own.

use crate::kernels;
use crate::spans::Spans;
use crate::spec::{self, PER_LAYER};
use crate::stats::{quiet_sum, Summary};
use crate::workloads::{self, Plan, Rep};
use nicsim::NullProbe;
use nicsim_exp::Json;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// End-to-end metrics only.
    Off,
    /// Per-layer metrics only: one untraced reference repetition, the
    /// traced repetition, and the isolated kernels.
    On,
    /// Both sets, for `perf run`, which times the kernels itself.
    Both,
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Keep starting timed repetitions until this much host time has
    /// gone into them.
    pub seconds: f64,
    pub trace: Trace,
    /// Simulated spans / 20 and two repetitions: a gate, not a number.
    pub smoke: bool,
}

/// Fewest timed repetitions the fastest is taken over.
const MIN_REPS: usize = 3;
const SMOKE_REPS: usize = 2;

/// Where results and span files go: `perf/results/`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One metric as the contract writes it.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// Print one metric by name, with its unit.
pub fn print_metric(who: &str, name: &str, value: f64, unit: &str) {
    println!("{who:<16} {name:<36} {value:>16.6} {unit}");
}

/// Measure one workload: print every metric, write
/// `perf/results/<workload>.json` (and the span file of a traced run),
/// and return the contract's result line.
pub fn run(args: &Args) -> Result<Json, String> {
    let plan = workloads::plan(&args.workload, args.seed, args.smoke)?;
    let mut spans = Spans::new();
    let untraced = |spans: &mut Spans| match &plan {
        Plan::Nic(p) => workloads::nic_rep(p, NullProbe, false, spans).0,
        Plan::Fleet(p) => workloads::fleet_rep(p, 1, false, spans).0,
    };
    let mut failures: Vec<String> = Vec::new();
    let mut check = |run: &str, rep: &Rep, reference: Option<&Rep>| {
        for f in &rep.failures {
            failures.push(format!("{} {run}: {f}", args.workload));
        }
        if let Some(first) = reference {
            if rep.digest != first.digest {
                failures.push(format!(
                    "{} {run}: sim_digest {:016x} differs from the warm-up repetition's {:016x}",
                    args.workload, rep.digest, first.digest
                ));
            }
        }
    };

    spans.set_run("warmup");
    let first = untraced(&mut spans);
    check("warmup", &first, None);

    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        let enough = match (args.trace, args.smoke) {
            (Trace::On, _) => !reps.is_empty(),
            (_, true) => reps.len() >= SMOKE_REPS,
            (_, false) => reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= args.seconds,
        };
        if enough {
            break;
        }
        let run = format!("rep{}", reps.len());
        spans.set_run(&run);
        let rep = untraced(&mut spans);
        check(&run, &rep, Some(&first));
        reps.push(rep);
    }
    let rss_mb = peak_rss_mb()?;
    let run_samples: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let setup_samples: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run_s = Summary::of(&run_samples);
    let setup_s = Summary::of(&setup_samples);
    // Host-time metrics take the fastest sample, slice by slice: noise
    // on a shared host only ever adds time.
    let slices: Vec<&[f64]> = reps.iter().map(|r| r.slice_s.as_slice()).collect();
    let quiet_run_s = quiet_sum(&slices);

    let end_to_end: Vec<(String, Json)> = [
        ("sim_mcps", first.sim_cycles as f64 / quiet_run_s / 1e6),
        ("host_us_per_frame", quiet_run_s * 1e6 / first.frames as f64),
        ("setup_s", setup_s.min),
        ("peak_rss_mb", rss_mb),
        ("sim_udp_gbps", first.sim_udp_gbps),
        ("goodput_frac", first.goodput_frac()),
        ("frames_ok_frac", first.frames_ok_frac()),
    ]
    .into_iter()
    .map(|(name, value)| {
        let unit = spec::end_to_end(name).expect("named in spec").unit;
        (name.to_string(), metric(value, unit))
    })
    .collect();

    let mut per_layer: Vec<(String, Json)> = Vec::new();
    let mut not_applicable: Vec<&str> = Vec::new();
    if args.trace != Trace::Off {
        spans.set_run("traced");
        let (traced, mut layers) = match &plan {
            Plan::Nic(p) => {
                let (rep, observed) =
                    workloads::nic_rep(p, workloads::trace_probe(), true, &mut spans);
                let layers = workloads::nic_layers(&rep, &observed);
                (rep, layers)
            }
            Plan::Fleet(p) => {
                let (rep, observed) = workloads::fleet_rep(p, 1, true, &mut spans);
                let layers = workloads::fleet_layers(p, &rep, &observed);
                (rep, layers)
            }
        };
        check("traced", &traced, Some(&first));
        layers.push(("perf.trace_overhead_frac", traced.run_s / quiet_run_s - 1.0));
        if let Plan::Fleet(p) = &plan {
            if !p.faulted {
                let mut failed = Vec::new();
                layers.extend(workloads::fleet_differentials(
                    p,
                    &traced,
                    &mut spans,
                    &mut failed,
                ));
                for f in failed {
                    failures.push(format!("{} traced: {f}", args.workload));
                }
            }
        }
        if args.trace == Trace::On {
            layers.extend(kernels::run_all(args.smoke));
        }
        // The contract wants every per-layer metric from every
        // workload: one this workload has no layer for reads zero and
        // is listed. `perf run` (`Both`) times the kernels itself.
        for m in &PER_LAYER {
            let value = match layers.iter().find(|(n, _)| *n == m.name) {
                Some((_, v)) => *v,
                None if args.trace == Trace::Both && spec::is_kernel_metric(m.name) => continue,
                None => {
                    not_applicable.push(m.name);
                    0.0
                }
            };
            per_layer.push((m.name.to_string(), metric(value, m.unit)));
        }
    }

    let correct = failures.is_empty();
    let detail = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("comparable", !args.smoke)
        .with("reps", reps.len())
        .with("sim_digest", format!("{:016x}", first.digest))
        .with("correct", correct)
        .with(
            "failures",
            Json::Arr(failures.iter().map(|f| f.as_str().into()).collect()),
        )
        .with("attempted", first.attempted)
        .with("failed", first.invalid)
        .with("undelivered", first.undelivered)
        .with("frames", first.frames)
        .with("sim_cycles", first.sim_cycles)
        .with(
            "host_time",
            Json::obj()
                .with(
                    "run_s",
                    run_s
                        .to_json()
                        .with("quiet_sum", quiet_run_s)
                        .with("samples", run_samples),
                )
                .with("setup_s", setup_s.to_json().with("samples", setup_samples)),
        )
        .with("end_to_end", Json::Obj(end_to_end.clone()))
        .with("per_layer", Json::Obj(per_layer.clone()))
        .with(
            "not_applicable",
            Json::Arr(not_applicable.iter().map(|n| (*n).into()).collect()),
        );

    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let write = |file: String, doc: &Json| {
        let path = dir.join(file);
        std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(format!("{}.json", args.workload), &detail)?;
    if args.trace != Trace::Off {
        write(format!("spans_{}.json", args.workload), &spans.to_json())?;
    }

    // `--trace 0` reports the end-to-end set, `--trace 1` the
    // per-layer set (empty when untraced), `both` both.
    let mut metrics = per_layer;
    if args.trace != Trace::On {
        metrics.splice(0..0, end_to_end);
    }
    for (name, m) in &metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        print_metric(&args.workload, name, value, unit);
    }
    Ok(Json::obj()
        .with("correct", correct)
        .with("attempted", first.attempted)
        .with("failed", first.invalid)
        .with("metrics", Json::Obj(metrics)))
}
