//! Simulation-speed benchmark: dense reference kernel vs the hybrid
//! event-driven kernel, on the workloads the paper's figures hinge on.
//!
//! Two saturated configurations bracket the polling speedup range:
//!
//! * 1 core @ 200 MHz (a Figure 7 point): the firmware is the
//!   bottleneck and core stall spans (multi-cycle ALU runs, I-miss
//!   fills) let the event kernel skip ~34% of cycles and bypass idle
//!   components on the rest — measured ~1.7x wall-clock, floor 1.4x.
//!   The skip fraction is structural, not an implementation gap: the
//!   paper's firmware is a *polling* design, so even a quiescent NIC
//!   keeps a scratchpad load in flight on roughly half of all cycles
//!   (the dispatch loop sweeps ten event sources), and saturated
//!   firmware issues an op every 1-2 cycles.
//! * 6 cores @ 200 MHz (the line-rate configuration): nearly every
//!   cycle has crossbar traffic, so nothing is skippable — the event
//!   kernel must at least break even (per-component gating pays for
//!   the wake checks; measured ~1.05x).
//!
//! Two moderate-load points (1 core, receive-only, 20k frames/s —
//! well under what one core sustains) expose the dispatch-mode ceiling
//! that motivates interrupt-driven firmware: polling busy-waits through
//! the quiet gaps so the event kernel still steps most cycles, while
//! under `--dispatch interrupt` the core parks in `wfi` and the doorbell
//! watch makes whole inter-frame gaps skippable — floor 3x over dense,
//! measured far above it.
//!
//! Each configuration runs on both kernels with identical windows; the
//! stats must be bit-identical (the equivalence guarantee, re-asserted
//! here on the real benchmark workload, on every run). A full run times
//! each kernel as the fastest of three runs, alternating dense and
//! event so a slow spell on a shared host lands on both: a single shot
//! per side read the 6-core point at 0.99x, 0.93x and 1.06x against its
//! 0.95x floor in three back-to-back runs. Results land in
//! `results/BENCH_simspeed.json` with per-point wall times, simulated
//! cycles, cycles-per-host-second, speedups, and the skipped/stepped
//! split (`scripts/bench_compare.sh` diffs two such files).
//!
//! Smoke mode (`NICSIM_SIMSPEED_SMOKE=1`, implied by `NICSIM_QUICK=1`)
//! shrinks the windows, times each kernel once, and exits non-zero on a
//! correctness mismatch or an event-kernel slowdown beyond 30% — the CI
//! guardrail.
//!
//! Overhead guard: `NICSIM_SIMSPEED_BASELINE=<results file>` compares
//! the saturated polling points' `cycles_per_host_sec` against the
//! committed baseline (`results/BENCH_simspeed.json`) and fails on a
//! regression beyond 5% (`NICSIM_BASELINE_TOL` overrides the
//! fraction; `scripts/check.sh` widens it — absolute throughput on a
//! shared CI host is noisy, and the in-process speedup floors are the
//! tight gates). This is how the
//! observability layer proves its disabled-probe ([`nicsim::NullProbe`])
//! path costs nothing: the simulator must still hit the throughput it
//! hit before the probe layer existed.

use nicsim::{DispatchMode, FwMode, NicConfig, NicSystem};
use nicsim_bench::{header, Args};
use nicsim_exp::{Json, RunReport};
use std::time::{Duration, Instant};

/// Timed runs per kernel in a full run; each side reports its fastest.
const FULL_REPS: usize = 3;

struct Point {
    label: &'static str,
    cfg: NicConfig,
    /// Whether the absolute cycles-per-host-second baseline guard
    /// applies. Only the saturated polling points carry it: their wall
    /// times are long enough for the tolerance to be signal, while the
    /// moderate-load rows finish in milliseconds and are already gated
    /// by their in-process speedup floors.
    guard_cps: bool,
    /// Minimum acceptable dense/event wall-clock ratio: the saturated
    /// 1-core point must show a real speedup (measured ~1.7x, floored at
    /// 1.4x to ride out host timing noise), the interrupt point a 3x,
    /// and the 6-core and polling points only "no meaningful
    /// regression".
    target_speedup: f64,
}

fn main() {
    // The shared CLI gives this binary the standard flag surface, but
    // the points below own their dispatch/core settings — applying
    // `args.configure` here would collapse the very axis the benchmark
    // measures.
    let args = Args::parse("BENCH_simspeed");
    let exp = &args.exp;
    header(
        "Simulation speed: dense vs event-driven kernels",
        "event kernel >= 1.4x on 1-core Fig 7 point, >= 3x under interrupt dispatch at moderate load, \
         no regression at 6-core line rate",
    );
    let smoke = env_is("NICSIM_SIMSPEED_SMOKE") || env_is("NICSIM_QUICK");
    // Smoke runs shrink further than NICSIM_QUICK's 1ms/1ms default:
    // wall-clock ratios stabilize within a 200us window and CI wants
    // this under a couple of seconds.
    let (warmup, window) = if smoke {
        (nicsim_sim::Ps::from_us(100), nicsim_sim::Ps::from_us(200))
    } else {
        (exp.warmup(), exp.window())
    };
    let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    // The moderate-load pair: identical traffic, only the dispatch mode
    // differs. Receive-only keeps the host send pacing out of the
    // picture so the gap measured is purely polling-vs-parking.
    let moderate = NicConfig::builder()
        .cores(1)
        .cpu_mhz(200)
        .mode(FwMode::SoftwareOnly)
        .send_enabled(false)
        .offered_rx_fps(Some(20_000.0))
        .build()
        .unwrap();
    let points = [
        Point {
            label: "cores=1,cpu_mhz=200",
            cfg: NicConfig::builder()
                .cores(1)
                .cpu_mhz(200)
                .mode(FwMode::SoftwareOnly)
                .build()
                .unwrap(),
            guard_cps: true,
            target_speedup: 1.4,
        },
        Point {
            label: "cores=6,cpu_mhz=200",
            cfg: NicConfig::builder()
                .cores(6)
                .cpu_mhz(200)
                .mode(FwMode::SoftwareOnly)
                .build()
                .unwrap(),
            guard_cps: true,
            target_speedup: 0.95,
        },
        Point {
            label: "cores=1,rx=20kfps,polling",
            cfg: moderate,
            guard_cps: false,
            target_speedup: 0.95,
        },
        Point {
            label: "cores=1,rx=20kfps,interrupt",
            cfg: moderate
                .to_builder()
                .dispatch(DispatchMode::Interrupt)
                .build()
                .unwrap(),
            guard_cps: false,
            target_speedup: 3.0,
        },
    ];

    let mut runs = Vec::new();
    let mut detail = Vec::new();
    let mut failures = Vec::new();
    println!(
        "{:>36} {:>10} {:>10} {:>8} {:>14}",
        "point", "dense s", "event s", "speedup", "Mcycles/host-s"
    );
    let reps = if smoke { 1 } else { FULL_REPS };
    for p in &points {
        let mut dense_wall = f64::INFINITY;
        let mut event_wall = f64::INFINITY;
        let mut stats_identical = true;
        let mut last = None;
        for _ in 0..reps {
            // Construction (SDRAM/scratchpad allocation) stays outside
            // the timed region: the benchmark measures kernel throughput.
            let mut dense_sys = NicSystem::build(p.cfg).finish().unwrap();
            let t0 = Instant::now();
            let dense_stats = dense_sys.run_measured_dense(warmup, window);
            dense_wall = dense_wall.min(t0.elapsed().as_secs_f64());

            let mut event_sys = NicSystem::build(p.cfg).finish().unwrap();
            let t0 = Instant::now();
            let event_stats = event_sys.run_measured(warmup, window);
            event_wall = event_wall.min(t0.elapsed().as_secs_f64());

            stats_identical &= event_stats == dense_stats;
            last = Some((event_stats, event_sys.kernel_cycle_split()));
        }
        let (event_stats, (skipped, stepped)) = last.expect("at least one rep");
        if !stats_identical {
            failures.push(format!("{}: kernels disagree on RunStats", p.label));
        }
        let skipped_fraction = skipped as f64 / (skipped + stepped).max(1) as f64;

        let sim_cycles = event_stats.core_ticks;
        let speedup = dense_wall / event_wall.max(1e-9);
        let cps = sim_cycles as f64 / event_wall.max(1e-9);
        println!(
            "{:>36} {:>10.3} {:>10.3} {:>7.2}x {:>14.1}",
            p.label,
            dense_wall,
            event_wall,
            speedup,
            cps / 1e6
        );
        // In smoke mode only the 30% guardrail applies (tiny windows
        // make ratios noisy); full runs check each point's target.
        let floor = if smoke {
            p.target_speedup.min(0.7)
        } else {
            p.target_speedup
        };
        if speedup < floor {
            failures.push(format!(
                "{}: event kernel speedup {speedup:.2}x over dense below floor {floor:.2}x",
                p.label
            ));
        }

        runs.push(RunReport {
            label: format!("event {}", p.label),
            axes: Vec::new(),
            config: p.cfg,
            stats: event_stats,
            latency: None,
            wall: Duration::from_secs_f64(event_wall),
        });
        detail.push(
            Json::obj()
                .with("point", p.label)
                .with("dense_wall_s", dense_wall)
                .with("event_wall_s", event_wall)
                .with("speedup", speedup)
                .with("sim_cycles", sim_cycles)
                .with("cycles_per_host_sec", cps)
                .with("skipped_cycles", skipped)
                .with("stepped_cycles", stepped)
                .with("skipped_fraction", skipped_fraction)
                .with("target_speedup", p.target_speedup)
                .with("stats_identical", stats_identical),
        );
        if let Some(base_cps) = baseline_cps(p.label).filter(|_| p.guard_cps) {
            let tol: f64 = std::env::var("NICSIM_BASELINE_TOL")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.05);
            let floor = base_cps * (1.0 - tol);
            println!(
                "{:>36} baseline {:.1} Mcycles/host-s, floor {:.1} (tol {:.0}%)",
                "",
                base_cps / 1e6,
                floor / 1e6,
                tol * 100.0
            );
            if cps < floor {
                failures.push(format!(
                    "{}: {:.1} Mcycles/host-s regressed more than {:.0}% below \
                     baseline {:.1}",
                    p.label,
                    cps / 1e6,
                    tol * 100.0,
                    base_cps / 1e6
                ));
            }
        }
    }

    // Smoke runs don't overwrite the committed full-run results.
    if smoke {
        println!("smoke mode: results file not written");
    } else {
        let extra = Json::obj()
            .with("warmup_us", warmup.0 / 1_000_000)
            .with("window_us", window.0 / 1_000_000)
            .with("hw_threads", hw_threads as u64)
            .with("reps", reps as u64)
            .with("kernels", Json::Arr(detail));
        exp.finish(runs, Some(extra)).expect("write results");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn env_is(key: &str) -> bool {
    std::env::var(key).is_ok_and(|v| v == "1")
}

/// The baseline `cycles_per_host_sec` for one benchmark point, from the
/// results file named by `NICSIM_SIMSPEED_BASELINE` (unset: no guard).
fn baseline_cps(label: &str) -> Option<f64> {
    let path = std::env::var("NICSIM_SIMSPEED_BASELINE").ok()?;
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match nicsim_exp::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: baseline {path}: invalid JSON: {e}");
            std::process::exit(1);
        }
    };
    let kernels = doc.get("extra")?.get("kernels")?;
    let Json::Arr(points) = kernels else {
        return None;
    };
    points
        .iter()
        .find(|p| p.get("point").and_then(|v| v.as_str()) == Some(label))?
        .get("cycles_per_host_sec")?
        .as_f64()
}
