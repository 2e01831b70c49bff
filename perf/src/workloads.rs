//! The five workloads, one repetition at a time, measured from
//! outside: every number here comes from timing a call into a public
//! function or from a statistic a public function returns.
//!
//! The harness deliberately stays off `run_measured_parallel`,
//! `run_measured_dense`, `hand_wired_default` and the fleet-only
//! `NicSystem` methods: ROADMAP item 2 may delete them, and a change
//! that claims a gain may not edit the benchmark.

use crate::alloc;
use crate::digest::Fnv;
use crate::spans::Spans;
use crate::stats::quantile;
use nicsim::{
    DispatchMode, Event, FrameTracker, FwMode, LatencySummary, Metrics, NicConfig, NicSystem,
    Probe, RunStats,
};
use nicsim_cpu::{FwFunc, StallBucket};
use nicsim_fleet::{Fleet, FleetConfig, FleetStats};
use nicsim_net::workload::Workload;
use nicsim_net::{max_udp_throughput_gbps, FabricConfig};
use nicsim_sim::{Freq, Ps};

/// Smoke runs divide every simulated span by this.
const SMOKE_DIVISOR: u64 = 20;
/// Every single-NIC repetition drives its window through this many
/// `run_until` calls, one span each. Slice `i` does the same simulated
/// work in every repetition, which is what lets the host-time estimate
/// discard a noisy moment without discarding the repetition around it.
const SLICES: u64 = 160;

pub struct NicPlan {
    pub cfg: NicConfig,
    pub warmup: Ps,
    pub window: Ps,
    /// What the workload offers, as UDP payload Gb/s: the duplex
    /// Ethernet limit when saturated, rate x payload when paced.
    pub offered_gbps: f64,
    /// Least share of the offer that must get through; the paper's
    /// line-rate claim for the headline point, zero elsewhere.
    pub min_goodput_frac: f64,
}

pub struct FleetPlan {
    pub cfg: FleetConfig,
    pub warmup: Ps,
    pub window: Ps,
    pub faulted: bool,
    /// Smoke spans are too short for a crash/reset cycle, so the
    /// vacuity checks only bind on full runs.
    pub smoke: bool,
}

pub enum Plan {
    Nic(NicPlan),
    Fleet(FleetPlan),
}

/// The plan for workload `name`. `seed` feeds `Workload::seed`; the
/// single-NIC workloads have no random input.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Result<Plan, String> {
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    let span = |us: u64| Ps(Ps::from_us(us).0 / div);
    let valid = |b: nicsim::NicConfigBuilder| b.build().map_err(|e| format!("{name}: {e}"));
    let saturated = |payload: usize, min_goodput_frac: f64| -> Result<Plan, String> {
        Ok(Plan::Nic(NicPlan {
            cfg: valid(NicConfig::builder().udp_payload(payload))?,
            warmup: span(2_000),
            window: span(16_000),
            offered_gbps: 2.0 * max_udp_throughput_gbps(payload),
            min_goodput_frac,
        }))
    };
    let fleet = |faulted: bool| -> Result<Plan, String> {
        let mut nic = NicConfig::builder();
        let mut workload = Workload {
            seed,
            ..Workload::default()
        };
        if faulted {
            nic = nic
                .faults_spec(FAULT_SPEC)
                .map_err(|e| format!("{name}: {e}"))?;
            workload.reliable = true;
            workload.rto_us = 50;
        }
        Ok(Plan::Fleet(FleetPlan {
            cfg: FleetConfig {
                nics: 8,
                shards: 1,
                nic: valid(nic)?,
                fabric: FabricConfig::default(),
                workload,
            },
            warmup: span(200),
            window: span(2_400),
            faulted,
            smoke,
        }))
    };
    match name {
        // Six cores at 166 MHz hold duplex line rate: the paper's
        // result, re-checked here (a smoke window is mostly ramp-up).
        "nic6_sat_1472" => saturated(1472, if smoke { 0.0 } else { 0.999 }),
        "nic6_sat_18" => saturated(18, 0.0),
        "nic1_rx20k_irq" => {
            let fps = 20_000.0;
            Ok(Plan::Nic(NicPlan {
                cfg: valid(
                    NicConfig::builder()
                        .cores(1)
                        .cpu_mhz(200)
                        .mode(FwMode::SoftwareOnly)
                        .send_enabled(false)
                        .offered_rx_fps(Some(fps))
                        .dispatch(DispatchMode::Interrupt),
                )?,
                warmup: span(2_000),
                window: span(800_000),
                offered_gbps: fps * 1472.0 * 8.0 / 1e9,
                min_goodput_frac: 0.0,
            }))
        }
        "fleet8_uniform" => fleet(false),
        "fleet8_faulted" => fleet(true),
        _ => Err(format!("unknown workload '{name}'")),
    }
}

/// Every fleet fault class at once, with one crash per NIC somewhere
/// in each 2 ms after the first. The plan's seed is fixed: whole-NIC
/// crash times are drawn from it, a crashed NIC's flows stay backed off
/// for the rest of the window, and letting `--seed` move one to four
/// crashes around moved goodput by 24 % between seeds, more than any
/// bound could absorb. `--seed` still decides who sends to whom, and
/// with it which frames the fabric faults hit.
pub const FAULT_SPEC: &str = "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,\
     squeeze=0.005,crash_us=2000,watchdog_us=60,poison=0.002,fw=0.001,stall_alpha=1.5";

/// What one repetition yields, whatever the workload. Host times vary
/// between repetitions; everything else is simulated and must not.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Build (+ schedule + `Fleet::new`), plus the warm-up span for a
    /// single NIC.
    pub setup_s: f64,
    /// Wall time of what `sim_mcps` and `host_us_per_frame` are about:
    /// the window for a single NIC, the whole `run_measured` for a fleet.
    pub run_s: f64,
    /// The same time piece by piece: one entry per window slice, or
    /// the single `run_measured` call of a fleet.
    pub slice_s: Vec<f64>,
    /// Simulated CPU cycles in `run_s`, summed over NICs, from the
    /// configured span and clock.
    pub sim_cycles: u64,
    pub digest: u64,
    /// Frames completed in the window.
    pub frames: u64,
    pub attempted: u64,
    /// Frames the simulated NIC corrupted, misordered or reported in
    /// error with no fault injected to explain it: must be zero.
    pub invalid: u64,
    /// `fleet8_faulted`: scheduled frames not delivered exactly once
    /// by the horizon.
    pub undelivered: u64,
    pub sim_udp_gbps: f64,
    pub offered_gbps: f64,
    /// Correctness checks this repetition failed.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn goodput_frac(&self) -> f64 {
        self.sim_udp_gbps / self.offered_gbps
    }

    pub fn frames_ok_frac(&self) -> f64 {
        1.0 - (self.invalid + self.undelivered) as f64 / self.attempted.max(1) as f64
    }
}

/// The three conditions of `RunStats::assert_clean`, as a check that
/// names the counters instead of a panic.
fn clean(stats: &RunStats, who: &str, failures: &mut Vec<String>) {
    if invalid_frames(stats) != 0 {
        failures.push(format!(
            "{who}: not clean: {} tx_errors, {} rx_corrupt, {} rx_out_of_order",
            stats.tx_errors, stats.rx_corrupt, stats.rx_out_of_order
        ));
    }
}

fn invalid_frames(s: &RunStats) -> u64 {
    s.tx_errors + s.rx_corrupt + s.rx_out_of_order
}

/// Counts what `Metrics` does not: every event, and handler entries.
#[derive(Debug, Default)]
pub struct EventCounter {
    events: u64,
    handler_enters: u64,
}

impl Probe for EventCounter {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::WindowReset { .. } => *self = EventCounter::default(),
            Event::HandlerEnter { .. } => {
                self.events += 1;
                self.handler_enters += 1;
            }
            _ => self.events += 1,
        }
    }
}

/// The traced repetition's probe: frame timelines, counters, and the
/// harness's own event count.
pub type TraceProbe = (FrameTracker, (Metrics, EventCounter));

pub fn trace_probe() -> TraceProbe {
    (
        FrameTracker::new(),
        (Metrics::new(), EventCounter::default()),
    )
}

/// Cycle split of one window slice; its wall time is in
/// [`Rep::slice_s`].
struct Slice {
    stepped: u64,
    skipped: u64,
}

/// Everything a single-NIC repetition observed beyond [`Rep`].
pub struct NicObserved<P> {
    stats: RunStats,
    probe: P,
    build_s: f64,
    warmup_s: f64,
    collect_s: f64,
    slices: Vec<Slice>,
    allocs: (u64, u64),
}

/// One single-NIC repetition: build, warm up, reset the window, run
/// it in [`SLICES`] `run_until` calls, collect. `count_allocs` counts
/// allocations inside the window (the traced repetition's).
pub fn nic_rep<P: Probe>(
    plan: &NicPlan,
    probe: P,
    count_allocs: bool,
    spans: &mut Spans,
) -> (Rep, NicObserved<P>) {
    let (mut sys, build_s) = spans.time("core.build", |_| {
        NicSystem::build(plan.cfg)
            .probe(probe)
            .finish()
            .expect("plan() validated the configuration")
    });
    let ((), warmup_s) = spans.time("core.warmup", |_| {
        sys.run_until(plan.warmup);
        sys.reset_window();
    });
    let start = sys.now();
    let mut slices = Vec::with_capacity(SLICES as usize);
    let mut slice_s = Vec::with_capacity(SLICES as usize);
    if count_allocs {
        alloc::start();
    }
    let ((), run_s) = spans.time("core.window", |spans| {
        for i in 1..=SLICES {
            let until = Ps(start.0 + plan.window.0 * i / SLICES);
            let (skipped0, stepped0) = sys.kernel_cycle_split();
            let ((), wall_s) = spans.time("core.slice", |_| sys.run_until(until));
            let (skipped1, stepped1) = sys.kernel_cycle_split();
            slice_s.push(wall_s);
            slices.push(Slice {
                stepped: stepped1 - stepped0,
                skipped: skipped1 - skipped0,
            });
        }
    });
    let allocs = if count_allocs { alloc::stop() } else { (0, 0) };
    let (stats, collect_s) = spans.time("core.collect", |_| sys.collect());

    let mut failures = Vec::new();
    clean(&stats, "nic", &mut failures);
    let mut digest = Fnv::default();
    digest.stats(&stats);
    let mut rep = Rep {
        setup_s: build_s + warmup_s,
        run_s,
        slice_s,
        sim_cycles: Freq::from_mhz(plan.cfg.cpu_mhz).cycles_in(plan.window),
        digest: digest.0,
        frames: stats.tx_frames + stats.rx_frames,
        attempted: stats.tx_frames + stats.rx_frames + stats.rx_mac_drops,
        invalid: invalid_frames(&stats),
        undelivered: 0,
        sim_udp_gbps: stats.total_udp_gbps(),
        offered_gbps: plan.offered_gbps,
        failures,
    };
    if rep.goodput_frac() < plan.min_goodput_frac {
        rep.failures.push(format!(
            "goodput is {:.4} of the offer, below {}",
            rep.goodput_frac(),
            plan.min_goodput_frac
        ));
    }
    let observed = NicObserved {
        stats,
        probe: sys.unwrap_probe(),
        build_s,
        warmup_s,
        collect_s,
        slices,
        allocs,
    };
    (rep, observed)
}

type Layer = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn latency(out: &mut Layer, lat: &LatencySummary) {
    let us = |ps: u64| ps as f64 / 1e6;
    if let Some(total) = lat.tx_stages.last() {
        out.push(("obs.lat.tx_p50_us", us(total.p50_ps)));
        out.push(("obs.lat.tx_p99_us", us(total.p99_ps)));
    }
    if let Some(total) = lat.rx_stages.last() {
        out.push(("obs.lat.rx_p50_us", us(total.p50_ps)));
        out.push(("obs.lat.rx_p99_us", us(total.p99_ps)));
    }
}

/// Per-layer metrics of a traced single-NIC repetition.
pub fn nic_layers(rep: &Rep, o: &NicObserved<TraceProbe>) -> Layer {
    let s = &o.stats;
    let (tracker, (metrics, counter)) = &o.probe;
    let frames = rep.frames as f64;
    let stepped: u64 = o.slices.iter().map(|x| x.stepped).sum();
    let skipped: u64 = o.slices.iter().map(|x| x.skipped).sum();
    let slice_ms: Vec<f64> = rep.slice_s.iter().map(|s| s * 1e3).collect();
    let window_cycles = s.core_ticks as f64;
    let secs = s.window.as_secs_f64();
    let func_cycles = |funcs: &[FwFunc]| -> f64 {
        funcs
            .iter()
            .map(|&f| s.profile.func(f).total_cycles())
            .sum::<u64>() as f64
    };
    let grants: u64 = metrics.sp_grants().iter().sum();
    let conflicts: u64 = metrics.sp_conflicts().iter().sum();
    let (rx_accepted, rx_dropped) = metrics.mac_rx();
    let mut out: Layer = vec![
        (
            "core.host_ns_per_stepped_cycle",
            ratio(rep.run_s * 1e9, stepped as f64),
        ),
        (
            "sim.skipped_frac",
            ratio(skipped as f64, (stepped + skipped) as f64),
        ),
        (
            "sim.skip_spans",
            o.slices.iter().filter(|x| x.skipped > 0).count() as f64,
        ),
        ("core.slice_ms_p50", quantile(&slice_ms, 0.5)),
        ("core.slice_ms_p90", quantile(&slice_ms, 0.9)),
        ("core.warmup_s", o.warmup_s),
        ("core.build_s", o.build_s),
        ("core.collect_s", o.collect_s),
        ("cpu.ipc", s.ipc()),
        (
            "cpu.stall.load_frac",
            s.ipc_contribution(StallBucket::LoadStall),
        ),
        (
            "cpu.stall.sp_conflict_frac",
            s.ipc_contribution(StallBucket::Conflict),
        ),
        (
            "cpu.stall.imiss_frac",
            s.ipc_contribution(StallBucket::IMiss),
        ),
        (
            "cpu.stall.pipeline_frac",
            s.ipc_contribution(StallBucket::Pipeline),
        ),
        (
            "cpu.icache_hit_rate",
            ratio(
                s.icache_hits as f64,
                (s.icache_hits + s.icache_misses) as f64,
            ),
        ),
        (
            "cpu.instr_per_frame",
            ratio(s.profile.total(|p| p.instructions) as f64, frames),
        ),
        (
            "firmware.cycles_per_frame.send",
            ratio(
                func_cycles(&[
                    FwFunc::FetchSendBd,
                    FwFunc::SendFrame,
                    FwFunc::SendDispatch,
                    FwFunc::SendLock,
                ]),
                s.tx_frames as f64,
            ),
        ),
        (
            "firmware.cycles_per_frame.recv",
            ratio(
                func_cycles(&[
                    FwFunc::FetchRecvBd,
                    FwFunc::RecvFrame,
                    FwFunc::RecvDispatch,
                    FwFunc::RecvLock,
                ]),
                s.rx_frames as f64,
            ),
        ),
        (
            "firmware.ordering_cycles_per_frame",
            ratio(
                func_cycles(&[FwFunc::SendDispatch, FwFunc::RecvDispatch]),
                frames,
            ),
        ),
        (
            "firmware.handler_enters_per_frame",
            ratio(counter.handler_enters as f64, frames),
        ),
        (
            "mem.xbar.grants_per_cycle",
            ratio(grants as f64, window_cycles),
        ),
        (
            "mem.xbar.conflict_frac",
            ratio(conflicts as f64, (grants + conflicts) as f64),
        ),
        ("mem.sdram.gbps", s.frame_mem_gbps),
        (
            "mem.sdram.mean_latency_ns",
            s.frame_mem_mean_latency.0 as f64 / 1e3,
        ),
        (
            "mem.sdram.wasted_frac",
            ratio(
                s.frame_mem_wasted_bytes as f64,
                s.frame_mem_gbps * 1e9 / 8.0 * secs,
            ),
        ),
        (
            "mem.sdram.bursts_per_frame",
            ratio(metrics.fm_bursts().iter().sum::<u64>() as f64, frames),
        ),
        ("assists.dma_rd.depth_mean", metrics.dma_depth()[0].mean()),
        ("assists.dma_wr.depth_mean", metrics.dma_depth()[1].mean()),
        (
            "assists.sp_accesses_per_frame",
            ratio(s.assist_sp_accesses as f64, frames),
        ),
        (
            "assists.mac_rx.drop_frac",
            ratio(rx_dropped as f64, (rx_accepted + rx_dropped) as f64),
        ),
        (
            "host.mailbox_writes_per_frame",
            ratio(metrics.mailbox_writes() as f64, frames),
        ),
        ("host.tx_posted", metrics.host_tx_posted() as f64),
        ("host.rx_delivered", metrics.host_rx_delivered() as f64),
        ("obs.events_per_frame", ratio(counter.events as f64, frames)),
        ("perf.allocs_per_frame", ratio(o.allocs.0 as f64, frames)),
        (
            "perf.alloc_bytes_per_frame",
            ratio(o.allocs.1 as f64, frames),
        ),
    ];
    // Wall over skipped cycles says something only where the kernel
    // mostly skips; over the saturated workloads' 0.05 % it is noise.
    if skipped > stepped {
        out.push((
            "core.host_ns_per_skipped_cycle",
            rep.run_s * 1e9 / skipped as f64,
        ));
    }
    latency(&mut out, &tracker.summary());
    out
}

/// Everything a fleet repetition observed beyond [`Rep`].
pub struct FleetObserved {
    stats: FleetStats,
    schedule_s: f64,
    new_s: f64,
    allocs: (u64, u64),
}

/// One fleet repetition: schedule, `Fleet::new`, `run_measured`.
/// `Fleet::new` schedules again for itself; the harness's own call is
/// what lets it time `Workload::schedule` alone and count what was
/// offered.
pub fn fleet_rep(
    plan: &FleetPlan,
    shards: usize,
    count_allocs: bool,
    spans: &mut Spans,
) -> (Rep, FleetObserved) {
    let cfg = FleetConfig { shards, ..plan.cfg };
    let epoch = cfg.fabric.link_latency.0;
    let warm_epochs = plan.warmup.0.div_ceil(epoch);
    let total_epochs = warm_epochs + plan.window.0.div_ceil(epoch).max(1);
    let warm_end = Ps(warm_epochs * epoch);
    let horizon = Ps(total_epochs * epoch);

    let (schedules, schedule_s) = spans.time("net.workload.schedule", |_| {
        (0..cfg.nics)
            .map(|i| cfg.workload.schedule(i, cfg.nics, horizon))
            .collect::<Vec<_>>()
    });
    let scheduled_all: u64 = schedules.iter().map(|s| s.len() as u64).sum();
    let in_window = || schedules.iter().flatten().filter(|p| p.at >= warm_end);
    let attempted = in_window().count() as u64;
    let offered_bytes: u64 = in_window().map(|p| p.udp_payload as u64).sum();

    let (fleet, new_s) = spans.time("fleet.new", |_| Fleet::new(cfg, horizon));
    let mut fleet = fleet.expect("plan() builds a valid fleet");
    if count_allocs {
        alloc::start();
    }
    let (stats, run_s) = spans.time("fleet.run_measured", |_| {
        fleet.run_measured(plan.warmup, plan.window)
    });
    let allocs = if count_allocs { alloc::stop() } else { (0, 0) };

    let mut failures = Vec::new();
    let mut digest = Fnv::default();
    for (i, s) in stats.per_nic.iter().enumerate() {
        // Under injected faults the validation counters record faults
        // caught (poisoned payloads, retransmissions the wire monitor
        // sees out of order), so only the clean fleet must be clean.
        if !plan.faulted {
            clean(s, &format!("nic {i}"), &mut failures);
        }
        digest.stats(s);
    }
    digest.u64(stats.fabric.digest);
    let delivered = stats.delivered_frames();
    if delivered == 0 {
        failures.push("fleet delivered nothing: every check is vacuous".into());
    }
    if plan.faulted {
        let e = stats.errors_total().unwrap_or_default();
        if !plan.smoke && (e.nic_resets == 0 || e.tx_retransmits == 0) {
            failures.push(format!(
                "faulted run is vacuous: {} NIC resets, {} retransmits",
                e.nic_resets, e.tx_retransmits
            ));
        }
        if delivered > scheduled_all {
            failures.push(format!(
                "{delivered} frames delivered of {scheduled_all} scheduled: some frame arrived twice"
            ));
        }
    } else if stats.fabric_drops() != 0 {
        failures.push(format!(
            "clean fleet dropped {} frames",
            stats.fabric_drops()
        ));
    }
    let window_s = Ps(horizon.0 - warm_end.0).as_secs_f64();
    let rep = Rep {
        setup_s: schedule_s + new_s,
        run_s,
        slice_s: vec![run_s],
        sim_cycles: Freq::from_mhz(cfg.nic.cpu_mhz).cycles_in(horizon) * cfg.nics as u64,
        digest: digest.0,
        frames: delivered,
        attempted,
        invalid: if plan.faulted {
            stats.per_nic.iter().map(|s| s.rx_out_of_order).sum()
        } else {
            stats.per_nic.iter().map(invalid_frames).sum()
        },
        undelivered: if plan.faulted {
            attempted.saturating_sub(delivered)
        } else {
            0
        },
        sim_udp_gbps: stats.goodput_gbps(),
        offered_gbps: offered_bytes as f64 * 8.0 / window_s / 1e9,
        failures,
    };
    let observed = FleetObserved {
        stats,
        schedule_s,
        new_s,
        allocs,
    };
    (rep, observed)
}

/// Per-layer metrics of a traced fleet repetition. The fleet wires its
/// own `FrameTracker` into every NIC, so the harness's event counter
/// has nowhere to attach and `obs.events_per_frame` stays unreported.
pub fn fleet_layers(plan: &FleetPlan, rep: &Rep, o: &FleetObserved) -> Layer {
    let st = &o.stats;
    let nic_epochs = st.epochs * plan.cfg.nics as u64;
    let executed = nic_epochs - st.nic_epochs_skipped;
    let e = st.errors_total().unwrap_or_default();
    let kframes = rep.attempted as f64 / 1e3;
    let frames = rep.frames as f64;
    let mut out: Layer = vec![
        ("net.workload.schedule_s", o.schedule_s),
        ("fleet.new_s", o.new_s),
        ("fleet.run_s", rep.run_s),
        (
            "fleet.host_us_per_nic_epoch",
            ratio(rep.run_s * 1e6, executed as f64),
        ),
        (
            "fleet.nic_epochs_skipped_frac",
            ratio(st.nic_epochs_skipped as f64, nic_epochs as f64),
        ),
        (
            "net.fabric.drop_frac",
            ratio(st.fabric.dropped as f64, st.fabric.offered as f64),
        ),
        (
            "net.fabric.port_hiwater_bytes",
            st.ports.iter().map(|p| p.max_occupancy).max().unwrap_or(0) as f64,
        ),
        (
            "fault.injected_per_kframe",
            ratio(
                (e.injected()
                    + st.fabric.corrupted
                    + st.fabric.flap_drops
                    + st.fabric.squeeze_drops) as f64,
                kframes,
            ),
        ),
        (
            "fault.retransmits_per_kframe",
            ratio(e.tx_retransmits as f64, kframes),
        ),
        (
            "fault.duplicates_per_kframe",
            ratio(e.rx_duplicates as f64, kframes),
        ),
        ("fault.nic_resets", e.nic_resets as f64),
        ("perf.allocs_per_frame", ratio(o.allocs.0 as f64, frames)),
        (
            "perf.alloc_bytes_per_frame",
            ratio(o.allocs.1 as f64, frames),
        ),
    ];
    latency(&mut out, &st.latency);
    out
}

/// The two differential runs behind `fleet.overhead_frac` and
/// `fleet.shards2_speedup_x`, made once for the clean fleet.
pub fn fleet_differentials(
    plan: &FleetPlan,
    traced: &Rep,
    spans: &mut Spans,
    failures: &mut Vec<String>,
) -> Layer {
    // One standalone NIC paced at the fleet's per-NIC rate each way,
    // over the same simulated span: what the fleet's NICs would cost
    // without the epoch loop, exchange, fabric and trackers.
    let fps = Some(plan.cfg.workload.fps);
    let cfg = plan
        .cfg
        .nic
        .to_builder()
        .offered_tx_fps(fps)
        .offered_rx_fps(fps)
        .build()
        .expect("paced copy of a valid configuration");
    let horizon = Ps(plan.warmup.0 + plan.window.0);
    spans.set_run("standalone");
    let ((), standalone_s) = spans.time("fleet.standalone_nic", |_| {
        let mut sys = NicSystem::build(cfg)
            .finish()
            .expect("paced copy of a valid configuration");
        sys.run_until(horizon);
        std::hint::black_box(sys.collect().rx_frames);
    });

    // The same fleet on two worker threads. With the coordinator that
    // is three threads, more than this host has: the number ROADMAP
    // item 2(a) asks for, kept out of every end-to-end metric.
    spans.set_run("shards2");
    let (sharded, _) = fleet_rep(plan, 2, false, spans);
    if sharded.digest != traced.digest {
        failures.push(format!(
            "shards=2 digest {:016x} differs from shards=1 {:016x}",
            sharded.digest, traced.digest
        ));
    }
    vec![
        (
            "fleet.overhead_frac",
            1.0 - plan.cfg.nics as f64 * standalone_s / traced.run_s,
        ),
        ("fleet.shards2_speedup_x", traced.run_s / sharded.run_s),
    ]
}
