//! The fleet fault plane's determinism and recovery contracts.
//!
//! A faulted fleet — fabric corruption, link flaps, port-buffer
//! squeezes, NIC crash/reset lifecycles, per-NIC DMA/link/ECC faults,
//! reliable-delivery retransmission — must be bit-identical at any
//! shard count and in both dispatch modes: every injection draw,
//! every crash and reset, every retransmit decision happens on
//! simulated time or at the coordinator's epoch barrier, never on
//! wall-clock scheduling. And the recovery machinery must actually
//! recover: reliable mode re-delivers everything the faults destroy
//! (where retransmit capacity suffices), and a crashed NIC comes back
//! and moves traffic again.

use nicsim::{DispatchMode, FaultPlan, NicConfig};
use nicsim_fleet::{Fleet, FleetConfig, FleetStats};
use nicsim_net::workload::{Arrivals, Pattern, SizeMix, Workload};
use nicsim_net::FabricConfig;
use nicsim_sim::Ps;

fn base_cfg(dispatch: DispatchMode, shards: usize) -> FleetConfig {
    FleetConfig {
        nics: 4,
        shards,
        nic: NicConfig::builder()
            .cores(2)
            .cpu_mhz(500)
            .dispatch(dispatch)
            .build()
            .expect("valid NIC config"),
        fabric: FabricConfig::default(),
        workload: Workload {
            pattern: Pattern::Uniform,
            sizes: SizeMix::Fixed(256),
            arrivals: Arrivals::Poisson,
            fps: 60_000.0,
            seed: 11,
            ..Workload::default()
        },
    }
}

fn run(cfg: FleetConfig, warmup: Ps, window: Ps, horizon: Ps) -> FleetStats {
    let mut fleet = Fleet::new(cfg, horizon).expect("valid fleet config");
    fleet.run_measured(warmup, window)
}

/// Field-by-field equality of two fleet results. `RunStats` is
/// `PartialEq` including its error table, so per-NIC equality is exact
/// bit-identity of every counter, rate, and injected-fault count.
fn assert_identical(a: &FleetStats, b: &FleetStats, label: &str) {
    assert_eq!(a.per_nic.len(), b.per_nic.len(), "{label}: NIC counts");
    for (i, (x, y)) in a.per_nic.iter().zip(&b.per_nic).enumerate() {
        assert_eq!(x, y, "{label}: NIC {i} stats diverged");
    }
    assert_eq!(a.fabric, b.fabric, "{label}: fabric stats/digest diverged");
    assert_eq!(a.ports, b.ports, "{label}: per-port stats diverged");
    assert_eq!(
        a.nic_epochs_skipped, b.nic_epochs_skipped,
        "{label}: skip decisions diverged"
    );
}

/// Every fault class at once — fabric and NIC sites, crashes, reliable
/// retransmission — and the result is still bit-identical across shard
/// counts {1, 2, 3, 4} and both dispatch modes. At 3 the coordinator's
/// chunk holds two NICs and each worker's one; at 4 (the NIC count)
/// every chunk, the coordinator's included, is one NIC.
#[test]
fn faulted_fleet_is_shard_invariant() {
    let plan = FaultPlan::parse(
        "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,\
         squeeze=0.005,crash_us=180,watchdog_us=60,poison=0.002,fw=0.001,\
         stall_alpha=1.5",
    )
    .expect("valid fault spec");
    let (warmup, window) = (Ps::ZERO, Ps::from_us(400));
    for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
        let mut cfg = base_cfg(dispatch, 1);
        cfg.workload.reliable = true;
        cfg.workload.rto_us = 40;
        cfg.nic.faults = Some(plan);
        let reference = run(cfg, warmup, window, window);
        let errors = reference.errors_total().expect("faulted run has errors");
        assert!(
            errors.injected() > 0,
            "{dispatch:?}: no faults injected — shard invariance is vacuous"
        );
        for shards in [2usize, 3, 4] {
            let mut cfg = base_cfg(dispatch, shards);
            cfg.workload.reliable = true;
            cfg.workload.rto_us = 40;
            cfg.nic.faults = Some(plan);
            let sharded = run(cfg, warmup, window, window);
            assert_identical(
                &reference,
                &sharded,
                &format!("{dispatch:?}, {shards} shards vs 1"),
            );
        }
    }
}

/// The crash/reset lifecycle end to end: a seeded whole-NIC crash is
/// detected by the fleet watchdog, the NIC comes back as a fresh
/// system, the in-flight frames it took down are accounted, and the
/// fleet keeps moving traffic throughout.
#[test]
fn crashed_nics_reset_and_recover() {
    let plan = FaultPlan::parse("seed=5,crash_us=120,watchdog_us=50").expect("valid fault spec");
    let mut cfg = base_cfg(DispatchMode::Polling, 2);
    cfg.nic.faults = Some(plan);
    let window = Ps::from_us(600);
    let stats = run(cfg, Ps::ZERO, window, window);
    let errors = stats.errors_total().expect("faulted run has errors");
    assert!(
        errors.nic_resets >= 1,
        "no NIC ever crashed and reset (period 120us over 600us)"
    );
    assert!(
        errors.nic_reset_lost_frames > 0,
        "resets lost no frames — the accounting is vacuous"
    );
    assert!(
        stats.delivered_frames() > 0,
        "the fleet stopped moving traffic"
    );
    // Resets appear in the per-NIC tables of the NICs that crashed,
    // not smeared across the fleet.
    let with_resets = stats
        .per_nic
        .iter()
        .filter(|s| s.errors.as_ref().is_some_and(|e| e.nic_resets > 0))
        .count();
    assert!(with_resets >= 1, "no per-NIC table records its reset");
    // The fleet's window, whatever the crashes cut from each NIC's own:
    // 600 us at 500 MHz.
    assert_eq!(stats.cycles_per_nic, 300_000);
}

/// Reliable delivery under loss: with fabric corruption destroying
/// frames (and nothing else failing), retransmission recovers every
/// one — delivered-exactly-once equals offered — and the dedup side
/// never double-counts.
#[test]
fn reliable_mode_delivers_exactly_once_under_loss() {
    let plan = FaultPlan::parse("seed=31,fab_crc=0.02").expect("valid fault spec");
    let mut cfg = base_cfg(DispatchMode::Polling, 2);
    cfg.workload.reliable = true;
    cfg.workload.rto_us = 30;
    cfg.nic.faults = Some(plan);
    // Schedule over 300us, run 600us: the tail is drain margin for the
    // last retransmission round-trips.
    let horizon = Ps::from_us(300);
    let window = Ps::from_us(600);
    let offered: u64 = (0..cfg.nics)
        .map(|i| cfg.workload.schedule(i, cfg.nics, horizon).len() as u64)
        .sum();
    let stats = run(cfg, Ps::ZERO, window, horizon);
    let errors = stats.errors_total().expect("faulted run has errors");
    assert!(
        errors.crc_dropped > 0,
        "corruption destroyed nothing — recovery is vacuous"
    );
    assert!(
        errors.tx_retransmits > 0,
        "losses happened but nothing was retransmitted"
    );
    assert_eq!(
        stats.delivered_frames(),
        offered,
        "reliable mode failed to deliver every offered frame exactly once \
         ({} retransmits, {} crc drops)",
        errors.tx_retransmits,
        errors.crc_dropped
    );
}

/// The shard-invariance tests compare a fleet with itself, so a change
/// that moves every shard the same way passes them. This pins one
/// small faulted reliable-mode fleet — fabric corruption caught by the
/// FCS check of the receivers' faulted links, DMA faults, NIC
/// crash/reset — to the digest its results had when the test was
/// written: every NIC's `RunStats::summary()` rows plus the fabric's
/// delivery/drop digest.
/// A refactor of the fault path keeps it; a deliberate model change
/// re-pins it and says so.
#[test]
fn faulted_fleet_is_pinned() {
    let plan = FaultPlan::parse(
        "seed=41,fab_crc=0.01,crc=0.01,dma=0.01,crash_us=150,watchdog_us=40,stall_alpha=0",
    )
    .expect("valid fault spec");
    let mut cfg = base_cfg(DispatchMode::Polling, 1);
    cfg.workload.reliable = true;
    cfg.workload.rto_us = 40;
    cfg.nic.faults = Some(plan);
    let window = Ps::from_us(400);
    let stats = run(cfg, Ps::ZERO, window, window);
    let errors = stats.errors_total().expect("faulted run has errors");
    assert!(
        stats.fabric.corrupted > 0 && errors.crc_dropped > 0 && errors.nic_resets > 0,
        "a fault class the digest should cover never fired: {} corrupted, {errors:?}",
        stats.fabric.corrupted
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for nic in &stats.per_nic {
        for (name, value) in nic.summary() {
            eat(name.as_bytes());
            eat(&match value {
                nicsim::StatValue::Int(v) => v.to_le_bytes(),
                nicsim::StatValue::Float(v) => v.to_bits().to_le_bytes(),
            });
        }
    }
    eat(&stats.fabric.digest.to_le_bytes());
    let pinned = 0x2d27_17ae_c831_4d3cu64;
    assert_eq!(h, pinned, "faulted fleet results moved: got {h:#018x}");
}

/// An all-zeros fault plan is free: the run is bit-identical to one
/// with no plan at all — same per-NIC counters, same fabric digest —
/// apart from the zeroed error tables it reports.
#[test]
fn zero_rate_plan_is_identical_to_clean() {
    let (warmup, window) = (Ps::from_us(100), Ps::from_us(300));
    let clean = run(
        base_cfg(DispatchMode::Polling, 2),
        warmup,
        window,
        warmup + window,
    );
    let mut cfg = base_cfg(DispatchMode::Polling, 2);
    cfg.nic.faults = Some(FaultPlan::parse("seed=99,rate=0").expect("valid spec"));
    let zero = run(cfg, warmup, window, warmup + window);
    assert_eq!(
        a_stripped(&zero),
        a_stripped(&clean),
        "zero-rate run diverged"
    );
    assert_eq!(
        zero.fabric, clean.fabric,
        "zero-rate fabric digest diverged from clean"
    );
    for s in &zero.per_nic {
        let e = s.errors.as_ref().expect("plan configured: table present");
        assert_eq!(e.injected(), 0, "zero-rate plan injected something");
    }
}

/// Per-NIC stats with the error tables stripped, for clean-vs-zero-rate
/// comparison (the zero-rate run reports `Some(zeroed)`, the clean run
/// `None`; everything else must match exactly).
fn a_stripped(s: &FleetStats) -> Vec<nicsim::RunStats> {
    s.per_nic
        .iter()
        .map(|r| {
            let mut r = r.clone();
            r.errors = None;
            r
        })
        .collect()
}
