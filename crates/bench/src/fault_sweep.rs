//! Fault sweep: goodput under increasing deterministic fault pressure.
//!
//! Runs the paper's headline configuration (6 RMW-enhanced cores at
//! 166 MHz) through `FaultPlan::with_rate` at rates 0 through 1e-2 —
//! link corruption/truncation, transient DMA errors, PCI stalls, and
//! ECC events all scale together — plus a plan-free baseline. Checks
//! the fault plane's two headline properties along the way: the
//! zero-rate run (it arms no site) is bit-identical to the clean
//! baseline, and goodput degrades monotonically as the rate climbs.
//! Results land in `results/fault_sweep.json`; the goodput/error curve
//! is under `"extra"`.
//!
//! `--faults <spec>` overrides the seed (and retry/backoff/hang knobs)
//! the swept plans inherit: `repro fault_sweep --faults seed=42,retries=1`.
//!
//! A second section, `fleet_fault`, sweeps fabric corruption over a
//! small reliable-mode fleet: per-flow retransmission must recover
//! every destroyed frame (delivered-exactly-once equals offered) while
//! the retransmit budget holds, and delivery must never *improve* as
//! the corruption rate climbs. Its curve lands under
//! `"extra"."fleet_fault"`.

use crate::{header, Args};
use nicsim::{DispatchMode, FaultPlan, NicConfig, RunStats};
use nicsim_exp::{Json, RunSpec};
use nicsim_fleet::{Fleet, FleetConfig};
use nicsim_net::workload::{Arrivals, Pattern, SizeMix, Workload};
use nicsim_net::FabricConfig;
use nicsim_sim::Ps;

const RATES: [f64; 5] = [0.0, 1e-5, 1e-4, 1e-3, 1e-2];

/// Fabric-corruption ladder for the reliable-mode fleet sweep. The
/// low rungs must deliver 100%: with a 30 us RTO and a drain margin
/// as long as the offered schedule, a frame has several retransmit
/// rounds available, far more than a few-percent loss rate consumes.
/// The top rung destroys so much that exponential backoff pushes the
/// last retries past the horizon — delivery is allowed to fall there,
/// just never to rise.
const FLEET_CRC_RATES: [f64; 5] = [0.0, 5e-3, 2e-2, 8e-2, 4e-1];

/// Rungs at or below this rate must deliver every offered frame
/// exactly once; above it the assertion relaxes to monotonicity.
const FLEET_FULL_DELIVERY_MAX: f64 = 2e-2;

pub fn run(args: &Args) {
    let exp = &args.exp;
    header(
        "Fault sweep: goodput vs injected error rate (6 RMW cores @ 166 MHz)",
        "zero-rate run bit-identical to clean; goodput degrades monotonically; no hangs",
    );
    // `--faults` seeds the sweep's plans; the rates come from RATES, and
    // the baseline stays plan-free whatever the command line says.
    let base = args.faults.unwrap_or(FaultPlan::with_rate(7, 0.0));
    let mut baseline = args.configure(NicConfig::default());
    baseline.faults = None;
    let mut specs = vec![RunSpec::single("clean", baseline)];
    for rate in RATES {
        let plan = FaultPlan {
            link_corrupt: rate,
            link_truncate: rate * 0.1,
            dma_error: rate,
            dma_stall: rate,
            ecc: rate,
            ..base
        };
        specs.push(RunSpec::single(
            &format!("rate={rate:e}"),
            args.configure(NicConfig::default())
                .to_builder()
                .faults(Some(plan))
                .build()
                .expect("valid fault-sweep config"),
        ));
    }
    let report = exp.run_specs(specs);

    let clean = &report.runs[0].stats;
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>9} {:>8} {:>9}",
        "rate", "goodput Gb/s", "crc drops", "dma retry", "aborts", "ecc", "resets"
    );
    println!(
        "{:>8} {:>12.2} {:>10} {:>10} {:>9} {:>8} {:>9}",
        "none",
        clean.total_udp_gbps(),
        "-",
        "-",
        "-",
        "-",
        "-"
    );
    let mut curve = Vec::new();
    let mut prev_goodput = f64::INFINITY;
    for (i, rate) in RATES.iter().enumerate() {
        let s = &report.runs[i + 1].stats;
        let e = s.errors.expect("swept runs carry a plan");
        println!(
            "{:>8.0e} {:>12.2} {:>10} {:>10} {:>9} {:>8} {:>9}",
            rate,
            s.total_udp_gbps(),
            e.crc_dropped,
            e.dma_retries_ok,
            e.dma_aborts,
            e.ecc_corrections,
            e.watchdog_resets
        );
        curve.push(
            Json::obj()
                .with("rate", *rate)
                .with("goodput_gbps", s.total_udp_gbps())
                .with("crc_dropped", e.crc_dropped)
                .with("dma_retries_ok", e.dma_retries_ok)
                .with("dma_aborts", e.dma_aborts)
                .with("ecc_corrections", e.ecc_corrections)
                .with("watchdog_resets", e.watchdog_resets),
        );
        if *rate == 0.0 {
            assert_zero_rate_matches_clean(clean, s);
        } else if *rate >= 1e-3 {
            // Tiny rates can legitimately draw nothing over a short
            // window; from 1e-3 up the expected count is far above 1.
            assert!(
                e.injected() > 0,
                "rate {rate:e} injected nothing — plan not wired through"
            );
        }
        assert!(
            s.total_udp_gbps() <= prev_goodput * 1.01,
            "goodput rose from {prev_goodput:.3} to {:.3} Gb/s at rate {rate:e}",
            s.total_udp_gbps()
        );
        prev_goodput = s.total_udp_gbps();
    }
    println!("zero-rate run matches the clean baseline bit for bit");
    let fleet_fault = fleet_fault_sweep(args, base.seed);
    let extra = Json::obj()
        .with("seed", base.seed)
        .with("clean_goodput_gbps", clean.total_udp_gbps())
        .with("curve", Json::Arr(curve))
        .with("fleet_fault", fleet_fault);
    exp.finish(report.runs, Some(extra)).expect("write results");
}

/// Reliable delivery under fabric corruption, swept over
/// [`FLEET_CRC_RATES`] on a 4-NIC fleet. Each rung schedules the same
/// offered load over 300 us and runs 600 us — the tail is drain margin
/// for the last retransmission round-trips — then checks the two
/// recovery contracts: full delivery on the low rungs, and a delivered
/// count that never rises with the corruption rate.
fn fleet_fault_sweep(args: &Args, seed: u64) -> Json {
    let nics = 4usize;
    let horizon = Ps::from_us(300);
    let window = Ps::from_us(600);
    let workload = Workload {
        pattern: Pattern::Uniform,
        sizes: SizeMix::Fixed(256),
        arrivals: Arrivals::Poisson,
        fps: 60_000.0,
        seed: 11,
        reliable: true,
        rto_us: 30,
    };
    let nic = args
        .configure(NicConfig::default())
        .to_builder()
        .cores(2)
        .cpu_mhz(500)
        .dispatch(DispatchMode::Polling)
        .build()
        .expect("valid fleet-fault NIC config");
    let offered: u64 = (0..nics)
        .map(|i| workload.schedule(i, nics, horizon).len() as u64)
        .sum();
    println!("fleet_fault: {nics} NICs, reliable mode, {offered} frames offered");
    println!(
        "{:>8} {:>10} {:>10} {:>12} {:>10}",
        "fab_crc", "delivered", "crc drops", "retransmits", "dup drops"
    );
    let mut curve = Vec::new();
    let mut prev_delivered = u64::MAX;
    for rate in FLEET_CRC_RATES {
        let plan = FaultPlan {
            fabric_corrupt: rate,
            ..FaultPlan::with_rate(seed, 0.0)
        };
        let cfg = FleetConfig {
            nics,
            shards: 2,
            nic: nic
                .to_builder()
                .faults(Some(plan))
                .build()
                .expect("valid faulted fleet config"),
            fabric: FabricConfig::default(),
            workload,
        };
        let mut fleet = Fleet::new(cfg, horizon).expect("valid fleet config");
        let stats = fleet.run_measured(Ps::ZERO, window);
        let delivered = stats.delivered_frames();
        let errors = stats.errors_total().unwrap_or_default();
        println!(
            "{:>8.0e} {:>10} {:>10} {:>12} {:>10}",
            rate, delivered, errors.crc_dropped, errors.tx_retransmits, errors.rx_duplicates
        );
        if rate <= FLEET_FULL_DELIVERY_MAX {
            assert_eq!(
                delivered, offered,
                "fab_crc {rate:e}: reliable mode failed to deliver every offered \
                 frame exactly once ({} retransmits, {} crc drops)",
                errors.tx_retransmits, errors.crc_dropped
            );
        }
        if rate >= FLEET_FULL_DELIVERY_MAX {
            // The low rungs can legitimately destroy nothing over a
            // few hundred frames; from 2e-2 up the expected drop
            // count is well above 1, so recovery must be exercised.
            assert!(
                errors.crc_dropped > 0,
                "fab_crc {rate:e} destroyed nothing — recovery is vacuous"
            );
            assert!(
                errors.tx_retransmits > 0,
                "fab_crc {rate:e}: losses happened but nothing was retransmitted"
            );
        } else if rate == 0.0 {
            assert_eq!(
                errors.tx_retransmits, 0,
                "retransmitted with nothing lost — the RTO is too tight for the fleet"
            );
        }
        assert!(
            delivered <= prev_delivered,
            "delivery rose from {prev_delivered} to {delivered} frames at fab_crc {rate:e}"
        );
        prev_delivered = delivered;
        curve.push(
            Json::obj()
                .with("fab_crc", rate)
                .with("delivered", delivered)
                .with("offered", offered)
                .with("crc_dropped", errors.crc_dropped)
                .with("tx_retransmits", errors.tx_retransmits)
                .with("rx_duplicates", errors.rx_duplicates),
        );
    }
    println!("reliable mode delivered 100% through fab_crc {FLEET_FULL_DELIVERY_MAX:e}");
    Json::obj()
        .with("nics", nics as u64)
        .with("offered", offered)
        .with("rto_us", workload.rto_us)
        .with("curve", Json::Arr(curve))
}

/// The armed-but-silent run must not move the simulation: identical
/// stats apart from `errors` being `Some(zeros)` instead of `None`.
fn assert_zero_rate_matches_clean(clean: &RunStats, armed: &RunStats) {
    let mut stripped = armed.clone();
    assert_eq!(
        stripped.errors.take(),
        Some(Default::default()),
        "zero-rate plan reported nonzero error counters"
    );
    assert_eq!(
        clean, &stripped,
        "arming the fault plane at rate 0 changed the simulation"
    );
}
