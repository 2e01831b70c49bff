//! Frame-lifecycle invariants under the observability probe.
//!
//! Runs the kernel-equivalence configuration matrix with a
//! [`FrameTracker`] probe attached and asserts two contracts:
//!
//! * **Lifecycle consistency** — every stage timestamp the probe joins
//!   on a frame sequence number is strictly ordered (post < fetch <
//!   wire start < wire done; arrival < descriptor publish < delivery)
//!   and no frame reaches a stage without all earlier ones. In-flight
//!   prefixes are legal; orphans and misordering are not.
//! * **Probe transparency** — attaching a real probe must not change
//!   simulation results: `RunStats` from the probed run is bit-identical
//!   to the `NullProbe` run of the same configuration.

use nicsim::{Event, EventLog, FrameTracker, FwMode, NicConfig, NicSystem, RunStats};
use nicsim_sim::Ps;

const WARMUP: Ps = Ps(100_000_000); // 100 us
const WINDOW: Ps = Ps(150_000_000); // 150 us

fn assert_lifecycle(cfg: NicConfig, label: &str) -> RunStats {
    let mut plain = NicSystem::build(cfg).finish().unwrap();
    let base = plain.run_measured(WARMUP, WINDOW);

    let mut probed = NicSystem::build(cfg)
        .probe(FrameTracker::new())
        .finish()
        .unwrap();
    let stats = probed.run_measured(WARMUP, WINDOW);
    assert_eq!(
        base, stats,
        "{label}: probed run diverged from the NullProbe run"
    );

    let tracker = probed.unwrap_probe();
    let violations = tracker.violations();
    assert!(
        violations.is_empty(),
        "{label}: {} lifecycle violations, first: {}",
        violations.len(),
        violations[0]
    );

    // Every frame that finished a lifecycle has the full timeline — a
    // completion without its earlier stages would mean a probe hook is
    // missing, which violations() only catches when the partial record
    // exists at all.
    for (seq, r) in tracker.tx_records() {
        if r.wire_done.is_some() {
            assert!(
                r.posted.is_some() && r.fetched.is_some() && r.wire_start.is_some(),
                "{label}: tx frame {seq} completed with an incomplete timeline: {r:?}"
            );
        }
    }
    for (seq, r) in tracker.rx_records() {
        if r.delivered.is_some() {
            assert!(
                r.arrival.is_some() && r.desc.is_some(),
                "{label}: rx frame {seq} delivered with an incomplete timeline: {r:?}"
            );
        }
    }

    // The matrix must exercise real traffic or the invariants are
    // vacuous; directions follow the configuration.
    let s = tracker.summary();
    if cfg.send_enabled {
        assert!(s.tx_frames > 0, "{label}: no complete tx frames in window");
    }
    if cfg.recv_enabled {
        assert!(s.rx_frames > 0, "{label}: no complete rx frames in window");
    }
    stats
}

#[test]
fn lifecycle_across_core_counts_and_modes() {
    for cores in [1usize, 2, 6] {
        for mode in [FwMode::SoftwareOnly, FwMode::RmwEnhanced] {
            let cfg = NicConfig::builder()
                .cores(cores)
                .cpu_mhz(300)
                .mode(mode)
                .build()
                .unwrap();
            assert_lifecycle(cfg, &format!("{cores} cores, {mode:?}"));
        }
    }
}

#[test]
fn lifecycle_with_small_datagrams() {
    // Small frames overrun the firmware, so the drop path (arrivals the
    // tracker must ignore) and high sequence churn are both exercised.
    for cores in [1usize, 6] {
        let cfg = NicConfig::builder()
            .cores(cores)
            .cpu_mhz(300)
            .mode(FwMode::RmwEnhanced)
            .udp_payload(18)
            .build()
            .unwrap();
        assert_lifecycle(cfg, &format!("{cores} cores, 18B payload"));
    }
}

#[test]
fn lifecycle_in_ideal_mode_and_one_sided_traffic() {
    let cfg = NicConfig::builder()
        .mode(FwMode::Ideal)
        .cores(1)
        .cpu_mhz(300)
        .build()
        .unwrap();
    assert_lifecycle(cfg, "ideal");

    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .send_enabled(false)
        .build()
        .unwrap();
    assert_lifecycle(cfg, "recv-only");

    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .recv_enabled(false)
        .build()
        .unwrap();
    assert_lifecycle(cfg, "send-only");
}

#[test]
fn lifecycle_under_link_crc_faults() {
    // MAC RX refuses a CRC-bad frame and publishes an error descriptor
    // for it, flagged as such: the tracker must not take it for the
    // descriptor stage of a frame that never arrived.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .faults_spec("seed=1,crc=0.05")
        .unwrap()
        .build()
        .unwrap();
    let stats = assert_lifecycle(cfg, "crc faults");
    let crc_dropped = stats.errors.expect("a fault plan").crc_dropped;
    assert!(crc_dropped > 0, "the plan refused no frame");
}

#[test]
fn per_cycle_events_reach_only_sinks_that_read_them() {
    // `FrameTracker` reads no crossbar, I-cache or handler events, so
    // alone it is never handed them; paired with a log, the log still is.
    // Neither side may notice the other.
    let cfg = NicConfig::builder().cores(2).cpu_mhz(300).build().unwrap();
    let (warmup, window) = (Ps::from_us(40), Ps::from_us(60));
    let mut alone = NicSystem::build(cfg)
        .probe(FrameTracker::new())
        .finish()
        .unwrap();
    let base = alone.run_measured(warmup, window);
    let mut log_alone = NicSystem::build(cfg)
        .probe(EventLog::new())
        .finish()
        .unwrap();
    assert_eq!(log_alone.run_measured(warmup, window), base);
    let mut paired = NicSystem::build(cfg)
        .probe((FrameTracker::new(), EventLog::new()))
        .finish()
        .unwrap();
    assert_eq!(paired.run_measured(warmup, window), base);

    let (tracker, log) = paired.unwrap_probe();
    let (want, got) = (alone.probe().summary(), tracker.summary());
    assert!(want.tx_frames > 0 && want.rx_frames > 0, "no traffic");
    assert_eq!(format!("{want:?}"), format!("{got:?}"));
    // Every event, every `SpGrant` among them, in the same order.
    let want = log_alone.probe().events();
    assert!(want.iter().any(|e| matches!(e, Event::SpGrant { .. })));
    assert!(want == log.events(), "the paired log lost events");
}

#[test]
fn lifecycle_under_offered_load_pacing() {
    // Below-saturation pacing leaves long quiet spells: frames cross
    // the warm-up boundary in flight, which is exactly where orphaned
    // stage records would show up.
    for fps in [20_000.0, 200_000.0] {
        let cfg = NicConfig::builder()
            .cores(2)
            .cpu_mhz(300)
            .offered_tx_fps(Some(fps))
            .offered_rx_fps(Some(fps))
            .build()
            .unwrap();
        assert_lifecycle(cfg, &format!("paced {fps} fps"));
    }
}
