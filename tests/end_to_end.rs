//! Cross-crate integration tests: the full NIC moving real frames.
//!
//! These exercise the complete system — driver, DMA engines, scratchpad
//! firmware, frame memory, MAC, wire — and check the end-to-end
//! contracts the paper's design guarantees: byte-exact delivery,
//! total frame ordering, and conservation of frames.

use nicsim::{Event, EventLog, FwMode, NicConfig, NicSystem};
use nicsim_cpu::PendingOp;
use nicsim_sim::Ps;

fn small(cfg: NicConfig) -> NicConfig {
    cfg.to_builder()
        .cores(cfg.cores.min(2))
        .cpu_mhz(500)
        .build()
        .unwrap()
}

#[test]
fn duplex_traffic_is_validated_end_to_end() {
    let mut sys = NicSystem::build(small(NicConfig::default()))
        .finish()
        .unwrap();
    let s = sys.run_measured(Ps::from_us(200), Ps::from_us(300));
    assert!(s.tx_frames > 50, "tx {}", s.tx_frames);
    assert!(s.rx_frames > 50, "rx {}", s.rx_frames);
    s.assert_clean();
}

#[test]
fn all_three_firmware_modes_work() {
    for mode in [FwMode::Ideal, FwMode::SoftwareOnly, FwMode::RmwEnhanced] {
        let cfg = NicConfig::builder()
            .cores(if mode == FwMode::Ideal { 1 } else { 2 })
            .cpu_mhz(500)
            .mode(mode)
            .build()
            .unwrap();
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let s = sys.run_measured(Ps::from_us(200), Ps::from_us(300));
        assert!(s.tx_frames > 10, "{mode:?}: tx {}", s.tx_frames);
        assert!(s.rx_frames > 10, "{mode:?}: rx {}", s.rx_frames);
        s.assert_clean();
    }
}

#[test]
fn frames_are_never_reordered_even_under_pressure() {
    // A slow NIC under line-rate input drops frames (receiver overrun)
    // but must never reorder or corrupt what it does deliver.
    let cfg = NicConfig::builder().cores(1).cpu_mhz(150).build().unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    let s = sys.run_measured(Ps::from_ms(1), Ps::from_ms(1));
    assert!(s.rx_mac_drops > 0, "this config should overrun");
    assert_eq!(s.rx_out_of_order, 0);
    assert_eq!(s.rx_corrupt, 0);
    assert_eq!(s.tx_errors, 0);
}

#[test]
fn small_frames_work_end_to_end() {
    for payload in [18usize, 100, 700] {
        let cfg = small(NicConfig::default())
            .to_builder()
            .udp_payload(payload)
            .build()
            .unwrap();
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let s = sys.run_measured(Ps::from_us(150), Ps::from_us(200));
        assert!(s.rx_frames > 20, "payload {payload}: rx {}", s.rx_frames);
        s.assert_clean();
    }
}

#[test]
fn unidirectional_send_only() {
    let cfg = small(NicConfig::default())
        .to_builder()
        .recv_enabled(false)
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    let s = sys.run_measured(Ps::from_us(200), Ps::from_us(300));
    assert!(s.tx_frames > 50);
    assert_eq!(s.rx_frames, 0);
    s.assert_clean();
}

#[test]
fn unidirectional_receive_only() {
    let cfg = small(NicConfig::default())
        .to_builder()
        .send_enabled(false)
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    let s = sys.run_measured(Ps::from_us(200), Ps::from_us(300));
    assert_eq!(s.tx_frames, 0);
    assert!(s.rx_frames > 50);
    s.assert_clean();
}

#[test]
fn offered_load_is_respected() {
    let cfg = small(NicConfig::default())
        .to_builder()
        .offered_tx_fps(Some(100_000.0))
        .offered_rx_fps(Some(100_000.0))
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    let s = sys.run_measured(Ps::from_ms(1), Ps::from_ms(2));
    s.assert_clean();
    let fps = s.tx_frames as f64 / s.window.as_secs_f64();
    assert!(
        (80_000.0..120_000.0).contains(&fps),
        "offered 100k fps, measured {fps}"
    );
}

#[test]
fn firmware_halts_on_stop_flag() {
    let mut sys = NicSystem::build(small(NicConfig::default()))
        .finish()
        .unwrap();
    sys.run_until(Ps::from_us(100));
    sys.stop(Ps::from_ms(10));
    assert!(sys.halted());
}

#[test]
fn throughput_scales_with_cores() {
    let gbps = |cores: usize| {
        let cfg = NicConfig::builder()
            .cores(cores)
            .cpu_mhz(150)
            .build()
            .unwrap();
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let s = sys.run_measured(Ps::from_ms(1), Ps::from_ms(1));
        s.total_udp_gbps()
    };
    let one = gbps(1);
    let four = gbps(4);
    assert!(
        four > one * 1.8,
        "4 cores ({four:.2}) should far outrun 1 core ({one:.2})"
    );
}

#[test]
fn rmw_mode_is_at_least_as_fast_as_software() {
    let run = |mode| {
        let cfg = NicConfig::builder()
            .cores(2)
            .cpu_mhz(250)
            .mode(mode)
            .build()
            .unwrap();
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        sys.run_measured(Ps::from_ms(1), Ps::from_ms(1))
            .total_udp_gbps()
    };
    let sw = run(FwMode::SoftwareOnly);
    let rmw = run(FwMode::RmwEnhanced);
    assert!(
        rmw >= sw * 0.98,
        "RMW ({rmw:.2}) should not lose to software ({sw:.2})"
    );
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sys = NicSystem::build(small(NicConfig::default()))
            .finish()
            .unwrap();
        let s = sys.run_measured(Ps::from_us(200), Ps::from_us(200));
        (
            s.tx_frames,
            s.rx_frames,
            s.profile.total(|p| p.instructions),
        )
    };
    assert_eq!(run(), run(), "simulation must be deterministic");
}

#[test]
fn trace_capture_produces_metadata_accesses() {
    let mut sys = NicSystem::build(small(NicConfig::default()))
        .probe(nicsim_mem::AccessTrace::with_limit(100_000))
        .finish()
        .unwrap();
    sys.run_until(Ps::from_us(200));
    let end = sys.map().end;
    let trace = sys.unwrap_probe();
    assert!(trace.len() > 1000, "got {} records", trace.len());
    // All addresses must be inside the scratchpad.
    assert!(trace.records().iter().all(|r| r.addr < end));
}

/// Core 0's ops over `[0, until)` of the idealized firmware, as an
/// [`EventLog`] receives them.
fn ideal_core0_ops(until: Ps) -> Vec<PendingOp> {
    let mut sys = NicSystem::build(NicConfig::ideal())
        .probe(EventLog::new())
        .finish()
        .unwrap();
    sys.run_until(until);
    let log = sys.unwrap_probe();
    let ops = log.events().iter().filter_map(|e| match *e {
        Event::OpTaken { core: 0, op, .. } => Some(op),
        _ => None,
    });
    ops.collect()
}

#[test]
fn ilp_capture_produces_events() {
    assert!(ideal_core0_ops(Ps::from_us(300)).len() > 1000);
}

/// Table 2 is computed from core 0's charged-op trace, so the trace of a
/// short run is pinned: FNV-1a over each op's `Debug` text, constant
/// taken before the trace moved from the firmware slot to the engine.
#[test]
fn ilp_trace_is_pinned() {
    let ops = ideal_core0_ops(Ps::from_us(100));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for op in &ops {
        for b in format!("{op:?};").bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        (ops.len(), h),
        (32_986, 0x0413_eae7_affe_42d2),
        "ILP trace moved"
    );
}
