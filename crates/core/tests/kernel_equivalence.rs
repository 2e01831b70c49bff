//! Dense-vs-event kernel equivalence.
//!
//! The hybrid event-driven kernel (`NicSystem::run_until`) skips cycles
//! it can prove no component will act on. Its contract is *bit-identical
//! results*: every counter, profile bucket, and derived statistic must
//! match what the dense reference kernel (`run_until_dense`) produces.
//! These tests run both kernels over identical configurations and assert
//! exact `RunStats` equality — and, for probed systems, an identical
//! event stream.

use nicsim::{
    DispatchMode, DmaDir, Event, EventLog, FaultPlan, FrameTracker, FwMode, NicConfig, NicSystem,
    Probe,
};
use nicsim_sim::{Freq, Ps, XorShift64};

const WARMUP: Ps = Ps(100_000_000); // 100 us
const WINDOW: Ps = Ps(150_000_000); // 150 us

/// Returns the event kernel's `(skipped, stepped)` cycle split.
fn assert_identical(cfg: NicConfig, warmup: Ps, window: Ps, label: &str) -> (u64, u64) {
    let mut dense = NicSystem::build(cfg).finish().unwrap();
    let d = dense.run_measured_dense(warmup, window);
    let mut event = NicSystem::build(cfg).finish().unwrap();
    let e = event.run_measured(warmup, window);
    assert_eq!(dense.now(), event.now(), "{label}: clocks diverged");
    assert_eq!(d, e, "{label}: stats diverged");
    // The configurations under test must exercise real traffic, or the
    // equivalence is vacuous.
    assert!(d.tx_frames > 0 || d.rx_frames > 0, "{label}: no traffic");
    event.kernel_cycle_split()
}

#[test]
fn kernels_match_across_core_counts_and_modes() {
    for cores in [1usize, 2, 6] {
        for mode in [FwMode::SoftwareOnly, FwMode::RmwEnhanced] {
            let cfg = NicConfig::builder()
                .cores(cores)
                .cpu_mhz(300)
                .mode(mode)
                .build()
                .unwrap();
            assert_identical(cfg, WARMUP, WINDOW, &format!("{cores} cores, {mode:?}"));
        }
    }
}

#[test]
fn kernels_match_with_small_datagrams() {
    // Small frames arrive ~20x more often, stressing the MacRx arrival
    // bound and the drop path (small payloads overrun the firmware).
    for cores in [1usize, 6] {
        let cfg = NicConfig::builder()
            .cores(cores)
            .cpu_mhz(300)
            .mode(FwMode::RmwEnhanced)
            .udp_payload(18)
            .build()
            .unwrap();
        assert_identical(cfg, WARMUP, WINDOW, &format!("{cores} cores, 18B payload"));
    }
}

#[test]
fn kernels_match_in_ideal_mode_and_one_sided_traffic() {
    let cfg = NicConfig::builder()
        .mode(FwMode::Ideal)
        .cores(1)
        .cpu_mhz(300)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "ideal");

    // Receive-only: the send path is idle, so the event kernel leans
    // entirely on the arrival/completion bounds.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .send_enabled(false)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "recv-only");

    // Send-only: the generator is disabled (`next_arrival` = never);
    // wakes come from the driver interval and wire completions.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .recv_enabled(false)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "send-only");
}

#[test]
fn kernels_match_under_offered_load_pacing() {
    // Paced offered load makes the driver's send budget a function of
    // the clock, so a poll that does nothing *now* may act later without
    // any NIC-side write: the kernel must never mark the driver idle
    // here. Below-saturation rates leave the NIC with long quiet spells,
    // exercising exactly that path.
    for fps in [20_000.0, 200_000.0] {
        let cfg = NicConfig::builder()
            .cores(2)
            .cpu_mhz(300)
            .offered_tx_fps(Some(fps))
            .offered_rx_fps(Some(fps))
            .build()
            .unwrap();
        assert_identical(cfg, WARMUP, WINDOW, &format!("paced {fps} fps"));
    }
}

#[test]
fn kernels_match_in_interrupt_dispatch() {
    // Interrupt dispatch is where the event kernel's core-elision does
    // the most work (a parked core reports an unbounded wake), so the
    // equivalence matrix covers it across core counts, payloads, and
    // one-sided traffic.
    for cores in [1usize, 2, 6] {
        let cfg = NicConfig::builder()
            .cores(cores)
            .cpu_mhz(300)
            .dispatch(DispatchMode::Interrupt)
            .build()
            .unwrap();
        assert_identical(cfg, WARMUP, WINDOW, &format!("{cores} cores, interrupt"));
    }
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dispatch(DispatchMode::Interrupt)
        .udp_payload(18)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "interrupt, 18B payload");
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dispatch(DispatchMode::Interrupt)
        .send_enabled(false)
        .offered_rx_fps(Some(100_000.0))
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "interrupt, paced recv-only");
}

#[test]
fn event_kernel_still_skips_where_the_model_idles() {
    // The four points the host-speed numbers hinge on (EXPERIMENTS.md).
    // A skipped cycle is one the kernel does not step: either nothing
    // acts on it (the wake lookahead jumps it) or a core alone on the
    // crossbar acts on it ahead of the clock (`Core::run_alone`). The
    // skipped share is a function of the model alone — the same on
    // every host — so a regression in either that quietly degrades the
    // event kernel to dense stepping fails here without a wall clock.
    // The 1-core points run 2 ms + 4 ms windows (saturated 0.844,
    // polling 0.983, interrupt 0.983), so their splits mostly measure
    // the run-ahead; the 6-core point never has a lone core and
    // measures the lookahead alone. The floors sit below those shares.
    // Every point also pins its exact `(skipped, stepped)` split: the
    // model fixes each skip decision, so a wake bound or a run-ahead
    // stop that moves by one cycle anywhere fails here like a pinned
    // digest does.
    let frac = |cfg: NicConfig, label: &str, pinned: (u64, u64)| {
        let split = assert_identical(cfg, Ps::from_ms(2), Ps::from_ms(4), label);
        assert_eq!(split, pinned, "{label}: skip decisions moved");
        split.0 as f64 / (split.0 + split.1) as f64
    };
    let software = NicConfig::builder().cpu_mhz(200).mode(FwMode::SoftwareOnly);
    let one = software.cores(1).build().unwrap();
    assert!(frac(one, "1 core, saturated", (1_013_295, 186_705)) >= 0.30);
    let moderate = one
        .to_builder()
        .send_enabled(false)
        .offered_rx_fps(Some(20_000.0));
    let polling = moderate.build().unwrap();
    assert!(frac(polling, "20 kfps rx, polling", (1_180_003, 19_997)) > 0.0);
    let parked = moderate.dispatch(DispatchMode::Interrupt).build().unwrap();
    assert!(frac(parked, "20 kfps rx, interrupt", (1_180_036, 19_964)) >= 0.85);
    // At line rate nearly every cycle has crossbar traffic: little to
    // skip, mostly identity to hold.
    let six = software.cores(6).build().unwrap();
    let split = assert_identical(six, WARMUP, WINDOW, "6 cores, saturated");
    assert_eq!(
        split,
        (14, 49_986),
        "6 cores, saturated: skip decisions moved"
    );
}

#[test]
fn probed_event_kernel_event_stream_is_bit_identical_to_dense() {
    // Probes observe, they never feed back — and cycle skipping and
    // per-component gating only ever elide ticks that emit nothing. So a
    // probed event-kernel run must produce the *same event stream, in
    // the same order*, every op each core takes included, as the probed
    // dense kernel — not merely the same aggregate stats. Compare raw captures in both dispatch modes (a
    // shorter window keeps the captures tractable: grants alone run to
    // hundreds of thousands of events).
    let two = |dispatch| {
        let cfg = NicConfig::builder()
            .cores(2)
            .cpu_mhz(300)
            .dispatch(dispatch);
        (cfg.build().unwrap(), Ps::from_us(40), Ps::from_us(60))
    };
    // One core at 20 kfps, interrupt dispatch: nearly every cycle it acts
    // on, the core runs ahead alone, so its grants, ops, I-cache accesses
    // and handler entries come from `Core::run_alone`.
    let alone = one_core_20kfps_interrupt();
    for (cfg, warmup, window) in [
        two(DispatchMode::Polling),
        two(DispatchMode::Interrupt),
        (alone, Ps::from_us(100), Ps::from_us(400)),
    ] {
        let label = format!("probed, {} cores, {:?}", cfg.cores, cfg.dispatch);
        let mut dense = NicSystem::build(cfg)
            .probe(EventLog::new())
            .finish()
            .unwrap();
        let d = dense.run_measured_dense(warmup, window);
        let mut event = NicSystem::build(cfg)
            .probe(EventLog::new())
            .finish()
            .unwrap();
        let e = event.run_measured(warmup, window);
        assert_eq!(d, e, "{label}: stats diverged");
        if cfg.cores == 1 {
            // It skipped 68,077 of these 100,000 cycles before cores ran
            // ahead.
            let (skipped, _) = event.kernel_cycle_split();
            assert!(skipped > 68_077, "{label}: {skipped} skipped");
        }
        let (de, ee) = (dense.probe().events(), event.probe().events());
        assert!(!de.is_empty(), "{label}: no events captured");
        // The log reads the work class too: the op streams are compared.
        assert!(
            de.iter().any(|e| matches!(e, Event::OpTaken { .. })),
            "{label}: no ops captured"
        );
        if de != ee {
            let n = de.len().min(ee.len());
            let i = (0..n).find(|&i| de[i] != ee[i]).unwrap_or(n);
            panic!(
                "{label}: event streams diverged at index {i} \
                 (dense {} events, event {} events):\n  dense: {:?}\n  event: {:?}",
                de.len(),
                ee.len(),
                de.get(i),
                ee.get(i),
            );
        }
    }
}

#[test]
fn probed_event_kernel_frame_tracker_matches_dense() {
    // A real sink (not just a raw log): per-frame stage timelines joined
    // from the event kernel's stream must come out identical to the
    // dense kernel's, and internally consistent. Paced interrupt-mode
    // receive leaves long skippable spells between frames.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dispatch(DispatchMode::Interrupt)
        .offered_rx_fps(Some(100_000.0))
        .build()
        .unwrap();
    let mut dense = NicSystem::build(cfg)
        .probe(FrameTracker::new())
        .finish()
        .unwrap();
    let d = dense.run_measured_dense(WARMUP, WINDOW);
    let mut event = NicSystem::build(cfg)
        .probe(FrameTracker::new())
        .finish()
        .unwrap();
    let e = event.run_measured(WARMUP, WINDOW);
    assert_eq!(d, e, "frame-tracker config: stats diverged");
    let (skipped, _stepped) = event.kernel_cycle_split();
    assert!(skipped > 0, "event kernel never skipped: vacuous");
    let (dt, et) = (dense.probe(), event.probe());
    assert!(
        et.violations().is_empty(),
        "event-kernel timeline violations: {:?}",
        et.violations()
    );
    let (ds, es) = (dt.summary(), et.summary());
    assert!(
        ds.tx_frames + ds.rx_frames > 0,
        "no complete frame timelines"
    );
    assert_eq!(
        format!("{ds:?}"),
        format!("{es:?}"),
        "latency summaries diverged"
    );
}

/// The frame-visible record of a receive path: the wire sequence
/// numbers MAC RX accepted and the (src, dst, len) of every DMA write
/// command the engine started.
#[derive(Default)]
struct RxRecord {
    accepted: Vec<u32>,
    dma_writes: Vec<(u32, u32, u32)>,
}

impl Probe for RxRecord {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::MacRxArrival {
                seq,
                dropped: false,
                ..
            } => self.accepted.push(seq),
            Event::DmaStart {
                dir: DmaDir::Write,
                src,
                dst,
                bytes,
                ..
            } => self.dma_writes.push((src, dst, bytes)),
            _ => {}
        }
    }
}

#[test]
fn polling_and_interrupt_deliver_identical_frames() {
    // The dispatch modes differ only in the cost of waiting: at a paced
    // load both can sustain, every offered frame must flow through the
    // same descriptors in the same order. Cycle counts differ (that is
    // the point), so this compares the frame-visible record instead of
    // RunStats: the wire sequence numbers the MAC accepted and the
    // (src, dst, len) of every DMA write the engine started (payload,
    // descriptor and immediate alike), under a fault plan that
    // exercises CRC drops and DMA retries in both modes.
    let plan = FaultPlan {
        seed: 7,
        link_corrupt: 0.01,
        dma_error: 0.005,
        ..FaultPlan::default()
    };
    let base = NicConfig::builder()
        .cores(2)
        .cpu_mhz(400)
        .offered_tx_fps(Some(60_000.0))
        .offered_rx_fps(Some(60_000.0))
        .faults(Some(plan))
        .build()
        .unwrap();
    let mut runs = Vec::new();
    for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
        let cfg = base.to_builder().dispatch(dispatch).build().unwrap();
        let mut sys = NicSystem::build(cfg)
            .probe(RxRecord::default())
            .finish()
            .unwrap();
        sys.run_until(Ps::from_us(400));
        let stats = sys.collect();
        assert!(stats.tx_frames > 10 && stats.rx_frames > 10, "no traffic");
        let record = sys.unwrap_probe();
        runs.push((
            record.accepted,
            record.dma_writes,
            stats.errors.expect("fault plan configured"),
            stats.tx_frames,
            stats.rx_frames,
        ));
    }
    let (p, i) = (&runs[0], &runs[1]);
    // The accepted-frame record is cut at the same *wall-clock* instant
    // in both runs, but in-flight tails may differ by a frame or two;
    // the common prefix must match exactly.
    let n = p.0.len().min(i.0.len());
    assert!(
        p.0.len().abs_diff(i.0.len()) <= 4,
        "acceptance counts diverged"
    );
    assert_eq!(p.0[..n], i.0[..n], "accepted wire sequences diverged");
    let n = p.1.len().min(i.1.len());
    assert!(
        p.1.len().abs_diff(i.1.len()) <= 4,
        "payload DMA counts diverged"
    );
    assert_eq!(p.1[..n], i.1[..n], "payload DMA commands diverged");
    assert!(
        p.3.abs_diff(i.3) <= 4 && p.4.abs_diff(i.4) <= 4,
        "delivered frame counts diverged: polling ({}, {}), interrupt ({}, {})",
        p.3,
        p.4,
        i.3,
        i.4
    );
    assert_eq!(
        p.2.crc_dropped, i.2.crc_dropped,
        "CRC drop accounting diverged"
    );
    assert_eq!(
        (p.2.link_corrupt_injected, p.2.link_truncate_injected),
        (i.2.link_corrupt_injected, i.2.link_truncate_injected),
        "link injection schedules diverged"
    );
}

#[test]
fn kernels_match_on_non_default_topologies() {
    // A non-default definition (extra DMA engines) must hold the same
    // equivalence contract as the default: the event kernel
    // bit-identical to the dense reference, with real traffic flowing
    // through the striped engines.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dma_engines(2)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "2 engines");
}

#[test]
fn non_default_topology_in_interrupt_dispatch() {
    // The extra engines add dispatch sources past the default ten; the
    // doorbell watch list must cover their done counters or a parked
    // core sleeps through striped completions.
    let cfg = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dma_engines(2)
        .dispatch(DispatchMode::Interrupt)
        .build()
        .unwrap();
    assert_identical(cfg, WARMUP, WINDOW, "2 engines, interrupt");
}

#[test]
fn kernels_match_on_random_configurations() {
    fn pick<T: Copy>(rng: &mut XorShift64, options: &[T]) -> T {
        options[rng.below(options.len() as u64) as usize]
    }
    let rng = &mut XorShift64::for_site(0x9e37_79b9_7f4a_7c15, 0);
    for trial in 0..6 {
        let cfg = NicConfig::builder()
            .cores(pick(rng, &[1usize, 2, 3, 4, 6]))
            .cpu_mhz(pick(rng, &[150u64, 200, 300, 500]))
            .mode(pick(rng, &[FwMode::SoftwareOnly, FwMode::RmwEnhanced]))
            .udp_payload(pick(rng, &[32usize, 256, 800, 1472]))
            .build()
            .unwrap();
        let warmup = Ps::from_us(pick(rng, &[50u64, 80, 120]));
        let window = Ps::from_us(pick(rng, &[80u64, 100, 150]));
        assert_identical(cfg, warmup, window, &format!("trial {trial}: {cfg:?}"));
    }
}

#[test]
fn run_until_in_random_slices_matches_one_call() {
    // Cores are ticked only on cycles where they act, and `run_until`
    // charges every core's outstanding cycles before it returns. A fleet
    // returns from it every microsecond, so the catch-up runs at every
    // kind of boundary: mid-span, mid-wait, parked. Slicing the default
    // 6-core run at random cycle counts must not move a counter, and
    // neither run may differ from the dense reference (a missing
    // catch-up would leave both short by the same cycles).
    //
    // The 1-core interrupt point runs ahead alone (`Core::run_alone`)
    // through most of its cycles, so slices end inside those runs too.
    let rng = &mut XorShift64::for_site(0x51ce, 0);
    for (cfg, warmup, window) in [
        (NicConfig::default(), Ps::from_us(60), Ps::from_us(140)),
        (one_core_20kfps_interrupt(), Ps::from_ms(2), Ps::from_ms(4)),
    ] {
        let label = format!("{} cores, {:?}", cfg.cores, cfg.dispatch);
        let mut whole = NicSystem::build(cfg).finish().unwrap();
        let want = whole.run_measured(warmup, window);
        let mut dense = NicSystem::build(cfg).finish().unwrap();
        assert_eq!(dense.run_measured_dense(warmup, window), want, "{label}");
        if cfg.cores == 1 {
            // The same run as `event_kernel_still_skips_where_the_model_idles`'s
            // interrupt point, which skipped 1,080,153 cycles before cores
            // ran ahead.
            let (skipped, _) = whole.kernel_cycle_split();
            assert!(skipped > 1_080_153, "{label}: {skipped} skipped");
        }

        let period = Freq::from_mhz(cfg.cpu_mhz).period();
        let mut sliced = NicSystem::build(cfg).finish().unwrap();
        let mut slices = 0;
        let mut run = |sys: &mut NicSystem, span: Ps| {
            let until = sys.now() + span;
            while sys.now() < until {
                let cycles = 1 + rng.below(500);
                sys.run_until((sys.now() + Ps(period.0 * cycles)).min(until));
                slices += 1;
            }
        };
        run(&mut sliced, warmup);
        sliced.reset_window();
        run(&mut sliced, window);
        assert_eq!(sliced.collect(), want, "{label}: sliced run diverged");
        assert!(slices > 100, "{label}: {slices} slices");
    }
}

/// One core at 200 MHz with software-only firmware, receiving 20 kfps
/// with interrupt dispatch: `event_kernel_still_skips_where_the_model_idles`'s
/// interrupt point.
fn one_core_20kfps_interrupt() -> NicConfig {
    NicConfig::builder()
        .cores(1)
        .cpu_mhz(200)
        .mode(FwMode::SoftwareOnly)
        .send_enabled(false)
        .offered_rx_fps(Some(20_000.0))
        .dispatch(DispatchMode::Interrupt)
        .build()
        .unwrap()
}

/// FNV-1a over every `RunStats::summary()` row: the name's bytes, then
/// the value's bits (an integer as is, a float through `to_bits`).
fn summary_digest(stats: &nicsim::RunStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (name, value) in stats.summary() {
        eat(name.as_bytes());
        eat(&match value {
            nicsim::StatValue::Int(v) => v.to_le_bytes(),
            nicsim::StatValue::Float(v) => v.to_bits().to_le_bytes(),
        });
    }
    h
}

#[test]
fn model_is_cycle_exact_against_pinned_digests() {
    // Dense/event identity cannot see a change that moves both kernels
    // the same way (say, an assist pushing its scratchpad transactions
    // in a different order, which re-decides crossbar arbitration). So
    // five short runs are pinned to the digests this model produced
    // when the test was written; a refactor that claims to be
    // cycle-exact keeps them, a deliberate model change re-pins them
    // and says so. The faulted point keeps `stall_alpha=0`: the Pareto
    // tail is the one place a libm `powf` could enter a statistic. The
    // software-only duplex point runs the send path under locks, which
    // no other point does.
    let saturated = NicConfig::builder().cores(6).cpu_mhz(166);
    let faulted = NicConfig::builder()
        .cores(2)
        .cpu_mhz(300)
        .dma_engines(2)
        .faults_spec("seed=5,dma=0.05,stall=0.05,hang_us=40,watchdog_us=5,poison=0.02,crc=0.02,stall_alpha=0")
        .unwrap();
    let points = [
        ("6x166 duplex 1472 B", saturated, 0xf5c4_63ca_6e1d_bd1fu64),
        (
            "6x166 duplex 18 B",
            saturated.udp_payload(18),
            0x8410_88d7_40ec_575b,
        ),
        (
            "1 core 200 MHz interrupt 20 kfps rx-only",
            NicConfig::builder()
                .cores(1)
                .cpu_mhz(200)
                .mode(FwMode::SoftwareOnly)
                .dispatch(DispatchMode::Interrupt)
                .send_enabled(false)
                .offered_rx_fps(Some(20_000.0)),
            0xe627_1572_f65a_0c03,
        ),
        (
            "2 DMA engine pairs, armed fault plan",
            faulted,
            0xccfc_1355_f10d_899c,
        ),
        (
            "software-only 6x200 duplex 1472 B",
            NicConfig::software_only_200().to_builder(),
            0x6c2d_a3fa_577f_1bbf,
        ),
    ];
    let mut moved = Vec::new();
    for (label, builder, pinned) in points {
        let mut sys = NicSystem::build(builder.build().unwrap()).finish().unwrap();
        let stats = sys.run_measured(Ps::from_us(60), Ps::from_us(140));
        assert!(stats.tx_frames + stats.rx_frames > 0, "{label}: no traffic");
        if let Some(e) = stats.errors {
            assert!(
                e.dma_aborts + e.dma_retries_ok > 0
                    && e.pci_stalls > 0
                    && e.watchdog_resets > 0
                    && e.host_poison_injected > 0
                    && e.crc_dropped > 0,
                "{label}: a fault class the digest should cover never fired: {e:?}"
            );
        }
        let got = summary_digest(&stats);
        if got != pinned {
            moved.push(format!("{label}: pinned {pinned:#018x}, got {got:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "simulated results moved:\n{}",
        moved.join("\n")
    );
}
