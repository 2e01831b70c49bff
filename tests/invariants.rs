//! System-level invariants: the firmware's progress counters form a
//! lattice of `<=` relations that must hold at any observation point,
//! and frames are conserved end to end.

use nicsim::{FwMode, NicConfig, NicSystem};
use nicsim_sim::Ps;

fn run_system(cfg: NicConfig, us: u64) -> NicSystem {
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    sys.run_until(Ps::from_us(us));
    sys
}

/// All counter relations of the send path, checked via direct scratchpad
/// inspection. The chain follows Figure 1's steps.
fn check_send_chain(sys: &NicSystem) {
    let m = sys.map();
    let sp = sys.scratchpad();
    let mbox = sp.peek(m.send_bd.mailbox_prod);
    let fetched = sp.peek(m.send_bd.fetched);
    let parsed = sp.peek(m.send_bd.parsed);
    let cons = sp.peek(m.send_bd.cons);
    let ready = sp.peek(m.send_ready_commit);
    let mactx_prod = sp.peek(m.mactx_prod);
    let mactx_done = sp.peek(m.mactx_done);
    let claim = sp.peek(m.send_txdone_claim);
    let commit = sp.peek(m.send_txdone_commit);
    assert!(fetched <= mbox, "fetch beyond mailbox: {fetched} > {mbox}");
    assert!(parsed <= fetched, "parse beyond fetch");
    assert!(cons <= parsed, "consume beyond parse");
    assert!(cons.is_multiple_of(2), "BDs consumed in pairs");
    assert!(ready <= cons / 2, "commit beyond allocated frames");
    assert_eq!(mactx_prod, ready, "MAC ring producer is the ready commit");
    assert!(mactx_done <= mactx_prod, "MAC done beyond produced");
    assert!(claim <= mactx_done, "claim beyond MAC done");
    assert!(commit <= claim, "txdone commit beyond claim");
}

/// The receive-path chain, following Figure 2's steps.
fn check_recv_chain(sys: &NicSystem) {
    let m = sys.map();
    let sp = sys.scratchpad();
    let mbox = sp.peek(m.recv_bd.mailbox_prod);
    let fetched = sp.peek(m.recv_bd.fetched);
    let parsed = sp.peek(m.recv_bd.parsed);
    let cons = sp.peek(m.recv_bd.cons);
    let macrx = sp.peek(m.macrx_prod);
    let claim = sp.peek(m.recv_claim);
    let commit = sp.peek(m.recv_commit);
    assert!(fetched <= mbox);
    assert!(parsed <= fetched);
    assert!(cons <= parsed);
    assert!(claim <= macrx, "claimed frames beyond MAC production");
    assert_eq!(cons, claim, "one host buffer consumed per claimed frame");
    assert!(commit <= claim, "commit beyond claim");
}

#[test]
fn counter_lattice_holds_over_time() {
    let cfg = NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    for step in 1..=20u64 {
        sys.run_until(Ps::from_us(step * 17));
        check_send_chain(&sys);
        check_recv_chain(&sys);
    }
}

#[test]
fn counter_lattice_holds_under_overload() {
    // One slow core under line-rate input: drops occur, invariants hold.
    let cfg = NicConfig::builder()
        .cores(1)
        .cpu_mhz(120)
        .udp_payload(100)
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    for step in 1..=10u64 {
        sys.run_until(Ps::from_us(step * 60));
        check_send_chain(&sys);
        check_recv_chain(&sys);
    }
}

#[test]
fn counter_lattice_holds_in_software_mode() {
    let cfg = NicConfig::builder()
        .cores(3)
        .cpu_mhz(400)
        .mode(FwMode::SoftwareOnly)
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    for step in 1..=10u64 {
        sys.run_until(Ps::from_us(step * 40));
        check_send_chain(&sys);
        check_recv_chain(&sys);
    }
}

#[test]
fn frames_are_conserved() {
    let sys = run_system(
        NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap(),
        400,
    );
    let s = sys.collect();
    let m = sys.map();
    let sp = sys.scratchpad();
    // Every frame the driver counted was committed by the firmware.
    let commit = sp.peek(m.recv_commit) as u64;
    assert!(
        s.rx_frames <= commit,
        "driver saw {} frames but firmware committed {commit}",
        s.rx_frames
    );
    // Transmit: wire frames == MAC done counter.
    let done = sp.peek(m.mactx_done) as u64;
    assert_eq!(s.tx_frames, done, "wire frames vs MAC done counter");
    s.assert_clean();
}

#[test]
fn stop_drains_to_a_consistent_state() {
    let cfg = NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    sys.run_until(Ps::from_us(120));
    sys.stop(Ps::from_ms(10));
    check_send_chain(&sys);
    check_recv_chain(&sys);
    // All locks must be released once every core has halted.
    let m = sys.map();
    let sp = sys.scratchpad();
    for lock in [
        m.send_bd.lock_fetch,
        m.recv_bd.lock_fetch,
        m.dmard(0).lock,
        m.dmawr(0).lock,
        m.lock_sbd,
        m.send_bd.lock_parse,
        m.recv_bd.lock_parse,
        m.lock_rxclaim,
        m.dmard(0).lock_claim,
        m.dmawr(0).lock_claim,
        m.lock_mactx_claim,
        m.lock_send_ready_commit,
        m.lock_send_txdone_commit,
        m.lock_recv_commit,
    ] {
        assert_eq!(sp.peek(lock), 0, "lock {lock:#x} still held after halt");
    }
}

#[test]
fn firmware_statistics_track_progress() {
    let sys = run_system(
        NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap(),
        300,
    );
    let m = sys.map();
    let sp = sys.scratchpad();
    // stats: 0 = tx started, 1 = tx completed, 2 = rx started,
    // 3 = rx returned. They may lag the counters slightly (racy adds)
    // but must be in the right ballpark.
    let tx_started = sp.peek(m.stat(0));
    let tx_done = sp.peek(m.stat(1));
    let rx_started = sp.peek(m.stat(2));
    let rx_returned = sp.peek(m.stat(3));
    let alloc = sp.peek(m.send_bd.cons) / 2;
    let commit = sp.peek(m.recv_commit);
    assert!(tx_started > 0 && rx_started > 0);
    assert!(tx_done <= tx_started);
    assert!(rx_returned <= rx_started);
    // Unsynchronized counters may lose a few updates, never gain them.
    assert!(tx_started <= alloc);
    assert!(rx_returned <= commit);
}

#[test]
fn scratchpad_bandwidth_is_within_peak() {
    let mut sys = NicSystem::build(NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap())
        .finish()
        .unwrap();
    let s = sys.run_measured(Ps::from_us(150), Ps::from_us(200));
    let peak = sys.config().banks as f64 * 4.0 * 8.0 * sys.config().cpu_mhz as f64 * 1e6 / 1e9;
    assert!(
        s.scratchpad_gbps <= peak,
        "consumed {} Gb/s above peak {peak}",
        s.scratchpad_gbps
    );
    assert!(s.frame_mem_gbps <= 64.0, "frame memory above GDDR peak");
}

#[test]
fn ipc_breakdown_sums_to_unity_when_busy() {
    use nicsim_cpu::StallBucket;
    // 200 MHz, one core: saturated, the core never idles.
    let mut sys = NicSystem::build(NicConfig::builder().cores(1).cpu_mhz(200).build().unwrap())
        .finish()
        .unwrap();
    let s = sys.run_measured(Ps::from_us(300), Ps::from_us(300));
    let total: f64 = StallBucket::ALL
        .iter()
        .map(|&b| s.ipc_contribution(b))
        .sum();
    assert!(
        (total - 1.0).abs() < 0.01,
        "stall buckets must account for every cycle, got {total}"
    );
}

#[test]
fn misalignment_waste_is_nonzero_but_bounded() {
    let mut sys = NicSystem::build(NicConfig::builder().cores(2).cpu_mhz(500).build().unwrap())
        .finish()
        .unwrap();
    let s = sys.run_measured(Ps::from_us(200), Ps::from_us(300));
    // Headers are 42 bytes and frames land at +2 offsets, so some waste
    // is inevitable (§6.2) — but it must stay a small fraction.
    assert!(s.frame_mem_wasted_bytes > 0, "expected misalignment waste");
    let frac =
        s.frame_mem_wasted_bytes as f64 * 8.0 / s.window.as_secs_f64() / 1e9 / s.frame_mem_gbps;
    assert!(frac < 0.05, "waste fraction {frac} too high");
}
