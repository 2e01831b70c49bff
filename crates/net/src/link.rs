//! 10 Gb/s Ethernet wire timing, the receive-side traffic generator, and
//! the transmit-side monitor.
//!
//! Wire occupancy per frame is preamble (8 B) + frame (including FCS) +
//! interframe gap (12 B) at 0.8 ns per byte. For maximum-sized frames
//! that is (1518 + 20) * 0.8 ns = 1230.4 ns, i.e. the paper's 812,744
//! frames per second per direction.

use crate::frame::{build_udp_frame, frame_len, validate_frame, write_fcs, FrameError};
use nicsim_fault::{ErrorStats, LinkFault, LinkFaults};
use nicsim_sim::Ps;
use std::collections::VecDeque;

/// Preamble + interframe gap, in bytes of wire time.
pub const ETH_OVERHEAD_BYTES: u64 = 8 + 12;

/// Wire occupancy of a frame of `frame_len` bytes (including FCS) on a
/// 10 Gb/s link.
pub fn wire_time(frame_len: usize) -> Ps {
    // 10 Gb/s = 1 bit per 100 ps = 800 ps per byte.
    Ps((frame_len as u64 + ETH_OVERHEAD_BYTES) * 800)
}

/// Line rate in frames per second for a given frame length.
pub fn line_rate_fps(frame_len: usize) -> f64 {
    1e12 / wire_time(frame_len).0 as f64
}

/// The maximum achievable UDP payload throughput (Gb/s, one direction)
/// for a given datagram size — the "Ethernet Limit" curves of
/// Figures 7 and 8.
pub fn max_udp_throughput_gbps(udp_payload: usize) -> f64 {
    line_rate_fps(frame_len(udp_payload)) * (udp_payload as f64) * 8.0 / 1e9
}

/// Where an [`RxGenerator`]'s frames come from.
#[derive(Debug)]
enum Source {
    /// Synthesized at the configured rate.
    Synth,
    /// Nothing arrives (receive-idle experiments).
    Off,
    /// The queue filled by [`RxGenerator::inject`] (fleet fabric
    /// deliveries), arrival times non-decreasing.
    External(VecDeque<(Ps, Vec<u8>)>),
}

/// Generates the inbound frame stream at up to line rate.
///
/// Frames are produced with consecutive sequence numbers; the driver
/// checks ordering and integrity end-to-end.
#[derive(Debug)]
pub struct RxGenerator {
    udp_payload: usize,
    next_at: Ps,
    seq: u32,
    period: Ps,
    source: Source,
    /// Link-level fault injection (None = clean link: frames leave with
    /// the zeroed FCS placeholder, exactly as before the fault plane
    /// existed).
    faults: Option<LinkFaults>,
    /// What happened to the most recently polled frame, for the MAC RX
    /// side to label its probe events.
    last_injection: Option<LinkFault>,
}

impl RxGenerator {
    /// Generate `udp_payload`-byte datagrams at line rate.
    pub fn new(udp_payload: usize) -> RxGenerator {
        RxGenerator {
            udp_payload,
            next_at: Ps::ZERO,
            seq: 0,
            period: wire_time(frame_len(udp_payload)),
            source: Source::Synth,
            faults: None,
            last_injection: None,
        }
    }

    /// Generate at a fixed rate instead of line rate. A rate above line
    /// rate is paced at line rate: frames cannot overlap on the wire.
    pub fn with_fps(udp_payload: usize, fps: f64) -> RxGenerator {
        let mut g = RxGenerator::new(udp_payload);
        g.period = g.period.max(Ps((1e12 / fps) as u64));
        g
    }

    /// Disable the generator (receive-idle experiments).
    pub fn disable(&mut self) {
        self.source = Source::Off;
    }

    /// Switch to external-feed mode: synthetic generation stops and the
    /// link delivers exactly the frames queued via
    /// [`RxGenerator::inject`], at their queued arrival times. The
    /// fleet fabric uses this to drive a NIC's receive path with frames
    /// transmitted by other NICs.
    pub fn set_external(&mut self) {
        self.source = Source::External(VecDeque::new());
    }

    /// Queue a frame for delivery at `at` (external-feed mode).
    /// Arrival times must be non-decreasing — the fabric's per-port
    /// serialization guarantees this for each destination.
    pub fn inject(&mut self, at: Ps, frame: Vec<u8>) {
        match &mut self.source {
            Source::External(queue) => {
                debug_assert!(
                    queue.back().is_none_or(|(last, _)| *last <= at),
                    "injections must arrive in non-decreasing time order"
                );
                queue.push_back((at, frame));
            }
            _ => debug_assert!(false, "inject on a synthesizing generator"),
        }
    }

    /// Frames queued but not yet delivered (external-feed mode).
    pub fn pending_injections(&self) -> usize {
        match &self.source {
            Source::External(queue) => queue.len(),
            _ => 0,
        }
    }

    /// Arrival time of the next frame ([`Ps::MAX`] when disabled) — the
    /// event-driven kernel's bound on how far it may skip while the
    /// receive path is otherwise idle.
    pub fn next_arrival(&self) -> Ps {
        match &self.source {
            Source::Synth => self.next_at,
            Source::Off => Ps::MAX,
            Source::External(queue) => queue.front().map_or(Ps::MAX, |(at, _)| *at),
        }
    }

    /// Attach link-level fault injection. Every generated frame is then
    /// stamped with a real CRC32 FCS, and the plan's per-frame draws may
    /// flip a bit or truncate the frame in flight.
    pub fn set_faults(&mut self, faults: LinkFaults) {
        self.faults = Some(faults);
    }

    /// Whether link faults are attached, so frames carry a real FCS.
    pub fn faulted(&self) -> bool {
        self.faults.is_some()
    }

    /// What the fault plane did to the most recently polled frame
    /// (cleared by the read), for the receiver to label probe events.
    pub fn take_injection(&mut self) -> Option<LinkFault> {
        self.last_injection.take()
    }

    /// The link site's error table, when injection is attached.
    pub fn fault_stats(&self) -> Option<ErrorStats> {
        self.faults.as_ref().map(|f| f.stats)
    }

    /// Produce the next frame if its arrival time has come.
    pub fn poll(&mut self, now: Ps) -> Option<(Ps, Vec<u8>)> {
        match &mut self.source {
            Source::Synth if now >= self.next_at => {}
            Source::External(queue) if queue.front().is_some_and(|(at, _)| *at <= now) => {
                return queue.pop_front();
            }
            _ => return None,
        }
        let at = self.next_at;
        let mut f = build_udp_frame(self.seq, self.udp_payload);
        if let Some(st) = &mut self.faults {
            write_fcs(&mut f);
            let injected = st.draw();
            match injected {
                Some(LinkFault::Corrupt) => {
                    // Flip one bit somewhere in the frame body (never the
                    // FCS itself, so the damage is real payload/header
                    // corruption the CRC check must catch).
                    let body_bits = (f.len() - crate::frame::CRC_BYTES) as u64 * 8;
                    let bit = st.pick(body_bits) as usize;
                    f[bit / 8] ^= 1 << (bit % 8);
                }
                Some(LinkFault::Truncate) => {
                    // Cut the frame anywhere past the Ethernet header;
                    // the result is shorter than its stamped FCS claims.
                    let keep = 14 + st.pick((f.len() - 14) as u64) as usize;
                    f.truncate(keep);
                }
                None => {}
            }
            self.last_injection = injected;
        }
        self.seq = self.seq.wrapping_add(1);
        self.next_at += self.period;
        Some((at, f))
    }
}

/// Observes frames leaving the MAC transmitter: validates bytes, enforces
/// ordering, and accumulates throughput.
#[derive(Debug, Default)]
pub struct TxMonitor {
    frames: u64,
    udp_payload_bytes: u64,
    next_seq: Option<u32>,
    errors: Vec<FrameError>,
    out_of_order: u64,
    window_start: Ps,
}

impl TxMonitor {
    /// Create a monitor.
    pub fn new() -> TxMonitor {
        TxMonitor::default()
    }

    /// Record a transmitted frame.
    pub fn on_frame(&mut self, bytes: &[u8]) {
        match validate_frame(bytes) {
            Ok(info) => {
                if let Some(expect) = self.next_seq {
                    if info.seq != expect {
                        self.out_of_order += 1;
                    }
                }
                self.next_seq = Some(info.seq.wrapping_add(1));
                self.frames += 1;
                self.udp_payload_bytes += info.udp_payload as u64;
            }
            Err(e) => self.errors.push(e),
        }
    }

    /// Frames validated.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// UDP payload throughput over the window ending at `now`, in Gb/s.
    pub fn udp_gbps(&self, now: Ps) -> f64 {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed == Ps::ZERO {
            return 0.0;
        }
        self.udp_payload_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e9
    }

    /// Frames transmitted out of expected sequence order.
    pub fn out_of_order(&self) -> u64 {
        self.out_of_order
    }

    /// Validation failures observed.
    pub fn errors(&self) -> &[FrameError] {
        &self.errors
    }

    /// Restart the measurement window at `now` (discard warm-up).
    pub fn reset(&mut self, now: Ps) {
        self.frames = 0;
        self.udp_payload_bytes = 0;
        self.out_of_order = 0;
        self.errors.clear();
        self.window_start = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_frame_rate_matches_paper() {
        // "A full-duplex 10 Gb/s link can deliver maximum-sized 1518-byte
        // frames at the rate of 812,744 frames per second in each
        // direction."
        let fps = line_rate_fps(1518);
        assert!((fps - 812_744.0).abs() < 1.0, "fps = {fps}");
    }

    #[test]
    fn wire_time_of_min_frame() {
        // 64 + 20 bytes at 0.8ns/byte = 67.2 ns.
        assert_eq!(wire_time(64), Ps(67_200));
    }

    #[test]
    fn udp_limit_for_max_datagrams() {
        // 1472 * 8 * 812744 = 9.57 Gb/s per direction.
        let g = max_udp_throughput_gbps(1472);
        assert!((g - 9.575).abs() < 0.01, "limit = {g}");
    }

    #[test]
    fn generator_paces_at_line_rate() {
        let mut g = RxGenerator::new(1472);
        let mut n = 0;
        let horizon = Ps::from_us(100);
        let mut now = Ps::ZERO;
        while now <= horizon {
            if let Some((_, f)) = g.poll(now) {
                assert_eq!(f.len(), 1518);
                n += 1;
            } else {
                now += Ps(100);
            }
        }
        // 100us at 812744 fps = 81.27 frames.
        assert!((80..=83).contains(&n), "generated {n}");
    }

    #[test]
    fn generator_never_paces_faster_than_the_wire() {
        let mut g = RxGenerator::with_fps(1472, 1e13);
        let now = Ps::from_us(10);
        let times: Vec<Ps> = std::iter::from_fn(|| g.poll(now))
            .map(|(at, _)| at)
            .collect();
        assert_eq!(times.len(), 9, "10 us holds nine 1230.4 ns frames");
        for w in times.windows(2) {
            assert_eq!(w[1] - w[0], wire_time(1518));
        }
    }

    #[test]
    fn generator_seq_is_consecutive() {
        let mut g = RxGenerator::new(100);
        let (_, a) = g.poll(Ps::from_ms(1)).unwrap();
        let (_, b) = g.poll(Ps::from_ms(1)).unwrap();
        assert_eq!(
            validate_frame(&a).unwrap().seq + 1,
            validate_frame(&b).unwrap().seq
        );
    }

    #[test]
    fn monitor_counts_and_orders() {
        let mut m = TxMonitor::new();
        m.on_frame(&build_udp_frame(0, 1472));
        m.on_frame(&build_udp_frame(1, 1472));
        m.on_frame(&build_udp_frame(5, 1472)); // gap
        assert_eq!(m.frames(), 3);
        assert_eq!(m.out_of_order(), 1);
        assert!(m.errors().is_empty());
    }

    #[test]
    fn monitor_flags_corruption() {
        let mut m = TxMonitor::new();
        let mut f = build_udp_frame(0, 1472);
        f[50] ^= 1;
        m.on_frame(&f);
        assert_eq!(m.frames(), 0);
        assert_eq!(m.errors().len(), 1);
    }

    #[test]
    fn monitor_throughput_math() {
        let mut m = TxMonitor::new();
        for s in 0..10 {
            m.on_frame(&build_udp_frame(s, 1472));
        }
        // 10 frames * 1472B over 12.304us = 9.57 Gb/s.
        let t = wire_time(1518);
        let gbps = m.udp_gbps(Ps(t.0 * 10));
        assert!((gbps - 9.575).abs() < 0.01, "gbps = {gbps}");
    }

    #[test]
    fn disabled_generator_produces_nothing() {
        let mut g = RxGenerator::new(100);
        g.disable();
        assert!(g.poll(Ps::from_ms(5)).is_none());
    }

    #[test]
    fn external_generator_serves_injections_in_order() {
        let mut g = RxGenerator::new(100);
        g.set_external();
        assert_eq!(g.next_arrival(), Ps::MAX);
        assert!(g.poll(Ps::from_ms(1)).is_none());
        g.inject(Ps(500), build_udp_frame(7, 100));
        g.inject(Ps(900), build_udp_frame(8, 100));
        assert_eq!(g.next_arrival(), Ps(500));
        assert_eq!(g.pending_injections(), 2);
        assert!(g.poll(Ps(499)).is_none());
        let (at, f) = g.poll(Ps(500)).unwrap();
        assert_eq!(at, Ps(500));
        assert_eq!(validate_frame(&f).unwrap().seq, 7);
        let (at, f) = g.poll(Ps(2000)).unwrap();
        assert_eq!(at, Ps(900));
        assert_eq!(validate_frame(&f).unwrap().seq, 8);
        assert_eq!(g.next_arrival(), Ps::MAX);
    }

    #[test]
    fn faulted_generator_stamps_fcs_and_injects() {
        use crate::frame::fcs_valid;
        use nicsim_fault::FaultPlan;
        let plan = FaultPlan {
            link_corrupt: 0.5,
            link_truncate: 0.2,
            ..FaultPlan::default()
        };
        let mut g = RxGenerator::new(256);
        g.set_faults(LinkFaults::new(&plan));
        let (mut clean, mut bad) = (0u32, 0u32);
        for _ in 0..200 {
            let (_, f) = g.poll(Ps::from_ms(10)).unwrap();
            match g.take_injection() {
                None => {
                    assert!(fcs_valid(&f), "untouched frame must carry a valid FCS");
                    clean += 1;
                }
                Some(_) => {
                    assert!(!fcs_valid(&f), "injected damage must break the FCS");
                    bad += 1;
                }
            }
        }
        assert_eq!(g.fault_stats().unwrap().injected(), bad as u64);
        assert!(clean > 0 && bad > 0, "clean={clean} bad={bad}");
    }

    #[test]
    fn clean_generator_replays_identically_with_zero_prob_plan() {
        use nicsim_fault::FaultPlan;
        let mut a = RxGenerator::new(100);
        let mut b = RxGenerator::new(100);
        b.set_faults(LinkFaults::new(&FaultPlan::default()));
        let (_, fa) = a.poll(Ps::from_ms(1)).unwrap();
        let (_, fb) = b.poll(Ps::from_ms(1)).unwrap();
        // Identical except the stamped FCS tail.
        assert_eq!(fa[..fa.len() - 4], fb[..fb.len() - 4]);
        assert!(b.take_injection().is_none());
    }
}
