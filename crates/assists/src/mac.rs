//! The medium-access-control assists: MAC TX and MAC RX.
//!
//! "The MAC unit is responsible for implementing the link-level protocol"
//! (paper §2.1). The transmit side drains a scratchpad ring of
//! `(frame-memory address, length)` entries in order, reads each frame
//! from the frame memory (buffering up to two frames, as the paper's
//! assists do), appends the FCS, and occupies the wire for the frame's
//! real Ethernet time (preamble + frame + interframe gap). The receive
//! side accepts the generator's line-rate stream, allocates space in a
//! circular receive region of the frame memory, and produces receive
//! descriptors plus a producer count for the firmware. When either the
//! descriptor ring or the receive buffer is full, arriving frames are
//! dropped — a receiver overrun, exactly what happens to a real NIC whose
//! firmware cannot keep up.

use crate::cmd::{MacRxRegs, RingRegs};
use crate::port::{CmdRing, Polled, SpPort};
use nicsim_fault::LinkFault;
use nicsim_mem::{Crossbar, FrameMemory, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_net::frame::{fcs_valid, seq_of};
use nicsim_net::link::{wire_time, RxGenerator, TxMonitor};
use nicsim_obs::{Event, FaultKind, FaultUnit, Probe, RecoveryKind};
use nicsim_sim::Ps;
use std::collections::VecDeque;

const TAG_DESC: u32 = 6;
const TAG_PROD: u32 = 7;

/// The transmit MAC.
#[derive(Debug)]
pub struct MacTx {
    ring: CmdRing,
    /// Link monitor validating and accounting every transmitted frame.
    pub monitor: TxMonitor,
    reads_outstanding: u32,
    wire_busy_until: Ps,
    /// Frames in flight on the wire: completion time, the ring entry's
    /// sequence number, and bytes.
    tx_done: VecDeque<(Ps, u32, Vec<u8>)>,
    /// Fleet mode: when enabled, every frame leaving the wire is also
    /// retained as `(wire-done time, bytes)` for the fabric to collect
    /// at the next epoch barrier.
    egress: Option<Vec<(Ps, Vec<u8>)>>,
}

impl MacTx {
    /// The transmit MAC on crossbar requester `port`, draining the
    /// transmit ring behind `regs` (4 words per entry: addr, len,
    /// flags, seq).
    pub fn new(port: usize, regs: RingRegs) -> MacTx {
        MacTx {
            ring: CmdRing::new(port, regs),
            monitor: TxMonitor::new(),
            reads_outstanding: 0,
            wire_busy_until: Ps::ZERO,
            tx_done: VecDeque::new(),
            egress: None,
        }
    }

    /// Start retaining transmitted frames for an external fabric
    /// (fleet mode). Until this is called, the capture path costs
    /// nothing.
    pub fn capture_egress(&mut self) {
        self.egress = Some(Vec::new());
    }

    /// Take the frames that left the wire since the last call:
    /// `(wire-done time, frame bytes)` in transmit order.
    ///
    /// # Panics
    ///
    /// Panics if [`MacTx::capture_egress`] was never called.
    pub fn take_egress(&mut self) -> Vec<(Ps, Vec<u8>)> {
        std::mem::take(self.egress.as_mut().expect("egress capture enabled"))
    }

    /// Scratchpad accesses performed.
    pub fn sp_accesses(&self) -> u64 {
        self.ring.sp_accesses()
    }

    /// Zero counters (keeps ring state).
    pub fn reset_stats(&mut self) {
        self.ring.reset_stats();
    }

    /// The frame-memory read of frame `seq` (the read's tag) completed:
    /// the frame goes on the wire. Reads complete in ring order
    /// (per-stream FIFO), preserving the in-order transmit guarantee.
    /// Emits [`Event::MacTxWireStart`] at the moment the frame starts
    /// occupying the wire (which may be later than `now` when the wire
    /// is busy).
    pub fn on_sdram_complete_probed<P: Probe>(
        &mut self,
        seq: u32,
        now: Ps,
        data: &[u8],
        probe: &mut P,
    ) {
        self.reads_outstanding -= 1;
        let mut frame = Vec::with_capacity(data.len() + 4);
        frame.extend_from_slice(data);
        frame.extend_from_slice(&[0u8; 4]); // MAC appends the FCS
        let start = now.max(self.wire_busy_until);
        let done = start + wire_time(frame.len());
        self.wire_busy_until = done;
        self.tx_done.push_back((done, seq, frame));
        if P::ENABLED {
            probe.emit(Event::MacTxWireStart { seq, at: start });
        }
    }

    /// The MAC buffers at most two frames (paper: "enough buffering for
    /// two maximum-sized frames in each assist"), on their way from the
    /// frame memory or on the wire.
    fn room(&self) -> bool {
        self.reads_outstanding as usize + self.tx_done.len() < 2
    }

    /// Advance one CPU cycle. Emits [`Event::MacTxFetch`] when a ring
    /// entry has been read (the entry's fourth word is the frame
    /// sequence number the firmware stored there) and
    /// [`Event::MacTxWireDone`] as each frame leaves the wire.
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        fm: &mut FrameMemory,
        probe: &mut P,
    ) {
        // An entry is (addr, len, flags, seq); this MAC revision ignores
        // the flags. The MAC pushes no transactions of its own.
        if let Some(Polled::Entry { words, .. }) = self.ring.poll(xbar) {
            let [addr, len, _, seq] = words;
            fm.submit_read(StreamId::MacTx, addr, len, u64::from(seq), now);
            self.reads_outstanding += 1;
            if P::ENABLED {
                probe.emit(Event::MacTxFetch { seq, at: now });
            }
        }
        // Wire completions retire ring entries (in order); the frame is
        // validated and accounted as it leaves the wire.
        while self.tx_done.front().is_some_and(|(t, ..)| *t <= now) {
            let (t, seq, frame) = self.tx_done.pop_front().expect("nonempty");
            self.monitor.on_frame(&frame);
            self.ring.complete(self.ring.done());
            if P::ENABLED {
                probe.emit(Event::MacTxWireDone { seq, at: t });
            }
            if let Some(egress) = &mut self.egress {
                egress.push((t, frame));
            }
        }
        self.ring.issue(sp_mem, self.room());
    }

    /// Whether the next tick could do real work (see [`CmdRing::busy`]).
    /// Wire completions are time-driven and reported via
    /// [`MacTx::next_event`] instead.
    #[inline]
    pub fn busy(&self, sp_mem: &Scratchpad) -> bool {
        self.ring.busy(sp_mem, self.room())
    }

    /// The next wire completion: `tick` pops `tx_done` entries whose
    /// time has come, so the clock must not jump past the head.
    #[inline]
    pub fn next_event(&self) -> Ps {
        self.tx_done.front().map_or(Ps::MAX, |(t, ..)| *t)
    }
}

/// The receive MAC.
#[derive(Debug)]
pub struct MacRx {
    regs: MacRxRegs,
    sp: SpPort,
    /// The inbound traffic source.
    pub generator: RxGenerator,
    /// Bytes allocated in the receive region (monotonic, wrapping u32 —
    /// matching the firmware's 32-bit tail counter).
    head: u32,
    writes_outstanding: u32,
    /// Descriptors awaiting publication, in arrival order. Good frames
    /// wait for their SDRAM write; CRC-dropped frames carry an error
    /// status and no buffer, but still publish in order behind any
    /// in-flight predecessors.
    pending_desc: VecDeque<PendingDesc>,
    prod: u32,
    drops: u64,
    crc_dropped: u64,
}

/// One receive descriptor queued for in-order publication.
#[derive(Debug)]
struct PendingDesc {
    /// The frame's wire sequence number (what its events carry).
    seq: u32,
    addr: u32,
    len: u32,
    /// Descriptor status word: 1 = OK, 2 = CRC error (no buffer).
    status: u32,
    /// The frame's SDRAM write is still in flight.
    write_pending: bool,
}

/// Pad to the next 8-byte boundary (frames land at a +2 offset, so both
/// ends of the burst are misaligned, as §6.2 describes).
fn align8(n: u32) -> u32 {
    (n + 7) & !7
}

impl MacRx {
    /// The receive MAC on crossbar requester `port`, producing into the
    /// descriptor ring and receive region behind `regs`, over an
    /// inbound generator.
    pub fn new(port: usize, regs: MacRxRegs, generator: RxGenerator) -> MacRx {
        MacRx {
            regs,
            sp: SpPort::new(port),
            generator,
            head: 0,
            writes_outstanding: 0,
            pending_desc: VecDeque::new(),
            prod: 0,
            drops: 0,
            crc_dropped: 0,
        }
    }

    /// Frames dropped because the descriptor ring or buffer was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Frames the CRC check caught and dropped (each one published an
    /// error descriptor instead of a payload).
    pub fn crc_dropped(&self) -> u64 {
        self.crc_dropped
    }

    /// Scratchpad accesses performed.
    pub fn sp_accesses(&self) -> u64 {
        self.sp.accesses()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        self.sp.reset_stats();
        self.drops = 0;
    }

    /// An SDRAM write completed: the frame is visible, produce its
    /// descriptor (writes complete in arrival order). Emits
    /// [`Event::MacRxDescPublish`] as each descriptor is produced.
    pub fn on_sdram_complete_probed<P: Probe>(&mut self, now: Ps, probe: &mut P) {
        self.writes_outstanding -= 1;
        // Writes complete in submission order: retire the oldest one.
        self.pending_desc
            .iter_mut()
            .find(|d| d.write_pending)
            .expect("sdram completion without pending frame")
            .write_pending = false;
        self.publish_ready(now, probe);
    }

    /// Publish descriptors from the front of the queue whose frames are
    /// settled (write done, or an error descriptor with no write).
    fn publish_ready<P: Probe>(&mut self, now: Ps, probe: &mut P) {
        while self.pending_desc.front().is_some_and(|d| !d.write_pending) {
            let d = self.pending_desc.pop_front().expect("nonempty");
            if P::ENABLED {
                probe.emit(Event::MacRxDescPublish {
                    seq: d.seq,
                    error: d.status == 2,
                    at: now,
                });
            }
            let base = self.regs.ring + (self.prod % self.regs.entries) * 16;
            // addr, len, status, checksum info.
            for (k, val) in [(0, d.addr), (1, d.len), (2, d.status), (3, 0)] {
                self.sp.push(
                    SpRequest {
                        addr: base + k * 4,
                        op: SpOp::Write(val),
                    },
                    TAG_DESC,
                );
            }
            self.prod += 1;
            self.sp.push(
                SpRequest {
                    addr: self.regs.prod,
                    op: SpOp::Write(self.prod),
                },
                TAG_PROD,
            );
        }
    }

    /// Advance one CPU cycle. Emits [`Event::MacRxArrival`] for every
    /// frame taken off the wire, accepted or dropped.
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        fm: &mut FrameMemory,
        probe: &mut P,
    ) {
        let _ = self.sp.tick(xbar);
        // Accept arrivals whose time has come.
        while self.writes_outstanding < 2 {
            let Some((_, frame)) = self.generator.poll(now) else {
                break;
            };
            let len = frame.len() as u32;
            // Zero for a truncated frame too short to carry one.
            let seq = seq_of(&frame);
            let arrival = |dropped| Event::MacRxArrival {
                seq,
                len,
                dropped,
                at: now,
            };
            let ring_full = self.prod.wrapping_sub(sp_mem.peek(self.regs.claim))
                >= self.regs.entries - self.regs.claim_slack;
            // Only a faulted link's frames carry a real FCS (stamped by
            // the generator or the fleet's fabric); clean ones never verify.
            if self.generator.faulted() {
                let injected = self.generator.take_injection();
                if P::ENABLED {
                    if let Some(f) = injected {
                        probe.emit(Event::Fault {
                            kind: match f {
                                LinkFault::Corrupt => FaultKind::LinkCorrupt,
                                LinkFault::Truncate => FaultKind::LinkTruncate,
                            },
                            unit: FaultUnit::Link,
                            info: len,
                            at: now,
                        });
                    }
                }
                if !fcs_valid(&frame) {
                    if P::ENABLED {
                        probe.emit(arrival(true));
                    }
                    if ring_full {
                        self.drops += 1;
                        continue;
                    }
                    self.crc_dropped += 1;
                    if P::ENABLED {
                        probe.emit(Event::Recovery {
                            kind: RecoveryKind::CrcDrop,
                            unit: FaultUnit::MacRx,
                            info: seq,
                            at: now,
                        });
                    }
                    // An error descriptor: no buffer, no SDRAM write —
                    // but it still publishes in arrival order.
                    self.pending_desc.push_back(PendingDesc {
                        seq,
                        addr: 0,
                        len,
                        status: 2,
                        write_pending: false,
                    });
                    self.publish_ready(now, probe);
                    continue;
                }
            }
            let tail = sp_mem.peek(self.regs.tail);
            // Compute the candidate allocation (a wrap bump keeps each
            // frame contiguous in the region).
            let mut head = self.head;
            let off = head % self.regs.buf_bytes;
            if off + 2 + len > self.regs.buf_bytes {
                head = head.wrapping_add(self.regs.buf_bytes - off);
            }
            let new_head = head.wrapping_add(align8(2 + len));
            if new_head.wrapping_sub(tail) > self.regs.buf_bytes || ring_full {
                self.drops += 1;
                if P::ENABLED {
                    probe.emit(arrival(true));
                }
                continue;
            }
            let addr = self.regs.buf_base + head % self.regs.buf_bytes + 2;
            if P::ENABLED {
                probe.emit(arrival(false));
            }
            fm.submit_write(StreamId::MacRx, addr, &frame, 0, now);
            self.head = new_head;
            self.writes_outstanding += 1;
            self.pending_desc.push_back(PendingDesc {
                seq,
                addr,
                len,
                status: 1,
                write_pending: true,
            });
        }
    }

    /// Whether the next tick could do real work besides
    /// accepting an arrival (arrivals are time-driven, see
    /// [`MacRx::next_event`]): descriptor or producer writes pending on
    /// the scratchpad port.
    #[inline]
    pub fn busy(&self) -> bool {
        self.sp.backlog() > 0
    }

    /// The next frame arrival — but only while the MAC has buffer
    /// capacity to accept it. At two writes outstanding the accept loop
    /// cannot run regardless of arrivals (overdue frames wait, without
    /// being dropped, exactly as in the dense kernel); the wake then
    /// comes from the SDRAM completion that frees a buffer.
    #[inline]
    pub fn next_event(&self) -> Ps {
        if self.writes_outstanding < 2 {
            self.generator.next_arrival()
        } else {
            Ps::MAX
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_mem::FrameMemoryConfig;
    use nicsim_net::frame::build_udp_frame;
    use nicsim_obs::NullProbe;

    fn fm() -> FrameMemory {
        FrameMemory::new(FrameMemoryConfig::default())
    }

    /// An `entries`-deep descriptor ring at 0x2000 and a 1 MB receive
    /// region.
    fn rx_regs(entries: u32) -> MacRxRegs {
        MacRxRegs {
            ring: 0x2000,
            entries,
            prod: 0x200,
            claim: 0x204,
            claim_slack: 0,
            tail: 0x208,
            buf_base: 0x10_0000,
            buf_bytes: 0x10_0000,
        }
    }

    #[test]
    fn mac_tx_transmits_ring_in_order() {
        let mut sp = Scratchpad::new(64 * 1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut fmem = fm();
        let regs = RingRegs {
            ring: 0x1000,
            entries: 16,
            prod: 0x100,
            done: 0x104,
        };
        let mut mac = MacTx::new(0, regs);
        // Stage two frames in SDRAM and two ring entries.
        for i in 0..2u32 {
            let f = build_udp_frame(i, 1472);
            let eth = &f[..f.len() - 4];
            fmem.submit_write(StreamId::DmaRead, 0x8000 + i * 2048, eth, 0, Ps::ZERO);
            sp.poke(0x1000 + i * 16, 0x8000 + i * 2048);
            sp.poke(0x1000 + i * 16 + 4, eth.len() as u32);
            sp.poke(0x1000 + i * 16 + 12, i);
        }
        fmem.advance(Ps::from_us(2));
        sp.poke(0x100, 2); // producer doorbell
        let mut now = Ps::from_us(2);
        for _ in 0..2000 {
            now += Ps(5000);
            xbar.tick(&mut sp);
            mac.tick_probed(now, &mut xbar, &sp, &mut fmem, &mut NullProbe);
            for c in fmem.advance(now) {
                let data = fmem.peek(c.addr, c.len);
                mac.on_sdram_complete_probed(c.tag as u32, c.at, data, &mut NullProbe);
            }
        }
        assert_eq!(mac.monitor.frames(), 2);
        assert_eq!(mac.monitor.out_of_order(), 0);
        assert!(mac.monitor.errors().is_empty());
        assert_eq!(sp.peek(0x104), 2, "done counter");
    }

    #[test]
    fn mac_rx_delivers_descriptors() {
        let mut sp = Scratchpad::new(64 * 1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut fmem = fm();
        let mut mac = MacRx::new(0, rx_regs(64), RxGenerator::new(1472));
        let mut now = Ps::ZERO;
        for _ in 0..3000 {
            now += Ps(5000);
            xbar.tick(&mut sp);
            mac.tick_probed(now, &mut xbar, &sp, &mut fmem, &mut NullProbe);
            for _ in fmem.advance(now) {
                mac.on_sdram_complete_probed(now, &mut NullProbe);
            }
            if sp.peek(0x200) >= 3 {
                break;
            }
        }
        let prod = sp.peek(0x200);
        assert!(prod >= 3, "producer advanced to {prod}");
        // First descriptor points at a valid stored frame.
        let addr = sp.peek(0x2000);
        let len = sp.peek(0x2004);
        assert_eq!(len, 1518);
        let stored = fmem.peek(addr, len);
        let info = nicsim_net::frame::validate_frame(stored).unwrap();
        assert_eq!(info.seq, 0);
        assert_eq!(mac.drops(), 0);
        assert_eq!(addr % 8, 2, "frames land at the +2 IP-align offset");
    }

    #[test]
    fn mac_rx_drops_when_ring_full() {
        let mut sp = Scratchpad::new(64 * 1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut fmem = fm();
        // A tiny ring, and firmware never claims.
        let mut mac = MacRx::new(0, rx_regs(4), RxGenerator::new(1472));
        let mut now = Ps::ZERO;
        for _ in 0..5000 {
            now += Ps(5000);
            xbar.tick(&mut sp);
            mac.tick_probed(now, &mut xbar, &sp, &mut fmem, &mut NullProbe);
            for _ in fmem.advance(now) {
                mac.on_sdram_complete_probed(now, &mut NullProbe);
            }
        }
        assert!(mac.drops() > 0, "overrun must drop");
        assert_eq!(sp.peek(0x200), 4, "only ring-many frames delivered");
    }

    #[test]
    fn mac_rx_crc_drops_publish_error_descriptors() {
        use nicsim_fault::{FaultPlan, LinkFaults};
        let mut sp = Scratchpad::new(64 * 1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut fmem = fm();
        let plan = FaultPlan {
            link_corrupt: 1.0,
            ..FaultPlan::default()
        };
        let mut generator = RxGenerator::new(1472);
        generator.set_faults(LinkFaults::new(&plan));
        let mut mac = MacRx::new(0, rx_regs(64), generator);
        let mut now = Ps::ZERO;
        for _ in 0..3000 {
            now += Ps(5000);
            xbar.tick(&mut sp);
            mac.tick_probed(now, &mut xbar, &sp, &mut fmem, &mut NullProbe);
            for _ in fmem.advance(now) {
                mac.on_sdram_complete_probed(now, &mut NullProbe);
            }
            if sp.peek(0x200) >= 3 {
                break;
            }
        }
        let prod = sp.peek(0x200);
        assert!(prod >= 3, "error descriptors still produce");
        assert!(
            mac.crc_dropped() >= u64::from(prod),
            "every descriptor produced is a CRC drop: no corrupt frame accepted"
        );
        assert_eq!(sp.peek(0x2000), 0, "error descriptor carries no buffer");
        assert_eq!(sp.peek(0x2008), 2, "status marks the CRC error");
    }

    #[test]
    fn align8_pads_up() {
        assert_eq!(align8(0), 0);
        assert_eq!(align8(1), 8);
        assert_eq!(align8(8), 8);
        assert_eq!(align8(1520), 1520);
        assert_eq!(align8(1521), 1528);
    }
}
