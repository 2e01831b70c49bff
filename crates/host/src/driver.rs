//! The device-driver model.
//!
//! Reproduces the driver behavior of paper §2.1 / Figures 1–2:
//!
//! * **Send** (Figure 1): the driver writes the frame into host buffers —
//!   two discontiguous regions, a 42-byte header and the payload — builds
//!   two buffer descriptors, and writes the NIC's send mailbox with the
//!   new producer index. Completion is observed through a status word the
//!   NIC DMA-writes back.
//! * **Receive** (Figure 2): the driver preallocates a pool of
//!   main-memory buffers, continually posts them to the NIC as receive
//!   buffer descriptors, and consumes return descriptors the NIC
//!   DMA-writes into the return ring, validating every frame's bytes and
//!   its in-order delivery.

use crate::memory::HostMemory;
use nicsim_net::frame::{build_udp_frame, set_endpoints, validate_frame};
use nicsim_net::workload::TxPacket;
use nicsim_obs::{Event, FaultUnit, Probe, RecoveryKind};
use nicsim_sim::Ps;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Number of buffer descriptors in the send ring (two per frame).
pub const SEND_BD_RING_ENTRIES: u32 = 1024;
/// Maximum send frames in flight (limited by the BD ring).
pub const SEND_FRAME_WINDOW: u32 = SEND_BD_RING_ENTRIES / 2;
/// CPU cycles between driver invocations: the host's polling period,
/// which models interrupt mitigation.
pub const DRIVER_INTERVAL: u64 = 16;
/// Most send frames posted per driver invocation (receive buffers: twice
/// as many).
const POST_BURST: u32 = 32;
/// Number of receive buffer descriptors in the ring.
pub const RX_BD_RING_ENTRIES: u32 = 1024;
/// Number of preallocated receive buffers.
pub const RX_BUF_COUNT: u32 = 1024;
/// Entries in the receive return ring.
pub const RETURN_RING_ENTRIES: u32 = 1024;
/// Bytes per buffer descriptor.
pub const BD_BYTES: u32 = 16;
/// Bytes per receive buffer.
pub const RX_BUF_BYTES: u32 = 2048;
/// Flag: descriptor is the first (header) fragment of a frame.
pub const BD_FLAG_FIRST: u32 = 1;
/// Flag: descriptor is the last (payload) fragment of a frame.
pub const BD_FLAG_LAST: u32 = 2;
/// Length of the header fragment of every frame.
pub const HEADER_LEN: u32 = 42;

/// Where the driver's rings and buffers live in host memory.
#[derive(Debug, Clone, Copy)]
pub struct HostLayout {
    /// Send BD ring base.
    pub send_bd_ring: u32,
    /// Send header buffers (64 B each, one per window slot).
    pub send_hdr_bufs: u32,
    /// Send payload buffers (2 KB each, one per window slot).
    pub send_pay_bufs: u32,
    /// Receive BD ring base.
    pub rx_bd_ring: u32,
    /// Receive buffers (2 KB each).
    pub rx_bufs: u32,
    /// Receive return ring base.
    pub return_ring: u32,
    /// Status block the NIC writes: see `send_cons`, `ret_prod`, `aborts`.
    pub status: u32,
}

impl Default for HostLayout {
    fn default() -> Self {
        HostLayout {
            send_bd_ring: 0x0000_0000,
            send_hdr_bufs: 0x0001_0000,
            send_pay_bufs: 0x0002_0000,
            rx_bd_ring: 0x0013_0000,
            rx_bufs: 0x0014_0000,
            return_ring: 0x0034_0000,
            status: 0x0035_0000,
        }
    }
}

impl HostLayout {
    /// Host memory size needed for this layout.
    pub fn memory_size(&self) -> usize {
        (self.status + 64) as usize
    }

    /// Status word: send BDs the NIC has consumed.
    pub fn send_cons(&self) -> u32 {
        self.status
    }

    /// Status word: the receive return ring's producer index.
    pub fn ret_prod(&self) -> u32 {
        self.status + 4
    }

    /// Status word: transmit frames the NIC aborted, cumulative.
    pub fn aborts(&self) -> u32 {
        self.status + 8
    }
}

/// A mailbox register on the NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mailbox {
    /// Send BD producer index (counts BDs).
    SendBdProd,
    /// Receive BD producer index (counts BDs).
    RxBdProd,
}

/// One memory-mapped register write performed by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MailboxWrite {
    /// Which register.
    pub reg: Mailbox,
    /// The value written.
    pub value: u32,
}

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// UDP datagram size for transmitted frames.
    pub udp_payload: usize,
    /// Offered transmit load in frames/s; `None` saturates the window.
    pub offered_fps: Option<f64>,
    /// Whether the host transmits at all.
    pub send_enabled: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            udp_payload: 1472,
            offered_fps: None,
            send_enabled: true,
        }
    }
}

/// Driver-side statistics (the receive half of the throughput numbers;
/// transmit throughput is measured by the link's `TxMonitor`).
#[derive(Debug, Clone, Copy, Default)]
pub struct DriverStats {
    /// Frames posted for transmit.
    pub tx_posted: u64,
    /// Transmit frames completed by the NIC.
    pub tx_completed: u64,
    /// Frames received and validated.
    pub rx_frames: u64,
    /// UDP payload bytes received in the current window.
    pub rx_udp_payload_bytes: u64,
    /// Sequence gaps observed (frames dropped by the NIC).
    pub rx_dropped: u64,
    /// Frames received out of order — must stay 0 (the paper's firmware
    /// guarantees in-order delivery).
    pub rx_out_of_order: u64,
    /// Frames failing byte-level validation.
    pub rx_corrupt: u64,
    /// Error-flagged return descriptors consumed (CRC-dropped frames
    /// whose buffers were recycled without validation).
    pub rx_error_returns: u64,
    /// Transmit frames re-posted after the NIC aborted their DMA.
    pub tx_retries: u64,
    /// Reliable mode: frames retransmitted on timeout.
    pub tx_retransmits: u64,
    /// Reliable mode: duplicate deliveries suppressed by the receiver.
    pub rx_duplicates: u64,
}

/// Reliable-delivery state (fleet mode only): the sender half tracks
/// unacked frames and retransmits on timeout with exponential backoff;
/// the receiver half deduplicates and generates acknowledgements.
///
/// Acks travel out of band: the fleet engine drains
/// [`Driver::take_acks`] at each epoch barrier and delivers them to the
/// source driver via [`Driver::deliver_ack`] one fabric round-trip after
/// the original delivery — the protocol costs latency, not bandwidth,
/// and stays off the simulated wire (in-band ack frames would perturb
/// the firmware and MAC models this crate is calibrated against).
#[derive(Debug)]
struct Reliable {
    /// Retransmit timeout base; attempt `n` waits `rto << min(n, 6)`.
    rto: Ps,
    /// Sender: unacked frames by namespaced sequence. A `BTreeMap` so
    /// the retransmit scan walks in deterministic sequence order.
    unacked: BTreeMap<u32, Unacked>,
    /// Receiver-generated acks awaiting the fleet engine:
    /// `(source NIC of the data frame, seq, delivered_at)`.
    acks_out: Vec<(u16, u32, Ps)>,
    /// Sender: acks in flight toward this driver, `(arrival, seq)`.
    acks_in: Vec<(Ps, u32)>,
    /// Receiver: delivered sequence sets per source, for exactly-once
    /// accounting under retransmission.
    seen: HashMap<u16, HashSet<u32>>,
}

/// One unacked transmit frame (enough to rebuild it bit-identically).
#[derive(Debug)]
struct Unacked {
    dst: u16,
    udp_payload: usize,
    last_sent: Ps,
    attempts: u32,
}

/// What the driver sends and how it orders what it receives. One per
/// driver, set once: the variants' size difference costs nothing.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
enum Mode {
    /// One link, one peer: consecutive sequence numbers out (saturating
    /// or paced), one expected sequence in.
    Stream {
        /// Expected next receive sequence, once a frame has arrived.
        rx_next: Option<u32>,
    },
    /// A fleet member, entered via [`Driver::set_fleet`].
    Fleet(Fleet),
}

/// Fleet-mode state: a pre-computed schedule of addressed packets
/// replaces the stream, and receive ordering is per source NIC.
#[derive(Debug)]
struct Fleet {
    /// This host's NIC id; sequence numbers are namespaced `src << 24`
    /// so they are globally unique across the fleet.
    src: u16,
    /// Time-sorted packets to post.
    schedule: Vec<TxPacket>,
    /// Next un-posted schedule index.
    next: usize,
    /// Expected next sequence per source NIC (frames from different
    /// sources interleave arbitrarily at the receiver, so ordering is
    /// only meaningful per source). Unused under `reliable`.
    rx_next: HashMap<u16, u32>,
    /// Reliable-delivery state, when `set_fleet` was given an `rto`.
    reliable: Option<Reliable>,
}

/// The device driver.
#[derive(Debug)]
pub struct Driver {
    cfg: DriverConfig,
    layout: HostLayout,
    tx_seq_next: u32,
    /// Frames staged into the send rings (schedule posts plus reliable
    /// retransmits). Equal to `tx_seq_next` outside reliable mode; ring
    /// slots and the in-flight window run off this counter.
    tx_slot_next: u32,
    tx_bd_prod: u32,
    rx_bd_prod: u32,
    rx_frames_returned: u32,
    rx_free_bufs: VecDeque<u32>,
    ret_cons: u32,
    /// Posting state per buffer (true = outstanding at the NIC).
    outstanding: Vec<bool>,
    /// Cumulative NIC abort count already folded into `tx_retries`.
    aborts_seen: u32,
    mailbox: Vec<MailboxWrite>,
    stats: DriverStats,
    window_start: Ps,
    mode: Mode,
}

impl Driver {
    /// Create a driver over the given layout.
    pub fn new(cfg: DriverConfig, layout: HostLayout) -> Driver {
        Driver {
            cfg,
            layout,
            tx_seq_next: 0,
            tx_slot_next: 0,
            tx_bd_prod: 0,
            rx_bd_prod: 0,
            rx_frames_returned: 0,
            rx_free_bufs: (0..RX_BUF_COUNT).collect(),
            ret_cons: 0,
            outstanding: vec![false; RX_BUF_COUNT as usize],
            aborts_seen: 0,
            mailbox: Vec::new(),
            stats: DriverStats::default(),
            window_start: Ps::ZERO,
            mode: Mode::Stream { rx_next: None },
        }
    }

    /// Enter fleet mode: post the given addressed schedule instead of
    /// the legacy stream (sequence numbers become `src << 24 + n`
    /// starting at `n = first_seq`, the destination NIC id is stamped
    /// into each frame's MAC bytes), and track receive ordering per
    /// source NIC. Every NIC in a fleet enters this mode, senders and
    /// silent receivers alike, on a fresh driver.
    ///
    /// A nonzero `first_seq` is a replacement driver after a NIC reset
    /// continuing its predecessor's numbering: receivers see a sequence
    /// gap, never a regression (the ring slot counter stays fresh — the
    /// replacement NIC's rings are empty).
    ///
    /// `rto` turns on reliable delivery: unacked frames retransmit
    /// after `rto << attempts` (backoff capped at six doublings), and
    /// the receive path deduplicates per source.
    pub fn set_fleet(
        &mut self,
        src: u16,
        schedule: Vec<TxPacket>,
        first_seq: u32,
        rto: Option<Ps>,
    ) {
        debug_assert!(schedule.windows(2).all(|p| p[0].at <= p[1].at));
        debug_assert_eq!(self.tx_slot_next, 0, "fleet mode starts on a fresh driver");
        debug_assert!(rto.is_none_or(|rto| rto > Ps::ZERO));
        self.tx_seq_next = first_seq;
        self.mode = Mode::Fleet(Fleet {
            src,
            schedule,
            next: 0,
            rx_next: HashMap::new(),
            reliable: rto.map(|rto| Reliable {
                rto,
                unacked: BTreeMap::new(),
                acks_out: Vec::new(),
                acks_in: Vec::new(),
                seen: HashMap::new(),
            }),
        });
    }

    /// The reliable-delivery state, in the one mode that can have it.
    fn reliable_mut(&mut self) -> Option<&mut Reliable> {
        match &mut self.mode {
            Mode::Fleet(f) => f.reliable.as_mut(),
            Mode::Stream { .. } => None,
        }
    }

    /// Deliver one acknowledgement to this (sending) driver: the frame
    /// it posted as `seq` was delivered, and the ack arrives at `at`.
    /// Applied at the first poll at or after `at`.
    pub fn deliver_ack(&mut self, at: Ps, seq: u32) {
        if let Some(r) = self.reliable_mut() {
            r.acks_in.push((at, seq));
        }
    }

    /// Drain receiver-generated acknowledgements:
    /// `(source NIC of the acked frame, seq, delivered_at)`. The fleet
    /// engine routes each to its source driver one fabric round-trip
    /// after `delivered_at`.
    pub fn take_acks(&mut self) -> Vec<(u16, u32, Ps)> {
        self.reliable_mut()
            .map(|r| std::mem::take(&mut r.acks_out))
            .unwrap_or_default()
    }

    /// Fleet-schedule frames posted so far (the sequence counter), for
    /// resuming a replacement driver after a NIC reset.
    pub fn fleet_seq_next(&self) -> u32 {
        self.tx_seq_next
    }

    /// Transmit frames staged into the NIC rings and not yet completed
    /// (the in-flight window, counting retransmits).
    pub fn tx_in_flight(&self) -> u32 {
        self.tx_slot_next - self.stats.tx_completed as u32
    }

    /// Whether the next invocation's behavior depends on `now` even
    /// with unchanged host memory: offered-load pacing, un-posted
    /// fleet schedule entries, or reliable-mode timers (pending acks
    /// and retransmit deadlines). The event kernel must not elide polls
    /// while this holds.
    pub fn time_sensitive(&self) -> bool {
        let reliable_busy = |r: &Reliable| !r.unacked.is_empty() || !r.acks_in.is_empty();
        self.cfg.offered_fps.is_some()
            || match &self.mode {
                Mode::Stream { .. } => false,
                Mode::Fleet(f) => {
                    f.next < f.schedule.len() || f.reliable.as_ref().is_some_and(reliable_busy)
                }
            }
    }

    /// The host-memory layout in use.
    pub fn layout(&self) -> HostLayout {
        self.layout
    }

    /// Statistics so far.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Received UDP payload throughput in Gb/s over the window ending
    /// at `now`.
    pub fn rx_udp_gbps(&self, now: Ps) -> f64 {
        let elapsed = now.saturating_sub(self.window_start);
        if elapsed == Ps::ZERO {
            return 0.0;
        }
        self.stats.rx_udp_payload_bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e9
    }

    /// Restart the receive measurement window at `now` (discard
    /// warm-up): frame/byte counters restart, error counters persist.
    pub fn reset_window(&mut self, now: Ps) {
        self.stats.rx_udp_payload_bytes = 0;
        self.stats.rx_frames = 0;
        self.window_start = now;
    }

    /// Drain pending mailbox writes (the system applies them to the NIC's
    /// memory-mapped registers).
    pub fn take_mailbox_writes(&mut self) -> Vec<MailboxWrite> {
        std::mem::take(&mut self.mailbox)
    }

    fn post_send_frames<P: Probe>(&mut self, now: Ps, mem: &mut HostMemory, probe: &mut P) -> bool {
        if !self.cfg.send_enabled {
            return false;
        }
        let completed_bds = mem.read_u32(self.layout.send_cons());
        let completed_frames = completed_bds / 2;
        let completed_changed = self.stats.tx_completed != completed_frames as u64;
        if P::ENABLED && completed_changed {
            probe.emit(Event::HostTxComplete {
                upto: completed_frames,
                at: now,
            });
        }
        self.stats.tx_completed = completed_frames as u64;
        let in_flight = self.tx_slot_next - completed_frames;
        let mut budget = (SEND_FRAME_WINDOW - in_flight).min(POST_BURST);
        if let Some(fps) = self.cfg.offered_fps {
            let allowed = (now.as_secs_f64() * fps) as u64;
            budget = budget.min((allowed.saturating_sub(self.tx_seq_next as u64)) as u32);
        }
        // Frames whose payload DMA the NIC aborted never reached the
        // wire: grant extra posting credit on top of the paced budget so
        // the offered load is made good.
        let aborts = mem.read_u32(self.layout.aborts());
        let lost = aborts.wrapping_sub(self.aborts_seen);
        if lost > 0 {
            self.aborts_seen = aborts;
            self.stats.tx_retries += lost as u64;
            budget = (budget + lost).min(SEND_FRAME_WINDOW - in_flight);
            if P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::TxRetry,
                    unit: FaultUnit::Driver,
                    info: lost,
                    at: now,
                });
            }
        }
        if budget == 0 {
            return completed_changed;
        }
        // Reliable mode first applies due acks, then spends budget on
        // overdue retransmits before new frames — recovery traffic
        // ahead of fresh offered load.
        let mut posted = self.retransmit_due(now, mem, &mut budget, probe);
        while budget > 0 {
            // The next frame due: the stream always has one, a fleet
            // when its schedule's next packet's time has come.
            let (seq, frame) = match &mut self.mode {
                Mode::Stream { .. } => {
                    let seq = self.tx_seq_next;
                    (seq, build_udp_frame(seq, self.cfg.udp_payload))
                }
                Mode::Fleet(f) => {
                    let Some(pkt) = f.schedule.get(f.next).filter(|p| p.at <= now) else {
                        break;
                    };
                    f.next += 1;
                    // Namespaced sequence: globally unique across the
                    // fleet, recoverable to the source via `seq >> 24`.
                    debug_assert!(self.tx_seq_next < 1 << 24, "fleet seq namespace overflow");
                    let seq = ((f.src as u32) << 24) | self.tx_seq_next;
                    let mut frame = build_udp_frame(seq, pkt.udp_payload);
                    set_endpoints(&mut frame, f.src, pkt.dst);
                    if let Some(r) = &mut f.reliable {
                        r.unacked.insert(
                            seq,
                            Unacked {
                                dst: pkt.dst,
                                udp_payload: pkt.udp_payload,
                                last_sent: now,
                                attempts: 0,
                            },
                        );
                    }
                    (seq, frame)
                }
            };
            self.write_frame(now, mem, &frame, seq, probe);
            self.tx_seq_next += 1;
            budget -= 1;
            posted = true;
        }
        if posted {
            self.mailbox.push(MailboxWrite {
                reg: Mailbox::SendBdProd,
                value: self.tx_bd_prod,
            });
        }
        completed_changed || posted
    }

    /// Reliable mode only (a no-op otherwise). Apply acknowledgements
    /// that have arrived by `now`: each removes its frame from the
    /// unacked map. Arrival order across senders is irrelevant — removal
    /// from a set commutes — so the fleet engine may append acks in any
    /// deterministic order.
    ///
    /// Then retransmit frames whose timeout expired, oldest sequence
    /// first, within `budget`. Attempt `n` waits `rto << min(n, 6)`
    /// after its last transmission — exponential backoff with a bounded
    /// exponent so a long-unreachable peer cannot overflow the shift.
    fn retransmit_due<P: Probe>(
        &mut self,
        now: Ps,
        mem: &mut HostMemory,
        budget: &mut u32,
        probe: &mut P,
    ) -> bool {
        let Mode::Fleet(f) = &mut self.mode else {
            return false;
        };
        let (src, Some(r)) = (f.src, &mut f.reliable) else {
            return false;
        };
        let mut i = 0;
        while i < r.acks_in.len() {
            if r.acks_in[i].0 <= now {
                let (_, seq) = r.acks_in.swap_remove(i);
                r.unacked.remove(&seq);
            } else {
                i += 1;
            }
        }
        let mut due = Vec::new();
        for (seq, u) in r.unacked.iter_mut() {
            if due.len() as u32 >= *budget {
                break;
            }
            if now >= u.last_sent + Ps(r.rto.0 << u.attempts.min(6)) {
                u.last_sent = now;
                u.attempts += 1;
                due.push((*seq, u.dst, u.udp_payload));
            }
        }
        let sent = !due.is_empty();
        for (seq, dst, payload) in due {
            let mut frame = build_udp_frame(seq, payload);
            set_endpoints(&mut frame, src, dst);
            self.write_frame(now, mem, &frame, seq, probe);
            self.stats.tx_retransmits += 1;
            *budget -= 1;
            if P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::Retransmit,
                    unit: FaultUnit::Driver,
                    info: seq,
                    at: now,
                });
            }
        }
        sent
    }

    /// Stage one frame into the send buffers and its two BDs into the
    /// ring; `seq` is the wire sequence (stored in the BDs for the
    /// firmware to carry through to the transmit ring). The caller owns
    /// the sequence counter; this advances only the ring slot.
    fn write_frame<P: Probe>(
        &mut self,
        now: Ps,
        mem: &mut HostMemory,
        frame: &[u8],
        seq: u32,
        probe: &mut P,
    ) {
        let slot = self.tx_slot_next % SEND_FRAME_WINDOW;
        let eth_len = (frame.len() - 4) as u32; // MAC appends the FCS
        let hdr_addr = self.layout.send_hdr_bufs + slot * 64 + 2;
        let pay_addr = self.layout.send_pay_bufs + slot * 2048;
        mem.write(hdr_addr, &frame[..HEADER_LEN as usize]);
        mem.write(pay_addr, &frame[HEADER_LEN as usize..eth_len as usize]);
        // Two BDs: header (FIRST) then payload (LAST).
        let bd0 = self.layout.send_bd_ring + (self.tx_bd_prod % SEND_BD_RING_ENTRIES) * BD_BYTES;
        mem.write_u32(bd0, hdr_addr);
        mem.write_u32(bd0 + 4, HEADER_LEN);
        mem.write_u32(bd0 + 8, BD_FLAG_FIRST);
        mem.write_u32(bd0 + 12, seq);
        let bd1 =
            self.layout.send_bd_ring + ((self.tx_bd_prod + 1) % SEND_BD_RING_ENTRIES) * BD_BYTES;
        mem.write_u32(bd1, pay_addr);
        mem.write_u32(bd1 + 4, eth_len - HEADER_LEN);
        mem.write_u32(bd1 + 8, BD_FLAG_LAST);
        mem.write_u32(bd1 + 12, seq);
        self.tx_bd_prod += 2;
        self.tx_slot_next += 1;
        self.stats.tx_posted += 1;
        if P::ENABLED {
            probe.emit(Event::HostTxPost { seq, at: now });
        }
    }

    fn post_rx_buffers(&mut self, mem: &mut HostMemory) -> bool {
        let outstanding = self.rx_bd_prod - self.rx_frames_returned;
        let room = RX_BD_RING_ENTRIES - outstanding;
        let mut posted = 0;
        for _ in 0..room.min(POST_BURST * 2) {
            let Some(buf) = self.rx_free_bufs.pop_front() else {
                break;
            };
            self.outstanding[buf as usize] = true;
            let addr = self.layout.rx_bufs + buf * RX_BUF_BYTES + 2;
            let bd = self.layout.rx_bd_ring + (self.rx_bd_prod % RX_BD_RING_ENTRIES) * BD_BYTES;
            mem.write_u32(bd, addr);
            mem.write_u32(bd + 4, RX_BUF_BYTES - 2);
            mem.write_u32(bd + 8, 0);
            mem.write_u32(bd + 12, buf);
            self.rx_bd_prod += 1;
            posted += 1;
        }
        if posted > 0 {
            self.mailbox.push(MailboxWrite {
                reg: Mailbox::RxBdProd,
                value: self.rx_bd_prod,
            });
        }
        posted > 0
    }

    fn consume_returns<P: Probe>(&mut self, now: Ps, mem: &mut HostMemory, probe: &mut P) -> bool {
        let prod = mem.read_u32(self.layout.ret_prod());
        let consumed = self.ret_cons != prod;
        while self.ret_cons != prod {
            let d = self.layout.return_ring + (self.ret_cons % RETURN_RING_ENTRIES) * BD_BYTES;
            let addr = mem.read_u32(d);
            let len = mem.read_u32(d + 4);
            if mem.read_u32(d + 12) != 0 {
                // Error return: the MAC dropped the frame at the CRC
                // check, so the buffer carries no payload — recycle it
                // without validating and account the drop.
                self.stats.rx_error_returns += 1;
                if P::ENABLED {
                    probe.emit(Event::Recovery {
                        kind: RecoveryKind::RxErrorReturn,
                        unit: FaultUnit::Driver,
                        info: len,
                        at: now,
                    });
                }
                self.recycle(addr);
                self.ret_cons += 1;
                continue;
            }
            match validate_frame(mem.read(addr, len)) {
                Ok(info) => {
                    // Ordering is per sender: the one peer of a stream,
                    // or in a fleet the source NIC recovered from the
                    // sequence namespace (sources interleave freely).
                    // `expected` is what that sender was due to send.
                    let src_nic = (info.seq >> 24) as u16;
                    let next = info.seq.wrapping_add(1);
                    let (first, expected) = match &mut self.mode {
                        // Reliable mode: deduplicate per source and ack
                        // every delivery, duplicates included (the
                        // re-ack covers a lost ack). Gap/regression
                        // accounting is meaningless under
                        // retransmission and stays off.
                        Mode::Fleet(Fleet {
                            reliable: Some(r), ..
                        }) => {
                            r.acks_out.push((src_nic, info.seq, now));
                            (r.seen.entry(src_nic).or_default().insert(info.seq), None)
                        }
                        Mode::Fleet(f) => (true, f.rx_next.insert(src_nic, next)),
                        Mode::Stream { rx_next } => (true, rx_next.replace(next)),
                    };
                    if let Some(e) = expected {
                        if info.seq > e {
                            self.stats.rx_dropped += (info.seq - e) as u64;
                        } else if info.seq < e {
                            self.stats.rx_out_of_order += 1;
                        }
                    }
                    if first {
                        self.stats.rx_frames += 1;
                        self.stats.rx_udp_payload_bytes += info.udp_payload as u64;
                        if P::ENABLED {
                            probe.emit(Event::HostRxDeliver {
                                seq: info.seq,
                                udp_payload: info.udp_payload as u32,
                                at: now,
                            });
                        }
                    } else {
                        self.stats.rx_duplicates += 1;
                    }
                }
                Err(_) => self.stats.rx_corrupt += 1,
            }
            self.recycle(addr);
            self.ret_cons += 1;
        }
        consumed
    }

    /// Return a buffer to the free pool by its posted address.
    fn recycle(&mut self, addr: u32) {
        let buf = (addr - 2 - self.layout.rx_bufs) / RX_BUF_BYTES;
        debug_assert!(
            self.outstanding[buf as usize],
            "the NIC returned receive buffer {buf}, which the driver never posted"
        );
        self.outstanding[buf as usize] = false;
        self.rx_free_bufs.push_back(buf);
        self.rx_frames_returned += 1;
    }

    /// Run one driver invocation: replenish rings, consume completions.
    ///
    /// Returns whether the invocation changed any state (a return
    /// consumed, a send or receive buffer posted, or the completion
    /// count advanced). When it returns `false`, an identical invocation
    /// with the same host-memory contents is a provable no-op — except
    /// under offered-load pacing, where the send budget also depends on
    /// `now`. The event-driven kernel uses this to elide polls while the
    /// NIC leaves host memory untouched.
    ///
    /// Emits [`Event::HostTxPost`] per frame posted,
    /// [`Event::HostTxComplete`] when the NIC's completion count
    /// advances, and [`Event::HostRxDeliver`] per validated frame
    /// delivered.
    pub fn tick_probed<P: Probe>(&mut self, now: Ps, mem: &mut HostMemory, probe: &mut P) -> bool {
        let consumed = self.consume_returns(now, mem, probe);
        let sent = self.post_send_frames(now, mem, probe);
        let posted = self.post_rx_buffers(mem);
        consumed || sent || posted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_obs::NullProbe;

    fn setup() -> (Driver, HostMemory) {
        let layout = HostLayout::default();
        let mem = HostMemory::new(layout.memory_size());
        (Driver::new(DriverConfig::default(), layout), mem)
    }

    #[test]
    fn posts_send_bd_pairs_and_mailbox() {
        let (mut d, mut mem) = setup();
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_posted, 32);
        let writes = d.take_mailbox_writes();
        assert!(writes
            .iter()
            .any(|w| w.reg == Mailbox::SendBdProd && w.value == 64));
        // First BD pair: header FIRST then payload LAST.
        let l = d.layout();
        assert_eq!(mem.read_u32(l.send_bd_ring + 4), HEADER_LEN);
        assert_eq!(mem.read_u32(l.send_bd_ring + 8), BD_FLAG_FIRST);
        assert_eq!(mem.read_u32(l.send_bd_ring + 16 + 8), BD_FLAG_LAST);
        // Header + payload reassemble into a valid frame (sans FCS).
        let hdr_addr = mem.read_u32(l.send_bd_ring);
        let pay_addr = mem.read_u32(l.send_bd_ring + 16);
        let pay_len = mem.read_u32(l.send_bd_ring + 16 + 4);
        let mut frame = mem.read(hdr_addr, HEADER_LEN).to_vec();
        frame.extend_from_slice(mem.read(pay_addr, pay_len));
        frame.extend_from_slice(&[0; 4]); // FCS
        let info = validate_frame(&frame).unwrap();
        assert_eq!(info.seq, 0);
        assert_eq!(info.udp_payload, 1472);
    }

    #[test]
    fn window_limits_outstanding_sends() {
        let (mut d, mut mem) = setup();
        for _ in 0..100 {
            d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        }
        assert_eq!(d.stats().tx_posted, SEND_FRAME_WINDOW as u64);
        // Completing frames opens the window.
        mem.write_u32(d.layout().send_cons(), 20); // 10 frames done
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_posted, SEND_FRAME_WINDOW as u64 + 10);
    }

    #[test]
    fn offered_load_paces_posting() {
        let layout = HostLayout::default();
        let mut mem = HostMemory::new(layout.memory_size());
        let cfg = DriverConfig {
            offered_fps: Some(1_000_000.0),
            ..DriverConfig::default()
        };
        let mut d = Driver::new(cfg, layout);
        d.tick_probed(Ps::from_us(10), &mut mem, &mut NullProbe); // 10us at 1Mfps = 10 frames
        assert_eq!(d.stats().tx_posted, 10);
    }

    #[test]
    fn posts_rx_buffers() {
        let (mut d, mut mem) = setup();
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let writes = d.take_mailbox_writes();
        let rx = writes.iter().find(|w| w.reg == Mailbox::RxBdProd).unwrap();
        assert_eq!(rx.value, 64);
        // BD 0 points into the buffer region with the +2 IP-align offset.
        let addr = mem.read_u32(d.layout().rx_bd_ring);
        assert_eq!(addr, d.layout().rx_bufs + 2);
    }

    #[test]
    fn consumes_returns_and_validates() {
        let (mut d, mut mem) = setup();
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let l = d.layout();
        // Simulate the NIC: put a valid frame in rx buffer 0 and a return
        // descriptor for it.
        let frame = build_udp_frame(0, 1472);
        let addr = l.rx_bufs + 2;
        mem.write(addr, &frame);
        mem.write_u32(l.return_ring, addr);
        mem.write_u32(l.return_ring + 4, frame.len() as u32);
        mem.write_u32(l.ret_prod(), 1);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        let s = d.stats();
        assert_eq!(s.rx_frames, 1);
        assert_eq!(s.rx_udp_payload_bytes, 1472);
        assert_eq!(s.rx_corrupt, 0);
    }

    #[test]
    fn detects_drops_via_seq_gap() {
        let (mut d, mut mem) = setup();
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let l = d.layout();
        for (i, seq) in [0u32, 3].iter().enumerate() {
            let frame = build_udp_frame(*seq, 100);
            let addr = l.rx_bufs + (i as u32) * RX_BUF_BYTES + 2;
            mem.write(addr, &frame);
            let dsc = l.return_ring + i as u32 * BD_BYTES;
            mem.write_u32(dsc, addr);
            mem.write_u32(dsc + 4, frame.len() as u32);
        }
        mem.write_u32(l.ret_prod(), 2);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().rx_frames, 2);
        assert_eq!(d.stats().rx_dropped, 2, "frames 1 and 2 were dropped");
        assert_eq!(d.stats().rx_out_of_order, 0);
    }

    #[test]
    fn recycles_rx_buffers() {
        let (mut d, mut mem) = setup();
        // Drain the free list entirely.
        for _ in 0..40 {
            d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        }
        assert_eq!(d.rx_bd_prod, RX_BUF_COUNT);
        // Return one frame; its buffer must be reusable.
        let l = d.layout();
        let frame = build_udp_frame(0, 100);
        mem.write(l.rx_bufs + 2, &frame);
        mem.write_u32(l.return_ring, l.rx_bufs + 2);
        mem.write_u32(l.return_ring + 4, frame.len() as u32);
        mem.write_u32(l.ret_prod(), 1);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        assert_eq!(d.rx_bd_prod, RX_BUF_COUNT + 1, "buffer 0 reposted");
    }

    #[test]
    fn error_returns_recycle_without_validation() {
        let layout = HostLayout::default();
        let mut mem = HostMemory::new(layout.memory_size());
        let mut d = Driver::new(DriverConfig::default(), layout);
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let l = d.layout();
        // Error return for buffer 0: flags word nonzero, no payload.
        mem.write_u32(l.return_ring, l.rx_bufs + 2);
        mem.write_u32(l.return_ring + 4, 64);
        mem.write_u32(l.return_ring + 12, 1);
        mem.write_u32(l.ret_prod(), 1);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        let s = d.stats();
        assert_eq!(s.rx_error_returns, 1);
        assert_eq!(s.rx_corrupt, 0, "error returns bypass validation");
        assert_eq!(s.rx_frames, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never posted")]
    fn return_of_an_unposted_buffer_is_caught() {
        let (mut d, mut mem) = setup();
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe); // posts buffers 0..64
        let l = d.layout();
        mem.write_u32(l.return_ring, l.rx_bufs + 100 * RX_BUF_BYTES + 2);
        mem.write_u32(l.return_ring + 4, 64);
        mem.write_u32(l.return_ring + 12, 1);
        mem.write_u32(l.ret_prod(), 1);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
    }

    #[test]
    fn nic_aborts_grant_tx_retry_credit() {
        let layout = HostLayout::default();
        let mut mem = HostMemory::new(layout.memory_size());
        let cfg = DriverConfig {
            offered_fps: Some(1_000_000.0),
            ..DriverConfig::default()
        };
        let mut d = Driver::new(cfg, layout);
        d.tick_probed(Ps::from_us(10), &mut mem, &mut NullProbe); // 10 us at 1 Mfps = 10 frames
        assert_eq!(d.stats().tx_posted, 10);
        mem.write_u32(layout.aborts(), 3); // NIC aborted 3 of them
        d.tick_probed(Ps::from_us(10), &mut mem, &mut NullProbe);
        let s = d.stats();
        assert_eq!(s.tx_retries, 3);
        assert_eq!(s.tx_posted, 13, "aborted frames re-posted beyond pacing");
    }

    #[test]
    fn fleet_schedule_posts_addressed_namespaced_frames() {
        use nicsim_net::frame::endpoints;
        let (mut d, mut mem) = setup();
        d.set_fleet(
            3,
            vec![
                TxPacket {
                    at: Ps::ZERO,
                    dst: 1,
                    udp_payload: 256,
                },
                TxPacket {
                    at: Ps::from_us(5),
                    dst: 2,
                    udp_payload: 1472,
                },
            ],
            0,
            None,
        );
        assert!(d.time_sensitive());
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        // Only the first packet is due.
        assert_eq!(d.stats().tx_posted, 1);
        assert!(d.time_sensitive(), "the second packet is still scheduled");
        let l = d.layout();
        let seq = mem.read_u32(l.send_bd_ring + 12);
        assert_eq!(seq, 3 << 24);
        // Reassemble and check addressing + validity.
        let hdr_addr = mem.read_u32(l.send_bd_ring);
        let pay_addr = mem.read_u32(l.send_bd_ring + 16);
        let pay_len = mem.read_u32(l.send_bd_ring + 16 + 4);
        let mut frame = mem.read(hdr_addr, HEADER_LEN).to_vec();
        frame.extend_from_slice(mem.read(pay_addr, pay_len));
        frame.extend_from_slice(&[0; 4]);
        assert_eq!(endpoints(&frame), (3, 1));
        assert_eq!(validate_frame(&frame).unwrap().seq, 3 << 24);
        // The second packet posts once its time comes; then the
        // schedule is drained and time sensitivity ends.
        d.tick_probed(Ps::from_us(5), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_posted, 2);
        assert!(!d.time_sensitive());
    }

    #[test]
    fn fleet_rx_tracks_ordering_per_source() {
        let (mut d, mut mem) = setup();
        d.set_fleet(0, Vec::new(), 0, None);
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let l = d.layout();
        // Interleaved sources 1 and 2; source 2 has a one-frame gap.
        let seqs = [1u32 << 24, 2 << 24, (1 << 24) + 1, (2 << 24) + 2];
        for (i, seq) in seqs.iter().enumerate() {
            let frame = build_udp_frame(*seq, 100);
            let addr = l.rx_bufs + (i as u32) * RX_BUF_BYTES + 2;
            mem.write(addr, &frame);
            let dsc = l.return_ring + i as u32 * BD_BYTES;
            mem.write_u32(dsc, addr);
            mem.write_u32(dsc + 4, frame.len() as u32);
        }
        mem.write_u32(l.ret_prod(), 4);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        let s = d.stats();
        assert_eq!(s.rx_frames, 4);
        assert_eq!(
            s.rx_out_of_order, 0,
            "interleaving across sources is in-order"
        );
        assert_eq!(s.rx_dropped, 1, "source 2's gap is a drop");
    }

    #[test]
    fn reliable_sender_retransmits_with_backoff_until_acked() {
        let (mut d, mut mem) = setup();
        d.set_fleet(
            0,
            vec![TxPacket {
                at: Ps::ZERO,
                dst: 1,
                udp_payload: 256,
            }],
            0,
            Some(Ps::from_us(10)),
        );
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_posted, 1);
        assert!(d.time_sensitive(), "unacked frames keep the driver hot");
        // Before the timeout: no retransmit.
        d.tick_probed(Ps::from_us(9), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_retransmits, 0);
        // At the timeout: one retransmit of the same seq into slot 1.
        d.tick_probed(Ps::from_us(10), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_retransmits, 1);
        assert_eq!(mem.read_u32(d.layout().send_bd_ring + BD_BYTES * 2 + 12), 0);
        // Backoff doubles: the next attempt waits 20 us, not 10.
        d.tick_probed(Ps::from_us(25), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_retransmits, 1);
        d.tick_probed(Ps::from_us(30), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_retransmits, 2);
        // An ack in the past applies at the next poll and stops the
        // retransmission.
        d.deliver_ack(Ps::from_us(31), 0);
        d.tick_probed(Ps::from_us(32), &mut mem, &mut NullProbe);
        assert!(!d.time_sensitive());
        d.tick_probed(Ps::from_us(200), &mut mem, &mut NullProbe);
        assert_eq!(d.stats().tx_retransmits, 2, "acked frames stay quiet");
    }

    #[test]
    fn reliable_receiver_dedups_and_acks() {
        let (mut d, mut mem) = setup();
        d.set_fleet(0, Vec::new(), 0, Some(Ps::from_us(10)));
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        let l = d.layout();
        // The same frame from source 1 returned twice (a retransmit
        // racing its original), plus a distinct one.
        let seqs = [1u32 << 24, 1 << 24, (1 << 24) + 1];
        for (i, seq) in seqs.iter().enumerate() {
            let frame = build_udp_frame(*seq, 100);
            let addr = l.rx_bufs + (i as u32) * RX_BUF_BYTES + 2;
            mem.write(addr, &frame);
            let dsc = l.return_ring + i as u32 * BD_BYTES;
            mem.write_u32(dsc, addr);
            mem.write_u32(dsc + 4, frame.len() as u32);
        }
        mem.write_u32(l.ret_prod(), 3);
        d.tick_probed(Ps::from_us(1), &mut mem, &mut NullProbe);
        let s = d.stats();
        assert_eq!(s.rx_frames, 2, "exactly-once delivery");
        assert_eq!(s.rx_duplicates, 1);
        assert_eq!(s.rx_dropped, 0, "no gap accounting in reliable mode");
        // Every return was acked, duplicates included.
        let acks = d.take_acks();
        assert_eq!(acks.len(), 3);
        assert!(acks
            .iter()
            .all(|(src, _, at)| *src == 1 && *at == Ps::from_us(1)));
        assert!(d.take_acks().is_empty(), "acks drain once");
    }

    #[test]
    fn resume_fleet_seq_leaves_a_gap_not_a_regression() {
        let (mut d, mut mem) = setup();
        d.set_fleet(
            2,
            vec![TxPacket {
                at: Ps::ZERO,
                dst: 1,
                udp_payload: 64,
            }],
            7,
            None,
        );
        d.tick_probed(Ps::ZERO, &mut mem, &mut NullProbe);
        assert_eq!(d.fleet_seq_next(), 8);
        let seq = mem.read_u32(d.layout().send_bd_ring + 12);
        assert_eq!(seq, (2 << 24) | 7);
        assert_eq!(d.tx_in_flight(), 1);
    }

    #[test]
    fn throughput_window_resets() {
        let (mut d, _mem) = setup();
        d.stats.rx_udp_payload_bytes = 1250;
        assert!(d.rx_udp_gbps(Ps::from_us(1)) > 9.9);
        d.reset_window(Ps::from_us(1));
        assert_eq!(d.rx_udp_gbps(Ps::from_us(2)), 0.0);
    }
}
