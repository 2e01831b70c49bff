//! An assist's scratchpad side: its crossbar port, and the command ring
//! firmware drives it through.
//!
//! Assists, like cores, have a single outstanding transaction on the
//! crossbar. [`SpPort`] queues the transactions an assist wants to
//! perform and issues them in order, returning each completion (tagged
//! by the assist) as it arrives.
//!
//! [`CmdRing`] is the one firmware-facing mechanism three of the four
//! assists share (Figure 5): a scratchpad ring of four-word entries, a
//! producer doorbell the unit reads as a register, and a monotonic
//! *done* counter the unit writes back. Entries may retire out of order
//! inside a unit (scratchpad copies vs. frame-memory bursts), but the
//! done counter only advances over the contiguous prefix, so firmware
//! can attribute completions by ring index. What differs between the
//! units — starting a transfer, completing it — stays in the unit.

use crate::cmd::{RingRegs, RING_ENTRY_WORDS};
use nicsim_mem::{Crossbar, Scratchpad, SpOp, SpRequest};
use std::collections::VecDeque;

/// A FIFO scratchpad-access port for a hardware assist.
#[derive(Debug)]
pub struct SpPort {
    port: usize,
    queue: VecDeque<(SpRequest, u32)>,
    inflight: Option<u32>,
    accesses: u64,
}

impl SpPort {
    /// Create a port bound to crossbar requester `port`.
    pub fn new(port: usize) -> SpPort {
        SpPort {
            port,
            queue: VecDeque::new(),
            inflight: None,
            accesses: 0,
        }
    }

    /// Enqueue a transaction with an assist-defined tag.
    pub fn push(&mut self, req: SpRequest, tag: u32) {
        self.queue.push_back((req, tag));
    }

    /// Transactions not yet completed (queued + in flight).
    #[inline]
    pub fn backlog(&self) -> usize {
        self.queue.len() + usize::from(self.inflight.is_some())
    }

    /// Total transactions completed (the assists' share of scratchpad
    /// bandwidth in Table 4).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Zero the access counter.
    pub fn reset_stats(&mut self) {
        self.accesses = 0;
    }

    /// Advance one cycle: collect the completed transaction (if any) and
    /// issue the next queued one. Returns `(tag, response)` on completion.
    #[inline]
    pub fn tick(&mut self, xbar: &mut Crossbar) -> Option<(u32, u32)> {
        let mut done = None;
        if let Some(tag) = self.inflight {
            if let Some(v) = xbar.take_response(self.port) {
                self.inflight = None;
                self.accesses += 1;
                done = Some((tag, v));
            }
        }
        if self.inflight.is_none() && xbar.port_idle(self.port) {
            if let Some((req, tag)) = self.queue.pop_front() {
                xbar.submit(self.port, req);
                self.inflight = Some(tag);
            }
        }
        done
    }
}

const TAG_ENTRY0: u32 = 1; // ..=4 for the four entry words
const TAG_ENTRY3: u32 = 4;
const TAG_DONE: u32 = 5;
const TAG_OWN: u32 = 6;

/// What [`CmdRing::poll`] hands the unit to act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Polled {
    /// Ring entry `idx` (a free-running count, not a slot) has been read.
    Entry {
        /// The entry's index.
        idx: u32,
        /// Its four words.
        words: [u32; 4],
    },
    /// One of the unit's own transactions ([`CmdRing::push`]) completed,
    /// in push order, with this response.
    Own(u32),
}

/// The command-ring front end of an assist, owning its [`SpPort`].
///
/// A unit's tick is `poll` (act on what it returns), then the unit's
/// own timed work, then `issue` — and the order matters beyond the
/// unit: the port is a FIFO, so the order transactions are pushed in
/// within a tick (the unit's, then the four entry reads, then the done
/// write-back) decides what the crossbar arbitrates on later cycles.
///
/// The per-tick methods are `#[inline]` because a unit's tick is generic
/// over the probe and so compiled in the crate that drives it; without
/// the attribute every step would be a call back into this crate.
#[derive(Debug)]
pub struct CmdRing {
    sp: SpPort,
    regs: RingRegs,
    /// Entries fully read so far.
    fetched: u32,
    fetch_active: bool,
    words: [u32; 4],
    /// The contiguous prefix of retired entries.
    done: u32,
    done_written: u32,
    done_inflight: bool,
    /// Per slot: retired, but an older entry has not.
    retired: Vec<bool>,
}

impl CmdRing {
    /// The ring behind `regs`, accessed through crossbar requester
    /// `port`.
    pub fn new(port: usize, regs: RingRegs) -> CmdRing {
        CmdRing {
            sp: SpPort::new(port),
            regs,
            fetched: 0,
            fetch_active: false,
            words: [0; 4],
            done: 0,
            done_written: 0,
            done_inflight: false,
            retired: vec![false; regs.entries as usize],
        }
    }

    /// Scratchpad accesses performed (Table 4 accounting).
    pub fn sp_accesses(&self) -> u64 {
        self.sp.accesses()
    }

    /// Zero the access counter (keeps ring state).
    pub fn reset_stats(&mut self) {
        self.sp.reset_stats();
    }

    /// Entries retired so far, as the done counter reports them.
    pub fn done(&self) -> u32 {
        self.done
    }

    /// Enqueue one of the unit's own transactions.
    pub fn push(&mut self, req: SpRequest) {
        self.sp.push(req, TAG_OWN);
    }

    /// Entry `idx` retired. Entries retire in any order; `done` moves
    /// only over the contiguous prefix.
    #[inline]
    pub fn complete(&mut self, idx: u32) {
        let n = self.regs.entries;
        self.retired[(idx % n) as usize] = true;
        while self.retired[(self.done % n) as usize] {
            self.retired[(self.done % n) as usize] = false;
            self.done += 1;
        }
    }

    /// First step of a tick: advance the port one cycle and report a
    /// completed entry read or unit transaction.
    #[inline]
    pub fn poll(&mut self, xbar: &mut Crossbar) -> Option<Polled> {
        let (tag, value) = self.sp.tick(xbar)?;
        match tag {
            TAG_ENTRY0..=TAG_ENTRY3 => {
                self.words[(tag - TAG_ENTRY0) as usize] = value;
                if tag < TAG_ENTRY3 {
                    return None;
                }
                self.fetch_active = false;
                let idx = self.fetched;
                self.fetched += 1;
                Some(Polled::Entry {
                    idx,
                    words: self.words,
                })
            }
            TAG_DONE => {
                self.done_inflight = false;
                None
            }
            _ => Some(Polled::Own(value)),
        }
    }

    /// Whether the next entry's read would issue: none is in progress
    /// and the doorbell (a register, visible without a crossbar
    /// transaction) is ahead of what has been read.
    #[inline]
    fn fetch_ready(&self, sp_mem: &Scratchpad) -> bool {
        !self.fetch_active && self.fetched != sp_mem.peek(self.regs.prod)
    }

    /// Last step of a tick: read the next entry if the doorbell rang and
    /// the unit has `room` for it, then write the done counter back if
    /// it moved and no write-back is already in flight.
    #[inline]
    pub fn issue(&mut self, sp_mem: &Scratchpad, room: bool) {
        if room && self.fetch_ready(sp_mem) {
            self.fetch_active = true;
            let base = self.regs.ring + (self.fetched % self.regs.entries) * RING_ENTRY_WORDS * 4;
            for k in 0..RING_ENTRY_WORDS {
                self.sp.push(
                    SpRequest {
                        addr: base + k * 4,
                        op: SpOp::Read,
                    },
                    TAG_ENTRY0 + k,
                );
            }
        }
        if !self.done_inflight && self.done != self.done_written {
            self.sp.push(
                SpRequest {
                    addr: self.regs.done,
                    op: SpOp::Write(self.done),
                },
                TAG_DONE,
            );
            self.done_written = self.done;
            self.done_inflight = true;
        }
    }

    /// Whether the next `poll` + `issue` (with the same `room`) could do
    /// anything. This mirrors every gate above, in one place: a
    /// transaction queued or in flight, a done-counter write-back owed,
    /// or an entry read ready to issue. When false, the ring only reacts
    /// to a doorbell write or to the unit retiring an entry or finding
    /// room — which is what lets the event kernel skip the unit's tick.
    #[inline]
    pub fn busy(&self, sp_mem: &Scratchpad, room: bool) -> bool {
        self.sp.backlog() > 0
            || self.done != self.done_written
            || (room && self.fetch_ready(sp_mem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_mem::SpOp;

    #[test]
    fn fifo_order_preserved() {
        let mut sp = Scratchpad::new(1024, 4);
        let mut xbar = Crossbar::new(1, 4);
        let mut port = SpPort::new(0);
        for i in 0..5u32 {
            port.push(
                SpRequest {
                    addr: i * 4,
                    op: SpOp::Write(i + 100),
                },
                i,
            );
        }
        let mut tags = Vec::new();
        for _ in 0..40 {
            xbar.tick(&mut sp);
            if let Some((tag, _)) = port.tick(&mut xbar) {
                tags.push(tag);
            }
        }
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        for i in 0..5u32 {
            assert_eq!(sp.peek(i * 4), i + 100);
        }
        assert_eq!(port.accesses(), 5);
        assert_eq!(port.backlog(), 0);
    }

    #[test]
    fn read_returns_value() {
        let mut sp = Scratchpad::new(64, 4);
        sp.poke(8, 77);
        let mut xbar = Crossbar::new(1, 4);
        let mut port = SpPort::new(0);
        port.push(
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
            9,
        );
        let mut got = None;
        for _ in 0..10 {
            xbar.tick(&mut sp);
            if let Some(r) = port.tick(&mut xbar) {
                got = Some(r);
            }
        }
        assert_eq!(got, Some((9, 77)));
    }

    const RING: u32 = 0x1000;
    const PROD: u32 = 0x100;
    const DONE: u32 = 0x104;

    fn ring_rig() -> (Scratchpad, Crossbar, CmdRing) {
        let sp = Scratchpad::new(64 * 1024, 4);
        (
            sp,
            Crossbar::new(1, 4),
            CmdRing::new(
                0,
                RingRegs {
                    ring: RING,
                    entries: 8,
                    prod: PROD,
                    done: DONE,
                },
            ),
        )
    }

    /// One crossbar cycle, then one ring tick with nothing of the
    /// unit's own in between.
    fn cycle(
        sp: &mut Scratchpad,
        xbar: &mut Crossbar,
        ring: &mut CmdRing,
        room: bool,
    ) -> Option<Polled> {
        xbar.tick(sp);
        let polled = ring.poll(xbar);
        ring.issue(sp, room);
        polled
    }

    #[test]
    fn done_counter_is_contiguous_prefix() {
        let (_, _, mut ring) = ring_rig();
        ring.complete(1);
        assert_eq!(ring.done(), 0, "entry 0 still outstanding");
        ring.complete(0);
        assert_eq!(ring.done(), 2, "both now contiguous");
        ring.complete(2);
        assert_eq!(ring.done(), 3);
    }

    #[test]
    fn one_done_write_back_in_flight_at_a_time() {
        let (mut sp, mut xbar, mut ring) = ring_rig();
        ring.complete(0);
        ring.issue(&sp, false);
        assert_eq!(ring.sp.backlog(), 1, "done = 1 queued");
        // The counter moves again before that write lands: the second
        // write-back waits for the first instead of queueing behind it.
        ring.complete(1);
        ring.issue(&sp, false);
        assert_eq!(ring.sp.backlog(), 1);
        let mut seen = Vec::new();
        for _ in 0..20 {
            cycle(&mut sp, &mut xbar, &mut ring, false);
            if seen.last() != Some(&sp.peek(DONE)) {
                seen.push(sp.peek(DONE));
            }
        }
        assert_eq!(seen, [0, 1, 2], "each value written, in order");
        assert_eq!(ring.sp_accesses(), 2);
        assert!(!ring.busy(&sp, false));
    }

    #[test]
    fn no_fetch_without_room_or_doorbell() {
        let (mut sp, mut xbar, mut ring) = ring_rig();
        for (k, w) in [11, 22, 33, 44].into_iter().enumerate() {
            sp.poke(RING + k as u32 * 4, w);
        }
        ring.issue(&sp, true);
        assert_eq!(ring.sp.backlog(), 0, "no doorbell");
        sp.poke(PROD, 2);
        ring.issue(&sp, false);
        assert_eq!(ring.sp.backlog(), 0, "no room");
        ring.issue(&sp, true);
        assert_eq!(ring.sp.backlog(), 4, "four entry words");
        ring.issue(&sp, true);
        assert_eq!(ring.sp.backlog(), 4, "one entry read at a time");
        let mut got = Vec::new();
        for _ in 0..30 {
            // Room closes once the first entry arrives: the second
            // stays unread although the doorbell covers it.
            xbar.tick(&mut sp);
            got.extend(ring.poll(&mut xbar));
            ring.issue(&sp, got.is_empty());
        }
        assert_eq!(
            got,
            [Polled::Entry {
                idx: 0,
                words: [11, 22, 33, 44]
            }]
        );
        assert_eq!(ring.sp_accesses(), 4);
    }

    #[test]
    fn busy_is_false_exactly_when_a_tick_would_be_a_no_op() {
        // Play the unit: ring the doorbell now and then, hold entries
        // for a while, retire them out of order, open and close room.
        // On every cycle, `busy` must be true if and only if the tick
        // changes the ring or has a transaction still on the port.
        let (mut sp, mut xbar, mut ring) = ring_rig();
        let mut held: Vec<(u32, u32)> = Vec::new(); // (idx, retire at)
        let (mut busy_cycles, mut idle_cycles) = (0, 0);
        for t in 0..400u32 {
            if t % 37 == 0 && t < 300 {
                sp.poke(PROD, sp.peek(PROD) + 1 + t % 2);
            }
            // Newer entries retire first.
            while let Some(i) = held.iter().rposition(|(_, at)| *at <= t) {
                ring.complete(held.remove(i).0);
            }
            let room = held.len() < 2 && t % 11 != 0;
            let busy = ring.busy(&sp, room);
            let before = format!("{ring:?}");
            let waiting = ring.sp.backlog() > 0;
            if let Some(Polled::Entry { idx, .. }) = cycle(&mut sp, &mut xbar, &mut ring, room) {
                held.push((idx, t + 5 + 13 * (idx % 3)));
            }
            let changed = before != format!("{ring:?}");
            assert_eq!(busy, waiting || changed, "cycle {t}: {before}");
            if busy {
                busy_cycles += 1;
            } else {
                idle_cycles += 1;
            }
        }
        assert_eq!(ring.done(), sp.peek(PROD), "every entry retired");
        assert_eq!(sp.peek(DONE), ring.done(), "and reported");
        assert!(busy_cycles > 50 && idle_cycles > 50, "both sides seen");
    }
}
