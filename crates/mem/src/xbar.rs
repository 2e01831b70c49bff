//! The 32-bit crossbar between requesters (cores + assists) and the
//! scratchpad banks.
//!
//! Paper §4: "The processors and each of the four hardware assists connect
//! to the scratchpads through a crossbar as in a dancehall architecture.
//! ... The crossbar is 32 bits wide and allows one transaction to each
//! scratchpad bank ... per cycle with round-robin arbitration for each
//! resource. Accessing any scratchpad bank requires a latency of 2 cycles:
//! one to request and traverse the crossbar and another to access the
//! memory and return requested data."
//!
//! Timing contract used throughout the simulator: a requester submits at
//! most one outstanding request; the request competes for its bank on each
//! subsequent [`Crossbar::tick`]; when granted on the tick of cycle *T*,
//! the response becomes consumable on cycle *T+1*. A load issued by a core
//! on cycle *T-1* therefore completes in 2 cycles when uncontended (one
//! mandatory "load stall" cycle), and every additional cycle spent waiting
//! for a grant is a *bank-conflict* stall — the two stall buckets reported
//! in Table 3.

use crate::scratchpad::{bank_of, Scratchpad, SpOp, SpRequest};
use nicsim_obs::{Event, NullProbe, Probe};
use nicsim_sim::{Ps, RoundRobin};

/// Identifies a crossbar port. Cores occupy ports `0..p`; the four assist
/// units (DMA read, DMA write, MAC TX, MAC RX) occupy the following ports.
pub type RequesterId = usize;

/// Per-port bookkeeping visible to the owner of the port.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Transactions granted on this port.
    pub grants: u64,
}

/// All state owned by one requester port.
#[derive(Debug, Clone, Copy)]
struct Port {
    /// The request awaiting a grant and the bank its address maps to,
    /// recorded at submit (meaningful while the port is `requesting`).
    req: SpRequest,
    bank: usize,
    /// Response of the granted transaction (meaningful while the port
    /// is `fresh` or `ready`).
    value: u32,
    stats: PortStats,
}

/// The most requester ports a crossbar can have: arbitration keeps one
/// request bit per port in a `u64`.
pub const MAX_XBAR_PORTS: usize = 64;

/// The crossbar and its per-bank arbiters.
///
/// The paper also routes processor access to the external memory interface
/// through the crossbar; the firmware never touches frame data, so that
/// path is not exercised and is omitted here (the assists access the frame
/// memory through their own bus — see [`crate::sdram`]).
#[derive(Debug)]
pub struct Crossbar {
    ports: Vec<Port>,
    arbiters: Vec<RoundRobin>,
    /// Per bank: bit `p` is set while port `p` has an ungranted request
    /// for that bank.
    requests: Vec<u64>,
    /// Union of `requests`: the ports with an ungranted request.
    requesting: u64,
    /// Ports granted on the latest tick: the response becomes consumable
    /// on the next cycle.
    fresh: u64,
    /// Ports holding a consumable response.
    ready: u64,
}

impl Crossbar {
    /// Create a crossbar with `ports` requesters over `banks` banks — the
    /// bank count of the [`Scratchpad`] it will arbitrate for.
    ///
    /// # Panics
    ///
    /// Panics if `ports` exceeds [`MAX_XBAR_PORTS`].
    pub fn new(ports: usize, banks: usize) -> Crossbar {
        assert!(
            ports <= MAX_XBAR_PORTS,
            "crossbar has {ports} ports; the arbiter holds at most {MAX_XBAR_PORTS}"
        );
        let idle = Port {
            req: SpRequest {
                addr: 0,
                op: SpOp::Read,
            },
            bank: 0,
            value: 0,
            stats: PortStats::default(),
        };
        Crossbar {
            ports: vec![idle; ports],
            arbiters: vec![RoundRobin::new(ports); banks],
            requests: vec![0; banks],
            requesting: 0,
            fresh: 0,
            ready: 0,
        }
    }

    /// Submit a request on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port already has an outstanding request or an
    /// unconsumed response — requesters are single-outstanding by
    /// construction.
    #[inline(always)]
    pub fn submit(&mut self, port: RequesterId, req: SpRequest) {
        if !self.port_idle(port) {
            port_busy(port);
        }
        let bank = bank_of(req.addr, self.requests.len());
        let p = &mut self.ports[port];
        (p.req, p.bank) = (req, bank);
        self.requests[bank] |= 1 << port;
        self.requesting |= 1 << port;
    }

    /// Whether the next [`Crossbar::tick`] would do real work, i.e. some
    /// port has an ungranted request. A tick with no pending requests is
    /// a pure cycle increment: unconsumed responses are untouched, the
    /// round-robin pointers only move on grants, and no request loses
    /// arbitration — so the kernel may [`Crossbar::skip_cycles`] instead.
    #[inline]
    pub fn needs_tick(&self) -> bool {
        self.requesting != 0
    }

    /// Let `n` cycles pass without arbitrating — exactly equivalent to
    /// `n` calls to [`Crossbar::tick`] while no request is pending (no
    /// grants, no conflicts, and the round-robin pointers only move on
    /// grants). Outstanding *responses* are fine: the latest
    /// tick's become consumable, and ticks never touch them otherwise.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no request is pending.
    pub fn skip_cycles(&mut self, n: u64) {
        debug_assert!(!self.needs_tick(), "cannot skip with requests pending");
        if n > 0 {
            self.ready |= std::mem::take(&mut self.fresh);
        }
    }

    /// Whether `port` has neither a pending request nor an unconsumed
    /// response (i.e. it may submit).
    #[inline]
    pub fn port_idle(&self, port: RequesterId) -> bool {
        debug_assert!(port < self.ports.len());
        (self.requesting | self.fresh | self.ready) >> port & 1 == 0
    }

    /// The ports holding a consumable response, one bit per port. Read
    /// after a cycle's arbitration, these are the requesters that must
    /// look at the crossbar on this cycle.
    #[inline]
    pub fn ready(&self) -> u64 {
        self.ready
    }

    /// The ports granted on the latest tick, one bit per port: their
    /// responses become consumable on the next cycle.
    #[inline]
    pub fn fresh(&self) -> u64 {
        self.fresh
    }

    /// Take the response for `port` if it is consumable this cycle.
    #[inline]
    pub fn take_response(&mut self, port: RequesterId) -> Option<u32> {
        if self.ready >> port & 1 == 0 {
            return None;
        }
        self.ready &= !(1 << port);
        Some(self.ports[port].value)
    }

    /// Statistics for `port`.
    pub fn port_stats(&self, port: RequesterId) -> PortStats {
        self.ports[port].stats
    }

    /// Reset all counters (used to discard warm-up before measurement).
    pub fn reset_stats(&mut self) {
        for p in &mut self.ports {
            p.stats = PortStats::default();
        }
    }

    /// Arbitrate one CPU cycle: grant at most one pending transaction per
    /// bank, execute it against `sp`, and make the response consumable on
    /// the next cycle.
    pub fn tick(&mut self, sp: &mut Scratchpad) {
        self.tick_probed(sp, Ps::ZERO, &mut NullProbe);
    }

    /// [`Crossbar::tick`] with probe instrumentation: emits
    /// [`Event::SpGrant`] for every granted transaction and
    /// [`Event::SpConflict`] for every request that lost arbitration this
    /// cycle, stamped with `now`, to a probe that reads per-cycle events
    /// ([`Probe::CYCLE_EVENTS`]).
    pub fn tick_probed<P: Probe>(&mut self, sp: &mut Scratchpad, now: Ps, probe: &mut P) {
        debug_assert_eq!(
            sp.banks(),
            self.requests.len(),
            "crossbar and scratchpad disagree on the bank count"
        );
        self.ready |= std::mem::take(&mut self.fresh);
        for bank in 0..self.requests.len() {
            self.grant(bank, sp, now, probe);
        }
        // Every request still pending after this arbitration round lost a
        // cycle to a bank conflict (uncontended requests are granted on
        // their first round).
        if P::CYCLE_EVENTS {
            let mut losers = self.requesting;
            while losers != 0 {
                let p = losers.trailing_zeros() as usize;
                losers &= losers - 1;
                probe.emit(Event::SpConflict {
                    port: p,
                    bank: self.ports[p].bank,
                    at: now,
                });
            }
        }
    }

    /// [`Crossbar::tick_probed`] on a cycle with exactly one request
    /// pending: the same grant, found without visiting the other banks.
    /// A lone request never loses arbitration, so no conflict is emitted.
    #[inline]
    pub fn tick_alone<P: Probe>(&mut self, sp: &mut Scratchpad, now: Ps, probe: &mut P) {
        debug_assert_eq!(self.requesting.count_ones(), 1, "not a lone request");
        self.ready |= std::mem::take(&mut self.fresh);
        let bank = self.ports[self.requesting.trailing_zeros() as usize].bank;
        self.grant(bank, sp, now, probe);
    }

    /// Arbitrate `bank`: grant the round-robin winner among its requests,
    /// if any, execute it against `sp` and make its response consumable
    /// on the next cycle — the one grant rule of both ticks.
    #[inline(always)]
    fn grant<P: Probe>(&mut self, bank: usize, sp: &mut Scratchpad, now: Ps, probe: &mut P) {
        let Some(p) = self.arbiters[bank].grant_mask(self.requests[bank]) else {
            return;
        };
        self.requests[bank] &= !(1 << p);
        self.requesting &= !(1 << p);
        self.fresh |= 1 << p;
        let port = &mut self.ports[p];
        port.value = sp.execute(port.req);
        if P::CYCLE_EVENTS {
            probe.emit(Event::SpGrant {
                port: p,
                bank,
                addr: port.req.addr,
                write: port.req.op.is_write(),
                at: now,
            });
        }
        port.stats.grants += 1;
    }
}

/// [`Crossbar::submit`]'s panic, out of line so the inlined submit
/// carries no formatting code.
#[cold]
#[inline(never)]
fn port_busy(port: RequesterId) -> ! {
    panic!("port {port} already has an outstanding transaction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(ports: usize, banks: usize) -> (Crossbar, Scratchpad) {
        (Crossbar::new(ports, banks), Scratchpad::new(4096, banks))
    }

    /// One tick; the ports that lost arbitration on it, from its
    /// `SpConflict` events.
    fn tick_losers(xb: &mut Crossbar, sp: &mut Scratchpad) -> Vec<usize> {
        let mut log = nicsim_obs::EventLog::new();
        xb.tick_probed(sp, Ps::ZERO, &mut log);
        log.events()
            .iter()
            .filter_map(|e| match *e {
                Event::SpConflict { port, .. } => Some(port),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_cycle_uncontended_latency() {
        let (mut xb, mut sp) = setup(2, 4);
        sp.poke(8, 77);
        xb.submit(
            0,
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
        );
        // Cycle 1: granted, executes; response not yet consumable.
        assert_eq!(tick_losers(&mut xb, &mut sp), []);
        assert_eq!(xb.take_response(0), None);
        // Cycle 2: consumable.
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), Some(77));
    }

    #[test]
    fn same_bank_conflict_serializes() {
        let (mut xb, mut sp) = setup(2, 4);
        // Both target bank 0 (addr 0 and 16 with 4 banks).
        xb.submit(
            0,
            SpRequest {
                addr: 0,
                op: SpOp::Write(1),
            },
        );
        xb.submit(
            1,
            SpRequest {
                addr: 16,
                op: SpOp::Write(2),
            },
        );
        // One granted, the other loses one cycle; then it is granted.
        assert_eq!(tick_losers(&mut xb, &mut sp).len(), 1);
        assert_eq!(tick_losers(&mut xb, &mut sp), []);
        xb.tick(&mut sp);
        let r0 = xb.take_response(0);
        let r1 = xb.take_response(1);
        assert!(r0.is_some() && r1.is_some());
        assert_eq!(sp.peek(0), 1);
        assert_eq!(sp.peek(16), 2);
    }

    #[test]
    fn different_banks_proceed_in_parallel() {
        let (mut xb, mut sp) = setup(2, 4);
        xb.submit(
            0,
            SpRequest {
                addr: 0,
                op: SpOp::Write(1),
            },
        );
        xb.submit(
            1,
            SpRequest {
                addr: 4,
                op: SpOp::Write(2),
            },
        );
        assert_eq!(tick_losers(&mut xb, &mut sp), []);
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), Some(1));
        assert_eq!(xb.take_response(1), Some(2));
    }

    #[test]
    fn round_robin_fairness_under_contention() {
        let (mut xb, mut sp) = setup(3, 1);
        let mut served = [0u32; 3];
        for _ in 0..30 {
            for p in 0..3 {
                if xb.port_idle(p) {
                    xb.submit(
                        p,
                        SpRequest {
                            addr: 0,
                            op: SpOp::Read,
                        },
                    );
                }
            }
            xb.tick(&mut sp);
            for (p, count) in served.iter_mut().enumerate() {
                if xb.take_response(p).is_some() {
                    *count += 1;
                }
            }
        }
        // One grant per cycle to a single bank, spread evenly.
        assert!(served.iter().all(|&c| (9..=11).contains(&c)), "{served:?}");
    }

    #[test]
    #[should_panic(expected = "outstanding")]
    fn double_submit_panics() {
        let (mut xb, _) = setup(1, 1);
        xb.submit(
            0,
            SpRequest {
                addr: 0,
                op: SpOp::Read,
            },
        );
        xb.submit(
            0,
            SpRequest {
                addr: 4,
                op: SpOp::Read,
            },
        );
    }

    #[test]
    fn atomic_tas_through_crossbar() {
        let (mut xb, mut sp) = setup(2, 1);
        xb.submit(
            0,
            SpRequest {
                addr: 0,
                op: SpOp::TestAndSet,
            },
        );
        xb.submit(
            1,
            SpRequest {
                addr: 0,
                op: SpOp::TestAndSet,
            },
        );
        for _ in 0..4 {
            xb.tick(&mut sp);
        }
        let a = xb.take_response(0).unwrap();
        let b = xb.take_response(1).unwrap();
        // Exactly one acquired (saw 0).
        assert!((a == 0) ^ (b == 0), "a={a:#x} b={b:#x}");
    }

    #[test]
    fn needs_tick_tracks_requests_not_responses() {
        let (mut xb, mut sp) = setup(2, 4);
        assert!(!xb.needs_tick());
        xb.submit(
            0,
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
        );
        assert!(xb.needs_tick(), "ungranted request");
        xb.tick(&mut sp);
        assert!(
            !xb.needs_tick(),
            "granted: only a response remains, ticks are no-ops"
        );
        assert!(!xb.port_idle(0), "but the port is still busy");
        // Skipping while the response waits must leave it consumable.
        xb.skip_cycles(3);
        assert_eq!(xb.take_response(0), Some(0));
    }

    #[test]
    fn skip_cycles_matches_idle_ticks() {
        // Two crossbars: one skips 10 idle cycles, the other ticks
        // through them. Subsequent behavior must be identical.
        let (mut a, mut spa) = setup(2, 4);
        let (mut b, mut spb) = setup(2, 4);
        a.skip_cycles(10);
        for _ in 0..10 {
            b.tick(&mut spb);
        }
        for xb in [&mut a, &mut b] {
            xb.submit(
                0,
                SpRequest {
                    addr: 8,
                    op: SpOp::Write(3),
                },
            );
        }
        a.tick(&mut spa);
        b.tick(&mut spb);
        assert_eq!(a.take_response(0), b.take_response(0));
        a.tick(&mut spa);
        b.tick(&mut spb);
        assert_eq!(a.take_response(0), Some(3));
        assert_eq!(b.take_response(0), Some(3));
        assert_eq!(a.port_stats(0).grants, b.port_stats(0).grants);
    }

    #[test]
    fn port_idle_tracks_transaction_lifetime() {
        let (mut xb, mut sp) = setup(2, 4);
        sp.poke(8, 42);
        assert!(xb.port_idle(0));
        xb.submit(
            0,
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
        );
        assert!(!xb.port_idle(0));
        assert!(xb.port_idle(1), "ports are independent");
        xb.tick(&mut sp);
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), Some(42));
        assert!(xb.port_idle(0));
    }

    /// The arbitration the bitmask replaced, kept as the reference: per
    /// bank, [`RoundRobin::grant`] scanning every port's pending request.
    struct ScanXbar {
        pending: Vec<Option<SpRequest>>,
        response: Vec<Option<(u32, u64)>>,
        grants: Vec<u64>,
        arbiters: Vec<RoundRobin>,
        cycle: u64,
    }

    impl ScanXbar {
        fn new(ports: usize, banks: usize) -> ScanXbar {
            ScanXbar {
                pending: vec![None; ports],
                response: vec![None; ports],
                grants: vec![0; ports],
                arbiters: vec![RoundRobin::new(ports); banks],
                cycle: 0,
            }
        }

        /// One cycle; returns the `(port, bank)` grants in order, then
        /// the ports left waiting (each lost the cycle to a conflict).
        fn tick(&mut self, sp: &mut Scratchpad) -> (Vec<(usize, usize)>, Vec<usize>) {
            self.cycle += 1;
            let mut grants = Vec::new();
            for bank in 0..self.arbiters.len() {
                let pending = &self.pending;
                let winner = self.arbiters[bank]
                    .grant(|p| pending[p].is_some_and(|q| sp.bank_of(q.addr) == bank));
                if let Some(p) = winner {
                    let req = self.pending[p].take().unwrap();
                    self.response[p] = Some((sp.execute(req), self.cycle + 1));
                    self.grants[p] += 1;
                    grants.push((p, bank));
                }
            }
            let losers = (0..self.pending.len())
                .filter(|&p| self.pending[p].is_some())
                .collect();
            (grants, losers)
        }

        fn take_response(&mut self, p: usize) -> Option<u32> {
            let (value, _) = self.response[p].filter(|&(_, at)| at <= self.cycle)?;
            self.response[p] = None;
            Some(value)
        }
    }

    #[test]
    fn bitmask_arbitration_matches_the_port_scan() {
        use nicsim_sim::XorShift64;
        for (ports, banks) in [(1, 1), (3, 3), (10, 4), (64, 4), (64, 3), (10, 1)] {
            let mut rng = XorShift64::for_site(16, (ports * 8 + banks) as u64);
            let (mut xb, mut sp) = setup(ports, banks);
            let (mut reference, mut ref_sp) = (ScanXbar::new(ports, banks), sp.clone());
            for _ in 0..2_000 {
                for p in 0..ports {
                    let idle = reference.pending[p].is_none() && reference.response[p].is_none();
                    assert_eq!(xb.port_idle(p), idle);
                    if idle && rng.below(3) != 0 {
                        // A few hot words, so banks are fought over.
                        let req = SpRequest {
                            addr: rng.below(12) as u32 * 4,
                            op: match rng.below(4) {
                                0 => SpOp::Read,
                                1 => SpOp::Write(rng.next_u64() as u32),
                                2 => SpOp::SetBit(rng.below(32) as u8),
                                _ => SpOp::TestAndSet,
                            },
                        };
                        xb.submit(p, req);
                        reference.pending[p] = Some(req);
                    }
                }
                assert_eq!(
                    xb.needs_tick(),
                    reference.pending.iter().any(Option::is_some)
                );
                let mut log = nicsim_obs::EventLog::new();
                xb.tick_probed(&mut sp, Ps::ZERO, &mut log);
                let (mut grants, mut losers) = (Vec::new(), Vec::new());
                for e in log.events() {
                    match *e {
                        Event::SpGrant { port, bank, .. } => grants.push((port, bank)),
                        Event::SpConflict { port, .. } => losers.push(port),
                        _ => {}
                    }
                }
                let want = reference.tick(&mut ref_sp);
                assert_eq!((grants, losers), want, "{ports}x{banks}");
                for p in 0..ports {
                    if rng.below(2) == 0 {
                        assert_eq!(xb.take_response(p), reference.take_response(p));
                    }
                }
            }
            for p in 0..ports {
                let (got, want) = (xb.port_stats(p).grants, reference.grants[p]);
                assert_eq!(got, want, "{ports}x{banks} port {p}");
            }
            assert!((0..48).step_by(4).all(|a| sp.peek(a) == ref_sp.peek(a)));
        }
    }

    #[test]
    fn a_lone_grant_equals_a_tick_with_one_request() {
        use nicsim_sim::XorShift64;
        // Side by side: `full` always ticks, `alone` takes the lone-grant
        // path whenever one request is pending and skips idle cycles.
        // Ports, arbiter pointers, responses, words and events agree.
        let rng = &mut XorShift64::for_site(17, 0);
        let (mut full, mut sp_full) = setup(5, 4);
        let (mut alone, mut sp_alone) = setup(5, 4);
        let (mut log_full, mut log_alone) =
            (nicsim_obs::EventLog::new(), nicsim_obs::EventLog::new());
        let mut lone_ticks = 0;
        for cycle in 0..3_000 {
            let port = rng.below(5) as usize;
            if full.port_idle(port) && rng.below(2) == 0 {
                let req = SpRequest {
                    addr: rng.below(16) as u32 * 4,
                    op: match rng.below(5) {
                        0 => SpOp::Read,
                        1 => SpOp::Write(rng.next_u64() as u32),
                        2 => SpOp::SetBit(rng.below(32) as u8),
                        3 => SpOp::Update {
                            start_bit: rng.below(32) as u8,
                        },
                        _ => SpOp::TestAndSet,
                    },
                };
                full.submit(port, req);
                alone.submit(port, req);
            }
            let now = Ps(cycle);
            full.tick_probed(&mut sp_full, now, &mut log_full);
            match alone.requesting.count_ones() {
                0 => alone.skip_cycles(1),
                1 => {
                    alone.tick_alone(&mut sp_alone, now, &mut log_alone);
                    lone_ticks += 1;
                }
                _ => alone.tick_probed(&mut sp_alone, now, &mut log_alone),
            }
            for p in 0..5 {
                if rng.below(3) == 0 {
                    assert_eq!(full.take_response(p), alone.take_response(p));
                }
            }
            assert_eq!(format!("{full:?}"), format!("{alone:?}"), "cycle {cycle}");
        }
        assert!(lone_ticks > 500, "{lone_ticks} lone grants");
        assert_eq!(log_full.events(), log_alone.events());
        assert!((0..64)
            .step_by(4)
            .all(|a| sp_full.peek(a) == sp_alone.peek(a)));
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_ports_than_request_bits_is_refused() {
        let _ = Crossbar::new(65, 4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disagree on the bank count")]
    fn bank_count_mismatch_is_caught() {
        let (mut xb, _) = setup(2, 2);
        xb.tick(&mut Scratchpad::new(4096, 4));
    }

    #[test]
    fn probe_observes_grants_and_conflicts() {
        use crate::trace::{AccessKind, AccessTrace};
        // The Figure 3 coherence capture is just a probe sink; compose it
        // with a raw event log to also see the conflict retries.
        let (mut xb, mut sp) = setup(2, 1);
        let mut pair = (AccessTrace::new(), nicsim_obs::EventLog::new());
        xb.submit(
            0,
            SpRequest {
                addr: 12,
                op: SpOp::Write(5),
            },
        );
        xb.submit(
            1,
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
        );
        // Both target the single bank: one grant and one retry on the
        // first cycle, the loser granted on the second.
        xb.tick_probed(&mut sp, Ps(7), &mut pair);
        xb.tick_probed(&mut sp, Ps(8), &mut pair);
        let (trace, log) = pair;
        assert_eq!(trace.len(), 2, "both grants recorded");
        assert_eq!(trace.records()[0].kind, AccessKind::Write);
        assert_eq!(trace.records()[0].addr, 12);
        let conflicts = log
            .events()
            .iter()
            .filter(|e| matches!(e, Event::SpConflict { .. }))
            .count();
        assert_eq!(conflicts, 1, "loser of cycle one retried");
    }
}
