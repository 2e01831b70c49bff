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

use crate::scratchpad::{Scratchpad, SpRequest};
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
    /// Cycles a pending request waited beyond its first arbitration
    /// opportunity (bank conflicts).
    pub conflict_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: SpRequest,
}

#[derive(Debug, Clone, Copy)]
struct Response {
    value: u32,
    ready_at: u64,
}

/// All state owned by one requester port.
#[derive(Debug, Clone, Copy, Default)]
struct Port {
    pending: Option<Pending>,
    response: Option<Response>,
    stats: PortStats,
}

impl Port {
    fn submit(&mut self, id: RequesterId, req: SpRequest) {
        assert!(
            self.pending.is_none() && self.response.is_none(),
            "port {id} already has an outstanding transaction"
        );
        self.pending = Some(Pending { req });
    }

    fn take_response(&mut self, cycle: u64) -> Option<u32> {
        match self.response {
            Some(r) if r.ready_at <= cycle => {
                self.response = None;
                Some(r.value)
            }
            _ => None,
        }
    }

    fn idle(&self) -> bool {
        self.pending.is_none() && self.response.is_none()
    }
}

/// The crossbar and its per-bank arbiters.
///
/// The paper also routes processor access to the external memory interface
/// through the crossbar; the firmware never touches frame data, so that
/// path is not exercised and is omitted here (the assists access the frame
/// memory through their own bus — see [`crate::sdram`]).
pub struct Crossbar {
    ports: Vec<Port>,
    arbiters: Vec<RoundRobin>,
    cycle: u64,
    bank_busy_cycles: Vec<u64>,
}

impl Crossbar {
    /// Create a crossbar with `ports` requesters over the banks of `sp`.
    pub fn new(ports: usize, banks: usize) -> Crossbar {
        Crossbar {
            ports: vec![Port::default(); ports],
            arbiters: vec![RoundRobin::new(ports); banks],
            cycle: 0,
            bank_busy_cycles: vec![0; banks],
        }
    }

    /// Number of requester ports.
    pub fn ports(&self) -> usize {
        self.ports.len()
    }

    /// Submit a request on `port`.
    ///
    /// # Panics
    ///
    /// Panics if the port already has an outstanding request or an
    /// unconsumed response — requesters are single-outstanding by
    /// construction.
    pub fn submit(&mut self, port: RequesterId, req: SpRequest) {
        self.ports[port].submit(port, req);
    }

    /// Whether any port has an outstanding transaction (pending request
    /// or unconsumed response). When false, a [`Crossbar::tick`] is a
    /// pure no-op apart from the cycle counter, so the event-driven
    /// kernel may [`Crossbar::skip_cycles`] instead.
    pub fn has_pending(&self) -> bool {
        self.ports.iter().any(|p| !p.idle())
    }

    /// Whether the next [`Crossbar::tick`] would do real work, i.e. some
    /// port has an ungranted request. A tick with no pending requests is
    /// a pure cycle increment: unconsumed responses are untouched, the
    /// round-robin pointers only move on grants, and no conflict cycles
    /// accrue — so the kernel may [`Crossbar::skip_cycles`] instead.
    pub fn needs_tick(&self) -> bool {
        self.ports.iter().any(|p| p.pending.is_some())
    }

    /// Advance the cycle counter by `n` without arbitrating — exactly
    /// equivalent to `n` calls to [`Crossbar::tick`] while no request is
    /// pending (no grants, no conflict accrual, and the round-robin
    /// pointers only move on grants). Outstanding *responses* are fine:
    /// they become consumable once `ready_at <= cycle` and ticks never
    /// touch them.
    ///
    /// # Panics
    ///
    /// Debug-asserts that no request is pending.
    pub fn skip_cycles(&mut self, n: u64) {
        debug_assert!(!self.needs_tick(), "cannot skip with requests pending");
        self.cycle += n;
    }

    /// Whether `port` has neither a pending request nor an unconsumed
    /// response (i.e. it may submit).
    pub fn port_idle(&self, port: RequesterId) -> bool {
        self.ports[port].idle()
    }

    /// Take the response for `port` if it is consumable this cycle.
    pub fn take_response(&mut self, port: RequesterId) -> Option<u32> {
        let cycle = self.cycle;
        self.ports[port].take_response(cycle)
    }

    /// Statistics for `port`.
    pub fn port_stats(&self, port: RequesterId) -> PortStats {
        self.ports[port].stats
    }

    /// Cycles each bank spent servicing a transaction.
    pub fn bank_busy_cycles(&self) -> &[u64] {
        &self.bank_busy_cycles
    }

    /// Total words moved through the crossbar (grants), for Table 4's
    /// scratchpad-bandwidth row: bytes = grants * 4.
    pub fn total_grants(&self) -> u64 {
        self.ports.iter().map(|p| p.stats.grants).sum()
    }

    /// Reset all counters (used to discard warm-up before measurement).
    pub fn reset_stats(&mut self) {
        for p in &mut self.ports {
            p.stats = PortStats::default();
        }
        for b in &mut self.bank_busy_cycles {
            *b = 0;
        }
    }

    /// Arbitrate one CPU cycle: grant at most one pending transaction per
    /// bank, execute it against `sp`, and make the response consumable on
    /// the next cycle. Ungranted-but-seen requests accumulate conflict
    /// cycles.
    pub fn tick(&mut self, sp: &mut Scratchpad) {
        self.tick_probed(sp, Ps::ZERO, &mut NullProbe);
    }

    /// [`Crossbar::tick`] with probe instrumentation: emits
    /// [`Event::SpGrant`] for every granted transaction and
    /// [`Event::SpConflict`] for every request that lost arbitration this
    /// cycle, stamped with `now`.
    pub fn tick_probed<P: Probe>(&mut self, sp: &mut Scratchpad, now: Ps, probe: &mut P) {
        self.cycle += 1;
        for bank in 0..self.arbiters.len() {
            let winner = {
                let ports = &self.ports;
                self.arbiters[bank].grant(|p| {
                    ports[p]
                        .pending
                        .as_ref()
                        .is_some_and(|q| sp.bank_of(q.req.addr) == bank)
                })
            };
            if let Some(p) = winner {
                let q = self.ports[p].pending.take().expect("winner has request");
                let value = sp.execute(q.req);
                if P::ENABLED {
                    probe.emit(Event::SpGrant {
                        port: p,
                        bank,
                        addr: q.req.addr,
                        write: q.req.op.is_write(),
                        at: now,
                    });
                }
                self.ports[p].response = Some(Response {
                    value,
                    ready_at: self.cycle + 1,
                });
                self.ports[p].stats.grants += 1;
                self.bank_busy_cycles[bank] += 1;
            }
        }
        // Every request still pending after this arbitration round lost a
        // cycle to a bank conflict (uncontended requests are granted on
        // their first round).
        for p in 0..self.ports.len() {
            if let Some(q) = self.ports[p].pending {
                self.ports[p].stats.conflict_cycles += 1;
                if P::ENABLED {
                    probe.emit(Event::SpConflict {
                        port: p,
                        bank: sp.bank_of(q.req.addr),
                        at: now,
                    });
                }
            }
        }
    }
}

impl std::fmt::Debug for Crossbar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crossbar")
            .field("ports", &self.ports.len())
            .field("banks", &self.arbiters.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratchpad::SpOp;

    fn setup(ports: usize, banks: usize) -> (Crossbar, Scratchpad) {
        (Crossbar::new(ports, banks), Scratchpad::new(4096, banks))
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
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), None);
        // Cycle 2: consumable.
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), Some(77));
        assert_eq!(xb.port_stats(0).conflict_cycles, 0);
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
        xb.tick(&mut sp); // one granted
        xb.tick(&mut sp); // other granted
        xb.tick(&mut sp);
        let r0 = xb.take_response(0);
        let r1 = xb.take_response(1);
        assert!(r0.is_some() && r1.is_some());
        // Exactly one port saw one conflict cycle.
        let conflicts = xb.port_stats(0).conflict_cycles + xb.port_stats(1).conflict_cycles;
        assert_eq!(conflicts, 1);
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
        xb.tick(&mut sp);
        xb.tick(&mut sp);
        assert_eq!(xb.take_response(0), Some(1));
        assert_eq!(xb.take_response(1), Some(2));
        assert_eq!(xb.port_stats(0).conflict_cycles, 0);
        assert_eq!(xb.port_stats(1).conflict_cycles, 0);
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
    fn has_pending_tracks_transaction_lifetime() {
        let (mut xb, mut sp) = setup(2, 4);
        assert!(!xb.has_pending());
        xb.submit(
            0,
            SpRequest {
                addr: 8,
                op: SpOp::Read,
            },
        );
        assert!(xb.has_pending(), "pending request");
        xb.tick(&mut sp);
        assert!(xb.has_pending(), "response not yet consumable");
        xb.tick(&mut sp);
        assert!(xb.has_pending(), "response consumable but unconsumed");
        assert!(xb.take_response(0).is_some());
        assert!(!xb.has_pending(), "fully drained");
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
        assert!(xb.has_pending(), "but the port is still busy");
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
        assert_eq!(
            a.port_stats(0).conflict_cycles,
            b.port_stats(0).conflict_cycles
        );
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
