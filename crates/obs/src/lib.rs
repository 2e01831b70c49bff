//! # nicsim-obs — frame-lifecycle observability behind one Probe API
//!
//! The paper's evaluation (§4–5) hinges on per-component visibility:
//! stall buckets, scratchpad contention, assist utilization, frame
//! ordering. This crate turns those ad-hoc side channels into a single
//! redesigned instrumentation surface: every component's tick is a
//! `*_probed` function emitting typed [`Event`]s at each frame-lifecycle
//! edge (`Crossbar`, `Core` and `FrameMemory` keep an unprobed form
//! only because `perf/` pins it), and an observer implements [`Probe`].
//!
//! ## The contract
//!
//! * **Monomorphized.** `Probe` is a generic bound, never a trait object.
//!   Every emission site is gated on the associated constant
//!   [`Probe::ENABLED`]:
//!
//!   ```ignore
//!   if P::ENABLED {
//!       probe.emit(Event::MacTxWireDone { seq, at: now });
//!   }
//!   ```
//!
//!   Events come in three classes. The per-cycle events (grants,
//!   conflicts, I-cache lines, handler entries) are gated on
//!   [`Probe::CYCLE_EVENTS`] instead, which a sink that never reads them
//!   turns off. The simulator-work events ([`Event::OpTaken`], one per
//!   firmware op a core takes) are gated on [`Probe::WORK_EVENTS`],
//!   which a sink turns on. Every other event is a frame-lifecycle edge.
//!
//! * **Zero-cost when off.** [`NullProbe`] sets `ENABLED = false`, so the
//!   branch above is a compile-time constant and the whole arm — event
//!   construction included — folds away. The simulator with `NullProbe`
//!   compiles to the same hot loop as before the probe existed; `RunStats`
//!   is bit-identical (asserted by the `frame_lifecycle` suite) and what
//!   an enabled probe costs is the `perf/` benchmark's
//!   `perf.trace_overhead_frac`.
//!
//! * **Timing-neutral when on.** Probes observe; they never feed back.
//!   An enabled probe must not change any simulation outcome, only record
//!   it. Emission sites may maintain small side queues (e.g. pending
//!   frame sequence numbers) to label events, but only under `P::ENABLED`
//!   and never in a way that alters component state machines.
//!
//! ## Sinks
//!
//! * [`FrameTracker`] — joins events on the frame sequence number into
//!   per-frame stage timelines and reports p50/p99 stage breakdowns.
//! * [`ChromeTrace`] — exports a Chrome `trace_event` JSON (one track per
//!   core, assist, and scratchpad bank) openable at <https://ui.perfetto.dev>.
//! * [`Metrics`] — counters and depth histograms (crossbar grants and
//!   retries per bank, I-cache hit rate, DMA/wire queue depths).
//! * [`EventLog`] — a bounded raw event capture for tests, of every
//!   class.
//! * `nicsim_mem::AccessTrace` — the Figure 3 coherence capture is itself
//!   a `Probe` sink over [`Event::SpGrant`].
//!
//! Compose sinks with tuples: `(ChromeTrace, (FrameTracker, Metrics))`
//! is a `Probe` that feeds all three.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod frame;
pub mod metrics;

pub use chrome::ChromeTrace;
pub use event::{
    DmaDir, Event, FaultKind, FaultUnit, FmStream, PendingOp, RecoveryKind, SpOp, SpRequest,
};
pub use frame::{FrameTracker, LatencySummary, StageStats};
pub use metrics::{DepthHistogram, Metrics};

/// An observer of frame-lifecycle [`Event`]s.
///
/// Implementations are monomorphized into the simulator; see the crate
/// docs for the zero-cost and timing-neutrality contract. `ENABLED`
/// defaults to `true` — only [`NullProbe`] turns it off.
pub trait Probe {
    /// Compile-time switch checked at every emission site. When `false`
    /// (the [`NullProbe`] default), event construction and emission fold
    /// away entirely.
    const ENABLED: bool = true;

    /// Whether the sink reads the per-cycle events — [`Event::SpGrant`],
    /// [`Event::SpConflict`], [`Event::IcacheAccess`] and
    /// [`Event::HandlerEnter`], several per simulated cycle. Their
    /// emission sites are gated on this instead of `ENABLED`, so a sink
    /// that ignores them (like [`FrameTracker`]) is never handed them.
    const CYCLE_EVENTS: bool = Self::ENABLED;

    /// Whether the sink reads the simulator-work events —
    /// [`Event::OpTaken`], one per firmware op a core takes. Off unless a
    /// sink turns it on: the work events describe the simulator rather
    /// than the NIC's frames, and only [`EventLog`] and sinks built to
    /// read them (the ILP study's trace) ask for them.
    const WORK_EVENTS: bool = false;

    /// Receive one event. Events arrive in simulation order per
    /// component; events from different components within the same cycle
    /// arrive in the system's fixed component order.
    fn emit(&mut self, ev: Event);
}

/// The default probe: observes nothing, costs nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullProbe;

impl Probe for NullProbe {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _ev: Event) {}
}

/// Fan-out composition: a pair of probes is a probe. A per-cycle or
/// work event reaches only a side that reads its class.
impl<A: Probe, B: Probe> Probe for (A, B) {
    const ENABLED: bool = A::ENABLED || B::ENABLED;
    const CYCLE_EVENTS: bool = A::CYCLE_EVENTS || B::CYCLE_EVENTS;
    const WORK_EVENTS: bool = A::WORK_EVENTS || B::WORK_EVENTS;

    #[inline]
    fn emit(&mut self, ev: Event) {
        if A::ENABLED && ev.reaches::<A>() {
            self.0.emit(ev);
        }
        if B::ENABLED && ev.reaches::<B>() {
            self.1.emit(ev);
        }
    }
}

/// A bounded in-order capture of raw events, mainly for tests and
/// debugging.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    /// Stop recording beyond this many events (0 = unlimited).
    pub limit: usize,
}

impl EventLog {
    /// An unlimited log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// A log that stops recording after `limit` events.
    pub fn with_limit(limit: usize) -> EventLog {
        EventLog {
            events: Vec::new(),
            limit,
        }
    }

    /// The captured events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drop all captured events (keeps the limit).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl Probe for EventLog {
    const WORK_EVENTS: bool = true;

    fn emit(&mut self, ev: Event) {
        if self.limit == 0 || self.events.len() < self.limit {
            self.events.push(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_sim::Ps;

    #[test]
    fn null_probe_is_disabled() {
        const { assert!(!NullProbe::ENABLED) };
        const { assert!(EventLog::ENABLED) };
    }

    #[test]
    fn tuple_composition_fans_out() {
        let mut pair = (EventLog::new(), EventLog::new());
        pair.emit(Event::WindowReset { at: Ps(5) });
        assert_eq!(pair.0.len(), 1);
        assert_eq!(pair.1.len(), 1);
        const { assert!(<(EventLog, EventLog)>::ENABLED) };
    }

    #[test]
    fn tuple_with_null_stays_enabled() {
        let mut pair = (NullProbe, EventLog::new());
        pair.emit(Event::WindowReset { at: Ps::ZERO });
        assert_eq!(pair.1.len(), 1);
        const { assert!(<(NullProbe, EventLog)>::ENABLED) };
        const { assert!(!<(NullProbe, NullProbe)>::ENABLED) };
    }

    #[test]
    fn per_cycle_events_reach_only_a_side_that_reads_them() {
        const { assert!(!FrameTracker::CYCLE_EVENTS && FrameTracker::ENABLED) };
        const { assert!(EventLog::CYCLE_EVENTS && !NullProbe::CYCLE_EVENTS) };
        const { assert!(<(FrameTracker, EventLog)>::CYCLE_EVENTS) };
        const { assert!(!<(FrameTracker, FrameTracker)>::CYCLE_EVENTS) };
        /// Records every event it is handed, reading no per-cycle ones.
        #[derive(Default)]
        struct Lifecycle(EventLog);
        impl Probe for Lifecycle {
            const CYCLE_EVENTS: bool = false;
            fn emit(&mut self, ev: Event) {
                self.0.emit(ev);
            }
        }
        let grant = Event::SpGrant {
            port: 0,
            bank: 1,
            addr: 4,
            write: false,
            at: Ps(1),
        };
        let reset = Event::WindowReset { at: Ps(2) };
        let mut pair = (Lifecycle::default(), EventLog::new());
        pair.emit(grant);
        pair.emit(reset);
        assert_eq!(pair.0 .0.events(), [reset]);
        assert_eq!(pair.1.events(), [grant, reset]);
    }

    /// The work class folds like the per-cycle one, but a sink asks
    /// for it: only [`EventLog`] among the crate's sinks does. An event
    /// carrying a whole op stays five words.
    #[test]
    fn work_events_reach_only_a_side_that_reads_them() {
        assert_eq!(std::mem::size_of::<Event>(), 40);
        const { assert!(EventLog::WORK_EVENTS && !NullProbe::WORK_EVENTS) };
        const { assert!(!FrameTracker::WORK_EVENTS && !Metrics::WORK_EVENTS) };
        const { assert!(!ChromeTrace::WORK_EVENTS) };
        const { assert!(<(FrameTracker, EventLog)>::WORK_EVENTS) };
        const { assert!(!<(FrameTracker, Metrics)>::WORK_EVENTS) };
        let taken = Event::OpTaken {
            core: 0,
            op: PendingOp::Mem(SpRequest {
                addr: 8,
                op: SpOp::Update { start_bit: 3 },
            }),
            at: Ps(1),
        };
        let reset = Event::WindowReset { at: Ps(2) };
        /// Records every event it is handed, reading the per-cycle
        /// class but not the work class.
        #[derive(Default)]
        struct Cycles(EventLog);
        impl Probe for Cycles {
            fn emit(&mut self, ev: Event) {
                self.0.emit(ev);
            }
        }
        const { assert!(Cycles::CYCLE_EVENTS && !Cycles::WORK_EVENTS) };
        let mut pair = (Cycles::default(), EventLog::new());
        pair.emit(taken);
        pair.emit(reset);
        assert_eq!(pair.0 .0.events(), [reset]);
        assert_eq!(pair.1.events(), [taken, reset]);
    }

    #[test]
    fn event_log_limit() {
        let mut log = EventLog::with_limit(2);
        for i in 0..5 {
            log.emit(Event::WindowReset { at: Ps(i) });
        }
        assert_eq!(log.len(), 2);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn event_at_extracts_timestamp() {
        let ev = Event::FmBurst {
            stream: FmStream::MacRx,
            write: true,
            bytes: 64,
            start: Ps(10),
            done: Ps(90),
            queued: 1,
        };
        assert_eq!(ev.at(), Ps(90));
        assert_eq!(Event::WindowReset { at: Ps(3) }.at(), Ps(3));
    }
}
