//! Next-event scheduling for the hybrid event-driven kernel.
//!
//! The main loop is still clocked in whole CPU cycles (the cores and the
//! crossbar are cycle-accurate state machines), but most components are
//! idle for long stretches: a core charging a multi-cycle stall, an
//! assist waiting for a frame-memory burst, the SDRAM controller waiting
//! for a completion, the host driver between polling intervals. Each
//! such component reports the earliest instant at which it can next
//! change architectural state — either as a timestamp (a `next_event`
//! method on the frame memory and the two MACs) or as a cycle count —
//! and a [`WakeTracker`] folds them into the number of cycles the clock
//! may jump without simulating anything.
//!
//! The contract that keeps results bit-identical: a component's reported
//! wakeup must be a *lower bound* on its next state change. Reporting
//! too early only costs a no-op cycle; reporting too late would skip
//! real work and is a correctness bug (guarded by the dense-vs-event
//! equivalence tests in `nicsim`). A `next_event` returns [`Ps::MAX`]
//! for "never" (nothing pending) and any time at or before the current
//! instant for "I have work right now".

use crate::time::Ps;

/// Folds component wakeups into "how many whole CPU cycles may the
/// clock jump".
///
/// The tracker starts at "never" and takes the minimum over
/// cycle-denominated wakeups ([`WakeTracker::at_most`]) and
/// time-denominated events ([`WakeTracker::at_time`]); the result of
/// [`WakeTracker::wake_in`] is always at least 1 — the next cycle is
/// always simulated for real, a skip of `n` only elides the `n`
/// provably-idle cycles before it.
#[derive(Debug, Clone, Copy)]
pub struct WakeTracker {
    now: Ps,
    period: Ps,
    cycles: u64,
}

impl WakeTracker {
    /// Start a wake computation at time `now` on a clock of the given
    /// `period`.
    pub fn new(now: Ps, period: Ps) -> WakeTracker {
        debug_assert!(period.0 > 0, "clock period must be nonzero");
        WakeTracker {
            now,
            period,
            cycles: u64::MAX,
        }
    }

    /// Bound the wakeup to at most `cycles` cycles from now.
    pub fn at_most(&mut self, cycles: u64) {
        self.cycles = self.cycles.min(cycles.max(1));
    }

    /// Bound the wakeup by an absolute event time: the clock may not
    /// jump past the first cycle whose timestamp reaches `t`.
    /// [`Ps::MAX`] means "never" and leaves the bound unchanged.
    pub fn at_time(&mut self, t: Ps) {
        if t == Ps::MAX {
            return;
        }
        let c = if t <= self.now {
            1
        } else {
            (t.0 - self.now.0).div_ceil(self.period.0)
        };
        self.cycles = self.cycles.min(c);
    }

    /// Whether the bound has already collapsed to "next cycle" (callers
    /// can stop folding early).
    pub fn is_immediate(&self) -> bool {
        self.cycles <= 1
    }

    /// Cycles until the next cycle that must be simulated (>= 1).
    pub fn wake_in(&self) -> u64 {
        self.cycles.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_never_and_takes_minima() {
        let mut w = WakeTracker::new(Ps(10_000), Ps(2_000));
        assert_eq!(w.wake_in(), u64::MAX);
        w.at_most(40);
        assert_eq!(w.wake_in(), 40);
        w.at_most(7);
        w.at_most(100);
        assert_eq!(w.wake_in(), 7);
        assert!(!w.is_immediate());
    }

    #[test]
    fn time_bounds_convert_to_ceil_cycles() {
        // now = 10ns, period = 2ns.
        let mut w = WakeTracker::new(Ps(10_000), Ps(2_000));
        w.at_time(Ps(16_000)); // exactly 3 periods out
        assert_eq!(w.wake_in(), 3);
        let mut w = WakeTracker::new(Ps(10_000), Ps(2_000));
        w.at_time(Ps(16_001)); // just past: needs a 4th cycle
        assert_eq!(w.wake_in(), 4);
    }

    #[test]
    fn due_and_past_events_are_immediate() {
        let mut w = WakeTracker::new(Ps(10_000), Ps(2_000));
        w.at_time(Ps(10_000));
        assert_eq!(w.wake_in(), 1);
        assert!(w.is_immediate());
        let mut w = WakeTracker::new(Ps(10_000), Ps(2_000));
        w.at_time(Ps(3));
        assert_eq!(w.wake_in(), 1);
    }

    #[test]
    fn never_leaves_bound_unchanged() {
        let mut w = WakeTracker::new(Ps::ZERO, Ps(5_000));
        w.at_time(Ps::MAX);
        assert_eq!(w.wake_in(), u64::MAX);
        w.at_most(12);
        w.at_time(Ps::MAX);
        assert_eq!(w.wake_in(), 12);
    }

    #[test]
    fn wake_is_at_least_one() {
        let mut w = WakeTracker::new(Ps::ZERO, Ps(5_000));
        w.at_most(0);
        assert_eq!(w.wake_in(), 1);
    }
}
