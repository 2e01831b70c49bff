//! The DMA-engine site: errors, stalls, poison, hangs and their watchdog.

use crate::{ErrorStats, FaultPlan};
use nicsim_sim::{Ps, XorShift64};

/// The fate of one payload DMA command under the fault plan; the
/// default is a clean pass-through.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmdOutcome {
    /// Extra delay (stall + retry backoff) before the command resolves.
    pub delay: Ps,
    /// Failed attempts before resolution (each one a transient error).
    pub attempts: u32,
    /// Whether a PCI stall was injected.
    pub stalled: bool,
    /// Whether the command ultimately aborts instead of transferring.
    pub abort: bool,
}

/// DMA-engine site state: transient errors with retry/backoff/abort,
/// PCI stalls, and stuck-unit hangs, plus the engine's fault counters.
#[derive(Debug, Clone)]
pub struct DmaFaults {
    rng: XorShift64,
    plan: FaultPlan,
    /// Next scheduled hang onset (`Ps::MAX` when hangs are disabled).
    next_hang_at: Ps,
    /// The unit is currently wedged (cleared by a watchdog reset).
    hung: bool,
    /// When the unit was first observed stuck (hung with work pending).
    stuck_since: Option<Ps>,
    /// This engine's slice of the error table.
    pub stats: ErrorStats,
}

impl DmaFaults {
    /// Site state for `site` (one of [`SITE_DMA_READ`](crate::SITE_DMA_READ) /
    /// [`SITE_DMA_WRITE`](crate::SITE_DMA_WRITE), plus eight per extra
    /// engine) under `plan`, its first hang one period after `boot_at`:
    /// time zero, or the boot of a crashed NIC's replacement.
    pub fn new(plan: &FaultPlan, site: u64, boot_at: Ps) -> DmaFaults {
        let mut faults = DmaFaults {
            rng: XorShift64::for_site(plan.seed, site),
            plan: *plan,
            next_hang_at: Ps::MAX,
            hung: false,
            stuck_since: None,
            stats: ErrorStats::default(),
        };
        faults.rebase(boot_at);
        faults
    }

    /// Rebase the hang schedule onto an absolute restart time: the next
    /// hang comes one period after `at` — the boot, or a watchdog
    /// reset. Disabled hangs stay disabled.
    fn rebase(&mut self, at: Ps) {
        if self.plan.hang_period_us != 0 {
            self.next_hang_at = at + Ps::from_us(self.plan.hang_period_us);
        }
    }

    /// Decide the fate of one payload command: an optional stall, then a
    /// geometric chain of failed attempts, each backed off exponentially.
    /// The accumulated delay is served before the command executes (or
    /// aborts); counters update immediately.
    pub fn draw_command(&mut self) -> CmdOutcome {
        let stalled = self.rng.chance(self.plan.dma_stall);
        let mut delay = if stalled {
            self.stats.pci_stalls += 1;
            let stall = Ps::from_ns(self.plan.stall_ns);
            if self.plan.stall_alpha > 0.0 {
                // Bounded-Pareto tail: the draw happens only when a
                // stall fired AND the shape is nonzero, so legacy plans
                // (alpha = 0) replay their exact streams.
                let mult = self
                    .rng
                    .unit_open()
                    .powf(-1.0 / self.plan.stall_alpha)
                    .min(100.0);
                Ps((stall.0 as f64 * mult) as u64)
            } else {
                stall
            }
        } else {
            Ps::ZERO
        };
        let mut attempts = 0u32;
        while attempts <= self.plan.max_retries && self.rng.chance(self.plan.dma_error) {
            delay += Ps(Ps::from_ns(self.plan.backoff_ns).0 << attempts.min(16));
            attempts += 1;
        }
        let abort = attempts > self.plan.max_retries;
        self.stats.dma_transient_errors += attempts as u64;
        if abort {
            self.stats.dma_aborts += 1;
        } else if attempts > 0 {
            self.stats.dma_retries_ok += 1;
        }
        CmdOutcome {
            delay,
            attempts,
            stalled,
            abort,
        }
    }

    /// Whether any fault class is live at this site (used to skip the
    /// draw entirely for control-plane commands).
    pub fn commands_faulty(&self) -> bool {
        self.plan.dma_error > 0.0 || self.plan.dma_stall > 0.0
    }

    /// Advance the hang schedule: returns `true` while the unit is
    /// wedged. Onset is a pure function of simulated time, so dense and
    /// event-driven kernels agree regardless of cycle skipping.
    pub fn hang_active(&mut self, now: Ps) -> bool {
        self.hung |= now >= self.next_hang_at;
        self.hung
    }

    /// Record a stuck observation (hung with work pending) at `now`;
    /// returns `true` when the watchdog deadline has expired and the
    /// unit must be reset. The first stuck observation counts the hang.
    pub fn observe_stuck(&mut self, now: Ps) -> bool {
        match self.stuck_since {
            None => {
                self.stuck_since = Some(now);
                self.stats.assist_hangs += 1;
                false
            }
            Some(since) => now >= since + Ps::from_us(self.plan.watchdog_us.max(1)),
        }
    }

    /// Watchdog reset: clear the wedge, reschedule the next hang, count
    /// the recovery.
    pub fn watchdog_reset(&mut self, now: Ps) {
        self.hung = false;
        self.stuck_since = None;
        self.stats.watchdog_resets += 1;
        self.rebase(now);
    }

    /// Draw the fate of one DMA-write payload landing in host memory:
    /// `Some(offset)` poisons the byte at `offset` of the buffer. Draws
    /// only when host poisoning is enabled, so plans without it replay
    /// their exact command streams.
    pub fn draw_poison(&mut self, len: usize) -> Option<usize> {
        let p = self.plan.host_poison;
        if p <= 0.0 || len == 0 || !self.rng.chance(p) {
            return None;
        }
        self.stats.host_poison_injected += 1;
        Some(self.rng.below(len as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SITE_DMA_READ, SITE_DMA_WRITE};

    #[test]
    fn dma_outcomes_cover_retry_and_abort() {
        let plan = FaultPlan {
            dma_error: 0.9,
            dma_stall: 0.2,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ, Ps::ZERO);
        let outcomes: Vec<_> = (0..200).map(|_| d.draw_command()).collect();
        assert!(outcomes.iter().any(|o| o.abort));
        assert!(outcomes.iter().any(|o| o.attempts > 0 && !o.abort));
        assert!(outcomes.iter().any(|o| o.stalled));
        assert_eq!(
            d.stats.dma_transient_errors,
            outcomes.iter().map(|o| o.attempts as u64).sum::<u64>()
        );
        assert!(d.stats.dma_aborts > 0 && d.stats.dma_retries_ok > 0 && d.stats.pci_stalls > 0);
        // Abort only after exhausting max_retries attempts.
        for o in &outcomes {
            if o.abort {
                assert_eq!(o.attempts, plan.max_retries + 1);
            }
        }
    }

    #[test]
    fn hang_onset_is_time_pure_and_watchdog_resets() {
        let plan = FaultPlan {
            hang_period_us: 10,
            watchdog_us: 5,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_WRITE, Ps::ZERO);
        assert!(!d.hang_active(Ps::from_us(9)));
        assert!(d.hang_active(Ps::from_us(10)));
        // Skipping straight past the onset gives the same answer.
        let mut e = DmaFaults::new(&plan, SITE_DMA_WRITE, Ps::ZERO);
        assert!(e.hang_active(Ps::from_us(25)));
        // Stuck observations arm the watchdog after the timeout.
        assert!(!d.observe_stuck(Ps::from_us(10)));
        assert!(!d.observe_stuck(Ps::from_us(12)));
        assert!(d.observe_stuck(Ps::from_us(15)));
        d.watchdog_reset(Ps::from_us(15));
        assert!(!d.hung);
        assert_eq!(d.stats.watchdog_resets, 1);
        assert_eq!(d.stats.assist_hangs, 1);
        // The next hang is rescheduled relative to the reset.
        assert!(!d.hang_active(Ps::from_us(24)));
        assert!(d.hang_active(Ps::from_us(25)));
    }

    #[test]
    fn pareto_stalls_are_bounded_and_exceed_the_base() {
        let plan = FaultPlan {
            dma_stall: 1.0,
            stall_ns: 200,
            stall_alpha: 1.2,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ, Ps::ZERO);
        let base = Ps(200 * 1000);
        let cap = Ps(base.0 * 100);
        let mut saw_tail = false;
        for _ in 0..500 {
            let o = d.draw_command();
            assert!(o.stalled);
            assert!(o.delay >= base && o.delay <= cap, "{:?}", o.delay);
            if o.delay > Ps(base.0 * 2) {
                saw_tail = true;
            }
        }
        assert!(saw_tail, "alpha=1.2 should produce a heavy tail");
        // alpha = 0 keeps the legacy fixed stall.
        let mut fixed = DmaFaults::new(
            &FaultPlan {
                dma_stall: 1.0,
                stall_ns: 200,
                ..FaultPlan::default()
            },
            SITE_DMA_READ,
            Ps::ZERO,
        );
        assert_eq!(fixed.draw_command().delay, base);
    }

    #[test]
    fn poison_draws_only_when_enabled() {
        let mut off = DmaFaults::new(&FaultPlan::default(), SITE_DMA_WRITE, Ps::ZERO);
        let before = off.rng;
        assert_eq!(off.draw_poison(1500), None);
        assert_eq!(off.rng, before, "disabled poison must not consume draws");
        let mut on = DmaFaults::new(
            &FaultPlan {
                host_poison: 1.0,
                ..FaultPlan::default()
            },
            SITE_DMA_WRITE,
            Ps::ZERO,
        );
        let hit = on.draw_poison(1500).unwrap();
        assert!(hit < 1500);
        assert_eq!(on.stats.host_poison_injected, 1);
        assert_eq!(on.draw_poison(0), None);
    }

    #[test]
    fn rebase_shifts_the_hang_schedule() {
        let plan = FaultPlan {
            hang_period_us: 10,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_WRITE, Ps::from_us(100));
        assert!(!d.hang_active(Ps::from_us(109)));
        assert!(d.hang_active(Ps::from_us(110)));
        // Hangs disabled: a late boot keeps them disabled.
        let mut off = DmaFaults::new(&FaultPlan::default(), SITE_DMA_WRITE, Ps::from_us(100));
        assert!(!off.hang_active(Ps::from_us(1_000_000)));
    }
}
