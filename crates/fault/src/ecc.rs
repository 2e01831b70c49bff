//! The frame-memory site: correctable single-bit ECC events.

use crate::{ErrorStats, FaultPlan, SITE_ECC};
use nicsim_sim::{Ps, XorShift64};

/// Frame-memory site state: correctable single-bit ECC events on read
/// bursts, each costing a fixed correction latency.
#[derive(Debug, Clone)]
pub struct EccFaults {
    rng: XorShift64,
    p: f64,
    /// Extra service latency charged per corrected burst.
    pub extra: Ps,
    /// Corrections so far.
    pub stats: ErrorStats,
}

impl EccFaults {
    /// Site state under `plan`. The correction penalty is fixed at 8 ns
    /// (a resync + scrub write at GDDR timescales).
    pub fn new(plan: &FaultPlan) -> EccFaults {
        EccFaults {
            rng: XorShift64::for_site(plan.seed, SITE_ECC),
            p: plan.ecc,
            extra: Ps(8_000),
            stats: ErrorStats::default(),
        }
    }

    /// Draw one read burst: `true` when a single-bit error was injected
    /// (and corrected).
    pub fn draw(&mut self) -> bool {
        let hit = self.rng.chance(self.p);
        self.stats.ecc_corrections += u64::from(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecc_draws_count() {
        let plan = FaultPlan {
            ecc: 1.0,
            ..FaultPlan::default()
        };
        let mut e = EccFaults::new(&plan);
        assert!(e.draw());
        assert_eq!(e.stats.ecc_corrections, 1);
    }
}
