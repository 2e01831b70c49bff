//! The fabric site (fleet runs): link corruption, flaps, port squeezes.

use crate::{FaultPlan, SITE_FABRIC_FLAP_BASE, SITE_FABRIC_LINK_BASE, SITE_FABRIC_SQUEEZE};
use nicsim_sim::{Ps, XorShift64};

/// Fabric-site state for a fleet: per-source-link corruption streams,
/// time-pure link flap windows, and a fabric-wide port-buffer squeeze
/// stream. The mechanism (FCS stamping, the bit flip, the drop and its
/// digest fold) lives in `nicsim-net::Fabric`; this is only the policy.
///
/// Determinism: every decision is either a pure function of simulated
/// time (flaps) or a draw on a stream indexed by the *source* NIC of the
/// offered frame — and the fleet's epoch engine offers frames to the
/// fabric in a sorted, shard-invariant order, so the streams advance
/// identically for every shard count and dispatch mode.
#[derive(Debug, Clone)]
pub struct FabricFaults {
    links: Vec<XorShift64>,
    /// Each link's seeded offset into the flap period (unused while
    /// flaps are off).
    flap_phase: Vec<Ps>,
    squeeze_rng: XorShift64,
    plan: FaultPlan,
}

impl FabricFaults {
    /// Site state for a fabric with `n_links` source links under `plan`
    /// (the *fleet* plan seed, not a per-NIC derived one).
    pub fn new(plan: &FaultPlan, n_links: usize) -> FabricFaults {
        let site = |base: u64, i: usize| XorShift64::for_site(plan.seed, base + i as u64);
        let period = Ps::from_us(plan.flap_period_us.max(1));
        FabricFaults {
            links: (0..n_links)
                .map(|i| site(SITE_FABRIC_LINK_BASE, i))
                .collect(),
            flap_phase: (0..n_links)
                .map(|i| Ps(site(SITE_FABRIC_FLAP_BASE, i).below(period.0)))
                .collect(),
            squeeze_rng: XorShift64::for_site(plan.seed, SITE_FABRIC_SQUEEZE),
            plan: *plan,
        }
    }

    /// Whether source link `src` is flapped down at time `t` — a pure
    /// function of simulated time (each link's phase was seeded at
    /// construction), so cycle skipping and sharding cannot shift it.
    pub fn link_down(&self, src: usize, t: Ps) -> bool {
        if self.plan.flap_period_us == 0 {
            return false;
        }
        let period = Ps::from_us(self.plan.flap_period_us).0;
        let pos = (t.0 + self.flap_phase[src].0) % period;
        pos < Ps::from_us(self.plan.flap_down_us).0.min(period)
    }

    /// Draw the fate of one frame offered by `src`: `Some(bit)` flips
    /// that bit of the frame body. One Bernoulli draw per offer (plus a
    /// position draw on a hit), on the per-source link stream.
    pub fn draw_corrupt(&mut self, src: usize, body_bits: u64) -> Option<u64> {
        if self.links[src].chance(self.plan.fabric_corrupt) {
            Some(self.links[src].below(body_bits.max(1)))
        } else {
            None
        }
    }

    /// Draw one admission at the destination port: `true` squeezes the
    /// effective buffer capacity for this frame.
    pub fn draw_squeeze(&mut self) -> bool {
        self.squeeze_rng.chance(self.plan.squeeze)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_faults_flap_windows_are_time_pure() {
        let plan = FaultPlan {
            flap_period_us: 100,
            flap_down_us: 10,
            ..FaultPlan::default()
        };
        let f = FabricFaults::new(&plan, 4);
        // Sample two full periods: each link must be down for exactly
        // flap_down out of every flap_period microseconds, and repeated
        // queries at the same time must agree (pure function of time).
        for src in 0..4 {
            let down = (0..200)
                .filter(|us| f.link_down(src, Ps::from_us(*us)))
                .count();
            assert_eq!(down, 20, "link {src}");
            assert_eq!(
                f.link_down(src, Ps::from_us(42)),
                f.link_down(src, Ps::from_us(42))
            );
        }
        // Phases differ across links.
        let first_down = |src: usize| (0..200).find(|us| f.link_down(src, Ps::from_us(*us)));
        assert_ne!(first_down(0), first_down(1));
    }

    #[test]
    fn fabric_corrupt_and_squeeze_draws_replay() {
        let plan = FaultPlan {
            fabric_corrupt: 0.5,
            squeeze: 0.5,
            ..FaultPlan::default()
        };
        let mut a = FabricFaults::new(&plan, 2);
        let mut b = FabricFaults::new(&plan, 2);
        let da: Vec<_> = (0..50)
            .map(|i| (a.draw_corrupt(i % 2, 8000), a.draw_squeeze()))
            .collect();
        let db: Vec<_> = (0..50)
            .map(|i| (b.draw_corrupt(i % 2, 8000), b.draw_squeeze()))
            .collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|(c, _)| c.is_some()));
        assert!(da.iter().any(|(_, s)| *s));
        assert!(da.iter().all(|(c, _)| c.is_none_or(|bit| bit < 8000)));
    }
}
