//! The link site: bit corruption and truncation on the inbound wire.

use crate::{ErrorStats, FaultPlan, SITE_LINK};
use nicsim_sim::XorShift64;

/// What the link decided to do to one generated frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Flip one bit somewhere in the frame body.
    Corrupt,
    /// Cut the frame short of its full length.
    Truncate,
}

/// Link-site state: the per-frame draw for bit corruption and
/// truncation. The mechanism (CRC stamping, the actual mutation) lives
/// in `nicsim-net`; this is only the policy stream and its counters.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    rng: XorShift64,
    p_corrupt: f64,
    p_truncate: f64,
    /// Frames corrupted and truncated so far.
    pub stats: ErrorStats,
}

impl LinkFaults {
    /// Site state under `plan`.
    pub fn new(plan: &FaultPlan) -> LinkFaults {
        LinkFaults {
            rng: XorShift64::for_site(plan.seed, SITE_LINK),
            p_corrupt: plan.link_corrupt,
            p_truncate: plan.link_truncate,
            stats: ErrorStats::default(),
        }
    }

    /// Draw the fate of the next frame. Consumes exactly two Bernoulli
    /// draws per frame regardless of outcome, so enabling one class
    /// never shifts the other's stream.
    pub fn draw(&mut self) -> Option<LinkFault> {
        let corrupt = self.rng.chance(self.p_corrupt);
        let truncate = self.rng.chance(self.p_truncate);
        if corrupt {
            self.stats.link_corrupt_injected += 1;
            Some(LinkFault::Corrupt)
        } else if truncate {
            self.stats.link_truncate_injected += 1;
            Some(LinkFault::Truncate)
        } else {
            None
        }
    }

    /// A raw draw for picking the corruption position / truncated length.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.below(n.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_draw_counts_and_replays() {
        let plan = FaultPlan {
            link_corrupt: 0.5,
            link_truncate: 0.5,
            ..FaultPlan::default()
        };
        let mut a = LinkFaults::new(&plan);
        let mut b = LinkFaults::new(&plan);
        let fa: Vec<_> = (0..100).map(|_| a.draw()).collect();
        let fb: Vec<_> = (0..100).map(|_| b.draw()).collect();
        assert_eq!(fa, fb);
        assert!(a.stats.link_corrupt_injected > 0);
        assert!(a.stats.link_truncate_injected > 0);
    }
}
