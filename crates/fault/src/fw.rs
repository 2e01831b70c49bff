//! The firmware site: instruction faults at handler dispatch, per core.

use crate::{ErrorStats, FaultPlan, SITE_FW_BASE};
use nicsim_sim::XorShift64;

/// Per-core firmware-site state: seeded instruction faults at handler
/// dispatch. The mechanism (aborting the handler, charging the restart
/// penalty) lives in `nicsim-firmware`; this is only the stream.
#[derive(Debug, Clone)]
pub struct FwFaults {
    rng: XorShift64,
    p: f64,
    /// Instruction faults injected on this core.
    pub stats: ErrorStats,
}

impl FwFaults {
    /// Site state for `core_id` under `plan`.
    pub fn new(plan: &FaultPlan, core_id: usize) -> FwFaults {
        FwFaults {
            rng: XorShift64::for_site(plan.seed, SITE_FW_BASE + core_id as u64),
            p: plan.fw_fault,
            stats: ErrorStats::default(),
        }
    }

    /// Draw one handler dispatch: `true` aborts the handler before it
    /// runs and the core restarts its scan. Draws only when the class is
    /// enabled.
    pub fn fires(&mut self) -> bool {
        let hit = self.p > 0.0 && self.rng.chance(self.p);
        self.stats.fw_instr_faults += u64::from(hit);
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fw_faults_fire_and_count() {
        let mut f = FwFaults::new(
            &FaultPlan {
                fw_fault: 1.0,
                ..FaultPlan::default()
            },
            3,
        );
        assert!(f.fires());
        assert_eq!(f.stats.fw_instr_faults, 1);
        let mut off = FwFaults::new(&FaultPlan::default(), 3);
        assert!(!off.fires());
        assert_eq!(off.stats.fw_instr_faults, 0);
    }
}
