//! Code layout of the firmware in the 128 KB instruction memory.
//!
//! The timing model needs instruction *addresses* to drive the per-core
//! I-caches. Each firmware function is assigned a contiguous region of
//! the instruction memory; as a handler executes, its fetch pointer walks
//! the region (wrapping at the end, which models the handler's internal
//! loops re-executing the same lines). Region sizes are taken from the
//! static footprint of the Tigon-II-derived handlers: a few hundred
//! instructions each, comfortably inside the 128 KB instruction memory
//! but collectively larger than nothing — so cold misses and task
//! migration across cores behave as in the paper (Table 3's 0.01 IPC of
//! I-miss stalls; Table 4's ~3 % instruction-bus utilization).

use crate::func::FwFunc;

/// Static instruction footprint of each firmware function, in
/// instructions (4 bytes each).
#[derive(Debug, Clone)]
pub struct CodeLayout {
    /// `(base_byte_address, length_in_instructions)` per function.
    regions: [(u64, u32); 9],
}

impl CodeLayout {
    /// The default layout: handler footprints in instructions.
    pub fn new() -> CodeLayout {
        // Footprints chosen to mirror the relative sizes of the
        // Tigon-II-derived handlers; total ≈ 3.4 K instructions ≈ 13.6 KB
        // of the 128 KB instruction memory.
        let sizes: [(FwFunc, u32); 9] = [
            (FwFunc::FetchSendBd, 320),
            (FwFunc::SendFrame, 760),
            (FwFunc::SendDispatch, 440),
            (FwFunc::SendLock, 48),
            (FwFunc::FetchRecvBd, 280),
            (FwFunc::RecvFrame, 700),
            (FwFunc::RecvDispatch, 420),
            (FwFunc::RecvLock, 48),
            (FwFunc::Idle, 96),
        ];
        let mut regions = [(0u64, 0u32); 9];
        let mut base = 0u64;
        for (f, len) in sizes {
            regions[f.index()] = (base, len);
            base += len as u64 * 4;
        }
        CodeLayout { regions }
    }

    /// The `(base_byte_address, length_in_instructions)` of a function.
    #[inline]
    pub fn region(&self, f: FwFunc) -> (u64, u32) {
        self.regions[f.index()]
    }

    /// Total footprint in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|&(_, len)| len as u64 * 4).sum()
    }
}

impl Default for CodeLayout {
    fn default() -> Self {
        CodeLayout::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        let l = CodeLayout::new();
        let mut regions: Vec<_> = FwFunc::ALL.iter().map(|&f| l.region(f)).collect();
        regions.sort();
        for w in regions.windows(2) {
            let (base0, len0) = w[0];
            let (base1, _) = w[1];
            assert!(base0 + len0 as u64 * 4 <= base1, "overlap: {w:?}");
        }
    }

    #[test]
    fn footprint_fits_instruction_memory() {
        let l = CodeLayout::new();
        assert!(l.total_bytes() <= 128 * 1024);
        // ... but exceeds one 8 KB I-cache, so task migration matters.
        assert!(l.total_bytes() > 8 * 1024);
    }
}
