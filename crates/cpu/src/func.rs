//! Firmware function tags and per-function profiling.
//!
//! The paper's execution profiles (Tables 1, 5, 6) break NIC processing
//! into the four task functions plus, for the parallel firmwares, the
//! dispatch/ordering machinery and lock overhead of each direction. Every
//! cycle, instruction, and memory access a core spends is attributed to
//! the tag active at the time.

/// The profiling buckets of Tables 5 and 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FwFunc {
    /// Fetch send buffer descriptors from host memory (32 per DMA).
    FetchSendBd,
    /// Move a frame to the transmit buffer and hand it to the MAC
    /// (steps 4–6 of Figure 1).
    SendFrame,
    /// Send-side event detection, event-structure construction, and
    /// in-order commit ("Send Dispatch and Ordering").
    SendDispatch,
    /// Send-side lock acquire/release and spin time ("Send Locking").
    SendLock,
    /// Fetch receive buffer descriptors from host memory (16 per DMA).
    FetchRecvBd,
    /// Move a received frame to a preallocated host buffer and produce its
    /// completion descriptor (steps 1–4 of Figure 2).
    RecvFrame,
    /// Receive-side dispatch and ordering.
    RecvDispatch,
    /// Receive-side locking.
    RecvLock,
    /// Polling with no work available.
    #[default]
    Idle,
}

impl FwFunc {
    /// All tags, in table order.
    pub const ALL: [FwFunc; 9] = [
        FwFunc::FetchSendBd,
        FwFunc::SendFrame,
        FwFunc::SendDispatch,
        FwFunc::SendLock,
        FwFunc::FetchRecvBd,
        FwFunc::RecvFrame,
        FwFunc::RecvDispatch,
        FwFunc::RecvLock,
        FwFunc::Idle,
    ];

    /// Dense index: the position in [`FwFunc::ALL`], which lists the
    /// tags in declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The lock bucket charged while acquiring/releasing locks inside
    /// this function.
    pub fn lock_bucket(self) -> FwFunc {
        match self {
            FwFunc::FetchSendBd | FwFunc::SendFrame | FwFunc::SendDispatch | FwFunc::SendLock => {
                FwFunc::SendLock
            }
            FwFunc::FetchRecvBd | FwFunc::RecvFrame | FwFunc::RecvDispatch | FwFunc::RecvLock => {
                FwFunc::RecvLock
            }
            FwFunc::Idle => FwFunc::Idle,
        }
    }

    /// Whether this is one of the four send-side buckets, whose
    /// per-frame figures divide by transmitted frames (the rest divide
    /// by received ones).
    pub fn is_send(self) -> bool {
        self.lock_bucket() == FwFunc::SendLock
    }

    /// Row label as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            FwFunc::FetchSendBd => "Fetch Send BD",
            FwFunc::SendFrame => "Send Frame",
            FwFunc::SendDispatch => "Send Dispatch and Ordering",
            FwFunc::SendLock => "Send Locking",
            FwFunc::FetchRecvBd => "Fetch Receive BD",
            FwFunc::RecvFrame => "Receive Frame",
            FwFunc::RecvDispatch => "Receive Dispatch and Ordering",
            FwFunc::RecvLock => "Receive Locking",
            FwFunc::Idle => "Idle",
        }
    }
}

/// Where a core cycle went — the rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallBucket {
    /// An instruction issued (useful work).
    Exec,
    /// Stalled on an instruction-cache miss.
    IMiss,
    /// The mandatory extra cycle of every 2-cycle scratchpad load.
    LoadStall,
    /// Extra cycles lost to scratchpad bank conflicts or a busy store
    /// buffer.
    Conflict,
    /// Pipeline hazards: issue slots annulled by statically mispredicted
    /// branches and late branch conditions.
    Pipeline,
}

impl StallBucket {
    /// All buckets in Table 3 order.
    pub const ALL: [StallBucket; 5] = [
        StallBucket::Exec,
        StallBucket::IMiss,
        StallBucket::LoadStall,
        StallBucket::Conflict,
        StallBucket::Pipeline,
    ];

    /// Dense index: the position in [`StallBucket::ALL`], which lists
    /// the buckets in declaration order.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Row label as printed in Table 3.
    pub fn label(self) -> &'static str {
        match self {
            StallBucket::Exec => "Execution",
            StallBucket::IMiss => "Instruction miss stalls",
            StallBucket::LoadStall => "Load stalls",
            StallBucket::Conflict => "Scratchpad conflict stalls",
            StallBucket::Pipeline => "Pipeline Stalls",
        }
    }
}

/// Counters for one firmware function on one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncProfile {
    /// Instructions issued.
    pub instructions: u64,
    /// Scratchpad accesses performed (loads + stores + RMW ops).
    pub mem_accesses: u64,
    /// Cycles by [`StallBucket`] (index with [`StallBucket::index`]).
    pub cycles: [u64; 5],
}

impl FuncProfile {
    /// Total cycles across all buckets.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.iter().sum()
    }
}

/// The complete profile of one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreProfile {
    per_func: [FuncProfile; 9],
}

impl CoreProfile {
    /// Create a zeroed profile.
    pub fn new() -> CoreProfile {
        CoreProfile::default()
    }

    /// Profile of one function.
    pub fn func(&self, f: FwFunc) -> &FuncProfile {
        &self.per_func[f.index()]
    }

    /// Mutable profile of one function.
    #[inline]
    pub fn func_mut(&mut self, f: FwFunc) -> &mut FuncProfile {
        &mut self.per_func[f.index()]
    }

    /// Sum a quantity over all functions.
    pub fn total<T: Fn(&FuncProfile) -> u64>(&self, get: T) -> u64 {
        self.per_func.iter().map(get).sum()
    }

    /// Total cycles in `bucket` across all functions.
    pub fn bucket_cycles(&self, bucket: StallBucket) -> u64 {
        self.per_func.iter().map(|p| p.cycles[bucket.index()]).sum()
    }

    /// Merge another profile into this one (for multi-core aggregation).
    pub fn merge(&mut self, other: &CoreProfile) {
        for (a, b) in self.per_func.iter_mut().zip(other.per_func.iter()) {
            a.instructions += b.instructions;
            a.mem_accesses += b.mem_accesses;
            for (c, d) in a.cycles.iter_mut().zip(b.cycles.iter()) {
                *c += *d;
            }
        }
    }

    /// Zero all counters.
    pub fn reset(&mut self) {
        self.per_func = Default::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        for (i, f) in FwFunc::ALL.iter().enumerate() {
            assert_eq!(f.index(), i);
        }
        for (i, b) in StallBucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn lock_buckets_follow_direction() {
        assert_eq!(FwFunc::SendFrame.lock_bucket(), FwFunc::SendLock);
        assert_eq!(FwFunc::FetchSendBd.lock_bucket(), FwFunc::SendLock);
        assert_eq!(FwFunc::RecvDispatch.lock_bucket(), FwFunc::RecvLock);
        assert_eq!(FwFunc::Idle.lock_bucket(), FwFunc::Idle);
    }

    #[test]
    fn profile_accumulates_and_merges() {
        let mut a = CoreProfile::new();
        a.func_mut(FwFunc::SendFrame).instructions = 10;
        a.func_mut(FwFunc::SendFrame).cycles[StallBucket::Exec.index()] = 12;
        let mut b = CoreProfile::new();
        b.func_mut(FwFunc::SendFrame).instructions = 5;
        b.func_mut(FwFunc::RecvFrame).mem_accesses = 3;
        a.merge(&b);
        assert_eq!(a.func(FwFunc::SendFrame).instructions, 15);
        assert_eq!(a.func(FwFunc::RecvFrame).mem_accesses, 3);
        assert_eq!(a.total(|p| p.instructions), 15);
        assert_eq!(a.bucket_cycles(StallBucket::Exec), 12);
        a.reset();
        assert_eq!(a.total(|p| p.instructions), 0);
    }

    #[test]
    fn labels_match_paper_rows() {
        assert_eq!(FwFunc::FetchSendBd.label(), "Fetch Send BD");
        assert_eq!(StallBucket::Conflict.label(), "Scratchpad conflict stalls");
    }
}
