//! Firmware modes and the mode-dependent synchronization primitives.
//!
//! The paper compares two frame-ordering implementations (Tables 5, 6,
//! Figure 8): a lock-based "software-only" scheme, and the proposed
//! `set`/`update` atomic read-modify-write instructions. An "ideal" mode
//! with all parallelization overhead removed provides the Table 1
//! baseline.

use crate::map::MemMap;
use nicsim_cpu::CoreCtx;
use nicsim_host::HostLayout;

/// Which firmware build is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FwMode {
    /// Single-core, no synchronization: the idealized firmware of
    /// Table 1 ("does not include any implementation specific overheads
    /// such as parallelization overheads").
    Ideal,
    /// Frame-level parallel with lock-based status flags (the baseline of
    /// Tables 5/6).
    SoftwareOnly,
    /// Frame-level parallel using the paper's `set` and `update` atomic
    /// RMW instructions.
    RmwEnhanced,
}

impl FwMode {
    /// Whether locks are real in this mode.
    pub fn locking(self) -> bool {
        !matches!(self, FwMode::Ideal)
    }
}

/// How the dispatch loop discovers new work (the polling-vs-interrupt
/// ablation axis). Either way the same sources are scanned in the same
/// rotating order and the same handlers run, so delivered frames and
/// descriptors are identical; only the cost of *waiting* differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchMode {
    /// Figure 5 as published: an idle pass ends in a short spin and the
    /// loop re-polls every source's progress pointer.
    #[default]
    Polling,
    /// An idle pass ends in `wfi`: the core parks until a doorbell
    /// write (hardware progress pointer, status-bit array, mailbox, or
    /// the stop flag) raises its wake line, then re-scans.
    Interrupt,
}

/// Acquire the spinlock at `addr` unless the mode elides
/// synchronization, charging acquire and spin work to the current
/// function's lock bucket (Table 5's "Send Locking"/"Receive Locking"
/// rows). The sequence per attempt is address setup + test-and-set +
/// branch on the result.
pub async fn lock(ctx: &CoreCtx, mode: FwMode, addr: u32) {
    if !mode.locking() {
        return;
    }
    let prev = ctx.set_func(ctx.func().lock_bucket());
    ctx.alu(1).await; // lock address setup
    while ctx.test_and_set(addr).await != 0 {
        // Spin: branch back and retry.
        ctx.branch_miss().await;
        ctx.alu(1).await;
    }
    ctx.branch().await; // fall through: acquired
    ctx.set_func(prev);
}

/// Release the spinlock at `addr` (a single store) unless the mode
/// elides synchronization.
pub async fn unlock(ctx: &CoreCtx, mode: FwMode, addr: u32) {
    if !mode.locking() {
        return;
    }
    let prev = ctx.set_func(ctx.func().lock_bucket());
    ctx.store(addr, 0).await;
    ctx.set_func(prev);
}

/// Try to acquire the spinlock at `addr` once; returns whether the
/// caller now holds it, which a mode that elides synchronization always
/// does.
pub async fn try_lock(ctx: &CoreCtx, mode: FwMode, addr: u32) -> bool {
    if !mode.locking() {
        return true;
    }
    let prev = ctx.set_func(ctx.func().lock_bucket());
    ctx.alu(1).await;
    let old = ctx.test_and_set(addr).await;
    ctx.branch().await;
    ctx.set_func(prev);
    old == 0
}

/// Mark status bit `idx` in the array at `bits`, charging the work to
/// the ordering bucket `tag`.
///
/// * RMW mode: a single `set` instruction.
/// * Software mode: acquire the array's guard lock, compute the mask,
///   read-modify-write the word, release — the looping synchronized
///   accesses Table 5 charges to dispatch and ordering.
/// * Ideal mode: unsynchronized read-modify-write.
pub async fn mark_bit(
    ctx: &CoreCtx,
    mode: FwMode,
    bits: u32,
    idx: u32,
    guard: u32,
    tag: nicsim_cpu::FwFunc,
) {
    let prev = ctx.set_func(tag);
    match mode {
        FwMode::RmwEnhanced => {
            ctx.set_bit(bits, idx % crate::map::SLOTS).await;
        }
        FwMode::SoftwareOnly | FwMode::Ideal => {
            let i = idx % crate::map::SLOTS;
            let addr = bits + (i / 32) * 4;
            if mode == FwMode::SoftwareOnly {
                lock(ctx, mode, guard).await;
            }
            ctx.alu(3).await; // word index + mask generation
            let w = ctx.load(addr).await;
            ctx.alu(2).await; // OR + writeback setup
            ctx.store(addr, w | (1 << (i % 32))).await;
            if mode == FwMode::SoftwareOnly {
                // §3.3: the software scheme must "synchronize, check for
                // consecutive set flags, clear the flags, update pointers
                // as necessary, and then finally release synchronization"
                // on every status update — the looping accesses the RMW
                // instructions eliminate. Scan ahead for a consecutive
                // run and maintain the scan position under the lock.
                let w2 = ctx.load(addr).await;
                let mut bit = i % 32;
                let mut scanned = 0;
                while bit < 32 && w2 & (1 << bit) != 0 && scanned < 16 {
                    ctx.alu(1).await;
                    ctx.branch().await;
                    bit += 1;
                    scanned += 1;
                }
                ctx.alu(4).await; // pointer arithmetic
                ctx.branch_miss().await; // run-terminated exit
                ctx.load(guard).await; // re-check commit ptr
                ctx.alu(3).await;
                unlock(ctx, mode, guard).await;
            }
        }
    }
    ctx.set_func(prev);
}

/// Scan the status array at `bits` for the run of consecutive set bits
/// starting at `idx`, clear them, and return the run length. Examines at
/// most one aligned 32-bit word (both modes), so callers loop while the
/// run is nonzero — exactly how `update` is specified in §4.
///
/// The caller must hold the array's commit lock in software mode (the
/// commit pass is single-threaded by construction).
pub async fn commit_scan(ctx: &CoreCtx, mode: FwMode, bits: u32, idx: u32) -> u32 {
    let i = idx % crate::map::SLOTS;
    match mode {
        FwMode::RmwEnhanced => ctx.update(bits, i).await,
        FwMode::SoftwareOnly | FwMode::Ideal => {
            let addr = bits + (i / 32) * 4;
            let w = ctx.load(addr).await;
            let start = i % 32;
            let mut run = 0;
            // The software loop tests one flag per iteration.
            let mut bit = start;
            loop {
                ctx.alu(1).await;
                if bit < 32 && w & (1 << bit) != 0 {
                    ctx.branch().await;
                    run += 1;
                    bit += 1;
                } else {
                    ctx.branch_miss().await;
                    break;
                }
            }
            if run > 0 {
                let mask = if run == 32 {
                    u32::MAX
                } else {
                    ((1u32 << run) - 1) << start
                };
                ctx.alu(2).await;
                ctx.store(addr, w & !mask).await;
            }
            run
        }
    }
}

/// Claim up to `batch` work units from the gap between a progress counter
/// at `avail_addr` and a claim counter at `claim_addr`, under the lock at
/// `lock_addr`, then build the event data structure describing the
/// claimed bundle in the core's event scratch at `ev_addr`.
///
/// This is the event-structure construction of Figure 5: the claimed
/// range `[start, start+n)` is the bundle of work units the handler
/// processes, and the event record (type, range, source pointer,
/// retry count) is what a software-raised or retried event would carry.
pub async fn claim_range(
    ctx: &CoreCtx,
    mode: FwMode,
    lock_addr: u32,
    avail_addr: u32,
    claim_addr: u32,
    batch: u32,
    ev_addr: u32,
) -> (u32, u32) {
    lock(ctx, mode, lock_addr).await;
    let avail = ctx.load(avail_addr).await;
    let claim = ctx.load(claim_addr).await;
    ctx.alu(2).await;
    let n = avail.wrapping_sub(claim).min(batch);
    if n == 0 {
        ctx.branch_miss().await;
        unlock(ctx, mode, lock_addr).await;
        return (claim, 0);
    }
    ctx.branch().await;
    ctx.store(claim_addr, claim.wrapping_add(n)).await;
    unlock(ctx, mode, lock_addr).await;
    if mode.locking() {
        // Build the event structure for the claimed bundle — pure
        // parallelization machinery, absent from the idealized firmware.
        ctx.alu(5).await;
        ctx.store(ev_addr, avail_addr).await; // event source
        ctx.store(ev_addr + 4, claim).await; // range start
        ctx.store(ev_addr + 8, n).await; // range length
        ctx.store(ev_addr + 12, 0).await; // retry count
    }
    (claim, n)
}

/// Peek whether the status bit at the commit pointer is set — i.e.
/// whether an in-order commit can make progress. Used by the dispatch
/// loop to guarantee that a frame marked complete is eventually
/// committed even if no further completions arrive.
pub async fn peek_bit_pending(ctx: &CoreCtx, bits: u32, commit_addr: u32) -> bool {
    let commit = ctx.load(commit_addr).await;
    let i = commit % crate::map::SLOTS;
    ctx.alu(3).await;
    let w = ctx.load(bits + (i / 32) * 4).await;
    let pending = w & (1 << (i % 32)) != 0;
    if pending {
        ctx.branch().await;
    } else {
        ctx.branch_miss().await;
    }
    pending
}

/// Peek whether a work source has anything pending (two loads, no lock,
/// issued as one pair: neither address depends on the other).
pub async fn peek_work(ctx: &CoreCtx, avail_addr: u32, claim_addr: u32) -> bool {
    let (avail, claim) = ctx.load_pair(avail_addr, claim_addr).await;
    ctx.alu(1).await;
    let has = avail != claim;
    if has {
        ctx.branch().await;
    } else {
        ctx.branch_miss().await;
    }
    has
}

/// Everything one core's firmware runs against: the core handle, the
/// memory map, the driver's host-memory layout, and the mode.
#[derive(Debug)]
pub struct Fw {
    /// The core this instance runs on.
    pub ctx: CoreCtx,
    /// Scratchpad memory map.
    pub m: MemMap,
    /// Where the driver's rings and status words live in host memory
    /// (programmed by the driver at initialization on real hardware).
    pub host: HostLayout,
    /// Synchronization mode.
    pub mode: FwMode,
    /// How the dispatch loop waits for work.
    pub dispatch: DispatchMode,
    /// Per-core instruction-fault site: when armed, each dispatched
    /// handler may abort before running (the handler's state is rolled
    /// back by simply not running it — work stays claimed-pending) and
    /// the core pays an abort+restart penalty. `None` keeps the dispatch
    /// loop's instruction stream identical to a fault-free build.
    pub fw_faults: Option<std::rc::Rc<std::cell::RefCell<nicsim_fault::FwFaults>>>,
}
