//! The firmware programming interface.
//!
//! [`CoreCtx`] is what NIC firmware is written against: a handle to one
//! core that exposes the machine's operations as `async` methods. Every
//! call costs what the real instruction sequence would cost — `alu(n)`
//! issues `n` single-cycle instructions, `load` performs a real 2-cycle
//! (plus conflicts) scratchpad transaction, `set_bit`/`update` are the
//! paper's single-instruction atomic RMWs, and `lock`/`unlock` build a
//! test-and-set spinlock whose acquire/spin cost is charged to the
//! direction's locking bucket (Table 5's "Send Locking"/"Receive
//! Locking" rows).

use crate::func::FwFunc;
use crate::slot::{CoreSlot, PendingOp, SharedSlot, RUN_AHEAD};
use nicsim_mem::{SpOp, SpRequest};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Handle through which firmware executes on a simulated core.
#[derive(Clone)]
pub struct CoreCtx {
    slot: SharedSlot,
    core_id: usize,
}

/// Future for one machine operation: queues the op under the current
/// profiling tag (suspending first while the queue is full), then
/// completes at once unless the firmware waits for a result
/// ([`PendingOp::has_result`]), which a later poll resolves it with.
pub struct Op<'a> {
    slot: &'a RefCell<CoreSlot>,
    op: Option<PendingOp>,
}

impl Future for Op<'_> {
    type Output = u32;

    #[inline]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u32> {
        let slot: &RefCell<CoreSlot> = self.slot;
        let mut slot = slot.borrow_mut();
        if let Some(op) = self.op {
            if slot.queue.len() == RUN_AHEAD {
                return Poll::Pending;
            }
            let func = slot.func;
            slot.queue.push_back((op, func));
            self.op = None;
            return if op.has_result() {
                Poll::Pending
            } else {
                Poll::Ready(0)
            };
        }
        match slot.response.take() {
            Some(v) => Poll::Ready(v),
            // The engine only polls when the response is ready, but a
            // future may be polled spuriously by combinators; stay pending.
            None => Poll::Pending,
        }
    }
}

impl CoreCtx {
    /// Create a context bound to `slot` for core `core_id`.
    pub fn new(slot: SharedSlot, core_id: usize) -> CoreCtx {
        CoreCtx { slot, core_id }
    }

    /// The core this context executes on.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    #[inline]
    fn issue(&self, op: PendingOp) -> Op<'_> {
        Op {
            slot: &self.slot,
            op: Some(op),
        }
    }

    #[inline]
    fn mem(&self, addr: u32, op: SpOp) -> Op<'_> {
        self.issue(PendingOp::Mem(SpRequest { addr, op }))
    }

    /// Suspend until the engine has charged every operation issued so
    /// far. Firmware calls this before touching host state that anyone
    /// else reads, so the touch lands on the cycle the engine gets there.
    pub async fn sync(&self) {
        std::future::poll_fn(|_| {
            if self.slot.borrow().queue.is_empty() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
        .await
    }

    /// Switch the profiling tag; subsequent work is attributed to `f`.
    /// Returns the previous tag so handlers can restore it.
    pub fn set_func(&self, f: FwFunc) -> FwFunc {
        std::mem::replace(&mut self.slot.borrow_mut().func, f)
    }

    /// The current profiling tag.
    pub fn func(&self) -> FwFunc {
        self.slot.borrow().func
    }

    /// Execute `n` ALU/control instructions. `alu(0)` is free.
    pub async fn alu(&self, n: u32) {
        if n == 0 {
            return;
        }
        self.issue(PendingOp::Alu(n)).await;
    }

    /// Execute a correctly-predicted branch (1 cycle).
    pub async fn branch(&self) {
        self.issue(PendingOp::Branch { mispredict: false }).await;
    }

    /// Execute a statically mispredicted branch (1 cycle + 1 annulled
    /// issue slot).
    pub async fn branch_miss(&self) {
        self.issue(PendingOp::Branch { mispredict: true }).await;
    }

    /// Wait for interrupt: issue one instruction, then park the core
    /// until its wake line is raised by a doorbell (interrupt dispatch
    /// mode only — polling firmware never calls this).
    pub async fn wfi(&self) {
        self.issue(PendingOp::Wfi).await;
    }

    /// Load a 32-bit word from scratchpad byte address `addr`.
    pub async fn load(&self, addr: u32) -> u32 {
        self.mem(addr, SpOp::Read).await
    }

    /// Store `val` to scratchpad byte address `addr` (buffered; does not
    /// stall unless the store buffer is busy).
    pub async fn store(&self, addr: u32, val: u32) {
        self.mem(addr, SpOp::Write(val)).await;
    }

    /// Atomic test-and-set on `addr`; returns the old value (0 means the
    /// caller acquired the location).
    pub async fn test_and_set(&self, addr: u32) -> u32 {
        self.mem(addr, SpOp::TestAndSet).await
    }

    /// The paper's `set` instruction: atomically set bit `bit_index` of
    /// the bit array at `base` (byte address). A single instruction, a
    /// single scratchpad transaction.
    pub async fn set_bit(&self, base: u32, bit_index: u32) {
        let addr = base + (bit_index / 32) * 4;
        self.mem(addr, SpOp::SetBit((bit_index % 32) as u8)).await;
    }

    /// The paper's `update` instruction: examine the aligned 32-bit word
    /// of the bit array at `base` containing `bit_index`, atomically clear
    /// the run of consecutive set bits starting there, and return the run
    /// length (0 if the starting bit was clear). At most one word is
    /// examined per invocation, as in the paper.
    pub async fn update(&self, base: u32, bit_index: u32) -> u32 {
        let addr = base + (bit_index / 32) * 4;
        let start_bit = (bit_index % 32) as u8;
        self.mem(addr, SpOp::Update { start_bit }).await
    }

    /// Acquire the spinlock at `addr`, charging acquire and spin work to
    /// the current function's lock bucket. The sequence per attempt is
    /// address setup + test-and-set + branch on the result.
    pub async fn lock(&self, addr: u32) {
        let prev = self.set_func(self.func().lock_bucket());
        self.alu(1).await; // lock address setup
        loop {
            let old = self.test_and_set(addr).await;
            if old == 0 {
                self.branch().await; // fall through: acquired
                break;
            }
            // Spin: branch back and retry.
            self.branch_miss().await;
            self.alu(1).await;
        }
        self.set_func(prev);
    }

    /// Release the spinlock at `addr` (a single store).
    pub async fn unlock(&self, addr: u32) {
        let prev = self.set_func(self.func().lock_bucket());
        self.store(addr, 0).await;
        self.set_func(prev);
    }

    /// Try to acquire the spinlock once; returns whether it was acquired.
    pub async fn try_lock(&self, addr: u32) -> bool {
        let prev = self.set_func(self.func().lock_bucket());
        self.alu(1).await;
        let old = self.test_and_set(addr).await;
        self.branch().await;
        self.set_func(prev);
        old == 0
    }
}

impl std::fmt::Debug for CoreCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("core_id", &self.core_id)
            .finish()
    }
}
