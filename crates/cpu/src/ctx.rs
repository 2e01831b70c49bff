//! The firmware programming interface.
//!
//! [`CoreCtx`] is what NIC firmware is written against: a handle to one
//! core whose methods are the machine's operations, each returning the
//! [`Op`] future the firmware awaits — one future per operation, nothing
//! in between. Every call costs what the real instruction would cost:
//! `alu(n)` issues `n` single-cycle instructions, `load` performs a real
//! 2-cycle (plus conflicts) scratchpad transaction, `test_and_set` and
//! `set_bit`/`update` are the single-instruction atomic RMWs the
//! firmware builds its spinlocks and frame ordering from.

use crate::func::FwFunc;
use crate::slot::{CoreSlot, PendingOp, SharedSlot};
use nicsim_mem::{SpOp, SpRequest};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Handle through which firmware executes on a simulated core.
#[derive(Clone)]
pub struct CoreCtx {
    slot: SharedSlot,
    core_id: usize,
}

/// Future for one machine operation: issues the op into the slot's batch
/// under the current profiling tag (suspending first while the batch is
/// full), then completes at once with 0 unless the firmware waits for a
/// result ([`PendingOp::has_result`]), which a later poll resolves it with.
#[must_use = "an operation is issued when its future is awaited"]
pub struct Op<'a> {
    slot: &'a CoreSlot,
    op: Option<PendingOp>,
}

impl Future for Op<'_> {
    type Output = u32;

    #[inline]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<u32> {
        if let Some(op) = self.op {
            if op == PendingOp::Alu(0) {
                return Poll::Ready(0); // nothing to charge
            }
            if !self.slot.push(op) {
                return Poll::Pending;
            }
            self.op = None;
            return if op.has_result() {
                Poll::Pending
            } else {
                Poll::Ready(0)
            };
        }
        match self.slot.response.take() {
            Some(v) => Poll::Ready(v),
            // The engine only polls when the response is ready, but a
            // future may be polled spuriously by combinators; stay pending.
            None => Poll::Pending,
        }
    }
}

/// Future for two independent loads issued into one batch: the engine
/// takes the second from the batch on the first's response, where one
/// load after another would poll the firmware in between. Resolves with
/// both values once the second's response has arrived.
#[must_use = "the loads are issued when the future is awaited"]
pub struct LoadPair<'a> {
    slot: &'a CoreSlot,
    addrs: [u32; 2],
    /// How many of the two loads are in the batch.
    issued: usize,
}

impl Future for LoadPair<'_> {
    type Output = (u32, u32);

    #[inline]
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<(u32, u32)> {
        if self.issued < 2 {
            // A batch with one free slot takes the first load alone; the
            // second goes into the next, as after a single `load`.
            while let Some(&addr) = self.addrs.get(self.issued) {
                if !self.slot.push(PendingOp::Mem(SpRequest {
                    addr,
                    op: SpOp::Read,
                })) {
                    break;
                }
                self.issued += 1;
            }
            return Poll::Pending;
        }
        match self.slot.response.take() {
            Some(second) => {
                let first = self.slot.early.take().expect("the first load's response");
                Poll::Ready((first, second))
            }
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
    pub fn sync(&self) -> impl Future<Output = ()> + '_ {
        std::future::poll_fn(|_| {
            if self.slot.is_empty() {
                Poll::Ready(())
            } else {
                Poll::Pending
            }
        })
    }

    /// Switch the profiling tag; subsequent work is attributed to `f`.
    /// Returns the previous tag so handlers can restore it.
    pub fn set_func(&self, f: FwFunc) -> FwFunc {
        self.slot.func.replace(f)
    }

    /// The current profiling tag.
    pub fn func(&self) -> FwFunc {
        self.slot.func.get()
    }

    /// Execute `n` ALU/control instructions. `alu(0)` is free.
    #[inline]
    pub fn alu(&self, n: u32) -> Op<'_> {
        self.issue(PendingOp::Alu(n))
    }

    /// Execute a correctly-predicted branch (1 cycle).
    #[inline]
    pub fn branch(&self) -> Op<'_> {
        self.issue(PendingOp::Branch { mispredict: false })
    }

    /// Execute a statically mispredicted branch (1 cycle + 1 annulled
    /// issue slot).
    #[inline]
    pub fn branch_miss(&self) -> Op<'_> {
        self.issue(PendingOp::Branch { mispredict: true })
    }

    /// Wait for interrupt: issue one instruction, then park the core
    /// until its wake line is raised by a doorbell (interrupt dispatch
    /// mode only — polling firmware never calls this).
    #[inline]
    pub fn wfi(&self) -> Op<'_> {
        self.issue(PendingOp::Wfi)
    }

    /// Load a 32-bit word from scratchpad byte address `addr`.
    #[inline]
    pub fn load(&self, addr: u32) -> Op<'_> {
        self.mem(addr, SpOp::Read)
    }

    /// Load the words at `a` and at `b`, in that order, when neither
    /// address depends on the other: the same two loads, charged on the
    /// same cycles as `load(a)` then `load(b)`, with one poll of the
    /// firmware fewer.
    #[inline]
    pub fn load_pair(&self, a: u32, b: u32) -> LoadPair<'_> {
        LoadPair {
            slot: &self.slot,
            addrs: [a, b],
            issued: 0,
        }
    }

    /// Store `val` to scratchpad byte address `addr` (buffered; does not
    /// stall unless the store buffer is busy).
    #[inline]
    pub fn store(&self, addr: u32, val: u32) -> Op<'_> {
        self.mem(addr, SpOp::Write(val))
    }

    /// Atomic test-and-set on `addr`; returns the old value (0 means the
    /// caller acquired the location).
    #[inline]
    pub fn test_and_set(&self, addr: u32) -> Op<'_> {
        self.mem(addr, SpOp::TestAndSet)
    }

    /// The paper's `set` instruction: atomically set bit `bit_index` of
    /// the bit array at `base` (byte address). A single instruction, a
    /// single scratchpad transaction.
    #[inline]
    pub fn set_bit(&self, base: u32, bit_index: u32) -> Op<'_> {
        let addr = base + (bit_index / 32) * 4;
        self.mem(addr, SpOp::SetBit((bit_index % 32) as u8))
    }

    /// The paper's `update` instruction: examine the aligned 32-bit word
    /// of the bit array at `base` containing `bit_index`, atomically clear
    /// the run of consecutive set bits starting there, and return the run
    /// length (0 if the starting bit was clear). At most one word is
    /// examined per invocation, as in the paper.
    #[inline]
    pub fn update(&self, base: u32, bit_index: u32) -> Op<'_> {
        let addr = base + (bit_index / 32) * 4;
        let start_bit = (bit_index % 32) as u8;
        self.mem(addr, SpOp::Update { start_bit })
    }
}

impl std::fmt::Debug for CoreCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreCtx")
            .field("core_id", &self.core_id)
            .finish()
    }
}
