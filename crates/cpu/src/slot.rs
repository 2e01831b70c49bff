//! The communication slot between a firmware future and its core engine.
//!
//! Firmware runs as a Rust future; the core timing engine polls it. They
//! exchange operations through [`CoreSlot`]: the future queues each
//! [`PendingOp`] under the profiling tag current at that moment and
//! suspends only when it needs the operation's result (or the queue is
//! full); the engine charges the queued operations oldest first (issuing
//! real scratchpad transactions for memory ops), deposits the response of
//! a result-bearing one, and polls again once the queue is empty.

use crate::func::FwFunc;
use nicsim_mem::{SpOp, SpRequest};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// How many issued-but-uncharged operations a slot holds: enough for the
/// firmware's runs of ALU, branch and store work between loads, finite
/// so that `loop { alu(1) }` returns to the engine.
pub const RUN_AHEAD: usize = 8;

/// An operation requested by firmware, to be charged by the core engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingOp {
    /// `n` ALU/control instructions of straight-line work.
    Alu(u32),
    /// A conditional branch; `mispredict` annuls one issue slot.
    Branch {
        /// Whether the static predictor got it wrong.
        mispredict: bool,
    },
    /// A scratchpad transaction (load, store, or atomic RMW).
    Mem(SpRequest),
    /// Wait-for-interrupt: one instruction to issue, then the core parks
    /// until its wake line is raised (interrupt dispatch mode).
    Wfi,
}

impl PendingOp {
    /// Whether the firmware waits for this operation's result: loads and
    /// atomic RMWs return data, `wfi` returns when the core is woken.
    pub fn has_result(self) -> bool {
        match self {
            PendingOp::Alu(_) | PendingOp::Branch { .. } => false,
            PendingOp::Mem(req) => !matches!(req.op, SpOp::Write(_)),
            PendingOp::Wfi => true,
        }
    }
}

/// Shared state between one firmware future and its core engine.
#[derive(Debug, Default)]
pub struct CoreSlot {
    /// Operations issued by the future and not yet charged by the
    /// engine, oldest first, each with the profiling tag current when it
    /// was issued. Never longer than [`RUN_AHEAD`].
    pub queue: VecDeque<(PendingOp, FwFunc)>,
    /// Result of the last result-bearing operation (set by the engine,
    /// taken by the future).
    pub response: Option<u32>,
    /// Current profiling tag: what the firmware will issue under next.
    pub func: FwFunc,
    /// Optional operation trace for the ILP analysis (Table 2), in the
    /// order the engine charges operations.
    pub trace: Option<Vec<PendingOp>>,
}

impl CoreSlot {
    /// Take the oldest issued operation for charging. The ILP trace is
    /// recorded here, not at issue, so it never leads the engine.
    #[inline]
    pub fn pop(&mut self) -> Option<(PendingOp, FwFunc)> {
        let next = self.queue.pop_front()?;
        if let Some(t) = &mut self.trace {
            t.push(next.0);
        }
        Some(next)
    }
}

/// Reference-counted handle to a [`CoreSlot`]. The simulator is
/// single-threaded, so `Rc<RefCell<_>>` suffices and keeps polling cheap.
pub type SharedSlot = Rc<RefCell<CoreSlot>>;

/// Create a fresh shared slot.
pub fn new_slot() -> SharedSlot {
    Rc::new(RefCell::new(CoreSlot::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_roundtrip() {
        let slot = new_slot();
        let op = (PendingOp::Alu(3), FwFunc::SendFrame);
        slot.borrow_mut().queue.push_back(op);
        assert_eq!(slot.borrow_mut().pop(), Some(op));
        assert_eq!(slot.borrow_mut().pop(), None);
        slot.borrow_mut().response = Some(7);
        assert_eq!(slot.borrow_mut().response.take(), Some(7));
    }

    #[test]
    fn default_tag_is_idle() {
        let slot = new_slot();
        assert_eq!(slot.borrow().func, FwFunc::Idle);
    }

    #[test]
    fn trace_collects_popped_operations() {
        let slot = new_slot();
        slot.borrow_mut().trace = Some(Vec::new());
        let load = PendingOp::Mem(SpRequest {
            addr: 0,
            op: SpOp::Read,
        });
        for op in [load, PendingOp::Wfi] {
            slot.borrow_mut().queue.push_back((op, FwFunc::Idle));
            assert!(op.has_result());
        }
        assert_eq!(
            slot.borrow().trace.as_ref().unwrap().len(),
            0,
            "issued only"
        );
        while slot.borrow_mut().pop().is_some() {}
        assert_eq!(
            slot.borrow_mut().trace.take(),
            Some(vec![load, PendingOp::Wfi])
        );
    }
}
