//! The communication slot between a firmware future and its core engine.
//!
//! Firmware runs as a Rust future; the core timing engine polls it. They
//! exchange operations through [`CoreSlot`]: the future issues each
//! [`PendingOp`] into a batch under the profiling tag current at that
//! moment and suspends only when it needs the operation's result (or the
//! batch is full); the engine takes the issued operations back oldest
//! first (issuing real scratchpad transactions for memory ops), deposits
//! the response of a result-bearing one, and polls again once the batch
//! is drained.
//!
//! The engine polls only a drained batch, so every poll fills it from
//! slot 0 and every take empties it front to back: a fixed array and two
//! counts, no ring arithmetic and no borrow flag.

use crate::func::FwFunc;
pub use nicsim_obs::PendingOp;
use std::cell::Cell;
use std::rc::Rc;

/// How many issued-but-uncharged operations a slot holds: enough for the
/// firmware's runs of ALU, branch and store work between loads, finite
/// so that `loop { alu(1) }` returns to the engine.
pub const RUN_AHEAD: usize = 8;

/// Shared state between one firmware future and its core engine.
#[derive(Debug)]
pub struct CoreSlot {
    /// The batch: `ops[..issued]` were issued by the last poll, each
    /// with the profiling tag in `funcs` current when it was issued;
    /// `ops[..charged]` have been taken back by the engine. Ops and tags
    /// sit in separate cells so that each moves as whole words.
    ops: [Cell<PendingOp>; RUN_AHEAD],
    funcs: [Cell<FwFunc>; RUN_AHEAD],
    issued: Cell<usize>,
    charged: Cell<usize>,
    /// Result of the last result-bearing operation (set by the engine,
    /// taken by the future).
    pub(crate) response: Cell<Option<u32>>,
    /// The response before it, still untaken: a [`crate::CoreCtx::load_pair`]'s
    /// first load, which waits here while the engine charges the second.
    pub(crate) early: Cell<Option<u32>>,
    /// Current profiling tag: what the firmware will issue under next.
    pub(crate) func: Cell<FwFunc>,
}

impl CoreSlot {
    /// Issue `op` under the current tag; `false` when the batch is full.
    #[inline]
    pub(crate) fn push(&self, op: PendingOp) -> bool {
        let issued = self.issued.get();
        let (Some(cell), Some(func)) = (self.ops.get(issued), self.funcs.get(issued)) else {
            return false;
        };
        cell.set(op);
        func.set(self.func.get());
        self.issued.set(issued + 1);
        true
    }

    /// Take the oldest issued operation for charging. Taking the last
    /// one empties the batch, so the next poll fills it from slot 0.
    #[inline]
    pub(crate) fn pop(&self) -> Option<(PendingOp, FwFunc)> {
        let (charged, issued) = (self.charged.get(), self.issued.get());
        if charged == issued {
            return None;
        }
        let next = (self.ops[charged].get(), self.funcs[charged].get());
        if charged + 1 == issued {
            self.issued.set(0);
            self.charged.set(0);
        } else {
            self.charged.set(charged + 1);
        }
        Some(next)
    }

    /// Hand the future the result `v` of the op just charged. A response
    /// the future has not taken yet moves to `early`: only a pair's
    /// first load leaves one, since every other result-bearing op ends
    /// the batch and the engine polls before the next response.
    #[inline]
    pub(crate) fn deliver(&self, v: u32) {
        self.early.set(self.response.replace(Some(v)));
    }

    /// Forget every issued operation and any undelivered response.
    pub(crate) fn clear(&self) {
        self.issued.set(0);
        self.charged.set(0);
        self.response.set(None);
        self.early.set(None);
    }

    /// Operations issued and not yet taken by the engine.
    pub fn len(&self) -> usize {
        self.issued.get() - self.charged.get()
    }

    /// Whether nothing is issued: the next operation goes to slot 0.
    pub fn is_empty(&self) -> bool {
        self.issued.get() == 0
    }
}

/// Reference-counted handle to a [`CoreSlot`]. The simulator is
/// single-threaded and every field is a `Cell`, so neither side pays for
/// a borrow check.
pub type SharedSlot = Rc<CoreSlot>;

/// Create a fresh shared slot.
pub fn new_slot() -> SharedSlot {
    Rc::new(CoreSlot {
        ops: std::array::from_fn(|_| Cell::new(PendingOp::Alu(0))),
        funcs: std::array::from_fn(|_| Cell::new(FwFunc::Idle)),
        issued: Cell::new(0),
        charged: Cell::new(0),
        response: Cell::new(None),
        early: Cell::new(None),
        func: Cell::new(FwFunc::Idle),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CodeLayout, Core};
    use nicsim_mem::{ICacheConfig, SpOp, SpRequest};

    const LOAD: PendingOp = PendingOp::Mem(SpRequest {
        addr: 0,
        op: SpOp::Read,
    });

    #[test]
    fn slot_roundtrip() {
        let slot = new_slot();
        slot.func.set(FwFunc::SendFrame);
        assert!(slot.push(PendingOp::Alu(3)));
        assert_eq!(slot.pop(), Some((PendingOp::Alu(3), FwFunc::SendFrame)));
        assert_eq!(slot.pop(), None);
        slot.deliver(7);
        assert_eq!(slot.response.take(), Some(7));
        assert_eq!(slot.response.take(), None);
    }

    #[test]
    fn an_untaken_response_waits_in_early_for_the_next() {
        let slot = new_slot();
        slot.deliver(1);
        assert_eq!(slot.early.get(), None, "nothing was untaken");
        slot.deliver(2);
        assert_eq!(
            (slot.early.take(), slot.response.take()),
            (Some(1), Some(2))
        );
        // A taken response leaves nothing behind for the next delivery.
        slot.deliver(3);
        assert_eq!((slot.early.take(), slot.response.take()), (None, Some(3)));
    }

    #[test]
    fn clear_drops_an_undelivered_early_response() {
        let slot = new_slot();
        assert!(slot.push(LOAD));
        assert!(slot.push(LOAD));
        slot.pop();
        slot.deliver(4);
        slot.pop();
        slot.deliver(5);
        slot.clear();
        assert_eq!((slot.early.get(), slot.response.get()), (None, None));
        assert_eq!((slot.len(), slot.is_empty()), (0, true));
    }

    #[test]
    fn default_tag_is_idle() {
        assert_eq!(new_slot().func.get(), FwFunc::Idle);
    }

    #[test]
    fn the_batch_refuses_the_op_after_run_ahead() {
        let slot = new_slot();
        for n in 1..=RUN_AHEAD {
            assert!(slot.push(PendingOp::Alu(n as u32)), "op {n}");
        }
        assert!(!slot.push(PendingOp::Wfi), "op {}", RUN_AHEAD + 1);
        assert_eq!(slot.len(), RUN_AHEAD);
        // The refused op left the batch as it was.
        for n in 1..RUN_AHEAD {
            assert_eq!(slot.pop(), Some((PendingOp::Alu(n as u32), FwFunc::Idle)));
        }
        let last = slot.pop();
        assert_eq!(last, Some((PendingOp::Alu(RUN_AHEAD as u32), FwFunc::Idle)));
        assert_eq!(slot.pop(), None);
    }

    #[test]
    fn ops_come_back_in_issue_order_with_their_tags() {
        let slot = new_slot();
        let issued = [
            (PendingOp::Alu(2), FwFunc::SendFrame),
            (PendingOp::Branch { mispredict: true }, FwFunc::RecvFrame),
            (LOAD, FwFunc::RecvFrame),
            (PendingOp::Wfi, FwFunc::Idle),
        ];
        for (op, func) in issued {
            slot.func.set(func);
            assert!(slot.push(op));
        }
        assert_eq!(slot.func.get(), FwFunc::Idle);
        let taken: Vec<_> = std::iter::from_fn(|| slot.pop()).collect();
        assert_eq!(taken, issued);
    }

    #[test]
    fn a_drained_batch_starts_again_from_slot_zero() {
        let slot = new_slot();
        for _ in 0..3 {
            assert!(slot.push(PendingOp::Alu(1)));
        }
        slot.pop();
        assert_eq!((slot.len(), slot.is_empty()), (2, false));
        slot.pop();
        slot.pop();
        assert_eq!((slot.len(), slot.is_empty()), (0, true));
        // A full batch fits again, and its first op is the first taken.
        for n in 1..=RUN_AHEAD {
            assert!(slot.push(PendingOp::Alu(n as u32)));
        }
        assert_eq!(slot.pop(), Some((PendingOp::Alu(1), FwFunc::Idle)));
    }

    #[test]
    fn install_empties_the_batch() {
        let mut core = Core::new(0, ICacheConfig::default(), CodeLayout::new());
        let slot = core.slot();
        assert!(slot.push(LOAD));
        assert!(slot.push(PendingOp::Alu(1)));
        slot.pop();
        // A pair's first response, waiting for the second.
        slot.deliver(8);
        slot.deliver(9);
        core.install(async {});
        assert_eq!((slot.len(), slot.is_empty()), (0, true));
        assert_eq!(slot.pop(), None);
        assert_eq!(slot.response.take(), None);
        assert_eq!(slot.early.take(), None);
    }
}
