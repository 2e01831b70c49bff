//! The NIC's processing cores (paper §4) and the machinery that lets
//! firmware run on them.
//!
//! Each core is a single-issue, 5-stage, in-order pipeline implementing a
//! MIPS-R4000-like subset plus the paper's two atomic read-modify-write
//! instructions (`set` and `update`). The timing rules modeled here are
//! exactly the ones the paper calls out:
//!
//! * one instruction issues per cycle at most;
//! * a scratchpad access takes a minimum of 2 cycles (crossbar traverse +
//!   bank access), so **every load stalls at least one cycle**; bank
//!   conflicts add more;
//! * **a single store may be buffered** in the MEM stage, so stores do not
//!   stall unless a second memory operation arrives while the buffer is
//!   still draining;
//! * statically mispredicted **branches annul one issue slot**;
//! * instruction fetch goes through a per-core 8 KB 2-way I-cache; misses
//!   stall the core while the line fills from the shared 128-bit
//!   instruction-memory interface.
//!
//! Firmware is ordinary Rust `async` code written against [`CoreCtx`]. The
//! future runs ahead through operations whose result it does not read
//! (ALU work, branches, stores: issued into a fixed-size batch) and
//! suspends at every load, RMW or `wfi`; the engine polls it again only
//! when everything issued has been charged and the data has returned from
//! the simulated scratchpad. That makes execution *execution-driven* —
//! lock contention and ordering races unfold at their real cycle times.
//! Per-function cycle/instruction/access profiles (the raw material of
//! Tables 1, 3, 5 and 6) are collected in [`CoreProfile`].

#![forbid(unsafe_code)]

pub mod ctx;
pub mod engine;
pub mod func;
pub mod layout;
pub mod slot;

pub use ctx::CoreCtx;
pub use engine::Core;
pub use func::{CoreProfile, FuncProfile, FwFunc, StallBucket};
pub use layout::CodeLayout;
pub use slot::{CoreSlot, PendingOp, SharedSlot};
