//! The NIC firmware (paper §3): frame-level parallel Ethernet processing
//! with software-maintained total frame ordering.
//!
//! The firmware is written as `async` Rust against [`nicsim_cpu::CoreCtx`]
//! — every load, store, ALU batch, branch, and atomic RMW is charged on
//! the simulated core it runs on, so the execution profiles of Tables 1,
//! 5 and 6 fall out of real runs.
//!
//! ## Organization (Figure 5)
//!
//! Every core runs the same **dispatch loop**. It inspects the
//! hardware-maintained progress pointers (DMA done counters, MAC
//! producer/done counters, mailbox registers), *claims* a bundle of work
//! units under a short lock — the event structure of the frame-level
//! parallel design — and runs the matching handler. Any core can process
//! any event type concurrently with any other, so idle time occurs only
//! when there is no work at all.
//!
//! ## Frame ordering (§3.3)
//!
//! Work units complete out of order (DMA completions interleave across
//! frames), but frames must be delivered in order. Each stage that needs
//! ordering marks a per-frame **status bit**; a commit pass scans for
//! consecutive set bits from the commit pointer, clears them, and
//! performs the in-order action (enqueue to MAC, return to host). The
//! scan/clear runs in one of three modes:
//!
//! * [`FwMode::SoftwareOnly`] — lock-based: the status word is read,
//!   scanned bit by bit, and written back under the commit lock.
//! * [`FwMode::RmwEnhanced`] — the paper's `set`/`update` atomic
//!   instructions replace the looping accesses.
//! * [`FwMode::Ideal`] — single-core, all synchronization elided; used to
//!   measure the intrinsic per-function costs of Table 1.

#![forbid(unsafe_code)]

pub mod dispatch;
pub mod handlers;
pub mod map;
pub mod mode;

pub use dispatch::{dispatch_loop, doorbell_words};
pub use handlers::MAX_CORES;
pub use map::{BdIf, DmaIf, MemMap, MAX_DMA_ENGINES};
pub use mode::{DispatchMode, FwMode};
