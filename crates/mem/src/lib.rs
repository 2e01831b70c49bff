//! Partitioned memory system of the programmable 10 GbE NIC (paper §2.3, §4).
//!
//! The paper's key architectural insight is that a NIC has two very
//! different kinds of data:
//!
//! * **control data** (descriptors, ring pointers, event state) — small
//!   working set, needs *low latency*, read and written by both the
//!   processor cores and the hardware assists. It lives in an on-chip
//!   **banked scratchpad** reached through a 32-bit **crossbar** with
//!   round-robin per-bank arbitration and a 2-cycle access latency.
//! * **frame data** (packet contents) — large volume, needs *high
//!   bandwidth* but is never touched by the cores. It lives in external
//!   **GDDR SDRAM** behind a 128-bit frame bus shared by the PCI-side DMA
//!   assists and the MAC.
//!
//! This crate implements both memories plus the per-core instruction-cache
//! hierarchy, and the access-trace capture used by the coherence study
//! (Figure 3).

#![forbid(unsafe_code)]

pub mod icache;
pub mod scratchpad;
pub mod sdram;
pub mod trace;
pub mod xbar;

pub use icache::{ICache, ICacheConfig, InstrMemory};
pub use scratchpad::{Listener, Scratchpad, SpOp, SpRequest};
pub use sdram::{FrameMemory, FrameMemoryConfig, SdramCompletion, StreamId};
pub use trace::{AccessKind, AccessTrace, TraceRecord};
pub use xbar::{Crossbar, PortStats, RequesterId, MAX_XBAR_PORTS};

/// `(x / d, x % d)`: a shift and a mask for the usual power-of-two `d`
/// (bank counts, line sizes, set counts), a division for any other.
#[inline]
pub(crate) fn div_rem(x: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}
