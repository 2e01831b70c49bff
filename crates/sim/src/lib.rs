//! Cycle/event simulation kernel for the `nicsim` 10 GbE NIC reproduction.
//!
//! This crate plays the role that the Liberty Simulation Environment (LSE)
//! plays for Spinach in the paper: it provides the time base, clock-domain
//! bookkeeping, a deterministic event heap, round-robin arbitration, and
//! the seeded random streams that every other subsystem builds on.
//!
//! Everything is single-threaded and deterministic: ties on the event heap
//! are broken by insertion sequence number, and all arbiters are
//! round-robin with a fixed requester order.
//!
//! # Example
//!
//! ```
//! use nicsim_sim::{EventHeap, Freq, Ps};
//!
//! let clk = Freq::from_mhz(200);
//! let mut heap = EventHeap::new();
//! heap.push(clk.cycles(3), "third");
//! heap.push(clk.cycles(1), "first");
//! assert_eq!(heap.pop_before(Ps::from_ns(100)), Some((clk.cycles(1), "first")));
//! ```

pub mod arbiter;
pub mod domain;
pub mod events;
pub mod rng;
pub mod sched;
pub mod time;

pub use arbiter::RoundRobin;
pub use domain::EpochBarrier;
pub use events::{DrainBefore, EventHeap};
pub use rng::XorShift64;
pub use sched::WakeTracker;
pub use time::{Freq, Ps};
