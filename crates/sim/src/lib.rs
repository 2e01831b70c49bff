//! Simulation primitives for the `nicsim` 10 GbE NIC reproduction.
//!
//! This crate plays the role that the Liberty Simulation Environment (LSE)
//! plays for Spinach in the paper, cut down to what the simulator uses:
//! the picosecond time base ([`Ps`], [`Freq`]), round-robin arbitration
//! ([`RoundRobin`]), the seeded random streams ([`XorShift64`]), the
//! fleet's epoch rendezvous ([`EpochBarrier`]) and the `key=value`
//! reader every spec string goes through ([`Spec`]). Everything is
//! deterministic: arbiters are round-robin with a fixed requester order,
//! and every random stream is seeded.
//!
//! # Example
//!
//! ```
//! use nicsim_sim::{Freq, Ps};
//!
//! let clk = Freq::from_mhz(200);
//! assert_eq!(clk.period(), Ps::from_ns(5));
//! assert_eq!(clk.cycles(3), Ps::from_ns(15));
//! assert_eq!(clk.cycles_in(Ps::from_us(1)), 200);
//! ```

pub mod arbiter;
pub mod domain;
pub mod rng;
pub mod spec;
pub mod time;

pub use arbiter::RoundRobin;
pub use domain::EpochBarrier;
pub use rng::XorShift64;
pub use spec::Spec;
pub use time::{Freq, Ps};
