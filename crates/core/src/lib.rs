//! # nicsim — a programmable 10 Gigabit Ethernet NIC, simulated
//!
//! A from-scratch reproduction of *An Efficient Programmable 10 Gigabit
//! Ethernet Network Interface Card* (Willmann, Kim, Rixner, Pai —
//! HPCA 2005): a cycle-level simulator of the paper's NIC controller
//! architecture plus its frame-level parallel firmware.
//!
//! The controller combines:
//!
//! * parallel single-issue in-order cores (a MIPS-like subset plus the
//!   paper's `set`/`update` atomic RMW instructions),
//! * a partitioned memory system — banked scratchpad behind a 32-bit
//!   crossbar for control data, external GDDR SDRAM behind a 128-bit
//!   frame bus for frame contents,
//! * four hardware assists (DMA read/write, MAC TX/RX), and
//! * four clock domains (CPU/scratchpad, frame bus + SDRAM, PCI,
//!   Ethernet).
//!
//! # Quick start
//!
//! ```
//! use nicsim::{NicConfig, NicSystem};
//! use nicsim_sim::Ps;
//!
//! // A small configuration so the doctest runs fast.
//! let cfg = NicConfig::builder()
//!     .cores(2)
//!     .cpu_mhz(500)
//!     .udp_payload(1472)
//!     .build()
//!     .expect("config validates");
//! let mut sys = NicSystem::build(cfg).finish().expect("config validates");
//! let stats = sys.run_measured(Ps::from_us(120), Ps::from_us(120));
//! assert!(stats.tx_frames > 0 && stats.rx_frames > 0);
//! stats.assert_clean();
//! ```
//!
//! # Fault injection
//!
//! A [`nicsim_fault::FaultPlan`] on [`NicConfig::faults`] arms the
//! deterministic fault plane: link corruption caught by the MAC RX
//! CRC32 check, transient DMA errors with retry/backoff/abort, PCI
//! stalls, correctable ECC events, and stuck-assist hangs recovered by
//! the system watchdog. Runs replay exactly from `(seed, plan)`, and
//! [`RunStats::errors`](stats::RunStats::errors) carries the injection
//! and recovery counters.

#![forbid(unsafe_code)]

pub mod config;
pub mod stats;
pub mod system;

pub use config::{ConfigError, NicConfig, NicConfigBuilder};
pub use nicsim_fault::{ErrorStats, FaultPlan};
pub use nicsim_firmware::{DispatchMode, FwMode};
pub use nicsim_obs::{
    ChromeTrace, DmaDir, Event, EventLog, FmStream, FrameTracker, LatencySummary, Metrics,
    NullProbe, Probe, StageStats,
};
pub use stats::{RunStats, StatValue, SUMMARY_VERSION};
pub use system::{FleetMember, NicSystem, SystemBuilder};
