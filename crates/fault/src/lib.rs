//! # nicsim-fault — the deterministic fault-injection plane
//!
//! The paper evaluates the NIC only under clean traffic; this crate adds
//! the unhappy paths a production 10 GbE controller must survive: CRC-bad
//! frames on the wire, transient DMA/PCI errors and stalls, single-bit
//! SDRAM ECC events, and wedged assist units. Everything is policy and
//! bookkeeping — the *mechanisms* (corrupting a frame, retrying a DMA,
//! resetting an assist) live at each layer's natural boundary in
//! `nicsim-net`, `nicsim-assists`, `nicsim-mem`, and `nicsim` core.
//!
//! ## Modules
//!
//! * `plan` — [`FaultPlan`] and its spec grammar, from one field list: a
//!   fault class is a row there and a counter row in `stats`.
//! * `stats` — [`ErrorStats`], the `err_*` table and the plane's only
//!   counter type; each site below counts into its own.
//! * `link`, `dma`, `ecc`, `fw`, `fabric` — the sites: [`LinkFaults`],
//!   [`DmaFaults`], [`EccFaults`], [`FwFaults`], the fleet's [`FabricFaults`].
//!
//! ## Determinism contract
//!
//! A run is reproducible from `(seed, plan)`:
//!
//! * Every injection site owns an independent `XorShift64` stream,
//!   derived from the plan seed and a fixed site id, so adding or
//!   removing draws at one site never perturbs another.
//! * Draws happen only at *event-shaped* points — a frame leaving the
//!   generator, a payload DMA command starting, a read burst being
//!   granted — which occur at identical simulated times in both the
//!   dense and event-driven kernels. No site ever draws per tick.
//! * Hang onset and watchdog deadlines are expressed in simulated time
//!   (`Ps`), never in executed-step counts, so cycle skipping cannot
//!   shift them.
//!
//! With no [`FaultPlan`] configured every site is `None`, no RNG exists,
//! and the simulator's behavior (and `RunStats`) is bit-identical to a
//! build without this crate wired in.

#![forbid(unsafe_code)]

mod dma;
mod ecc;
mod fabric;
mod fw;
mod link;
mod plan;
mod stats;

pub use dma::{CmdOutcome, DmaFaults};
pub use ecc::EccFaults;
pub use fabric::FabricFaults;
pub use fw::FwFaults;
pub use link::{LinkFault, LinkFaults};
pub use plan::{FaultPlan, MAX_RETRIES};
pub use stats::ErrorStats;

/// Site id for the link-level generator stream.
pub const SITE_LINK: u64 = 1;
/// Site id for the DMA read (host → NIC) engine stream.
pub const SITE_DMA_READ: u64 = 2;
/// Site id for the DMA write (NIC → host) engine stream.
pub const SITE_DMA_WRITE: u64 = 3;
/// Site id for the frame-memory ECC stream.
pub const SITE_ECC: u64 = 4;
/// Base site id for per-source fabric link streams (corruption); link
/// `i` uses `SITE_FABRIC_LINK_BASE + i`. The high bases keep the fleet
/// site families disjoint from the per-engine `SITE_DMA_* + 8k` ladder.
pub const SITE_FABRIC_LINK_BASE: u64 = 1 << 32;
/// Site id for the fabric-wide port-buffer squeeze stream.
pub const SITE_FABRIC_SQUEEZE: u64 = 1 << 33;
/// Base site id for per-NIC crash schedules (`+ nic`).
pub const SITE_NIC_CRASH_BASE: u64 = 1 << 34;
/// Base site id for per-core firmware instruction-fault streams
/// (`+ core_id`).
pub const SITE_FW_BASE: u64 = 1 << 35;
/// Base site id for deriving per-NIC plan seeds in a fleet (`+ nic`).
pub const SITE_NIC_PLAN_BASE: u64 = 1 << 36;
/// Base site id for per-source fabric link flap phases (`+ i`); kept on
/// a separate stream from the corruption draws so enabling flaps never
/// shifts the corruption decisions of the same link.
pub const SITE_FABRIC_FLAP_BASE: u64 = 1 << 37;
