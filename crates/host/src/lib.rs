//! Host system model: main memory and the device driver.
//!
//! The paper's simulator "models the behavior of the host and the
//! network. The host model emulates the real device driver" (§5). This
//! crate provides:
//!
//! * [`HostMemory`] — the server's main memory as seen over DMA;
//! * [`Driver`] — the device driver: it builds frames into host buffers,
//!   posts send/receive buffer descriptors, rings the NIC's mailbox
//!   registers, consumes completions, and validates every received frame
//!   end-to-end (bytes, ordering, IP checksum).
//!
//! Following the paper's methodology, the I/O interconnect's bandwidth
//! and latency are **not** modeled: DMA reads/writes against host memory
//! are functionally instantaneous, and mailbox writes land immediately.

#![forbid(unsafe_code)]

pub mod driver;
pub mod memory;

pub use driver::{Driver, DriverConfig, DriverStats, HostLayout, Mailbox, MailboxWrite};
pub use memory::HostMemory;
