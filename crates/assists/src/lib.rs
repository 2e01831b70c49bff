//! The NIC's hardware assist units (paper §4, Figure 6).
//!
//! Four assists surround the processor complex and are "solely
//! responsible for all frame data transfers" while also sharing control
//! information with the cores through the scratchpad:
//!
//! * **DMA read** — moves data from host memory into the NIC: buffer
//!   descriptors into the scratchpad, frame contents into the transmit
//!   region of the frame memory.
//! * **DMA write** — moves data from the NIC to host memory: received
//!   frame contents from the frame memory, return descriptors and status
//!   words from the scratchpad (or as immediate values). Both
//!   directions are one [`Dma`] type, built with its direction.
//! * **MAC TX** — drains the transmit ring: reads frame bytes from the
//!   frame memory and puts them on the wire with Ethernet timing.
//! * **MAC RX** — accepts frames from the wire into the receive region of
//!   the frame memory and produces receive descriptors for the firmware.
//!
//! Each assist owns one crossbar port (the paper's "P+4 × S+1 crossbar")
//! and interacts with firmware exclusively through scratchpad-resident
//! command rings and monotonic progress counters — the hardware pointers
//! that the frame-parallel firmware's dispatch loop inspects (Figure 5).

#![forbid(unsafe_code)]

pub mod cmd;
pub mod dma;
pub mod mac;
pub mod port;

pub use cmd::{MacRxRegs, RingRegs};
pub use dma::{dma_tag, dma_tag_engine, Dma};
pub use mac::{MacRx, MacTx};
pub use port::{CmdRing, SpPort};
