//! Ethernet/UDP frame model, 10 Gb/s link timing, and workload generation.
//!
//! The paper evaluates the NIC with full-duplex streams of UDP datagrams
//! of various sizes (Figures 7 and 8). This crate builds real frame bytes
//! (Ethernet + IPv4 + UDP headers, deterministic payload, valid IP header
//! checksum), models the wire timing of 10 Gigabit Ethernet — preamble,
//! frame, CRC, interframe gap — and provides the traffic generator and
//! transmit-side monitor that the simulator's "network model" is made of.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod frame;
pub mod link;
pub mod workload;

pub use fabric::{Delivery, Fabric, FabricConfig, FabricStats, PortStats};
pub use frame::{build_udp_frame, endpoints, set_endpoints, validate_frame, FrameError, FrameInfo};
pub use link::{line_rate_fps, max_udp_throughput_gbps, wire_time, RxGenerator, TxMonitor};
pub use nicsim_fault::FabricFaults;
pub use workload::{Arrivals, Pattern, SizeMix, TxPacket, Workload};
