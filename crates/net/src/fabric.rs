//! Output-queued switch/fabric model for multi-NIC fleet simulation.
//!
//! N NICs attach to one switch. A transmitted frame leaves its source
//! NIC at wire-done time `w`, crosses the ingress link (one
//! [`FabricConfig::link_latency`] hop), queues at the egress port for
//! its destination, serializes onto the egress link at the NIC link's
//! 10 Gb/s ([`wire_time`]), and arrives `link_latency` after its
//! departure. Egress ports have finite buffers: a frame whose arrival
//! would overflow [`FabricConfig::port_buffer_bytes`] is dropped — the
//! incast-congestion behavior the fleet experiments measure.
//!
//! The model is deterministic and order-insensitive in a specific,
//! load-bearing way: callers present frames in a canonical global order
//! (non-decreasing wire-done time, ties broken by source id — the fleet
//! engine sorts each epoch's union this way), and every queueing
//! decision depends only on that order and the accumulated port state.
//! Because each egress port serializes (its `busy_until` is monotone)
//! and the egress hop latency is constant, per-destination delivery
//! times are non-decreasing — the property the destination NIC's
//! injection queue asserts.
//!
//! Every delivery and drop folds into an FNV-1a running digest, so two
//! runs can be compared for identical fabric behavior (order included)
//! with a single `u64`.

use crate::frame::{endpoints, seq_of, write_fcs, CRC_BYTES};
use crate::link::wire_time;
use nicsim_fault::FabricFaults;
use nicsim_sim::Ps;
use std::collections::VecDeque;

/// Switch/fabric parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricConfig {
    /// One-hop propagation latency (NIC→switch and switch→NIC each pay
    /// one). The fleet epoch length is bounded by this: a frame leaving
    /// a NIC during an epoch cannot arrive anywhere before the next
    /// epoch boundary, because the path costs at least two hops.
    pub link_latency: Ps,
    /// Egress-port buffer capacity in bytes. Frames that would overflow
    /// it are dropped at ingress.
    pub port_buffer_bytes: u64,
}

impl Default for FabricConfig {
    /// 10 Gb/s ports (matching the NIC MACs), 1 µs hop latency, 128 KB
    /// of buffering per egress port — a shallow-buffered datacenter
    /// switch, small enough that incast visibly drops.
    fn default() -> FabricConfig {
        FabricConfig {
            link_latency: Ps::from_us(1),
            port_buffer_bytes: 128 * 1024,
        }
    }
}

/// Per-egress-port accumulated counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// Frames delivered to this port's NIC.
    pub delivered: u64,
    /// Frames dropped at this port (buffer overflow).
    pub dropped: u64,
    /// Delivered frame bytes (including FCS).
    pub delivered_bytes: u64,
    /// Dropped frame bytes.
    pub dropped_bytes: u64,
    /// High-water mark of buffered bytes.
    pub max_occupancy: u64,
}

/// Fleet-level fabric counters (sum of the ports plus the order
/// digest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Frames offered to the fabric.
    pub offered: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Delivered frame bytes.
    pub delivered_bytes: u64,
    /// Dropped frame bytes.
    pub dropped_bytes: u64,
    /// Frames bit-corrupted on a fabric link (fault plane; the frame is
    /// still delivered and the receiver's CRC check catches it).
    pub corrupted: u64,
    /// Frames dropped because the source link was flapped down.
    pub flap_drops: u64,
    /// Frames dropped by a transient port-buffer squeeze that the full
    /// buffer would have admitted.
    pub squeeze_drops: u64,
    /// FNV-1a digest over every delivery and drop in processing order:
    /// `(kind, src, dst, seq, time)` with kind 0 = delivery, 1 =
    /// overflow drop, 2 = flap drop, 3 = squeeze drop, 4 = a corruption
    /// marker folded before the delivery it taints. Identical digests
    /// mean identical fabric behavior, ordering and faults included.
    pub digest: u64,
}

/// One frame the fabric will hand to a destination NIC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Destination NIC index.
    pub dst: usize,
    /// Arrival time at the destination's MAC RX.
    pub at: Ps,
    /// The frame bytes, unchanged in flight.
    pub frame: Vec<u8>,
}

#[derive(Debug, Default)]
struct Port {
    busy_until: Ps,
    occupancy: u64,
    /// Frames in the buffer: `(departure time, length)`. Drained lazily
    /// as later frames arrive.
    queued: VecDeque<(Ps, u64)>,
    stats: PortStats,
}

/// The switch: per-destination egress ports plus global accounting.
#[derive(Debug)]
pub struct Fabric {
    cfg: FabricConfig,
    ports: Vec<Port>,
    stats: FabricStats,
    /// Fleet fault-plane policy (fabric link corruption, flaps, port
    /// squeeze). `None` on clean runs: the offer path then never
    /// branches on fault state beyond one `is_some` check.
    faults: Option<FabricFaults>,
}

impl Fabric {
    /// A fabric with one egress port per NIC.
    ///
    /// # Panics
    ///
    /// Panics if the hop latency is zero (a zero-latency fabric admits
    /// no conservative epoch).
    pub fn new(nics: usize, cfg: FabricConfig) -> Fabric {
        assert!(
            cfg.link_latency > Ps::ZERO,
            "fabric hop latency must be positive"
        );
        Fabric {
            cfg,
            ports: (0..nics).map(|_| Port::default()).collect(),
            stats: FabricStats {
                digest: FNV_OFFSET,
                ..FabricStats::default()
            },
            faults: None,
        }
    }

    /// The configuration the fabric was built with.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Arm the fabric fault plane (only for an armed plan): every offered
    /// frame then gets a real FCS stamped before any fault decision, so
    /// receivers, which check it under the same plan, catch corruption.
    pub fn set_faults(&mut self, faults: FabricFaults) {
        self.faults = Some(faults);
    }

    /// Offer one transmitted frame to the fabric: `src` finished
    /// putting it on the wire at `w`. Returns its delivery, or `None`
    /// if the egress buffer overflowed. Callers must present frames in
    /// canonical order — non-decreasing `w`, ties broken by `src` —
    /// for run-to-run identical behavior.
    ///
    /// # Panics
    ///
    /// Panics if the frame addresses a destination the fabric has no
    /// port for.
    pub fn offer(&mut self, w: Ps, src: usize, mut frame: Vec<u8>) -> Option<Delivery> {
        let (_, dst) = endpoints(&frame);
        let dst = dst as usize;
        assert!(
            dst < self.ports.len(),
            "frame addressed to NIC {dst} of {}",
            self.ports.len()
        );
        let len = frame.len() as u64;
        let seq = seq_of(&frame);
        self.stats.offered += 1;
        let t_in = w + self.cfg.link_latency;
        // Fault plane, in a fixed order so the per-site streams advance
        // identically for every shard count: the (draw-free, time-pure)
        // flap check first — a down source link consumes no draws — then
        // one corruption draw on the source's link stream, then one
        // squeeze draw on the fabric-wide stream.
        let mut squeezed = false;
        if let Some(f) = &mut self.faults {
            write_fcs(&mut frame);
            if f.link_down(src, w) {
                let port = &mut self.ports[dst];
                port.stats.dropped += 1;
                port.stats.dropped_bytes += len;
                self.stats.dropped += 1;
                self.stats.dropped_bytes += len;
                self.stats.flap_drops += 1;
                self.stats.digest = fnv_fold(self.stats.digest, 2, src, dst, seq, t_in);
                return None;
            }
            let body_bits = (frame.len() - CRC_BYTES) as u64 * 8;
            if let Some(bit) = f.draw_corrupt(src, body_bits) {
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
                self.stats.corrupted += 1;
                self.stats.digest = fnv_fold(self.stats.digest, 4, src, dst, seq, t_in);
            }
            squeezed = f.draw_squeeze();
        }
        // Preamble + frame + interframe gap, as on the NIC's own link.
        let serialization = wire_time(len as usize);
        let cap = if squeezed {
            self.cfg.port_buffer_bytes / 4
        } else {
            self.cfg.port_buffer_bytes
        };
        let port = &mut self.ports[dst];
        // Drain frames that departed before this one arrived.
        while port.queued.front().is_some_and(|(dep, _)| *dep <= t_in) {
            let (_, gone) = port.queued.pop_front().expect("front checked");
            port.occupancy -= gone;
        }
        if port.occupancy + len > cap {
            let squeeze_drop = squeezed && port.occupancy + len <= self.cfg.port_buffer_bytes;
            port.stats.dropped += 1;
            port.stats.dropped_bytes += len;
            self.stats.dropped += 1;
            self.stats.dropped_bytes += len;
            let kind = if squeeze_drop {
                self.stats.squeeze_drops += 1;
                3
            } else {
                1
            };
            self.stats.digest = fnv_fold(self.stats.digest, kind, src, dst, seq, t_in);
            return None;
        }
        let start = t_in.max(port.busy_until);
        let departure = start + serialization;
        port.busy_until = departure;
        port.occupancy += len;
        port.stats.max_occupancy = port.stats.max_occupancy.max(port.occupancy);
        port.queued.push_back((departure, len));
        port.stats.delivered += 1;
        port.stats.delivered_bytes += len;
        self.stats.delivered += 1;
        self.stats.delivered_bytes += len;
        let at = departure + self.cfg.link_latency;
        self.stats.digest = fnv_fold(self.stats.digest, 0, src, dst, seq, at);
        Some(Delivery { dst, at, frame })
    }

    /// Global counters and the order digest.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Per-port counters, indexed by destination NIC.
    pub fn port_stats(&self) -> Vec<PortStats> {
        self.ports.iter().map(|p| p.stats).collect()
    }

    /// Zero the counters and restart the digest, keeping queue state —
    /// the fleet engine calls this at the warm-up/measure boundary so
    /// stats cover the measurement window only.
    pub fn reset_stats(&mut self) {
        self.stats = FabricStats {
            digest: FNV_OFFSET,
            ..FabricStats::default()
        };
        for port in &mut self.ports {
            port.stats = PortStats::default();
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_fold(mut h: u64, kind: u8, src: usize, dst: usize, seq: u32, t: Ps) -> u64 {
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    };
    eat(kind);
    for b in (src as u32).to_le_bytes() {
        eat(b);
    }
    for b in (dst as u32).to_le_bytes() {
        eat(b);
    }
    for b in seq.to_le_bytes() {
        eat(b);
    }
    for b in t.0.to_le_bytes() {
        eat(b);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{build_udp_frame, set_endpoints};
    use crate::link::ETH_OVERHEAD_BYTES;

    fn addressed(seq: u32, payload: usize, src: u16, dst: u16) -> Vec<u8> {
        let mut f = build_udp_frame(seq, payload);
        set_endpoints(&mut f, src, dst);
        f
    }

    #[test]
    fn single_frame_pays_two_hops_plus_serialization() {
        let cfg = FabricConfig::default();
        let mut fab = Fabric::new(2, cfg);
        let f = addressed(0, 1472, 0, 1);
        let len = f.len() as u64;
        let d = fab.offer(Ps::ZERO, 0, f).unwrap();
        assert_eq!(d.dst, 1);
        // hop + serialization + hop.
        let expect = cfg.link_latency + Ps((len + ETH_OVERHEAD_BYTES) * 800) + cfg.link_latency;
        assert_eq!(d.at, expect);
    }

    #[test]
    fn port_serializes_and_deliveries_are_monotone() {
        let mut fab = Fabric::new(3, FabricConfig::default());
        // Two sources hit NIC 2 at the same instant: the second in
        // canonical order queues behind the first.
        let a = fab.offer(Ps::ZERO, 0, addressed(1, 1472, 0, 2)).unwrap();
        let b = fab.offer(Ps::ZERO, 1, addressed(2, 1472, 1, 2)).unwrap();
        assert!(b.at > a.at, "egress port must serialize");
        assert_eq!(b.at - a.at, Ps((1518 + ETH_OVERHEAD_BYTES) * 800));
    }

    #[test]
    fn incast_overflows_the_port_buffer() {
        let cfg = FabricConfig {
            port_buffer_bytes: 4000,
            ..FabricConfig::default()
        };
        let mut fab = Fabric::new(9, cfg);
        let mut delivered = 0;
        for src in 0..8u16 {
            // All sources burst a max frame at t=0 toward NIC 8.
            if fab
                .offer(Ps::ZERO, src as usize, addressed(src as u32, 1472, src, 8))
                .is_some()
            {
                delivered += 1;
            }
        }
        // 4000 bytes of buffer holds two 1518-byte frames.
        assert_eq!(delivered, 2);
        let s = fab.stats();
        assert_eq!(s.offered, 8);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.dropped, 6);
        assert_eq!(fab.port_stats()[8].dropped, 6);
    }

    #[test]
    fn buffer_drains_as_frames_depart() {
        let cfg = FabricConfig {
            port_buffer_bytes: 2000,
            ..FabricConfig::default()
        };
        let mut fab = Fabric::new(2, cfg);
        let first = fab.offer(Ps::ZERO, 0, addressed(0, 1472, 0, 1)).unwrap();
        // Offered long after the first departs: the buffer is empty again.
        let late = first.at + Ps::from_us(100);
        assert!(fab.offer(late, 0, addressed(1, 1472, 0, 1)).is_some());
        assert_eq!(fab.stats().dropped, 0);
    }

    #[test]
    fn identical_sequences_produce_identical_digests() {
        let run = || {
            let mut fab = Fabric::new(4, FabricConfig::default());
            for i in 0..50u32 {
                let src = (i % 3) as u16;
                fab.offer(Ps(i as u64 * 1000), src as usize, addressed(i, 256, src, 3));
            }
            fab.stats()
        };
        assert_eq!(run(), run());
        // A different order produces a different digest.
        let mut fab = Fabric::new(4, FabricConfig::default());
        for i in (0..50u32).rev() {
            let src = (i % 3) as u16;
            fab.offer(Ps(49_000), src as usize, addressed(i, 256, src, 3));
        }
        assert_ne!(fab.stats().digest, run().digest);
    }

    #[test]
    fn armed_fabric_stamps_fcs_and_corrupts_deterministically() {
        use nicsim_fault::FaultPlan;
        let plan = FaultPlan {
            fabric_corrupt: 0.3,
            ..FaultPlan::default()
        };
        let run = || {
            let mut fab = Fabric::new(2, FabricConfig::default());
            fab.set_faults(FabricFaults::new(&plan, 2));
            let mut good = 0;
            let mut bad = 0;
            for i in 0..100u32 {
                let d = fab
                    .offer(Ps(i as u64 * 2_000_000), 0, addressed(i, 256, 0, 1))
                    .unwrap();
                if crate::frame::fcs_valid(&d.frame) {
                    good += 1;
                } else {
                    bad += 1;
                }
            }
            (good, bad, fab.stats())
        };
        let (good, bad, stats) = run();
        assert!(good > 0 && bad > 0, "good={good} bad={bad}");
        assert_eq!(bad as u64, stats.corrupted);
        assert_eq!(run().2, stats, "faulted fabric must replay exactly");
    }

    #[test]
    fn flapped_link_drops_into_the_digest() {
        use nicsim_fault::FaultPlan;
        let plan = FaultPlan {
            flap_period_us: 50,
            flap_down_us: 25,
            ..FaultPlan::default()
        };
        let mut fab = Fabric::new(2, FabricConfig::default());
        fab.set_faults(FabricFaults::new(&plan, 2));
        let clean_digest = Fabric::new(2, FabricConfig::default()).stats().digest;
        let mut dropped = 0;
        for i in 0..100u32 {
            if fab
                .offer(Ps::from_us(i as u64), 0, addressed(i, 256, 0, 1))
                .is_none()
            {
                dropped += 1;
            }
        }
        let s = fab.stats();
        assert_eq!(s.flap_drops, dropped);
        // Half the time down, and every drop folded into the digest.
        assert!((40..=60).contains(&dropped), "dropped = {dropped}");
        assert_ne!(s.digest, clean_digest);
    }

    #[test]
    fn squeeze_drops_frames_the_full_buffer_would_admit() {
        use nicsim_fault::FaultPlan;
        let cfg = FabricConfig {
            port_buffer_bytes: 8000,
            ..FabricConfig::default()
        };
        let plan = FaultPlan {
            squeeze: 1.0,
            ..FaultPlan::default()
        };
        let mut fab = Fabric::new(3, cfg);
        fab.set_faults(FabricFaults::new(&plan, 3));
        // A squeezed admission sees 2000 bytes of capacity: the second
        // back-to-back 1518-byte frame is a squeeze drop.
        assert!(fab.offer(Ps::ZERO, 0, addressed(0, 1472, 0, 2)).is_some());
        assert!(fab.offer(Ps::ZERO, 1, addressed(1, 1472, 1, 2)).is_none());
        let s = fab.stats();
        assert_eq!(s.squeeze_drops, 1);
        assert_eq!(s.dropped, 1);
    }
}
