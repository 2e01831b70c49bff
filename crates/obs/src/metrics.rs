//! Counter and histogram metrics derived from the probe event stream.
//!
//! These replace the scattered hand-rolled debug counters that used to
//! live inside individual components: crossbar grant/retry counts per
//! bank, the I-cache hit rate, DMA descriptor throughput, and
//! event-queue depth histograms for the frame-memory streams and the DMA
//! engines. Counters follow `RunStats` window semantics — they reset on
//! [`Event::WindowReset`] — while in-flight gauges persist across the
//! reset (work in flight at the window edge is still in flight).

use crate::{Event, Probe};

/// Number of buckets in a [`DepthHistogram`]; the last bucket clamps.
pub const DEPTH_BUCKETS: usize = 17;

/// A small fixed-bucket histogram of queue depths (0..=15, then 16+).
#[derive(Debug, Clone, Copy)]
pub struct DepthHistogram {
    counts: [u64; DEPTH_BUCKETS],
}

impl Default for DepthHistogram {
    fn default() -> Self {
        DepthHistogram {
            counts: [0; DEPTH_BUCKETS],
        }
    }
}

impl DepthHistogram {
    /// Record one observation of `depth`.
    pub fn record(&mut self, depth: u32) {
        let b = (depth as usize).min(DEPTH_BUCKETS - 1);
        self.counts[b] += 1;
    }

    /// Per-bucket observation counts (index = depth, last bucket = 16+).
    pub fn counts(&self) -> &[u64; DEPTH_BUCKETS] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed depth (clamped observations count at the clamp).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(d, c)| d as u64 * c)
            .sum();
        sum as f64 / total as f64
    }

    /// Highest non-empty bucket.
    pub fn max(&self) -> u32 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |d| d as u32)
    }

    fn clear(&mut self) {
        self.counts = [0; DEPTH_BUCKETS];
    }
}

/// The counter/histogram metrics sink.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    sp_grants: Vec<u64>,
    sp_conflicts: Vec<u64>,
    icache_hits: u64,
    icache_misses: u64,
    mailbox_writes: u64,
    host_tx_posted: u64,
    host_rx_delivered: u64,
    /// Indexed by `DmaDir as usize` (0 = read, 1 = write).
    dma_started: [u64; 2],
    dma_done: [u64; 2],
    dma_inflight: [u32; 2],
    dma_depth: [DepthHistogram; 2],
    mac_tx_fetched: u64,
    mac_tx_sent: u64,
    mac_rx_accepted: u64,
    mac_rx_dropped: u64,
    /// Indexed by `FmStream::index()`.
    fm_bursts: [u64; 4],
    fm_bytes: [u64; 4],
    fm_depth: [DepthHistogram; 4],
}

impl Metrics {
    /// An empty metrics sink.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Crossbar grants per scratchpad bank.
    pub fn sp_grants(&self) -> &[u64] {
        &self.sp_grants
    }

    /// Crossbar retry (conflict) cycles per scratchpad bank.
    pub fn sp_conflicts(&self) -> &[u64] {
        &self.sp_conflicts
    }

    /// I-cache line accesses that hit.
    pub fn icache_hits(&self) -> u64 {
        self.icache_hits
    }

    /// I-cache line accesses that missed.
    pub fn icache_misses(&self) -> u64 {
        self.icache_misses
    }

    /// Hit fraction in [0, 1]; 0 when no accesses were observed.
    pub fn icache_hit_rate(&self) -> f64 {
        let total = self.icache_hits + self.icache_misses;
        if total == 0 {
            0.0
        } else {
            self.icache_hits as f64 / total as f64
        }
    }

    /// Doorbell writes observed.
    pub fn mailbox_writes(&self) -> u64 {
        self.mailbox_writes
    }

    /// Frames the driver posted for transmit.
    pub fn host_tx_posted(&self) -> u64 {
        self.host_tx_posted
    }

    /// Frames the driver delivered to the host stack.
    pub fn host_rx_delivered(&self) -> u64 {
        self.host_rx_delivered
    }

    /// DMA descriptors started, per engine (0 = read, 1 = write).
    pub fn dma_started(&self) -> [u64; 2] {
        self.dma_started
    }

    /// DMA descriptors completed, per engine.
    pub fn dma_done(&self) -> [u64; 2] {
        self.dma_done
    }

    /// Histogram of DMA descriptors in flight, sampled at each start.
    pub fn dma_depth(&self) -> &[DepthHistogram; 2] {
        &self.dma_depth
    }

    /// MAC TX ring entries fetched / frames fully on the wire.
    pub fn mac_tx(&self) -> (u64, u64) {
        (self.mac_tx_fetched, self.mac_tx_sent)
    }

    /// MAC RX frames accepted / dropped at the ring.
    pub fn mac_rx(&self) -> (u64, u64) {
        (self.mac_rx_accepted, self.mac_rx_dropped)
    }

    /// Frame-bus bursts per stream (`FmStream::index()` order).
    pub fn fm_bursts(&self) -> [u64; 4] {
        self.fm_bursts
    }

    /// Frame-bus bytes per stream, before alignment padding.
    pub fn fm_bytes(&self) -> [u64; 4] {
        self.fm_bytes
    }

    /// Histogram of per-stream queue depth, sampled at each bus grant.
    pub fn fm_depth(&self) -> &[DepthHistogram; 4] {
        &self.fm_depth
    }

    fn reset_window(&mut self) {
        self.sp_grants.iter_mut().for_each(|c| *c = 0);
        self.sp_conflicts.iter_mut().for_each(|c| *c = 0);
        self.icache_hits = 0;
        self.icache_misses = 0;
        self.mailbox_writes = 0;
        self.host_tx_posted = 0;
        self.host_rx_delivered = 0;
        self.dma_started = [0; 2];
        self.dma_done = [0; 2];
        self.dma_depth.iter_mut().for_each(DepthHistogram::clear);
        self.mac_tx_fetched = 0;
        self.mac_tx_sent = 0;
        self.mac_rx_accepted = 0;
        self.mac_rx_dropped = 0;
        self.fm_bursts = [0; 4];
        self.fm_bytes = [0; 4];
        self.fm_depth.iter_mut().for_each(DepthHistogram::clear);
    }
}

fn bump(v: &mut Vec<u64>, idx: usize) {
    if v.len() <= idx {
        v.resize(idx + 1, 0);
    }
    v[idx] += 1;
}

impl Probe for Metrics {
    fn emit(&mut self, ev: Event) {
        match ev {
            Event::SpGrant { bank, .. } => bump(&mut self.sp_grants, bank),
            Event::SpConflict { bank, .. } => bump(&mut self.sp_conflicts, bank),
            Event::IcacheAccess { hit, .. } => {
                if hit {
                    self.icache_hits += 1;
                } else {
                    self.icache_misses += 1;
                }
            }
            Event::MailboxWrite { .. } => self.mailbox_writes += 1,
            Event::HostTxPost { .. } => self.host_tx_posted += 1,
            Event::HostRxDeliver { .. } => self.host_rx_delivered += 1,
            Event::DmaStart { dir, .. } => {
                let e = dir as usize;
                self.dma_started[e] += 1;
                self.dma_inflight[e] += 1;
                self.dma_depth[e].record(self.dma_inflight[e]);
            }
            Event::DmaDone { dir, .. } => {
                let e = dir as usize;
                self.dma_done[e] += 1;
                self.dma_inflight[e] = self.dma_inflight[e].saturating_sub(1);
            }
            Event::MacTxFetch { .. } => self.mac_tx_fetched += 1,
            Event::MacTxWireDone { .. } => self.mac_tx_sent += 1,
            Event::MacRxArrival { dropped, .. } => {
                if dropped {
                    self.mac_rx_dropped += 1;
                } else {
                    self.mac_rx_accepted += 1;
                }
            }
            Event::FmBurst {
                stream,
                bytes,
                queued,
                ..
            } => {
                let s = stream.index();
                self.fm_bursts[s] += 1;
                self.fm_bytes[s] += bytes as u64;
                self.fm_depth[s].record(queued);
            }
            Event::WindowReset { .. } => self.reset_window(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmaDir, FmStream};
    use nicsim_sim::Ps;

    #[test]
    fn counts_grants_and_conflicts_per_bank() {
        let mut m = Metrics::new();
        for bank in [0usize, 0, 1, 3] {
            m.emit(Event::SpGrant {
                port: 0,
                bank,
                addr: 0,
                write: false,
                at: Ps::ZERO,
            });
        }
        m.emit(Event::SpConflict {
            port: 1,
            bank: 3,
            at: Ps::ZERO,
        });
        assert_eq!(m.sp_grants(), &[2, 1, 0, 1]);
        assert_eq!(m.sp_conflicts(), &[0, 0, 0, 1]);
    }

    #[test]
    fn icache_hit_rate() {
        let mut m = Metrics::new();
        for hit in [true, true, true, false] {
            m.emit(Event::IcacheAccess {
                core: 0,
                hit,
                at: Ps::ZERO,
            });
        }
        assert_eq!(m.icache_hit_rate(), 0.75);
    }

    #[test]
    fn dma_inflight_histogram() {
        let mut m = Metrics::new();
        let start = |m: &mut Metrics, idx| {
            m.emit(Event::DmaStart {
                dir: DmaDir::Read,
                idx,
                src: 0,
                dst: 0,
                bytes: 64,
                at: Ps::ZERO,
            })
        };
        start(&mut m, 0);
        start(&mut m, 1); // depth 2 while both outstanding
        m.emit(Event::DmaDone {
            dir: DmaDir::Read,
            idx: 0,
            at: Ps(10),
        });
        start(&mut m, 2);
        assert_eq!(m.dma_started()[0], 3);
        assert_eq!(m.dma_done()[0], 1);
        assert_eq!(m.dma_depth()[0].counts()[1], 1);
        assert_eq!(m.dma_depth()[0].counts()[2], 2);
        assert_eq!(m.dma_depth()[0].max(), 2);
    }

    #[test]
    fn window_reset_clears_counters() {
        let mut m = Metrics::new();
        m.emit(Event::FmBurst {
            stream: FmStream::MacRx,
            write: true,
            bytes: 1518,
            start: Ps(0),
            done: Ps(100),
            queued: 1,
        });
        m.emit(Event::WindowReset { at: Ps(200) });
        assert_eq!(m.fm_bursts(), [0; 4]);
        assert_eq!(m.fm_depth()[3].total(), 0);
    }

    #[test]
    fn depth_histogram_clamps() {
        let mut h = DepthHistogram::default();
        h.record(100);
        assert_eq!(h.counts()[DEPTH_BUCKETS - 1], 1);
        assert_eq!(h.max() as usize, DEPTH_BUCKETS - 1);
        assert!(h.mean() > 0.0);
    }
}
