//! External GDDR SDRAM frame memory and the shared 128-bit frame bus.
//!
//! Paper §4: "The PCI interface and MAC unit share a 128-bit bus to access
//! the 64-bit wide external DDR SDRAM. ... A 64-bit wide GDDR SDRAM
//! operating at 500 MHz provides a peak bandwidth of 64 Gb/s, and is able
//! to sustain 40 Gb/s of bandwidth for network traffic."
//!
//! Frame data moves in four 10 Gb/s sequential streams, one per assist
//! (DMA read, DMA write, MAC TX, MAC RX). Each assist buffers up to two
//! maximum-sized frames, so transfers arrive as bursts of up to 1518
//! bytes to consecutive addresses; the controller round-robins whole
//! bursts among the streams, which keeps row activations rare
//! (paper §2.3). Misaligned bursts are padded to 8-byte boundaries and the
//! padding counts as consumed bandwidth, exactly as Table 4 does:
//! "the unused bytes ... [are] lost SDRAM bandwidth that cannot be
//! recovered, so it is counted in the totals."
//!
//! One bus moves one burst at a time, so bursts complete in the order
//! they were granted: each starts at `max(busy_until, submission)` and
//! sets `busy_until` to its own completion time, ECC correction latency
//! included. The pending completions are therefore a FIFO, sorted by
//! construction.

use nicsim_fault::{EccFaults, ErrorStats};
pub use nicsim_obs::FmStream as StreamId;
use nicsim_obs::{Event, FaultKind, FaultUnit, NullProbe, Probe};
use nicsim_sim::{Freq, Ps, RoundRobin};
use std::collections::VecDeque;

/// Frame-memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMemoryConfig {
    /// SDRAM / frame bus clock (paper: 500 MHz).
    pub freq: Freq,
    /// Bytes per bus cycle (128-bit bus + DDR 64-bit SDRAM = 16).
    pub bytes_per_cycle: u64,
    /// Number of SDRAM banks.
    pub banks: u32,
    /// Row (page) size in bytes.
    pub row_bytes: u32,
    /// Cycles to activate a new row (precharge + activate).
    pub row_miss_cycles: u64,
    /// Fixed pipeline latency of any access, in SDRAM cycles.
    pub access_latency_cycles: u64,
    /// Total capacity in bytes.
    pub capacity: u32,
}

impl Default for FrameMemoryConfig {
    fn default() -> Self {
        FrameMemoryConfig {
            freq: Freq::from_mhz(500),
            bytes_per_cycle: 16,
            banks: 4,
            row_bytes: 2048,
            row_miss_cycles: 18,
            access_latency_cycles: 6,
            capacity: 8 * 1024 * 1024,
        }
    }
}

/// A completed burst, delivered by [`FrameMemory::advance`]. It names
/// the burst rather than carrying its bytes: a read's consumer takes
/// them in place with [`FrameMemory::peek`]`(addr, len)`.
#[derive(Debug, Clone)]
pub struct SdramCompletion {
    /// Which stream issued the burst.
    pub stream: StreamId,
    /// Caller-provided tag.
    pub tag: u64,
    /// Completion time.
    pub at: Ps,
    /// First byte of the burst.
    pub addr: u32,
    /// Burst length in bytes.
    pub len: u32,
}

#[derive(Debug)]
struct Burst {
    addr: u32,
    len: u32,
    write: bool,
    tag: u64,
    submitted: Ps,
}

/// The frame-memory controller: per-stream queues, whole-burst round-robin
/// over the shared bus, open-row tracking per bank, and bandwidth meters.
pub struct FrameMemory {
    cfg: FrameMemoryConfig,
    /// SDRAM clock period, cached so per-burst service-time math avoids
    /// re-deriving it from the frequency (an integer division).
    period: Ps,
    data: Vec<u8>,
    queues: [VecDeque<Burst>; 4],
    arbiter: RoundRobin,
    busy_until: Ps,
    open_row: Vec<Option<u32>>,
    /// Serviced bursts not yet handed out, in grant order — which is
    /// completion order, because `busy_until` only moves forward.
    completions: VecDeque<SdramCompletion>,
    /// Optional ECC fault injection: single-bit errors on read bursts,
    /// corrected in place for a fixed extra latency. `None` keeps the
    /// controller bit-identical to a fault-free build (no RNG draws).
    ecc: Option<EccFaults>,
    // stats
    padded_bytes: u64,
    wasted_bytes: u64,
    bursts: u64,
    latency_sum_ps: u64,
    latency_max: Ps,
}

impl FrameMemory {
    /// Create a frame memory with the given configuration.
    pub fn new(cfg: FrameMemoryConfig) -> FrameMemory {
        FrameMemory {
            cfg,
            period: cfg.freq.period(),
            data: vec![0; cfg.capacity as usize],
            queues: Default::default(),
            arbiter: RoundRobin::new(4),
            busy_until: Ps::ZERO,
            open_row: vec![None; cfg.banks as usize],
            completions: VecDeque::new(),
            ecc: None,
            padded_bytes: 0,
            wasted_bytes: 0,
            bursts: 0,
            latency_sum_ps: 0,
            latency_max: Ps::ZERO,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &FrameMemoryConfig {
        &self.cfg
    }

    /// Enable single-bit ECC fault injection on read bursts. Each faulted
    /// burst is corrected in place (data stays intact) but pays
    /// `EccFaults::extra` of additional service latency.
    pub fn set_faults(&mut self, ecc: EccFaults) {
        self.ecc = Some(ecc);
    }

    /// The ECC site's error table, when injection is enabled.
    pub fn fault_stats(&self) -> Option<ErrorStats> {
        self.ecc.as_ref().map(|e| e.stats)
    }

    /// Zero `len` bytes at `addr` directly (no burst, no timing): abort
    /// cleanup for DMA transfers cancelled mid-frame, so stale frame
    /// bytes cannot later validate as goodput.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the capacity.
    pub fn poison(&mut self, addr: u32, len: u32) {
        let end = addr as usize + len as usize;
        assert!(end <= self.data.len(), "frame memory poison out of range");
        self.data[addr as usize..end].fill(0);
    }

    /// Queue a write burst of `bytes` to `addr`, submitted at time `now`.
    /// The data is captured immediately; completion is reported later.
    ///
    /// # Panics
    ///
    /// Panics if the burst exceeds the capacity.
    pub fn submit_write(&mut self, stream: StreamId, addr: u32, bytes: &[u8], tag: u64, now: Ps) {
        let end = addr as usize + bytes.len();
        assert!(end <= self.data.len(), "frame memory write out of range");
        self.data[addr as usize..end].copy_from_slice(bytes);
        self.queues[stream.index()].push_back(Burst {
            addr,
            len: bytes.len() as u32,
            write: true,
            tag,
            submitted: now,
        });
    }

    /// Queue a read burst of `len` bytes from `addr`, submitted at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the burst exceeds the capacity.
    pub fn submit_read(&mut self, stream: StreamId, addr: u32, len: u32, tag: u64, now: Ps) {
        assert!(
            addr as usize + len as usize <= self.data.len(),
            "frame memory read out of range"
        );
        self.queues[stream.index()].push_back(Burst {
            addr,
            len,
            write: false,
            tag,
            submitted: now,
        });
    }

    /// Submission time of the oldest burst still queued on any stream.
    #[inline]
    fn earliest_submission(&self) -> Option<Ps> {
        self.queues
            .iter()
            .filter_map(|q| q.front().map(|b| b.submitted))
            .min()
    }

    fn service_time(&mut self, b: &Burst) -> Ps {
        let start = b.addr & !7;
        let end = (b.addr + b.len + 7) & !7;
        let padded = (end - start) as u64;
        self.padded_bytes += padded;
        self.wasted_bytes += padded - b.len as u64;
        // Row/bank bookkeeping.
        let bank = ((b.addr / self.cfg.row_bytes) % self.cfg.banks) as usize;
        let row = b.addr / (self.cfg.row_bytes * self.cfg.banks);
        let mut cycles = self.cfg.access_latency_cycles;
        if self.open_row[bank] != Some(row) {
            cycles += self.cfg.row_miss_cycles;
            self.open_row[bank] = Some(row);
        }
        cycles += padded.div_ceil(self.cfg.bytes_per_cycle);
        Ps(self.period.0 * cycles)
    }

    /// Advance the controller to `now`: start any bursts whose turn has
    /// come, and return all completions with `at <= now` (in time order).
    pub fn advance(&mut self, now: Ps) -> Vec<SdramCompletion> {
        let mut done = Vec::new();
        self.advance_probed(now, &mut done, &mut NullProbe);
        done
    }

    /// [`FrameMemory::advance`] into the caller's `out` (appended, so a
    /// buffer kept across calls allocates nothing in the steady state),
    /// with probe instrumentation: emits one [`Event::FmBurst`] per
    /// serviced burst, carrying the bus grant and completion times plus
    /// the stream's residual queue depth (frame-memory occupancy).
    pub fn advance_probed<P: Probe>(
        &mut self,
        now: Ps,
        out: &mut Vec<SdramCompletion>,
        probe: &mut P,
    ) {
        // Start bursts while the bus frees up at or before `now`.
        loop {
            let free_at = self.busy_until;
            if free_at > now {
                break;
            }
            // Decision time: when the bus is free AND a request is queued.
            let Some(earliest) = self.earliest_submission() else {
                break;
            };
            let t = free_at.max(earliest);
            if t > now {
                break;
            }
            let queues = &self.queues;
            let winner = self
                .arbiter
                .grant(|s| queues[s].front().is_some_and(|b| b.submitted <= t));
            let Some(s) = winner else { break };
            let burst = self.queues[s].pop_front().expect("winner has burst");
            let dur = self.service_time(&burst);
            let mut done = t + dur;
            // ECC: draw once per read burst at grant time (never per
            // cycle), so the stream of draws is identical in the dense
            // and event-driven kernels. A hit stretches the burst by the
            // fixed correction latency; data is corrected, not lost.
            if !burst.write {
                if let Some(ecc) = self.ecc.as_mut() {
                    if ecc.draw() {
                        done += ecc.extra;
                        if P::ENABLED {
                            probe.emit(Event::Fault {
                                kind: FaultKind::EccSingleBit,
                                unit: FaultUnit::FrameMemory,
                                info: burst.len,
                                at: done,
                            });
                        }
                    }
                }
            }
            self.busy_until = done;
            self.bursts += 1;
            let lat = done - burst.submitted;
            self.latency_sum_ps += lat.0;
            self.latency_max = self.latency_max.max(lat);
            if P::ENABLED {
                probe.emit(Event::FmBurst {
                    stream: StreamId::ALL[s],
                    write: burst.write,
                    bytes: burst.len,
                    start: t,
                    done,
                    queued: self.queues[s].len() as u32,
                });
            }
            debug_assert!(
                self.completions.back().is_none_or(|c| c.at <= done),
                "the bus completes bursts in grant order"
            );
            self.completions.push_back(SdramCompletion {
                stream: StreamId::ALL[s],
                tag: burst.tag,
                at: done,
                addr: burst.addr,
                len: burst.len,
            });
        }
        let ready = self.completions.partition_point(|c| c.at <= now);
        out.extend(self.completions.drain(..ready));
    }

    /// Bytes moved over the bus including alignment padding (Table 4's
    /// consumed frame-memory bandwidth is `padded_bytes` over the window).
    pub fn padded_bytes(&self) -> u64 {
        self.padded_bytes
    }

    /// Bytes of that total that were alignment waste.
    pub fn wasted_bytes(&self) -> u64 {
        self.wasted_bytes
    }

    /// Mean burst latency (submit to completion).
    pub fn mean_latency(&self) -> Ps {
        self.latency_sum_ps
            .checked_div(self.bursts)
            .map_or(Ps::ZERO, Ps)
    }

    /// Maximum burst latency observed.
    pub fn max_latency(&self) -> Ps {
        self.latency_max
    }

    /// The bytes at `addr..addr + len`: how a read burst's consumer
    /// takes the [`SdramCompletion`] it was handed.
    pub fn peek(&self, addr: u32, len: u32) -> &[u8] {
        &self.data[addr as usize..(addr + len) as usize]
    }

    /// Zero the meters (keeps open-row state and queued work).
    pub fn reset_stats(&mut self) {
        self.padded_bytes = 0;
        self.wasted_bytes = 0;
        self.bursts = 0;
        self.latency_sum_ps = 0;
        self.latency_max = Ps::ZERO;
    }

    /// Lower bound on the controller's next state change: the earliest
    /// pending completion, or the start time of the next queued burst
    /// (`max(bus free, submission)`), whichever comes first. Starting a
    /// burst is a state change because it sets `busy_until` and
    /// schedules the completion — [`FrameMemory::advance`] must run at
    /// that instant to keep arbitration decisions time-coherent.
    #[inline]
    pub fn next_event(&self) -> Ps {
        let done = self.completions.front().map_or(Ps::MAX, |c| c.at);
        match self.earliest_submission() {
            Some(e) => done.min(self.busy_until.max(e)),
            None => done,
        }
    }
}

impl std::fmt::Debug for FrameMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameMemory")
            .field("capacity", &self.cfg.capacity)
            .field("bursts", &self.bursts)
            .field("busy_until", &self.busy_until)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fm() -> FrameMemory {
        FrameMemory::new(FrameMemoryConfig::default())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = fm();
        let payload: Vec<u8> = (0..100u8).collect();
        m.submit_write(StreamId::MacRx, 64, &payload, 1, Ps::ZERO);
        let done = m.advance(Ps::from_us(1));
        assert_eq!(done.len(), 1);
        m.submit_read(StreamId::DmaWrite, 64, 100, 2, Ps::from_us(1));
        let done = m.advance(Ps::from_us(2));
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].addr, done[0].len), (64, 100));
        assert_eq!(m.peek(done[0].addr, done[0].len), &payload[..]);
    }

    #[test]
    fn aligned_burst_wastes_nothing() {
        let mut m = fm();
        m.submit_write(StreamId::MacRx, 0, &[0u8; 1024], 0, Ps::ZERO);
        m.advance(Ps::from_us(1));
        assert_eq!(m.wasted_bytes(), 0);
        assert_eq!(m.padded_bytes(), 1024);
    }

    #[test]
    fn misaligned_burst_pads_to_8_bytes() {
        let mut m = fm();
        // 42-byte header at offset 2: pads to [0, 48) = 48 bytes.
        m.submit_write(StreamId::DmaRead, 2, &[0u8; 42], 0, Ps::ZERO);
        m.advance(Ps::from_us(1));
        assert_eq!(m.padded_bytes(), 48);
        assert_eq!(m.wasted_bytes(), 6);
    }

    #[test]
    fn sequential_bursts_share_a_row() {
        let mut m = fm();
        m.submit_write(StreamId::MacRx, 0, &[0u8; 512], 0, Ps::ZERO);
        m.submit_write(StreamId::MacRx, 512, &[0u8; 512], 1, Ps::ZERO);
        let done = m.advance(Ps::from_us(1));
        let c = *m.config();
        let hit = c
            .freq
            .cycles(c.access_latency_cycles + 512 / c.bytes_per_cycle);
        let miss = hit + c.freq.cycles(c.row_miss_cycles);
        assert_eq!(done[0].at, miss, "the first burst opens the row");
        assert_eq!(done[1].at - done[0].at, hit, "the second hits it");
    }

    #[test]
    fn peak_bandwidth_is_64_gbps() {
        // A long aligned burst approaches 16 B/cycle at 500 MHz = 64 Gb/s.
        let mut m = fm();
        let n = 1_048_576u32;
        m.submit_write(StreamId::MacRx, 0, &vec![0u8; n as usize], 0, Ps::ZERO);
        let done = m.advance(Ps::from_ms(10));
        let secs = done[0].at.as_secs_f64();
        let gbps = n as f64 * 8.0 / secs / 1e9;
        assert!(gbps > 63.0 && gbps <= 64.0, "measured {gbps} Gb/s");
    }

    #[test]
    fn round_robin_interleaves_streams() {
        let mut m = fm();
        for i in 0..4u64 {
            m.submit_write(StreamId::MacRx, 4096 * i as u32, &[0u8; 64], i, Ps::ZERO);
            m.submit_read(StreamId::MacTx, 4096 * i as u32, 64, 100 + i, Ps::ZERO);
        }
        let done = m.advance(Ps::from_us(10));
        assert_eq!(done.len(), 8);
        // Streams alternate: no stream gets two grants in a row.
        for w in done.windows(2) {
            assert_ne!(w[0].stream, w[1].stream);
        }
    }

    #[test]
    fn completions_respect_now() {
        let mut m = fm();
        m.submit_write(StreamId::MacRx, 0, &[0u8; 1518], 0, Ps::ZERO);
        // 1518B burst takes ~100+ cycles at 2ns; surely not done in 10ps.
        assert!(m.advance(Ps(10)).is_empty());
        assert_eq!(m.advance(Ps::from_us(1)).len(), 1);
    }

    #[test]
    fn latency_tracking() {
        let mut m = fm();
        m.submit_write(StreamId::MacRx, 0, &[0u8; 64], 0, Ps::ZERO);
        m.advance(Ps::from_us(1));
        assert!(m.mean_latency() > Ps::ZERO);
        assert!(m.max_latency() >= m.mean_latency());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn capacity_enforced() {
        let mut m = fm();
        let cap = m.config().capacity;
        m.submit_write(StreamId::MacRx, cap - 4, &[0u8; 8], 0, Ps::ZERO);
    }

    #[test]
    fn poison_zeroes_range() {
        let mut m = fm();
        m.submit_write(StreamId::MacRx, 16, &[0xaa; 64], 0, Ps::ZERO);
        m.advance(Ps::from_us(1));
        m.poison(16, 64);
        assert!(m.peek(16, 64).iter().all(|&b| b == 0));
    }

    #[test]
    fn ecc_correction_adds_latency_and_counts() {
        use nicsim_fault::{EccFaults, FaultPlan};
        let clean_at = {
            let mut m = fm();
            m.submit_read(StreamId::MacTx, 0, 256, 0, Ps::ZERO);
            m.advance(Ps::from_us(1))[0].at
        };
        let plan = FaultPlan {
            ecc: 1.0,
            ..FaultPlan::default()
        };
        let mut m = fm();
        m.set_faults(EccFaults::new(&plan));
        m.submit_read(StreamId::MacTx, 0, 256, 0, Ps::ZERO);
        let done = m.advance(Ps::from_us(1));
        assert_eq!(done[0].at, clean_at + Ps(8_000), "fixed correction cost");
        assert_eq!(m.fault_stats().unwrap().ecc_corrections, 1);
        // Data is corrected, not corrupted.
        assert_eq!(m.peek(done[0].addr, done[0].len), &[0u8; 256][..]);
    }

    #[test]
    fn zero_rate_ecc_is_timing_neutral() {
        use nicsim_fault::{EccFaults, FaultPlan};
        let clean_at = {
            let mut m = fm();
            m.submit_read(StreamId::DmaWrite, 0, 1518, 0, Ps::ZERO);
            m.advance(Ps::from_us(1))[0].at
        };
        let mut m = fm();
        m.set_faults(EccFaults::new(&FaultPlan::default()));
        m.submit_read(StreamId::DmaWrite, 0, 1518, 0, Ps::ZERO);
        assert_eq!(m.advance(Ps::from_us(1))[0].at, clean_at);
        assert_eq!(m.fault_stats().unwrap().ecc_corrections, 0);
    }
}
