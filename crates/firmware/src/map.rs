//! The scratchpad memory map: the control-data structures shared by
//! firmware and hardware assists.
//!
//! Everything here is frame *metadata* — descriptors, rings, progress
//! counters, status bits, locks. The total footprint is well under the
//! paper's observation that "the frame metadata ... [fits] entirely in
//! 100 KB" (§2.3), and all of it lives in the 256 KB scratchpad.

/// Number of in-flight frame slots per direction (also the size of each
/// status bit array, in bits).
pub const SLOTS: u32 = 256;
/// Most DMA engine pairs a topology may instantiate.
pub const MAX_DMA_ENGINES: usize = 4;
/// Most MACs a topology may instantiate.
pub const MAX_MACS: usize = 2;
/// Entries in each DMA command ring. Sized above the structural bound
/// on outstanding commands (frame slots x fragments + BD batches) so the
/// producers' full-ring spin is a backstop, never the steady state.
pub const DMA_RING: u32 = 1024;
/// Entries in the MAC TX ring.
pub const MACTX_RING: u32 = 512;
/// Entries in the MAC RX descriptor ring.
pub const MACRX_RING: u32 = 512;
/// Capacity of the raw and parsed buffer-descriptor caches, in BDs.
pub const BD_CACHE: u32 = 1024;
/// Entries in the return-descriptor staging ring.
pub const STAGING: u32 = 1024;
/// Send BDs fetched per DMA ("Fetch Send BD ... 32 descriptors").
pub const SEND_BD_BATCH: u32 = 32;
/// Receive BDs fetched per DMA ("Fetch Receive BD ... 16 descriptors").
pub const RECV_BD_BATCH: u32 = 16;
/// Bytes reserved per frame in the transmit region of the frame memory.
pub const TX_SLOT_BYTES: u32 = 1600;
/// Base of the transmit region in the frame memory.
pub const TXBUF_BASE: u32 = 0;
/// Base of the receive region in the frame memory.
pub const RXBUF_BASE: u32 = 0x40_0000;
/// Size of the receive region (circular).
pub const RXBUF_BYTES: u32 = 0x20_0000;

/// Command-info kinds recorded by firmware alongside each DMA command.
pub mod info {
    /// No completion action.
    pub const NOP: u32 = 0;
    /// A batch of send BDs arrived; argument = BD count.
    pub const SEND_BD_BATCH: u32 = 1;
    /// The last fragment of a send frame arrived; argument = slot index.
    pub const SEND_FRAME_LAST: u32 = 2;
    /// A batch of receive BDs arrived; argument = BD count.
    pub const RX_BD_BATCH: u32 = 3;
    /// A received frame's payload reached the host; argument = slot index.
    pub const RECV_PAYLOAD: u32 = 4;

    /// Pack a kind and argument into an info word.
    pub fn pack(kind: u32, arg: u32) -> u32 {
        (kind << 24) | (arg & 0x00ff_ffff)
    }

    /// Unpack an info word.
    pub fn unpack(word: u32) -> (u32, u32) {
        (word >> 24, word & 0x00ff_ffff)
    }

    /// Pack a BD-batch info argument: the batch's starting BD index
    /// (truncated to 18 bits, ample for ordering comparisons) and its
    /// length. Batches must be parsed in index order even though their
    /// completions may be claimed by different cores concurrently.
    pub fn pack_batch(start: u32, count: u32) -> u32 {
        debug_assert!(count < 64);
        ((start & 0x3ffff) << 6) | count
    }

    /// Unpack a BD-batch argument into `(start18, count)`.
    pub fn unpack_batch(arg: u32) -> (u32, u32) {
        ((arg >> 6) & 0x3ffff, arg & 0x3f)
    }
}

/// Register and ring addresses of one DMA command interface (one
/// direction of one engine). Engine 0's interface aliases the legacy
/// scalar `MemMap` fields; extra engines get fresh allocations past the
/// default map's end, so the default topology's map is byte-identical
/// to the single-engine layout.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaIf {
    /// Producer lock (guards ring claim + doorbell).
    pub lock: u32,
    /// Completion-claim lock.
    pub lock_claim: u32,
    /// Command producer (doorbell, firmware-written).
    pub prod: u32,
    /// Done counter (hardware-written).
    pub done: u32,
    /// Completions claimed by firmware.
    pub claim: u32,
    /// Command ring (`DMA_RING` x 4 words).
    pub ring: u32,
    /// Firmware info words parallel to the ring.
    pub info: u32,
}

/// Register and ring addresses of one MAC (TX + RX side). MAC 0
/// aliases the legacy scalar fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacIf {
    /// MAC TX ring (`MACTX_RING` x 4 words).
    pub tx_ring: u32,
    /// MAC TX ring producer.
    pub tx_prod: u32,
    /// MAC TX done counter (hardware-written).
    pub tx_done: u32,
    /// MAC RX descriptor ring (`MACRX_RING` x 4 words).
    pub rx_ring: u32,
    /// MAC RX descriptor producer (hardware-written).
    pub rx_prod: u32,
}

/// All scratchpad addresses (bytes, word-aligned). Built by a linear
/// allocator so regions can never overlap.
#[derive(Debug, Clone, Copy)]
pub struct MemMap {
    // ---- locks ----
    /// Guards the send-mailbox fetch state.
    pub lock_sb_fetch: u32,
    /// Guards the receive-mailbox fetch state.
    pub lock_rb_fetch: u32,
    /// Guards the DMA-read command ring producer.
    pub lock_dmard: u32,
    /// Guards the DMA-write command ring producer.
    pub lock_dmawr: u32,
    /// Guards send-BD consumption and send-slot allocation.
    pub lock_sbd: u32,
    /// Guards send-BD parsing (raw cache -> parsed pool).
    pub lock_sbd_parse: u32,
    /// Guards receive-BD parsing.
    pub lock_rbd_parse: u32,
    /// Guards the receive claim (arrived frames -> slots).
    pub lock_rxclaim: u32,
    /// Guards the DMA-read completion claim.
    pub lock_dmard_claim: u32,
    /// Guards the DMA-write completion claim.
    pub lock_dmawr_claim: u32,
    /// Guards the MAC-TX completion claim.
    pub lock_mactx_claim: u32,
    /// Send ready-commit lock (also protects `send_ready_bits` in
    /// software-only mode).
    pub lock_send_ready_commit: u32,
    /// Send txdone-commit lock.
    pub lock_send_txdone_commit: u32,
    /// Receive commit lock.
    pub lock_recv_commit: u32,

    // ---- counters (all monotonic u32) ----
    /// Send mailbox: BDs posted by the driver (register mirror).
    pub sb_mailbox_prod: u32,
    /// Send BDs whose fetch DMA has been issued.
    pub sb_fetched: u32,
    /// Send BDs parsed into the pool.
    pub sbd_parsed: u32,
    /// Send BDs consumed (always in pairs).
    pub sbd_cons: u32,
    /// Send frames committed to the MAC TX ring.
    pub send_ready_commit: u32,
    /// MAC TX completions claimed.
    pub send_txdone_claim: u32,
    /// Send frames fully completed (in order).
    pub send_txdone_commit: u32,
    /// Receive mailbox: BDs posted by the driver (register mirror).
    pub rb_mailbox_prod: u32,
    /// Receive BDs whose fetch DMA has been issued.
    pub rb_fetched: u32,
    /// Receive BDs parsed into the pool.
    pub rbd_parsed: u32,
    /// Receive BDs consumed.
    pub rbd_cons: u32,
    /// Arrived frames claimed into slots (MAC RX reads this for ring
    /// space).
    pub recv_claim: u32,
    /// Received frames returned to the host (in order).
    pub recv_commit: u32,
    /// DMA-read completions claimed.
    pub dmard_claim: u32,
    /// DMA-write completions claimed.
    pub dmawr_claim: u32,
    /// Set by the system to stop the dispatch loops.
    pub stop_flag: u32,
    /// Receive-buffer bytes retired (MAC RX reads this as the free tail).
    pub rxbuf_tail: u32,

    // ---- hardware ring pointers ----
    /// DMA-read command producer (doorbell).
    pub dmard_prod: u32,
    /// DMA-read done counter (hardware-written).
    pub dmard_done: u32,
    /// DMA-write command producer.
    pub dmawr_prod: u32,
    /// DMA-write done counter.
    pub dmawr_done: u32,
    /// MAC TX ring producer.
    pub mactx_prod: u32,
    /// MAC TX done counter.
    pub mactx_done: u32,
    /// MAC RX descriptor producer (hardware-written).
    pub macrx_prod: u32,

    // ---- regions ----
    /// DMA-read command ring (`DMA_RING` x 4 words).
    pub dmard_ring: u32,
    /// Firmware info words parallel to the DMA-read ring.
    pub dmard_info: u32,
    /// DMA-write command ring.
    pub dmawr_ring: u32,
    /// Firmware info words parallel to the DMA-write ring.
    pub dmawr_info: u32,
    /// MAC TX ring (`MACTX_RING` x 4 words: addr, len, flags, seq).
    pub mactx_ring: u32,
    /// MAC RX descriptor ring (`MACRX_RING` x 4 words: addr, len,
    /// status, checksum info).
    pub macrx_ring: u32,
    /// Raw send BDs as DMA'd from the host (`BD_CACHE` x 4 words).
    pub sbd_raw: u32,
    /// Raw receive BDs.
    pub rbd_raw: u32,
    /// Parsed send BDs (`BD_CACHE` x 4 words: host addr, len|flags,
    /// seq, checksum info).
    pub sbd_pool: u32,
    /// Parsed receive buffers (`BD_CACHE` x 2 words: host addr, len).
    pub rbd_pool: u32,
    /// Send frame slots (`SLOTS` x 8 words).
    pub send_slots: u32,
    /// Receive frame slots (`SLOTS` x 8 words).
    pub recv_slots: u32,
    /// Send ready status bits (`SLOTS` bits).
    pub send_ready_bits: u32,
    /// Send txdone status bits.
    pub send_txdone_bits: u32,
    /// Receive done status bits.
    pub recv_done_bits: u32,
    /// Return-descriptor staging ring (`STAGING` x 4 words).
    pub staging: u32,
    /// Firmware statistics counters (16 words).
    pub stats: u32,
    /// Per-core event-structure scratch (16 cores x 8 words) — the event
    /// data structures of Figure 5 are built here before processing.
    pub event_scratch: u32,

    // ---- topology (`NicConfig::topology`) ----
    /// Instantiated DMA engine pairs (1..=`MAX_DMA_ENGINES`).
    pub n_dma: u32,
    /// Instantiated MACs (1..=`MAX_MACS`).
    pub n_macs: u32,
    /// Per-engine DMA-read interfaces (`0..n_dma` populated; entry 0
    /// aliases the legacy scalar fields).
    pub dmard_if: [DmaIf; MAX_DMA_ENGINES],
    /// Per-engine DMA-write interfaces.
    pub dmawr_if: [DmaIf; MAX_DMA_ENGINES],
    /// Per-MAC interfaces (`0..n_macs` populated; entry 0 aliases the
    /// legacy scalar fields).
    pub mac_if: [MacIf; MAX_MACS],

    /// Total bytes used.
    pub end: u32,
}

impl MemMap {
    /// Build the default (one DMA engine pair, one MAC) map.
    pub fn new() -> MemMap {
        MemMap::for_topology(1, 1)
    }

    /// Build the map for a topology with `dma_engines` DMA engine pairs
    /// and `macs` MACs, with a linear allocator starting at address 0.
    ///
    /// Unit 0 of each kind occupies the legacy layout; extra units are
    /// appended after it, so `for_topology(1, 1)` is byte-identical to
    /// the single-engine, single-MAC map.
    ///
    /// # Panics
    ///
    /// If `dma_engines` or `macs` is zero or above its `MAX_*` bound
    /// (validated earlier by `NicConfig::validate`).
    pub fn for_topology(dma_engines: usize, macs: usize) -> MemMap {
        assert!((1..=MAX_DMA_ENGINES).contains(&dma_engines));
        assert!((1..=MAX_MACS).contains(&macs));
        let mut cur = 0u32;
        let mut word = || {
            let a = cur;
            cur += 4;
            a
        };
        let lock_sb_fetch = word();
        let lock_rb_fetch = word();
        let lock_dmard = word();
        let lock_dmawr = word();
        let lock_sbd = word();
        let lock_sbd_parse = word();
        let lock_rbd_parse = word();
        let lock_rxclaim = word();
        let lock_dmard_claim = word();
        let lock_dmawr_claim = word();
        let lock_mactx_claim = word();
        let lock_send_ready_commit = word();
        let lock_send_txdone_commit = word();
        let lock_recv_commit = word();
        let sb_mailbox_prod = word();
        let sb_fetched = word();
        let sbd_parsed = word();
        let sbd_cons = word();
        let send_ready_commit = word();
        let send_txdone_claim = word();
        let send_txdone_commit = word();
        let rb_mailbox_prod = word();
        let rb_fetched = word();
        let rbd_parsed = word();
        let rbd_cons = word();
        let recv_claim = word();
        let recv_commit = word();
        let dmard_claim = word();
        let dmawr_claim = word();
        let stop_flag = word();
        let rxbuf_tail = word();
        let dmard_prod = word();
        let dmard_done = word();
        let dmawr_prod = word();
        let dmawr_done = word();
        let mactx_prod = word();
        let mactx_done = word();
        let macrx_prod = word();
        let mut region = |bytes: u32| {
            let a = cur;
            cur += bytes;
            a
        };
        let dmard_ring = region(DMA_RING * 16);
        let dmard_info = region(DMA_RING * 4);
        let dmawr_ring = region(DMA_RING * 16);
        let dmawr_info = region(DMA_RING * 4);
        let mactx_ring = region(MACTX_RING * 16);
        let macrx_ring = region(MACRX_RING * 16);
        let sbd_raw = region(BD_CACHE * 16);
        let rbd_raw = region(BD_CACHE * 16);
        let sbd_pool = region(BD_CACHE * 16);
        let rbd_pool = region(BD_CACHE * 8);
        let send_slots = region(SLOTS * 32);
        let recv_slots = region(SLOTS * 32);
        let send_ready_bits = region(SLOTS / 8);
        let send_txdone_bits = region(SLOTS / 8);
        let recv_done_bits = region(SLOTS / 8);
        let staging = region(STAGING * 16);
        let stats = region(16 * 4);
        let event_scratch = region(16 * 32);

        // Per-unit interface tables. Unit 0 aliases the legacy scalar
        // fields above; extra units allocate past the default map's end
        // so the default layout never moves.
        let mut dmard_if = [DmaIf::default(); MAX_DMA_ENGINES];
        let mut dmawr_if = [DmaIf::default(); MAX_DMA_ENGINES];
        dmard_if[0] = DmaIf {
            lock: lock_dmard,
            lock_claim: lock_dmard_claim,
            prod: dmard_prod,
            done: dmard_done,
            claim: dmard_claim,
            ring: dmard_ring,
            info: dmard_info,
        };
        dmawr_if[0] = DmaIf {
            lock: lock_dmawr,
            lock_claim: lock_dmawr_claim,
            prod: dmawr_prod,
            done: dmawr_done,
            claim: dmawr_claim,
            ring: dmawr_ring,
            info: dmawr_info,
        };
        for k in 1..dma_engines {
            for table in [&mut dmard_if, &mut dmawr_if] {
                table[k] = DmaIf {
                    lock: region(4),
                    lock_claim: region(4),
                    prod: region(4),
                    done: region(4),
                    claim: region(4),
                    ring: region(DMA_RING * 16),
                    info: region(DMA_RING * 4),
                };
            }
        }
        let mut mac_if = [MacIf::default(); MAX_MACS];
        mac_if[0] = MacIf {
            tx_ring: mactx_ring,
            tx_prod: mactx_prod,
            tx_done: mactx_done,
            rx_ring: macrx_ring,
            rx_prod: macrx_prod,
        };
        for m in mac_if.iter_mut().take(macs).skip(1) {
            *m = MacIf {
                tx_prod: region(4),
                tx_done: region(4),
                rx_prod: region(4),
                tx_ring: region(MACTX_RING * 16),
                rx_ring: region(MACRX_RING * 16),
            };
        }
        MemMap {
            lock_sb_fetch,
            lock_rb_fetch,
            lock_dmard,
            lock_dmawr,
            lock_sbd,
            lock_sbd_parse,
            lock_rbd_parse,
            lock_rxclaim,
            lock_dmard_claim,
            lock_dmawr_claim,
            lock_mactx_claim,
            lock_send_ready_commit,
            lock_send_txdone_commit,
            lock_recv_commit,
            sb_mailbox_prod,
            sb_fetched,
            sbd_parsed,
            sbd_cons,
            send_ready_commit,
            send_txdone_claim,
            send_txdone_commit,
            rb_mailbox_prod,
            rb_fetched,
            rbd_parsed,
            rbd_cons,
            recv_claim,
            recv_commit,
            dmard_claim,
            dmawr_claim,
            stop_flag,
            rxbuf_tail,
            dmard_prod,
            dmard_done,
            dmawr_prod,
            dmawr_done,
            mactx_prod,
            mactx_done,
            macrx_prod,
            dmard_ring,
            dmard_info,
            dmawr_ring,
            dmawr_info,
            mactx_ring,
            macrx_ring,
            sbd_raw,
            rbd_raw,
            sbd_pool,
            rbd_pool,
            send_slots,
            recv_slots,
            send_ready_bits,
            send_txdone_bits,
            recv_done_bits,
            staging,
            stats,
            event_scratch,
            n_dma: dma_engines as u32,
            n_macs: macs as u32,
            dmard_if,
            dmawr_if,
            mac_if,
            end: cur,
        }
    }

    /// DMA-read interface of engine `k`.
    pub fn dmard(&self, k: usize) -> &DmaIf {
        debug_assert!(k < self.n_dma as usize);
        &self.dmard_if[k]
    }

    /// DMA-write interface of engine `k`.
    pub fn dmawr(&self, k: usize) -> &DmaIf {
        debug_assert!(k < self.n_dma as usize);
        &self.dmawr_if[k]
    }

    /// Interface of MAC `j`.
    pub fn mac(&self, j: usize) -> &MacIf {
        debug_assert!(j < self.n_macs as usize);
        &self.mac_if[j]
    }

    /// Statistics word offsets within the stats block.
    pub fn stat(&self, idx: u32) -> u32 {
        debug_assert!(idx < 16);
        self.stats + idx * 4
    }

    /// Event-structure scratch area of one core.
    pub fn event_area(&self, core: usize) -> u32 {
        self.event_scratch + (core as u32 % 16) * 32
    }

    /// Address of send slot `seq % SLOTS`.
    pub fn send_slot(&self, seq: u32) -> u32 {
        self.send_slots + (seq % SLOTS) * 32
    }

    /// Address of receive slot `seq % SLOTS`.
    pub fn recv_slot(&self, seq: u32) -> u32 {
        self.recv_slots + (seq % SLOTS) * 32
    }
}

impl Default for MemMap {
    fn default() -> Self {
        MemMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_the_scratchpad_and_metadata_budget() {
        let m = MemMap::new();
        assert!(m.end <= 256 * 1024, "must fit the 256 KB scratchpad");
        assert!(
            m.end <= 160 * 1024,
            "metadata should stay near the paper's ~100 KB working set \
             (our DMA rings are deliberately deep), got {}",
            m.end
        );
    }

    #[test]
    fn regions_are_orderly() {
        let m = MemMap::new();
        assert!(m.dmard_ring < m.dmard_info);
        assert!(m.event_scratch + 512 == m.end);
        assert_eq!(m.send_slot(0), m.send_slots);
        assert_eq!(m.send_slot(SLOTS), m.send_slots, "slots wrap");
        assert_eq!(m.recv_slot(3), m.recv_slots + 96);
    }

    #[test]
    fn unit_zero_interfaces_alias_legacy_fields() {
        let m = MemMap::new();
        assert_eq!(m.dmard(0).ring, m.dmard_ring);
        assert_eq!(m.dmard(0).prod, m.dmard_prod);
        assert_eq!(m.dmard(0).done, m.dmard_done);
        assert_eq!(m.dmard(0).claim, m.dmard_claim);
        assert_eq!(m.dmawr(0).lock, m.lock_dmawr);
        assert_eq!(m.dmawr(0).lock_claim, m.lock_dmawr_claim);
        assert_eq!(m.mac(0).tx_ring, m.mactx_ring);
        assert_eq!(m.mac(0).tx_done, m.mactx_done);
        assert_eq!(m.mac(0).rx_prod, m.macrx_prod);
    }

    #[test]
    fn extra_units_append_after_the_default_map() {
        let base = MemMap::new();
        let big = MemMap::for_topology(2, 2);
        // The legacy layout never moves.
        assert_eq!(big.event_scratch, base.event_scratch);
        assert_eq!(big.dmard_ring, base.dmard_ring);
        assert_eq!(big.dmard(0).ring, base.dmard(0).ring);
        // Extra units live past the default end, word-aligned.
        assert!(big.end > base.end);
        for addr in [
            big.dmard(1).lock,
            big.dmard(1).ring,
            big.dmawr(1).info,
            big.mac(1).tx_ring,
            big.mac(1).rx_prod,
        ] {
            assert!(addr >= base.end);
            assert_eq!(addr % 4, 0);
        }
        // The sweep range (2 engines, 2 MACs) fits the paper's 256 KB
        // scratchpad; the max topology needs a bigger one, which
        // `NicConfig::validate` enforces against `scratchpad_bytes`.
        assert!(big.end <= 256 * 1024, "got {}", big.end);
        let max = MemMap::for_topology(MAX_DMA_ENGINES, MAX_MACS);
        assert!(max.end > big.end);
    }

    #[test]
    fn info_words_roundtrip() {
        let w = info::pack(info::SEND_FRAME_LAST, 123);
        assert_eq!(info::unpack(w), (info::SEND_FRAME_LAST, 123));
    }

    #[test]
    fn all_words_are_aligned() {
        let m = MemMap::new();
        for a in [
            m.lock_sbd,
            m.sb_mailbox_prod,
            m.macrx_prod,
            m.staging,
            m.send_ready_bits,
        ] {
            assert_eq!(a % 4, 0);
        }
    }
}
