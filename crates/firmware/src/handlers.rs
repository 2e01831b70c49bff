//! The NIC-processing handlers (Figures 1 and 2, steps as labeled).
//!
//! Handlers are grouped by the paper's Table 1/5 functions:
//!
//! * **Fetch Send BD** and **Fetch Receive BD** — one buffer-descriptor
//!   path serves both directions: `fetch_bds` issues the DMA for newly
//!   mailboxed BDs (32 send BDs per DMA, Fig. 1 step 3; 16 receive BDs)
//!   into the direction's raw cache, and each arrived batch is parsed
//!   into its pool in index order. Only the per-BD parse bodies differ.
//! * **Send Frame** — turn BD pairs into frame slots, DMA the header and
//!   payload into the transmit buffer (step 4), hand ready frames to the
//!   MAC in order (step 5), and notify the host on completion (step 6).
//! * **Receive Frame** — pair arrived frames with preallocated host
//!   buffers, DMA the contents to the host (Fig. 2 step 2), and produce
//!   in-order return descriptors and the status update (steps 3–4).
//! * **Dispatch and Ordering / Locking** — the claim machinery (one
//!   completion claim serves both DMA directions), status bits, commit
//!   scans, and spinlocks, charged separately so the RMW-vs-software
//!   comparison of Tables 5/6 falls out.
//!
//! ALU charges model the straight-line arithmetic (address generation,
//! field packing, validation) the Tigon-II-derived handlers perform
//! around each memory access.

use crate::map::{
    info, BdIf, DmaIf, BD_CACHE, DMA_RING, MACRX_RING, MACTX_RING, RXBUF_BYTES, SLOTS, STAGING,
    TXBUF_BASE, TX_SLOT_BYTES,
};
use crate::mode::{claim_range, commit_scan, lock, mark_bit, try_lock, unlock, Fw, FwMode};
use nicsim_assists::cmd::{FLAG_IMM, FLAG_SP};
use nicsim_cpu::FwFunc;

/// Work units claimed per completion-processing pass.
pub const CLAIM_BATCH: u32 = 8;
/// BD-cache entries held back by the fetch guard. A handler claims pool
/// entries under the claim lock but reads them afterwards; the slack
/// keeps the parser from overwriting a claimed-but-not-yet-read entry
/// (it must cover every core's in-flight claim: `FRAME_BATCH x
/// MAX_CORES`).
pub const BD_POOL_SLACK: u32 = 64;
/// Frames claimed per send/receive frame pass.
pub const FRAME_BATCH: u32 = 4;
/// Most cores the firmware is sized for: `BD_POOL_SLACK` and
/// `MACRX_CLAIM_SLACK` cover `FRAME_BATCH` in-flight claims per core,
/// and the memory map holds one event-structure area per core.
pub const MAX_CORES: usize = (BD_POOL_SLACK / FRAME_BATCH) as usize;
const _: () = assert!(crate::map::MACRX_CLAIM_SLACK >= FRAME_BATCH * MAX_CORES as u32);

// Straight-line instruction weights of the Tigon-II-derived handler
// bodies (validation, byte swapping, field extraction, statistics),
// calibrated so the idealized per-function profile reproduces Table 1's
// anchors: ~282 instructions per sent frame and ~253 per received frame
// (229 / 206 MIPS at 812,744 frames/s). See EXPERIMENTS.md.
/// Per-BD validation/swap work when parsing send BDs.
pub const CAL_PARSE_SBD: u32 = 16;
/// Per-BD work when parsing receive BDs.
pub const CAL_PARSE_RBD: u32 = 22;
/// Per-frame work preparing a send frame (fragment split, checks).
pub const CAL_SEND_PREP: u32 = 42;
/// Per-frame work when a send frame's data is ready.
pub const CAL_SEND_READY: u32 = 10;
/// Per-frame work at transmit completion.
pub const CAL_SEND_DONE: u32 = 26;
/// Per-frame work preparing a receive frame.
pub const CAL_RECV_PREP: u32 = 50;
/// Per-frame work at receive commit (return descriptor construction).
pub const CAL_RECV_COMMIT: u32 = 42;

/// One DMA command to push: encoded words plus the firmware info word.
type Cmd = ([u32; 4], u32);

impl Fw {
    /// The tag for dispatch/ordering work of `frame`'s direction
    /// (`SendFrame` or `RecvFrame`). In ideal mode this work belongs to
    /// the frame function itself (Table 1 has no dispatch rows).
    fn dispatch_tag(&self, frame: FwFunc) -> FwFunc {
        match (self.mode, frame.is_send()) {
            (FwMode::Ideal, _) => frame,
            (_, true) => FwFunc::SendDispatch,
            (_, false) => FwFunc::RecvDispatch,
        }
    }

    /// Push commands onto a DMA ring, spinning (briefly) if the ring is
    /// full. Ring space is measured against the firmware's *claim*
    /// counter, not the hardware done counter: an entry (and its info
    /// word) may only be reused once its completion has been consumed.
    /// The spin cannot deadlock, because completions are eventually
    /// claimed by whichever core polls the source.
    async fn dma_push(&self, d: &DmaIf, cmds: &[Cmd]) {
        let ctx = &self.ctx;
        // Field packing and address generation happen before the lock is
        // taken, keeping the critical section to the ring stores only.
        ctx.alu(3 * cmds.len() as u32 + 2).await;
        lock(ctx, self.mode, d.lock).await;
        loop {
            let prod = ctx.load(d.prod).await;
            let claimed = ctx.load(d.claim).await;
            ctx.alu(2).await;
            if prod.wrapping_sub(claimed) + cmds.len() as u32 <= DMA_RING {
                ctx.branch().await;
                let mut p = prod;
                for (w, inf) in cmds {
                    let base = d.ring + (p % DMA_RING) * 16;
                    for (k, word) in w.iter().enumerate() {
                        ctx.store(base + k as u32 * 4, *word).await;
                    }
                    ctx.store(d.info + (p % DMA_RING) * 4, *inf).await;
                    p = p.wrapping_add(1);
                }
                ctx.store(d.prod, p).await; // doorbell
                break;
            }
            // Ring full: retry until the engine drains.
            ctx.branch_miss().await;
            ctx.alu(2).await;
        }
        unlock(ctx, self.mode, d.lock).await;
    }

    /// Pick the DMA engine for work unit `x` (a fetch counter or frame
    /// sequence number). Striping is address decoding — part of the
    /// command construction already charged — so it costs no cycles,
    /// and with one engine it always resolves to engine 0, keeping the
    /// default topology bit-identical.
    fn stripe(&self, x: u32) -> usize {
        (x % self.m.n_dma) as usize
    }

    // ------------------------------------------------------------------
    // Buffer descriptors (both directions)
    // ------------------------------------------------------------------

    /// Fetch Send/Receive BD, issue side: DMA up to `bd.batch` newly
    /// mailboxed BDs from the host ring at `host_ring` into `bd`'s raw
    /// cache (Fig. 1 step 3), charged to `func`.
    pub async fn fetch_bds(&self, bd: &BdIf, func: FwFunc, host_ring: u32) -> bool {
        let ctx = &self.ctx;
        ctx.set_func(func);
        lock(ctx, self.mode, bd.lock_fetch).await;
        let prod = ctx.load(bd.mailbox_prod).await;
        let fetched = ctx.load(bd.fetched).await;
        let cons = ctx.load(bd.cons).await;
        ctx.alu(5).await; // available/capacity arithmetic
        let avail = prod.wrapping_sub(fetched);
        // A raw/pool entry may be reused only after its BD is consumed
        // AND read; the slack covers claimed-but-unread entries.
        let cache_free = (BD_CACHE - BD_POOL_SLACK).saturating_sub(fetched.wrapping_sub(cons));
        let ring_space = BD_CACHE - fetched % BD_CACHE;
        let batch = avail.min(bd.batch).min(cache_free).min(ring_space);
        if batch == 0 {
            ctx.branch_miss().await;
            unlock(ctx, self.mode, bd.lock_fetch).await;
            return false;
        }
        ctx.branch().await;
        ctx.alu(6).await; // host/destination address generation
        let idx = fetched % BD_CACHE;
        let cmd = [
            host_ring + idx * 16,
            bd.raw + idx * 16,
            (batch * 16) | FLAG_SP,
            0,
        ];
        let inf = info::pack(bd.kind, info::pack_batch(fetched, batch));
        let d = self.m.dmard(self.stripe(fetched));
        self.dma_push(d, &[(cmd, inf)]).await;
        ctx.set_func(func);
        ctx.store(bd.fetched, fetched.wrapping_add(batch)).await;
        unlock(ctx, self.mode, bd.lock_fetch).await;
        true
    }

    /// Fetch BD, arrival side, prologue: take `bd`'s parse lock at the
    /// batch starting at `start18` and return the parse counter. Batches
    /// are parsed in BD-index order: if an earlier batch is still being
    /// parsed by another core, spin until it finishes. The caller parses
    /// (validation and byte order, as the Tigon firmware does), advances
    /// `bd.parsed` and releases the lock.
    async fn parse_turn(&self, bd: &BdIf, start18: u32) -> u32 {
        let ctx = &self.ctx;
        lock(ctx, self.mode, bd.lock_parse).await;
        let mut parsed = ctx.load(bd.parsed).await;
        while parsed & 0x3ffff != start18 {
            // An earlier batch has not been parsed yet: yield the lock.
            unlock(ctx, self.mode, bd.lock_parse).await;
            ctx.alu(3).await;
            ctx.branch_miss().await;
            lock(ctx, self.mode, bd.lock_parse).await;
            parsed = ctx.load(bd.parsed).await;
        }
        ctx.alu(2).await;
        parsed
    }

    /// Fetch Send BD, arrival side: parse a batch of raw send BDs into
    /// the pool.
    async fn parse_send_bds(&self, start18: u32, count: u32) {
        let ctx = &self.ctx;
        ctx.set_func(FwFunc::FetchSendBd);
        let bd = &self.m.send_bd;
        let parsed = self.parse_turn(bd, start18).await;
        for k in 0..count {
            let i = parsed.wrapping_add(k) % BD_CACHE;
            let (raw, pool) = (bd.raw + i * 16, bd.pool + i * 16);
            let addr = ctx.load(raw).await;
            let len = ctx.load(raw + 4).await;
            let flags = ctx.load(raw + 8).await;
            let seq = ctx.load(raw + 12).await;
            ctx.alu(CAL_PARSE_SBD).await; // validate flags, swap, pack
            ctx.branch().await;
            ctx.branch_miss().await; // descriptor-type dispatch
            ctx.store(pool, addr).await;
            ctx.store(pool + 4, (len & 0xffff) | (flags << 28)).await;
            ctx.store(pool + 8, seq).await;
            ctx.store(pool + 12, 0).await; // checksum info
            ctx.load(raw + 4).await; // chain/len recheck
            ctx.store(raw + 8, 0).await; // consume-mark the raw BD
        }
        ctx.store(bd.parsed, parsed.wrapping_add(count)).await;
        unlock(ctx, self.mode, bd.lock_parse).await;
    }

    /// Fetch Receive BD, arrival side: parse a batch of raw receive BDs
    /// into the buffer pool.
    async fn parse_recv_bds(&self, start18: u32, count: u32) {
        let ctx = &self.ctx;
        ctx.set_func(FwFunc::FetchRecvBd);
        let bd = &self.m.recv_bd;
        let parsed = self.parse_turn(bd, start18).await;
        for k in 0..count {
            let i = parsed.wrapping_add(k) % BD_CACHE;
            let (raw, pool) = (bd.raw + i * 16, bd.pool + i * 8);
            let addr = ctx.load(raw).await;
            let len = ctx.load(raw + 4).await;
            ctx.load(raw + 8).await; // flags
            ctx.alu(CAL_PARSE_RBD).await;
            ctx.branch().await;
            ctx.branch_miss().await; // pool-class selection
            ctx.store(pool, addr).await;
            ctx.store(pool + 4, len).await;
            ctx.store(raw + 8, 0).await; // consume-mark
        }
        ctx.store(bd.parsed, parsed.wrapping_add(count)).await;
        unlock(ctx, self.mode, bd.lock_parse).await;
    }

    // ------------------------------------------------------------------
    // Send path
    // ------------------------------------------------------------------

    /// Send Frame, start side: claim parsed BD pairs, allocate frame
    /// slots and transmit-buffer space, and DMA the header and payload
    /// into the frame memory (Fig. 1 step 4).
    pub async fn send_frames(&self) -> bool {
        let ctx = &self.ctx;
        ctx.set_func(FwFunc::SendFrame);
        let m = &self.m;
        let bd = &m.send_bd;
        lock(ctx, self.mode, m.lock_sbd).await;
        let parsed = ctx.load(bd.parsed).await;
        let cons = ctx.load(bd.cons).await;
        let txdone = ctx.load(m.send_txdone_commit).await;
        ctx.alu(5).await;
        let pairs = parsed.wrapping_sub(cons) / 2;
        let seq0 = cons / 2;
        let free_slots = SLOTS - seq0.wrapping_sub(txdone);
        let batch = pairs.min(free_slots).min(FRAME_BATCH);
        if batch == 0 {
            ctx.branch_miss().await;
            unlock(ctx, self.mode, m.lock_sbd).await;
            return false;
        }
        ctx.branch().await;
        ctx.store(bd.cons, cons.wrapping_add(batch * 2)).await;
        unlock(ctx, self.mode, m.lock_sbd).await;
        for f in 0..batch {
            let seq = seq0.wrapping_add(f);
            let sidx = seq % SLOTS;
            let i0 = (cons.wrapping_add(2 * f)) % BD_CACHE;
            let i1 = (cons.wrapping_add(2 * f + 1)) % BD_CACHE;
            let haddr = ctx.load(bd.pool + i0 * 16).await;
            let hlen = ctx.load(bd.pool + i0 * 16 + 4).await;
            let hseq = ctx.load(bd.pool + i0 * 16 + 8).await;
            let paddr = ctx.load(bd.pool + i1 * 16).await;
            let plen = ctx.load(bd.pool + i1 * 16 + 4).await;
            let _csum = ctx.load(bd.pool + i1 * 16 + 12).await;
            ctx.alu(CAL_SEND_PREP).await; // fragment split, flag checks, dest compute
            ctx.branch().await;
            ctx.branch_miss().await; // fragment-count dispatch
            ctx.branch_miss().await; // option flags
            let hlen = hlen & 0xffff;
            let plen = plen & 0xffff;
            let sdram = TXBUF_BASE + sidx * TX_SLOT_BYTES;
            let slot = m.send_slot(seq);
            ctx.store(slot, haddr).await;
            ctx.store(slot + 4, paddr).await;
            ctx.store(slot + 16, sdram).await;
            ctx.store(slot + 20, hlen + plen).await;
            ctx.store(slot + 8, 0).await; // checksum offload info
            ctx.store(slot + 12, 0).await; // option flags

            // The *host's* frame sequence number, not the slot counter:
            // downstream this word only feeds the MAC TX ring's
            // observability field, and fleet runs namespace it by source
            // NIC (legacy runs post the two in lockstep, so the values
            // coincide there).
            ctx.store(slot + 24, hseq).await;
            ctx.store(slot + 28, 1).await; // state: fragments in flight
            let prev_slot = m.send_slot(seq.wrapping_sub(1));
            ctx.load(prev_slot + 28).await; // neighbour-slot sanity check, as Tigon does
            ctx.load(m.send_txdone_commit).await; // slot-reuse fence
            ctx.branch_miss().await; // reuse-fence branch
            let st = ctx.load(m.stat(0)).await; // tx frames started
            ctx.store(m.stat(0), st.wrapping_add(1)).await;
            // Header and payload ride the same engine: the frame is
            // ready only when its *last* fragment completes, and the
            // in-engine FIFO guarantees that order.
            self.dma_push(
                m.dmard(self.stripe(seq)),
                &[
                    ([haddr, sdram, hlen, 0], info::pack(info::NOP, 0)),
                    (
                        [paddr, sdram + hlen, plen, 0],
                        info::pack(info::SEND_FRAME_LAST, sidx),
                    ),
                ],
            )
            .await;
            ctx.set_func(FwFunc::SendFrame);
        }
        true
    }

    /// Send Frame, ready side: the frame's last fragment reached the
    /// transmit buffer; mark it and commit any in-order prefix to the MAC
    /// (Fig. 1 step 5).
    async fn send_frame_ready(&self, sidx: u32) {
        let ctx = &self.ctx;
        ctx.set_func(FwFunc::SendFrame);
        ctx.alu(CAL_SEND_READY).await;
        let slot = self.m.send_slots + sidx * 32;
        let st = ctx.load(slot + 28).await;
        ctx.store(slot + 28, st | 2).await; // state: data ready
        mark_bit(
            ctx,
            self.mode,
            self.m.send_ready_bits,
            sidx,
            self.m.lock_send_ready_commit,
            self.dispatch_tag(FwFunc::SendFrame),
        )
        .await;
        self.commit_send_ready().await;
    }

    /// Send ordering: advance the ready-commit pointer over consecutive
    /// ready frames and append them to the MAC TX ring, in frame order.
    pub async fn commit_send_ready(&self) {
        let ctx = &self.ctx;
        ctx.set_func(self.dispatch_tag(FwFunc::SendFrame));
        let m = &self.m;
        if !try_lock(ctx, self.mode, m.lock_send_ready_commit).await {
            // Another core is committing; it (or the dispatch loop's
            // pending check) will pick up our frames.
            return;
        }
        let commit0 = ctx.load(m.send_ready_commit).await;
        let mut prod = ctx.load(m.mactx_prod).await;
        let done = ctx.load(m.mactx_done).await; // ring-space verification
        ctx.alu(4).await;
        debug_assert!(prod.wrapping_sub(done) <= MACTX_RING);
        ctx.branch_miss().await; // space-branch resolves late
        let mut commit = commit0;
        loop {
            let run = commit_scan(ctx, self.mode, m.send_ready_bits, commit).await;
            if run == 0 {
                ctx.branch_miss().await;
                break;
            }
            ctx.branch().await;
            for k in 0..run {
                // Handing a frame to the MAC is Send Frame work
                // (Fig. 1 step 5); only the scan and pointer updates
                // around this loop are ordering overhead.
                ctx.set_func(FwFunc::SendFrame);
                let seq = commit.wrapping_add(k);
                let slot = m.send_slot(seq);
                let addr = ctx.load(slot + 16).await;
                let len = ctx.load(slot + 20).await;
                let fseq = ctx.load(slot + 24).await;
                ctx.alu(14).await; // entry construction, pointer math
                ctx.branch().await;
                ctx.branch_miss().await; // ring-wrap check
                let e = m.mactx_ring + (prod % MACTX_RING) * 16;
                ctx.store(e, addr).await;
                ctx.store(e + 4, len).await;
                ctx.store(e + 8, 0).await; // flags
                ctx.store(e + 12, fseq).await;
                prod = prod.wrapping_add(1);
            }
            ctx.set_func(self.dispatch_tag(FwFunc::SendFrame));
            commit = commit.wrapping_add(run);
        }
        if commit != commit0 {
            ctx.store(m.mactx_prod, prod).await; // hardware pointer update
            ctx.store(m.send_ready_commit, commit).await;
        }
        ctx.alu(1).await;
        unlock(ctx, self.mode, m.lock_send_ready_commit).await;
    }

    /// Send Frame, completion side: claim MAC TX completions, mark each
    /// frame done, and commit the in-order prefix back to the host
    /// (Fig. 1 step 6).
    pub async fn process_mactx_done(&self) -> bool {
        let ctx = &self.ctx;
        let m = &self.m;
        let (start, n) = self
            .claim_completions(
                m.lock_mactx_claim,
                m.mactx_done,
                m.send_txdone_claim,
                FwFunc::SendFrame,
            )
            .await;
        if n == 0 {
            return false;
        }
        for k in 0..n {
            let seq = start.wrapping_add(k);
            ctx.set_func(FwFunc::SendFrame);
            let slot = m.send_slot(seq);
            let _state = ctx.load(slot + 28).await;
            ctx.alu(CAL_SEND_DONE).await; // statistics, slot cleanup
            ctx.store(slot + 28, 0).await; // state: free
            let st = ctx.load(m.stat(1)).await; // tx frames completed
            ctx.store(m.stat(1), st.wrapping_add(1)).await;
            let len = ctx.load(slot + 20).await;
            let bytes = ctx.load(m.stat(4)).await; // tx byte counter
            ctx.store(m.stat(4), bytes.wrapping_add(len)).await;
            ctx.branch().await;
            ctx.branch_miss().await; // coalescing decision
            mark_bit(
                ctx,
                self.mode,
                m.send_txdone_bits,
                seq % SLOTS,
                m.lock_send_txdone_commit,
                self.dispatch_tag(FwFunc::SendFrame),
            )
            .await;
        }
        self.commit_txdone().await;
        true
    }

    /// Send ordering: advance the txdone commit pointer and notify the
    /// host of the new send consumer index ("committing a frame only
    /// requires a pointer update").
    pub async fn commit_txdone(&self) {
        let ctx = &self.ctx;
        ctx.set_func(self.dispatch_tag(FwFunc::SendFrame));
        let m = &self.m;
        if !try_lock(ctx, self.mode, m.lock_send_txdone_commit).await {
            return;
        }
        let commit0 = ctx.load(m.send_txdone_commit).await;
        ctx.alu(1).await;
        let mut commit = commit0;
        loop {
            let run = commit_scan(ctx, self.mode, m.send_txdone_bits, commit).await;
            if run == 0 {
                ctx.branch_miss().await;
                break;
            }
            ctx.branch().await;
            ctx.alu(6 * run).await; // per-frame completion bookkeeping
            commit = commit.wrapping_add(run);
        }
        if commit != commit0 {
            ctx.store(m.send_txdone_commit, commit).await;
            ctx.alu(2).await;
            // Host notification: completed BD count, as an immediate DMA.
            // Pinned to engine 0: the status word is a monotonic counter
            // overwrite, and cross-engine reordering could publish a
            // stale (smaller) value last.
            self.dma_push(
                m.dmawr(0),
                &[(
                    [
                        commit.wrapping_mul(2),
                        self.host.send_cons(),
                        4 | FLAG_IMM,
                        0,
                    ],
                    info::pack(info::NOP, 0),
                )],
            )
            .await;
            ctx.set_func(self.dispatch_tag(FwFunc::SendFrame));
        }
        ctx.alu(1).await;
        unlock(ctx, self.mode, m.lock_send_txdone_commit).await;
    }

    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Receive Frame, start side: claim arrived frames, pair each with a
    /// preallocated host buffer, and DMA the contents to the host
    /// (Fig. 2 step 2).
    pub async fn recv_frames(&self) -> bool {
        let ctx = &self.ctx;
        ctx.set_func(FwFunc::RecvFrame);
        let m = &self.m;
        let bd = &m.recv_bd;
        lock(ctx, self.mode, m.lock_rxclaim).await;
        let prod = ctx.load(m.macrx_prod).await;
        let claim = ctx.load(m.recv_claim).await;
        let rparsed = ctx.load(bd.parsed).await;
        let rcons = ctx.load(bd.cons).await;
        let commit = ctx.load(m.recv_commit).await;
        ctx.alu(6).await;
        let avail = prod.wrapping_sub(claim);
        let bufs = rparsed.wrapping_sub(rcons);
        let free_slots = SLOTS - claim.wrapping_sub(commit);
        let batch = avail.min(bufs).min(free_slots).min(FRAME_BATCH);
        if batch == 0 {
            ctx.branch_miss().await;
            unlock(ctx, self.mode, m.lock_rxclaim).await;
            return false;
        }
        ctx.branch().await;
        ctx.store(m.recv_claim, claim.wrapping_add(batch)).await;
        ctx.store(bd.cons, rcons.wrapping_add(batch)).await;
        unlock(ctx, self.mode, m.lock_rxclaim).await;
        for f in 0..batch {
            let seq = claim.wrapping_add(f);
            let sidx = seq % SLOTS;
            let e = m.macrx_ring + (seq % MACRX_RING) * 16;
            let addr = ctx.load(e).await;
            let len = ctx.load(e + 4).await;
            let status = ctx.load(e + 8).await;
            let _csum = ctx.load(e + 12).await;
            let pi = rcons.wrapping_add(f) % BD_CACHE;
            let hbuf = ctx.load(bd.pool + pi * 8).await;
            let _blen = ctx.load(bd.pool + pi * 8 + 4).await;
            ctx.alu(CAL_RECV_PREP).await; // length checks, slot setup
            ctx.branch().await;
            ctx.branch_miss().await; // status/error dispatch
            ctx.branch_miss().await; // buffer-size class
            if status != 1 {
                // CRC-error descriptor: the MAC dropped the payload, so
                // there is nothing to DMA. Consume the BD and the slot
                // anyway — ordering stays intact — flag the return
                // descriptor so the driver recycles the buffer, and mark
                // the frame done immediately (no completion will come).
                ctx.alu(8).await; // error statistics, flag packing
                let st = ctx.load(m.stat(2)).await;
                ctx.store(m.stat(2), st.wrapping_add(1)).await;
                let slot = m.recv_slot(seq);
                ctx.store(slot, addr).await;
                ctx.store(slot + 4, len).await;
                ctx.store(slot + 8, hbuf).await;
                ctx.store(slot + 12, seq).await;
                ctx.store(slot + 16, 0).await;
                ctx.store(slot + 20, 1).await; // error flag
                ctx.store(slot + 28, 2).await; // state: settled, no DMA
                mark_bit(
                    ctx,
                    self.mode,
                    m.recv_done_bits,
                    sidx,
                    m.lock_recv_commit,
                    self.dispatch_tag(FwFunc::RecvFrame),
                )
                .await;
                ctx.set_func(FwFunc::RecvFrame);
                continue;
            }
            let st = ctx.load(m.stat(2)).await; // rx frames started
            ctx.store(m.stat(2), st.wrapping_add(1)).await;
            ctx.load(m.recv_commit).await; // slot-reuse fence
            ctx.branch_miss().await; // reuse-fence branch
            let slot = m.recv_slot(seq);
            ctx.store(slot, addr).await;
            ctx.store(slot + 4, len).await;
            ctx.store(slot + 8, hbuf).await;
            ctx.store(slot + 12, seq).await;
            ctx.store(slot + 16, 0).await; // checksum verdict
            ctx.store(slot + 20, 0).await; // vlan/option flags
            ctx.store(slot + 28, 1).await; // state: DMA in flight
            let bytes = ctx.load(m.stat(5)).await; // rx byte counter
            ctx.store(m.stat(5), bytes.wrapping_add(len)).await;
            self.dma_push(
                m.dmawr(self.stripe(seq)),
                &[([addr, hbuf, len, 0], info::pack(info::RECV_PAYLOAD, sidx))],
            )
            .await;
            ctx.set_func(FwFunc::RecvFrame);
        }
        true
    }

    /// Receive completion side: claim engine `eng`'s DMA-write
    /// completions, mark frames whose payload reached the host, and
    /// commit the in-order prefix.
    pub async fn process_dmawr_completions(&self, eng: usize) -> bool {
        let (ctx, m) = (&self.ctx, &self.m);
        let d = m.dmawr(eng);
        let (start, n) = self
            .claim_completions(d.lock_claim, d.done, d.claim, FwFunc::RecvFrame)
            .await;
        if n == 0 {
            return false;
        }
        let mut any = false;
        for idx in (0..n).map(|k| start.wrapping_add(k)) {
            let (kind, arg) = self.completion(d, idx, FwFunc::RecvFrame).await;
            if kind == info::RECV_PAYLOAD {
                ctx.set_func(FwFunc::RecvFrame);
                let slot = m.recv_slots + arg * 32;
                let st = ctx.load(slot + 28).await;
                let _csum = ctx.load(slot + 16).await;
                ctx.alu(12).await; // statistics, state transition
                ctx.store(slot + 28, st | 2).await;
                mark_bit(
                    ctx,
                    self.mode,
                    m.recv_done_bits,
                    arg,
                    m.lock_recv_commit,
                    self.dispatch_tag(FwFunc::RecvFrame),
                )
                .await;
                any = true;
            } else {
                ctx.alu(1).await;
            }
        }
        if any {
            self.commit_recv().await;
        }
        true
    }

    /// Receive ordering: advance the receive commit pointer over
    /// consecutive completed frames, stage their return descriptors, DMA
    /// them to the host return ring in order, retire receive-buffer
    /// space, and update the return producer (Fig. 2 steps 3–4).
    pub async fn commit_recv(&self) {
        let ctx = &self.ctx;
        ctx.set_func(self.dispatch_tag(FwFunc::RecvFrame));
        let m = &self.m;
        if !try_lock(ctx, self.mode, m.lock_recv_commit).await {
            return;
        }
        let commit0 = ctx.load(m.recv_commit).await;
        let tail0 = ctx.load(m.rxbuf_tail).await;
        ctx.alu(2).await;
        let mut commit = commit0;
        let mut tail = tail0;
        loop {
            let run = commit_scan(ctx, self.mode, m.recv_done_bits, commit).await;
            if run == 0 {
                ctx.branch_miss().await;
                break;
            }
            ctx.branch().await;
            for k in 0..run {
                // Producing the return descriptor is Receive Frame work
                // (Fig. 2 step 3).
                ctx.set_func(FwFunc::RecvFrame);
                let seq = commit.wrapping_add(k);
                let slot = m.recv_slot(seq);
                let hbuf = ctx.load(slot + 8).await;
                let len = ctx.load(slot + 4).await;
                let _sdram = ctx.load(slot).await;
                let fseq = ctx.load(slot + 12).await;
                ctx.store(slot + 28, 0).await; // state: free
                ctx.alu(CAL_RECV_COMMIT).await; // descriptor fields + allocator mirror
                ctx.alu(8).await; // in-order bookkeeping
                ctx.branch().await;
                ctx.branch_miss().await; // buffer-retire wrap check
                let st = m.staging + (seq % STAGING) * 16;
                ctx.store(st, hbuf).await;
                ctx.store(st + 4, len).await;
                ctx.store(st + 8, fseq).await;
                ctx.store(st + 12, 0).await; // flags / vlan
                let flags = ctx.load(slot + 20).await;
                if flags != 0 {
                    // Error frame: patch the staged return descriptor so
                    // the driver sees the flag and recycles the buffer.
                    ctx.alu(1).await;
                    ctx.store(st + 12, flags).await;
                }
                let sw = ctx.load(m.stat(3)).await; // rx frames returned
                ctx.store(m.stat(3), sw.wrapping_add(1)).await;
                ctx.set_func(self.dispatch_tag(FwFunc::RecvFrame));
                if flags != 0 {
                    // No buffer was allocated for a CRC-dropped frame —
                    // the MAC never advanced its head, so the tail must
                    // not move either.
                    ctx.branch().await;
                } else {
                    // Mirror the MAC RX allocator to retire buffer bytes.
                    let off = tail % RXBUF_BYTES;
                    if off + 2 + len > RXBUF_BYTES {
                        tail = tail.wrapping_add(RXBUF_BYTES - off);
                        ctx.alu(1).await;
                    }
                    tail = tail.wrapping_add((2 + len + 7) & !7);
                }
            }
            // DMA the staged return descriptors (split at ring wrap).
            let mut first = commit;
            let mut remaining = run;
            while remaining > 0 {
                let i = first % STAGING;
                let cnt = remaining.min(STAGING - i);
                ctx.alu(4).await;
                // Pinned to engine 0 together with the return-producer
                // update below: the driver reads descriptors up to the
                // producer, so descriptor data must land strictly before
                // the producer does — a single engine's FIFO gives that.
                self.dma_push(
                    m.dmawr(0),
                    &[(
                        [
                            m.staging + i * 16,
                            self.host.return_ring + i * 16,
                            (cnt * 16) | FLAG_SP,
                            0,
                        ],
                        info::pack(info::NOP, 0),
                    )],
                )
                .await;
                ctx.set_func(self.dispatch_tag(FwFunc::RecvFrame));
                first = first.wrapping_add(cnt);
                remaining -= cnt;
            }
            commit = commit.wrapping_add(run);
        }
        if commit != commit0 {
            ctx.store(m.recv_commit, commit).await;
            ctx.store(m.rxbuf_tail, tail).await;
            ctx.alu(2).await;
            self.dma_push(
                m.dmawr(0),
                &[(
                    [commit, self.host.ret_prod(), 4 | FLAG_IMM, 0],
                    info::pack(info::NOP, 0),
                )],
            )
            .await;
            ctx.set_func(self.dispatch_tag(FwFunc::RecvFrame));
        }
        ctx.alu(1).await;
        unlock(ctx, self.mode, m.lock_recv_commit).await;
    }

    // ------------------------------------------------------------------
    // DMA completions (both directions)
    // ------------------------------------------------------------------

    /// Claim up to `CLAIM_BATCH` completions of the unit whose done
    /// counter is `done` (claimed under `lock` through the `claim`
    /// counter), charged to the dispatch tag of `frame`'s direction;
    /// returns `(start, n)`.
    async fn claim_completions(
        &self,
        lock: u32,
        done: u32,
        claim: u32,
        frame: FwFunc,
    ) -> (u32, u32) {
        let ctx = &self.ctx;
        ctx.set_func(self.dispatch_tag(frame));
        claim_range(
            ctx,
            self.mode,
            lock,
            done,
            claim,
            CLAIM_BATCH,
            self.m.event_area(ctx.core_id()),
        )
        .await
    }

    /// Read claimed completion `idx`'s info word and do its event
    /// bookkeeping; returns the unpacked `(kind, arg)`. The bookkeeping
    /// is frame processing, not ordering (Table 5 charges only
    /// claims/scans/pointers to "Dispatch and Ordering"), so it is
    /// charged to `frame`.
    async fn completion(&self, d: &DmaIf, idx: u32, frame: FwFunc) -> (u32, u32) {
        let ctx = &self.ctx;
        ctx.set_func(self.dispatch_tag(frame));
        let inf = ctx.load(d.info + (idx % DMA_RING) * 4).await;
        if self.mode.locking() {
            ctx.set_func(frame);
            let ev = self.m.event_area(ctx.core_id());
            ctx.load(ev + 8).await; // event range
            ctx.load(ev + 4).await; // range start
            ctx.alu(17).await; // event bookkeeping, retry checks
            ctx.branch_miss().await; // retry-path decision
        } else {
            ctx.alu(5).await;
        }
        ctx.branch().await;
        ctx.branch_miss().await; // handler-type dispatch
        info::unpack(inf)
    }

    /// Claim engine `eng`'s DMA-read completions and dispatch each by
    /// its info kind (send BD batches, send frame fragments, receive BD
    /// batches).
    pub async fn process_dmard_completions(&self, eng: usize) -> bool {
        let d = self.m.dmard(eng);
        let (start, n) = self
            .claim_completions(d.lock_claim, d.done, d.claim, FwFunc::SendFrame)
            .await;
        if n == 0 {
            return false;
        }
        for idx in (0..n).map(|k| start.wrapping_add(k)) {
            match self.completion(d, idx, FwFunc::SendFrame).await {
                (info::SEND_BD_BATCH, arg) => {
                    let (start, count) = info::unpack_batch(arg);
                    self.parse_send_bds(start, count).await;
                }
                (info::SEND_FRAME_LAST, arg) => self.send_frame_ready(arg).await,
                (info::RX_BD_BATCH, arg) => {
                    let (start, count) = info::unpack_batch(arg);
                    self.parse_recv_bds(start, count).await;
                }
                _ => {
                    self.ctx.alu(1).await;
                }
            }
        }
        true
    }
}
