//! The dispatch loop every core runs (Figure 5).
//!
//! The loop walks the work sources in rotating order (offset by core id
//! to spread lock pressure), peeks each source's hardware progress
//! pointer against its claim pointer, and runs the matching handler when
//! work exists. Peeking quiet sources is charged to the idle bucket; the
//! dispatch cost proper — claiming a work bundle, constructing the event
//! structure, ordering and committing frames — is charged inside the
//! handlers to the direction's "Dispatch and Ordering" bucket.

use crate::handlers::HostRegs;
use crate::mode::{peek_bit_pending, peek_work, DispatchMode, Fw};
use nicsim_cpu::{CoreCtx, FwFunc};

/// The work sources the dispatch loop polls for the default topology:
/// the seven hardware progress pointers plus the three pending-commit
/// checks that guarantee a frame marked complete is committed even when
/// no further completions arrive. Extra DMA engines append two sources
/// each (their read and write done counters) after these, so the
/// default scan order is unchanged.
const N_SOURCES: usize = 10;

impl Fw {
    /// How many sources this topology's dispatch loop scans.
    pub fn n_sources(&self) -> usize {
        N_SOURCES + 2 * (self.m.n_dma as usize - 1)
    }

    /// An instruction fault fired as the handler was about to run: abort
    /// before any handler state changes (the claimed work simply stays
    /// pending and the next scan retries it) and charge the core-restart
    /// penalty — pipeline flush, fault vector, state re-load. Counts as
    /// work done so an interrupt-mode core re-scans instead of parking.
    async fn fw_fault_abort(&self) -> bool {
        let ctx = &self.ctx;
        ctx.branch_miss().await; // vectored into the fault handler
        ctx.alu(64).await; // save/restore + restart sequence
        true
    }

    async fn run_source(&self, src: usize, host: &HostRegs) -> bool {
        let ctx = &self.ctx;
        let m = &self.m;
        // Polling a quiet source is idle time; the dispatch cost proper
        // (claim, event construction, ordering) is charged inside the
        // handlers. Sources past the fixed ten are the extra engines'
        // completion counters, two per engine: even offsets are the
        // read side, odd the write side.
        ctx.set_func(FwFunc::Idle);
        let extra = src.checked_sub(N_SOURCES);
        let eng = 1 + extra.unwrap_or(0) / 2;
        debug_assert!(
            extra.is_none() || eng < m.n_dma as usize,
            "source out of range"
        );
        let extra_read = extra.is_some_and(|k| k.is_multiple_of(2));
        let has_work = match src {
            0 => peek_work(ctx, m.sb_mailbox_prod, m.sb_fetched).await,
            1 => peek_work(ctx, m.dmard_done, m.dmard_claim).await,
            2 => peek_work(ctx, m.sbd_parsed, m.sbd_cons).await,
            3 => peek_work(ctx, m.mactx_done, m.send_txdone_claim).await,
            4 => peek_work(ctx, m.rb_mailbox_prod, m.rb_fetched).await,
            5 => peek_work(ctx, m.macrx_prod, m.recv_claim).await,
            6 => peek_work(ctx, m.dmawr_done, m.dmawr_claim).await,
            7 => peek_bit_pending(ctx, m.send_ready_bits, m.send_ready_commit).await,
            8 => peek_bit_pending(ctx, m.send_txdone_bits, m.send_txdone_commit).await,
            9 => peek_bit_pending(ctx, m.recv_done_bits, m.recv_commit).await,
            _ if extra_read => peek_work(ctx, m.dmard(eng).done, m.dmard(eng).claim).await,
            _ => peek_work(ctx, m.dmawr(eng).done, m.dmawr(eng).claim).await,
        };
        if !has_work {
            return false;
        }
        if self.fw_fault_fires().await {
            return self.fw_fault_abort().await;
        }
        match src {
            0 => return self.fetch_send_bds(host).await,
            1 => return self.process_dmard_completions(0).await,
            2 => return self.send_frames().await,
            3 => return self.process_mactx_done(host).await,
            4 => return self.fetch_recv_bds(host).await,
            5 => return self.recv_frames().await,
            6 => return self.process_dmawr_completions(0, host).await,
            7 => self.commit_send_ready().await,
            8 => self.commit_txdone(host).await,
            9 => self.commit_recv(host).await,
            _ if extra_read => return self.process_dmard_completions(eng).await,
            _ => return self.process_dmawr_completions(eng, host).await,
        }
        true
    }
}

/// The firmware entry point: run the dispatch loop on `ctx` until the
/// system sets the stop flag.
pub async fn dispatch_loop(ctx: CoreCtx, fw: Fw, host: HostRegs) {
    let n_sources = fw.n_sources();
    let mut rot = ctx.core_id() % n_sources;
    loop {
        ctx.set_func(FwFunc::Idle);
        let stop = ctx.load(fw.m.stop_flag).await;
        ctx.alu(1).await;
        if stop != 0 {
            ctx.branch_miss().await;
            return;
        }
        ctx.branch().await;
        let mut did_work = false;
        for s in 0..n_sources {
            let src = (rot + s) % n_sources;
            if fw.run_source(src, &host).await {
                did_work = true;
            }
        }
        rot = (rot + 1) % n_sources;
        if !did_work {
            ctx.set_func(FwFunc::Idle);
            match fw.dispatch {
                DispatchMode::Polling => {
                    // Nothing anywhere: a short idle spin before
                    // re-polling.
                    ctx.alu(4).await;
                    ctx.branch_miss().await;
                }
                DispatchMode::Interrupt => {
                    // Nothing anywhere: park until a doorbell write
                    // raises the wake line. The scan above is the only
                    // consumer-side check needed — any write that could
                    // make a future peek succeed lands on a watched
                    // word, and the wake line is sticky, so a doorbell
                    // racing this wfi is never lost.
                    ctx.wfi().await;
                }
            }
        }
    }
}
