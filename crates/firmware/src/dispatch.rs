//! The dispatch loop every core runs (Figure 5).
//!
//! The loop walks the work sources in rotating order (offset by core id
//! to spread lock pressure), peeks each source's hardware progress
//! pointer against its claim pointer, and runs the matching handler when
//! work exists. Peeking quiet sources is charged to the idle bucket; the
//! dispatch cost proper — claiming a work bundle, constructing the event
//! structure, ordering and committing frames — is charged inside the
//! handlers to the direction's "Dispatch and Ordering" bucket.

use crate::mode::{peek_bit_pending, peek_work, DispatchMode, Fw};
use nicsim_cpu::FwFunc;

/// The work sources the dispatch loop polls for the default topology:
/// the seven hardware progress pointers plus the three pending-commit
/// checks that guarantee a frame marked complete is committed even when
/// no further completions arrive. Extra DMA engines append two sources
/// each (their read and write done counters) after these, so the
/// default scan order is unchanged.
const N_SOURCES: usize = 10;

impl Fw {
    /// Draw the per-core instruction-fault site, if armed (draw-free
    /// when unarmed), and report whether it fired. A fault aborts before
    /// any handler state changes — the claimed work simply stays pending
    /// and the next scan retries it — and charges the core-restart
    /// penalty: pipeline flush, fault vector, state re-load. The site's
    /// error table is read by the system's `collect()`, so the
    /// draw waits for the engine to catch up with the firmware.
    async fn fw_fault(&self) -> bool {
        let Some(site) = &self.fw_faults else {
            return false;
        };
        self.ctx.sync().await;
        if !site.borrow_mut().fires() {
            return false;
        }
        self.ctx.branch_miss().await; // vectored into the fault handler
        self.ctx.alu(64).await; // save/restore + restart sequence
        true
    }

    async fn run_source(&self, src: usize) -> bool {
        let ctx = &self.ctx;
        let m = &self.m;
        // Polling a quiet source is idle time; the dispatch cost proper
        // (claim, event construction, ordering) is charged inside the
        // handlers.
        ctx.set_func(FwFunc::Idle);
        // One source: the peek that says it has work, one draw of the
        // instruction-fault site, then the handler that consumes it. An
        // aborted handler counts as work done, so an interrupt-mode core
        // re-scans instead of parking.
        macro_rules! source {
            ($peek:expr => $handler:expr) => {{
                if !$peek.await {
                    return false;
                }
                if self.fw_fault().await {
                    return true;
                }
                $handler.await
            }};
        }
        let work = |avail, claim| peek_work(ctx, avail, claim);
        let bit = |bits, commit| peek_bit_pending(ctx, bits, commit);
        let (rd0, wr0) = (m.dmard(0), m.dmawr(0));
        match src {
            0 => source!(work(m.sb_mailbox_prod, m.sb_fetched) => self.fetch_send_bds()),
            1 => source!(work(rd0.done, rd0.claim) => self.process_dmard_completions(0)),
            2 => source!(work(m.sbd_parsed, m.sbd_cons) => self.send_frames()),
            3 => source!(work(m.mactx_done, m.send_txdone_claim) => self.process_mactx_done()),
            4 => source!(work(m.rb_mailbox_prod, m.rb_fetched) => self.fetch_recv_bds()),
            5 => source!(work(m.macrx_prod, m.recv_claim) => self.recv_frames()),
            6 => source!(work(wr0.done, wr0.claim) => self.process_dmawr_completions(0)),
            7 => {
                source!(bit(m.send_ready_bits, m.send_ready_commit) => self.commit_send_ready());
                true
            }
            8 => {
                source!(bit(m.send_txdone_bits, m.send_txdone_commit) => self.commit_txdone());
                true
            }
            9 => {
                source!(bit(m.recv_done_bits, m.recv_commit) => self.commit_recv());
                true
            }
            _ => {
                // Past the fixed ten: the extra engines' completion
                // counters, two per engine, the read side first.
                let k = src - N_SOURCES;
                let eng = 1 + k / 2;
                if k.is_multiple_of(2) {
                    let d = m.dmard(eng);
                    source!(work(d.done, d.claim) => self.process_dmard_completions(eng))
                } else {
                    let d = m.dmawr(eng);
                    source!(work(d.done, d.claim) => self.process_dmawr_completions(eng))
                }
            }
        }
    }
}

/// The firmware entry point: run the dispatch loop on `fw`'s core until
/// the system sets the stop flag.
pub async fn dispatch_loop(fw: Fw) {
    let ctx = &fw.ctx;
    let n_sources = N_SOURCES + 2 * (fw.m.n_dma as usize - 1);
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
            if fw.run_source(src).await {
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
