//! The dispatch loop every core runs (Figure 5).
//!
//! The loop walks the work sources in rotating order (offset by core id
//! to spread lock pressure), peeks each source's hardware progress
//! pointer against its claim pointer, and runs the matching handler when
//! work exists. Peeking quiet sources is charged to the idle bucket; the
//! dispatch cost proper — claiming a work bundle, constructing the event
//! structure, ordering and committing frames — is charged inside the
//! handlers to the direction's "Dispatch and Ordering" bucket.

use crate::map::{MemMap, SLOTS};
use crate::mode::{peek_bit_pending, peek_work, DispatchMode, Fw};
use nicsim_cpu::FwFunc;

/// What the scan peeks to see whether a source has work.
#[derive(Debug, Clone, Copy)]
enum Peek {
    /// A progress counter ahead of the firmware's claim counter.
    Work { avail: u32, claim: u32 },
    /// The status bit at a commit pointer set: a frame marked complete
    /// is committed even when no further completions arrive.
    Bit { bits: u32, commit: u32 },
}

/// What a source with work runs.
#[derive(Debug, Clone, Copy)]
enum Handler {
    FetchSendBds,
    DmaRdDone(usize),
    SendFrames,
    MacTxDone,
    FetchRecvBds,
    RecvFrames,
    DmaWrDone(usize),
    CommitSendReady,
    CommitTxDone,
    CommitRecv,
}

type Source = (Peek, Handler);

/// The work sources in scan order: the seven hardware progress pointers
/// and three pending-commit checks of the default topology, then two
/// per extra DMA engine (its read and write done counters), so the
/// default order never moves. The scan, its length and the
/// interrupt-mode doorbells all come from this one list.
fn sources(m: &MemMap) -> impl Iterator<Item = Source> + '_ {
    use Handler::*;
    let work = |avail, claim| Peek::Work { avail, claim };
    let bit = |bits, commit| Peek::Bit { bits, commit };
    let dma = move |k: usize| {
        let (rd, wr) = (m.dmard(k), m.dmawr(k));
        [
            (work(rd.done, rd.claim), DmaRdDone(k)),
            (work(wr.done, wr.claim), DmaWrDone(k)),
        ]
    };
    let [dmard0, dmawr0] = dma(0);
    let (sb, rb) = (&m.send_bd, &m.recv_bd);
    [
        (work(sb.mailbox_prod, sb.fetched), FetchSendBds),
        dmard0,
        (work(sb.parsed, sb.cons), SendFrames),
        (work(m.mactx_done, m.send_txdone_claim), MacTxDone),
        (work(rb.mailbox_prod, rb.fetched), FetchRecvBds),
        (work(m.macrx_prod, m.recv_claim), RecvFrames),
        dmawr0,
        (bit(m.send_ready_bits, m.send_ready_commit), CommitSendReady),
        (bit(m.send_txdone_bits, m.send_txdone_commit), CommitTxDone),
        (bit(m.recv_done_bits, m.recv_commit), CommitRecv),
    ]
    .into_iter()
    .chain((1..m.n_dma as usize).flat_map(dma))
}

/// The interrupt-mode doorbells, as `(address, bytes)`: the stop flag
/// and every location whose write can make a peek of the scan succeed —
/// each source's progress counter or status-bit array. Claim counters,
/// commit pointers and locks are not among them: writes to them only
/// ever *consume* work, and the write that produced the work already
/// woke every core.
pub fn doorbell_words(m: &MemMap) -> impl Iterator<Item = (u32, u32)> + '_ {
    let peeked = sources(m).map(|(peek, _)| match peek {
        Peek::Work { avail, .. } => (avail, 4),
        Peek::Bit { bits, .. } => (bits, SLOTS / 8),
    });
    [(m.stop_flag, 4)].into_iter().chain(peeked)
}

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

    /// One source: the peek that says it has work, one draw of the
    /// instruction-fault site, then the handler that consumes it. An
    /// aborted handler counts as work done, so an interrupt-mode core
    /// re-scans instead of parking.
    async fn run_source(&self, (peek, handler): Source) -> bool {
        let ctx = &self.ctx;
        // Polling a quiet source is idle time; the dispatch cost proper
        // (claim, event construction, ordering) is charged inside the
        // handlers.
        ctx.set_func(FwFunc::Idle);
        let pending = match peek {
            Peek::Work { avail, claim } => peek_work(ctx, avail, claim).await,
            Peek::Bit { bits, commit } => peek_bit_pending(ctx, bits, commit).await,
        };
        if !pending {
            return false;
        }
        if self.fw_fault().await {
            return true;
        }
        let (m, host) = (&self.m, &self.host);
        match handler {
            Handler::FetchSendBds => {
                self.fetch_bds(&m.send_bd, FwFunc::FetchSendBd, host.send_bd_ring)
                    .await
            }
            Handler::DmaRdDone(k) => self.process_dmard_completions(k).await,
            Handler::SendFrames => self.send_frames().await,
            Handler::MacTxDone => self.process_mactx_done().await,
            Handler::FetchRecvBds => {
                self.fetch_bds(&m.recv_bd, FwFunc::FetchRecvBd, host.rx_bd_ring)
                    .await
            }
            Handler::RecvFrames => self.recv_frames().await,
            Handler::DmaWrDone(k) => self.process_dmawr_completions(k).await,
            Handler::CommitSendReady => {
                self.commit_send_ready().await;
                true
            }
            Handler::CommitTxDone => {
                self.commit_txdone().await;
                true
            }
            Handler::CommitRecv => {
                self.commit_recv().await;
                true
            }
        }
    }
}

/// The firmware entry point: run the dispatch loop on `fw`'s core until
/// the system sets the stop flag.
pub async fn dispatch_loop(fw: Fw) {
    let ctx = &fw.ctx;
    let sources: Vec<Source> = sources(&fw.m).collect();
    let n_sources = sources.len();
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
            if fw.run_source(sources[(rot + s) % n_sources]).await {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::FwMode;
    use nicsim_cpu::{CodeLayout, Core, CoreCtx, PendingOp};
    use nicsim_mem::{Crossbar, ICacheConfig, InstrMemory, Scratchpad, SpOp};
    use nicsim_obs::{Event, EventLog};
    use nicsim_sim::Ps;

    /// The addresses one scan of a quiet system loads, in order: an
    /// interrupt-mode core parks after exactly one.
    fn idle_scan_loads(m: &MemMap) -> Vec<u32> {
        let mut core = Core::new(0, ICacheConfig::default(), CodeLayout::new());
        core.install(dispatch_loop(Fw {
            ctx: CoreCtx::new(core.slot(), 0),
            m: *m,
            host: Default::default(),
            mode: FwMode::RmwEnhanced,
            dispatch: DispatchMode::Interrupt,
            fw_faults: None,
        }));
        let mut sp = Scratchpad::new(256 * 1024, 4);
        let (mut xbar, mut imem) = (Crossbar::new(1, 4), InstrMemory::new());
        let (mut log, mut cycle) = (EventLog::new(), 0);
        while !core.parked() {
            cycle += 1;
            xbar.tick(&mut sp);
            core.tick_probed(&mut xbar, &mut imem, cycle, Ps::ZERO, &mut log);
        }
        let load = |e: &Event| match *e {
            Event::OpTaken {
                op: PendingOp::Mem(r),
                ..
            } if r.op == SpOp::Read => Some(r.addr),
            _ => None,
        };
        log.events().iter().filter_map(load).collect()
    }

    /// The scan loads the stop flag, then a pair per source: the word a
    /// producer advances and the counter firmware consumes it through.
    /// The doorbells are the stop flag and the producer side of every
    /// pair — each range read by exactly one load — and nothing else.
    #[test]
    fn doorbell_words_cover_exactly_the_words_the_scan_peeks() {
        for engines in [1, 2] {
            let m = MemMap::for_topology(engines);
            let loads = idle_scan_loads(&m);
            assert_eq!(loads[0], m.stop_flag);
            let mut consumed = vec![
                m.send_bd.fetched,
                m.dmard(0).claim,
                m.send_bd.cons,
                m.send_txdone_claim,
                m.recv_bd.fetched,
                m.recv_claim,
                m.dmawr(0).claim,
                m.send_ready_commit,
                m.send_txdone_commit,
                m.recv_commit,
            ];
            consumed.extend((1..engines).flat_map(|k| [m.dmard(k).claim, m.dmawr(k).claim]));
            assert_eq!(loads.len(), 1 + 2 * consumed.len(), "{engines} engines");
            for (w, n) in doorbell_words(&m) {
                let hits = loads.iter().filter(|a| (w..w + n).contains(a)).count();
                assert_eq!(hits, 1, "{engines} engines, range {w:#x}+{n}");
            }
            let watched = |a: &u32| doorbell_words(&m).any(|(w, n)| (w..w + n).contains(a));
            let quiet: Vec<u32> = loads.into_iter().filter(|a| !watched(a)).collect();
            assert_eq!(quiet, consumed, "{engines} engines");
        }
    }
}
