//! The DMA engines: one [`Dma`] type for both directions.
//!
//! An engine decodes each command once, from its direction and the
//! command's `FLAG_SP` / `FLAG_IMM` bits, into one of five transfer
//! kinds; everything after the decode acts on the kind, and the
//! direction only names the engine's fault site and labels its events.
//!
//! Firmware drives each engine through a [`CmdRing`]: a command ring in
//! the scratchpad plus a producer doorbell, with progress reported
//! through the ring's monotonic *done* counter — one of the
//! hardware-maintained pointers the frame-parallel dispatch loop
//! inspects (Figure 5). Commands complete out of order internally
//! (scratchpad copies vs. frame-memory bursts); the ring advances the
//! done counter only over the contiguous prefix.
//!
//! Per the paper's methodology (§5), the host-side interconnect is not
//! modeled: the host-memory end of a transfer is instantaneous, and all
//! timed cost is on the NIC side (scratchpad transactions through the
//! crossbar, frame-memory bursts over the shared bus).

use crate::cmd::{DmaCmd, RingRegs};
use crate::port::{CmdRing, Polled};
use nicsim_fault::{CmdOutcome, DmaFaults, FaultPlan, SITE_DMA_READ, SITE_DMA_WRITE};
use nicsim_host::HostMemory;
use nicsim_mem::{Crossbar, FrameMemory, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_obs::{DmaDir, Event, FaultKind, FaultUnit, Probe, RecoveryKind};
use nicsim_sim::Ps;

/// Pack a frame-memory burst tag from an engine id and ring index, so
/// completions on the shared per-stream queue route back to the issuing
/// engine; engine 0's tags are the bare ring index.
pub fn dma_tag(engine: u32, idx: u32) -> u64 {
    ((engine as u64) << 32) | idx as u64
}

/// The engine id a frame-memory completion tag routes to.
pub fn dma_tag_engine(tag: u64) -> usize {
    (tag >> 32) as usize
}

/// What a command moves, and between which memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transfer {
    /// Host → scratchpad: buffer-descriptor fetches.
    HostToSp,
    /// Host → frame memory: transmit frame contents.
    HostToFm,
    /// Command word 0 → host: status updates.
    ImmToHost,
    /// Scratchpad → host: return descriptors.
    SpToHost,
    /// Frame memory → host: received frame contents.
    FmToHost,
}

/// A fetched command: what it moves, its words, its ring index.
#[derive(Debug, Clone, Copy)]
struct Job {
    kind: Transfer,
    cmd: DmaCmd,
    idx: u32,
}

impl Job {
    /// Decode ring entry `idx`. A read engine's commands move host →
    /// NIC, a write engine's NIC → host; only a write engine reads
    /// `FLAG_IMM`.
    fn decode(dir: DmaDir, idx: u32, words: [u32; 4]) -> Job {
        let cmd = DmaCmd::decode(words);
        let kind = match dir {
            DmaDir::Read if cmd.is_scratchpad() => Transfer::HostToSp,
            DmaDir::Read => Transfer::HostToFm,
            DmaDir::Write if cmd.is_immediate() => Transfer::ImmToHost,
            DmaDir::Write if cmd.is_scratchpad() => Transfer::SpToHost,
            DmaDir::Write => Transfer::FmToHost,
        };
        Job { kind, cmd, idx }
    }
}

/// A payload command held back by the fault plan: it resolves (executes
/// or aborts) once the injected stall/backoff delay has elapsed. One
/// slot per engine — a deferred command blocks further fetches, exactly
/// like a real engine serialising on a wedged PCI transaction.
#[derive(Debug)]
struct Deferred {
    job: Job,
    resolve_at: Ps,
    attempts: u32,
    abort: bool,
}

/// The fault plan's hold on one engine: the hang check and watchdog at
/// the top of its tick, the stall/retry/abort draw between fetching a
/// payload command and starting it, and the slot a held command waits
/// in. Without a plan every method is one `None` check.
#[derive(Debug)]
struct FaultGate {
    unit: FaultUnit,
    /// Engine id within the topology: the tag of the engine's
    /// frame-memory bursts, the `info` of its watchdog events.
    engine: u32,
    /// The engine's fault site. Each engine is its own site, eight ids
    /// above the previous engine's, so engine 0 keeps the single-engine
    /// ids and default runs replay unchanged.
    site: u64,
    faults: Option<DmaFaults>,
    deferred: Option<Deferred>,
}

impl FaultGate {
    fn new(unit: FaultUnit, base: u64, engine: usize) -> FaultGate {
        FaultGate {
            unit,
            engine: engine as u32,
            site: base + 8 * engine as u64,
            faults: None,
            deferred: None,
        }
    }

    /// Arm the site under `plan`, the hang schedule counted from
    /// `boot_at`.
    fn arm(&mut self, plan: &FaultPlan, boot_at: Ps) {
        self.faults = Some(DmaFaults::new(plan, self.site, boot_at));
    }

    /// Whether the unit is wedged until the watchdog resets it.
    #[inline]
    fn hung(&mut self, now: Ps) -> bool {
        self.faults.as_mut().is_some_and(|f| f.hang_active(now))
    }

    /// The watchdog's look at a wedged unit. One with work pending
    /// (`busy`) is stuck: the first stuck cycle counts the hang, and
    /// once that cycle is `watchdog_us` old the unit is reset. Pending
    /// work keeps the engine's `busy()` true meanwhile, so both kernels
    /// step densely and the watchdog counts identical cycles.
    fn watchdog<P: Probe>(&mut self, busy: bool, now: Ps, probe: &mut P) {
        let Some(f) = self.faults.as_mut().filter(|_| busy) else {
            return;
        };
        let hangs = f.stats.assist_hangs;
        if f.observe_stuck(now) {
            f.watchdog_reset(now);
            if P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::WatchdogReset,
                    unit: self.unit,
                    info: self.engine,
                    at: now,
                });
            }
        } else if P::ENABLED && f.stats.assist_hangs != hangs {
            probe.emit(Event::Fault {
                kind: FaultKind::AssistHang,
                unit: self.unit,
                info: self.engine,
                at: now,
            });
        }
    }

    /// Route a freshly fetched payload command through the fault plan:
    /// it may be stalled, retried, or aborted. Returns whether it starts
    /// now; otherwise it waits in the deferred slot.
    fn launch<P: Probe>(&mut self, job: Job, now: Ps, probe: &mut P) -> bool {
        let Some(f) = self.faults.as_mut().filter(|f| f.commands_faulty()) else {
            return true;
        };
        let o = f.draw_command();
        if P::ENABLED {
            if o.stalled {
                probe.emit(Event::Fault {
                    kind: FaultKind::PciStall,
                    unit: self.unit,
                    info: job.idx,
                    at: now,
                });
            }
            if o.attempts > 0 {
                probe.emit(Event::Fault {
                    kind: FaultKind::DmaError,
                    unit: self.unit,
                    info: o.attempts,
                    at: now,
                });
            }
        }
        if o == CmdOutcome::default() {
            return true;
        }
        self.deferred = Some(Deferred {
            job,
            resolve_at: now + o.delay,
            attempts: o.attempts,
            abort: o.abort,
        });
        false
    }

    /// Release the deferred command once its stall/backoff delay has
    /// elapsed. The engine either starts it (a successful retry) or, if
    /// `abort` is set, scrubs the destination and retires the ring slot
    /// so firmware's pipeline keeps moving.
    fn resolve_deferred<P: Probe>(&mut self, now: Ps, probe: &mut P) -> Option<Deferred> {
        let d = self.deferred.take_if(|d| now >= d.resolve_at)?;
        if P::ENABLED && (d.abort || d.attempts > 0) {
            let (kind, info) = if d.abort {
                (RecoveryKind::FrameAbort, d.job.idx)
            } else {
                (RecoveryKind::DmaRetried, d.attempts)
            };
            probe.emit(Event::Recovery {
                kind,
                unit: self.unit,
                info,
                at: now,
            });
        }
        Some(d)
    }
}

/// A DMA engine: host memory → NIC ([`DmaDir::Read`]) or NIC → host
/// memory ([`DmaDir::Write`]).
#[derive(Debug)]
pub struct Dma {
    dir: DmaDir,
    ring: CmdRing,
    /// The scratchpad copy being executed and its word transactions
    /// still to land; it holds off further fetches.
    sp_copy: Option<(Job, u32)>,
    /// The source words a scratchpad → host copy has collected.
    sp_buf: Vec<u8>,
    /// Frame memory → host commands in flight: host destination per
    /// ring slot.
    fm_dst: Vec<Option<u32>>,
    sdram_outstanding: u32,
    gate: FaultGate,
}

impl Dma {
    /// Engine `engine` of the topology in direction `dir`, on crossbar
    /// requester `port`, driven through the command ring behind `regs`.
    pub fn new(dir: DmaDir, port: usize, regs: RingRegs, engine: usize) -> Dma {
        let (unit, site) = match dir {
            DmaDir::Read => (FaultUnit::DmaRead, SITE_DMA_READ),
            DmaDir::Write => (FaultUnit::DmaWrite, SITE_DMA_WRITE),
        };
        Dma {
            dir,
            ring: CmdRing::new(port, regs),
            sp_copy: None,
            sp_buf: Vec::new(),
            fm_dst: vec![None; regs.entries as usize],
            sdram_outstanding: 0,
            gate: FaultGate::new(unit, site, engine),
        }
    }

    /// Scratchpad accesses performed (Table 4 accounting).
    pub fn sp_accesses(&self) -> u64 {
        self.ring.sp_accesses()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        self.ring.reset_stats();
    }

    /// Enable fault injection on this engine under `plan`, with the
    /// hang schedule counted from `boot_at`.
    pub fn arm(&mut self, plan: &FaultPlan, boot_at: Ps) {
        self.gate.arm(plan, boot_at);
    }

    /// Fault-site state, when injection is enabled.
    pub fn faults(&self) -> Option<&DmaFaults> {
        self.gate.faults.as_ref()
    }

    /// A frame-memory burst tagged `tag` completed. A read burst (frame
    /// memory → host) carries its `data`, which lands at the command's
    /// host destination; a write burst (host → frame memory) carries
    /// `None`.
    pub fn on_sdram_complete_probed<P: Probe>(
        &mut self,
        tag: u64,
        data: Option<&[u8]>,
        host: &mut HostMemory,
        now: Ps,
        probe: &mut P,
    ) {
        let idx = tag as u32;
        if let Some(data) = data {
            let slot = idx as usize % self.fm_dst.len();
            let dst = self.fm_dst[slot]
                .take()
                .expect("sdram completion for unknown command");
            host.write(dst, data);
            let poison = self
                .gate
                .faults
                .as_mut()
                .and_then(|f| f.draw_poison(data.len()));
            if let Some(off) = poison {
                let at = dst + off as u32;
                let bad = host.read(at, 1)[0] ^ 0xff;
                host.write(at, &[bad]);
                if P::ENABLED {
                    probe.emit(Event::Fault {
                        kind: FaultKind::HostPoison,
                        unit: self.gate.unit,
                        info: off as u32,
                        at: now,
                    });
                }
            }
        }
        self.sdram_outstanding -= 1;
        self.retire(idx, now, probe);
    }

    /// Command `idx` moved its data: retire its ring slot.
    fn retire<P: Probe>(&mut self, idx: u32, now: Ps, probe: &mut P) {
        self.ring.complete(idx);
        if P::ENABLED {
            probe.emit(Event::DmaDone {
                dir: self.dir,
                idx,
                at: now,
            });
        }
    }

    /// Start `job` moving data.
    fn start<P: Probe>(
        &mut self,
        job: Job,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        let Job { kind, cmd, idx } = job;
        if P::ENABLED {
            probe.emit(Event::DmaStart {
                dir: self.dir,
                idx,
                src: cmd.w0,
                dst: cmd.w1,
                bytes: cmd.len,
                at: now,
            });
        }
        let tag = dma_tag(self.gate.engine, idx);
        let words = cmd.len.div_ceil(4);
        match kind {
            Transfer::HostToSp => {
                // One word write per crossbar transaction; a partial
                // last word is zero-padded.
                for (k, bytes) in (0..).zip(host.read(cmd.w0, cmd.len).chunks(4)) {
                    let mut w = [0u8; 4];
                    w[..bytes.len()].copy_from_slice(bytes);
                    self.ring.push(SpRequest {
                        addr: cmd.w1 + k * 4,
                        op: SpOp::Write(u32::from_le_bytes(w)),
                    });
                }
                self.sp_copy = Some((job, words));
            }
            Transfer::SpToHost => {
                for k in 0..words {
                    self.ring.push(SpRequest {
                        addr: cmd.w0 + k * 4,
                        op: SpOp::Read,
                    });
                }
                self.sp_buf.clear();
                self.sp_copy = Some((job, words));
            }
            Transfer::HostToFm => {
                let data = host.read(cmd.w0, cmd.len);
                fm.submit_write(StreamId::DmaRead, cmd.w1, data, tag, now);
                self.sdram_outstanding += 1;
            }
            Transfer::FmToHost => {
                let slot = idx as usize % self.fm_dst.len();
                self.fm_dst[slot] = Some(cmd.w1);
                fm.submit_read(StreamId::DmaWrite, cmd.w0, cmd.len, tag, now);
                self.sdram_outstanding += 1;
            }
            Transfer::ImmToHost => {
                host.write_u32(cmd.w1, cmd.w0);
                self.retire(idx, now, probe);
            }
        }
    }

    /// A word transaction of the scratchpad copy landed: a descriptor
    /// word written, or a source word read (`value`). The copy retires
    /// with its last word, a scratchpad → host copy once its bytes are
    /// in host memory.
    fn on_sp_word<P: Probe>(&mut self, value: u32, host: &mut HostMemory, now: Ps, probe: &mut P) {
        let Some((job, left)) = self.sp_copy.as_mut() else {
            panic!("scratchpad word without command");
        };
        if job.kind == Transfer::SpToHost {
            self.sp_buf.extend_from_slice(&value.to_le_bytes());
        }
        *left -= 1;
        if *left > 0 {
            return;
        }
        let Job { kind, cmd, idx } = *job;
        self.sp_copy = None;
        if kind == Transfer::SpToHost {
            host.write(cmd.w1, &self.sp_buf[..cmd.len as usize]);
        }
        self.retire(idx, now, probe);
    }

    /// Whether the engine can take another command: no scratchpad copy
    /// in progress, nothing held by the fault plan, and fewer than two
    /// frame-memory bursts outstanding.
    fn room(&self) -> bool {
        self.sp_copy.is_none() && self.gate.deferred.is_none() && self.sdram_outstanding < 2
    }

    /// Advance one CPU cycle. Emits [`Event::DmaStart`] when a command
    /// begins moving data and [`Event::DmaDone`] when an immediate or
    /// scratchpad command retires (frame-memory completions are reported
    /// through [`Dma::on_sdram_complete_probed`]).
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        probe: &mut P,
    ) {
        if self.gate.hung(now) {
            self.gate.watchdog(self.busy(sp_mem), now, probe);
            return;
        }
        if let Some(Deferred { job, abort, .. }) = self.gate.resolve_deferred(now, probe) {
            let Job { kind, cmd, idx } = job;
            if !abort {
                self.start(job, host, fm, now, probe);
            } else {
                match kind {
                    // Poison the frame-memory destination so the stale
                    // frame cannot later validate as goodput.
                    Transfer::HostToFm => fm.poison(cmd.w1, cmd.len),
                    // The frame bytes never left the NIC: zero the host
                    // buffer so stale host memory cannot validate. Only
                    // payload transfers are ever held back.
                    _ => host.write(cmd.w1, &vec![0u8; cmd.len as usize]),
                }
                self.ring.complete(idx);
            }
        }
        match self.ring.poll(xbar) {
            Some(Polled::Entry { idx, words }) => {
                let job = Job::decode(self.dir, idx, words);
                // Only frame payload goes through the fault plan;
                // descriptors and status words carry control state.
                let payload = matches!(job.kind, Transfer::HostToFm | Transfer::FmToHost);
                if !payload || self.gate.launch(job, now, probe) {
                    self.start(job, host, fm, now, probe);
                }
            }
            Some(Polled::Own(value)) => self.on_sp_word(value, host, now, probe),
            None => {}
        }
        self.ring.issue(sp_mem, self.room());
    }

    /// Whether the next tick could do real work: a command waiting out
    /// its injected delay, or anything [`CmdRing::busy`] reports. When
    /// false, the engine only reacts to external input (a doorbell
    /// write or an SDRAM completion).
    #[inline]
    pub fn busy(&self, sp_mem: &Scratchpad) -> bool {
        self.gate.deferred.is_some() || self.ring.busy(sp_mem, self.room())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{FLAG_IMM, FLAG_SP};
    use nicsim_mem::FrameMemoryConfig;
    use nicsim_obs::NullProbe;

    struct Rig {
        sp: Scratchpad,
        xbar: Crossbar,
        host: HostMemory,
        fm: FrameMemory,
        now: Ps,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                sp: Scratchpad::new(64 * 1024, 4),
                xbar: Crossbar::new(2, 4),
                host: HostMemory::new(1 << 20),
                fm: FrameMemory::new(FrameMemoryConfig::default()),
                now: Ps::ZERO,
            }
        }

        /// `cycles` CPU cycles of crossbar, engine and frame memory.
        fn run_read(&mut self, eng: &mut Dma, cycles: usize) {
            for _ in 0..cycles {
                self.now += Ps(5000);
                self.xbar.tick(&mut self.sp);
                let (now, probe) = (self.now, &mut NullProbe);
                eng.tick_probed(
                    now,
                    &mut self.xbar,
                    &self.sp,
                    &mut self.host,
                    &mut self.fm,
                    probe,
                );
                for c in self.fm.advance(now) {
                    eng.on_sdram_complete_probed(c.tag, None, &mut self.host, now, probe);
                }
            }
        }

        fn run_write(&mut self, eng: &mut Dma, cycles: usize) {
            for _ in 0..cycles {
                self.now += Ps(5000);
                self.xbar.tick(&mut self.sp);
                let (now, probe) = (self.now, &mut NullProbe);
                let host = &mut self.host;
                eng.tick_probed(now, &mut self.xbar, &self.sp, host, &mut self.fm, probe);
                for c in self.fm.advance(now) {
                    eng.on_sdram_complete_probed(
                        c.tag,
                        Some(self.fm.peek(c.addr, c.len)),
                        host,
                        now,
                        probe,
                    );
                }
            }
        }

        /// Write command `idx` into `REGS`' ring (the doorbell is the
        /// test's to ring).
        fn post(&mut self, idx: u32, w0: u32, w1: u32, len: u32, flags: u32) {
            let cmd = DmaCmd {
                w0,
                w1,
                len,
                flags,
                tag: 0,
            };
            for (k, w) in cmd.encode().iter().enumerate() {
                self.sp.poke(0x1000 + idx * 16 + k as u32 * 4, *w);
            }
        }
    }

    const REGS: RingRegs = RingRegs {
        ring: 0x1000,
        entries: 16,
        prod: 0x100,
        done: 0x104,
    };

    #[test]
    fn read_engine_copies_descriptors_to_scratchpad() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Read, 0, REGS, 0);
        rig.host.write(0x500, &[1, 2, 3, 4, 5, 6, 7, 8]);
        rig.post(0, 0x500, 0x2000, 8, FLAG_SP);
        rig.sp.poke(0x100, 1); // doorbell
        rig.run_read(&mut eng, 100);
        assert_eq!(rig.sp.peek(0x2000), 0x0403_0201);
        assert_eq!(rig.sp.peek(0x2004), 0x0807_0605);
        assert_eq!(rig.sp.peek(0x104), 1, "done counter advanced");
    }

    #[test]
    fn read_engine_moves_frame_data_to_sdram() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Read, 0, REGS, 0);
        let payload: Vec<u8> = (0..200u8).collect();
        rig.host.write(0x800, &payload);
        rig.post(0, 0x800, 0x4000, 200, 0);
        rig.sp.poke(0x100, 1);
        rig.run_read(&mut eng, 200);
        assert_eq!(rig.fm.peek(0x4000, 200), &payload[..]);
        assert_eq!(rig.sp.peek(0x104), 1);
    }

    #[test]
    fn write_engine_immediate_and_scratchpad_sources() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 1, REGS, 0);
        // Command 0: immediate write of 0xabcd to host 0x900.
        rig.post(0, 0xabcd, 0x900, 4, FLAG_IMM);
        // Command 1: copy 8 bytes from scratchpad 0x3000 to host 0x910.
        rig.sp.poke(0x3000, 0x1111_2222);
        rig.sp.poke(0x3004, 0x3333_4444);
        rig.post(1, 0x3000, 0x910, 8, FLAG_SP);
        rig.sp.poke(0x100, 2);
        rig.run_write(&mut eng, 200);
        assert_eq!(rig.host.read_u32(0x900), 0xabcd);
        assert_eq!(rig.host.read_u32(0x910), 0x1111_2222);
        assert_eq!(rig.host.read_u32(0x914), 0x3333_4444);
        assert_eq!(rig.sp.peek(0x104), 2);
    }

    #[test]
    fn write_engine_moves_sdram_to_host() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        let frame: Vec<u8> = (0..255u8).cycle().take(1518).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        rig.post(0, 0x6000, 0xa000, 1518, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        rig.run_write(&mut eng, 400);
        assert_eq!(rig.host.read(0xa000, 1518), &frame[..]);
        assert_eq!(rig.sp.peek(0x104), 1);
    }

    #[test]
    fn read_engine_abort_poisons_destination_and_retires_slot() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Read, 0, REGS, 0);
        let plan = FaultPlan {
            dma_error: 1.0,
            max_retries: 0,
            backoff_ns: 10,
            ..FaultPlan::default()
        };
        eng.arm(&plan, Ps::ZERO);
        // Stale bytes at the destination must not survive the abort.
        rig.fm
            .submit_write(StreamId::DmaRead, 0x4000, &[0xff; 200], 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(1));
        rig.host.write(0x800, &(0..200u8).collect::<Vec<_>>());
        rig.post(0, 0x800, 0x4000, 200, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(1);
        rig.run_read(&mut eng, 400);
        assert_eq!(rig.sp.peek(0x104), 1, "aborted command still retires");
        assert!(
            rig.fm.peek(0x4000, 200).iter().all(|&b| b == 0),
            "destination poisoned"
        );
        let f = eng.faults().unwrap();
        assert_eq!(f.stats.dma_aborts, 1);
        assert_eq!(f.stats.dma_transient_errors, 1);
    }

    #[test]
    fn write_engine_abort_zeroes_host_destination_and_retires_slot() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        let plan = FaultPlan {
            dma_error: 1.0,
            max_retries: 0,
            backoff_ns: 10,
            ..FaultPlan::default()
        };
        eng.arm(&plan, Ps::ZERO);
        let frame: Vec<u8> = (1..=200u8).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        // Stale host bytes must not survive the abort.
        rig.host.write(0xa000, &[0xff; 200]);
        rig.post(0, 0x6000, 0xa000, 200, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        rig.run_write(&mut eng, 400);
        assert_eq!(rig.sp.peek(0x104), 1, "aborted command still retires");
        assert!(
            rig.host.read(0xa000, 200).iter().all(|&b| b == 0),
            "host destination zeroed"
        );
        let f = eng.faults().unwrap();
        assert_eq!(f.stats.dma_aborts, 1);
        assert_eq!(f.stats.dma_transient_errors, 1);
    }

    #[test]
    fn host_poison_flips_exactly_one_byte_of_a_frame_copy() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        let plan = FaultPlan {
            host_poison: 1.0,
            ..FaultPlan::default()
        };
        eng.arm(&plan, Ps::ZERO);
        let frame: Vec<u8> = (0..255u8).cycle().take(600).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        rig.post(0, 0x6000, 0xa000, 600, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        rig.run_write(&mut eng, 400);
        assert_eq!(rig.sp.peek(0x104), 1);
        let got = rig.host.read(0xa000, 600);
        let diffs: Vec<usize> = (0..600).filter(|&i| got[i] != frame[i]).collect();
        assert_eq!(diffs.len(), 1, "exactly one byte poisoned");
        assert_eq!(got[diffs[0]], frame[diffs[0]] ^ 0xff);
        assert_eq!(eng.faults().unwrap().stats.host_poison_injected, 1);
    }

    #[test]
    fn scratchpad_copies_handle_a_partial_last_word() {
        // Host -> scratchpad: the last word write carries two bytes,
        // zero-padded.
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Read, 0, REGS, 0);
        rig.host.write(0x500, &[1, 2, 3, 4, 5, 6, 7, 8]);
        rig.post(0, 0x500, 0x2000, 6, FLAG_SP);
        rig.sp.poke(0x100, 1);
        rig.run_read(&mut eng, 100);
        assert_eq!(rig.sp.peek(0x2000), 0x0403_0201);
        assert_eq!(rig.sp.peek(0x2004), 0x0000_0605);
        assert_eq!(rig.sp.peek(0x104), 1);

        // Scratchpad -> host: only six bytes land; the host bytes past
        // them keep their value.
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        rig.sp.poke(0x3000, 0x0403_0201);
        rig.sp.poke(0x3004, 0x0807_0605);
        rig.host.write(0x910, &[0xee; 8]);
        rig.post(0, 0x3000, 0x910, 6, FLAG_SP);
        rig.sp.poke(0x100, 1);
        rig.run_write(&mut eng, 100);
        assert_eq!(rig.host.read(0x910, 8), &[1, 2, 3, 4, 5, 6, 0xee, 0xee]);
        assert_eq!(rig.sp.peek(0x104), 1);
    }

    #[test]
    fn write_engine_stall_delays_but_delivers() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        let plan = FaultPlan {
            dma_stall: 1.0,
            stall_ns: 500,
            ..FaultPlan::default()
        };
        eng.arm(&plan, Ps::ZERO);
        let frame: Vec<u8> = (0..255u8).cycle().take(600).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        rig.post(0, 0x6000, 0xa000, 600, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        rig.run_write(&mut eng, 600);
        assert_eq!(rig.host.read(0xa000, 600), &frame[..], "stalled, not lost");
        assert_eq!(rig.sp.peek(0x104), 1);
        assert_eq!(eng.faults().unwrap().stats.pci_stalls, 1);
        assert_eq!(eng.faults().unwrap().stats.dma_aborts, 0);
    }

    /// Hangs every microsecond; the watchdog waits two (400 of the
    /// rig's 5 ns cycles).
    const HANGS: &str = "hang_us=1,watchdog_us=2";

    #[test]
    fn watchdog_resets_a_hung_engine_with_work_pending() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Read, 0, REGS, 0);
        eng.arm(&FaultPlan::parse(HANGS).unwrap(), Ps::ZERO);
        rig.now = Ps::from_us(1); // the first hang is due
        rig.host.write(0x500, &[1, 2, 3, 4]);
        rig.post(0, 0x500, 0x2000, 4, FLAG_SP);
        rig.sp.poke(0x100, 1);
        rig.run_read(&mut eng, 400);
        let stats = eng.faults().unwrap().stats;
        assert_eq!((stats.assist_hangs, stats.watchdog_resets), (1, 0));
        assert_eq!(rig.sp.peek(0x104), 0, "wedged: the command waits");
        // The next cycle is `watchdog_us` past the first stuck one; the
        // hang after that is a microsecond (200 cycles) further on.
        rig.run_read(&mut eng, 100);
        let stats = eng.faults().unwrap().stats;
        assert_eq!((stats.assist_hangs, stats.watchdog_resets), (1, 1));
        assert_eq!(rig.sp.peek(0x2000), 0x0403_0201);
        assert_eq!(rig.sp.peek(0x104), 1, "reset, then completed");
    }

    #[test]
    fn a_hung_idle_engine_counts_nothing() {
        let mut rig = Rig::new();
        let mut eng = Dma::new(DmaDir::Write, 0, REGS, 0);
        eng.arm(&FaultPlan::parse(HANGS).unwrap(), Ps::ZERO);
        rig.now = Ps::from_us(1);
        rig.run_write(&mut eng, 1000);
        let stats = eng.faults().unwrap().stats;
        assert_eq!((stats.assist_hangs, stats.watchdog_resets), (0, 0));
        // Still wedged: a doorbell now starts the watchdog's clock, not
        // the command.
        rig.post(0, 0xabcd, 0x900, 4, FLAG_IMM);
        rig.sp.poke(0x100, 1);
        rig.run_write(&mut eng, 100);
        assert_eq!(eng.faults().unwrap().stats.assist_hangs, 1);
        assert_eq!(rig.host.read_u32(0x900), 0);
    }
}
