//! The DMA read and DMA write engines.
//!
//! Firmware drives each engine through a command ring in the scratchpad
//! plus a producer doorbell; the engine reports progress through a
//! monotonic *done* counter it writes back to the scratchpad — one of the
//! hardware-maintained pointers the frame-parallel dispatch loop inspects
//! (Figure 5). Commands complete out of order internally (scratchpad
//! copies vs. frame-memory bursts), but the done counter only advances
//! over the contiguous prefix, so firmware can attribute completions by
//! ring index.
//!
//! Per the paper's methodology (§5), the host-side interconnect is not
//! modeled: the host-memory end of a transfer is instantaneous, and all
//! timed cost is on the NIC side (scratchpad transactions through the
//! crossbar, frame-memory bursts over the shared bus).

use crate::cmd::{DmaCmd, DMA_CMD_WORDS};
use crate::port::SpPort;
use nicsim_fault::{CmdOutcome, DmaFaults};
use nicsim_host::HostMemory;
use nicsim_mem::{Crossbar, FrameMemory, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_obs::{DmaDir, Event, FaultKind, FaultUnit, NullProbe, Probe, RecoveryKind};
use nicsim_sim::{NextEvent, Ps};

const TAG_CMD0: u32 = 1; // ..=4 for the four command words
const TAG_DATA: u32 = 5;
const TAG_DONE: u32 = 6;
const TAG_SRC: u32 = 7;

/// Configuration of one DMA engine.
#[derive(Debug, Clone, Copy)]
pub struct DmaConfig {
    /// Crossbar port of this engine.
    pub port: usize,
    /// Scratchpad byte address of the command ring.
    pub cmd_ring: u32,
    /// Number of commands in the ring.
    pub cmd_entries: u32,
    /// Scratchpad word holding the firmware's producer count (doorbell).
    pub prod_addr: u32,
    /// Scratchpad word the engine writes its done count to.
    pub done_addr: u32,
    /// Engine id within the topology. Encoded into the high 32 bits of
    /// frame-memory burst tags so completions on the shared per-stream
    /// queue route back to the issuing engine; engine 0's tags are the
    /// bare ring index, bit-identical to the single-engine layout.
    pub engine: u32,
}

/// Pack a frame-memory burst tag from an engine id and ring index.
pub fn dma_tag(engine: u32, idx: u32) -> u64 {
    ((engine as u64) << 32) | idx as u64
}

/// The engine id a frame-memory completion tag routes to.
pub fn dma_tag_engine(tag: u64) -> usize {
    (tag >> 32) as usize
}

/// Completion tracking shared by both engines.
#[derive(Debug)]
struct DoneTracker {
    done: u32,
    done_written: u32,
    write_inflight: bool,
    completed: Vec<bool>,
}

impl DoneTracker {
    fn new(entries: u32) -> DoneTracker {
        DoneTracker {
            done: 0,
            done_written: 0,
            write_inflight: false,
            completed: vec![false; entries as usize],
        }
    }

    fn complete(&mut self, idx: u32) {
        let n = self.completed.len() as u32;
        self.completed[(idx % n) as usize] = true;
        while self.completed[(self.done % n) as usize] {
            self.completed[(self.done % n) as usize] = false;
            self.done += 1;
        }
    }

    /// Queue a done-counter write if the value advanced.
    fn flush(&mut self, sp_port: &mut SpPort, done_addr: u32) {
        if !self.write_inflight && self.done != self.done_written {
            sp_port.push(
                SpRequest {
                    addr: done_addr,
                    op: SpOp::Write(self.done),
                },
                TAG_DONE,
            );
            self.done_written = self.done;
            self.write_inflight = true;
        }
    }
}

/// State of the in-progress command fetch.
#[derive(Debug, Default)]
struct Fetch {
    words: [u32; 4],
    got: u8,
    active: bool,
}

/// A payload command held back by the fault plan: it resolves (executes
/// or aborts) once the injected stall/backoff delay has elapsed. One
/// slot per engine — a deferred command blocks further fetches, exactly
/// like a real engine serialising on a wedged PCI transaction.
#[derive(Debug)]
struct Deferred {
    cmd: DmaCmd,
    idx: u32,
    resolve_at: Ps,
    attempts: u32,
    abort: bool,
}

/// The DMA **read** engine: host memory → NIC.
#[derive(Debug)]
pub struct DmaRead {
    cfg: DmaConfig,
    sp: SpPort,
    fetched: u32,
    fetch: Fetch,
    tracker: DoneTracker,
    /// Scratchpad-destination command being executed (BD fetches).
    sp_exec: Option<(u32, u32)>, // (cmd idx, remaining word writes)
    sdram_outstanding: u32,
    faults: Option<DmaFaults>,
    deferred: Option<Deferred>,
}

impl DmaRead {
    /// Create the engine.
    pub fn new(cfg: DmaConfig) -> DmaRead {
        DmaRead {
            cfg,
            sp: SpPort::new(cfg.port),
            fetched: 0,
            fetch: Fetch::default(),
            tracker: DoneTracker::new(cfg.cmd_entries),
            sp_exec: None,
            sdram_outstanding: 0,
            faults: None,
            deferred: None,
        }
    }

    /// Scratchpad accesses performed (Table 4 accounting).
    pub fn sp_accesses(&self) -> u64 {
        self.sp.accesses()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        self.sp.reset_stats();
    }

    /// Enable fault injection on this engine.
    pub fn set_faults(&mut self, f: DmaFaults) {
        self.faults = Some(f);
    }

    /// Fault-site state, when injection is enabled.
    pub fn faults(&self) -> Option<&DmaFaults> {
        self.faults.as_ref()
    }

    /// Mutable fault-site state (the watchdog in `NicSystem` drives the
    /// stuck/reset bookkeeping from outside the engine).
    pub fn faults_mut(&mut self) -> Option<&mut DmaFaults> {
        self.faults.as_mut()
    }

    /// A frame-memory burst tagged `tag` completed.
    pub fn on_sdram_complete(&mut self, tag: u64) {
        self.on_sdram_complete_probed(tag, Ps::ZERO, &mut NullProbe);
    }

    /// Probed variant of [`DmaRead::on_sdram_complete`].
    pub fn on_sdram_complete_probed<P: Probe>(&mut self, tag: u64, now: Ps, probe: &mut P) {
        self.sdram_outstanding -= 1;
        self.tracker.complete(tag as u32);
        if P::ENABLED {
            probe.emit(Event::DmaDone {
                dir: DmaDir::Read,
                idx: tag as u32,
                at: now,
            });
        }
    }

    fn start_command<P: Probe>(
        &mut self,
        cmd: DmaCmd,
        idx: u32,
        host: &HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if P::ENABLED {
            probe.emit(Event::DmaStart {
                dir: DmaDir::Read,
                idx,
                bytes: cmd.len,
                at: now,
            });
        }
        let data = host.read(cmd.w0, cmd.len).to_vec();
        if cmd.is_scratchpad() {
            // Copy descriptor words into the scratchpad, one word-write
            // per crossbar transaction.
            let words = cmd.len.div_ceil(4);
            for k in 0..words {
                let b = (k * 4) as usize;
                let mut w = [0u8; 4];
                let n = (cmd.len as usize - b).min(4);
                w[..n].copy_from_slice(&data[b..b + n]);
                self.sp.push(
                    SpRequest {
                        addr: cmd.w1 + k * 4,
                        op: SpOp::Write(u32::from_le_bytes(w)),
                    },
                    TAG_DATA,
                );
            }
            self.sp_exec = Some((idx, words));
        } else {
            fm.submit_write(
                StreamId::DmaRead,
                cmd.w1,
                &data,
                dma_tag(self.cfg.engine, idx),
                now,
            );
            self.sdram_outstanding += 1;
        }
    }

    /// Route a freshly fetched command through the fault plan: payload
    /// commands (frame transfers, never descriptor/control traffic) may
    /// be stalled, retried, or aborted. Clean commands start immediately.
    fn launch<P: Probe>(
        &mut self,
        cmd: DmaCmd,
        idx: u32,
        host: &HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if let Some(f) = self.faults.as_mut() {
            if f.commands_faulty() && !cmd.is_scratchpad() {
                let o = f.draw_command();
                if P::ENABLED {
                    if o.stalled {
                        probe.emit(Event::Fault {
                            kind: FaultKind::PciStall,
                            unit: FaultUnit::DmaRead,
                            info: idx,
                            at: now,
                        });
                    }
                    if o.attempts > 0 {
                        probe.emit(Event::Fault {
                            kind: FaultKind::DmaError,
                            unit: FaultUnit::DmaRead,
                            info: o.attempts,
                            at: now,
                        });
                    }
                }
                if o != CmdOutcome::CLEAN {
                    self.deferred = Some(Deferred {
                        cmd,
                        idx,
                        resolve_at: now + o.delay,
                        attempts: o.attempts,
                        abort: o.abort,
                    });
                    return;
                }
            }
        }
        self.start_command(cmd, idx, host, fm, now, probe);
    }

    /// Resolve a deferred command whose stall/backoff delay has elapsed:
    /// either execute it (a successful retry) or abort it — the frame-
    /// memory destination is poisoned so the stale frame cannot later
    /// validate as goodput, and the ring slot retires so firmware's
    /// pipeline keeps moving.
    fn resolve_deferred<P: Probe>(
        &mut self,
        host: &HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if self.deferred.as_ref().is_none_or(|d| now < d.resolve_at) {
            return;
        }
        let d = self.deferred.take().expect("checked above");
        if d.abort {
            fm.poison(d.cmd.w1, d.cmd.len);
            self.tracker.complete(d.idx);
            if P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::FrameAbort,
                    unit: FaultUnit::DmaRead,
                    info: d.idx,
                    at: now,
                });
            }
        } else {
            if d.attempts > 0 && P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::DmaRetried,
                    unit: FaultUnit::DmaRead,
                    info: d.attempts,
                    at: now,
                });
            }
            self.start_command(d.cmd, d.idx, host, fm, now, probe);
        }
    }

    /// Advance one CPU cycle.
    pub fn tick(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        host: &HostMemory,
        fm: &mut FrameMemory,
    ) {
        self.tick_probed(now, xbar, sp_mem, host, fm, &mut NullProbe);
    }

    /// Probed variant of [`DmaRead::tick`]: emits [`Event::DmaStart`]
    /// when a command begins moving data and [`Event::DmaDone`] when a
    /// scratchpad-destination copy retires (frame-memory completions are
    /// reported through [`DmaRead::on_sdram_complete_probed`]).
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        host: &HostMemory,
        fm: &mut FrameMemory,
        probe: &mut P,
    ) {
        if self.faults.is_some() {
            if self.faults.as_mut().expect("checked").hang_active(now) {
                // Wedged: the unit freezes until the watchdog resets it.
                // Pending work keeps `busy()` true, so both kernels step
                // densely and the watchdog counts identical cycles.
                return;
            }
            self.resolve_deferred(host, fm, now, probe);
        }
        if let Some((tag, value)) = self.sp.tick(xbar) {
            match tag {
                TAG_CMD0..=4 => {
                    self.fetch.words[(tag - TAG_CMD0) as usize] = value;
                    self.fetch.got += 1;
                    if self.fetch.got == 4 {
                        self.fetch.active = false;
                        self.fetch.got = 0;
                        let idx = self.fetched;
                        self.fetched += 1;
                        let cmd = DmaCmd::decode(self.fetch.words);
                        self.launch(cmd, idx, host, fm, now, probe);
                    }
                }
                TAG_DATA => {
                    if let Some((idx, remaining)) = self.sp_exec {
                        if remaining == 1 {
                            self.sp_exec = None;
                            self.tracker.complete(idx);
                            if P::ENABLED {
                                probe.emit(Event::DmaDone {
                                    dir: DmaDir::Read,
                                    idx,
                                    at: now,
                                });
                            }
                        } else {
                            self.sp_exec = Some((idx, remaining - 1));
                        }
                    }
                }
                TAG_DONE => self.tracker.write_inflight = false,
                _ => unreachable!("unknown tag {tag}"),
            }
        }
        // Fetch the next command when capacity allows. The producer
        // doorbell is a register visible without a crossbar transaction.
        let prod = sp_mem.peek(self.cfg.prod_addr);
        if !self.fetch.active
            && self.fetched != prod
            && self.sp_exec.is_none()
            && self.deferred.is_none()
            && self.sdram_outstanding < 2
        {
            self.fetch.active = true;
            let base =
                self.cfg.cmd_ring + (self.fetched % self.cfg.cmd_entries) * DMA_CMD_WORDS * 4;
            for k in 0..4 {
                self.sp.push(
                    SpRequest {
                        addr: base + k * 4,
                        op: SpOp::Read,
                    },
                    TAG_CMD0 + k,
                );
            }
        }
        self.tracker.flush(&mut self.sp, self.cfg.done_addr);
    }

    /// Whether the next [`DmaRead::tick`] could do real work. Mirrors
    /// every gate in `tick` exactly: a scratchpad transaction queued or
    /// in flight, a done-counter update pending, or a command fetch
    /// ready to issue. When false, the engine only reacts to external
    /// input (a doorbell write or an SDRAM completion).
    pub fn busy(&self, sp_mem: &Scratchpad) -> bool {
        self.sp.backlog() > 0
            || self.deferred.is_some()
            || self.tracker.done != self.tracker.done_written
            || (!self.fetch.active
                && self.fetched != sp_mem.peek(self.cfg.prod_addr)
                && self.sp_exec.is_none()
                && self.sdram_outstanding < 2)
    }
}

impl NextEvent for DmaRead {
    /// The DMA engines have no self-timed events: everything they do is
    /// triggered by crossbar responses, doorbells, or SDRAM completions
    /// (all bounded elsewhere by the kernel).
    fn next_event(&self) -> Ps {
        Ps::MAX
    }
}

/// The DMA **write** engine: NIC → host memory.
#[derive(Debug)]
pub struct DmaWrite {
    cfg: DmaConfig,
    sp: SpPort,
    fetched: u32,
    fetch: Fetch,
    tracker: DoneTracker,
    /// Scratchpad-source command in progress: (idx, host addr, bytes
    /// collected, total words).
    sp_src: Option<(u32, u32, Vec<u8>, u32)>,
    /// SDRAM-source commands in flight: host destination per tag.
    sdram_dst: Vec<Option<u32>>,
    sdram_outstanding: u32,
    faults: Option<DmaFaults>,
    deferred: Option<Deferred>,
    /// Debug: (src, dst, len) of every SDRAM-source command (capped).
    pub dbg_payloads: Vec<(u32, u32, u32)>,
}

impl DmaWrite {
    /// Create the engine.
    pub fn new(cfg: DmaConfig) -> DmaWrite {
        DmaWrite {
            cfg,
            sp: SpPort::new(cfg.port),
            fetched: 0,
            fetch: Fetch::default(),
            tracker: DoneTracker::new(cfg.cmd_entries),
            sp_src: None,
            sdram_dst: vec![None; cfg.cmd_entries as usize],
            sdram_outstanding: 0,
            faults: None,
            deferred: None,
            dbg_payloads: Vec::new(),
        }
    }

    /// Scratchpad accesses performed.
    pub fn sp_accesses(&self) -> u64 {
        self.sp.accesses()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        self.sp.reset_stats();
    }

    /// Enable fault injection on this engine.
    pub fn set_faults(&mut self, f: DmaFaults) {
        self.faults = Some(f);
    }

    /// Fault-site state, when injection is enabled.
    pub fn faults(&self) -> Option<&DmaFaults> {
        self.faults.as_ref()
    }

    /// Mutable fault-site state (see [`DmaRead::faults_mut`]).
    pub fn faults_mut(&mut self) -> Option<&mut DmaFaults> {
        self.faults.as_mut()
    }

    /// A frame-memory read burst completed; write its data to the host.
    pub fn on_sdram_complete(&mut self, tag: u64, data: &[u8], host: &mut HostMemory) {
        self.on_sdram_complete_probed(tag, data, host, Ps::ZERO, &mut NullProbe);
    }

    /// Probed variant of [`DmaWrite::on_sdram_complete`].
    pub fn on_sdram_complete_probed<P: Probe>(
        &mut self,
        tag: u64,
        data: &[u8],
        host: &mut HostMemory,
        now: Ps,
        probe: &mut P,
    ) {
        let idx = tag as u32;
        let dst = self.sdram_dst[(idx % self.cfg.cmd_entries) as usize]
            .take()
            .expect("sdram completion for unknown command");
        let poison = self.faults.as_mut().and_then(|f| f.draw_poison(data.len()));
        if let Some(off) = poison {
            let mut bad = data.to_vec();
            bad[off] ^= 0xff;
            host.write(dst, &bad);
            if P::ENABLED {
                probe.emit(Event::Fault {
                    kind: FaultKind::HostPoison,
                    unit: FaultUnit::DmaWrite,
                    info: off as u32,
                    at: now,
                });
            }
        } else {
            host.write(dst, data);
        }
        self.sdram_outstanding -= 1;
        self.tracker.complete(idx);
        if P::ENABLED {
            probe.emit(Event::DmaDone {
                dir: DmaDir::Write,
                idx,
                at: now,
            });
        }
    }

    fn start_command<P: Probe>(
        &mut self,
        cmd: DmaCmd,
        idx: u32,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if P::ENABLED {
            probe.emit(Event::DmaStart {
                dir: DmaDir::Write,
                idx,
                bytes: cmd.len,
                at: now,
            });
        }
        if cmd.is_immediate() {
            host.write_u32(cmd.w1, cmd.w0);
            self.tracker.complete(idx);
            if P::ENABLED {
                probe.emit(Event::DmaDone {
                    dir: DmaDir::Write,
                    idx,
                    at: now,
                });
            }
        } else if cmd.is_scratchpad() {
            let words = cmd.len.div_ceil(4);
            for k in 0..words {
                self.sp.push(
                    SpRequest {
                        addr: cmd.w0 + k * 4,
                        op: SpOp::Read,
                    },
                    TAG_SRC,
                );
            }
            self.sp_src = Some((idx, cmd.w1, Vec::with_capacity(cmd.len as usize), cmd.len));
        } else {
            if self.dbg_payloads.len() < 8192 {
                self.dbg_payloads.push((cmd.w0, cmd.w1, cmd.len));
            }
            self.sdram_dst[(idx % self.cfg.cmd_entries) as usize] = Some(cmd.w1);
            fm.submit_read(
                StreamId::DmaWrite,
                cmd.w0,
                cmd.len,
                dma_tag(self.cfg.engine, idx),
                now,
            );
            self.sdram_outstanding += 1;
        }
    }

    /// Fault-plan gate for fetched commands; see [`DmaRead::launch`].
    /// Only payload transfers (frame memory → host buffer) are faulted —
    /// immediate and scratchpad-source commands carry control state.
    fn launch<P: Probe>(
        &mut self,
        cmd: DmaCmd,
        idx: u32,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if let Some(f) = self.faults.as_mut() {
            if f.commands_faulty() && !cmd.is_immediate() && !cmd.is_scratchpad() {
                let o = f.draw_command();
                if P::ENABLED {
                    if o.stalled {
                        probe.emit(Event::Fault {
                            kind: FaultKind::PciStall,
                            unit: FaultUnit::DmaWrite,
                            info: idx,
                            at: now,
                        });
                    }
                    if o.attempts > 0 {
                        probe.emit(Event::Fault {
                            kind: FaultKind::DmaError,
                            unit: FaultUnit::DmaWrite,
                            info: o.attempts,
                            at: now,
                        });
                    }
                }
                if o != CmdOutcome::CLEAN {
                    self.deferred = Some(Deferred {
                        cmd,
                        idx,
                        resolve_at: now + o.delay,
                        attempts: o.attempts,
                        abort: o.abort,
                    });
                    return;
                }
            }
        }
        self.start_command(cmd, idx, host, fm, now, probe);
    }

    /// Resolve a deferred command (see [`DmaRead::resolve_deferred`]).
    /// An abort zeroes the host destination buffer — the frame bytes
    /// never left the NIC, so stale host memory must not validate — and
    /// retires the ring slot.
    fn resolve_deferred<P: Probe>(
        &mut self,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        now: Ps,
        probe: &mut P,
    ) {
        if self.deferred.as_ref().is_none_or(|d| now < d.resolve_at) {
            return;
        }
        let d = self.deferred.take().expect("checked above");
        if d.abort {
            host.write(d.cmd.w1, &vec![0u8; d.cmd.len as usize]);
            self.tracker.complete(d.idx);
            if P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::FrameAbort,
                    unit: FaultUnit::DmaWrite,
                    info: d.idx,
                    at: now,
                });
            }
        } else {
            if d.attempts > 0 && P::ENABLED {
                probe.emit(Event::Recovery {
                    kind: RecoveryKind::DmaRetried,
                    unit: FaultUnit::DmaWrite,
                    info: d.attempts,
                    at: now,
                });
            }
            self.start_command(d.cmd, d.idx, host, fm, now, probe);
        }
    }

    /// Advance one CPU cycle.
    pub fn tick(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
    ) {
        self.tick_probed(now, xbar, sp_mem, host, fm, &mut NullProbe);
    }

    /// Probed variant of [`DmaWrite::tick`]: emits [`Event::DmaStart`]
    /// when a command begins and [`Event::DmaDone`] when an immediate or
    /// scratchpad-source command retires (frame-memory completions are
    /// reported through [`DmaWrite::on_sdram_complete_probed`]).
    pub fn tick_probed<P: Probe>(
        &mut self,
        now: Ps,
        xbar: &mut Crossbar,
        sp_mem: &Scratchpad,
        host: &mut HostMemory,
        fm: &mut FrameMemory,
        probe: &mut P,
    ) {
        if self.faults.is_some() {
            if self.faults.as_mut().expect("checked").hang_active(now) {
                return; // wedged until the watchdog resets the unit
            }
            self.resolve_deferred(host, fm, now, probe);
        }
        if let Some((tag, value)) = self.sp.tick(xbar) {
            match tag {
                TAG_CMD0..=4 => {
                    self.fetch.words[(tag - TAG_CMD0) as usize] = value;
                    self.fetch.got += 1;
                    if self.fetch.got == 4 {
                        self.fetch.active = false;
                        self.fetch.got = 0;
                        let idx = self.fetched;
                        self.fetched += 1;
                        let cmd = DmaCmd::decode(self.fetch.words);
                        self.launch(cmd, idx, host, fm, now, probe);
                    }
                }
                TAG_SRC => {
                    let (idx, dst, mut buf, len) =
                        self.sp_src.take().expect("source read without command");
                    buf.extend_from_slice(&value.to_le_bytes());
                    if buf.len() >= len as usize {
                        buf.truncate(len as usize);
                        host.write(dst, &buf);
                        self.tracker.complete(idx);
                        if P::ENABLED {
                            probe.emit(Event::DmaDone {
                                dir: DmaDir::Write,
                                idx,
                                at: now,
                            });
                        }
                    } else {
                        self.sp_src = Some((idx, dst, buf, len));
                    }
                }
                TAG_DONE => self.tracker.write_inflight = false,
                _ => unreachable!("unknown tag {tag}"),
            }
        }
        let prod = sp_mem.peek(self.cfg.prod_addr);
        if !self.fetch.active
            && self.fetched != prod
            && self.sp_src.is_none()
            && self.deferred.is_none()
            && self.sdram_outstanding < 2
        {
            self.fetch.active = true;
            let base =
                self.cfg.cmd_ring + (self.fetched % self.cfg.cmd_entries) * DMA_CMD_WORDS * 4;
            for k in 0..4 {
                self.sp.push(
                    SpRequest {
                        addr: base + k * 4,
                        op: SpOp::Read,
                    },
                    TAG_CMD0 + k,
                );
            }
        }
        self.tracker.flush(&mut self.sp, self.cfg.done_addr);
    }

    /// Whether the next [`DmaWrite::tick`] could do real work (see
    /// [`DmaRead::busy`]).
    pub fn busy(&self, sp_mem: &Scratchpad) -> bool {
        self.sp.backlog() > 0
            || self.deferred.is_some()
            || self.tracker.done != self.tracker.done_written
            || (!self.fetch.active
                && self.fetched != sp_mem.peek(self.cfg.prod_addr)
                && self.sp_src.is_none()
                && self.sdram_outstanding < 2)
    }
}

impl NextEvent for DmaWrite {
    /// See [`DmaRead::next_event`]: nothing self-timed.
    fn next_event(&self) -> Ps {
        Ps::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::{FLAG_IMM, FLAG_SP};
    use nicsim_mem::FrameMemoryConfig;

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

        fn write_cmd(&mut self, ring: u32, idx: u32, cmd: DmaCmd) {
            let base = ring + idx * 16;
            for (k, w) in cmd.encode().iter().enumerate() {
                self.sp.poke(base + k as u32 * 4, *w);
            }
        }
    }

    fn cfg() -> DmaConfig {
        DmaConfig {
            port: 0,
            cmd_ring: 0x1000,
            cmd_entries: 16,
            prod_addr: 0x100,
            done_addr: 0x104,
            engine: 0,
        }
    }

    #[test]
    fn read_engine_copies_descriptors_to_scratchpad() {
        let mut rig = Rig::new();
        let mut eng = DmaRead::new(cfg());
        rig.host.write(0x500, &[1, 2, 3, 4, 5, 6, 7, 8]);
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0x500,
                w1: 0x2000,
                len: 8,
                flags: FLAG_SP,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 1); // doorbell
        for _ in 0..100 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &rig.host, &mut rig.fm);
            for c in rig.fm.advance(rig.now) {
                eng.on_sdram_complete(c.tag);
            }
        }
        assert_eq!(rig.sp.peek(0x2000), 0x0403_0201);
        assert_eq!(rig.sp.peek(0x2004), 0x0807_0605);
        assert_eq!(rig.sp.peek(0x104), 1, "done counter advanced");
    }

    #[test]
    fn read_engine_moves_frame_data_to_sdram() {
        let mut rig = Rig::new();
        let mut eng = DmaRead::new(cfg());
        let payload: Vec<u8> = (0..200u8).collect();
        rig.host.write(0x800, &payload);
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0x800,
                w1: 0x4000,
                len: 200,
                flags: 0,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 1);
        for _ in 0..200 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &rig.host, &mut rig.fm);
            for c in rig.fm.advance(rig.now) {
                eng.on_sdram_complete(c.tag);
            }
        }
        assert_eq!(rig.fm.peek(0x4000, 200), &payload[..]);
        assert_eq!(rig.sp.peek(0x104), 1);
    }

    #[test]
    fn write_engine_immediate_and_scratchpad_sources() {
        let mut rig = Rig::new();
        let wcfg = DmaConfig { port: 1, ..cfg() };
        let mut eng = DmaWrite::new(wcfg);
        // Command 0: immediate write of 0xabcd to host 0x900.
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0xabcd,
                w1: 0x900,
                len: 4,
                flags: FLAG_IMM,
                tag: 0,
            },
        );
        // Command 1: copy 8 bytes from scratchpad 0x3000 to host 0x910.
        rig.sp.poke(0x3000, 0x1111_2222);
        rig.sp.poke(0x3004, 0x3333_4444);
        rig.write_cmd(
            0x1000,
            1,
            DmaCmd {
                w0: 0x3000,
                w1: 0x910,
                len: 8,
                flags: FLAG_SP,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 2);
        for _ in 0..200 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &mut rig.host, &mut rig.fm);
            let comps = rig.fm.advance(rig.now);
            for c in comps {
                eng.on_sdram_complete(c.tag, c.data.as_deref().unwrap(), &mut rig.host);
            }
        }
        assert_eq!(rig.host.read_u32(0x900), 0xabcd);
        assert_eq!(rig.host.read_u32(0x910), 0x1111_2222);
        assert_eq!(rig.host.read_u32(0x914), 0x3333_4444);
        assert_eq!(rig.sp.peek(0x104), 2);
    }

    #[test]
    fn write_engine_moves_sdram_to_host() {
        let mut rig = Rig::new();
        let mut eng = DmaWrite::new(cfg());
        let frame: Vec<u8> = (0..255u8).cycle().take(1518).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0x6000,
                w1: 0xa000,
                len: 1518,
                flags: 0,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        for _ in 0..400 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &mut rig.host, &mut rig.fm);
            let comps = rig.fm.advance(rig.now);
            for c in comps {
                eng.on_sdram_complete(c.tag, c.data.as_deref().unwrap(), &mut rig.host);
            }
        }
        assert_eq!(rig.host.read(0xa000, 1518), &frame[..]);
        assert_eq!(rig.sp.peek(0x104), 1);
    }

    #[test]
    fn read_engine_abort_poisons_destination_and_retires_slot() {
        use nicsim_fault::{DmaFaults, FaultPlan, SITE_DMA_READ};
        let mut rig = Rig::new();
        let mut eng = DmaRead::new(cfg());
        let plan = FaultPlan {
            dma_error: 1.0,
            max_retries: 0,
            backoff_ns: 10,
            ..FaultPlan::default()
        };
        eng.set_faults(DmaFaults::new(&plan, SITE_DMA_READ));
        // Stale bytes at the destination must not survive the abort.
        rig.fm
            .submit_write(StreamId::DmaRead, 0x4000, &[0xff; 200], 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(1));
        rig.host.write(0x800, &(0..200u8).collect::<Vec<_>>());
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0x800,
                w1: 0x4000,
                len: 200,
                flags: 0,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(1);
        for _ in 0..400 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &rig.host, &mut rig.fm);
            for c in rig.fm.advance(rig.now) {
                eng.on_sdram_complete(c.tag);
            }
        }
        assert_eq!(rig.sp.peek(0x104), 1, "aborted command still retires");
        assert!(
            rig.fm.peek(0x4000, 200).iter().all(|&b| b == 0),
            "destination poisoned"
        );
        let f = eng.faults().unwrap();
        assert_eq!(f.aborts, 1);
        assert_eq!(f.transient_errors, 1);
    }

    #[test]
    fn write_engine_stall_delays_but_delivers() {
        use nicsim_fault::{DmaFaults, FaultPlan, SITE_DMA_WRITE};
        let mut rig = Rig::new();
        let mut eng = DmaWrite::new(cfg());
        let plan = FaultPlan {
            dma_stall: 1.0,
            stall_ns: 500,
            ..FaultPlan::default()
        };
        eng.set_faults(DmaFaults::new(&plan, SITE_DMA_WRITE));
        let frame: Vec<u8> = (0..255u8).cycle().take(600).collect();
        rig.fm
            .submit_write(StreamId::MacRx, 0x6000, &frame, 99, Ps::ZERO);
        rig.fm.advance(Ps::from_us(2));
        rig.write_cmd(
            0x1000,
            0,
            DmaCmd {
                w0: 0x6000,
                w1: 0xa000,
                len: 600,
                flags: 0,
                tag: 0,
            },
        );
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        for _ in 0..600 {
            rig.now += Ps(5000);
            rig.xbar.tick(&mut rig.sp);
            eng.tick(rig.now, &mut rig.xbar, &rig.sp, &mut rig.host, &mut rig.fm);
            for c in rig.fm.advance(rig.now) {
                eng.on_sdram_complete(c.tag, c.data.as_deref().unwrap(), &mut rig.host);
            }
        }
        assert_eq!(rig.host.read(0xa000, 600), &frame[..], "stalled, not lost");
        assert_eq!(rig.sp.peek(0x104), 1);
        assert_eq!(eng.faults().unwrap().stalls, 1);
        assert_eq!(eng.faults().unwrap().aborts, 0);
    }

    #[test]
    fn done_counter_is_contiguous_prefix() {
        let mut t = DoneTracker::new(8);
        t.complete(1);
        assert_eq!(t.done, 0, "command 0 still outstanding");
        t.complete(0);
        assert_eq!(t.done, 2, "both now contiguous");
        t.complete(2);
        assert_eq!(t.done, 3);
    }
}
