//! The DMA read and DMA write engines.
//!
//! Firmware drives each engine through a [`CmdRing`]: a command ring in
//! the scratchpad plus a producer doorbell, with progress reported
//! through the ring's monotonic *done* counter — one of the
//! hardware-maintained pointers the frame-parallel dispatch loop
//! inspects (Figure 5). Commands complete out of order internally
//! (scratchpad copies vs. frame-memory bursts); the ring advances the
//! done counter only over the contiguous prefix. What is left here is
//! what differs between the two directions: starting a transfer,
//! completing it, and what an abort does to the destination.
//!
//! Per the paper's methodology (§5), the host-side interconnect is not
//! modeled: the host-memory end of a transfer is instantaneous, and all
//! timed cost is on the NIC side (scratchpad transactions through the
//! crossbar, frame-memory bursts over the shared bus).

use crate::cmd::DmaCmd;
use crate::port::{CmdRing, Polled};
use nicsim_fault::{CmdOutcome, DmaFaults};
use nicsim_host::HostMemory;
use nicsim_mem::{Crossbar, FrameMemory, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_obs::{DmaDir, Event, FaultKind, FaultUnit, Probe, RecoveryKind};
use nicsim_sim::Ps;

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

impl DmaConfig {
    fn ring(&self) -> CmdRing {
        CmdRing::new(
            self.port,
            self.cmd_ring,
            self.cmd_entries,
            self.prod_addr,
            self.done_addr,
        )
    }
}

/// Pack a frame-memory burst tag from an engine id and ring index.
pub fn dma_tag(engine: u32, idx: u32) -> u64 {
    ((engine as u64) << 32) | idx as u64
}

/// The engine id a frame-memory completion tag routes to.
pub fn dma_tag_engine(tag: u64) -> usize {
    (tag >> 32) as usize
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

/// The fault plan's hold on one engine: the hang check at the top of
/// its tick, the stall/retry/abort draw between fetching a payload
/// command and starting it, and the slot a held command waits in.
/// Without a plan every method is one `None` check.
#[derive(Debug)]
struct FaultGate {
    unit: FaultUnit,
    faults: Option<DmaFaults>,
    deferred: Option<Deferred>,
}

impl FaultGate {
    fn new(unit: FaultUnit) -> FaultGate {
        FaultGate {
            unit,
            faults: None,
            deferred: None,
        }
    }

    /// Whether the unit is wedged until the watchdog resets it. Pending
    /// work keeps the engine's `busy()` true meanwhile, so both kernels
    /// step densely and the watchdog counts identical cycles.
    #[inline]
    fn hung(&mut self, now: Ps) -> bool {
        self.faults.as_mut().is_some_and(|f| f.hang_active(now))
    }

    /// Route a freshly fetched payload command (a frame transfer, never
    /// descriptor or control traffic) through the fault plan: it may be
    /// stalled, retried, or aborted. Returns whether it starts now;
    /// otherwise it waits in the deferred slot.
    fn launch<P: Probe>(&mut self, cmd: DmaCmd, idx: u32, now: Ps, probe: &mut P) -> bool {
        let Some(f) = self.faults.as_mut().filter(|f| f.commands_faulty()) else {
            return true;
        };
        let o = f.draw_command();
        if P::ENABLED {
            if o.stalled {
                probe.emit(Event::Fault {
                    kind: FaultKind::PciStall,
                    unit: self.unit,
                    info: idx,
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
            cmd,
            idx,
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
                (RecoveryKind::FrameAbort, d.idx)
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

/// The DMA **read** engine: host memory → NIC.
#[derive(Debug)]
pub struct DmaRead {
    cfg: DmaConfig,
    ring: CmdRing,
    /// Scratchpad-destination command being executed (BD fetches).
    sp_exec: Option<(u32, u32)>, // (cmd idx, remaining word writes)
    sdram_outstanding: u32,
    gate: FaultGate,
}

impl DmaRead {
    /// Create the engine.
    pub fn new(cfg: DmaConfig) -> DmaRead {
        DmaRead {
            cfg,
            ring: cfg.ring(),
            sp_exec: None,
            sdram_outstanding: 0,
            gate: FaultGate::new(FaultUnit::DmaRead),
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

    /// Enable fault injection on this engine.
    pub fn set_faults(&mut self, f: DmaFaults) {
        self.gate.faults = Some(f);
    }

    /// Fault-site state, when injection is enabled.
    pub fn faults(&self) -> Option<&DmaFaults> {
        self.gate.faults.as_ref()
    }

    /// Mutable fault-site state (the watchdog in `NicSystem` drives the
    /// stuck/reset bookkeeping from outside the engine).
    pub fn faults_mut(&mut self) -> Option<&mut DmaFaults> {
        self.gate.faults.as_mut()
    }

    /// A frame-memory burst tagged `tag` completed.
    pub fn on_sdram_complete_probed<P: Probe>(&mut self, tag: u64, now: Ps, probe: &mut P) {
        self.sdram_outstanding -= 1;
        self.ring.complete(tag as u32);
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
                src: cmd.w0,
                dst: cmd.w1,
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
                self.ring.push(SpRequest {
                    addr: cmd.w1 + k * 4,
                    op: SpOp::Write(u32::from_le_bytes(w)),
                });
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

    /// Whether the engine can take another command: no descriptor copy
    /// in progress, nothing held by the fault plan, and fewer than two
    /// frame-memory bursts outstanding.
    fn room(&self) -> bool {
        self.sp_exec.is_none() && self.gate.deferred.is_none() && self.sdram_outstanding < 2
    }

    /// Advance one CPU cycle. Emits [`Event::DmaStart`] when a command
    /// begins moving data and [`Event::DmaDone`] when a
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
        if self.gate.hung(now) {
            return;
        }
        if let Some(d) = self.gate.resolve_deferred(now, probe) {
            if d.abort {
                // Poison the frame-memory destination so the stale
                // frame cannot later validate as goodput.
                fm.poison(d.cmd.w1, d.cmd.len);
                self.ring.complete(d.idx);
            } else {
                self.start_command(d.cmd, d.idx, host, fm, now, probe);
            }
        }
        match self.ring.poll(xbar) {
            Some(Polled::Entry { idx, words }) => {
                let cmd = DmaCmd::decode(words);
                if cmd.is_scratchpad() || self.gate.launch(cmd, idx, now, probe) {
                    self.start_command(cmd, idx, host, fm, now, probe);
                }
            }
            // A descriptor-word write landed.
            Some(Polled::Own(_)) => {
                if let Some((idx, remaining)) = self.sp_exec {
                    if remaining == 1 {
                        self.sp_exec = None;
                        self.ring.complete(idx);
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

/// The DMA **write** engine: NIC → host memory.
#[derive(Debug)]
pub struct DmaWrite {
    cfg: DmaConfig,
    ring: CmdRing,
    /// Scratchpad-source command in progress: (idx, host addr, bytes
    /// collected, total bytes).
    sp_src: Option<(u32, u32, Vec<u8>, u32)>,
    /// SDRAM-source commands in flight: host destination per tag.
    sdram_dst: Vec<Option<u32>>,
    sdram_outstanding: u32,
    gate: FaultGate,
}

impl DmaWrite {
    /// Create the engine.
    pub fn new(cfg: DmaConfig) -> DmaWrite {
        DmaWrite {
            cfg,
            ring: cfg.ring(),
            sp_src: None,
            sdram_dst: vec![None; cfg.cmd_entries as usize],
            sdram_outstanding: 0,
            gate: FaultGate::new(FaultUnit::DmaWrite),
        }
    }

    /// Scratchpad accesses performed.
    pub fn sp_accesses(&self) -> u64 {
        self.ring.sp_accesses()
    }

    /// Zero counters.
    pub fn reset_stats(&mut self) {
        self.ring.reset_stats();
    }

    /// Enable fault injection on this engine.
    pub fn set_faults(&mut self, f: DmaFaults) {
        self.gate.faults = Some(f);
    }

    /// Fault-site state, when injection is enabled.
    pub fn faults(&self) -> Option<&DmaFaults> {
        self.gate.faults.as_ref()
    }

    /// Mutable fault-site state (see [`DmaRead::faults_mut`]).
    pub fn faults_mut(&mut self) -> Option<&mut DmaFaults> {
        self.gate.faults.as_mut()
    }

    /// A frame-memory read burst completed; write its data to the host.
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
        let poison = self
            .gate
            .faults
            .as_mut()
            .and_then(|f| f.draw_poison(data.len()));
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
        self.ring.complete(idx);
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
                src: cmd.w0,
                dst: cmd.w1,
                bytes: cmd.len,
                at: now,
            });
        }
        if cmd.is_immediate() {
            host.write_u32(cmd.w1, cmd.w0);
            self.ring.complete(idx);
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
                self.ring.push(SpRequest {
                    addr: cmd.w0 + k * 4,
                    op: SpOp::Read,
                });
            }
            self.sp_src = Some((idx, cmd.w1, Vec::with_capacity(cmd.len as usize), cmd.len));
        } else {
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

    /// Whether the engine can take another command (see
    /// [`DmaRead::room`]).
    fn room(&self) -> bool {
        self.sp_src.is_none() && self.gate.deferred.is_none() && self.sdram_outstanding < 2
    }

    /// Advance one CPU cycle. Emits [`Event::DmaStart`] when a command
    /// begins and [`Event::DmaDone`] when an immediate or
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
        if self.gate.hung(now) {
            return;
        }
        if let Some(d) = self.gate.resolve_deferred(now, probe) {
            if d.abort {
                // The frame bytes never left the NIC: zero the host
                // buffer so stale host memory cannot validate.
                host.write(d.cmd.w1, &vec![0u8; d.cmd.len as usize]);
                self.ring.complete(d.idx);
            } else {
                self.start_command(d.cmd, d.idx, host, fm, now, probe);
            }
        }
        match self.ring.poll(xbar) {
            Some(Polled::Entry { idx, words }) => {
                let cmd = DmaCmd::decode(words);
                // Immediate and scratchpad-source commands carry
                // control state; only payload transfers are faulted.
                if cmd.is_immediate()
                    || cmd.is_scratchpad()
                    || self.gate.launch(cmd, idx, now, probe)
                {
                    self.start_command(cmd, idx, host, fm, now, probe);
                }
            }
            // A source word arrived.
            Some(Polled::Own(value)) => {
                let (idx, dst, mut buf, len) =
                    self.sp_src.take().expect("source read without command");
                buf.extend_from_slice(&value.to_le_bytes());
                if buf.len() >= len as usize {
                    buf.truncate(len as usize);
                    host.write(dst, &buf);
                    self.ring.complete(idx);
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
            None => {}
        }
        self.ring.issue(sp_mem, self.room());
    }

    /// Whether the next tick could do real work (see [`DmaRead::busy`]).
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
        fn run_read(&mut self, eng: &mut DmaRead, cycles: usize) {
            for _ in 0..cycles {
                self.now += Ps(5000);
                self.xbar.tick(&mut self.sp);
                let (now, probe) = (self.now, &mut NullProbe);
                eng.tick_probed(
                    now,
                    &mut self.xbar,
                    &self.sp,
                    &self.host,
                    &mut self.fm,
                    probe,
                );
                for c in self.fm.advance(now) {
                    eng.on_sdram_complete_probed(c.tag, now, probe);
                }
            }
        }

        fn run_write(&mut self, eng: &mut DmaWrite, cycles: usize) {
            for _ in 0..cycles {
                self.now += Ps(5000);
                self.xbar.tick(&mut self.sp);
                let (now, probe) = (self.now, &mut NullProbe);
                let host = &mut self.host;
                eng.tick_probed(now, &mut self.xbar, &self.sp, host, &mut self.fm, probe);
                for c in self.fm.advance(now) {
                    eng.on_sdram_complete_probed(
                        c.tag,
                        c.data.as_deref().unwrap(),
                        host,
                        now,
                        probe,
                    );
                }
            }
        }

        /// Write command `idx` into `cfg()`'s ring (the doorbell is the
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
        let mut eng = DmaRead::new(cfg());
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
        let wcfg = DmaConfig { port: 1, ..cfg() };
        let mut eng = DmaWrite::new(wcfg);
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
        let mut eng = DmaWrite::new(cfg());
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
        rig.post(0, 0x6000, 0xa000, 600, 0);
        rig.sp.poke(0x100, 1);
        rig.now = Ps::from_us(2);
        rig.run_write(&mut eng, 600);
        assert_eq!(rig.host.read(0xa000, 600), &frame[..], "stalled, not lost");
        assert_eq!(rig.sp.peek(0x104), 1);
        assert_eq!(eng.faults().unwrap().stats.pci_stalls, 1);
        assert_eq!(eng.faults().unwrap().stats.dma_aborts, 0);
    }
}
