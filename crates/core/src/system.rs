//! Full-system assembly and the main simulation loop.
//!
//! `NicSystem` owns every component of Figure 6 — the cores, the
//! crossbar and scratchpad banks, the instruction memory, the frame
//! memory, the assists — plus the host (driver + main memory) and
//! the network model. [`SystemBuilder::finish`] assembles the paper's
//! four assists — as many DMA read/write engine pairs as the
//! configuration's [`dma_engines`](crate::config::NicConfig::dma_engines) asks for, each
//! with its own crossbar port and command rings, and the one MAC TX and
//! MAC RX. The DMA engines of both directions are one [`Dma`] type with
//! one tick; `step_inner` names the MACs apart because their tick
//! signatures differ. The main loop advances the CPU clock domain cycle
//! by cycle; the frame-side components keep picosecond-resolution state
//! internally and are polled at each CPU tick, and the host's mailbox
//! writes land between cycles as memory-mapped register writes.

use crate::config::{ConfigError, NicConfig};
use crate::stats::RunStats;
use nicsim_assists::{dma_tag_engine, Dma, MacRx, MacTx};
use nicsim_cpu::{CodeLayout, Core, CoreCtx, CoreProfile};
use nicsim_fault::{EccFaults, ErrorStats, FwFaults, LinkFaults};
use nicsim_firmware::map::SCRATCHPAD_BYTES;
use nicsim_firmware::mode::Fw;
use nicsim_firmware::{dispatch_loop, doorbell_words, DispatchMode, MemMap};
use nicsim_host::driver::DRIVER_INTERVAL;
use nicsim_host::{Driver, DriverConfig, HostLayout, HostMemory, Mailbox};
use nicsim_mem::{
    Crossbar, FrameMemory, FrameMemoryConfig, InstrMemory, Listener, Scratchpad, SdramCompletion,
    StreamId,
};
use nicsim_net::link::RxGenerator;
use nicsim_net::workload::TxPacket;
use nicsim_obs::{DmaDir, Event, NullProbe, Probe};
use nicsim_sim::{Freq, Ps};

/// The assembled NIC + host + network simulation.
///
/// The type parameter is the observability [`Probe`] every component
/// reports frame-lifecycle events to. The default, [`NullProbe`],
/// disables observation at compile time: emission sites are gated on
/// `P::ENABLED` (an associated constant), so the unprobed system
/// monomorphizes to exactly the code it had before the probe layer
/// existed — timing, statistics, and the event-driven kernel's
/// skip decisions are bit-identical. Build a probed system with
/// [`NicSystem::build`] + [`SystemBuilder::probe`].
pub struct NicSystem<P: Probe = NullProbe> {
    pub(crate) probe: P,
    pub(crate) cfg: NicConfig,
    pub(crate) map: MemMap,
    pub(crate) now: Ps,
    pub(crate) cpu_period: Ps,
    pub(crate) sp: Scratchpad,
    pub(crate) xbar: Crossbar,
    pub(crate) imem: InstrMemory,
    pub(crate) fm: FrameMemory,
    /// The frame memory's completions of the current step, drained as
    /// they are routed: one buffer for the whole run.
    pub(crate) fm_done: Vec<SdramCompletion>,
    pub(crate) cores: Vec<Core>,
    /// Per core, the cycle it must next be ticked on if the crossbar
    /// holds no response for it ([`Core::due`]).
    pub(crate) core_due: Vec<u64>,
    /// How many cores were not parked or halted (due before `u64::MAX`)
    /// at the end of the last step: with two, none can run alone.
    live_cores: usize,
    /// CPU cycles simulated since boot, skipped ones included: the cycle
    /// number the cores are ticked with.
    pub(crate) cycle: u64,
    /// DMA read engines, indexed by engine id (completion tags carry
    /// the id in their high word).
    pub(crate) dmards: Vec<Dma>,
    /// DMA write engines, indexed by engine id.
    pub(crate) dmawrs: Vec<Dma>,
    pub(crate) mactx: MacTx,
    pub(crate) macrx: MacRx,
    pub(crate) host_mem: HostMemory,
    pub(crate) driver: Driver,
    /// The driver's last poll changed nothing and the NIC has not
    /// written host memory since, so every poll until the next host
    /// write is a provable no-op: the event kernel elides them and may
    /// skip across poll boundaries. Never set while the driver is
    /// time-sensitive — offered-load pacing, or a fleet schedule with
    /// sends pending — since those act on the clock alone.
    pub(crate) driver_idle: bool,
    /// The frame side — DMA engines, MAC TX, MAC RX, frame memory —
    /// sleeps until this time (see [`NicSystem::frame_side_asleep`]);
    /// at or before `now` it is awake.
    pub(crate) frame_wake: Ps,
    /// The first cycle on which any component may change architectural
    /// state, folded at the end of every step (`fold_due`). `run_until`
    /// jumps to it; `inject_rx`, `deliver_ack` and `reset_window` lower
    /// it. The contract that keeps results bit-identical: each part's
    /// value is a *lower bound* on its next state change. Too early
    /// only costs a no-op cycle; too late would skip real work, which
    /// the dense-vs-event equivalence tests catch. A timed event is
    /// [`Ps::MAX`] for "never" and converts with [`NicSystem::cycle_at`].
    pub(crate) next_due: u64,
    /// Cycles elided by the event-driven kernel (diagnostics).
    pub(crate) skipped_cycles: u64,
    /// Cycles simulated for real by the event-driven kernel.
    pub(crate) stepped_cycles: u64,
    pub(crate) window_start: Ps,
    /// Last abort count published to the host status block.
    pub(crate) aborts_published: u32,
    /// Whether the configured fault plan injects anything (the one stored
    /// copy). Sites are armed and aborts published only when set, so
    /// `--faults rate=0` costs nothing and is bit-identical to a clean
    /// run (collect() still reports a zeroed error table, preserving
    /// the zero-rate output contract).
    pub(crate) faults_armed: bool,
    /// Per-core instruction-fault sites, shared with the firmware's
    /// dispatch loops. Empty unless the plan is armed.
    pub(crate) fw_faults: Vec<std::rc::Rc<std::cell::RefCell<FwFaults>>>,
    /// Error counters inherited from a previous incarnation of this NIC
    /// (fleet crash/reset lifecycle): the fleet engine folds the dead
    /// system's error table — plus the reset itself and the frames it
    /// lost — into its replacement, so per-NIC error accounting survives
    /// the reset. Merged into [`NicSystem::collect`]'s error table.
    pub(crate) carried_errors: ErrorStats,
}

/// Staged constructor for [`NicSystem`], the one assembly path for
/// probed and unprobed systems alike.
///
/// [`NicSystem::build`] starts a builder with observation disabled
/// ([`NullProbe`]); [`SystemBuilder::probe`] swaps in an observability
/// probe (changing the builder's type parameter); [`SystemBuilder::finish`]
/// validates the configuration and assembles the system.
///
/// ```
/// use nicsim::{NicConfig, NicSystem};
///
/// let sys = NicSystem::build(NicConfig::default()).finish().unwrap();
/// assert_eq!(sys.config().cores, 6);
/// ```
#[derive(Debug)]
pub struct SystemBuilder<P: Probe = NullProbe> {
    cfg: NicConfig,
    probe: P,
    fleet: Option<FleetMember>,
}

/// What makes a system one NIC of a fleet ([`SystemBuilder::fleet_member`]).
#[derive(Debug)]
pub struct FleetMember {
    /// This NIC's id: frames are addressed from it, and its sequence
    /// numbers are namespaced `src << 24`.
    pub src: u16,
    /// The packets the driver posts instead of the fixed-size
    /// full-duplex stream, sorted by time.
    pub schedule: Vec<TxPacket>,
    /// Sequence number of the schedule's first packet: 0 for a fresh
    /// NIC; a crashed NIC's replacement continues where its predecessor
    /// stopped, so receivers see a gap for the frames lost in flight,
    /// never a regression.
    pub first_seq: u32,
    /// Reliable delivery with this base retransmit timeout: unacked
    /// transmits are retransmitted with exponential backoff, received
    /// frames are deduplicated and acknowledged.
    pub rto: Option<Ps>,
    /// The time the system's clock and measurement window start at:
    /// zero, or the moment a crashed NIC's replacement boots. Seeded
    /// fault timers laid out relative to boot (the DMA hang schedule)
    /// start from here too.
    pub boot_at: Ps,
}

impl NicSystem {
    /// Start building a system from `cfg` with observation disabled.
    /// Attach a probe with [`SystemBuilder::probe`]; assemble with
    /// [`SystemBuilder::finish`].
    pub fn build(cfg: NicConfig) -> SystemBuilder {
        SystemBuilder {
            cfg,
            probe: NullProbe,
            fleet: None,
        }
    }
}

impl<P: Probe> SystemBuilder<P> {
    /// Attach an observability probe, replacing the current one. Every
    /// frame-lifecycle edge — host posts, mailbox doorbells, firmware
    /// handler entries, crossbar grants, DMA and frame-memory bursts,
    /// wire occupancy, driver completions — is reported to it.
    pub fn probe<Q: Probe>(self, probe: Q) -> SystemBuilder<Q> {
        SystemBuilder {
            cfg: self.cfg,
            probe,
            fleet: self.fleet,
        }
    }

    /// Build the system as a fleet member: the driver transmits
    /// `member.schedule`, MAC TX records every wire-completed egress
    /// frame for the fabric to collect via [`NicSystem::take_egress`],
    /// and MAC RX's generator stops synthesizing and serves only frames
    /// injected with [`NicSystem::inject_rx`].
    ///
    /// Build fleet members with `send_enabled` and `recv_enabled` both
    /// set (the defaults): the schedule replaces the legacy transmit
    /// stream inside the driver's posting path, and injected arrivals
    /// replace the receive generator's synthesized stream.
    pub fn fleet_member(mut self, member: FleetMember) -> Self {
        self.fleet = Some(member);
        self
    }

    /// Validate the configuration and assemble the system it asks for.
    ///
    /// # Errors
    ///
    /// Returns the same [`ConfigError`] as [`NicConfig::validate`].
    pub fn finish(self) -> Result<NicSystem<P>, ConfigError> {
        let SystemBuilder { cfg, probe, fleet } = self;
        cfg.validate()?;
        let faults_armed = cfg.faults.as_ref().is_some_and(|p| !p.is_noop());
        let map = MemMap::for_topology(cfg.dma_engines);
        let mut sp = Scratchpad::new(SCRATCHPAD_BYTES, cfg.banks);
        for (addr, bytes) in map.assist_registers() {
            sp.watch_range(addr, bytes, Listener::FrameSide);
        }
        if cfg.dispatch == DispatchMode::Interrupt {
            for (addr, bytes) in doorbell_words(&map) {
                sp.watch_range(addr, bytes, Listener::Cores);
            }
        }
        let xbar = Crossbar::new(cfg.xbar_ports(), cfg.banks);
        let imem = InstrMemory::new();
        let mut fm = FrameMemory::new(FrameMemoryConfig::default());

        // Host.
        let layout = HostLayout::default();
        let host_mem = HostMemory::new(layout.memory_size());
        let mut driver = Driver::new(
            DriverConfig {
                udp_payload: cfg.udp_payload,
                offered_fps: cfg.offered_tx_fps,
                send_enabled: cfg.send_enabled,
            },
            layout,
        );

        // Frame-side units, each on the crossbar port the configuration's port
        // layout assigns and the ring registers the memory map holds.
        let mut dmards: Vec<Dma> = (0..cfg.dma_engines)
            .map(|k| Dma::new(DmaDir::Read, cfg.dmard_port(k), map.dmard(k).regs(), k))
            .collect();
        let mut dmawrs: Vec<Dma> = (0..cfg.dma_engines)
            .map(|k| Dma::new(DmaDir::Write, cfg.dmawr_port(k), map.dmawr(k).regs(), k))
            .collect();
        let mut mactx = MacTx::new(cfg.mactx_port(), map.mactx());
        let mut generator = match cfg.offered_rx_fps {
            Some(fps) => RxGenerator::with_fps(cfg.udp_payload, fps),
            None => RxGenerator::new(cfg.udp_payload),
        };
        if !cfg.recv_enabled {
            generator.disable();
        }
        let mut macrx = MacRx::new(cfg.macrx_port(), map.macrx(), generator);
        let boot_at = fleet.as_ref().map_or(Ps::ZERO, |m| m.boot_at);
        let mut fw_faults = Vec::new();
        if let Some(plan) = cfg.faults.as_ref().filter(|_| faults_armed) {
            // Arm every injection site. The MAC checks the FCS exactly
            // when its link carries faults, so clean builds — and
            // all-zeros plans — never pay for (or depend on) FCS
            // computation.
            macrx.generator.set_faults(LinkFaults::new(plan));
            for d in dmards.iter_mut().chain(&mut dmawrs) {
                d.arm(plan, boot_at);
            }
            fm.set_faults(EccFaults::new(plan));
            fw_faults = (0..cfg.cores)
                .map(|id| std::rc::Rc::new(std::cell::RefCell::new(FwFaults::new(plan, id))))
                .collect();
        }

        // Cores + firmware.
        let mut cores = Vec::with_capacity(cfg.cores);
        for id in 0..cfg.cores {
            let mut core = Core::new(id, cfg.icache, CodeLayout::new());
            let ctx = CoreCtx::new(core.slot(), id);
            let fw = Fw {
                ctx,
                m: map,
                host: layout,
                mode: cfg.mode,
                dispatch: cfg.dispatch,
                fw_faults: fw_faults.get(id).cloned(),
            };
            core.install(dispatch_loop(fw));
            cores.push(core);
        }

        if let Some(m) = fleet {
            driver.set_fleet(m.src, m.schedule, m.first_seq, m.rto);
            mactx.capture_egress();
            macrx.generator.set_external();
        }

        Ok(NicSystem {
            probe,
            cfg,
            map,
            now: boot_at,
            cpu_period: Freq::from_mhz(cfg.cpu_mhz).period(),
            sp,
            xbar,
            imem,
            fm,
            fm_done: Vec::new(),
            core_due: cores.iter().map(Core::due).collect(),
            live_cores: cores.len(),
            cores,
            cycle: 0,
            dmards,
            dmawrs,
            mactx,
            macrx,
            host_mem,
            driver,
            driver_idle: false,
            frame_wake: Ps::ZERO,
            next_due: 1,
            skipped_cycles: 0,
            stepped_cycles: 0,
            window_start: boot_at,
            aborts_published: 0,
            faults_armed,
            fw_faults,
            carried_errors: ErrorStats::default(),
        })
    }
}

impl<P: Probe> NicSystem<P> {
    /// The attached probe.
    pub fn probe(&self) -> &P {
        &self.probe
    }

    /// Consume the system and return the probe with everything it
    /// collected.
    pub fn unwrap_probe(self) -> P {
        self.probe
    }

    /// Current simulation time.
    pub fn now(&self) -> Ps {
        self.now
    }

    /// The scratchpad memory map in use.
    pub fn map(&self) -> MemMap {
        self.map
    }

    /// The configuration.
    pub fn config(&self) -> NicConfig {
        self.cfg
    }

    /// Direct scratchpad access for inspection and tests.
    pub fn scratchpad(&self) -> &Scratchpad {
        &self.sp
    }

    /// Drain the frames MAC TX completed on the wire since the last
    /// drain, as `(wire-done time, frame bytes)` in completion order.
    /// Fleet members only (see [`SystemBuilder::fleet_member`]).
    pub fn take_egress(&mut self) -> Vec<(Ps, Vec<u8>)> {
        self.mactx.take_egress()
    }

    /// Deliver an acknowledgment for fleet sequence `seq`, applied at
    /// the driver's first poll at or after `at`. Reliable mode only.
    pub fn deliver_ack(&mut self, at: Ps, seq: u32) {
        self.driver.deliver_ack(at, seq);
        self.driver_idle = false;
        self.next_due = self.next_due.min(self.next_live_poll());
    }

    /// Drain the acknowledgments the driver owes, as
    /// `(source NIC, fleet seq, receive time)`. Reliable mode only.
    pub fn take_acks(&mut self) -> Vec<(u16, u32, Ps)> {
        self.driver.take_acks()
    }

    /// What a crash at this instant costs and where a replacement
    /// resumes: `(frames that die with the NIC, next fleet sequence
    /// number)`. The frames are the transmits posted to the NIC but not
    /// yet completed plus the injected arrivals still queued on MAC RX;
    /// the sequence number is the replacement's
    /// [`FleetMember::first_seq`].
    pub fn crash_state(&self) -> (u64, u32) {
        let dying =
            self.driver.tx_in_flight() as u64 + self.macrx.generator.pending_injections() as u64;
        (dying, self.driver.fleet_seq_next())
    }

    /// Fold a dead predecessor's error table into this replacement
    /// (crash/reset lifecycle), so per-NIC error accounting survives
    /// the reset. The fleet engine adds the reset itself and the frames
    /// it lost to `prev` before calling.
    pub fn carry_errors(&mut self, prev: ErrorStats) {
        self.carried_errors.merge(&prev);
    }

    /// Schedule a frame to arrive on the wire at absolute time
    /// `at`. Fleet members only; arrivals must be injected in
    /// non-decreasing time order and strictly after the current time.
    pub fn inject_rx(&mut self, at: Ps, frame: Vec<u8>) {
        debug_assert!(at > self.now, "injected arrival is already due");
        self.macrx.generator.inject(at, frame);
        // The arrival may come before a sleeping frame side's wake time.
        if self.frame_wake > self.now {
            self.frame_wake = self.frame_wake.min(self.macrx.next_event());
            self.next_due = self.next_due.min(self.cycle_at(self.frame_wake));
        }
    }

    /// Absolute time of the earliest cycle on which this system may
    /// change architectural state; `Ps::MAX` when nothing is pending.
    /// Any `run_until(until)` with `until` strictly before this time is
    /// provably a no-op (every stepped cycle would be gated), so the
    /// fleet engine skips the call — and the whole epoch — outright.
    pub fn next_activity(&self) -> Ps {
        let wake = self.next_due - self.cycle;
        Ps(self
            .now
            .0
            .saturating_add(self.cpu_period.0.saturating_mul(wake)))
    }

    /// Advance one CPU cycle, ticking every component — the dense
    /// reference semantics. When `gate` is set, components whose tick is
    /// provably a no-op this cycle are bypassed: each bypass condition
    /// below is exact ("the tick would change nothing"), so gated and
    /// ungated steps are bit-identical.
    #[inline]
    pub(crate) fn step_inner(&mut self, gate: bool) {
        self.now += self.cpu_period;
        self.cycle += 1;
        let (now, cycle) = (self.now, self.cycle);

        // Crossbar arbitration, then the cores. A tick only does work
        // when a request awaits a grant; unconsumed responses ride
        // through `skip_cycles` untouched.
        if !gate || self.xbar.needs_tick() {
            self.xbar.tick_probed(&mut self.sp, now, &mut self.probe);
        } else {
            self.xbar.skip_cycles(1);
        }
        // A core is ticked on its due cycle or when the crossbar holds
        // its response (core `i` is port `i`). On any other cycle its
        // tick would only charge a stall bucket, which the next tick or
        // `catch_up` charges in bulk.
        let ready = self.xbar.ready();
        let (mut cores_due, mut live) = (u64::MAX, 0);
        for (i, (core, due)) in self.cores.iter_mut().zip(&mut self.core_due).enumerate() {
            if !gate || *due <= cycle || ready >> i & 1 != 0 {
                *due =
                    core.tick_probed(&mut self.xbar, &mut self.imem, cycle, now, &mut self.probe);
            } else {
                // Only a charge-only state is left alone: its own rule
                // agrees the core is not due.
                debug_assert!(core.due() > cycle, "core {i} slept through {cycle}");
            }
            cores_due = cores_due.min(*due);
            live += usize::from(*due != u64::MAX);
        }

        // The frame side, unless it sleeps through this cycle. Looking
        // at it answers any assist-register write so far.
        if !gate || !self.frame_side_asleep() {
            self.sp.take_signal(Listener::FrameSide);
            self.step_frame_side(gate, now);
        } else {
            debug_assert!(
                !self.frame_side_busy()
                    && self.frame_wake <= self.fm.next_event()
                    && self.frame_wake <= self.mactx.next_event()
                    && self.frame_wake <= self.macrx.next_event(),
                "the frame side slept through work due by {:?}",
                self.frame_wake
            );
        }

        // Host driver, polling on every `DRIVER_INTERVAL`-th cycle (the
        // period models interrupt mitigation). An idle driver's poll is
        // elided when gating: nothing wrote host memory since a poll
        // that did nothing, so this one would do nothing too.
        if cycle % DRIVER_INTERVAL == 0 && (!gate || !self.driver_idle) {
            let acted = self
                .driver
                .tick_probed(now, &mut self.host_mem, &mut self.probe);
            // A time-sensitive driver (offered-load pacing, or a fleet
            // schedule with sends still pending) may act on a later poll
            // with no external write in between, so its polls are never
            // elided.
            self.driver_idle = !acted && !self.driver.time_sensitive();
            for w in self.driver.take_mailbox_writes() {
                let (addr, reg) = match w.reg {
                    Mailbox::SendBdProd => (self.map.send_bd.mailbox_prod, "send_bd_prod"),
                    Mailbox::RxBdProd => (self.map.recv_bd.mailbox_prod, "rx_bd_prod"),
                };
                self.sp.poke(addr, w.value);
                if P::ENABLED {
                    self.probe.emit(Event::MailboxWrite {
                        reg,
                        value: w.value,
                        at: now,
                    });
                }
            }
        }

        // Doorbell fan-out (interrupt dispatch only — no core doorbell
        // is watched otherwise): any write that landed on a watched
        // word this cycle raises every core's wake line. The wake is
        // level-triggered and sticky, and both kernels take this branch
        // at the end of every simulated cycle, so a parked core resumes
        // on the same cycle under dense and event-driven stepping. Each
        // core is charged up to here with its line down first; a parked
        // one is then due on the next cycle.
        if self.sp.take_signal(Listener::Cores) {
            (cores_due, live) = (u64::MAX, 0);
            for (core, due) in self.cores.iter_mut().zip(&mut self.core_due) {
                core.catch_up(cycle);
                core.raise_wake();
                *due = core.due();
                cores_due = cores_due.min(*due);
                live += usize::from(*due != u64::MAX);
            }
        }
        self.live_cores = live;

        self.next_due = self.fold_due(cores_due);
    }

    /// [`NicSystem::next_due`] at the end of a step whose cores are next
    /// due on `cores_due`: the min of that, the next live driver poll
    /// and the frame side's wake, or the next cycle outright.
    ///
    /// An ungranted request keeps the crossbar arbitration hot.
    /// Granted-but-unconsumed *responses* do not: they ride through
    /// skips untouched, and every possible owner is bounded below. A
    /// core awaiting load data or the store buffer acts on the next
    /// cycle; its port is then either requesting or granted on this
    /// cycle, so only the cores in `fresh` are looked at. An assist with
    /// an in-flight transaction reports `busy`. Any other core's buffered
    /// store drains at its next tick wherever that lands (the response's
    /// ready bit makes that the first stepped cycle; draining late is
    /// unobservable: no stats accrue and the core consults the store
    /// buffer only at a memory op's last cycle, a due cycle).
    ///
    /// Always inlined: with `run_alone` as a second caller, a plain
    /// `#[inline]` left it out of line, a call on every stepped cycle.
    #[inline(always)]
    fn fold_due(&mut self, cores_due: u64) -> u64 {
        let next = self.cycle + 1;
        if self.xbar.needs_tick() {
            return next;
        }
        // Core ports come first, so the scan ends at the first assist's
        // port or, with nothing granted, at bit 64.
        let mut fresh = self.xbar.fresh();
        while let Some(core) = self.cores.get(fresh.trailing_zeros() as usize) {
            if core.awaits_response() {
                return next;
            }
            fresh &= fresh - 1;
        }
        debug_assert!(
            !self.cores.iter().any(Core::awaits_response),
            "a waiting core holds neither a request nor a fresh grant"
        );
        let due = cores_due.min(self.next_live_poll());
        if due == next {
            return next;
        }
        // The frame side. Asleep, no `busy` holds until its wake time.
        // Awake, a `busy` assist makes the next cycle due; otherwise the
        // side sleeps until its timed events: frame-memory bursts, wire
        // completions, frame arrivals.
        if !self.frame_side_asleep() {
            if self.frame_side_busy() {
                return next;
            }
            self.frame_wake = self.frame_side_next_event();
        }
        // A wake later than the due cycle's time falls on a later cycle,
        // so only a wake that can bind pays `cycle_at`'s division.
        let gap = (due - self.cycle).saturating_mul(self.cpu_period.0);
        if self.frame_wake.0 > self.now.0.saturating_add(gap) {
            return due;
        }
        due.min(self.cycle_at(self.frame_wake))
    }

    /// The cycle of the next driver poll that is not provably a no-op:
    /// the next multiple of `DRIVER_INTERVAL`, or never while the driver
    /// is idle. Skipped cycles cannot write host memory (nothing acts),
    /// so an idle driver stays idle across a jump.
    #[inline]
    fn next_live_poll(&self) -> u64 {
        if self.driver_idle {
            u64::MAX
        } else {
            (self.cycle / DRIVER_INTERVAL + 1) * DRIVER_INTERVAL
        }
    }

    /// The first cycle whose time reaches `t`, but at least the next
    /// one; never (`u64::MAX`) for [`Ps::MAX`].
    #[inline]
    fn cycle_at(&self, t: Ps) -> u64 {
        if t == Ps::MAX {
            return u64::MAX;
        }
        let ahead = t.0.saturating_sub(self.now.0).div_ceil(self.cpu_period.0);
        self.cycle + ahead.max(1)
    }

    /// One cycle of the frame side: the assists in port-layout order
    /// (reads, writes, MAC TX, MAC RX), the abort-count publication,
    /// then the frame memory. Each `busy` predicate mirrors its tick's
    /// gates exactly (scratchpad traffic queued or in flight, a done
    /// counter owed, a doorbell fetch ready); the MACs additionally act
    /// at their next timed event (wire completion, arrival), the frame
    /// memory only at its own. A gated cycle on which none of them acts
    /// puts the side to sleep until the earliest of those events.
    #[inline]
    fn step_frame_side(&mut self, gate: bool, now: Ps) {
        let mut acted = !gate;
        let reads = self.dmards.len();
        for (k, d) in self.dmards.iter_mut().chain(&mut self.dmawrs).enumerate() {
            if !gate || d.busy(&self.sp) {
                acted = true;
                d.tick_probed(
                    now,
                    &mut self.xbar,
                    &self.sp,
                    &mut self.host_mem,
                    &mut self.fm,
                    &mut self.probe,
                );
                // A write engine may have touched host memory
                // (immediate status updates, scratchpad-source copies):
                // the driver must poll for real again.
                if k >= reads {
                    self.driver_idle = false;
                }
            }
        }
        if !gate || self.mactx.busy(&self.sp) || self.mactx.next_event() <= now {
            acted = true;
            self.mactx
                .tick_probed(now, &mut self.xbar, &self.sp, &mut self.fm, &mut self.probe);
        }
        if !gate || self.macrx.busy() || self.macrx.next_event() <= now {
            acted = true;
            self.macrx
                .tick_probed(now, &mut self.xbar, &self.sp, &mut self.fm, &mut self.probe);
        }

        // The abort-count publication to the host status block. Only
        // live under an armed plan — clean runs (and all-zeros plans)
        // take one branch here and nothing else. Only a read engine's
        // tick moves the count, so an asleep side has nothing to publish.
        if self.faults_armed {
            self.publish_aborts();
        }

        // Frame-memory completions route back to their streams — and,
        // within a DMA stream, to the owning engine, whose id the tag
        // carries in its high word; each MAC stream has one owner. The
        // controller changes state only at `next_event` (a burst start
        // or completion falling due).
        if !gate || self.fm.next_event() <= now {
            acted = true;
            let mut done = std::mem::take(&mut self.fm_done);
            self.fm.advance_probed(now, &mut done, &mut self.probe);
            for c in done.drain(..) {
                match c.stream {
                    StreamId::DmaRead => self.dmards[dma_tag_engine(c.tag)]
                        .on_sdram_complete_probed(
                            c.tag,
                            None,
                            &mut self.host_mem,
                            c.at,
                            &mut self.probe,
                        ),
                    StreamId::DmaWrite => {
                        self.dmawrs[dma_tag_engine(c.tag)].on_sdram_complete_probed(
                            c.tag,
                            Some(self.fm.peek(c.addr, c.len)),
                            &mut self.host_mem,
                            c.at,
                            &mut self.probe,
                        );
                        self.driver_idle = false;
                    }
                    StreamId::MacTx => self.mactx.on_sdram_complete_probed(
                        c.tag as u32,
                        c.at,
                        self.fm.peek(c.addr, c.len),
                        &mut self.probe,
                    ),
                    StreamId::MacRx => self.macrx.on_sdram_complete_probed(c.at, &mut self.probe),
                }
            }
            self.fm_done = done;
        }

        // If nothing acted, nothing here changed: every `busy` stays
        // false until the earliest timed event, unless an assist
        // register is written or a frame is injected. Sleep until then.
        self.frame_wake = if acted {
            Ps::ZERO
        } else {
            self.frame_side_next_event()
        };
    }

    /// Advance one CPU cycle, ticking every component (the dense
    /// reference kernel's step).
    fn step(&mut self) {
        self.step_inner(false);
    }

    /// Aborted DMA reads are aborted transmit frames: publish the
    /// cumulative count (summed over every read engine) to the host
    /// status block so the driver can re-post them.
    fn publish_aborts(&mut self) {
        let aborts: u32 = self
            .dmards
            .iter()
            .filter_map(|d| d.faults())
            .map(|f| f.stats.dma_aborts as u32)
            .sum();
        if aborts != self.aborts_published {
            self.aborts_published = aborts;
            self.host_mem
                .write_u32(self.driver.layout().aborts(), aborts);
            self.driver_idle = false;
        }
    }

    /// Whether the frame side sleeps through the next cycle: a stepped
    /// cycle found none of its units with work and nothing due before
    /// `frame_wake`, and no assist register has been written since
    /// (the scratchpad's frame-side watch; an `inject_rx` brings the
    /// wake time forward). Every input a `busy` predicate or a `next_event`
    /// reads is one of those or the side's own state, so the rule is
    /// exact — `step_inner` checks it on every cycle it sleeps through
    /// in debug builds.
    #[inline]
    fn frame_side_asleep(&self) -> bool {
        self.frame_wake > self.now && !self.sp.signal_pending(Listener::FrameSide)
    }

    /// The frame side's earliest timed event.
    #[inline]
    fn frame_side_next_event(&self) -> Ps {
        self.fm
            .next_event()
            .min(self.mactx.next_event())
            .min(self.macrx.next_event())
    }

    /// Every DMA engine: the read engines, then the write engines.
    fn dmas(&self) -> impl Iterator<Item = &Dma> {
        self.dmards.iter().chain(&self.dmawrs)
    }

    /// Whether any frame-side unit could issue work on its next tick —
    /// the fold of every unit's `busy` predicate, over however many
    /// DMA engines the configuration holds.
    #[inline]
    fn frame_side_busy(&self) -> bool {
        self.dmas().any(|d| d.busy(&self.sp)) || self.mactx.busy(&self.sp) || self.macrx.busy()
    }

    /// Run until simulation time `until` on the hybrid event-driven
    /// kernel: the cycles before [`NicSystem::next_due`] are skipped in
    /// bulk, and within simulated cycles, components whose tick is
    /// provably a no-op are bypassed. Results are bit-identical to
    /// [`NicSystem::run_until_dense`].
    pub fn run_until(&mut self, until: Ps) {
        while self.now < until {
            let idle = self.next_due - self.cycle - 1;
            if idle > 0 {
                // Never skip past `until`: the loop must terminate on
                // the same cycle the dense kernel would, so at most
                // `ceil(left / period) - 1` cycles go. `idle` is below
                // that exactly when `idle * period < left`, and then the
                // clamp cannot bind and nothing is divided.
                let (left, period) = (until.0 - self.now.0, self.cpu_period.0);
                let skip = if idle.saturating_mul(period) < left {
                    idle
                } else {
                    left.div_ceil(period) - 1
                };
                if skip > 0 {
                    // Only an idle driver's polls (no-ops) are skipped.
                    debug_assert!(
                        self.cycle + skip < self.next_live_poll(),
                        "skipped a live driver poll"
                    );
                    // The cores charge the skipped cycles at their next
                    // tick or catch-up.
                    self.skipped_cycles += skip;
                    self.now += Ps(self.cpu_period.0 * skip);
                    self.cycle += skip;
                    self.xbar.skip_cycles(skip);
                }
            }
            self.stepped_cycles += 1;
            self.step_inner(true);
            // A core may run alone only when no second core is live and
            // the frame side sleeps. These tests, which the polling
            // workloads fail, stay here; the rest of the check is out of
            // line.
            if self.live_cores <= 1 && self.frame_side_asleep() && !self.faults_armed {
                self.run_alone(until);
            }
        }
        // Whatever reads the cores next — `collect`, `reset_window`, a
        // fleet's crash snapshot — sees every cycle charged.
        for core in &mut self.cores {
            core.catch_up(self.cycle);
        }
    }

    /// After a gated step: when one core is all that can act, run it
    /// ahead of the clock ([`Core::run_alone`]) and jump the clock with
    /// it, counting its cycles as skipped. It may run while every other
    /// core is parked with its wake line down or halted and its port is
    /// idle, the frame side is asleep and no fault plan is armed; and
    /// only up to the cycle before the frame side wakes or the driver
    /// polls live, and through `run_until`'s last cycle. Nothing else
    /// acts on those cycles, and the core stops before a grant that
    /// would raise a listener's signal, so each is the step the gated
    /// kernel would have taken. The caller has found at most one core
    /// live, the frame side asleep and no plan armed.
    #[inline(never)]
    fn run_alone(&mut self, until: Ps) {
        let mut lone = None;
        for (i, due) in self.core_due.iter().enumerate() {
            if *due != u64::MAX || !self.xbar.port_idle(i) {
                if lone.is_some() {
                    return;
                }
                lone = Some(i);
            }
        }
        let Some(i) = lone else {
            return;
        };
        if self.now >= until {
            return;
        }
        let last = self.cycle + (until.0 - self.now.0).div_ceil(self.cpu_period.0);
        let limit = last
            .min(self.cycle_at(self.frame_wake).saturating_sub(1))
            .min(self.next_live_poll() - 1);
        debug_assert!(
            (0..self.cfg.xbar_ports()).all(|p| p == i || self.xbar.port_idle(p)),
            "another port holds a crossbar transaction"
        );
        let from = (self.cycle, self.now, self.cpu_period);
        let end = self.cores[i].run_alone(
            &mut self.xbar,
            &mut self.sp,
            &mut self.imem,
            from,
            limit,
            &mut self.probe,
        );
        let ran = end - self.cycle;
        if ran == 0 {
            return;
        }
        self.skipped_cycles += ran;
        self.now += Ps(self.cpu_period.0 * ran);
        self.cycle = end;
        self.core_due[i] = self.cores[i].due();
        self.next_due = self.fold_due(self.core_due[i]);
    }

    /// `(skipped, simulated)` cycle counts accumulated by the
    /// event-driven kernel, for diagnostics and the simulation-speed
    /// benchmark. A skipped cycle is one `step_inner` did not simulate:
    /// either nothing acted on it, or a core alone on the crossbar acted
    /// on it ahead of the clock ([`Core::run_alone`]), so the
    /// skipped share is not the share of cycles the model idles. Dense
    /// runs leave both at zero.
    pub fn kernel_cycle_split(&self) -> (u64, u64) {
        (self.skipped_cycles, self.stepped_cycles)
    }

    /// Run until simulation time `until`, simulating every cycle (the
    /// reference kernel the equivalence tests compare against).
    pub fn run_until_dense(&mut self, until: Ps) {
        while self.now < until {
            self.step();
        }
    }

    /// Discard statistics gathered so far and restart the measurement
    /// window at the current time. The probe observes this as an
    /// [`Event::WindowReset`], so sinks can align with the measurement
    /// window (e.g. [`nicsim_obs::FrameTracker`] filters its summary to
    /// in-window frames, and [`nicsim_mem::AccessTrace`] discards
    /// warmup accesses).
    pub fn reset_window(&mut self) {
        let now = self.now;
        if P::ENABLED {
            self.probe.emit(Event::WindowReset { at: now });
        }
        self.window_start = now;
        // Counter resets change what the next driver poll observes.
        self.driver_idle = false;
        self.next_due = self.next_due.min(self.next_live_poll());
        for c in &mut self.cores {
            c.reset_stats();
        }
        self.xbar.reset_stats();
        self.imem.reset_stats();
        self.fm.reset_stats();
        for d in self.dmards.iter_mut().chain(&mut self.dmawrs) {
            d.reset_stats();
        }
        self.mactx.monitor.reset(now);
        self.mactx.reset_stats();
        self.macrx.reset_stats();
        self.driver.reset_window(now);
    }

    /// Warm the system up, then measure a steady-state window.
    pub fn run_measured(&mut self, warmup: Ps, window: Ps) -> RunStats {
        self.run_until(self.now + warmup);
        self.reset_window();
        self.run_until(self.now + window);
        self.collect()
    }

    /// [`NicSystem::run_measured`] on the dense reference kernel.
    pub fn run_measured_dense(&mut self, warmup: Ps, window: Ps) -> RunStats {
        self.run_until_dense(self.now + warmup);
        self.reset_window();
        self.run_until_dense(self.now + window);
        self.collect()
    }

    /// Collect statistics for the current window.
    pub fn collect(&self) -> RunStats {
        let window = self.now.saturating_sub(self.window_start);
        let secs = window.as_secs_f64().max(1e-15);
        let mut profile = CoreProfile::new();
        // The clock advances one period per cycle, skipped ones included.
        let core_ticks = window.0 / self.cpu_period.0;
        let mut icache_hits = 0;
        let mut icache_misses = 0;
        for c in &self.cores {
            profile.merge(c.profile());
            icache_hits += c.icache().hits();
            icache_misses += c.icache().misses();
        }
        let core_sp: u64 = (0..self.cfg.cores)
            .map(|p| self.xbar.port_stats(p).grants)
            .sum();
        let assist_sp: u64 = self.dmas().map(Dma::sp_accesses).sum::<u64>()
            + self.mactx.sp_accesses()
            + self.macrx.sp_accesses();
        let d = self.driver.stats();
        let window_cycles = core_ticks.max(1) as f64;
        // Every site counts into its own error table; the five rows
        // named here are the ones that live outside a site.
        let errors = self.cfg.faults.map(|_| {
            let mut e = ErrorStats {
                crc_dropped: self.macrx.crc_dropped(),
                rx_error_returns: d.rx_error_returns,
                tx_retries: d.tx_retries,
                tx_retransmits: d.tx_retransmits,
                rx_duplicates: d.rx_duplicates,
                ..ErrorStats::default()
            };
            let sites = self
                .dmas()
                .filter_map(|d| d.faults())
                .map(|f| f.stats)
                .chain(self.macrx.generator.fault_stats())
                .chain(self.fm.fault_stats())
                .chain(self.fw_faults.iter().map(|f| f.borrow().stats))
                .chain([self.carried_errors]);
            for site in sites {
                e.merge(&site);
            }
            e
        });
        RunStats {
            window,
            cores: self.cfg.cores,
            cpu_mhz: self.cfg.cpu_mhz,
            tx_frames: self.mactx.monitor.frames(),
            rx_frames: d.rx_frames,
            tx_udp_gbps: self.mactx.monitor.udp_gbps(self.now),
            rx_udp_gbps: self.driver.rx_udp_gbps(self.now),
            rx_mac_drops: self.macrx.drops(),
            tx_errors: self.mactx.monitor.errors().len() as u64 + self.mactx.monitor.out_of_order(),
            rx_corrupt: d.rx_corrupt,
            rx_out_of_order: d.rx_out_of_order,
            profile,
            core_ticks,
            core_sp_accesses: core_sp,
            assist_sp_accesses: assist_sp,
            scratchpad_gbps: (core_sp + assist_sp) as f64 * 4.0 * 8.0 / secs / 1e9,
            instr_mem_gbps: self.imem.bytes_transferred() as f64 * 8.0 / secs / 1e9,
            instr_mem_utilization: self.imem.busy_cycles() as f64 / window_cycles,
            frame_mem_gbps: self.fm.padded_bytes() as f64 * 8.0 / secs / 1e9,
            frame_mem_wasted_bytes: self.fm.wasted_bytes(),
            frame_mem_mean_latency: self.fm.mean_latency(),
            frame_mem_max_latency: self.fm.max_latency(),
            icache_hits,
            icache_misses,
            errors,
        }
    }

    /// Ask the firmware to stop and run until every core has halted.
    ///
    /// # Panics
    ///
    /// Panics if the cores fail to halt within `timeout`.
    pub fn stop(&mut self, timeout: Ps) {
        self.sp.poke(self.map.stop_flag, 1);
        let deadline = self.now + timeout;
        while self.cores.iter().any(|c| !c.halted()) {
            assert!(self.now < deadline, "firmware failed to halt");
            self.step();
        }
    }

    /// Whether all cores have halted.
    pub fn halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted())
    }
}

impl<P: Probe> std::fmt::Debug for NicSystem<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NicSystem")
            .field("cores", &self.cfg.cores)
            .field("cpu_mhz", &self.cfg.cpu_mhz)
            .field("mode", &self.cfg.mode)
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_firmware::FwMode;

    #[test]
    fn build_rejects_what_validate_rejects() {
        let cfg = NicConfig {
            cores: 0,
            ..NicConfig::default()
        };
        assert_eq!(
            NicSystem::build(cfg).finish().err(),
            Some(ConfigError::ZeroCores)
        );
        let cfg = NicConfig {
            cores: 2,
            mode: FwMode::Ideal,
            ..NicConfig::default()
        };
        assert_eq!(
            NicSystem::build(cfg).finish().err(),
            Some(ConfigError::IdealMultiCore { cores: 2 })
        );
    }

    /// `validate()` is the whole gate: every configuration it accepts
    /// assembles, so a bad input surfaces as a `ConfigError`, never as
    /// a panic inside `finish()`.
    #[test]
    fn finish_never_panics_on_a_validated_config() {
        let fps = [None, Some(f64::NAN), Some(-5.0), Some(0.0), Some(2e4)];
        let mut accepted = 0;
        for cpu_mhz in [0, 1, 166, 1_000_000, 2_000_000, u64::MAX] {
            for dma_engines in [1, 3, 4] {
                for (tx, rx) in [(0, 0), (1, 0), (0, 2), (3, 3), (4, 0), (0, 4)] {
                    let cfg = NicConfig {
                        cpu_mhz,
                        offered_tx_fps: fps[tx],
                        offered_rx_fps: fps[rx],
                        dma_engines,
                        ..NicConfig::default()
                    };
                    let built = NicSystem::build(cfg).finish();
                    assert_eq!(built.is_ok(), cfg.validate().is_ok(), "{cfg:?}");
                    accepted += built.is_ok() as usize;
                }
            }
        }
        assert!(accepted > 0, "the grid must include buildable points");
        // Both bounds on `cores` from both sides: the firmware's
        // `MAX_CORES` (16), and the crossbar's 64-port limit on the
        // smallest and the largest topology, which is checked first.
        let cores_err = |cores| Err(ConfigError::TooManyCores { cores });
        let ports_err = |ports| Err(ConfigError::TooManyPorts { ports });
        for (cores, dma_engines, want) in [
            (16, 1, Ok(())),
            (16, 3, Ok(())),
            (17, 1, cores_err(17)),
            (60, 1, cores_err(60)),
            (61, 1, ports_err(65)),
            (56, 3, cores_err(56)),
            (57, 3, ports_err(65)),
            (usize::MAX, 1, ports_err(usize::MAX)),
        ] {
            let cfg = NicConfig {
                cores,
                dma_engines,
                ..NicConfig::default()
            };
            assert_eq!(cfg.validate(), want, "{cores} cores");
            assert_eq!(
                NicSystem::build(cfg).finish().is_ok(),
                want.is_ok(),
                "{cores} cores"
            );
        }
    }

    /// The gate looks at the cache geometry too: each of these ran into
    /// an assert in `nicsim-mem` at assembly.
    #[test]
    fn validate_gates_cache_geometry() {
        use nicsim_mem::ICacheConfig;
        let d = NicConfig::default();
        let icache = |(bytes, ways, line_bytes)| NicConfig {
            icache: ICacheConfig {
                bytes,
                ways,
                line_bytes,
            },
            ..d
        };
        let icaches = [
            (0, 2, 32),
            (8192, 0, 32),
            (8192, 2, 0),
            (8192, 2, 3),
            (8192, 2, 24),
            (8192, usize::MAX, 32),
            (1 << 40, 2, 32),
        ];
        for cfg in icaches.into_iter().map(icache) {
            let err = cfg.validate().expect_err("validate must reject");
            assert!(matches!(err, ConfigError::BadICache { .. }), "{err}");
            assert_eq!(NicSystem::build(cfg).finish().err(), Some(err));
        }
        // The defaults and both ablation sweeps' points still build and run.
        let kb = [1usize, 2, 4, 8, 16].map(|kb| icache((kb * 1024, 2, 32)));
        let banks = [1usize, 2, 4, 8].map(|banks| NicConfig { banks, ..d });
        for cfg in kb.into_iter().chain(banks) {
            let mut sys = NicSystem::build(cfg).finish().expect("sweep point builds");
            sys.run_measured(Ps::from_us(5), Ps::from_us(5));
        }
    }

    /// Interrupt dispatch: a write to any word of the firmware's
    /// doorbell list wakes a parked core for one more scan; a write to
    /// a word outside it — a lock, a claim counter — does not.
    #[test]
    fn doorbell_writes_wake_a_parked_core_and_lock_writes_do_not() {
        let cfg = NicConfig {
            cores: 1,
            dispatch: DispatchMode::Interrupt,
            send_enabled: false,
            recv_enabled: false,
            dma_engines: 2,
            ..NicConfig::default()
        };
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let map = sys.map();
        // Wait for the core to park (the first wait covers fetching the
        // posted receive BDs), then write `addr`. The write lands
        // between cycles; the wake line rises at the end of the next
        // one and the core leaves `wfi` on the one after.
        let mut parked_after_write = |addr: u32| {
            let deadline = sys.now() + Ps::from_ms(1);
            while !sys.cores[0].parked() {
                assert!(sys.now() < deadline, "quiet system, core still running");
                sys.run_until(sys.now() + Ps::from_us(10));
            }
            sys.sp.poke(addr, sys.sp.peek(addr));
            sys.step();
            sys.step();
            sys.cores[0].parked()
        };
        for (addr, bytes) in doorbell_words(&map) {
            for a in (addr..addr + bytes).step_by(4) {
                assert!(!parked_after_write(a), "{a:#x} is a doorbell");
            }
        }
        let rd = map.dmard(1);
        for a in [map.lock_sbd, rd.lock, rd.claim, map.recv_commit] {
            assert!(parked_after_write(a), "{a:#x} is not a doorbell");
        }
    }

    /// The frame side's watch, for every topology: a write to any
    /// assist register — each command ring's producer word — wakes a
    /// sleeping frame side for one more look; a write to a lock, a
    /// claim counter, or a word only the cores watch does not.
    #[test]
    fn assist_register_writes_wake_a_sleeping_frame_side_and_lock_writes_do_not() {
        for dma_engines in 1..=nicsim_firmware::map::MAX_DMA_ENGINES {
            let cfg = NicConfig {
                cores: 1,
                dispatch: DispatchMode::Interrupt,
                send_enabled: false,
                recv_enabled: false,
                dma_engines,
                ..NicConfig::default()
            };
            let mut sys = NicSystem::build(cfg).finish().unwrap();
            let map = sys.map();
            // Wait for the side to fall asleep (the first wait covers
            // fetching the posted receive BDs), then rewrite `addr` with
            // its own value: a wake finds nothing to do, so the next
            // stepped cycle puts the side back to sleep.
            let mut asleep_after_write = |addr: u32| {
                let deadline = sys.now() + Ps::from_ms(1);
                while !sys.frame_side_asleep() {
                    assert!(sys.now() < deadline, "quiet system, frame side awake");
                    sys.run_until(sys.now() + Ps::from_us(10));
                }
                sys.sp.poke(addr, sys.sp.peek(addr));
                let asleep = sys.frame_side_asleep();
                sys.step_inner(true);
                assert!(sys.frame_side_asleep(), "{addr:#x}: nothing to do");
                asleep
            };
            let registers: Vec<_> = map.assist_registers().collect();
            assert_eq!(registers.len(), 2 * dma_engines + 1);
            for (addr, bytes) in registers {
                assert_eq!(bytes, 4);
                assert!(!asleep_after_write(addr), "{addr:#x} is a register");
            }
            let rd = map.dmard(dma_engines - 1);
            let doorbell = rd.done;
            for a in [map.lock_sbd, rd.lock, rd.claim, map.recv_commit, doorbell] {
                assert!(asleep_after_write(a), "{a:#x} is not a register");
            }
        }
    }

    /// A frame injected into a fleet member whose frame side sleeps
    /// (with no arrival pending, it sleeps with no wake time at all)
    /// arrives on the cycle the dense kernel takes it, in both dispatch
    /// modes, with the same event stream.
    #[test]
    fn an_injected_frame_wakes_a_sleeping_fleet_member_on_the_dense_cycle() {
        use nicsim_net::frame::{build_udp_frame, set_endpoints};
        use nicsim_obs::EventLog;
        for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
            let cfg = NicConfig {
                cores: 1,
                dispatch,
                ..NicConfig::default()
            };
            let build = || {
                NicSystem::build(cfg)
                    .probe(EventLog::new())
                    .fleet_member(FleetMember {
                        src: 0,
                        schedule: Vec::new(),
                        first_seq: 0,
                        rto: None,
                        boot_at: Ps::ZERO,
                    })
                    .finish()
                    .unwrap()
            };
            let (mut dense, mut event) = (build(), build());
            // Past boot, cycle by cycle until the side falls asleep.
            dense.run_until_dense(Ps::from_us(10));
            event.run_until(Ps::from_us(10));
            while !(event.frame_side_asleep() && event.frame_wake == Ps::MAX) {
                assert!(event.now() < Ps::from_ms(1), "{dispatch:?}: side awake");
                let next = event.now() + Ps(1);
                dense.run_until_dense(next);
                event.run_until(next);
            }
            let mut frame = build_udp_frame(0, 1472);
            set_endpoints(&mut frame, 1, 0);
            // Due between cycle boundaries, a few cycles out.
            let at = event.now() + Ps(3 * event.cpu_period.0 - 1_234);
            dense.inject_rx(at, frame.clone());
            event.inject_rx(at, frame);
            let end = at + Ps::from_us(20);
            dense.run_until_dense(end);
            event.run_until(end);
            let arrival = |sys: &NicSystem<EventLog>| {
                sys.probe().events().iter().find_map(|e| match e {
                    Event::MacRxArrival { at, .. } => Some(*at),
                    _ => None,
                })
            };
            let first_cycle_at_or_after =
                Ps(at.0.div_ceil(event.cpu_period.0) * event.cpu_period.0);
            assert_eq!(
                arrival(&dense),
                Some(first_cycle_at_or_after),
                "{dispatch:?}"
            );
            assert_eq!(arrival(&event), arrival(&dense), "{dispatch:?}");
            assert!(
                dense.probe().events() == event.probe().events(),
                "{dispatch:?}: event streams diverged"
            );
        }
    }

    /// A timed event converts to the first cycle at or after it, never
    /// sooner than the next one; `Ps::MAX` stays never.
    #[test]
    fn cycle_at_rounds_up_to_a_later_cycle() {
        let cfg = NicConfig {
            cpu_mhz: 500,
            ..NicConfig::default()
        };
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        sys.run_until_dense(Ps::from_ns(10));
        // Cycle 5 at 10 ns, 2 ns a cycle.
        assert_eq!((sys.cycle, sys.now), (5, Ps::from_ns(10)));
        assert_eq!(sys.cycle_at(Ps::from_ns(16)), 8, "exactly 3 periods out");
        assert_eq!(sys.cycle_at(Ps(16_001)), 9, "just past: a 4th cycle");
        for at_or_before in [Ps::from_ns(10), Ps(3), Ps::ZERO] {
            assert_eq!(sys.cycle_at(at_or_before), 6, "due now: the next cycle");
        }
        assert_eq!(sys.cycle_at(Ps::MAX), u64::MAX);
    }

    /// A fleet member with nothing scheduled, in interrupt dispatch: its
    /// core parks and its driver and frame side go quiet.
    fn quiet_member() -> NicSystem<nicsim_obs::EventLog> {
        let cfg = NicConfig {
            cores: 1,
            cpu_mhz: 500,
            dispatch: DispatchMode::Interrupt,
            ..NicConfig::default()
        };
        NicSystem::build(cfg)
            .probe(nicsim_obs::EventLog::new())
            .fleet_member(FleetMember {
                src: 0,
                schedule: Vec::new(),
                first_seq: 0,
                rto: None,
                boot_at: Ps::ZERO,
            })
            .finish()
            .unwrap()
    }

    /// `run_until(t)` ends on the dense kernel's cycle for `t` on a cycle
    /// edge and 1 ps either side of it, whether the due cycle lies before
    /// `t`'s last cycle (the skip fits), on it, just past it or nowhere
    /// (the clamp binds). A due cycle lowered by hand is allowed: too
    /// early only costs a no-op step.
    #[test]
    fn run_until_stops_on_the_dense_cycle_around_a_cycle_edge() {
        let (mut dense, mut event) = (quiet_member(), quiet_member());
        dense.run_until_dense(Ps::from_us(10));
        event.run_until(Ps::from_us(10));
        while event.next_due != u64::MAX {
            assert!(event.now() < Ps::from_ms(1), "never quiet");
            let next = event.now() + Ps(1);
            dense.run_until_dense(next);
            event.run_until(next);
        }
        let mut clamped = 0;
        for offset in [-1, 0, 1] {
            for ahead in [Some(99), Some(100), Some(101), None] {
                // Cycle edge 100 cycles out, then `t` around it.
                let edge = event.now.0 + 100 * event.cpu_period.0;
                let t = Ps(edge.checked_add_signed(offset).unwrap());
                if let Some(k) = ahead {
                    event.next_due = event.next_due.min(event.cycle + k);
                }
                clamped += u32::from(event.next_due > event.cycle + 101);
                dense.run_until_dense(t);
                event.run_until(t);
                let when = format!("offset {offset} ps, due {ahead:?}");
                assert_eq!((event.cycle, event.now), (dense.cycle, dense.now), "{when}");
                assert_eq!(event.collect(), dense.collect(), "{when}");
            }
        }
        assert_eq!(clamped, 3, "the quiet member was due before `t`");
        assert!(
            dense.probe().events() == event.probe().events(),
            "event streams diverged"
        );
    }

    /// A sleeping frame side whose wake time is exactly the time of the
    /// due cycle (here a live driver poll), or 1 ps either side of it:
    /// the fold keeps that cycle, and the run matches the dense kernel.
    /// A wake one whole cycle earlier binds instead.
    #[test]
    fn a_frame_wake_on_the_due_cycles_time_matches_dense() {
        use nicsim_net::frame::{build_udp_frame, set_endpoints};
        let period = Freq::from_mhz(500).period().0 as i64;
        for offset in [-period, -1, 0, 1] {
            let (mut dense, mut event) = (quiet_member(), quiet_member());
            dense.run_until_dense(Ps::from_us(10));
            event.run_until(Ps::from_us(10));
            // Until nothing at all is due, and the next driver poll is
            // at least two cycles past the next one.
            while !(event.next_due == u64::MAX && (event.cycle + 2) % DRIVER_INTERVAL != 0) {
                assert!(event.now() < Ps::from_ms(1), "side awake");
                let next = event.now() + Ps(1);
                dense.run_until_dense(next);
                event.run_until(next);
            }
            // The poll after the next cycle, made live; a frame arrives
            // on its time, give or take `offset`.
            let poll = ((event.cycle + 1) / DRIVER_INTERVAL + 1) * DRIVER_INTERVAL;
            let poll_at = event.now.0 + (poll - event.cycle) * event.cpu_period.0;
            let at = Ps(poll_at.checked_add_signed(offset).unwrap());
            let mut frame = build_udp_frame(0, 1472);
            set_endpoints(&mut frame, 1, 0);
            dense.inject_rx(at, frame.clone());
            event.inject_rx(at, frame);
            event.driver_idle = false;
            // One step, whose fold sees the wake against the poll.
            let next = event.now() + Ps(1);
            dense.run_until_dense(next);
            event.run_until(next);
            assert!(event.frame_side_asleep(), "offset {offset} ps");
            assert_eq!(event.frame_wake, at, "offset {offset} ps");
            let wake_binds = u64::from(offset == -period);
            assert_eq!(event.next_due, poll - wake_binds, "offset {offset} ps");
            let end = at + Ps::from_us(20);
            dense.run_until_dense(end);
            event.run_until(end);
            assert_eq!(dense.collect(), event.collect(), "offset {offset} ps");
            assert!(
                dense.probe().events() == event.probe().events(),
                "offset {offset} ps: event streams diverged"
            );
        }
    }

    /// The fleet's quiet-epoch skip on one member: advanced to each 1 µs
    /// boundary only when `next_activity()` falls inside the epoch (as
    /// the fleet's `Member::run_epoch` does), with a frame injected
    /// every 13 epochs, it ends in the same state and event stream as a
    /// member stepped densely through every epoch. Interrupt dispatch
    /// parks the cores, so epochs are actually skipped there.
    #[test]
    fn a_member_skipped_by_next_activity_matches_dense() {
        use nicsim_net::frame::{build_udp_frame, set_endpoints};
        use nicsim_obs::EventLog;
        for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
            let cfg = NicConfig {
                cores: 2,
                cpu_mhz: 500,
                dispatch,
                ..NicConfig::default()
            };
            let build = || {
                NicSystem::build(cfg)
                    .probe(EventLog::new())
                    .fleet_member(FleetMember {
                        src: 0,
                        schedule: Vec::new(),
                        first_seq: 0,
                        rto: None,
                        boot_at: Ps::ZERO,
                    })
                    .finish()
                    .unwrap()
            };
            let (mut dense, mut event) = (build(), build());
            let mut skipped = 0;
            let mut end = Ps::ZERO;
            for epoch in 1..=300u32 {
                end = Ps::from_us(epoch.into());
                if epoch % 13 == 0 {
                    // Due inside this epoch, between cycle boundaries.
                    let mut frame = build_udp_frame(epoch / 13, 1472);
                    set_endpoints(&mut frame, 1, 0);
                    let at = end - Ps(1_234);
                    dense.inject_rx(at, frame.clone());
                    event.inject_rx(at, frame);
                }
                dense.run_until_dense(end);
                if event.next_activity() <= end {
                    event.run_until(end);
                } else {
                    skipped += 1;
                }
            }
            event.run_until(end);
            assert_eq!(dense.collect(), event.collect(), "{dispatch:?}");
            assert!(
                dense.probe().events() == event.probe().events(),
                "{dispatch:?}: event streams diverged"
            );
            if dispatch == DispatchMode::Interrupt {
                assert!(skipped > 0, "no epoch was skipped");
            }
        }
    }

    /// `core_ticks` is the window in CPU cycles on both kernels: after a
    /// measured run, after a second window reset, and for a fleet member
    /// whose clock starts at a nonzero `boot_at`.
    #[test]
    fn core_ticks_is_the_window_in_cycles() {
        let cfg = NicConfig {
            cores: 2,
            cpu_mhz: 500,
            ..NicConfig::default()
        };
        let window_in_cycles = |sys: &NicSystem, when: &str| {
            let s = sys.collect();
            assert!(s.core_ticks > 0, "{when}: empty window");
            assert_eq!(s.core_ticks * sys.cpu_period.0, s.window.0, "{when}");
        };
        for dense in [false, true] {
            let run = |sys: &mut NicSystem, until: Ps| {
                if dense {
                    sys.run_until_dense(until);
                } else {
                    sys.run_until(until);
                }
            };
            let (warmup, window) = (Ps::from_us(20), Ps::from_us(30));
            let mut sys = NicSystem::build(cfg).finish().unwrap();
            if dense {
                sys.run_measured_dense(warmup, window);
            } else {
                sys.run_measured(warmup, window);
            }
            window_in_cycles(&sys, "run_measured");
            sys.reset_window();
            let until = sys.now() + Ps::from_us(7);
            run(&mut sys, until);
            window_in_cycles(&sys, "second reset_window");

            let mut member = NicSystem::build(cfg)
                .fleet_member(FleetMember {
                    src: 0,
                    schedule: Vec::new(),
                    first_seq: 0,
                    rto: None,
                    boot_at: Ps::from_us(13),
                })
                .finish()
                .unwrap();
            run(&mut member, Ps::from_us(40));
            window_in_cycles(&member, "late boot");
        }
    }

    /// End-to-end smoke test: a fast small system moves real frames both
    /// directions with full validation.
    #[test]
    fn end_to_end_duplex_traffic() {
        let cfg = NicConfig {
            cores: 2,
            cpu_mhz: 500,
            ..NicConfig::default()
        };
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let stats = sys.run_measured(Ps::from_us(150), Ps::from_us(150));
        assert!(stats.tx_frames > 20, "tx_frames = {}", stats.tx_frames);
        assert!(stats.rx_frames > 20, "rx_frames = {}", stats.rx_frames);
        stats.assert_clean();
    }

    #[test]
    fn firmware_stops_cleanly() {
        let cfg = NicConfig {
            cores: 2,
            cpu_mhz: 500,
            ..NicConfig::default()
        };
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        sys.run_until(Ps::from_us(50));
        sys.stop(Ps::from_ms(5));
        assert!(sys.halted());
    }

    #[test]
    fn ideal_mode_processes_frames() {
        let mut sys = NicSystem::build(NicConfig::ideal()).finish().unwrap();
        let stats = sys.run_measured(Ps::from_us(200), Ps::from_us(200));
        assert!(stats.tx_frames > 10);
        assert!(stats.rx_frames > 10);
        stats.assert_clean();
    }

    #[test]
    fn software_only_mode_processes_frames() {
        let cfg = NicConfig {
            cores: 2,
            cpu_mhz: 500,
            mode: FwMode::SoftwareOnly,
            ..NicConfig::default()
        };
        let mut sys = NicSystem::build(cfg).finish().unwrap();
        let stats = sys.run_measured(Ps::from_us(150), Ps::from_us(150));
        assert!(stats.tx_frames > 10);
        assert!(stats.rx_frames > 10);
        stats.assert_clean();
    }
}
