//! Deterministic sharded multi-NIC fleet simulation.
//!
//! The paper evaluates one NIC against a synthetic full-duplex stream;
//! this crate scales the reproduction out: `N` complete [`NicSystem`]s
//! (firmware, assists, host driver and all) exchange real frames
//! through a switch [`Fabric`] — per-egress-port output queues, link
//! bandwidth and latency, finite buffers with drops — driven by a
//! flow-level [`Workload`] (traffic matrices, packet-size mixes,
//! bursty arrivals, incast) instead of the fixed-size generators.
//!
//! # The epoch engine
//!
//! The fleet advances in global **epochs** of length `E = link
//! latency`. Within an epoch every NIC runs independently on the
//! sequential event kernel ([`NicSystem::run_until`]); at the epoch
//! barrier the engine drains each NIC's wire-completed egress frames,
//! feeds them through the fabric in canonical `(wire-done time, source
//! NIC)` order, and appends the resulting deliveries to the
//! destination NICs' arrival queues. This conservative schedule is
//! exact, not approximate: a frame leaving NIC `i`'s wire at time `w`
//! traverses two links (`i → switch → j`) plus the egress queue, so it
//! cannot arrive before `w + 2E` — strictly after the end of the epoch
//! in which it is drained. No NIC can ever observe a frame earlier
//! than the barrier hands it over, so epoch-sliced execution is
//! bit-identical to a global event-ordered co-simulation.
//!
//! # Sharding
//!
//! The NICs split into `shards` contiguous chunks. The calling thread
//! (the coordinator) runs the first chunk and one worker thread runs
//! each other, in lockstep on an
//! [`EpochBarrier`](nicsim_sim::EpochBarrier) generation per epoch;
//! the frame exchange runs on the coordinator between generations.
//! With `shards: 1` the same loop runs every NIC on the calling thread
//! and spawns none. Because epochs are global and the fabric ordering
//! is canonical, results are bit-identical at any shard count —
//! per-NIC [`RunStats`] and the fabric's order-sensitive delivery
//! digest alike, which the engine's tests assert across shard counts
//! and dispatch modes. A NIC that panics, on a worker or on the
//! coordinator, fails [`Fleet::run_measured`] with that panic.
//!
//! Quiet NICs skip whole epochs: the engine consults
//! [`NicSystem::next_activity`] (the event kernel's own wake bound)
//! and elides the `run_until` call when the NIC provably cannot act
//! before the epoch ends — an incast victim or a NIC with an exhausted
//! schedule costs one wake computation per epoch, not a kernel entry.

use nicsim::{ErrorStats, FleetMember, NicConfig, NicSystem, RunStats};
use nicsim_net::workload::{TxPacket, Workload};
use nicsim_net::{Fabric, FabricConfig, FabricFaults, FabricStats, PortStats};
use nicsim_obs::{FrameTracker, LatencySummary};
use nicsim_sim::{EpochBarrier, Freq, Ps};

/// Fleet-level configuration: how many NICs, how they are sharded,
/// what fabric connects them, and what traffic they offer.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of NIC + host systems (2..=256; sequence numbers carry
    /// the source id in their top byte).
    pub nics: usize,
    /// Threads that run the NICs, the calling thread included: it runs
    /// the first of `shards` contiguous chunks and a worker thread runs
    /// each other (1 = every NIC on the calling thread, no thread
    /// spawned). Results are identical at any value.
    pub shards: usize,
    /// Per-NIC configuration (all NICs identical; `send_enabled` and
    /// `recv_enabled` must both be set so the driver posts the fleet
    /// schedule and MAC RX accepts injected arrivals).
    pub nic: NicConfig,
    /// The switch model between the NICs.
    pub fabric: FabricConfig,
    /// The offered traffic.
    pub workload: Workload,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nics: 4,
            shards: 1,
            nic: NicConfig::default(),
            fabric: FabricConfig::default(),
            workload: Workload::default(),
        }
    }
}

impl FleetConfig {
    /// Check everything [`Fleet::new`] checks before it generates a
    /// schedule: the fleet's shape, the NIC configuration, the
    /// workload, the epoch length, and every schedule's expected length
    /// over `horizon` against the 24-bit sequence space. Nothing is
    /// built. (`Fleet::new` also bounds the generated lengths, which
    /// vary for Poisson and bursty arrivals.)
    ///
    /// # Errors
    ///
    /// Returns the first rule the configuration violates.
    pub fn validate(&self, horizon: Ps) -> Result<(), FleetError> {
        let fail = |msg: String| Err(FleetError(msg));
        let (nics, shards, nic) = (self.nics, self.shards, &self.nic);
        if !(2..=256).contains(&nics) {
            return fail(format!("nics must be in 2..=256, got {nics}"));
        }
        if shards == 0 || shards > nics {
            return fail(format!("shards must be in 1..={nics}, got {shards}"));
        }
        if !nic.send_enabled || !nic.recv_enabled {
            return fail("fleet NICs need send_enabled and recv_enabled".into());
        }
        if nic.offered_tx_fps.is_some() || nic.offered_rx_fps.is_some() {
            return fail("offered-load pacing conflicts with the fleet schedule".into());
        }
        nic.validate().map_err(|e| FleetError(e.to_string()))?;
        self.workload.check(nics).map_err(FleetError)?;
        let epoch = self.fabric.link_latency.0;
        let period = Freq::from_mhz(nic.cpu_mhz).period().0;
        if epoch < 2 * period {
            return fail(format!(
                "link latency {epoch} ps must be at least two CPU periods ({} ps): \
                 the epoch engine needs one clock cycle of conservative slack",
                2 * period
            ));
        }
        // Sequence numbers carry the source NIC in their top byte,
        // which leaves each source 24 bits. Bound every schedule by its
        // expected length before any is allocated.
        let expected = self.workload.fps * horizon.as_secs_f64();
        if expected >= SEQ_NAMESPACE as f64 {
            let first = (0..nics).find(|&i| self.workload.sends(i)).unwrap_or(0);
            return Err(seq_namespace_error(first, expected as u64));
        }
        Ok(())
    }
}

/// What went wrong assembling a fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetError(pub String);

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fleet configuration: {}", self.0)
    }
}

impl std::error::Error for FleetError {}

/// Results of one measured fleet run.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// Per-NIC statistics for the measurement window, in NIC order.
    /// Bit-comparable across runs and shard counts ([`RunStats`] is
    /// `PartialEq`).
    pub per_nic: Vec<RunStats>,
    /// Fabric totals for the window, including the order-sensitive
    /// delivery/drop digest.
    pub fabric: FabricStats,
    /// Per-egress-port fabric statistics, in NIC order.
    pub ports: Vec<PortStats>,
    /// Frame-lifecycle latency percentiles over the whole fleet: every
    /// NIC's [`FrameTracker`] merged, so a frame's TX half (source
    /// NIC) and RX half (destination NIC) combine into one timeline.
    pub latency: LatencySummary,
    /// Epochs executed (warmup + window).
    pub epochs: u64,
    /// NIC-epochs elided because the NIC provably could not act before
    /// the epoch boundary.
    pub nic_epochs_skipped: u64,
    /// CPU cycles in the fleet's measurement window: each NIC's
    /// [`RunStats::core_ticks`] unless it crashed in the window.
    pub cycles_per_nic: u64,
}

impl FleetStats {
    /// Aggregate delivered UDP goodput over the window, summed over
    /// every NIC's receive side.
    pub fn goodput_gbps(&self) -> f64 {
        self.per_nic.iter().map(|s| s.rx_udp_gbps).sum()
    }

    /// Frames the fabric dropped on full egress buffers.
    pub fn fabric_drops(&self) -> u64 {
        self.fabric.dropped
    }

    /// Fleet-total error table: every NIC's [`ErrorStats`] merged
    /// (including counters carried across crash/reset lifecycles).
    /// `None` when the fleet ran without a fault plan.
    pub fn errors_total(&self) -> Option<ErrorStats> {
        let mut any = false;
        let mut total = ErrorStats::default();
        for s in &self.per_nic {
            if let Some(e) = &s.errors {
                any = true;
                total.merge(e);
            }
        }
        any.then_some(total)
    }

    /// Frames delivered exactly once to host memory, summed over every
    /// NIC's receive side (reliable mode counts a deduplicated frame
    /// once however many times it arrives).
    pub fn delivered_frames(&self) -> u64 {
        self.per_nic.iter().map(|s| s.rx_frames).sum()
    }
}

/// The assembled fleet: one [`Member`] per NIC, the fabric, and the
/// schedule horizon.
pub struct Fleet {
    cfg: FleetConfig,
    members: Vec<Member>,
    fabric: Fabric,
    /// Schedule horizon the workload was generated over; replacements
    /// built by the crash/reset lifecycle regenerate their remaining
    /// schedule from it.
    horizon: Ps,
    /// Guards against reusing a consumed fleet.
    ran: bool,
    /// Frame-lifecycle records inherited from dead NIC incarnations,
    /// merged into the fleet latency summary at collection.
    carry_probe: FrameTracker,
}

/// One NIC of the fleet and its crash/reset lifecycle state. Only the
/// thread that holds the member's chunk touches it while an epoch
/// runs; the lifecycle fields change only in the exchange between
/// epochs, on the coordinator, so the lifecycle is shard-invariant by
/// construction.
struct Member {
    sys: NicSystem<FrameTracker>,
    /// `Some(t)` while the NIC is down: frozen (the epoch loop skips
    /// it) until the fleet watchdog resets it at boundary `t`.
    down_until: Option<Ps>,
    /// Time of the next seeded whole-NIC crash, taking effect at the
    /// first epoch boundary at or after it; `Ps::MAX` when crash
    /// injection is off.
    next_crash: Ps,
    /// Fabric deliveries addressed to the NIC while it was down,
    /// folded into `err_nic_reset_lost` when the watchdog resets it.
    lost: u64,
    /// NIC-epochs elided: down, or provably unable to act before the
    /// epoch boundary.
    skipped: u64,
}

impl Member {
    /// One epoch: advance the NIC to the boundary `end`, or count a
    /// skip if it is down or provably cannot act before `end`.
    fn run_epoch(&mut self, end: Ps) {
        if self.down_until.is_none() && self.sys.next_activity() <= end {
            self.sys.run_until(end);
        } else {
            self.skipped += 1;
        }
    }
}

impl Fleet {
    /// Assemble a fleet: validate the configuration, build every NIC
    /// system, and switch each into fleet mode with its share of the
    /// workload schedule generated over `horizon` (which must cover
    /// the whole warmup + window the fleet will run).
    pub fn new(cfg: FleetConfig, horizon: Ps) -> Result<Fleet, FleetError> {
        cfg.validate(horizon)?;
        // Poisson and bursty schedule lengths vary: bound what was
        // generated too, before any NIC is built.
        let schedules: Vec<_> = (0..cfg.nics)
            .map(|i| cfg.workload.schedule(i, cfg.nics, horizon))
            .collect();
        if let Some(i) = schedules.iter().position(|s| s.len() >= SEQ_NAMESPACE) {
            return Err(seq_namespace_error(i, schedules[i].len() as u64));
        }
        // The fault plane. Each NIC gets its own derived plan
        // (`build_member`); the fabric's sites run off the fleet
        // plan's own seed. An all-zeros plan arms nothing anywhere —
        // the systems stay on their clean fast paths and the run is
        // bit-identical to one with no plan at all (apart from the
        // zeroed error tables in the results).
        let plan = cfg.nic.faults.filter(|p| !p.is_noop());
        let mut fabric = Fabric::new(cfg.nics, cfg.fabric);
        if let Some(p) = &plan {
            fabric.set_faults(FabricFaults::new(p, cfg.nics));
        }
        let members = schedules
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| {
                Ok(Member {
                    sys: build_member(&cfg, i, schedule, 0, Ps::ZERO)?,
                    down_until: None,
                    next_crash: plan
                        .as_ref()
                        .and_then(|p| p.crash_onset(i as u64))
                        .unwrap_or(Ps::MAX),
                    lost: 0,
                    skipped: 0,
                })
            })
            .collect::<Result<Vec<_>, FleetError>>()?;
        Ok(Fleet {
            cfg,
            members,
            fabric,
            horizon,
            ran: false,
            carry_probe: FrameTracker::new(),
        })
    }

    /// Warm the fleet up, then measure a steady-state window; both
    /// spans are rounded up to whole epochs. Single-shot: a fleet's
    /// schedules and queues are consumed by the run.
    pub fn run_measured(&mut self, warmup: Ps, window: Ps) -> FleetStats {
        assert!(!self.ran, "a fleet runs once; build a new one");
        self.ran = true;
        let epoch = self.cfg.fabric.link_latency.0;
        let warm_epochs = warmup.0.div_ceil(epoch);
        let total_epochs = warm_epochs + window.0.div_ceil(epoch).max(1);
        self.run_epochs(warm_epochs, total_epochs);

        let final_end = Ps(total_epochs * epoch);
        for m in &mut self.members {
            if m.down_until.is_none() {
                m.sys.run_until(final_end);
            } else if m.lost > 0 {
                // Still down at the end of the run: the reset never
                // completed, so fold the deliveries the NIC missed
                // into its error table directly (the reset itself is
                // not counted — it never happened).
                m.sys.carry_errors(ErrorStats {
                    nic_reset_lost_frames: std::mem::take(&mut m.lost),
                    ..ErrorStats::default()
                });
            }
        }
        let mut merged = FrameTracker::new();
        merged.merge(&self.carry_probe);
        for m in &self.members {
            merged.merge(m.sys.probe());
        }
        let per_nic: Vec<RunStats> = self.members.iter().map(|m| m.sys.collect()).collect();
        // Each clock stops on the first cycle at or after a boundary.
        let period = Freq::from_mhz(self.cfg.nic.cpu_mhz).period().0;
        let cycles_per_nic = final_end.0.div_ceil(period) - (warm_epochs * epoch).div_ceil(period);
        FleetStats {
            per_nic,
            fabric: self.fabric.stats(),
            ports: self.fabric.port_stats(),
            latency: merged.summary(),
            epochs: total_epochs,
            nic_epochs_skipped: self.members.iter().map(|m| m.skipped).sum(),
            cycles_per_nic,
        }
    }

    /// The epoch loop, the same at every shard count. The members
    /// split into `shards` contiguous chunks: the coordinator (the
    /// calling thread) runs the first, one worker thread runs each
    /// other, in lockstep on an [`EpochBarrier`] generation per epoch.
    /// The exchange touches the members only between `wait_done` and
    /// the next `open`, when every worker is parked at the barrier.
    fn run_epochs(&mut self, warm_epochs: u64, total_epochs: u64) {
        let epoch = self.cfg.fabric.link_latency;

        /// One thread's chunk of the members, dereferenced only while
        /// a generation is open.
        struct Shard(*mut [Member]);
        // SAFETY: the chunk is dereferenced only between `open` and
        // `finish` (a worker) or `wait_done` (the coordinator), when
        // the exchange touches no member; chunks are disjoint
        // sub-slices, so no two threads alias. The NIC systems contain
        // thread-unsafe internals (`Rc` core slots), but each system's
        // are reachable only through that system, and a system is only
        // ever touched by the one thread holding its chunk while a
        // generation is open — accesses hand over at the barrier's
        // Release/Acquire edges, never overlap.
        unsafe impl Send for Shard {}
        impl Shard {
            /// # Safety
            ///
            /// A generation is open and this thread holds the chunk.
            unsafe fn run_epoch(&self, end: Ps) {
                for m in unsafe { &mut *self.0 } {
                    m.run_epoch(end);
                }
            }
        }

        let shards = self.cfg.shards;
        let (base, extra) = (self.members.len() / shards, self.members.len() % shards);
        let mut chunks = Vec::with_capacity(shards);
        let mut rest: &mut [Member] = &mut self.members;
        for w in 0..shards {
            let (chunk, tail) = rest.split_at_mut(base + usize::from(w < extra));
            chunks.push(Shard(chunk));
            rest = tail;
        }
        let mut chunks = chunks.into_iter();
        let own = chunks.next().expect("at least one shard");

        let barrier = EpochBarrier::new(shards - 1);
        std::thread::scope(|scope| {
            let b = &barrier;
            // However the coordinator leaves the scope — done, or
            // unwinding from its own NIC's panic or from `wait_done`
            // on a dead worker — the workers must leave their wait
            // loops, or the scope would wait for them forever.
            struct Shutdown<'a>(&'a EpochBarrier);
            impl Drop for Shutdown<'_> {
                fn drop(&mut self) {
                    self.0.shutdown();
                }
            }
            let _shutdown = Shutdown(b);
            for (idx, shard) in chunks.enumerate() {
                let worker = scope.spawn(move || {
                    // Poison the barrier if a NIC panics so the
                    // coordinator's `wait_done` fails instead of
                    // spinning.
                    struct Poison<'a>(&'a EpochBarrier);
                    impl Drop for Poison<'_> {
                        fn drop(&mut self) {
                            if std::thread::panicking() {
                                self.0.poison();
                            }
                        }
                    }
                    let _poison = Poison(b);
                    let mut last = 0;
                    while let Some(g) = b.wait_open(last) {
                        last = g;
                        // SAFETY: generation `g` is open and the chunk
                        // is this worker's alone.
                        unsafe { shard.run_epoch(Ps(g * epoch.0)) };
                        b.finish(idx, g);
                    }
                });
                b.register_worker(worker.thread().clone());
            }
            for k in 1..=total_epochs {
                b.open(k);
                // SAFETY: generation `k` is open and the first chunk
                // is the coordinator's alone.
                unsafe { own.run_epoch(Ps(k * epoch.0)) };
                b.wait_done(k);
                // Exclusive section: all workers parked, all their
                // writes acquired.
                self.exchange(k, warm_epochs);
            }
        });
    }

    /// The epoch-barrier frame exchange: complete due NIC resets, drain
    /// every NIC's egress, present the union to the fabric in canonical
    /// `(wire-done time, source NIC)` order, inject the deliveries
    /// (dropping those addressed to down NICs), convey reliable-mode
    /// acknowledgments, take due crashes, and reset the measurement
    /// window at the warmup boundary.
    ///
    /// Every crash/reset transition happens here, on the coordinator,
    /// at an epoch boundary — never inside a worker's epoch — so the
    /// whole lifecycle is shard-invariant by construction.
    fn exchange(&mut self, k: u64, warm_epochs: u64) {
        let epoch = self.cfg.fabric.link_latency;
        let boundary = Ps(k * epoch.0);
        // Resets due: the watchdog detected the crash and the recovery
        // delay has elapsed — bring the NIC back as a fresh system.
        for i in 0..self.members.len() {
            if self.members[i].down_until.is_some_and(|t| boundary >= t) {
                self.reset_nic(i, boundary);
            }
        }
        let mut offers: Vec<(Ps, usize, Vec<u8>)> = Vec::new();
        for (src, m) in self.members.iter_mut().enumerate() {
            for (w, frame) in m.sys.take_egress() {
                offers.push((w, src, frame));
            }
        }
        // Wire-done times are unique per source (one serialized wire),
        // so the key is total and unstable sorting is deterministic.
        offers.sort_unstable_by_key(|(w, src, _)| (w.0, *src));
        for (w, src, frame) in offers {
            if let Some(d) = self.fabric.offer(w, src, frame) {
                let dst = &mut self.members[d.dst];
                if dst.down_until.is_some() {
                    // The fabric delivered to a dead port: the frame is
                    // lost with the NIC, accounted when it resets.
                    dst.lost += 1;
                } else {
                    dst.sys.inject_rx(d.at, d.frame);
                }
            }
        }
        if self.cfg.workload.reliable {
            // Acknowledgments ride out of band but pay the wire's
            // round-trip: a frame received at `t` is acknowledged to
            // its source at `t + 2E` (receiver → switch → sender),
            // which is strictly after this boundary — causal, so the
            // conveyance is shard-invariant. Acks to a down NIC are
            // lost with it (its unacked state died anyway).
            let mut acks: Vec<(usize, u32, Ps)> = Vec::new();
            for m in self.members.iter_mut().filter(|m| m.down_until.is_none()) {
                for (src, seq, t) in m.sys.take_acks() {
                    acks.push((src as usize, seq, Ps(t.0 + 2 * epoch.0)));
                }
            }
            for (src, seq, at) in acks {
                let m = &mut self.members[src];
                if m.down_until.is_none() {
                    m.sys.deliver_ack(at, seq);
                }
            }
        }
        // Crashes due: the NIC hangs whole at this boundary (onset
        // rounded up to the epoch grid). The watchdog's detection plus
        // recovery takes `watchdog_us`, rounded up to whole epochs.
        for m in &mut self.members {
            if m.down_until.is_none() && boundary >= m.next_crash {
                let plan = self.cfg.nic.faults.expect("crash schedule implies a plan");
                let down = Ps::from_us(plan.watchdog_us.max(1));
                let down_epochs = down.0.div_ceil(epoch.0).max(1);
                m.down_until = Some(Ps(boundary.0 + down_epochs * epoch.0));
                m.next_crash = Ps(m
                    .next_crash
                    .0
                    .saturating_add(Ps::from_us(plan.crash_period_us).0));
            }
        }
        if k == warm_epochs {
            // Down NICs are frozen mid-crash; their replacement opens
            // its own window at reset time.
            for m in self.members.iter_mut().filter(|m| m.down_until.is_none()) {
                // Quiet NICs may have skipped up to this boundary:
                // bring every clock to it so all windows are equal
                // (a provable no-op for the skipped ones).
                m.sys.run_until(boundary);
                m.sys.reset_window();
            }
            self.fabric.reset_stats();
        }
    }

    /// Replace crashed NIC `i` with a fresh system at time `at` — the
    /// crash/reset lifecycle's recovery half. The firmware re-boots
    /// from scratch, the driver re-posts its rings and resumes the
    /// remaining workload schedule under the predecessor's sequence
    /// numbering (receivers see a gap, never a regression), and the
    /// dead incarnation's error table — plus this reset and every frame
    /// it lost — carries into the replacement so per-NIC accounting
    /// survives.
    fn reset_nic(&mut self, i: usize, at: Ps) {
        let m = &mut self.members[i];
        // Frames that died with the NIC: driver-posted transmits not
        // yet completed and arrivals still queued on the wire, plus
        // fabric deliveries dropped while it was down.
        let (dying, posted) = m.sys.crash_state();
        let mut carry = m.sys.collect().errors.unwrap_or_default();
        carry.nic_resets += 1;
        carry.nic_reset_lost_frames += dying + std::mem::take(&mut m.lost);

        let schedule = self.cfg.workload.schedule(i, self.cfg.nics, self.horizon);
        let mut sys = build_member(&self.cfg, i, schedule, posted, at)
            .expect("replacement NIC build (config already validated)");
        sys.carry_errors(carry);
        let old = std::mem::replace(&mut m.sys, sys);
        m.down_until = None;
        self.carry_probe.merge(old.probe());
    }
}

/// Packets one source's 24 sequence bits can number (`Fleet::new`
/// holds every schedule under it).
const SEQ_NAMESPACE: usize = 1 << 24;

fn seq_namespace_error(nic: usize, packets: u64) -> FleetError {
    FleetError(format!(
        "NIC {nic}'s schedule would hold {packets} packets, but sequence numbers \
         carry 24 bits per source (at most {} packets): shorten the horizon \
         or lower fps",
        SEQ_NAMESPACE - 1
    ))
}

/// Build NIC `i` of the fleet, booting at `boot_at` and resuming its
/// `schedule` (its whole share of the workload) at packet `first_seq`
/// — `(0, Ps::ZERO)` for a fresh fleet, the predecessor's progress and
/// the reset time for a crashed NIC's replacement. Each NIC gets its
/// own derived fault plan (same rates, decorrelated per-site streams)
/// so faults don't strike every NIC in lockstep.
fn build_member(
    cfg: &FleetConfig,
    i: usize,
    mut schedule: Vec<TxPacket>,
    first_seq: u32,
    boot_at: Ps,
) -> Result<NicSystem<FrameTracker>, FleetError> {
    schedule.drain(..schedule.len().min(first_seq as usize));
    let mut nic = cfg.nic;
    nic.faults = cfg.nic.faults.map(|p| p.derive_nic(i as u64));
    NicSystem::build(nic)
        .probe(FrameTracker::new())
        .fleet_member(FleetMember {
            src: i as u16,
            schedule,
            first_seq,
            rto: cfg
                .workload
                .reliable
                .then(|| Ps::from_us(cfg.workload.rto_us)),
            boot_at,
        })
        .finish()
        .map_err(|e| FleetError(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim_net::workload::{Arrivals, Pattern, SizeMix};

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            nics: 4,
            shards: 1,
            nic: NicConfig::builder()
                .cores(2)
                .cpu_mhz(500)
                .build()
                .expect("valid test config"),
            fabric: FabricConfig::default(),
            workload: Workload {
                pattern: Pattern::Uniform,
                sizes: SizeMix::Fixed(256),
                arrivals: Arrivals::Cbr,
                fps: 50_000.0,
                seed: 7,
                ..Workload::default()
            },
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let horizon = Ps::from_us(100);
        let spoiled = |spoil: fn(&mut FleetConfig)| {
            let mut cfg = small_cfg();
            spoil(&mut cfg);
            cfg
        };
        let bad = [
            ("one NIC", spoiled(|c| c.nics = 1)),
            ("more shards than NICs", spoiled(|c| c.shards = 9)),
            ("no shards", spoiled(|c| c.shards = 0)),
            ("send disabled", spoiled(|c| c.nic.send_enabled = false)),
            (
                "offered-load pacing",
                spoiled(|c| c.nic.offered_tx_fps = Some(1e6)),
            ),
            ("invalid NIC config", spoiled(|c| c.nic.cores = 0)),
            (
                "epoch under two cycles",
                spoiled(|c| c.fabric.link_latency = Ps(1_000)),
            ),
        ];
        for (what, cfg) in bad {
            // validate refuses without building, and new agrees.
            assert!(cfg.validate(horizon).is_err(), "{what}: validate");
            assert!(Fleet::new(cfg, horizon).is_err(), "{what}: new");
        }
        assert_eq!(small_cfg().validate(horizon), Ok(()));
    }

    #[test]
    fn rejects_a_schedule_longer_than_the_seq_namespace() {
        // 10 Mfps over 2 s is 2 * 10^7 packets per NIC, past the 2^24
        // sequence numbers a source owns. The refusal comes before the
        // first schedule is generated (that alone would be hundreds of
        // megabytes), let alone a NIC built.
        let mut cfg = small_cfg();
        cfg.workload.fps = 1e7;
        let err = Fleet::new(cfg, Ps::from_ms(2_000)).err().expect("refused");
        assert_eq!(cfg.validate(Ps::from_ms(2_000)), Err(err.clone()));
        assert!(
            err.0.contains("NIC 0") && err.0.contains("20000000"),
            "{err}"
        );
        // The rate alone is legal: a short horizon takes it.
        assert!(Fleet::new(cfg, Ps::from_us(10)).is_ok());
    }

    #[test]
    fn fleet_moves_frames_end_to_end() {
        let warmup = Ps::from_us(200);
        let window = Ps::from_us(300);
        let mut fleet = Fleet::new(small_cfg(), Ps(warmup.0 + window.0)).unwrap();
        let stats = fleet.run_measured(warmup, window);
        assert_eq!(stats.per_nic.len(), 4);
        let tx: u64 = stats.per_nic.iter().map(|s| s.tx_frames).sum();
        let rx: u64 = stats.per_nic.iter().map(|s| s.rx_frames).sum();
        assert!(tx > 0, "no fleet transmit traffic");
        assert!(rx > 0, "no fleet receive traffic");
        assert!(stats.fabric.delivered > 0, "fabric delivered nothing");
        assert!(stats.goodput_gbps() > 0.0);
        for s in &stats.per_nic {
            assert_eq!(s.rx_corrupt, 0);
            assert_eq!(s.rx_out_of_order, 0);
            assert_eq!(s.tx_errors, 0);
        }
    }

    #[test]
    fn incast_victim_skips_epochs() {
        let mut cfg = small_cfg();
        cfg.workload.pattern = Pattern::Incast { target: 0 };
        // Whole-epoch elision needs an idle NIC: polling cores never
        // park (wake bound 1 every cycle), interrupt-dispatch cores do.
        cfg.nic.dispatch = nicsim::DispatchMode::Interrupt;
        let warmup = Ps::from_us(100);
        let window = Ps::from_us(200);
        let mut fleet = Fleet::new(cfg, Ps(warmup.0 + window.0)).unwrap();
        let stats = fleet.run_measured(warmup, window);
        assert!(
            stats.per_nic[0].rx_frames > 0,
            "incast target received nothing"
        );
        assert_eq!(stats.per_nic[0].tx_frames, 0, "incast victim transmitted");
        assert!(
            stats.nic_epochs_skipped > 0,
            "quiet-epoch skipping never engaged"
        );
    }
}
