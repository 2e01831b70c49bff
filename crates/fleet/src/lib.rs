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
//! With `shards > 1` the NICs split into contiguous chunks, one per
//! persistent worker thread, synchronized by an
//! [`EpochBarrier`](nicsim_sim::EpochBarrier) generation per epoch;
//! the frame exchange runs on the coordinator between generations.
//! Because epochs are global and the fabric ordering is canonical,
//! results are bit-identical at any shard count — per-NIC [`RunStats`]
//! and the fabric's order-sensitive delivery digest alike, which the
//! engine's tests assert across shard counts and dispatch modes.
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
use nicsim_sim::{EpochBarrier, Ps};

/// Fleet-level configuration: how many NICs, how they are sharded,
/// what fabric connects them, and what traffic they offer.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Number of NIC + host systems (2..=256; sequence numbers carry
    /// the source id in their top byte).
    pub nics: usize,
    /// Worker threads to shard the NICs across (1 = run on the calling
    /// thread, no barrier). Results are identical at any value.
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

/// The assembled fleet: `N` systems, the fabric, and the epoch clock.
pub struct Fleet {
    cfg: FleetConfig,
    systems: Vec<NicSystem<FrameTracker>>,
    fabric: Fabric,
    /// Epoch length: the fabric's per-link latency.
    epoch: Ps,
    /// Schedule horizon the workload was generated over; replacements
    /// built by the crash/reset lifecycle regenerate their remaining
    /// schedule from it.
    horizon: Ps,
    /// NIC-epochs elided so far.
    skipped: u64,
    /// Guards against reusing a consumed fleet.
    ran: bool,
    /// Whether the workload runs in reliable-delivery mode (the epoch
    /// exchange then conveys acknowledgments between the NICs).
    reliable: bool,
    /// Per-NIC time of the next seeded whole-NIC crash; `Ps::MAX` when
    /// crash injection is off. Crashes take effect at the first epoch
    /// boundary at or after the drawn onset (coordinator-only state, so
    /// the lifecycle is shard-invariant by construction).
    crash_next: Vec<Ps>,
    /// Per-NIC recovery time: `Ps::ZERO` means the NIC is up; anything
    /// else means it is down (frozen — the run loops skip it) until the
    /// fleet watchdog resets it at that boundary.
    up_at: Vec<Ps>,
    /// Fabric deliveries addressed to a NIC while it was down, folded
    /// into `err_nic_reset_lost` when the watchdog resets it.
    pending_lost: Vec<u64>,
    /// Frame-lifecycle records inherited from dead NIC incarnations,
    /// merged into the fleet latency summary at collection.
    carry_probe: FrameTracker,
}

impl Fleet {
    /// Assemble a fleet: validate the configuration, build every NIC
    /// system, and switch each into fleet mode with its share of the
    /// workload schedule generated over `horizon` (which must cover
    /// the whole warmup + window the fleet will run).
    pub fn new(cfg: FleetConfig, horizon: Ps) -> Result<Fleet, FleetError> {
        if !(2..=256).contains(&cfg.nics) {
            return Err(FleetError(format!(
                "nics must be in 2..=256, got {}",
                cfg.nics
            )));
        }
        if cfg.shards == 0 || cfg.shards > cfg.nics {
            return Err(FleetError(format!(
                "shards must be in 1..={}, got {}",
                cfg.nics, cfg.shards
            )));
        }
        if !cfg.nic.send_enabled || !cfg.nic.recv_enabled {
            return Err(FleetError(
                "fleet NICs need send_enabled and recv_enabled".into(),
            ));
        }
        if cfg.nic.offered_tx_fps.is_some() || cfg.nic.offered_rx_fps.is_some() {
            return Err(FleetError(
                "offered-load pacing conflicts with the fleet schedule".into(),
            ));
        }
        cfg.workload.check(cfg.nics).map_err(FleetError)?;
        let mut fabric = Fabric::new(cfg.nics, cfg.fabric);
        let epoch = cfg.fabric.link_latency;
        let period = nicsim_sim::Freq::from_mhz(cfg.nic.cpu_mhz).period();
        if epoch.0 < 2 * period.0 {
            return Err(FleetError(format!(
                "link latency {} ps must be at least two CPU periods ({} ps): \
                 the epoch engine needs one clock cycle of conservative slack",
                epoch.0,
                2 * period.0
            )));
        }
        // The fault plane. Each NIC gets its own derived plan
        // (`build_member`); the fabric's sites run off the fleet
        // plan's own seed. An all-zeros plan arms nothing anywhere —
        // the systems stay on their clean fast paths and the run is
        // bit-identical to one with no plan at all (apart from the
        // zeroed error tables in the results).
        let plan = cfg.nic.faults.filter(|p| !p.is_noop());
        if let Some(p) = &plan {
            fabric.set_faults(FabricFaults::new(p, cfg.nics));
        }
        let crash_next: Vec<Ps> = (0..cfg.nics)
            .map(|i| {
                plan.as_ref()
                    .and_then(|p| p.crash_onset(i as u64))
                    .unwrap_or(Ps::MAX)
            })
            .collect();
        // Sequence numbers carry the source NIC in their top byte,
        // which leaves each source 24 bits. Bound every schedule by its
        // expected length before allocating any, then by what was
        // generated (Poisson and bursty lengths vary), before any NIC
        // is built.
        let expected = cfg.workload.fps * horizon.as_secs_f64();
        if expected >= SEQ_NAMESPACE as f64 {
            let first = (0..cfg.nics).find(|&i| cfg.workload.sends(i)).unwrap_or(0);
            return Err(seq_namespace_error(first, expected as u64));
        }
        let schedules: Vec<_> = (0..cfg.nics)
            .map(|i| cfg.workload.schedule(i, cfg.nics, horizon))
            .collect();
        if let Some(i) = schedules.iter().position(|s| s.len() >= SEQ_NAMESPACE) {
            return Err(seq_namespace_error(i, schedules[i].len() as u64));
        }
        let systems = schedules
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| build_member(&cfg, i, schedule, 0, Ps::ZERO))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet {
            systems,
            fabric,
            epoch,
            horizon,
            skipped: 0,
            ran: false,
            reliable: cfg.workload.reliable,
            crash_next,
            up_at: vec![Ps::ZERO; cfg.nics],
            pending_lost: vec![0; cfg.nics],
            carry_probe: FrameTracker::new(),
            cfg,
        })
    }

    /// Whether NIC `i` is currently down (crashed, awaiting the fleet
    /// watchdog's reset).
    fn is_down(&self, i: usize) -> bool {
        self.up_at[i] != Ps::ZERO
    }

    /// The configuration this fleet was assembled from.
    pub fn config(&self) -> FleetConfig {
        self.cfg
    }

    /// Warm the fleet up, then measure a steady-state window; both
    /// spans are rounded up to whole epochs. Single-shot: a fleet's
    /// schedules and queues are consumed by the run.
    pub fn run_measured(&mut self, warmup: Ps, window: Ps) -> FleetStats {
        assert!(!self.ran, "a fleet runs once; build a new one");
        self.ran = true;
        let warm_epochs = warmup.0.div_ceil(self.epoch.0);
        let total_epochs = warm_epochs + window.0.div_ceil(self.epoch.0).max(1);

        if self.cfg.shards == 1 {
            self.run_epochs_sequential(warm_epochs, total_epochs);
        } else {
            self.run_epochs_sharded(warm_epochs, total_epochs);
        }

        let final_end = Ps(total_epochs * self.epoch.0);
        for (i, sys) in self.systems.iter_mut().enumerate() {
            if self.up_at[i] == Ps::ZERO {
                sys.run_until(final_end);
            }
        }
        // A NIC still down at the end of the run: its reset never
        // completed, so fold the deliveries it missed into its error
        // table directly (the reset itself is not counted — it never
        // happened).
        for i in 0..self.cfg.nics {
            if self.is_down(i) && self.pending_lost[i] > 0 {
                self.systems[i].carry_errors(ErrorStats {
                    nic_reset_lost_frames: self.pending_lost[i],
                    ..ErrorStats::default()
                });
                self.pending_lost[i] = 0;
            }
        }
        let mut merged = FrameTracker::new();
        merged.merge(&self.carry_probe);
        for sys in &self.systems {
            merged.merge(sys.probe());
        }
        let per_nic: Vec<RunStats> = self.systems.iter().map(|s| s.collect()).collect();
        // Each clock stops on the first cycle at or after a boundary.
        let period = nicsim_sim::Freq::from_mhz(self.cfg.nic.cpu_mhz).period().0;
        let cycles_per_nic =
            final_end.0.div_ceil(period) - (warm_epochs * self.epoch.0).div_ceil(period);
        FleetStats {
            per_nic,
            fabric: self.fabric.stats(),
            ports: self.fabric.port_stats(),
            latency: merged.summary(),
            epochs: total_epochs,
            nic_epochs_skipped: self.skipped,
            cycles_per_nic,
        }
    }

    /// The epoch loop on the calling thread: advance every NIC to each
    /// boundary in turn, then exchange frames.
    fn run_epochs_sequential(&mut self, warm_epochs: u64, total_epochs: u64) {
        for k in 1..=total_epochs {
            let end = Ps(k * self.epoch.0);
            self.skipped += run_chunk(&mut self.systems, &self.up_at, end);
            self.exchange(k, warm_epochs);
        }
    }

    /// The epoch loop across `shards` persistent worker threads, one
    /// contiguous chunk of NICs each, in lockstep on an
    /// [`EpochBarrier`] generation per epoch. The coordinator touches
    /// the systems only between `wait_done` and the next `open`, when
    /// every worker is parked at the barrier.
    fn run_epochs_sharded(&mut self, warm_epochs: u64, total_epochs: u64) {
        let shards = self.cfg.shards;
        let epoch = self.epoch;
        let mut worker_skipped = vec![0u64; shards];

        /// One worker's view: a raw chunk of the systems vector, its
        /// skip counter, and a read-only view of the same chunk of the
        /// fleet's down-state vector. Dereferenced only while a
        /// generation is open (see the disjointness argument at the
        /// spawn site).
        struct Shard {
            systems: *mut [NicSystem<FrameTracker>],
            skipped: *mut u64,
            up_at: *const [Ps],
        }
        // SAFETY: the pointers are dereferenced only between
        // `wait_open` and `finish`, when the coordinator touches
        // neither the chunk nor the counter; chunks are disjoint
        // sub-slices, so no two workers alias. The NIC systems contain
        // thread-unsafe internals (`Rc` core slots), but each system's
        // are reachable only through that system, and a system is only
        // ever touched by the one thread holding its chunk while a
        // generation is open — accesses hand over at the barrier's
        // Release/Acquire edges, never overlap. The down-state vector
        // is written by the coordinator only between generations and
        // only read by workers while one is open, under the same
        // Release/Acquire edges.
        unsafe impl Send for Shard {}

        let mut shards_vec = Vec::with_capacity(shards);
        {
            let mut rest: &mut [NicSystem<FrameTracker>] = &mut self.systems;
            let mut rest_up: &[Ps] = &self.up_at;
            let mut counters = worker_skipped.iter_mut();
            let base = rest.len() / shards;
            let extra = rest.len() % shards;
            for w in 0..shards {
                let take = base + usize::from(w < extra);
                let (chunk, tail) = rest.split_at_mut(take);
                let (chunk_up, tail_up) = rest_up.split_at(take);
                (rest, rest_up) = (tail, tail_up);
                shards_vec.push(Shard {
                    systems: chunk,
                    skipped: counters.next().expect("one counter per shard"),
                    up_at: chunk_up,
                });
            }
        }

        let barrier = EpochBarrier::new(shards);
        std::thread::scope(|scope| {
            let b = &barrier;
            let handles: Vec<_> = shards_vec
                .into_iter()
                .enumerate()
                .map(|(idx, shard)| {
                    scope.spawn(move || {
                        // Capture the Shard wrapper whole: disjoint
                        // field capture would otherwise move the raw
                        // pointers individually, bypassing its Send.
                        let shard = shard;
                        // Poison the barrier if a NIC panics so the
                        // coordinator fails fast instead of spinning.
                        struct Guard<'a>(&'a EpochBarrier);
                        impl Drop for Guard<'_> {
                            fn drop(&mut self) {
                                if std::thread::panicking() {
                                    self.0.poison();
                                }
                            }
                        }
                        let _guard = Guard(b);
                        let mut last = 0;
                        while let Some(g) = b.wait_open(last) {
                            last = g;
                            let end = Ps(g * epoch.0);
                            // SAFETY: generation `g` is open — the
                            // coordinator is blocked in wait_done and
                            // the chunk is exclusively this worker's;
                            // the down-state vector is frozen for the
                            // generation.
                            let systems = unsafe { &mut *shard.systems };
                            let up_at = unsafe { &*shard.up_at };
                            let skipped = run_chunk(systems, up_at, end);
                            unsafe { *shard.skipped += skipped };
                            b.finish(idx, g);
                        }
                    })
                })
                .collect();
            for h in &handles {
                barrier.register_worker(h.thread().clone());
            }
            for k in 1..=total_epochs {
                barrier.open(k);
                barrier.wait_done(k);
                // Exclusive section: all workers parked, all shard
                // writes acquired.
                self.exchange(k, warm_epochs);
            }
            barrier.shutdown();
        });
        self.skipped += worker_skipped.iter().sum::<u64>();
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
        let boundary = Ps(k * self.epoch.0);
        // Resets due: the watchdog detected the crash and the recovery
        // delay has elapsed — bring the NIC back as a fresh system.
        for i in 0..self.cfg.nics {
            if self.is_down(i) && boundary >= self.up_at[i] {
                self.reset_nic(i, boundary);
                self.up_at[i] = Ps::ZERO;
            }
        }
        let mut offers: Vec<(Ps, usize, Vec<u8>)> = Vec::new();
        for (src, sys) in self.systems.iter_mut().enumerate() {
            for (w, frame) in sys.take_egress() {
                offers.push((w, src, frame));
            }
        }
        // Wire-done times are unique per source (one serialized wire),
        // so the key is total and unstable sorting is deterministic.
        offers.sort_unstable_by_key(|(w, src, _)| (w.0, *src));
        for (w, src, frame) in offers {
            if let Some(d) = self.fabric.offer(w, src, frame) {
                if self.is_down(d.dst) {
                    // The fabric delivered to a dead port: the frame is
                    // lost with the NIC, accounted when it resets.
                    self.pending_lost[d.dst] += 1;
                } else {
                    self.systems[d.dst].inject_rx(d.at, d.frame);
                }
            }
        }
        if self.reliable {
            // Acknowledgments ride out of band but pay the wire's
            // round-trip: a frame received at `t` is acknowledged to
            // its source at `t + 2E` (receiver → switch → sender),
            // which is strictly after this boundary — causal, so the
            // conveyance is shard-invariant. Acks to a down NIC are
            // lost with it (its unacked state died anyway).
            let mut acks: Vec<(usize, u32, Ps)> = Vec::new();
            for (i, sys) in self.systems.iter_mut().enumerate() {
                if self.up_at[i] != Ps::ZERO {
                    continue;
                }
                for (src, seq, t) in sys.take_acks() {
                    acks.push((src as usize, seq, Ps(t.0 + 2 * self.epoch.0)));
                }
            }
            for (src, seq, at) in acks {
                if !self.is_down(src) {
                    self.systems[src].deliver_ack(at, seq);
                }
            }
        }
        // Crashes due: the NIC hangs whole at this boundary (onset
        // rounded up to the epoch grid). The watchdog's detection plus
        // recovery takes `watchdog_us`, rounded up to whole epochs.
        for i in 0..self.cfg.nics {
            if !self.is_down(i) && boundary >= self.crash_next[i] {
                let plan = self.cfg.nic.faults.expect("crash schedule implies a plan");
                let down = Ps::from_us(plan.watchdog_us.max(1));
                let down_epochs = down.0.div_ceil(self.epoch.0).max(1);
                self.up_at[i] = Ps(boundary.0 + down_epochs * self.epoch.0);
                self.crash_next[i] = Ps(self.crash_next[i]
                    .0
                    .saturating_add(Ps::from_us(plan.crash_period_us).0));
            }
        }
        if k == warm_epochs {
            for (i, sys) in self.systems.iter_mut().enumerate() {
                if self.up_at[i] != Ps::ZERO {
                    // Down NICs are frozen mid-crash; their replacement
                    // opens its own window at reset time.
                    continue;
                }
                // Quiet NICs may have skipped up to this boundary:
                // bring every clock to it so all windows are equal
                // (a provable no-op for the skipped ones).
                sys.run_until(boundary);
                sys.reset_window();
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
        let old = &self.systems[i];
        // Frames that died with the NIC: driver-posted transmits not
        // yet completed and arrivals still queued on the wire, plus
        // fabric deliveries dropped while it was down.
        let (dying, posted) = old.crash_state();
        let mut carry = old.collect().errors.unwrap_or_default();
        carry.nic_resets += 1;
        carry.nic_reset_lost_frames += dying + std::mem::take(&mut self.pending_lost[i]);

        let schedule = self.cfg.workload.schedule(i, self.cfg.nics, self.horizon);
        let mut sys = build_member(&self.cfg, i, schedule, posted, at)
            .expect("replacement NIC build (config already validated)");
        sys.carry_errors(carry);
        let old = std::mem::replace(&mut self.systems[i], sys);
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

/// One epoch for one chunk of NICs: advance each to the boundary `end`
/// and return how many were skipped — crashed (`up_at` nonzero: frozen
/// until the watchdog resets it) or provably unable to act before
/// `end`.
fn run_chunk(systems: &mut [NicSystem<FrameTracker>], up_at: &[Ps], end: Ps) -> u64 {
    let mut skipped = 0;
    for (sys, up) in systems.iter_mut().zip(up_at) {
        if *up == Ps::ZERO && sys.next_activity() <= end {
            sys.run_until(end);
        } else {
            skipped += 1;
        }
    }
    skipped
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
        let mut cfg = small_cfg();
        cfg.nics = 1;
        assert!(Fleet::new(cfg, horizon).is_err());
        let mut cfg = small_cfg();
        cfg.shards = 9;
        assert!(Fleet::new(cfg, horizon).is_err());
        let mut cfg = small_cfg();
        cfg.nic.send_enabled = false;
        assert!(Fleet::new(cfg, horizon).is_err());
        let mut cfg = small_cfg();
        cfg.nic.offered_tx_fps = Some(1e6);
        assert!(Fleet::new(cfg, horizon).is_err());
        let mut cfg = small_cfg();
        cfg.fabric.link_latency = Ps(1_000);
        assert!(Fleet::new(cfg, horizon).is_err(), "epoch under one cycle");
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
