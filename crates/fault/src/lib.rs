//! # nicsim-fault — the deterministic fault-injection plane
//!
//! The paper evaluates the NIC only under clean traffic; this crate adds
//! the unhappy paths a production 10 GbE controller must survive: CRC-bad
//! frames on the wire, transient DMA/PCI errors and stalls, single-bit
//! SDRAM ECC events, and wedged assist units. Everything is policy and
//! bookkeeping — the *mechanisms* (corrupting a frame, retrying a DMA,
//! resetting an assist) live at each layer's natural boundary in
//! `nicsim-net`, `nicsim-assists`, `nicsim-mem`, and `nicsim` core.
//!
//! ## Determinism contract
//!
//! A run is reproducible from `(seed, plan)`:
//!
//! * Every injection site owns an independent [`XorShift64`] stream,
//!   derived from the plan seed and a fixed site id, so adding or
//!   removing draws at one site never perturbs another.
//! * Draws happen only at *event-shaped* points — a frame leaving the
//!   generator, a payload DMA command starting, a read burst being
//!   granted — which occur at identical simulated times in both the
//!   dense and event-driven kernels. No site ever draws per tick.
//! * Hang onset and watchdog deadlines are expressed in simulated time
//!   (`Ps`), never in executed-step counts, so cycle skipping cannot
//!   shift them.
//!
//! With no [`FaultPlan`] configured every site is `None`, no RNG exists,
//! and the simulator's behavior (and `RunStats`) is bit-identical to a
//! build without this crate wired in.

use nicsim_sim::{Ps, XorShift64};

/// Site id for the link-level generator stream.
pub const SITE_LINK: u64 = 1;
/// Site id for the DMA read (host → NIC) engine stream.
pub const SITE_DMA_READ: u64 = 2;
/// Site id for the DMA write (NIC → host) engine stream.
pub const SITE_DMA_WRITE: u64 = 3;
/// Site id for the frame-memory ECC stream.
pub const SITE_ECC: u64 = 4;
/// Base site id for per-source fabric link streams (corruption); link
/// `i` uses `SITE_FABRIC_LINK_BASE + i`. The high bases keep the fleet
/// site families disjoint from the per-engine `SITE_DMA_* + 8k` ladder.
pub const SITE_FABRIC_LINK_BASE: u64 = 1 << 32;
/// Site id for the fabric-wide port-buffer squeeze stream.
pub const SITE_FABRIC_SQUEEZE: u64 = 1 << 33;
/// Base site id for per-NIC crash schedules (`+ nic`).
pub const SITE_NIC_CRASH_BASE: u64 = 1 << 34;
/// Base site id for per-core firmware instruction-fault streams
/// (`+ core_id`).
pub const SITE_FW_BASE: u64 = 1 << 35;
/// Base site id for deriving per-NIC plan seeds in a fleet (`+ nic`).
pub const SITE_NIC_PLAN_BASE: u64 = 1 << 36;
/// Base site id for per-source fabric link flap phases (`+ i`); kept on
/// a separate stream from the corruption draws so enabling flaps never
/// shifts the corruption decisions of the same link.
pub const SITE_FABRIC_FLAP_BASE: u64 = 1 << 37;

/// Most retry attempts a plan may ask for before a failing DMA command
/// aborts ([`FaultPlan::validate`]).
pub const MAX_RETRIES: u32 = 64;

/// A complete, `Copy` fault schedule: per-event probabilities, retry and
/// watchdog policy, and the master seed. Configured through
/// `NicConfig::builder().faults(..)` or parsed from a `--faults` spec
/// (see [`FaultPlan::parse`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; each site derives its own stream from it.
    pub seed: u64,
    /// Per-frame probability of a single-bit corruption on the inbound
    /// link (caught by the MAC RX CRC32 check).
    pub link_corrupt: f64,
    /// Per-frame probability of frame truncation on the inbound link.
    pub link_truncate: f64,
    /// Per-payload-command probability of a transient DMA completion
    /// error (retried with exponential backoff, then aborted).
    pub dma_error: f64,
    /// Per-payload-command probability of a bounded PCI stall.
    pub dma_stall: f64,
    /// Duration of one PCI stall, nanoseconds.
    pub stall_ns: u64,
    /// Retry attempts before a failing DMA command is aborted.
    pub max_retries: u32,
    /// Base retry backoff, nanoseconds; attempt `n` waits
    /// `backoff_ns << n`.
    pub backoff_ns: u64,
    /// Per-read-burst probability of a correctable single-bit ECC event
    /// in the frame memory.
    pub ecc: f64,
    /// Microseconds between stuck-assist hangs on each DMA engine
    /// (0 disables hang injection). A hang persists until the watchdog
    /// resets the unit.
    pub hang_period_us: u64,
    /// Watchdog timeout, microseconds: how long an assist may sit stuck
    /// (hung with work pending) before `NicSystem` resets it. The same
    /// timeout bounds how long a crashed NIC stays down before the
    /// fleet-level watchdog resets it.
    pub watchdog_us: u64,
    /// Per-frame probability of a single-bit corruption on a fabric
    /// link (fleet runs; caught by the receiver's MAC RX CRC32 check).
    pub fabric_corrupt: f64,
    /// Microseconds between link flaps on each fabric link (0 disables
    /// flap injection). Each link's flap phase is seeded independently.
    pub flap_period_us: u64,
    /// Duration of one link flap, microseconds; frames offered while
    /// the source link is down are dropped into the fabric digest.
    pub flap_down_us: u64,
    /// Per-frame probability of a transient port-buffer squeeze at the
    /// destination port (admission capacity quartered for that frame).
    pub squeeze: f64,
    /// Microseconds between whole-NIC crashes (0 disables). The fleet
    /// watchdog detects a crashed NIC and resets it after `watchdog_us`.
    pub crash_period_us: u64,
    /// Per-DMA-write probability of poisoning one byte of the payload
    /// as it lands in host memory (caught by driver frame validation).
    pub host_poison: f64,
    /// Per-handler-dispatch probability of a firmware instruction fault
    /// (handler aborted, core restarts the scan after a fixed penalty).
    pub fw_fault: f64,
    /// Pareto shape for PCI stall durations; 0 keeps the legacy fixed
    /// `stall_ns`. With `alpha > 0` a stall lasts
    /// `stall_ns * u^(-1/alpha)` bounded at 100× `stall_ns`.
    pub stall_alpha: f64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 1,
            link_corrupt: 0.0,
            link_truncate: 0.0,
            dma_error: 0.0,
            dma_stall: 0.0,
            stall_ns: 200,
            max_retries: 4,
            backoff_ns: 100,
            ecc: 0.0,
            hang_period_us: 0,
            watchdog_us: 50,
            fabric_corrupt: 0.0,
            flap_period_us: 0,
            flap_down_us: 5,
            squeeze: 0.0,
            crash_period_us: 0,
            host_poison: 0.0,
            fw_fault: 0.0,
            stall_alpha: 0.0,
        }
    }
}

impl FaultPlan {
    /// A plan applying `rate` uniformly to the per-event fault classes
    /// (link corruption, truncation at a tenth, DMA errors, stalls,
    /// ECC) — the axis the `fault_sweep` bench walks.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            link_corrupt: rate,
            link_truncate: rate * 0.1,
            dma_error: rate,
            dma_stall: rate,
            ecc: rate,
            ..FaultPlan::default()
        }
    }

    /// Parse a `--faults` spec: a comma-separated `key=value` list.
    ///
    /// | key           | meaning                                    |
    /// |---------------|--------------------------------------------|
    /// | `seed`        | master seed (u64, default 1)               |
    /// | `rate`        | shorthand: sets `crc`, `dma`, `stall`, `ecc` to the value and `trunc` to a tenth |
    /// | `crc`         | per-frame link corruption probability      |
    /// | `trunc`       | per-frame link truncation probability      |
    /// | `dma`         | per-command transient DMA error probability|
    /// | `stall`       | per-command PCI stall probability          |
    /// | `stall_ns`    | stall duration (default 200, at most 10^9) |
    /// | `retries`     | DMA retry attempts before abort (default 4, at most 64) |
    /// | `backoff_ns`  | base retry backoff (default 100, at most 10^9) |
    /// | `ecc`         | per-read-burst ECC event probability       |
    /// | `hang_us`     | hang injection period, 0 = off (default 0) |
    /// | `watchdog_us` | watchdog timeout (default 50)              |
    /// | `fab_crc`     | per-frame fabric link corruption probability |
    /// | `flap_us`     | fabric link flap period, 0 = off (default 0) |
    /// | `flap_down_us`| flap down duration (default 5)             |
    /// | `squeeze`     | per-frame port-buffer squeeze probability  |
    /// | `crash_us`    | whole-NIC crash period, 0 = off (default 0)|
    /// | `poison`      | per-DMA-write host poison probability      |
    /// | `fw`          | per-dispatch firmware fault probability    |
    /// | `stall_alpha` | Pareto shape for stall durations, 0 = fixed (finite, >= 0) |
    ///
    /// Every `_us` duration is at most 10^8 (100 seconds).
    ///
    /// Example: `--faults seed=7,crc=1e-3,dma=1e-4,hang_us=500`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry, or what
    /// [`FaultPlan::validate`] rejects.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = item
                .split_once('=')
                .ok_or_else(|| format!("'{item}': expected key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            fn parse_as<T: std::str::FromStr>(item: &str, key: &str, v: &str) -> Result<T, String> {
                v.parse()
                    .map_err(|_| format!("'{item}': bad value for {key}"))
            }
            match key {
                "seed" => plan.seed = parse_as(item, key, value)?,
                "rate" => {
                    let r: f64 = parse_as(item, key, value)?;
                    plan.link_corrupt = r;
                    plan.link_truncate = r * 0.1;
                    plan.dma_error = r;
                    plan.dma_stall = r;
                    plan.ecc = r;
                }
                "crc" => plan.link_corrupt = parse_as(item, key, value)?,
                "trunc" => plan.link_truncate = parse_as(item, key, value)?,
                "dma" => plan.dma_error = parse_as(item, key, value)?,
                "stall" => plan.dma_stall = parse_as(item, key, value)?,
                "stall_ns" => plan.stall_ns = parse_as(item, key, value)?,
                "retries" => plan.max_retries = parse_as(item, key, value)?,
                "backoff_ns" => plan.backoff_ns = parse_as(item, key, value)?,
                "ecc" => plan.ecc = parse_as(item, key, value)?,
                "hang_us" => plan.hang_period_us = parse_as(item, key, value)?,
                "watchdog_us" => plan.watchdog_us = parse_as(item, key, value)?,
                "fab_crc" => plan.fabric_corrupt = parse_as(item, key, value)?,
                "flap_us" => plan.flap_period_us = parse_as(item, key, value)?,
                "flap_down_us" => plan.flap_down_us = parse_as(item, key, value)?,
                "squeeze" => plan.squeeze = parse_as(item, key, value)?,
                "crash_us" => plan.crash_period_us = parse_as(item, key, value)?,
                "poison" => plan.host_poison = parse_as(item, key, value)?,
                "fw" => plan.fw_fault = parse_as(item, key, value)?,
                "stall_alpha" => plan.stall_alpha = parse_as(item, key, value)?,
                _ => return Err(format!("'{item}': unknown key '{key}'")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Check the plan's values, naming the first bad one by its spec
    /// key. [`FaultPlan::parse`] ends here, and so must every other way
    /// a plan gets in (the fields are `pub`): a probability outside
    /// [0, 1] or NaN; more than [`MAX_RETRIES`] retries — the draw loops
    /// once per retry, and the backoff shift stops growing at 16 anyway;
    /// a stall or backoff over one second, which keeps its `<< 16`
    /// backoff and the sum of all retries' backoffs inside a `u64` with
    /// room for the clock; a period or timeout over 100 seconds, whose
    /// picosecond value shifted by 16 still fits; a Pareto shape that is
    /// negative or not finite.
    ///
    /// # Errors
    ///
    /// Returns `key=value: what it must be`.
    pub fn validate(&self) -> Result<(), String> {
        for (key, p) in [
            ("crc", self.link_corrupt),
            ("trunc", self.link_truncate),
            ("dma", self.dma_error),
            ("stall", self.dma_stall),
            ("ecc", self.ecc),
            ("fab_crc", self.fabric_corrupt),
            ("squeeze", self.squeeze),
            ("poison", self.host_poison),
            ("fw", self.fw_fault),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{key}={p}: probability must be in [0, 1]"));
            }
        }
        if self.max_retries > MAX_RETRIES {
            return Err(format!(
                "retries={}: at most {MAX_RETRIES} retries",
                self.max_retries
            ));
        }
        // One second for the two that enter the retry sum (65 backoffs
        // of up to `<< 16` each); 100 seconds for the periods, whose
        // picosecond value shifted by 16 still fits a `u64`.
        for (key, v, limit, what) in [
            ("stall_ns", self.stall_ns, 1_000_000_000, "one second"),
            ("backoff_ns", self.backoff_ns, 1_000_000_000, "one second"),
            ("hang_us", self.hang_period_us, 100_000_000, "100 seconds"),
            ("watchdog_us", self.watchdog_us, 100_000_000, "100 seconds"),
            ("flap_us", self.flap_period_us, 100_000_000, "100 seconds"),
            (
                "flap_down_us",
                self.flap_down_us,
                100_000_000,
                "100 seconds",
            ),
            ("crash_us", self.crash_period_us, 100_000_000, "100 seconds"),
        ] {
            if v > limit {
                return Err(format!("{key}={v}: at most {what} ({limit})"));
            }
        }
        if !(self.stall_alpha >= 0.0 && self.stall_alpha.is_finite()) {
            return Err(format!(
                "stall_alpha={}: shape must be finite and >= 0",
                self.stall_alpha
            ));
        }
        Ok(())
    }

    /// The spec string that re-parses to this plan (results metadata).
    pub fn spec(&self) -> String {
        format!(
            "seed={},crc={},trunc={},dma={},stall={},stall_ns={},retries={},\
             backoff_ns={},ecc={},hang_us={},watchdog_us={},fab_crc={},\
             flap_us={},flap_down_us={},squeeze={},crash_us={},poison={},\
             fw={},stall_alpha={}",
            self.seed,
            self.link_corrupt,
            self.link_truncate,
            self.dma_error,
            self.dma_stall,
            self.stall_ns,
            self.max_retries,
            self.backoff_ns,
            self.ecc,
            self.hang_period_us,
            self.watchdog_us,
            self.fabric_corrupt,
            self.flap_period_us,
            self.flap_down_us,
            self.squeeze,
            self.crash_period_us,
            self.host_poison,
            self.fw_fault,
            self.stall_alpha
        )
    }

    /// Whether every fault class is disabled — an all-zeros plan. Armed
    /// plumbing treats such a plan exactly like no plan at all (the
    /// zero-rate fast path): no site state is built, no draws happen,
    /// and the hot loops never branch on fault state.
    pub fn is_noop(&self) -> bool {
        self.link_corrupt == 0.0
            && self.link_truncate == 0.0
            && self.dma_error == 0.0
            && self.dma_stall == 0.0
            && self.ecc == 0.0
            && self.hang_period_us == 0
            && self.fabric_corrupt == 0.0
            && self.flap_period_us == 0
            && self.squeeze == 0.0
            && self.crash_period_us == 0
            && self.host_poison == 0.0
            && self.fw_fault == 0.0
    }

    /// The per-NIC plan a fleet hands to NIC `nic`: same policy, but a
    /// seed derived through [`SITE_NIC_PLAN_BASE`] so the internal fault
    /// streams of different NICs never correlate. Derived at fleet build
    /// time, so it is invariant across shard counts and dispatch modes.
    pub fn derive_nic(&self, nic: u64) -> FaultPlan {
        let mut rng = XorShift64::for_site(self.seed, SITE_NIC_PLAN_BASE + nic);
        FaultPlan {
            seed: rng.next_u64(),
            ..*self
        }
    }

    /// First crash onset for `nic`: one full period plus a seeded jitter
    /// within a second period, so crashes across the fleet de-phase.
    /// `None` when crash injection is disabled.
    pub fn crash_onset(&self, nic: u64) -> Option<Ps> {
        if self.crash_period_us == 0 {
            return None;
        }
        let period = Ps::from_us(self.crash_period_us);
        let mut rng = XorShift64::for_site(self.seed, SITE_NIC_CRASH_BASE + nic);
        Some(period + Ps(rng.below(period.0.max(1))))
    }
}

/// Injection and recovery counters, aggregated by `NicSystem` into
/// `RunStats` (and from there into the `nicsim-exp/v1` results JSON)
/// whenever a [`FaultPlan`] is configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ErrorStats {
    /// Frames bit-corrupted on the inbound link.
    pub link_corrupt_injected: u64,
    /// Frames truncated on the inbound link.
    pub link_truncate_injected: u64,
    /// Frames the MAC RX CRC32 check caught and dropped (an error
    /// descriptor was published instead of the payload).
    pub crc_dropped: u64,
    /// Transient DMA completion errors injected (counts every failed
    /// attempt, including retries of the same command).
    pub dma_transient_errors: u64,
    /// DMA commands that eventually succeeded through retry.
    pub dma_retries_ok: u64,
    /// DMA commands aborted after exhausting retries (frame abort with
    /// ring cleanup).
    pub dma_aborts: u64,
    /// Bounded PCI stalls injected.
    pub pci_stalls: u64,
    /// Correctable single-bit ECC events in the frame memory.
    pub ecc_corrections: u64,
    /// Stuck-assist hangs that took effect (the unit had work pending).
    pub assist_hangs: u64,
    /// Watchdog resets of stuck assists.
    pub watchdog_resets: u64,
    /// Error return descriptors the host driver consumed and recycled.
    pub rx_error_returns: u64,
    /// Aborted transmit frames the host driver accounted and re-posted.
    pub tx_retries: u64,
    /// Frame-bus read completions that arrived without data and were
    /// recovered as aborted transfers.
    pub fm_short_reads: u64,
    /// Payload bytes poisoned in host memory by a DMA write (caught by
    /// driver frame validation as `rx_corrupt`).
    pub host_poison_injected: u64,
    /// Firmware instruction faults injected (handler aborted, core
    /// restarted the dispatch scan).
    pub fw_instr_faults: u64,
    /// Whole-NIC crash/reset cycles the fleet watchdog performed.
    pub nic_resets: u64,
    /// In-flight frames discarded by NIC resets (driver-posted frames
    /// not yet completed, plus pending RX at the dead port).
    pub nic_reset_lost_frames: u64,
    /// Frames the driver retransmitted in reliable mode (timeout with
    /// exponential backoff).
    pub tx_retransmits: u64,
    /// Duplicate deliveries the reliable-mode receiver suppressed.
    pub rx_duplicates: u64,
}

impl ErrorStats {
    /// Total injected faults (not recoveries).
    pub fn injected(&self) -> u64 {
        self.link_corrupt_injected
            + self.link_truncate_injected
            + self.dma_transient_errors
            + self.pci_stalls
            + self.ecc_corrections
            + self.assist_hangs
            + self.host_poison_injected
            + self.fw_instr_faults
    }

    /// The stable `(name, value)` rows appended to `RunStats::summary()`.
    pub fn summary(&self) -> [(&'static str, u64); 19] {
        [
            ("err_link_corrupt", self.link_corrupt_injected),
            ("err_link_truncate", self.link_truncate_injected),
            ("err_crc_dropped", self.crc_dropped),
            ("err_dma_transient", self.dma_transient_errors),
            ("err_dma_retried", self.dma_retries_ok),
            ("err_dma_aborts", self.dma_aborts),
            ("err_pci_stalls", self.pci_stalls),
            ("err_ecc", self.ecc_corrections),
            ("err_assist_hangs", self.assist_hangs),
            ("err_watchdog_resets", self.watchdog_resets),
            ("err_rx_error_returns", self.rx_error_returns),
            ("err_tx_retries", self.tx_retries),
            ("err_fm_short_reads", self.fm_short_reads),
            ("err_host_poison", self.host_poison_injected),
            ("err_fw_instr_faults", self.fw_instr_faults),
            ("err_nic_resets", self.nic_resets),
            ("err_nic_reset_lost", self.nic_reset_lost_frames),
            ("err_tx_retransmits", self.tx_retransmits),
            ("err_rx_duplicates", self.rx_duplicates),
        ]
    }

    /// Fold another NIC's counters into this one — the fleet path to an
    /// aggregated `err_*` table, mirroring `FrameTracker::merge`.
    pub fn merge(&mut self, other: &ErrorStats) {
        self.link_corrupt_injected += other.link_corrupt_injected;
        self.link_truncate_injected += other.link_truncate_injected;
        self.crc_dropped += other.crc_dropped;
        self.dma_transient_errors += other.dma_transient_errors;
        self.dma_retries_ok += other.dma_retries_ok;
        self.dma_aborts += other.dma_aborts;
        self.pci_stalls += other.pci_stalls;
        self.ecc_corrections += other.ecc_corrections;
        self.assist_hangs += other.assist_hangs;
        self.watchdog_resets += other.watchdog_resets;
        self.rx_error_returns += other.rx_error_returns;
        self.tx_retries += other.tx_retries;
        self.fm_short_reads += other.fm_short_reads;
        self.host_poison_injected += other.host_poison_injected;
        self.fw_instr_faults += other.fw_instr_faults;
        self.nic_resets += other.nic_resets;
        self.nic_reset_lost_frames += other.nic_reset_lost_frames;
        self.tx_retransmits += other.tx_retransmits;
        self.rx_duplicates += other.rx_duplicates;
    }
}

/// What the link decided to do to one generated frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// Flip one bit somewhere in the frame body.
    Corrupt,
    /// Cut the frame short of its full length.
    Truncate,
}

/// Link-site state: the per-frame draw for bit corruption and
/// truncation. The mechanism (CRC stamping, the actual mutation) lives
/// in `nicsim-net`; this is only the policy stream and its counters.
#[derive(Debug, Clone)]
pub struct LinkFaults {
    rng: XorShift64,
    p_corrupt: f64,
    p_truncate: f64,
    /// Frames corrupted so far.
    pub injected_corrupt: u64,
    /// Frames truncated so far.
    pub injected_truncate: u64,
}

impl LinkFaults {
    /// Site state under `plan`.
    pub fn new(plan: &FaultPlan) -> LinkFaults {
        LinkFaults {
            rng: XorShift64::for_site(plan.seed, SITE_LINK),
            p_corrupt: plan.link_corrupt,
            p_truncate: plan.link_truncate,
            injected_corrupt: 0,
            injected_truncate: 0,
        }
    }

    /// Draw the fate of the next frame. Consumes exactly two Bernoulli
    /// draws per frame regardless of outcome, so enabling one class
    /// never shifts the other's stream.
    pub fn draw(&mut self) -> Option<LinkFault> {
        let corrupt = self.rng.chance(self.p_corrupt);
        let truncate = self.rng.chance(self.p_truncate);
        if corrupt {
            self.injected_corrupt += 1;
            Some(LinkFault::Corrupt)
        } else if truncate {
            self.injected_truncate += 1;
            Some(LinkFault::Truncate)
        } else {
            None
        }
    }

    /// A raw draw for picking the corruption position / truncated length.
    pub fn pick(&mut self, n: u64) -> u64 {
        self.rng.below(n.max(1))
    }
}

/// The fate of one payload DMA command under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmdOutcome {
    /// Extra delay (stall + retry backoff) before the command resolves.
    pub delay: Ps,
    /// Failed attempts before resolution (each one a transient error).
    pub attempts: u32,
    /// Whether a PCI stall was injected.
    pub stalled: bool,
    /// Whether the command ultimately aborts instead of transferring.
    pub abort: bool,
}

impl CmdOutcome {
    /// A clean pass-through outcome.
    pub const CLEAN: CmdOutcome = CmdOutcome {
        delay: Ps::ZERO,
        attempts: 0,
        stalled: false,
        abort: false,
    };
}

/// DMA-engine site state: transient errors with retry/backoff/abort,
/// PCI stalls, and stuck-unit hangs, plus the engine's fault counters.
#[derive(Debug, Clone)]
pub struct DmaFaults {
    rng: XorShift64,
    p_error: f64,
    p_stall: f64,
    p_poison: f64,
    stall: Ps,
    stall_alpha: f64,
    max_retries: u32,
    backoff: Ps,
    hang_period: Ps,
    watchdog: Ps,
    /// Next scheduled hang onset (`Ps::MAX` when hangs are disabled).
    next_hang_at: Ps,
    /// The unit is currently wedged (cleared by a watchdog reset).
    pub hung: bool,
    /// When the unit was first observed stuck (hung with work pending).
    pub stuck_since: Option<Ps>,
    /// Transient errors injected (failed attempts).
    pub transient_errors: u64,
    /// Commands recovered through retry.
    pub retries_ok: u64,
    /// Commands aborted after exhausting retries.
    pub aborts: u64,
    /// PCI stalls injected.
    pub stalls: u64,
    /// Hangs that took effect (counted at first stuck observation).
    pub hangs: u64,
    /// Watchdog resets of this unit.
    pub watchdog_resets: u64,
    /// Host-memory bytes poisoned on DMA-write completion.
    pub poisons: u64,
}

impl DmaFaults {
    /// Site state for `site` (one of [`SITE_DMA_READ`] /
    /// [`SITE_DMA_WRITE`]) under `plan`.
    pub fn new(plan: &FaultPlan, site: u64) -> DmaFaults {
        let hang_period = if plan.hang_period_us == 0 {
            Ps::MAX
        } else {
            Ps::from_us(plan.hang_period_us)
        };
        DmaFaults {
            rng: XorShift64::for_site(plan.seed, site),
            p_error: plan.dma_error,
            p_stall: plan.dma_stall,
            p_poison: plan.host_poison,
            stall: Ps(plan.stall_ns * 1000),
            stall_alpha: plan.stall_alpha,
            max_retries: plan.max_retries,
            backoff: Ps(plan.backoff_ns * 1000),
            hang_period,
            watchdog: Ps::from_us(plan.watchdog_us.max(1)),
            next_hang_at: hang_period,
            hung: false,
            stuck_since: None,
            transient_errors: 0,
            retries_ok: 0,
            aborts: 0,
            stalls: 0,
            hangs: 0,
            watchdog_resets: 0,
            poisons: 0,
        }
    }

    /// Rebase the hang schedule onto an absolute restart time: a freshly
    /// built unit schedules its first hang one period after `at` instead
    /// of one period after time zero (NIC reset lifecycle).
    pub fn rebase(&mut self, at: Ps) {
        if self.next_hang_at != Ps::MAX {
            self.next_hang_at = at + self.hang_period;
        }
    }

    /// Decide the fate of one payload command: an optional stall, then a
    /// geometric chain of failed attempts, each backed off exponentially.
    /// The accumulated delay is served before the command executes (or
    /// aborts); counters update immediately.
    pub fn draw_command(&mut self) -> CmdOutcome {
        let stalled = self.rng.chance(self.p_stall);
        let mut delay = if stalled {
            self.stalls += 1;
            if self.stall_alpha > 0.0 {
                // Bounded-Pareto tail: the draw happens only when a
                // stall fired AND the shape is nonzero, so legacy plans
                // (alpha = 0) replay their exact streams.
                let mult = self
                    .rng
                    .unit_open()
                    .powf(-1.0 / self.stall_alpha)
                    .min(100.0);
                Ps((self.stall.0 as f64 * mult) as u64)
            } else {
                self.stall
            }
        } else {
            Ps::ZERO
        };
        let mut attempts = 0u32;
        while attempts <= self.max_retries && self.rng.chance(self.p_error) {
            delay += Ps(self.backoff.0 << attempts.min(16));
            attempts += 1;
        }
        let abort = attempts > self.max_retries;
        self.transient_errors += attempts as u64;
        if abort {
            self.aborts += 1;
        } else if attempts > 0 {
            self.retries_ok += 1;
        }
        CmdOutcome {
            delay,
            attempts,
            stalled,
            abort,
        }
    }

    /// Whether any fault class is live at this site (used to skip the
    /// draw entirely for control-plane commands).
    pub fn commands_faulty(&self) -> bool {
        self.p_error > 0.0 || self.p_stall > 0.0
    }

    /// Advance the hang schedule: returns `true` while the unit is
    /// wedged. Onset is a pure function of simulated time, so dense and
    /// event-driven kernels agree regardless of cycle skipping.
    pub fn hang_active(&mut self, now: Ps) -> bool {
        if !self.hung && now >= self.next_hang_at {
            self.hung = true;
        }
        self.hung
    }

    /// Record a stuck observation (hung with work pending) at `now`;
    /// returns `true` when the watchdog deadline has expired and the
    /// unit must be reset. The first stuck observation counts the hang.
    pub fn observe_stuck(&mut self, now: Ps) -> bool {
        match self.stuck_since {
            None => {
                self.stuck_since = Some(now);
                self.hangs += 1;
                false
            }
            Some(since) => now >= since + self.watchdog,
        }
    }

    /// Watchdog reset: clear the wedge, reschedule the next hang, count
    /// the recovery.
    pub fn watchdog_reset(&mut self, now: Ps) {
        self.hung = false;
        self.stuck_since = None;
        self.watchdog_resets += 1;
        self.next_hang_at = if self.hang_period == Ps::MAX {
            Ps::MAX
        } else {
            now + self.hang_period
        };
    }

    /// Draw the fate of one DMA-write payload landing in host memory:
    /// `Some(offset)` poisons the byte at `offset` of the buffer. Draws
    /// only when host poisoning is enabled, so plans without it replay
    /// their exact command streams.
    pub fn draw_poison(&mut self, len: usize) -> Option<usize> {
        if self.p_poison <= 0.0 || len == 0 {
            return None;
        }
        if self.rng.chance(self.p_poison) {
            self.poisons += 1;
            Some(self.rng.below(len as u64) as usize)
        } else {
            None
        }
    }
}

/// Frame-memory site state: correctable single-bit ECC events on read
/// bursts, each costing a fixed correction latency.
#[derive(Debug, Clone)]
pub struct EccFaults {
    rng: XorShift64,
    p: f64,
    /// Extra service latency charged per corrected burst.
    pub extra: Ps,
    /// Corrections so far.
    pub corrections: u64,
}

impl EccFaults {
    /// Site state under `plan`. The correction penalty is fixed at 8 ns
    /// (a resync + scrub write at GDDR timescales).
    pub fn new(plan: &FaultPlan) -> EccFaults {
        EccFaults {
            rng: XorShift64::for_site(plan.seed, SITE_ECC),
            p: plan.ecc,
            extra: Ps(8_000),
            corrections: 0,
        }
    }

    /// Draw one read burst: `true` when a single-bit error was injected
    /// (and corrected).
    pub fn draw(&mut self) -> bool {
        if self.rng.chance(self.p) {
            self.corrections += 1;
            true
        } else {
            false
        }
    }
}

/// Fabric-site state for a fleet: per-source-link corruption streams,
/// time-pure link flap windows, and a fabric-wide port-buffer squeeze
/// stream. The mechanism (FCS stamping, the bit flip, the drop and its
/// digest fold) lives in `nicsim-net::Fabric`; this is only the policy.
///
/// Determinism: every decision is either a pure function of simulated
/// time (flaps) or a draw on a stream indexed by the *source* NIC of the
/// offered frame — and the fleet's epoch engine offers frames to the
/// fabric in a sorted, shard-invariant order, so the streams advance
/// identically for every shard count and dispatch mode.
#[derive(Debug, Clone)]
pub struct FabricFaults {
    links: Vec<XorShift64>,
    flap_phase: Vec<Ps>,
    squeeze_rng: XorShift64,
    p_corrupt: f64,
    p_squeeze: f64,
    flap_period: Ps,
    flap_down: Ps,
    /// Whether the plan arms *any* fault class, fabric-side or not. An
    /// armed plan arms every receiver's CRC check, so the fabric must
    /// stamp a valid FCS on each frame it carries even when no
    /// fabric-side class can fire (e.g. a crash-only plan) — otherwise
    /// every delivery would be dropped as corrupt.
    plan_armed: bool,
}

impl FabricFaults {
    /// Site state for a fabric with `n_links` source links under `plan`
    /// (the *fleet* plan seed, not a per-NIC derived one).
    pub fn new(plan: &FaultPlan, n_links: usize) -> FabricFaults {
        let flap_period = if plan.flap_period_us == 0 {
            Ps::MAX
        } else {
            Ps::from_us(plan.flap_period_us)
        };
        let flap_phase = (0..n_links)
            .map(|i| {
                if flap_period == Ps::MAX {
                    Ps::ZERO
                } else {
                    let mut r = XorShift64::for_site(plan.seed, SITE_FABRIC_FLAP_BASE + i as u64);
                    Ps(r.below(flap_period.0.max(1)))
                }
            })
            .collect();
        FabricFaults {
            links: (0..n_links)
                .map(|i| XorShift64::for_site(plan.seed, SITE_FABRIC_LINK_BASE + i as u64))
                .collect(),
            flap_phase,
            squeeze_rng: XorShift64::for_site(plan.seed, SITE_FABRIC_SQUEEZE),
            p_corrupt: plan.fabric_corrupt,
            p_squeeze: plan.squeeze,
            flap_period,
            flap_down: Ps::from_us(plan.flap_down_us),
            plan_armed: !plan.is_noop(),
        }
    }

    /// Whether source link `src` is flapped down at time `t` — a pure
    /// function of simulated time (each link's phase was seeded at
    /// construction), so cycle skipping and sharding cannot shift it.
    pub fn link_down(&self, src: usize, t: Ps) -> bool {
        if self.flap_period == Ps::MAX {
            return false;
        }
        let pos = (t.0 + self.flap_phase[src].0) % self.flap_period.0;
        pos < self.flap_down.0.min(self.flap_period.0)
    }

    /// Draw the fate of one frame offered by `src`: `Some(bit)` flips
    /// that bit of the frame body. One Bernoulli draw per offer (plus a
    /// position draw on a hit), on the per-source link stream.
    pub fn draw_corrupt(&mut self, src: usize, body_bits: u64) -> Option<u64> {
        if self.links[src].chance(self.p_corrupt) {
            Some(self.links[src].below(body_bits.max(1)))
        } else {
            None
        }
    }

    /// Draw one admission at the destination port: `true` squeezes the
    /// effective buffer capacity for this frame.
    pub fn draw_squeeze(&mut self) -> bool {
        self.squeeze_rng.chance(self.p_squeeze)
    }

    /// Whether the fabric must enter its fault path at all: true when
    /// the plan arms *anything* (the receivers' CRC checks are then
    /// armed too, so every carried frame needs an FCS stamp), false for
    /// an all-zeros plan (the fabric then stays bit-identical to a
    /// clean one — no stamping, no draws).
    pub fn armed(&self) -> bool {
        self.plan_armed
    }
}

/// Per-core firmware-site state: seeded instruction faults at handler
/// dispatch. The mechanism (aborting the handler, charging the restart
/// penalty) lives in `nicsim-firmware`; this is only the stream.
#[derive(Debug, Clone)]
pub struct FwFaults {
    rng: XorShift64,
    p: f64,
    /// Instruction faults injected on this core.
    pub injected: u64,
}

impl FwFaults {
    /// Site state for `core_id` under `plan`.
    pub fn new(plan: &FaultPlan, core_id: usize) -> FwFaults {
        FwFaults {
            rng: XorShift64::for_site(plan.seed, SITE_FW_BASE + core_id as u64),
            p: plan.fw_fault,
            injected: 0,
        }
    }

    /// Draw one handler dispatch: `true` aborts the handler before it
    /// runs and the core restarts its scan.
    pub fn fires(&mut self) -> bool {
        if self.p <= 0.0 {
            return false;
        }
        if self.rng.chance(self.p) {
            self.injected += 1;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_spec() {
        let plan =
            FaultPlan::parse("seed=9,crc=0.001,dma=0.0002,hang_us=500,watchdog_us=80").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.link_corrupt, 0.001);
        assert_eq!(plan.hang_period_us, 500);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
    }

    #[test]
    fn parse_rate_shorthand_and_errors() {
        let plan = FaultPlan::parse("seed=2,rate=1e-3").unwrap();
        assert_eq!(plan.link_corrupt, 1e-3);
        assert_eq!(plan.dma_error, 1e-3);
        assert_eq!(plan.ecc, 1e-3);
        assert_eq!(plan.link_truncate, 1e-4);
        assert_eq!(plan.seed, 2);
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("crc=2.0").is_err());
        assert!(FaultPlan::parse("martians=1").is_err());
    }

    #[test]
    fn link_draw_counts_and_replays() {
        let plan = FaultPlan {
            link_corrupt: 0.5,
            link_truncate: 0.5,
            ..FaultPlan::default()
        };
        let mut a = LinkFaults::new(&plan);
        let mut b = LinkFaults::new(&plan);
        let fa: Vec<_> = (0..100).map(|_| a.draw()).collect();
        let fb: Vec<_> = (0..100).map(|_| b.draw()).collect();
        assert_eq!(fa, fb);
        assert!(a.injected_corrupt > 0);
        assert!(a.injected_truncate > 0);
    }

    #[test]
    fn dma_outcomes_cover_retry_and_abort() {
        let plan = FaultPlan {
            dma_error: 0.9,
            dma_stall: 0.2,
            max_retries: 2,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ);
        let outcomes: Vec<_> = (0..200).map(|_| d.draw_command()).collect();
        assert!(outcomes.iter().any(|o| o.abort));
        assert!(outcomes.iter().any(|o| o.attempts > 0 && !o.abort));
        assert!(outcomes.iter().any(|o| o.stalled));
        assert_eq!(
            d.transient_errors,
            outcomes.iter().map(|o| o.attempts as u64).sum::<u64>()
        );
        assert!(d.aborts > 0 && d.retries_ok > 0 && d.stalls > 0);
        // Abort only after exhausting max_retries attempts.
        for o in &outcomes {
            if o.abort {
                assert_eq!(o.attempts, plan.max_retries + 1);
            }
        }
    }

    #[test]
    fn hang_onset_is_time_pure_and_watchdog_resets() {
        let plan = FaultPlan {
            hang_period_us: 10,
            watchdog_us: 5,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_WRITE);
        assert!(!d.hang_active(Ps::from_us(9)));
        assert!(d.hang_active(Ps::from_us(10)));
        // Skipping straight past the onset gives the same answer.
        let mut e = DmaFaults::new(&plan, SITE_DMA_WRITE);
        assert!(e.hang_active(Ps::from_us(25)));
        // Stuck observations arm the watchdog after the timeout.
        assert!(!d.observe_stuck(Ps::from_us(10)));
        assert!(!d.observe_stuck(Ps::from_us(12)));
        assert!(d.observe_stuck(Ps::from_us(15)));
        d.watchdog_reset(Ps::from_us(15));
        assert!(!d.hung);
        assert_eq!(d.watchdog_resets, 1);
        assert_eq!(d.hangs, 1);
        // The next hang is rescheduled relative to the reset.
        assert!(!d.hang_active(Ps::from_us(24)));
        assert!(d.hang_active(Ps::from_us(25)));
    }

    #[test]
    fn ecc_draws_count() {
        let plan = FaultPlan {
            ecc: 1.0,
            ..FaultPlan::default()
        };
        let mut e = EccFaults::new(&plan);
        assert!(e.draw());
        assert_eq!(e.corrections, 1);
    }

    #[test]
    fn error_stats_summary_is_stable() {
        let s = ErrorStats {
            crc_dropped: 3,
            ..ErrorStats::default()
        };
        let rows = s.summary();
        assert_eq!(rows[2], ("err_crc_dropped", 3));
        assert_eq!(rows.len(), 19);
        assert_eq!(rows[15].0, "err_nic_resets");
        assert_eq!(rows[17].0, "err_tx_retransmits");
        assert_eq!(s.injected(), 0);
    }

    #[test]
    fn error_stats_merge_sums_every_counter() {
        let mut a = ErrorStats::default();
        let mut b = ErrorStats::default();
        // Give every row a distinct nonzero value via the summary order.
        let fill = |s: &mut ErrorStats, base: u64| {
            s.link_corrupt_injected = base;
            s.link_truncate_injected = base + 1;
            s.crc_dropped = base + 2;
            s.dma_transient_errors = base + 3;
            s.dma_retries_ok = base + 4;
            s.dma_aborts = base + 5;
            s.pci_stalls = base + 6;
            s.ecc_corrections = base + 7;
            s.assist_hangs = base + 8;
            s.watchdog_resets = base + 9;
            s.rx_error_returns = base + 10;
            s.tx_retries = base + 11;
            s.fm_short_reads = base + 12;
            s.host_poison_injected = base + 13;
            s.fw_instr_faults = base + 14;
            s.nic_resets = base + 15;
            s.nic_reset_lost_frames = base + 16;
            s.tx_retransmits = base + 17;
            s.rx_duplicates = base + 18;
        };
        fill(&mut a, 100);
        fill(&mut b, 1000);
        a.merge(&b);
        for (i, (name, v)) in a.summary().iter().enumerate() {
            assert_eq!(*v, 1100 + 2 * i as u64, "{name}");
        }
    }

    #[test]
    fn noop_detection_tracks_every_class() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::with_rate(9, 0.0).is_noop());
        for set in [
            |p: &mut FaultPlan| p.link_corrupt = 1e-9,
            |p: &mut FaultPlan| p.link_truncate = 1e-9,
            |p: &mut FaultPlan| p.dma_error = 1e-9,
            |p: &mut FaultPlan| p.dma_stall = 1e-9,
            |p: &mut FaultPlan| p.ecc = 1e-9,
            |p: &mut FaultPlan| p.hang_period_us = 1,
            |p: &mut FaultPlan| p.fabric_corrupt = 1e-9,
            |p: &mut FaultPlan| p.flap_period_us = 1,
            |p: &mut FaultPlan| p.squeeze = 1e-9,
            |p: &mut FaultPlan| p.crash_period_us = 1,
            |p: &mut FaultPlan| p.host_poison = 1e-9,
            |p: &mut FaultPlan| p.fw_fault = 1e-9,
        ] {
            let mut p = FaultPlan::default();
            set(&mut p);
            assert!(!p.is_noop(), "{p:?}");
        }
    }

    #[test]
    fn spec_roundtrip_property_over_random_plans() {
        // xorshift-driven property test: random plans survive a
        // spec() -> parse() round trip bit-exactly (f64 Display is the
        // shortest round-trippable form).
        let mut r = XorShift64::for_site(0xfee1_600d, 99);
        for _ in 0..200 {
            let prob = |r: &mut XorShift64| r.below(1001) as f64 / 1000.0;
            let plan = FaultPlan {
                seed: r.next_u64(),
                link_corrupt: prob(&mut r),
                link_truncate: prob(&mut r),
                dma_error: prob(&mut r),
                dma_stall: prob(&mut r),
                stall_ns: r.below(10_000),
                max_retries: r.below(16) as u32,
                backoff_ns: r.below(10_000),
                ecc: prob(&mut r),
                hang_period_us: r.below(1000),
                watchdog_us: r.below(1000),
                fabric_corrupt: prob(&mut r),
                flap_period_us: r.below(1000),
                flap_down_us: r.below(100),
                squeeze: prob(&mut r),
                crash_period_us: r.below(1000),
                host_poison: prob(&mut r),
                fw_fault: prob(&mut r),
                stall_alpha: r.below(40) as f64 / 10.0,
            };
            let spec = plan.spec();
            assert_eq!(FaultPlan::parse(&spec).unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_bad_new_keys() {
        assert!(FaultPlan::parse("fab_crc=1.5").is_err());
        assert!(FaultPlan::parse("squeeze=-0.1").is_err());
        assert!(FaultPlan::parse("poison=2").is_err());
        assert!(FaultPlan::parse("fw=nan").is_err());
        assert!(FaultPlan::parse("stall_alpha=-1").is_err());
        assert!(FaultPlan::parse("flap_us=bogus").is_err());
        let p = FaultPlan::parse("fab_crc=0.01,flap_us=200,squeeze=0.05,crash_us=400").unwrap();
        assert_eq!(p.fabric_corrupt, 0.01);
        assert_eq!(p.flap_period_us, 200);
        assert_eq!(p.squeeze, 0.05);
        assert_eq!(p.crash_period_us, 400);
    }

    #[test]
    fn parse_rejects_values_that_would_wedge_or_overflow() {
        // `retries=4294967295` used to parse and then spin in
        // `draw_command`; the durations used to overflow `Ps::from_us`
        // (a panic in debug, a nonsense period in release); `nan`
        // passed the `< 0.0` check.
        for (spec, key) in [
            ("dma=1,retries=4294967295", "retries"),
            ("retries=65", "retries"),
            ("hang_us=18446744073709551615", "hang_us"),
            ("watchdog_us=18446744073709551615", "watchdog_us"),
            ("flap_us=18446744073709551615", "flap_us"),
            ("flap_down_us=18446744073709551615", "flap_down_us"),
            ("crash_us=18446744073709551615", "crash_us"),
            ("stall_ns=18446744073709551615", "stall_ns"),
            ("backoff_ns=18446744073709551615", "backoff_ns"),
            ("hang_us=100000001", "hang_us"),
            ("stall_ns=1000000001", "stall_ns"),
            ("stall_alpha=nan", "stall_alpha"),
            ("stall_alpha=inf", "stall_alpha"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            let value = spec.rsplit('=').next().unwrap();
            assert!(
                err.starts_with(&format!("{key}=")) && err.to_lowercase().contains(value),
                "{spec}: {err}"
            );
        }
        // The largest legal values run every site's arithmetic without
        // overflow: all 65 attempts fail and every backoff is summed.
        let plan = FaultPlan::parse(
            "dma=1,stall=1,retries=64,stall_ns=1000000000,backoff_ns=1000000000,\
             hang_us=100000000,watchdog_us=100000000,flap_us=100000000,\
             flap_down_us=100000000,crash_us=100000000,stall_alpha=0.01",
        )
        .unwrap();
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ);
        let o = d.draw_command();
        assert!(o.abort && o.attempts == 65);
        assert!(
            Ps::from_ms(10_000) + o.delay > o.delay,
            "room for the clock"
        );
        let _ = FabricFaults::new(&plan, 2);
        assert!(plan.crash_onset(0).unwrap() >= Ps::from_ms(100_000));
    }

    #[test]
    fn derived_nic_plans_decorrelate_but_replay() {
        let plan = FaultPlan::with_rate(7, 1e-3);
        let a = plan.derive_nic(0);
        let b = plan.derive_nic(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, plan.derive_nic(0), "derivation must replay");
        assert_eq!(a.dma_error, plan.dma_error, "policy fields carry over");
    }

    #[test]
    fn crash_onsets_are_seeded_and_bounded() {
        let plan = FaultPlan {
            crash_period_us: 100,
            ..FaultPlan::default()
        };
        assert_eq!(FaultPlan::default().crash_onset(0), None);
        let a = plan.crash_onset(0).unwrap();
        let b = plan.crash_onset(1).unwrap();
        assert_eq!(a, plan.crash_onset(0).unwrap());
        assert_ne!(a, b);
        for t in [a, b] {
            assert!(t >= Ps::from_us(100) && t < Ps::from_us(200), "{t:?}");
        }
    }

    #[test]
    fn fabric_faults_flap_windows_are_time_pure() {
        let plan = FaultPlan {
            flap_period_us: 100,
            flap_down_us: 10,
            ..FaultPlan::default()
        };
        let f = FabricFaults::new(&plan, 4);
        assert!(f.armed());
        // Sample two full periods: each link must be down for exactly
        // flap_down out of every flap_period microseconds, and repeated
        // queries at the same time must agree (pure function of time).
        for src in 0..4 {
            let down = (0..200)
                .filter(|us| f.link_down(src, Ps::from_us(*us)))
                .count();
            assert_eq!(down, 20, "link {src}");
            assert_eq!(
                f.link_down(src, Ps::from_us(42)),
                f.link_down(src, Ps::from_us(42))
            );
        }
        // Phases differ across links.
        let first_down = |src: usize| (0..200).find(|us| f.link_down(src, Ps::from_us(*us)));
        assert_ne!(first_down(0), first_down(1));
    }

    #[test]
    fn fabric_corrupt_and_squeeze_draws_replay() {
        let plan = FaultPlan {
            fabric_corrupt: 0.5,
            squeeze: 0.5,
            ..FaultPlan::default()
        };
        let mut a = FabricFaults::new(&plan, 2);
        let mut b = FabricFaults::new(&plan, 2);
        let da: Vec<_> = (0..50)
            .map(|i| (a.draw_corrupt(i % 2, 8000), a.draw_squeeze()))
            .collect();
        let db: Vec<_> = (0..50)
            .map(|i| (b.draw_corrupt(i % 2, 8000), b.draw_squeeze()))
            .collect();
        assert_eq!(da, db);
        assert!(da.iter().any(|(c, _)| c.is_some()));
        assert!(da.iter().any(|(_, s)| *s));
        assert!(da.iter().all(|(c, _)| c.is_none_or(|bit| bit < 8000)));
        assert!(!FabricFaults::new(&FaultPlan::default(), 2).armed());
    }

    #[test]
    fn fw_faults_fire_and_count() {
        let mut f = FwFaults::new(
            &FaultPlan {
                fw_fault: 1.0,
                ..FaultPlan::default()
            },
            3,
        );
        assert!(f.fires());
        assert_eq!(f.injected, 1);
        let mut off = FwFaults::new(&FaultPlan::default(), 3);
        assert!(!off.fires());
        assert_eq!(off.injected, 0);
    }

    #[test]
    fn pareto_stalls_are_bounded_and_exceed_the_base() {
        let plan = FaultPlan {
            dma_stall: 1.0,
            stall_ns: 200,
            stall_alpha: 1.2,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ);
        let base = Ps(200 * 1000);
        let cap = Ps(base.0 * 100);
        let mut saw_tail = false;
        for _ in 0..500 {
            let o = d.draw_command();
            assert!(o.stalled);
            assert!(o.delay >= base && o.delay <= cap, "{:?}", o.delay);
            if o.delay > Ps(base.0 * 2) {
                saw_tail = true;
            }
        }
        assert!(saw_tail, "alpha=1.2 should produce a heavy tail");
        // alpha = 0 keeps the legacy fixed stall.
        let mut fixed = DmaFaults::new(
            &FaultPlan {
                dma_stall: 1.0,
                stall_ns: 200,
                ..FaultPlan::default()
            },
            SITE_DMA_READ,
        );
        assert_eq!(fixed.draw_command().delay, base);
    }

    #[test]
    fn poison_draws_only_when_enabled() {
        let mut off = DmaFaults::new(&FaultPlan::default(), SITE_DMA_WRITE);
        let before = off.rng;
        assert_eq!(off.draw_poison(1500), None);
        assert_eq!(off.rng, before, "disabled poison must not consume draws");
        let mut on = DmaFaults::new(
            &FaultPlan {
                host_poison: 1.0,
                ..FaultPlan::default()
            },
            SITE_DMA_WRITE,
        );
        let hit = on.draw_poison(1500).unwrap();
        assert!(hit < 1500);
        assert_eq!(on.poisons, 1);
        assert_eq!(on.draw_poison(0), None);
    }

    #[test]
    fn rebase_shifts_the_hang_schedule() {
        let plan = FaultPlan {
            hang_period_us: 10,
            ..FaultPlan::default()
        };
        let mut d = DmaFaults::new(&plan, SITE_DMA_WRITE);
        d.rebase(Ps::from_us(100));
        assert!(!d.hang_active(Ps::from_us(109)));
        assert!(d.hang_active(Ps::from_us(110)));
        // Hangs disabled: rebase keeps them disabled.
        let mut off = DmaFaults::new(&FaultPlan::default(), SITE_DMA_WRITE);
        off.rebase(Ps::from_us(100));
        assert!(!off.hang_active(Ps::from_us(1_000_000)));
    }
}
