//! Full-system configuration.

use nicsim_fault::FaultPlan;
use nicsim_firmware::{DispatchMode, FwMode, MAX_CORES, MAX_DMA_ENGINES};
use nicsim_mem::{ICacheConfig, MAX_XBAR_PORTS};
use nicsim_net::{frame::frame_len, link::line_rate_fps};

/// Configuration of the simulated NIC and its workload.
///
/// The defaults are the paper's headline configuration: 6 cores and 4
/// scratchpad banks at 166 MHz, 8 KB 2-way I-caches with 32-byte lines,
/// RMW-enhanced firmware, and full-duplex streams of maximum-sized
/// (1472-byte) UDP datagrams. What the paper's board fixes and never
/// varies is not a field: the 256 KB scratchpad
/// (`nicsim_firmware::map::SCRATCHPAD_BYTES`), the 500 MHz GDDR SDRAM
/// (`FrameMemoryConfig::default()`) and the driver's polling period
/// (`nicsim_host::driver::DRIVER_INTERVAL`).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct NicConfig {
    /// Number of processing cores (paper sweeps 1–8).
    pub cores: usize,
    /// CPU / scratchpad / crossbar clock in MHz (paper sweeps 100–200).
    pub cpu_mhz: u64,
    /// Scratchpad banks (paper: 4).
    pub banks: usize,
    /// Per-core instruction cache geometry.
    pub icache: ICacheConfig,
    /// Firmware synchronization mode.
    pub mode: FwMode,
    /// How the dispatch loop waits for work: polling (the paper's
    /// Figure 5) or interrupt-driven doorbells (the ablation axis; same
    /// frames and descriptors, different cycle counts, and far faster to
    /// simulate on the event-driven kernel).
    pub dispatch: DispatchMode,
    /// UDP datagram size for both directions.
    pub udp_payload: usize,
    /// Whether the host transmits.
    pub send_enabled: bool,
    /// Whether the wire delivers inbound traffic.
    pub recv_enabled: bool,
    /// Offered transmit load in frames/s (`None` = saturate).
    pub offered_tx_fps: Option<f64>,
    /// Offered receive load in frames/s (`None` = line rate).
    pub offered_rx_fps: Option<f64>,
    /// Deterministic fault-injection plan (`None` = clean run, the
    /// default). A configured plan enables the MAC RX CRC32 check, the
    /// DMA retry/abort machinery, ECC events, assist hangs with the
    /// system watchdog, and the firmware/driver recovery paths; runs are
    /// reproducible from `(plan.seed, plan)`.
    pub faults: Option<FaultPlan>,
    /// DMA engine pairs (read + write) beside the one MAC,
    /// `1..=MAX_DMA_ENGINES`, the most whose memory map fits the
    /// scratchpad. The default is the paper's board: one pair; more are
    /// the architecture-exploration axis (`archsweep`). Each pair has its
    /// own command rings, scratchpad ports and crossbar attachments, and
    /// firmware stripes BD fetches and frame transfers across them
    /// round-robin.
    pub dma_engines: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            cores: 6,
            cpu_mhz: 166,
            banks: 4,
            icache: ICacheConfig::default(),
            mode: FwMode::RmwEnhanced,
            dispatch: DispatchMode::Polling,
            udp_payload: 1472,
            send_enabled: true,
            recv_enabled: true,
            offered_tx_fps: None,
            offered_rx_fps: None,
            faults: None,
            dma_engines: 1,
        }
    }
}

/// Highest clock the picosecond time base resolves, in MHz
/// ([`nicsim_sim::Freq`]'s 1 THz limit): the bound on `cpu_mhz`.
const MAX_CPU_MHZ: u64 = 1_000_000;
/// Largest I-cache `validate` accepts: the 128 KB instruction memory it
/// caches.
const MAX_ICACHE_BYTES: usize = 128 * 1024;

/// Why a [`NicConfig`] was rejected by validation.
///
/// Returned by [`NicConfigBuilder::build`], [`NicConfig::validate`], and
/// the system builder's `finish`.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `cores` was zero — the firmware needs at least one core.
    ZeroCores,
    /// `banks` was zero — the scratchpad crossbar needs at least one bank.
    ZeroBanks,
    /// `udp_payload` was zero — frames carry at least one payload byte.
    ZeroPayload,
    /// `udp_payload` exceeded the 1472-byte maximum that fits a
    /// standard 1518-byte Ethernet frame.
    PayloadTooLarge {
        /// The rejected payload size.
        payload: usize,
    },
    /// `FwMode::Ideal` with more than one core — the idealized firmware
    /// is synchronization-free and therefore single-core by definition.
    IdealMultiCore {
        /// The rejected core count.
        cores: usize,
    },
    /// `cpu_mhz` was zero or above `Freq`'s 1 THz limit.
    BadCpuMhz {
        /// The rejected clock in MHz.
        mhz: u64,
    },
    /// `offered_tx_fps` or `offered_rx_fps` was NaN, infinite, zero or
    /// negative — a frame rate has to be a finite positive number — or
    /// `offered_rx_fps` asked the wire for more frames of the configured
    /// payload than 10 Gb/s carries.
    BadOfferedFps {
        /// Which direction's rate was rejected (`"tx"` or `"rx"`).
        direction: &'static str,
        /// The rejected rate in frames/s.
        fps: f64,
    },
    /// `dma_engines` outside `1..=MAX_DMA_ENGINES`.
    BadDmaEngines {
        /// The rejected engine count.
        engines: usize,
    },
    /// `cores` plus the frame-side units need more crossbar
    /// ports than the arbiter's request mask holds.
    TooManyPorts {
        /// The rejected port count.
        ports: usize,
    },
    /// `cores` above `MAX_CORES`, the most the firmware's per-core
    /// structures (event areas, BD-pool and MAC RX claim slack) hold.
    TooManyCores {
        /// The rejected core count.
        cores: usize,
    },
    /// `icache` does not divide into a whole, nonzero number of sets
    /// (`bytes` a multiple of `ways * line_bytes`, both nonzero), or is
    /// larger than the instruction memory it caches.
    BadICache {
        /// The rejected geometry.
        icache: ICacheConfig,
    },
    /// [`NicConfigBuilder::faults_spec`] could not parse the fault
    /// specification string, or the fault plan holds a value
    /// [`FaultPlan::validate`] rejects.
    FaultSpec(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCores => write!(f, "need at least one core"),
            ConfigError::ZeroBanks => write!(f, "need at least one scratchpad bank"),
            ConfigError::ZeroPayload => write!(f, "UDP payload must be nonzero"),
            ConfigError::PayloadTooLarge { payload } => write!(
                f,
                "UDP payload of {payload} bytes exceeds the 1472-byte Ethernet maximum"
            ),
            ConfigError::IdealMultiCore { cores } => write!(
                f,
                "ideal mode is single-core by definition (got {cores} cores)"
            ),
            ConfigError::BadCpuMhz { mhz } => {
                write!(f, "cpu_mhz must be in 1..={MAX_CPU_MHZ} (got {mhz})")
            }
            ConfigError::BadOfferedFps { direction, fps } => write!(
                f,
                "offered_{direction}_fps must be finite and positive, and rx \
                 at most the line rate (got {fps})"
            ),
            ConfigError::BadDmaEngines { engines } => write!(
                f,
                "dma_engines must be in 1..={MAX_DMA_ENGINES} (got {engines})"
            ),
            ConfigError::TooManyPorts { ports } => write!(
                f,
                "cores plus two ports per DMA engine and MAC must fit the \
                 {MAX_XBAR_PORTS}-port crossbar (got {ports})"
            ),
            ConfigError::TooManyCores { cores } => {
                write!(f, "cores must be in 1..={MAX_CORES} (got {cores})")
            }
            ConfigError::BadICache { icache } => write!(
                f,
                "icache bytes must be in 1..={MAX_ICACHE_BYTES} and a multiple \
                 of ways * line_bytes, both nonzero (got {icache:?})"
            ),
            ConfigError::FaultSpec(msg) => write!(f, "bad fault spec: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`NicConfig`] whose [`build`](NicConfigBuilder::build)
/// validates the configuration instead of letting an inconsistent one
/// surface as an error deep inside the system builder's `finish`.
///
/// ```
/// use nicsim::{ConfigError, NicConfig};
///
/// let cfg = NicConfig::builder().cores(4).cpu_mhz(200).build().unwrap();
/// assert_eq!(cfg.cores, 4);
/// assert_eq!(
///     NicConfig::builder().cores(0).build(),
///     Err(ConfigError::ZeroCores)
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NicConfigBuilder {
    cfg: NicConfig,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            #[must_use]
            pub fn $name(mut self, $name: $ty) -> Self {
                self.cfg.$name = $name;
                self
            }
        )*
    };
}

impl NicConfigBuilder {
    builder_setters! {
        /// Number of processing cores (paper sweeps 1–8).
        cores: usize,
        /// CPU / scratchpad / crossbar clock in MHz.
        cpu_mhz: u64,
        /// Scratchpad banks (paper: 4).
        banks: usize,
        /// Per-core instruction cache geometry.
        icache: ICacheConfig,
        /// Firmware synchronization mode.
        mode: FwMode,
        /// How the dispatch loop waits for work (polling or interrupt).
        dispatch: DispatchMode,
        /// UDP datagram size for both directions (1..=1472).
        udp_payload: usize,
        /// Whether the host transmits.
        send_enabled: bool,
        /// Whether the wire delivers inbound traffic.
        recv_enabled: bool,
        /// Offered transmit load in frames/s (`None` = saturate).
        offered_tx_fps: Option<f64>,
        /// Offered receive load in frames/s (`None` = line rate).
        offered_rx_fps: Option<f64>,
        /// Deterministic fault-injection plan (`None` = clean run).
        faults: Option<FaultPlan>,
        /// Number of DMA engine pairs (`1..=MAX_DMA_ENGINES`).
        dma_engines: usize,
    }

    /// Parse a [`FaultPlan`] spec string (the `--faults` grammar, e.g.
    /// `"seed=7,crc=1e-3,dma=1e-4"`) and install it as the fault plan.
    /// An empty spec installs the all-zero-rates plan, which still
    /// enables the checking/recovery machinery.
    ///
    /// # Errors
    ///
    /// [`ConfigError::FaultSpec`] when the spec does not parse.
    pub fn faults_spec(mut self, spec: &str) -> Result<Self, ConfigError> {
        let plan = FaultPlan::parse(spec).map_err(ConfigError::FaultSpec)?;
        self.cfg.faults = Some(plan);
        Ok(self)
    }

    /// Validate and produce the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn build(self) -> Result<NicConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl NicConfig {
    /// Start building a configuration from the paper's defaults.
    pub fn builder() -> NicConfigBuilder {
        NicConfigBuilder {
            cfg: NicConfig::default(),
        }
    }

    /// Start building from an existing configuration (e.g. a preset).
    pub fn to_builder(self) -> NicConfigBuilder {
        NicConfigBuilder { cfg: self }
    }

    /// Check the configuration's internal consistency.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cores == 0 {
            return Err(ConfigError::ZeroCores);
        }
        if self.banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        if self.udp_payload == 0 {
            return Err(ConfigError::ZeroPayload);
        }
        if self.udp_payload > 1472 {
            return Err(ConfigError::PayloadTooLarge {
                payload: self.udp_payload,
            });
        }
        if self.mode == FwMode::Ideal && self.cores != 1 {
            return Err(ConfigError::IdealMultiCore { cores: self.cores });
        }
        if self.cpu_mhz == 0 || self.cpu_mhz > MAX_CPU_MHZ {
            return Err(ConfigError::BadCpuMhz { mhz: self.cpu_mhz });
        }
        // What `ICacheConfig::sets` and `ICache::new` assume.
        let c = self.icache;
        let set_bytes = c.ways.checked_mul(c.line_bytes).filter(|&b| b > 0);
        let whole_sets = set_bytes.is_some_and(|b| c.bytes.is_multiple_of(b));
        if !(1..=MAX_ICACHE_BYTES).contains(&c.bytes) || !whole_sets {
            return Err(ConfigError::BadICache { icache: c });
        }
        // The wire bounds receive only: a faster send offer just keeps
        // the send window full.
        let rx_max = line_rate_fps(frame_len(self.udp_payload)).ceil();
        for (direction, fps, max) in [
            ("tx", self.offered_tx_fps, f64::MAX),
            ("rx", self.offered_rx_fps, rx_max),
        ] {
            if let Some(fps) = fps.filter(|f| !(*f > 0.0 && *f <= max)) {
                return Err(ConfigError::BadOfferedFps { direction, fps });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate().map_err(ConfigError::FaultSpec)?;
        }
        if self.dma_engines == 0 || self.dma_engines > MAX_DMA_ENGINES {
            return Err(ConfigError::BadDmaEngines {
                engines: self.dma_engines,
            });
        }
        let assist_ports = self.assist_ports();
        if self.cores > MAX_XBAR_PORTS - assist_ports {
            return Err(ConfigError::TooManyPorts {
                ports: self.cores.saturating_add(assist_ports),
            });
        }
        if self.cores > MAX_CORES {
            return Err(ConfigError::TooManyCores { cores: self.cores });
        }
        Ok(())
    }

    /// Crossbar requester ports beside the cores: one per frame-side
    /// scratchpad client.
    fn assist_ports(&self) -> usize {
        2 * self.dma_engines + 2
    }

    /// Total crossbar requester ports (the paper's "P+4 × S+1" switch,
    /// generalized): cores take `0..cores`, then every DMA read engine,
    /// every DMA write engine, MAC TX, MAC RX — 6/7/8/9 of 10 on the
    /// paper's board. This method and the four below are the one
    /// definition of that layout.
    pub fn xbar_ports(&self) -> usize {
        self.cores + self.assist_ports()
    }

    /// Crossbar port of DMA-read engine `k`.
    pub fn dmard_port(&self, k: usize) -> usize {
        self.cores + k
    }

    /// Crossbar port of DMA-write engine `k`.
    pub fn dmawr_port(&self, k: usize) -> usize {
        self.cores + self.dma_engines + k
    }

    /// Crossbar port of MAC TX.
    pub fn mactx_port(&self) -> usize {
        self.cores + 2 * self.dma_engines
    }

    /// Crossbar port of MAC RX.
    pub fn macrx_port(&self) -> usize {
        self.cores + 2 * self.dma_engines + 1
    }

    /// The paper's software-only baseline at 200 MHz.
    pub fn software_only_200() -> NicConfig {
        NicConfig {
            mode: FwMode::SoftwareOnly,
            cpu_mhz: 200,
            ..NicConfig::default()
        }
    }

    /// The paper's RMW-enhanced configuration at 166 MHz.
    pub fn rmw_166() -> NicConfig {
        NicConfig::default()
    }

    /// The idealized single-core configuration used for Table 1.
    pub fn ideal() -> NicConfig {
        NicConfig {
            cores: 1,
            cpu_mhz: 1000,
            mode: FwMode::Ideal,
            ..NicConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline() {
        let c = NicConfig::default();
        assert_eq!(c.cores, 6);
        assert_eq!(c.cpu_mhz, 166);
        assert_eq!(c.banks, 4);
        assert_eq!(c.mode, FwMode::RmwEnhanced);
        assert_eq!(c.udp_payload, 1472);
    }

    #[test]
    fn builder_validates() {
        assert_eq!(
            NicConfig::builder().cores(0).build(),
            Err(ConfigError::ZeroCores)
        );
        assert_eq!(
            NicConfig::builder().banks(0).build(),
            Err(ConfigError::ZeroBanks)
        );
        assert_eq!(
            NicConfig::builder().udp_payload(0).build(),
            Err(ConfigError::ZeroPayload)
        );
        assert_eq!(
            NicConfig::builder().udp_payload(1473).build(),
            Err(ConfigError::PayloadTooLarge { payload: 1473 })
        );
        assert_eq!(
            NicConfig::builder().mode(FwMode::Ideal).cores(2).build(),
            Err(ConfigError::IdealMultiCore { cores: 2 })
        );
        let cfg = NicConfig::builder()
            .cores(2)
            .cpu_mhz(500)
            .udp_payload(256)
            .build()
            .unwrap();
        assert_eq!((cfg.cores, cfg.cpu_mhz, cfg.udp_payload), (2, 500, 256));
    }

    #[test]
    fn presets_validate_and_roundtrip_through_builder() {
        for cfg in [
            NicConfig::default(),
            NicConfig::software_only_200(),
            NicConfig::rmw_166(),
            NicConfig::ideal(),
        ] {
            cfg.validate().unwrap();
            let rebuilt = cfg.to_builder().build().unwrap();
            assert_eq!(rebuilt.cores, cfg.cores);
            assert_eq!(rebuilt.mode, cfg.mode);
        }
    }

    #[test]
    fn dma_engines_builder_and_validation() {
        let cfg = NicConfig::builder().dma_engines(2).build().unwrap();
        assert_eq!(cfg.dma_engines, 2);
        assert_eq!(
            NicConfig::builder().dma_engines(0).build(),
            Err(ConfigError::BadDmaEngines { engines: 0 })
        );
        assert_eq!(
            NicConfig::builder()
                .dma_engines(MAX_DMA_ENGINES + 1)
                .build(),
            Err(ConfigError::BadDmaEngines {
                engines: MAX_DMA_ENGINES + 1
            })
        );
        NicConfig::builder()
            .dma_engines(MAX_DMA_ENGINES)
            .build()
            .unwrap();
    }

    #[test]
    fn legacy_port_assignment_is_preserved() {
        let c = NicConfig::default();
        assert_eq!(c.xbar_ports(), 10);
        assert_eq!(c.dmard_port(0), 6);
        assert_eq!(c.dmawr_port(0), 7);
        assert_eq!(c.mactx_port(), 8);
        assert_eq!(c.macrx_port(), 9);
    }

    /// Every buildable board: the assigned ports are unique and cover
    /// `0..xbar_ports` exactly, cores first, then the assists grouped
    /// by kind (reads, writes, TX, RX).
    #[test]
    fn non_default_topologies_check_out() {
        for cores in 1..=8 {
            for dma_engines in 1..=MAX_DMA_ENGINES {
                let c = NicConfig {
                    cores,
                    dma_engines,
                    ..NicConfig::default()
                };
                let ports: Vec<usize> = (0..cores)
                    .chain((0..dma_engines).map(|k| c.dmard_port(k)))
                    .chain((0..dma_engines).map(|k| c.dmawr_port(k)))
                    .chain([c.mactx_port(), c.macrx_port()])
                    .collect();
                let all: Vec<usize> = (0..c.xbar_ports()).collect();
                assert_eq!(ports, all, "{cores} cores, {dma_engines} DMA engines");
            }
        }
    }

    #[test]
    fn validate_rejects_what_finish_would_panic_on() {
        let b = NicConfig::builder;
        for mhz in [0, 2_000_000] {
            let built = b().cpu_mhz(mhz).build();
            assert_eq!(built, Err(ConfigError::BadCpuMhz { mhz }));
        }
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let tx = b().offered_tx_fps(Some(bad)).build();
            let rx = b().offered_rx_fps(Some(bad)).build();
            for (direction, built) in [("tx", tx), ("rx", rx)] {
                let err = built.unwrap_err();
                assert!(matches!(err, ConfigError::BadOfferedFps { .. }), "{err:?}");
                let named = format!("offered_{direction}_fps");
                assert!(err.to_string().starts_with(&named), "{err}");
            }
        }
        // Receive faster than the wire: impossible goodput, and a zero
        // period (1e13) used to wedge MAC RX's accept loop.
        for (payload, fps) in [(1472, 1e6), (1472, 2e6), (1472, 1e13), (18, 2e7)] {
            let built = b().udp_payload(payload).offered_rx_fps(Some(fps)).build();
            let direction = "rx";
            assert_eq!(built, Err(ConfigError::BadOfferedFps { direction, fps }));
            let err = built.unwrap_err().to_string();
            assert!(err.starts_with("offered_rx_fps"), "{err}");
        }
        b().offered_rx_fps(Some(812_744.0)).build().unwrap();
        b().offered_tx_fps(Some(1e13)).build().unwrap();
    }

    /// The firmware holds 16 cores' in-flight claims and event areas: a
    /// 17th would share core 0's event area.
    #[test]
    fn cores_are_bounded_by_the_firmware() {
        let built = NicConfig::builder().cores(17).build();
        assert_eq!(built, Err(ConfigError::TooManyCores { cores: 17 }));
        assert!(built.unwrap_err().to_string().starts_with("cores"));
        let cfg = NicConfig::builder().cores(16).build().unwrap();
        crate::NicSystem::build(cfg).finish().unwrap();
    }

    #[test]
    fn faults_spec_installs_a_plan() {
        let cfg = NicConfig::builder()
            .faults_spec("seed=7,crc=1e-3,dma=1e-4")
            .unwrap()
            .build()
            .unwrap();
        let plan = cfg.faults.expect("plan installed");
        assert_eq!(plan.seed, 7);
        assert!(matches!(
            NicConfig::builder().faults_spec("crc=notarate"),
            Err(ConfigError::FaultSpec(_))
        ));
    }

    /// The fleet-plane spec keys ride through the builder, and their
    /// parse failures surface as [`ConfigError::FaultSpec`] with the
    /// offending item named in the message.
    #[test]
    fn faults_spec_covers_the_fleet_plane_keys() {
        let cfg = NicConfig::builder()
            .faults_spec("seed=3,fab_crc=1e-3,flap_us=200,squeeze=1e-2,crash_us=500,poison=1e-4,fw=1e-5,stall_alpha=1.2")
            .unwrap()
            .build()
            .unwrap();
        let plan = cfg.faults.expect("plan installed");
        assert_eq!(plan.fabric_corrupt, 1e-3);
        assert_eq!(plan.crash_period_us, 500);
        assert_eq!(plan.stall_alpha, 1.2);
        for (spec, needle) in [
            ("fab_crc=2.0", "fab_crc"),
            ("squeeze=-0.5", "squeeze"),
            ("stall_alpha=-1", "stall_alpha"),
            ("crash_us=soon", "crash_us"),
        ] {
            let err = NicConfig::builder().faults_spec(spec).unwrap_err();
            let ConfigError::FaultSpec(msg) = err else {
                panic!("{spec}: wrong error variant");
            };
            assert!(
                msg.contains(needle),
                "{spec}: message {msg:?} does not name the bad item"
            );
        }
    }

    /// A plan written as a struct literal never went through
    /// `FaultPlan::parse`; `validate` is what stands between it and a
    /// `draw_command` that never returns.
    #[test]
    fn validate_rejects_a_wedging_fault_plan_literal() {
        for (plan, key) in [
            (
                FaultPlan {
                    dma_error: 1.0,
                    max_retries: u32::MAX,
                    ..FaultPlan::default()
                },
                "retries",
            ),
            (
                FaultPlan {
                    hang_period_us: u64::MAX,
                    ..FaultPlan::default()
                },
                "hang_us",
            ),
            (
                FaultPlan {
                    stall_alpha: f64::NAN,
                    ..FaultPlan::default()
                },
                "stall_alpha",
            ),
        ] {
            let cfg = NicConfig {
                faults: Some(plan),
                ..NicConfig::default()
            };
            match cfg.validate() {
                Err(ConfigError::FaultSpec(msg)) => assert!(msg.starts_with(key), "{msg}"),
                other => panic!("{key}: expected a FaultSpec error, got {other:?}"),
            }
        }
    }

    #[test]
    fn presets_differ_in_mode_and_clock() {
        let sw = NicConfig::software_only_200();
        assert_eq!(sw.mode, FwMode::SoftwareOnly);
        assert_eq!(sw.cpu_mhz, 200);
        let ideal = NicConfig::ideal();
        assert_eq!(ideal.cores, 1);
        assert_eq!(ideal.mode, FwMode::Ideal);
    }
}
