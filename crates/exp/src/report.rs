//! Structured results: one run's config + stats + wall-clock, a whole
//! sweep's report, and their stable JSON schema (`nicsim-exp/v1`).
//!
//! The schema is documented in the repository's `EXPERIMENTS.md`; the
//! golden/round-trip tests in this module pin it. Every numeric field
//! is serialized with shortest-roundtrip formatting, so two reports
//! built from bit-identical `RunStats` produce byte-identical JSON.

use crate::json::Json;
use nicsim::{FwMode, NicConfig, RunStats, StatValue};
use nicsim_cpu::FwFunc;
use std::time::Duration;

/// Version tag written into every results file.
pub const SCHEMA: &str = "nicsim-exp/v1";

/// The result of one simulated run: the configuration that produced
/// it, the measured statistics, and the host wall-clock cost.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Run label (`"axis=value,..."` within a sweep).
    pub label: String,
    /// `(axis name, point label)` coordinates within the sweep.
    pub axes: Vec<(String, String)>,
    /// The configuration simulated.
    pub config: NicConfig,
    /// Statistics of the measurement window.
    pub stats: RunStats,
    /// Per-frame latency stage breakdown, when the run was observed
    /// with a [`nicsim::FrameTracker`] probe (see
    /// [`latency_to_json`]); serialized under `"latency"` only when
    /// present, so unobserved runs keep their exact schema.
    pub latency: Option<Json>,
    /// Host wall-clock time the run took.
    pub wall: Duration,
}

impl RunReport {
    /// The run as a `nicsim-exp/v1` JSON object.
    pub fn to_json(&self) -> Json {
        let mut axes = Json::obj();
        for (name, value) in &self.axes {
            axes.set(name, value.as_str());
        }
        let mut doc = Json::obj()
            .with("label", self.label.as_str())
            .with("axes", axes)
            .with("config", config_to_json(&self.config))
            .with("stats", stats_to_json(&self.stats));
        if let Some(latency) = &self.latency {
            doc.set("latency", latency.clone());
        }
        doc.with("wall_s", self.wall.as_secs_f64())
    }
}

/// A [`nicsim::LatencySummary`] as a `nicsim-exp/v1` JSON object: frame
/// counts plus per-stage count/mean/p50/p99/max in picoseconds, for the
/// transmit and receive paths.
pub fn latency_to_json(summary: &nicsim::LatencySummary) -> Json {
    fn stages(list: &[nicsim::StageStats]) -> Json {
        let mut obj = Json::obj();
        for s in list {
            obj.set(
                s.name,
                Json::obj()
                    .with("count", s.count)
                    .with("mean_ps", s.mean_ps)
                    .with("p50_ps", s.p50_ps)
                    .with("p99_ps", s.p99_ps)
                    .with("max_ps", s.max_ps),
            );
        }
        obj
    }
    Json::obj()
        .with("tx_frames", summary.tx_frames)
        .with("rx_frames", summary.rx_frames)
        .with("tx_stages", stages(&summary.tx_stages))
        .with("rx_stages", stages(&summary.rx_stages))
}

/// The result of a whole experiment: every run plus methodology
/// metadata, writable as `results/<experiment>.json`.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Experiment name (the results file stem).
    pub experiment: String,
    /// Worker threads the sweep ran with.
    pub jobs: usize,
    /// Warm-up window, milliseconds of simulated time.
    pub warmup_ms: u64,
    /// Measurement window, milliseconds of simulated time.
    pub window_ms: u64,
    /// All runs, in declaration order (independent of execution order).
    pub runs: Vec<RunReport>,
    /// Wall-clock time of the whole experiment.
    pub wall: Duration,
    /// Experiment-specific derived data (e.g. a post-processed cache
    /// sweep), appended verbatim under `"extra"`.
    pub extra: Option<Json>,
}

impl SweepReport {
    /// The report as a `nicsim-exp/v1` JSON object. `git` is the
    /// source revision (see [`crate::git_describe`]).
    pub fn to_json(&self, git: Option<&str>) -> Json {
        let mut doc = Json::obj()
            .with("schema", SCHEMA)
            .with("experiment", self.experiment.as_str())
            .with("git", git)
            .with("jobs", self.jobs)
            .with("warmup_ms", self.warmup_ms)
            .with("window_ms", self.window_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with(
                "runs",
                Json::Arr(self.runs.iter().map(RunReport::to_json).collect()),
            );
        if let Some(extra) = &self.extra {
            doc.set("extra", extra.clone());
        }
        doc
    }
}

/// `FwMode` as its schema string.
pub fn mode_str(mode: FwMode) -> &'static str {
    match mode {
        FwMode::Ideal => "ideal",
        FwMode::SoftwareOnly => "software-only",
        FwMode::RmwEnhanced => "rmw-enhanced",
    }
}

/// A [`NicConfig`] as a `nicsim-exp/v1` JSON object, carrying the full
/// resolved configuration — including the frame side's
/// `"topology": {"dma_engines": N}` — so every result row can be rebuilt
/// and re-run exactly (see [`config_from_json`]). The `"faults"` key
/// (the fault plan's spec string) appears only when a plan is
/// configured, and the `"dispatch"` key only under interrupt dispatch,
/// so pre-existing reports keep their exact schema.
pub fn config_to_json(cfg: &NicConfig) -> Json {
    let mut doc = Json::obj()
        .with("cores", cfg.cores)
        .with("cpu_mhz", cfg.cpu_mhz)
        .with("banks", cfg.banks)
        .with(
            "icache",
            Json::obj()
                .with("bytes", cfg.icache.bytes)
                .with("ways", cfg.icache.ways)
                .with("line_bytes", cfg.icache.line_bytes),
        )
        .with("mode", mode_str(cfg.mode))
        .with("udp_payload", cfg.udp_payload)
        .with("send_enabled", cfg.send_enabled)
        .with("recv_enabled", cfg.recv_enabled)
        .with("offered_tx_fps", cfg.offered_tx_fps)
        .with("offered_rx_fps", cfg.offered_rx_fps)
        .with("topology", Json::obj().with("dma_engines", cfg.dma_engines));
    if let Some(plan) = &cfg.faults {
        doc.set("faults", plan.spec().as_str());
    }
    if cfg.dispatch == nicsim::DispatchMode::Interrupt {
        doc.set("dispatch", "interrupt");
    }
    doc
}

/// Rebuild a [`NicConfig`] from its `nicsim-exp/v1` JSON object — the
/// inverse of [`config_to_json`]. Goes through
/// [`NicConfig::builder`], so a reconstructed configuration is always
/// validated; any missing key, malformed value, or invalid combination
/// is reported as an error string, and so is a key for a setting that
/// became a constant (`scratchpad_bytes`, `frame_memory`,
/// `driver_interval`): the file may describe a board this build does
/// not simulate. The retired `capture_ilp` switch is refused the same
/// way: an op trace is a probe sink now, not part of the NIC.
pub fn config_from_json(doc: &Json) -> Result<NicConfig, String> {
    fn int<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<T, String> {
        let v = doc
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing numeric config key `{key}`"))?;
        // Integers up to 2^53 are exact in the parser's f64; anything
        // else, or a value the field's type cannot hold, would be
        // silently coerced by a cast.
        let whole = (0.0..=9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0;
        whole
            .then(|| T::try_from(v as u64).ok())
            .flatten()
            .ok_or_else(|| format!("config key `{key}` must be an integer in range (got {v})"))
    }
    fn flag(doc: &Json, key: &str) -> Result<bool, String> {
        match doc.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean config key `{key}`")),
        }
    }
    fn rate(doc: &Json, key: &str) -> Result<Option<f64>, String> {
        match doc.get(key) {
            Some(Json::Null) => Ok(None),
            Some(Json::Num(v)) => Ok(Some(*v)),
            _ => Err(format!("config key `{key}` must be a number or null")),
        }
    }
    for (key, why) in [
        ("scratchpad_bytes", "the paper's value is built in"),
        ("frame_memory", "the paper's value is built in"),
        ("driver_interval", "the paper's value is built in"),
        ("capture_ilp", "attach a probe that reads Event::OpTaken"),
    ] {
        if doc.get(key).is_some() {
            return Err(format!("config key `{key}` is no longer a setting: {why}"));
        }
    }
    let icache = doc.get("icache").ok_or("missing `icache` object")?;
    let mode = match doc.get("mode").and_then(Json::as_str) {
        Some("ideal") => FwMode::Ideal,
        Some("software-only") => FwMode::SoftwareOnly,
        Some("rmw-enhanced") => FwMode::RmwEnhanced,
        other => return Err(format!("unknown firmware mode {other:?}")),
    };
    let mut b = NicConfig::builder()
        .cores(int(doc, "cores")?)
        .cpu_mhz(int(doc, "cpu_mhz")?)
        .banks(int(doc, "banks")?)
        .icache(nicsim_mem::ICacheConfig {
            bytes: int(icache, "bytes")?,
            ways: int(icache, "ways")?,
            line_bytes: int(icache, "line_bytes")?,
        })
        .mode(mode)
        .udp_payload(int(doc, "udp_payload")?)
        .send_enabled(flag(doc, "send_enabled")?)
        .recv_enabled(flag(doc, "recv_enabled")?)
        .offered_tx_fps(rate(doc, "offered_tx_fps")?)
        .offered_rx_fps(rate(doc, "offered_rx_fps")?);
    if let Some(t) = doc.get("topology") {
        b = b.dma_engines(int(t, "dma_engines")?);
        // Files written while the MAC count was an axis carry `"macs": 1`.
        if t.get("macs").is_some() && int::<u64>(t, "macs")? != 1 {
            return Err("config key `macs`: the NIC has one MAC, only 1 loads".into());
        }
    }
    if let Some(spec) = doc.get("faults").and_then(Json::as_str) {
        b = b.faults_spec(spec).map_err(|e| e.to_string())?;
    }
    if doc.get("dispatch").and_then(Json::as_str) == Some("interrupt") {
        b = b.dispatch(nicsim::DispatchMode::Interrupt);
    }
    b.build().map_err(|e| e.to_string())
}

/// A [`RunStats`] as a `nicsim-exp/v1` JSON object.
///
/// Scalar fields come from [`RunStats::summary`] — names, order, and
/// values are whatever that versioned surface reports — with the two
/// structured members spliced in at their schema positions: the
/// per-bucket IPC breakdown right after `ipc`, the per-function
/// profile last.
pub fn stats_to_json(s: &RunStats) -> Json {
    let mut breakdown = Json::obj();
    for (label, share) in s.stall_shares() {
        breakdown.set(label, share);
    }
    let mut profile = Json::obj();
    for f in FwFunc::ALL {
        let p = s.profile.func(f);
        profile.set(
            f.label(),
            Json::obj()
                .with("instructions", p.instructions)
                .with("mem_accesses", p.mem_accesses)
                .with("cycles", p.cycles.to_vec()),
        );
    }
    let mut doc = Json::obj();
    for (name, value) in s.summary() {
        match value {
            StatValue::Int(v) => doc.set(name, v),
            StatValue::Float(v) => doc.set(name, v),
        };
        if name == "ipc" {
            doc.set("ipc_breakdown", breakdown.clone());
        }
    }
    doc.with("profile", profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn config_json_roundtrips_and_keeps_schema_keys() {
        let cfg = NicConfig::software_only_200();
        let doc = config_to_json(&cfg);
        let back = parse(&doc.pretty()).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("mode").unwrap().as_str(), Some("software-only"));
        assert_eq!(back.get("cpu_mhz").unwrap().as_f64(), Some(200.0));
        assert_eq!(
            back.get("icache").unwrap().get("bytes").unwrap().as_f64(),
            Some(8192.0)
        );
        assert_eq!(back.get("offered_tx_fps"), Some(&Json::Null));
        assert_eq!(back.get("faults"), None, "clean configs carry no key");
        assert_eq!(back.get("dispatch"), None, "polling configs carry no key");
    }

    #[test]
    fn interrupt_dispatch_serializes_its_key() {
        use nicsim::DispatchMode;
        let cfg = NicConfig::builder()
            .dispatch(DispatchMode::Interrupt)
            .build()
            .unwrap();
        let doc = config_to_json(&cfg);
        assert_eq!(doc.get("dispatch").unwrap().as_str(), Some("interrupt"));
    }

    #[test]
    fn fault_plan_serializes_as_its_spec_string() {
        use nicsim::FaultPlan;
        let plan = FaultPlan::with_rate(7, 1e-4);
        let cfg = NicConfig::builder().faults(Some(plan)).build().unwrap();
        let doc = config_to_json(&cfg);
        let spec = doc.get("faults").unwrap().as_str().unwrap();
        assert_eq!(FaultPlan::parse(spec), Ok(plan), "spec must round-trip");
    }

    #[test]
    fn config_round_trips_through_from_json() {
        use nicsim::{DispatchMode, FaultPlan};
        // Default configuration: every field recovered exactly.
        let default = NicConfig::default();
        assert_eq!(
            config_from_json(&config_to_json(&default)),
            Ok(default),
            "default config must round-trip"
        );
        // A maximally non-default configuration, topology included.
        let cfg = NicConfig::builder()
            .cores(4)
            .cpu_mhz(200)
            .banks(8)
            .udp_payload(512)
            .mode(FwMode::SoftwareOnly)
            .dispatch(DispatchMode::Interrupt)
            .offered_tx_fps(Some(250_000.0))
            .faults(Some(FaultPlan::with_rate(7, 1e-4)))
            .dma_engines(2)
            .build()
            .unwrap();
        let doc = config_to_json(&cfg);
        assert_eq!(
            doc.get("topology")
                .and_then(|t| t.get("dma_engines"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
        assert_eq!(config_from_json(&doc), Ok(cfg), "sweep config round-trip");
        // A mangled document fails loudly instead of defaulting.
        let broken = Json::obj().with("mode", "no-such-mode");
        assert!(config_from_json(&broken).is_err());
    }

    /// Numbers a cast would coerce (negative, fractional, infinite, past
    /// 2^53), a rate that is neither a number nor null (or missing), the
    /// deleted MAC-count axis and the settings that became constants:
    /// each is an error naming the key, never a different configuration.
    #[test]
    fn config_from_json_rejects_coercible_numbers_and_extra_macs() {
        let text = config_to_json(&NicConfig::default()).compact();
        let load = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} not in {text}");
            config_from_json(&Json::parse(&text.replace(from, to)).unwrap())
        };
        let tx = "\"offered_tx_fps\":null";
        for (from, to, key) in [
            ("\"udp_payload\":1472", "\"udp_payload\":-1", "udp_payload"),
            ("\"cores\":6", "\"cores\":2.9", "cores"),
            ("\"cores\":6", "\"cores\":1e999", "cores"),
            ("\"cpu_mhz\":166", "\"cpu_mhz\":9007199254740994", "cpu_mhz"),
            (tx, "\"offered_tx_fps\":\"2e4\"", "offered_tx_fps"),
            (tx, "\"offered_tx_fps\":false", "offered_tx_fps"),
            (tx, "\"no_offered_tx_fps\":null", "offered_tx_fps"),
            (
                "\"offered_rx_fps\":null",
                "\"offered_rx_fps\":[]",
                "offered_rx_fps",
            ),
            ("\"dma_engines\":1", "\"dma_engines\":1,\"macs\":2", "macs"),
            (
                "\"cores\":6",
                "\"cores\":6,\"scratchpad_bytes\":262144",
                "scratchpad_bytes",
            ),
            (
                "\"cores\":6",
                "\"cores\":6,\"frame_memory\":{}",
                "frame_memory",
            ),
            (
                "\"cores\":6",
                "\"cores\":6,\"driver_interval\":16",
                "driver_interval",
            ),
            (
                "\"cores\":6",
                "\"cores\":6,\"capture_ilp\":true",
                "capture_ilp",
            ),
        ] {
            let err = load(from, to).expect_err(to);
            assert!(err.contains(&format!("`{key}`")), "{to}: {err}");
        }
        let old_file = load("\"dma_engines\":1", "\"dma_engines\":1,\"macs\":1");
        assert_eq!(old_file, Ok(NicConfig::default()));
    }

    /// A cache geometry `ICacheConfig::sets` panics on used to load
    /// `Ok`.
    #[test]
    fn config_from_json_rejects_what_used_to_panic() {
        let text = config_to_json(&NicConfig::default()).compact();
        let (from, to) = ("\"ways\":2", "\"ways\":0");
        assert!(text.contains(from), "{from} not in {text}");
        let err = config_from_json(&Json::parse(&text.replace(from, to)).unwrap()).expect_err(to);
        assert!(err.contains("icache"), "{to}: {err}");
    }

    #[test]
    fn mode_strings_are_stable() {
        assert_eq!(mode_str(FwMode::Ideal), "ideal");
        assert_eq!(mode_str(FwMode::SoftwareOnly), "software-only");
        assert_eq!(mode_str(FwMode::RmwEnhanced), "rmw-enhanced");
    }
}
