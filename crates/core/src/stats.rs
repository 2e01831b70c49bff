//! Aggregated run statistics: everything the paper's tables and figures
//! are built from.
//!
//! Downstream code should prefer the versioned snapshot surface —
//! [`RunStats::summary`] and the derived-metric accessors — over direct
//! field access: the summary enumerates every scalar metric with a
//! stable name and order (the `nicsim-exp/v1` key order), so writers
//! and dashboards keep working when fields are added.

use nicsim_cpu::{CoreProfile, FwFunc, StallBucket};
use nicsim_fault::ErrorStats;
use nicsim_sim::Ps;

/// Version of the [`RunStats::summary`] field list. Bumped whenever a
/// field is added, removed, renamed, or reordered.
pub const SUMMARY_VERSION: u32 = 1;

/// One scalar statistic value, preserving whether the source field is
/// an exact counter or a derived rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StatValue {
    /// An exact integer counter (frame counts, accesses, picoseconds).
    Int(u64),
    /// A derived floating-point rate or ratio.
    Float(f64),
}

impl StatValue {
    /// The value as `f64` (counters convert losslessly up to 2^53 —
    /// far beyond any window's counts).
    pub fn as_f64(self) -> f64 {
        match self {
            StatValue::Int(v) => v as f64,
            StatValue::Float(v) => v,
        }
    }

    /// The value as an integer counter, if it is one.
    pub fn as_int(self) -> Option<u64> {
        match self {
            StatValue::Int(v) => Some(v),
            StatValue::Float(_) => None,
        }
    }
}

/// Statistics collected over one measurement window.
///
/// `PartialEq` compares every field (including the derived-rate `f64`s,
/// which are exact functions of the integer counters and the window):
/// the dense-vs-event kernel equivalence tests assert bit-identical
/// stats with it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Window length.
    pub window: Ps,
    /// Number of cores.
    pub cores: usize,
    /// CPU frequency in MHz.
    pub cpu_mhz: u64,
    /// Frames transmitted (validated at the wire).
    pub tx_frames: u64,
    /// Frames received by the driver (validated end-to-end).
    pub rx_frames: u64,
    /// Transmit UDP payload throughput, Gb/s.
    pub tx_udp_gbps: f64,
    /// Receive UDP payload throughput, Gb/s.
    pub rx_udp_gbps: f64,
    /// Frames the MAC RX dropped (receiver overrun).
    pub rx_mac_drops: u64,
    /// Transmit frames that failed validation or arrived out of order.
    pub tx_errors: u64,
    /// Receive frames that failed validation.
    pub rx_corrupt: u64,
    /// Receive frames delivered out of order (must be 0).
    pub rx_out_of_order: u64,
    /// Merged per-function profile across all cores.
    pub profile: CoreProfile,
    /// CPU cycles in the window; every core is charged for each.
    pub core_ticks: u64,
    /// Scratchpad accesses by the cores.
    pub core_sp_accesses: u64,
    /// Scratchpad accesses by the assists.
    pub assist_sp_accesses: u64,
    /// Scratchpad bandwidth consumed, Gb/s (grants * 4 bytes / window).
    pub scratchpad_gbps: f64,
    /// Instruction-memory bandwidth consumed, Gb/s.
    pub instr_mem_gbps: f64,
    /// Instruction-memory interface utilization (0..1).
    pub instr_mem_utilization: f64,
    /// Frame-memory bandwidth consumed (including alignment padding),
    /// Gb/s.
    pub frame_mem_gbps: f64,
    /// Frame-memory bytes lost to 8-byte misalignment.
    pub frame_mem_wasted_bytes: u64,
    /// Mean frame-memory burst latency.
    pub frame_mem_mean_latency: Ps,
    /// Max frame-memory burst latency.
    pub frame_mem_max_latency: Ps,
    /// I-cache hits across cores.
    pub icache_hits: u64,
    /// I-cache misses across cores.
    pub icache_misses: u64,
    /// Fault-injection and recovery counters — `Some` exactly when the
    /// run had a [`nicsim_fault::FaultPlan`] configured. Clean runs
    /// report `None`, keeping their summary byte-identical to builds
    /// without the fault plane.
    pub errors: Option<ErrorStats>,
}

impl RunStats {
    /// Every scalar statistic as `(name, value)` pairs, in the
    /// `nicsim-exp/v1` schema's key order (see [`SUMMARY_VERSION`]).
    /// The two structured members — the per-bucket IPC breakdown and
    /// the per-function profile — are exposed through
    /// [`RunStats::stall_shares`] and [`RunStats::profile`] instead.
    ///
    /// This is the supported way to enumerate statistics without
    /// hard-coding field names; serializers should iterate this list
    /// rather than reaching into fields.
    pub fn summary(&self) -> Vec<(&'static str, StatValue)> {
        use StatValue::{Float, Int};
        let mut rows = vec![
            ("window_ps", Int(self.window.0)),
            ("cores", Int(self.cores as u64)),
            ("cpu_mhz", Int(self.cpu_mhz)),
            ("tx_frames", Int(self.tx_frames)),
            ("rx_frames", Int(self.rx_frames)),
            ("tx_udp_gbps", Float(self.tx_udp_gbps)),
            ("rx_udp_gbps", Float(self.rx_udp_gbps)),
            ("total_udp_gbps", Float(self.total_udp_gbps())),
            ("total_fps", Float(self.total_fps())),
            ("rx_mac_drops", Int(self.rx_mac_drops)),
            ("tx_errors", Int(self.tx_errors)),
            ("rx_corrupt", Int(self.rx_corrupt)),
            ("rx_out_of_order", Int(self.rx_out_of_order)),
            ("ipc", Float(self.ipc())),
            ("core_ticks", Int(self.core_ticks)),
            ("core_sp_accesses", Int(self.core_sp_accesses)),
            ("assist_sp_accesses", Int(self.assist_sp_accesses)),
            ("scratchpad_gbps", Float(self.scratchpad_gbps)),
            ("instr_mem_gbps", Float(self.instr_mem_gbps)),
            ("instr_mem_utilization", Float(self.instr_mem_utilization)),
            ("frame_mem_gbps", Float(self.frame_mem_gbps)),
            ("frame_mem_wasted_bytes", Int(self.frame_mem_wasted_bytes)),
            (
                "frame_mem_mean_latency_ps",
                Int(self.frame_mem_mean_latency.0),
            ),
            (
                "frame_mem_max_latency_ps",
                Int(self.frame_mem_max_latency.0),
            ),
            ("icache_hits", Int(self.icache_hits)),
            ("icache_misses", Int(self.icache_misses)),
        ];
        // The err_* rows appear only under a fault plan, so clean runs
        // keep the exact `nicsim-exp/v1` field list of prior builds.
        if let Some(e) = self.errors {
            rows.extend(e.summary().into_iter().map(|(n, v)| (n, Int(v))));
        }
        rows
    }

    /// Per-stall-bucket IPC contributions as `(label, share)` pairs, in
    /// the schema's `ipc_breakdown` key order. Shares sum to 1.0 when
    /// cores never halt.
    pub fn stall_shares(&self) -> Vec<(&'static str, f64)> {
        StallBucket::ALL
            .into_iter()
            .map(|b| (b.label(), self.ipc_contribution(b)))
            .collect()
    }

    /// Total full-duplex UDP payload throughput, Gb/s.
    pub fn total_udp_gbps(&self) -> f64 {
        self.tx_udp_gbps + self.rx_udp_gbps
    }

    /// Total frames per second processed (both directions).
    pub fn total_fps(&self) -> f64 {
        (self.tx_frames + self.rx_frames) as f64 / self.window.as_secs_f64()
    }

    /// Average per-core IPC contribution of one stall bucket — the rows
    /// of Table 3 (they sum to 1.0 when cores never halt).
    pub fn ipc_contribution(&self, bucket: StallBucket) -> f64 {
        let total = self.core_ticks * self.cores as u64;
        if total == 0 {
            return 0.0;
        }
        self.profile.bucket_cycles(bucket) as f64 / total as f64
    }

    /// Achieved instructions per cycle per core.
    pub fn ipc(&self) -> f64 {
        let total = self.core_ticks * self.cores as u64;
        if total == 0 {
            return 0.0;
        }
        self.profile.total(|p| p.instructions) as f64 / total as f64
    }

    /// `count` per frame of `func`'s own direction: transmitted frames
    /// for the send-side functions, received frames for the rest.
    fn per_frame(&self, func: FwFunc, count: u64) -> f64 {
        let frames = if func.is_send() {
            self.tx_frames
        } else {
            self.rx_frames
        };
        if frames == 0 {
            return 0.0;
        }
        count as f64 / frames as f64
    }

    /// Instructions per frame charged to `func` (Tables 1 and 5).
    pub fn instr_per_frame(&self, func: FwFunc) -> f64 {
        self.per_frame(func, self.profile.func(func).instructions)
    }

    /// Memory accesses per frame charged to `func`.
    pub fn accesses_per_frame(&self, func: FwFunc) -> f64 {
        self.per_frame(func, self.profile.func(func).mem_accesses)
    }

    /// Cycles per frame charged to `func` (Table 6).
    pub fn cycles_per_frame(&self, func: FwFunc) -> f64 {
        self.per_frame(func, self.profile.func(func).total_cycles())
    }

    /// Panic if any frame was corrupted, reordered, or spuriously
    /// errored — the end-to-end correctness contract.
    ///
    /// # Panics
    ///
    /// Panics when validation failed anywhere in the run.
    pub fn assert_clean(&self) {
        assert_eq!(self.tx_errors, 0, "transmit-side validation failures");
        assert_eq!(self.rx_corrupt, 0, "corrupt frames reached the driver");
        assert_eq!(
            self.rx_out_of_order, 0,
            "in-order delivery violated (paper §3.3 requires it)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunStats {
        RunStats {
            window: Ps(1_000_000),
            cores: 6,
            cpu_mhz: 166,
            tx_frames: 100,
            rx_frames: 200,
            tx_udp_gbps: 3.5,
            rx_udp_gbps: 4.5,
            rx_mac_drops: 1,
            tx_errors: 0,
            rx_corrupt: 0,
            rx_out_of_order: 0,
            profile: CoreProfile::new(),
            core_ticks: 1000,
            core_sp_accesses: 42,
            assist_sp_accesses: 24,
            scratchpad_gbps: 1.25,
            instr_mem_gbps: 0.5,
            instr_mem_utilization: 0.1,
            frame_mem_gbps: 9.0,
            frame_mem_wasted_bytes: 8,
            frame_mem_mean_latency: Ps(123),
            frame_mem_max_latency: Ps(456),
            icache_hits: 900,
            icache_misses: 100,
            errors: None,
        }
    }

    /// Pins the `nicsim-exp/v1` scalar field list: name set, order, and
    /// Int/Float classification (see [`SUMMARY_VERSION`]).
    #[test]
    fn summary_order_and_values_are_stable() {
        let s = sample();
        let fields = s.summary();
        let names: Vec<&str> = fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "window_ps",
                "cores",
                "cpu_mhz",
                "tx_frames",
                "rx_frames",
                "tx_udp_gbps",
                "rx_udp_gbps",
                "total_udp_gbps",
                "total_fps",
                "rx_mac_drops",
                "tx_errors",
                "rx_corrupt",
                "rx_out_of_order",
                "ipc",
                "core_ticks",
                "core_sp_accesses",
                "assist_sp_accesses",
                "scratchpad_gbps",
                "instr_mem_gbps",
                "instr_mem_utilization",
                "frame_mem_gbps",
                "frame_mem_wasted_bytes",
                "frame_mem_mean_latency_ps",
                "frame_mem_max_latency_ps",
                "icache_hits",
                "icache_misses",
            ]
        );
        let get = |name: &str| {
            fields
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("tx_frames"), StatValue::Int(100));
        assert_eq!(get("total_udp_gbps"), StatValue::Float(8.0));
        assert_eq!(get("frame_mem_mean_latency_ps"), StatValue::Int(123));
        assert_eq!(get("window_ps").as_f64(), 1e6);
        assert_eq!(get("cores").as_int(), Some(6));
        assert_eq!(get("ipc").as_int(), None);
        assert_eq!(SUMMARY_VERSION, 1);
    }

    /// Under a fault plan the 19 `err_*` rows are appended after the
    /// clean-run field list, in `ErrorStats::summary()` order (the six
    /// fleet-plane rows extend the original 13 at the end, so existing
    /// row positions are stable).
    #[test]
    fn summary_appends_error_rows_only_under_a_plan() {
        let clean = sample();
        let mut faulted = sample();
        faulted.errors = Some(ErrorStats {
            crc_dropped: 7,
            tx_retries: 2,
            tx_retransmits: 4,
            ..ErrorStats::default()
        });
        let base = clean.summary();
        let rows = faulted.summary();
        assert_eq!(rows.len(), base.len() + 19);
        assert_eq!(rows[..base.len()], base[..]);
        assert_eq!(rows[base.len() + 2], ("err_crc_dropped", StatValue::Int(7)));
        assert_eq!(rows[base.len() + 11], ("err_tx_retries", StatValue::Int(2)));
        assert_eq!(
            rows[base.len() + 17],
            ("err_tx_retransmits", StatValue::Int(4))
        );
    }

    #[test]
    fn stall_shares_cover_all_buckets() {
        let s = sample();
        let shares = s.stall_shares();
        assert_eq!(shares.len(), StallBucket::ALL.len());
        for (label, share) in shares {
            assert!(!label.is_empty());
            assert_eq!(share, 0.0, "empty profile has no cycles");
        }
    }
}
