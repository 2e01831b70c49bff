//! The benchmark's contract as data: workload names with the reason
//! each was chosen, and every metric with its unit and direction.
//! `BENCHMARK.json` at the repository root is the published copy; a
//! unit test keeps the two identical.

use nicsim_exp::Json;

/// How long one run of one workload measures, in seconds.
pub const RUN_SECONDS: u64 = 16;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "nic6_sat_1472",
        why: "Paper's headline point: 6 cores at 166 MHz, duplex 1472-byte UDP at line rate. Nothing idles, so host time is per-stepped-cycle cost of cpu, mem and assists. No random input: seed unused.",
    },
    WorkloadSpec {
        name: "nic6_sat_18",
        why: "Same NIC with 18-byte UDP (64-byte frames): per-frame work (firmware, descriptors, mailbox, MAC RX overruns) with almost no per-byte work. No random input: seed unused.",
    },
    WorkloadSpec {
        name: "nic1_rx20k_irq",
        why: "1 core, 200 MHz, software firmware, interrupt dispatch, 20k fps receive only: ~91% of cycles skipped, so host time is the event kernel's wake lookahead and skip path. Seed unused.",
    },
    WorkloadSpec {
        name: "fleet8_uniform",
        why: "8 default NICs through the fabric, uniform 1472-byte CBR 100 kfps each, one shard: the fleet epoch loop, exchange, Fabric::offer and per-NIC FrameTracker. Seed picks destinations.",
    },
    WorkloadSpec {
        name: "fleet8_faulted",
        why: "Same fleet under every fault class with reliable delivery: unacked tracking, dedup, FCS on each carried frame, crash and rebuild. Seed feeds the workload and the fault plan.",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's value by which the metric may worsen
    /// before it counts as a regression (the `BENCHMARK.json` bound).
    /// For the simulated-time metrics it has to cover the seed-to-seed
    /// spread of the fleet workloads; `compare` is stricter (`exact`).
    pub bound: f64,
    /// Simulated time, not host time: a deterministic function of the
    /// inputs, so two runs at the same seed must agree to the last bit.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "sim_mcps",
        unit: "Mcycles/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "host_us_per_frame",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
    EndToEnd {
        name: "sim_udp_gbps",
        unit: "Gb/s",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "goodput_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
    EndToEnd {
        name: "frames_ok_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.10,
        exact: true,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn pl(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics, grouped by the crate they attribute to. What
/// each should move, and on which workload, is tabulated in
/// `perf/README.md`.
pub const PER_LAYER: [PerLayer; 64] = [
    // Event kernel, from spans around the public NicSystem calls.
    pl("core.host_ns_per_stepped_cycle", "ns", Lower),
    pl("core.host_ns_per_skipped_cycle", "ns", Lower),
    pl("sim.skipped_frac", "ratio", Higher),
    pl("sim.skip_spans", "count", Higher),
    pl("core.slice_ms_p50", "ms", Lower),
    pl("core.slice_ms_p90", "ms", Lower),
    pl("core.warmup_s", "s", Lower),
    pl("core.build_s", "s", Lower),
    pl("core.collect_s", "s", Lower),
    // Simulated cores (simulated time: exact for a simulator-only PR).
    pl("cpu.ipc", "ipc", Higher),
    pl("cpu.stall.load_frac", "ratio", Lower),
    pl("cpu.stall.sp_conflict_frac", "ratio", Lower),
    pl("cpu.stall.imiss_frac", "ratio", Lower),
    pl("cpu.stall.pipeline_frac", "ratio", Lower),
    pl("cpu.icache_hit_rate", "ratio", Higher),
    pl("cpu.instr_per_frame", "count", Lower),
    pl("firmware.cycles_per_frame.send", "cycles", Lower),
    pl("firmware.cycles_per_frame.recv", "cycles", Lower),
    pl("firmware.ordering_cycles_per_frame", "cycles", Lower),
    pl("firmware.handler_enters_per_frame", "count", Lower),
    pl("mem.xbar.grants_per_cycle", "count", Higher),
    pl("mem.xbar.conflict_frac", "ratio", Lower),
    pl("mem.sdram.gbps", "Gb/s", Higher),
    pl("mem.sdram.mean_latency_ns", "ns", Lower),
    pl("mem.sdram.wasted_frac", "ratio", Lower),
    pl("mem.sdram.bursts_per_frame", "count", Lower),
    pl("assists.dma_rd.depth_mean", "count", Higher),
    pl("assists.dma_wr.depth_mean", "count", Higher),
    pl("assists.sp_accesses_per_frame", "count", Lower),
    pl("assists.mac_rx.drop_frac", "ratio", Lower),
    pl("host.mailbox_writes_per_frame", "count", Lower),
    pl("host.tx_posted", "count", Higher),
    pl("host.rx_delivered", "count", Higher),
    pl("obs.events_per_frame", "count", Lower),
    pl("obs.lat.tx_p50_us", "us", Lower),
    pl("obs.lat.tx_p99_us", "us", Lower),
    pl("obs.lat.rx_p50_us", "us", Lower),
    pl("obs.lat.rx_p99_us", "us", Lower),
    // Fleet engine and fabric.
    pl("net.workload.schedule_s", "s", Lower),
    pl("fleet.new_s", "s", Lower),
    pl("fleet.run_s", "s", Lower),
    pl("fleet.host_us_per_nic_epoch", "us", Lower),
    pl("fleet.nic_epochs_skipped_frac", "ratio", Higher),
    pl("fleet.overhead_frac", "ratio", Lower),
    pl("fleet.shards2_speedup_x", "x", Higher),
    pl("net.fabric.drop_frac", "ratio", Lower),
    pl("net.fabric.port_hiwater_bytes", "bytes", Lower),
    pl("fault.injected_per_kframe", "count", Lower),
    pl("fault.retransmits_per_kframe", "count", Lower),
    pl("fault.duplicates_per_kframe", "count", Lower),
    pl("fault.nic_resets", "count", Lower),
    // The harness's own counters.
    pl("perf.allocs_per_frame", "count", Lower),
    pl("perf.alloc_bytes_per_frame", "bytes", Lower),
    pl("perf.trace_overhead_frac", "ratio", Lower),
    // Isolated kernels: one public function timed in a loop.
    pl("mem.xbar.tick_ns", "ns", Lower),
    pl("mem.scratchpad.rmw_ns", "ns", Lower),
    pl("mem.sdram.burst1518_ns", "ns", Lower),
    pl("mem.sdram.burst64_ns", "ns", Lower),
    pl("cpu.core.op_ns", "ns", Lower),
    pl("net.frame.build1472_ns", "ns", Lower),
    pl("net.frame.validate1518_ns", "ns", Lower),
    pl("net.fabric.offer_ns", "ns", Lower),
    pl("sim.epoch_barrier.roundtrip_ns", "ns", Lower),
    pl("fault.plan.parse_ns", "ns", Lower),
];

/// `BENCHMARK.json`, generated from the tables above (`perf spec`).
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| (*s).into()).collect());
    Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "perf/Cargo.toml",
                "--",
            ]),
        )
        .with("paths", strings(&["perf"]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj().with("name", w.name).with("why", w.why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                            .with("bound", m.bound)
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name)
                            .with("unit", m.unit)
                            .with("better", m.better.as_str())
                    })
                    .collect(),
            ),
        )
}

/// Names of the isolated-kernel metrics (the tail of [`PER_LAYER`]).
pub fn is_kernel_metric(name: &str) -> bool {
    PER_LAYER[PER_LAYER.len() - 10..]
        .iter()
        .any(|m| m.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(well_formed(n), "bad name '{n}'");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for u in units {
            assert!(
                !u.is_empty()
                    && u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit '{u}'"
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("the contract requires setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert_eq!(
            PER_LAYER
                .iter()
                .filter(|m| is_kernel_metric(m.name))
                .count(),
            10
        );
    }

    #[test]
    fn benchmark_json_is_the_published_copy_of_these_tables() {
        let published = Json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        assert_eq!(
            published,
            benchmark_json(),
            "regenerate with: cargo run --manifest-path perf/Cargo.toml -- spec > BENCHMARK.json"
        );
    }
}
