//! Fleet benchmark: multi-NIC simulation through the switch fabric —
//! what the fleet *simulates*, and that the sharded epoch engine
//! reproduces it bit-for-bit. (How fast it runs is the `perf/`
//! package's `fleet8_*` workloads and `fleet.shards2_speedup_x`.)
//!
//! Four sections, landed together in `results/fleet.json`:
//!
//! * **Uniform** — every NIC sprays fixed-size datagrams at every
//!   other through the fabric (`--workload` overrides the spec).
//!   Reports aggregate delivered goodput and the merged
//!   [`FrameTracker`](nicsim::FrameTracker) per-stage latency
//!   percentiles: a frame's TX half (source NIC) and RX half
//!   (destination NIC) join into one fleet-wide timeline.
//! * **Incast** — everyone converges on NIC 0 through a deliberately
//!   shallow egress buffer; the section asserts the fabric actually
//!   drops and that the order-sensitive drop digest is identical at
//!   one shard and many.
//! * **Faulted** — the uniform fleet re-runs in reliable mode under a
//!   fault plan exercising every class at once: fabric corruption,
//!   link flaps, port-buffer squeezes, NIC crash/reset lifecycles, and
//!   the per-NIC DMA/link/ECC sites. The section asserts faults were
//!   actually injected, that at least one NIC crashed and reset, and
//!   that the faulted run is bit-identical sharded — the fault plane's
//!   determinism contract on the benchmark workload. The aggregated
//!   `err_*` table (per-NIC and fleet totals) lands under
//!   `"extra"."faults"`.
//! * **Scaling** — the uniform fleet re-runs at shard counts 1, 2
//!   and 4 (capped at the NIC count; `--shards` adds a point, which
//!   must not exceed it). Every
//!   count must reproduce the single-shard result bit-for-bit —
//!   per-NIC stats, fabric digest, per-port counters, and skip
//!   decisions — which re-asserts the fleet determinism contract on
//!   the benchmark workload itself.
//!
//! Quick mode (`NICSIM_QUICK=1`) shrinks the windows for CI smoke and
//! leaves the committed results file untouched; the determinism and
//! incast-drop assertions still bind.

use crate::{header, Args};
use nicsim::{ErrorStats, FaultPlan, NicConfig};
use nicsim_exp::{latency_to_json, Json, RunReport};
use nicsim_fleet::{Fleet, FleetConfig, FleetStats};
use nicsim_net::workload::{Pattern, SizeMix, Workload};
use nicsim_net::FabricConfig;
use nicsim_sim::Ps;
use std::time::{Duration, Instant};

pub fn run(args: &Args) {
    let exp = &args.exp;
    header(
        "Fleet: sharded multi-NIC simulation through the switch fabric",
        "bit-identical per-NIC stats and fabric digest at every shard count; \
         incast must drop",
    );
    let quick = exp.is_quick();
    // Fleet windows are shorter than the single-NIC defaults: every
    // epoch advances N full NIC systems, and the scaling section runs
    // the whole fleet once per shard count.
    let (warmup, window) = if quick {
        (Ps::from_us(60), Ps::from_us(120))
    } else {
        (Ps::from_us(200), Ps::from_us(400))
    };
    let horizon = warmup + window;
    let nics = args.nics.unwrap_or(8);

    let nic = args.configure(NicConfig::default());
    let uniform = FleetConfig {
        nics,
        shards: 1,
        nic,
        fabric: FabricConfig::default(),
        workload: args.workload.unwrap_or_default(),
    };

    let incast_cfg = FleetConfig {
        nics,
        shards: 1,
        nic,
        fabric: FabricConfig {
            port_buffer_bytes: 16 * 1024,
            ..FabricConfig::default()
        },
        workload: Workload {
            pattern: Pattern::Incast { target: 0 },
            sizes: SizeMix::Fixed(1472),
            fps: 400_000.0,
            ..Workload::default()
        },
    };
    let incast_shards = 4.min(nics);
    let fault_spec = "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,\
                      squeeze=0.005,crash_us=180,watchdog_us=60,poison=0.002,\
                      fw=0.001,stall_alpha=1.5";
    let plan = FaultPlan::parse(fault_spec).expect("valid fault spec");
    // Fixed window regardless of quick mode: the crash period needs
    // room for at least one full crash/reset cycle.
    let faulted_window = Ps::from_us(400);
    let faulted_cfg = FleetConfig {
        nics,
        shards: 1,
        nic: nic
            .to_builder()
            .faults(Some(plan))
            .build()
            .expect("valid faulted config"),
        fabric: FabricConfig::default(),
        workload: Workload {
            reliable: true,
            rto_us: 40,
            ..uniform.workload
        },
    };
    let faulted_shards = 2.min(nics);

    // Shard counts under test: the determinism triple {1, 2, 4}, capped
    // at the NIC count, and any explicit --shards point, which is not.
    let mut counts: Vec<usize> = [1, 2, 4].into_iter().filter(|&s| s <= nics).collect();
    counts.extend(args.shards);
    counts.sort_unstable();
    counts.dedup();

    // Every fleet shape the sections below run passes
    // FleetConfig::validate before the first one runs: a shape it
    // refuses is a usage error naming the flag that asked for it, not a
    // failure after the earlier sections' simulations. The incast fleet
    // takes only --nics, --workload shapes the uniform and faulted ones,
    // and --shards adds a scaling point. Every other shard count is
    // capped at the NIC count, so it passes wherever its fleet's
    // one-shard shape does. (Fleet::new's one further check, the
    // generated schedule lengths, cannot fail here: --workload caps fps
    // at line rate and no horizon exceeds 600 us.)
    let sharded = |cfg: FleetConfig, shards| FleetConfig { shards, ..cfg };
    let explicit = sharded(uniform, args.shards.unwrap_or(1));
    let checks = [
        ("--nics", incast_cfg, horizon),
        ("--workload", faulted_cfg, faulted_window),
        ("--workload", uniform, horizon),
        ("--shards", explicit, horizon),
    ];
    for (flag, cfg, horizon) in checks {
        if let Err(e) = cfg.validate(horizon) {
            eprintln!("{flag}: {e}");
            std::process::exit(2);
        }
    }

    let mut failures = Vec::new();

    println!("uniform: {nics} NICs, workload {}", uniform.workload.spec());
    println!("{:>8} {:>10}", "shards", "identical");
    let mut scaling: Vec<(usize, Duration, FleetStats)> = Vec::new();
    for &s in &counts {
        let mut fleet = Fleet::new(sharded(uniform, s), horizon).expect("checked above");
        let t0 = Instant::now();
        let stats = fleet.run_measured(warmup, window);
        let wall = t0.elapsed();
        scaling.push((s, wall, stats));
    }
    let (_, _, reference) = &scaling[0];
    if reference.fabric.delivered == 0 {
        failures.push("uniform: fabric delivered nothing — every check is vacuous".into());
    }
    for (s, _, stats) in &scaling {
        let same = identical(reference, stats);
        println!("{s:>8} {same:>10}");
        if !same {
            failures.push(format!(
                "uniform: {s} shards diverged from the single-shard reference"
            ));
        }
    }
    println!(
        "uniform: {:.3} Gb/s aggregate goodput, {} delivered, {} dropped, \
         {} NIC-epochs skipped of {}",
        reference.goodput_gbps(),
        reference.fabric.delivered,
        reference.fabric_drops(),
        reference.nic_epochs_skipped,
        reference.epochs * nics as u64,
    );

    // Incast: everyone hammers NIC 0 through a shallow buffer. The
    // interesting output is the drop behavior — and that it replays
    // bit-identically when sharded.
    let mut fleet = Fleet::new(incast_cfg, horizon).expect("checked above");
    let incast = fleet.run_measured(warmup, window);
    let mut fleet = Fleet::new(sharded(incast_cfg, incast_shards), horizon).expect("checked above");
    let incast_sharded = fleet.run_measured(warmup, window);
    if incast.fabric_drops() == 0 {
        failures.push("incast: no fabric drops through a 16 KB egress buffer".into());
    }
    if !identical(&incast, &incast_sharded) {
        failures.push(format!(
            "incast: {incast_shards} shards diverged from the single-shard reference"
        ));
    }
    println!(
        "incast:  {:.3} Gb/s to the victim, {} delivered, {} dropped \
         ({} bytes), victim port high-water {} bytes, digest {:016x}",
        incast.goodput_gbps(),
        incast.fabric.delivered,
        incast.fabric_drops(),
        incast.fabric.dropped_bytes,
        incast.ports[0].max_occupancy,
        incast.fabric.digest,
    );

    // Faulted: every fault class at once over the uniform workload in
    // reliable mode, run clean-sharded and re-sharded. The interesting
    // outputs are the aggregated err_* table and the determinism
    // re-check under fire.
    let mut fleet = Fleet::new(faulted_cfg, faulted_window).expect("checked above");
    let faulted = fleet.run_measured(Ps::ZERO, faulted_window);
    let mut fleet =
        Fleet::new(sharded(faulted_cfg, faulted_shards), faulted_window).expect("checked above");
    let faulted_sharded = fleet.run_measured(Ps::ZERO, faulted_window);
    if !identical(&faulted, &faulted_sharded) {
        failures.push(format!(
            "faulted: {faulted_shards} shards diverged from the single-shard reference"
        ));
    }
    let totals = faulted.errors_total().unwrap_or_default();
    if totals.injected() == 0 {
        failures.push("faulted: nothing injected — the fault plane is not wired through".into());
    }
    if totals.nic_resets == 0 {
        failures.push(format!(
            "faulted: no NIC crash/reset cycle completed (crash period 180us over \
             {} us)",
            faulted_window.0 / 1_000_000
        ));
    }
    println!("faulted: plan {fault_spec}");
    println!(
        "{:>5} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7}",
        "nic", "injected", "crc", "resets", "lost", "retrans", "dups", "fw"
    );
    for (i, s) in faulted.per_nic.iter().enumerate() {
        let e = s.errors.unwrap_or_default();
        println!(
            "{:>5} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7}",
            i,
            e.injected(),
            e.crc_dropped,
            e.nic_resets,
            e.nic_reset_lost_frames,
            e.tx_retransmits,
            e.rx_duplicates,
            e.fw_instr_faults,
        );
    }
    println!(
        "{:>5} {:>9} {:>7} {:>7} {:>7} {:>8} {:>7} {:>7}  ({} delivered, identical={})",
        "total",
        totals.injected(),
        totals.crc_dropped,
        totals.nic_resets,
        totals.nic_reset_lost_frames,
        totals.tx_retransmits,
        totals.rx_duplicates,
        totals.fw_instr_faults,
        faulted.fabric.delivered,
        identical(&faulted, &faulted_sharded),
    );

    let runs: Vec<RunReport> = scaling
        .iter()
        .map(|(s, wall, stats)| RunReport {
            label: format!("uniform,nics={nics},shards={s}"),
            axes: vec![("shards".into(), s.to_string())],
            config: nic,
            // One RunStats per report row: NIC 0's window (per-NIC
            // symmetry is not guaranteed) — the aggregate view lives
            // under "extra".
            stats: stats.per_nic[0].clone(),
            latency: (*s == 1).then(|| latency_to_json(&stats.latency)),
            wall: *wall,
        })
        .collect();
    let scaling_json: Vec<Json> = scaling
        .iter()
        .map(|(s, _, stats)| {
            Json::obj()
                .with("shards", *s as u64)
                .with("identical", identical(reference, stats))
        })
        .collect();
    let extra = Json::obj()
        .with("nics", nics as u64)
        .with("warmup_us", warmup.0 / 1_000_000)
        .with("window_us", window.0 / 1_000_000)
        .with("epochs", reference.epochs)
        .with("uniform", fleet_json(reference, &uniform.workload.spec()))
        .with(
            "incast",
            fleet_json(&incast, &incast_cfg.workload.spec()).with(
                "victim_port_max_occupancy_bytes",
                incast.ports[0].max_occupancy,
            ),
        )
        .with("scaling", Json::Arr(scaling_json))
        .with(
            "faults",
            Json::obj()
                .with("plan", fault_spec)
                .with("window_us", faulted_window.0 / 1_000_000)
                .with("shards_checked", faulted_shards as u64)
                .with("identical", identical(&faulted, &faulted_sharded))
                .with("delivered", faulted.fabric.delivered)
                .with("goodput_gbps", faulted.goodput_gbps())
                .with(
                    "per_nic",
                    Json::Arr(
                        faulted
                            .per_nic
                            .iter()
                            .enumerate()
                            .map(|(i, s)| err_json(&s.errors.unwrap_or_default(), Some(i as u64)))
                            .collect(),
                    ),
                )
                .with("totals", err_json(&totals, None)),
        );
    if quick {
        println!("quick mode: results file not written");
    } else {
        exp.finish(runs, Some(extra)).expect("write results");
    }

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}

/// The fleet determinism contract, as one predicate: everything a run
/// reports except wall-clock time must match.
fn identical(a: &FleetStats, b: &FleetStats) -> bool {
    a.per_nic == b.per_nic
        && a.fabric == b.fabric
        && a.ports == b.ports
        && a.epochs == b.epochs
        && a.nic_epochs_skipped == b.nic_epochs_skipped
}

/// One `err_*` table as JSON, row names matching the stable
/// `RunStats::summary()` rows; `nic` tags per-NIC entries.
fn err_json(e: &ErrorStats, nic: Option<u64>) -> Json {
    let mut j = Json::obj();
    if let Some(i) = nic {
        j = j.with("nic", i);
    }
    for (name, value) in e.summary() {
        j = j.with(name, value);
    }
    j
}

/// One fleet run's simulated-side results as JSON (the digest as hex:
/// `Json::Num` is an f64 and would round a 64-bit digest).
fn fleet_json(st: &FleetStats, workload: &str) -> Json {
    Json::obj()
        .with("workload", workload)
        .with("goodput_gbps", st.goodput_gbps())
        .with("offered", st.fabric.offered)
        .with("delivered", st.fabric.delivered)
        .with("dropped", st.fabric.dropped)
        .with("delivered_bytes", st.fabric.delivered_bytes)
        .with("dropped_bytes", st.fabric.dropped_bytes)
        .with("digest", format!("{:016x}", st.fabric.digest))
        .with("nic_epochs_skipped", st.nic_epochs_skipped)
        .with("cycles_per_nic", st.cycles_per_nic)
        .with("latency", latency_to_json(&st.latency))
}
