//! The paper's tables and figures.

use crate::{header, to_ilp_trace, traced_run, Args};
use nicsim::{FwMode, NicConfig, NicConfigBuilder, NullProbe};
use nicsim_coherence::{sweep_sizes, Access};
use nicsim_cpu::{FwFunc, StallBucket};
use nicsim_exp::{Json, RunSpec, Sweep};
use nicsim_ilp::{analyze, expand, BranchModel, IssueOrder, PipelineModel, ProcessorConfig};
use nicsim_mem::{AccessKind, AccessTrace};
use nicsim_net::link::max_udp_throughput_gbps;

/// The idealized firmware on one 300 MHz core (Tables 1, 2 and 5).
/// A 300 MHz single core is near saturation for the ideal firmware,
/// matching the paper's methodology of profiling the loaded firmware.
fn ideal_300() -> NicConfigBuilder {
    NicConfig::ideal().to_builder().cpu_mhz(300)
}

/// The `firmware` axis of Tables 5 and 6 and Figure 8: software-only
/// ordering at 200 MHz against RMW at 166 MHz.
fn firmware(args: &Args) -> [(&'static str, NicConfig); 2] {
    let sw = args.configure(NicConfig::software_only_200());
    [
        ("software@200", sw),
        ("rmw@166", args.configure(NicConfig::rmw_166())),
    ]
}

/// Table 1: average instructions and data accesses to send and receive
/// one Ethernet frame, measured on the idealized (single-core,
/// synchronization-free) firmware. Writes `results/table1.json`.
pub fn table1(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 1: per-frame instructions and data accesses (idealized firmware)",
        "anchors: send 282 instr (229 MIPS), receive 253 instr (206 MIPS) at 812,744 fps",
    );
    let cfg = args.configure(ideal_300().build().unwrap());
    let run = exp.run("ideal@300", cfg);
    let s = &run.stats;
    println!(
        "{:<22} {:>14} {:>14}",
        "Function", "Instructions", "Data Accesses"
    );
    let rows = [
        FwFunc::FetchSendBd,
        FwFunc::SendFrame,
        FwFunc::FetchRecvBd,
        FwFunc::RecvFrame,
    ];
    for f in rows {
        println!(
            "{:<22} {:>14.1} {:>14.1}",
            f.label(),
            s.instr_per_frame(f),
            s.accesses_per_frame(f)
        );
    }
    let send_i = s.instr_per_frame(FwFunc::FetchSendBd) + s.instr_per_frame(FwFunc::SendFrame);
    let recv_i = s.instr_per_frame(FwFunc::FetchRecvBd) + s.instr_per_frame(FwFunc::RecvFrame);
    let send_a =
        s.accesses_per_frame(FwFunc::FetchSendBd) + s.accesses_per_frame(FwFunc::SendFrame);
    let recv_a =
        s.accesses_per_frame(FwFunc::FetchRecvBd) + s.accesses_per_frame(FwFunc::RecvFrame);
    println!("----------------------------------------------------------------");
    println!("send total:    {send_i:6.1} instr {send_a:6.1} accesses  (paper: ~282 instr)");
    println!("receive total: {recv_i:6.1} instr {recv_a:6.1} accesses  (paper: ~253 instr)");
    println!(
        "implied MIPS at line rate: send {:.0}, receive {:.0}  (paper: 229 / 206)",
        send_i * 812_744.0 / 1e6,
        recv_i * 812_744.0 / 1e6
    );
    exp.finish(vec![run], None).expect("write results");
}

/// Table 2: theoretical peak IPCs of NIC firmware for different
/// processor configurations, from an offline analysis of a dynamic
/// instruction trace of the idealized firmware. Writes
/// `results/table2.json` with the IPC matrix under `"extra"`.
pub fn table2(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 2: theoretical peak IPCs of NIC firmware",
        "trends: in-order prefers hazard removal; out-of-order prefers branch prediction",
    );
    let cfg = args.configure(ideal_300().capture_ilp(true).build().unwrap());
    let (run, mut sys) = exp.run_with_probe("ideal@300+ilp", cfg, NullProbe);
    let mut events = sys.take_ilp_trace().expect("ILP capture enabled");
    // The IPC limits converge within a few hundred thousand
    // instructions; truncate so the offline analysis stays quick.
    events.truncate(120_000);
    let trace = expand(&to_ilp_trace(&events));
    println!("dynamic trace: {} instructions", trace.len());
    println!(
        "{:<10} {:>6} | {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "Issue", "Width", "PP+PBP", "PP+NoBP", "St+PBP", "St+PBP1", "St+NoBP"
    );
    let mut extra_rows = Vec::new();
    for order in [IssueOrder::InOrder, IssueOrder::OutOfOrder] {
        for width in [1u32, 2, 4] {
            let run_cfg = |pipe, bp| {
                analyze(
                    &trace,
                    ProcessorConfig {
                        order,
                        width,
                        pipeline: pipe,
                        branches: bp,
                    },
                )
            };
            let cells = [
                (
                    "pp_pbp",
                    run_cfg(PipelineModel::Perfect, BranchModel::Perfect),
                ),
                (
                    "pp_nobp",
                    run_cfg(PipelineModel::Perfect, BranchModel::None),
                ),
                (
                    "st_pbp",
                    run_cfg(PipelineModel::Stalls, BranchModel::Perfect),
                ),
                ("st_pbp1", run_cfg(PipelineModel::Stalls, BranchModel::Pbp1)),
                ("st_nobp", run_cfg(PipelineModel::Stalls, BranchModel::None)),
            ];
            let issue = if order == IssueOrder::InOrder {
                "in-order"
            } else {
                "OOO"
            };
            println!(
                "{:<10} {:>6} | {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
                issue, width, cells[0].1, cells[1].1, cells[2].1, cells[3].1, cells[4].1,
            );
            let mut row = Json::obj()
                .with("issue", issue)
                .with("width", u64::from(width));
            for (key, ipc) in cells {
                row.set(key, ipc);
            }
            extra_rows.push(row);
        }
    }
    println!("(PP = perfect pipeline, St = 5-stage with stalls)");
    let extra = Json::obj()
        .with("trace_instructions", trace.len())
        .with("peak_ipc", Json::Arr(extra_rows));
    exp.finish(vec![run], Some(extra)).expect("write results");
}

/// The paper filters traces "to include only frame metadata". Locks,
/// progress counters, statistics, and the per-core event scratch are
/// synchronization/queue state, not metadata; what remains is the
/// descriptor rings, BD caches and pools, frame slots, status bits, and
/// return-descriptor staging.
fn is_frame_metadata(m: &nicsim_firmware::MemMap, addr: u32) -> bool {
    addr >= m.dmard(0).ring && addr < m.stats
}

/// Figure 3: cache hit ratio for the 6-core configuration with MESI
/// coherence, per-processor cache sizes 16 B – 32 KB, fully associative,
/// LRU, 16-byte lines. DMA read/write traces are interleaved into one
/// cache and MAC TX/RX into another, as the paper does for SMPCache's
/// 8-cache limit. Writes `results/fig3.json` with the hit-ratio curve
/// under `"extra"`.
pub fn fig3(args: &Args) {
    let exp = &args.exp;
    header(
        "Figure 3: MESI hit ratio vs per-processor cache size (6 cores)",
        "hit ratio never exceeds ~55%; <1% of writes invalidate",
    );
    let cfg = args.configure(NicConfig::default());
    let (run, sys) = exp.run_with_probe("rmw@166+trace", cfg, AccessTrace::with_limit(2_000_000));
    let cores = sys.config().cores;
    let first_mac = sys.config().topology.mactx_port(cores);
    let m = sys.map();
    let trace = sys.unwrap_probe();
    // Cores keep their ids; DMA engines -> cache 6; MAC pair -> cache 7.
    let merged = trace.merge_requesters(|r| {
        if r < cores {
            r
        } else if r < first_mac {
            cores // every DMA read + DMA write port interleaved
        } else {
            cores + 1 // MAC TX + MAC RX interleaved
        }
    });
    let accesses: Vec<Access> = merged
        .records()
        .iter()
        .filter(|r| is_frame_metadata(&m, r.addr))
        .map(|r| Access {
            requester: r.requester,
            addr: r.addr as u64,
            write: r.kind == AccessKind::Write,
        })
        .collect();
    println!(
        "replaying {} metadata accesses into 8 caches",
        accesses.len()
    );
    let sizes: Vec<usize> = (4..=15).map(|p| 1usize << p).collect(); // 16B..32KB
    println!(
        "{:>10} {:>12} {:>22}",
        "size", "hit ratio %", "invalidating writes %"
    );
    let mut max_ratio: f64 = 0.0;
    let mut curve = Vec::new();
    for (size, ratio, inv) in sweep_sizes(cores + 2, 16, &sizes, &accesses) {
        println!("{:>10} {:>12.1} {:>22.2}", size, ratio, inv * 100.0);
        max_ratio = max_ratio.max(ratio);
        curve.push(
            Json::obj()
                .with("cache_bytes", size)
                .with("hit_ratio_pct", ratio)
                .with("invalidating_writes_pct", inv * 100.0),
        );
    }
    println!("maximum collective hit ratio: {max_ratio:.1}% (paper: never above 55%)");
    let extra = Json::obj()
        .with("metadata_accesses", accesses.len())
        .with("max_hit_ratio_pct", max_ratio)
        .with("mesi_curve", Json::Arr(curve));
    exp.finish(vec![run], Some(extra)).expect("write results");
}

/// Table 3: breakdown of computation bandwidth in instructions per cycle
/// per core, for six cores at 200 MHz at line rate. Writes
/// `results/table3.json` (the IPC breakdown is part of every run's
/// `stats.ipc_breakdown`).
pub fn table3(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 3: per-core IPC breakdown, 6 cores at 200 MHz",
        "paper: execution 0.72, I-miss 0.01, load 0.12, conflicts 0.05, pipeline 0.10",
    );
    let run = exp.run(
        "software@200",
        args.configure(NicConfig::software_only_200()),
    );
    let s = &run.stats;
    println!(
        "line rate achieved: {:.2} Gb/s of 19.15",
        s.total_udp_gbps()
    );
    println!("{:<30} {:>8}", "Component", "IPC");
    let mut total = 0.0;
    for b in StallBucket::ALL {
        let v = s.ipc_contribution(b);
        total += v;
        println!("{:<30} {:>8.2}", b.label(), v);
    }
    println!("{:<30} {:>8.2}", "Total", total);
    println!("achieved IPC (executed instructions): {:.2}", s.ipc());
    println!(
        "i-cache hit rate: {:.3}%",
        s.icache_hits as f64 * 100.0 / (s.icache_hits + s.icache_misses).max(1) as f64
    );
    exp.finish(vec![run], None).expect("write results");
}

/// Table 4: bandwidth required / peak / consumed for the instruction
/// memory, scratchpads, and frame memory in the six-core line-rate
/// configuration. Writes `results/table4.json`.
pub fn table4(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 4: memory-system bandwidth (6 cores at 200 MHz, line rate)",
        "paper: scratchpad 4.8 required / 9.4 consumed; frame 39.5 required / 39.7 consumed",
    );
    let cfg = args.configure(NicConfig::software_only_200());
    let run = exp.run("software@200", cfg);
    let s = &run.stats;
    println!(
        "line rate achieved: {:.2} Gb/s of 19.15",
        s.total_udp_gbps()
    );
    let sp_peak = cfg.banks as f64 * 4.0 * 8.0 * cfg.cpu_mhz as f64 * 1e6 / 1e9;
    let im_peak = 16.0 * 8.0 * cfg.cpu_mhz as f64 * 1e6 / 1e9;
    let fm_peak = 64.0;
    println!(
        "{:<24} {:>10} {:>10} {:>10}",
        "Memory", "Required", "Peak", "Consumed"
    );
    println!(
        "{:<24} {:>10} {:>10.1} {:>10.2}   (utilization {:.1}%)",
        "Instruction Mem (Gb/s)",
        "N/A",
        im_peak,
        s.instr_mem_gbps,
        s.instr_mem_utilization * 100.0
    );
    println!(
        "{:<24} {:>10.1} {:>10.1} {:>10.2}",
        "Scratchpads (Gb/s)", 4.8, sp_peak, s.scratchpad_gbps
    );
    println!(
        "{:<24} {:>10.1} {:>10.1} {:>10.2}   (misalignment waste {:.2} Gb/s)",
        "Frame Memory (Gb/s)",
        39.5,
        fm_peak,
        s.frame_mem_gbps,
        s.frame_mem_wasted_bytes as f64 * 8.0 / s.window.as_secs_f64() / 1e9
    );
    println!(
        "core scratchpad accesses/s: {:.1}M; assist accesses/s: {:.1}M (paper: 41.7M for assists)",
        s.core_sp_accesses as f64 / s.window.as_secs_f64() / 1e6,
        s.assist_sp_accesses as f64 / s.window.as_secs_f64() / 1e6
    );
    println!(
        "frame memory latency: mean {} max {} (paper: up to 27 SDRAM cycles = 54ns)",
        s.frame_mem_mean_latency, s.frame_mem_max_latency
    );
    let extra = Json::obj()
        .with("instr_mem_peak_gbps", im_peak)
        .with("scratchpad_peak_gbps", sp_peak)
        .with("frame_mem_peak_gbps", fm_peak);
    exp.finish(vec![run], Some(extra)).expect("write results");
}

/// Table 5: execution profiles comparing frame-ordering methods —
/// instructions and memory accesses per packet for the ideal,
/// software-only, and RMW-enhanced firmware. The three runs execute in
/// parallel; writes `results/table5.json`.
pub fn table5(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 5: per-packet instructions / accesses by ordering method",
        "RMW cuts send dispatch+ordering instr by 51.5%, recv by 30.8%; accesses by 65.0%/35.2%",
    );
    let ideal = ("ideal@300", args.configure(ideal_300().build().unwrap()));
    let [sw, rmw] = firmware(args);
    let sweep = Sweep::new(NicConfig::default()).axis_configs("firmware", [ideal, sw, rmw]);
    let report = exp.sweep(&sweep);
    let (ideal, sw, rmw) = (
        &report.runs[0].stats,
        &report.runs[1].stats,
        &report.runs[2].stats,
    );

    println!(
        "{:<30} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "", "ideal", "sw-only", "RMW", "ideal", "sw-only", "RMW"
    );
    println!(
        "{:<30} | {:^26} | {:^26}",
        "Function", "Instructions per Packet", "Accesses per Packet"
    );
    let rows = [
        FwFunc::FetchSendBd,
        FwFunc::SendFrame,
        FwFunc::SendDispatch,
        FwFunc::SendLock,
        FwFunc::FetchRecvBd,
        FwFunc::RecvFrame,
        FwFunc::RecvDispatch,
        FwFunc::RecvLock,
    ];
    for f in rows {
        println!(
            "{:<30} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1}",
            f.label(),
            ideal.instr_per_frame(f),
            sw.instr_per_frame(f),
            rmw.instr_per_frame(f),
            ideal.accesses_per_frame(f),
            sw.accesses_per_frame(f),
            rmw.accesses_per_frame(f),
        );
    }
    let ord = nicsim::RunStats::instr_per_frame;
    let sd = 100.0 * (1.0 - ord(rmw, FwFunc::SendDispatch) / ord(sw, FwFunc::SendDispatch));
    let rd = 100.0 * (1.0 - ord(rmw, FwFunc::RecvDispatch) / ord(sw, FwFunc::RecvDispatch));
    let orda = nicsim::RunStats::accesses_per_frame;
    let sda = 100.0 * (1.0 - orda(rmw, FwFunc::SendDispatch) / orda(sw, FwFunc::SendDispatch));
    let rda = 100.0 * (1.0 - orda(rmw, FwFunc::RecvDispatch) / orda(sw, FwFunc::RecvDispatch));
    println!("----------------------------------------------------------------");
    println!("RMW reduction, dispatch+ordering instructions: send {sd:.1}% (paper 51.5%), recv {rd:.1}% (paper 30.8%)");
    println!("RMW reduction, dispatch+ordering accesses:     send {sda:.1}% (paper 65.0%), recv {rda:.1}% (paper 35.2%)");
    exp.write(&report).expect("write results");
}

/// Table 6: cycles spent in each function per packet for the
/// software-only (200 MHz) and RMW-enhanced (166 MHz) configurations.
/// The two runs execute in parallel; writes `results/table6.json`.
pub fn table6(args: &Args) {
    let exp = &args.exp;
    header(
        "Table 6: per-packet cycles by function, software@200 vs RMW@166",
        "paper: RMW cuts send cycles 28.4%, receive cycles 4.7%; both reach line rate",
    );
    let sweep = Sweep::new(NicConfig::default()).axis_configs("firmware", firmware(args));
    let report = exp.sweep(&sweep);
    let (sw, rmw) = (&report.runs[0].stats, &report.runs[1].stats);
    println!(
        "throughput: software {:.2} Gb/s, RMW {:.2} Gb/s (limit 19.15)",
        sw.total_udp_gbps(),
        rmw.total_udp_gbps()
    );
    println!(
        "{:<30} {:>14} {:>14}",
        "Function", "sw-only @200", "RMW @166"
    );
    let send = [
        FwFunc::FetchSendBd,
        FwFunc::SendFrame,
        FwFunc::SendDispatch,
        FwFunc::SendLock,
    ];
    let recv = [
        FwFunc::FetchRecvBd,
        FwFunc::RecvFrame,
        FwFunc::RecvDispatch,
        FwFunc::RecvLock,
    ];
    let mut totals = [[0.0f64; 2]; 2];
    for (d, rows) in [send, recv].iter().enumerate() {
        for f in rows {
            let a = sw.cycles_per_frame(*f);
            let b = rmw.cycles_per_frame(*f);
            totals[d][0] += a;
            totals[d][1] += b;
            println!("{:<30} {:>14.1} {:>14.1}", f.label(), a, b);
        }
        let label = if d == 0 {
            "Send Total"
        } else {
            "Receive Total"
        };
        println!(
            "{:<30} {:>14.1} {:>14.1}",
            label, totals[d][0], totals[d][1]
        );
    }
    println!("----------------------------------------------------------------");
    println!(
        "RMW cycle reduction: send {:.1}% (paper 28.4%), receive {:.1}% (paper 4.7%)",
        100.0 * (1.0 - totals[0][1] / totals[0][0]),
        100.0 * (1.0 - totals[1][1] / totals[1][0]),
    );
    exp.write(&report).expect("write results");
}

/// Figure 7: full-duplex UDP throughput while scaling core frequency and
/// the number of processors (maximum-sized frames, software-only
/// firmware as in §6.1).
///
/// The 31 runs are independent, so they execute across the engine's
/// worker pool: `repro fig7 --jobs 8`. Results
/// land in `results/fig7.json`.
pub fn fig7(args: &Args) {
    let exp = &args.exp;
    header(
        "Figure 7: throughput vs core frequency and processor count",
        "6 cores @175MHz -> 96.3% of line rate; 8 @175 -> 98.7%; 6 and 8 @200 within 1%; 1 core needs ~800MHz",
    );
    let freqs = [100u64, 125, 150, 166, 175, 200];
    let core_counts = [1usize, 2, 4, 6, 8];
    let base = NicConfig::builder()
        .mode(FwMode::SoftwareOnly)
        .build()
        .unwrap();
    let sweep = Sweep::new(args.configure(base))
        .axis("cpu_mhz", freqs, |cfg, v| cfg.cpu_mhz = v)
        .axis("cores", core_counts, |cfg, v| cfg.cores = v);
    let mut specs = sweep.runs().expect("valid sweep");
    // The single-core scaling claim rides along in the same pool.
    specs.push(RunSpec::single(
        "cpu_mhz=800,cores=1",
        args.configure(base)
            .to_builder()
            .cores(1)
            .cpu_mhz(800)
            .build()
            .unwrap(),
    ));
    let mut report = exp.run_specs(specs);

    println!("Ethernet limit (duplex): 19.15 Gb/s of UDP payload");
    print!("{:>6}", "MHz");
    for c in core_counts {
        print!(" {:>9}", format!("{c} cores"));
    }
    println!();
    for (fi, mhz) in freqs.iter().enumerate() {
        print!("{mhz:>6}");
        for ci in 0..core_counts.len() {
            let s = &report.runs[fi * core_counts.len() + ci].stats;
            print!(" {:>9.2}", s.total_udp_gbps());
        }
        println!();
    }
    let fast = &report.runs.last().expect("800 MHz run").stats;
    println!(
        "1 core @ 800 MHz: {:.2} Gb/s ({:.1}% of line rate; paper: a single core needs 800 MHz)",
        fast.total_udp_gbps(),
        100.0 * fast.total_udp_gbps() / 19.15
    );
    // `--trace <path>`: re-run the headline point (6 cores @ 175 MHz,
    // the paper's 96.3%-of-line-rate configuration) with the full
    // observability bundle and append its traced report.
    if let Some(path) = &args.trace {
        let traced = traced_run(
            exp,
            "cpu_mhz=175,cores=6+trace",
            NicConfig::builder()
                .cores(6)
                .cpu_mhz(175)
                .mode(FwMode::SoftwareOnly)
                .build()
                .unwrap(),
            path,
        );
        report.runs.push(traced);
    }
    exp.write(&report).expect("write results");
}

/// Figure 8: full-duplex throughput for various UDP datagram sizes under
/// the software-only (200 MHz) and RMW-enhanced (166 MHz) configurations.
/// The 18 runs execute in parallel; writes `results/fig8.json`.
pub fn fig8(args: &Args) {
    let exp = &args.exp;
    header(
        "Figure 8: throughput vs UDP datagram size",
        "both configurations scale together; small frames saturate ~2.2M frames/s",
    );
    let sizes = [18usize, 100, 200, 400, 600, 800, 1000, 1200, 1472];
    // Axes apply in declaration order: the firmware axis installs the
    // whole preset, then the payload axis overrides the datagram size.
    let sweep = Sweep::new(NicConfig::default())
        .axis_configs("firmware", firmware(args))
        .axis("udp_payload", sizes, |cfg, v| cfg.udp_payload = v);
    let report = exp.sweep(&sweep);

    println!(
        "{:>6} {:>10} {:>12} {:>12} | {:>12} {:>12}",
        "bytes", "limit Gb/s", "sw@200 Gb/s", "rmw@166 Gb/s", "sw Mfps", "rmw Mfps"
    );
    // Row-major over (firmware, size): sw runs first, then rmw.
    for (si, size) in sizes.iter().enumerate() {
        let limit = 2.0 * max_udp_throughput_gbps(*size);
        let sw = &report.runs[si].stats;
        let rmw = &report.runs[sizes.len() + si].stats;
        println!(
            "{:>6} {:>10.2} {:>12.2} {:>12.2} | {:>12.2} {:>12.2}",
            size,
            limit,
            sw.total_udp_gbps(),
            rmw.total_udp_gbps(),
            sw.total_fps() / 1e6,
            rmw.total_fps() / 1e6,
        );
    }
    exp.write(&report).expect("write results");
}
