//! Studies beyond the paper: scratchpad banks, I-cache capacity, and
//! the frame-side topology.

use crate::{header, Args};
use nicsim::NicConfig;
use nicsim_cpu::StallBucket;
use nicsim_exp::RunSpec;
use nicsim_mem::ICacheConfig;

/// Ablation: scratchpad bank count. The paper provisions 4 banks so that
/// bank conflicts stay low (Table 3 charges only 0.05 IPC to conflicts);
/// this sweep shows the sensitivity. The four runs execute in parallel;
/// writes `results/ablation_banks.json`.
pub fn banks(args: &Args) {
    let exp = &args.exp;
    header(
        "Ablation: scratchpad banks (6 cores, RMW, 166 MHz)",
        "banked scratchpad overprovisions bandwidth to keep latency low (§2.3)",
    );
    let base = args.configure(NicConfig::rmw_166());
    let mut specs = Vec::new();
    for banks in [1usize, 2, 4, 8] {
        let mut cfg = base;
        cfg.banks = banks;
        specs.push(RunSpec::at(cfg, &[("banks", &banks)]));
    }
    let runs = exp.run_all(&specs).expect("valid sweep");
    println!(
        "{:>6} {:>12} {:>16} {:>12}",
        "banks", "Gb/s", "conflict IPC", "IPC"
    );
    for run in &runs {
        let s = &run.stats;
        println!(
            "{:>6} {:>12.2} {:>16.3} {:>12.3}",
            run.config.banks,
            s.total_udp_gbps(),
            s.ipc_contribution(StallBucket::Conflict),
            s.ipc()
        );
    }
    exp.finish(runs, None).expect("write results");
}

/// Ablation: per-core instruction cache size. The paper's 8 KB 2-way
/// caches make I-miss stalls negligible (0.01 IPC) even though tasks
/// migrate between cores. The five runs execute in parallel; writes
/// `results/ablation_icache.json`.
pub fn icache(args: &Args) {
    let exp = &args.exp;
    header(
        "Ablation: per-core I-cache capacity (6 cores, RMW, 166 MHz)",
        "paper: 8 KB 2-way captures the code working set despite task migration",
    );
    let base = args.configure(NicConfig::rmw_166());
    let mut specs = Vec::new();
    for kb in [1usize, 2, 4, 8, 16] {
        let mut cfg = base;
        cfg.icache = ICacheConfig {
            bytes: kb * 1024,
            ways: 2,
            line_bytes: 32,
        };
        specs.push(RunSpec::at(cfg, &[("icache_kb", &kb)]));
    }
    let runs = exp.run_all(&specs).expect("valid sweep");
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "bytes", "Gb/s", "imiss IPC", "hit rate %"
    );
    for run in &runs {
        let s = &run.stats;
        println!(
            "{:>8} {:>12.2} {:>12.3} {:>14.2}",
            run.config.icache.bytes,
            s.total_udp_gbps(),
            s.ipc_contribution(StallBucket::IMiss),
            s.icache_hits as f64 * 100.0 / (s.icache_hits + s.icache_misses).max(1) as f64
        );
    }
    exp.finish(runs, None).expect("write results");
}

/// Architecture sweep over `NicConfig::topology`: how full-duplex UDP
/// throughput responds to the frame-side topology — DMA engine pairs —
/// alongside the core count. The paper's board is fixed at one DMA
/// pair; this sweep is the what-if a configurable topology exists to
/// ask.
///
/// Each topology point recomposes the SoC (crossbar ports, scratchpad
/// memory map, dispatch sources) through the same builder path the
/// default system takes.
/// Results land in `results/archsweep.json`; every row carries its
/// full resolved configuration (including `"topology"`), so any point
/// can be rebuilt and re-run from the results file alone.
///
/// Run with: `repro archsweep --jobs 8`.
pub fn archsweep(args: &Args) {
    let exp = &args.exp;
    header(
        "Architecture sweep: cores x DMA engines (NicConfig::topology)",
        "the paper's board is 1 DMA pair + 1 MAC; extra DMA pairs probe the next bottleneck",
    );
    let cores = [2usize, 4, 6];
    let engines = [1usize, 2];
    let base = args.configure(NicConfig::default());
    let mut specs = Vec::new();
    for c in cores {
        for e in engines {
            let mut cfg = base;
            cfg.cores = c;
            cfg.dma_engines = e;
            specs.push(RunSpec::at(cfg, &[("cores", &c), ("dma_engines", &e)]));
        }
    }
    let runs = exp.run_all(&specs).expect("valid sweep");

    println!("full-duplex UDP throughput (Gb/s); Ethernet limit = 19.15");
    print!("{:>6}", "cores");
    for e in engines {
        print!(
            " {:>12}",
            format!("{e} DMA pair{}", if e == 1 { "" } else { "s" })
        );
    }
    println!();
    for (ci, c) in cores.iter().enumerate() {
        print!("{c:>6}");
        for ei in 0..engines.len() {
            let s = &runs[ci * engines.len() + ei].stats;
            print!(" {:>12.2}", s.total_udp_gbps());
        }
        println!();
    }
    exp.finish(runs, None).expect("write results");
}
