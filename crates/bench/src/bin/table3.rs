//! Table 3: breakdown of computation bandwidth in instructions per cycle
//! per core, for six cores at 200 MHz at line rate. Writes
//! `results/table3.json` (the IPC breakdown is part of every run's
//! `stats.ipc_breakdown`).

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_cpu::StallBucket;

fn main() {
    let args = Args::parse("table3");
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
