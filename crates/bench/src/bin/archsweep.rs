//! Architecture sweep over `NicConfig::topology`: how full-duplex UDP
//! throughput responds to the frame-side topology — DMA engine pairs —
//! alongside the core count. The paper's board is fixed at one DMA
//! pair; this sweep is the what-if a configurable topology exists to
//! ask.
//!
//! Each topology point recomposes the SoC (crossbar ports, scratchpad
//! memory map, dispatch sources) through the same builder path the
//! default system takes.
//! Results land in `results/archsweep.json`; every row carries its
//! full resolved configuration (including `"topology"`), so any point
//! can be rebuilt and re-run from the results file alone.
//!
//! Run with: `cargo run --release --bin archsweep -- --jobs 8`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_exp::Sweep;

fn main() {
    let args = Args::parse("archsweep");
    let exp = &args.exp;
    header(
        "Architecture sweep: cores x DMA engines (NicConfig::topology)",
        "the paper's board is 1 DMA pair + 1 MAC; extra DMA pairs probe the next bottleneck",
    );
    let cores = [2usize, 4, 6];
    let engines = [1usize, 2];
    let base = args.configure(NicConfig::default());
    let sweep = Sweep::new(base)
        .axis("cores", cores, |cfg, v| cfg.cores = v)
        .axis("dma_engines", engines, |cfg, v| {
            cfg.topology.dma_engines = v;
        });
    let report = exp.sweep(&sweep);

    println!("full-duplex UDP throughput (Gb/s); Ethernet limit = 19.15");
    print!("{:>6}", "cores");
    for e in engines {
        print!(
            " {:>12}",
            format!("{e} DMA pair{}", if e == 1 { "" } else { "s" })
        );
    }
    println!();
    // Row-major over (cores, dma_engines): the engine axis varies fastest.
    for (ci, c) in cores.iter().enumerate() {
        print!("{c:>6}");
        for ei in 0..engines.len() {
            let s = &report.runs[ci * engines.len() + ei].stats;
            print!(" {:>12.2}", s.total_udp_gbps());
        }
        println!();
    }
    exp.write(&report).expect("write results");
}
