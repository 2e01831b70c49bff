//! The paper's headline firmware comparison: lock-based frame ordering
//! at 200 MHz vs the `set`/`update` atomic RMW instructions at 166 MHz.
//!
//! Both configurations saturate full-duplex 10 GbE on maximum-sized
//! frames — which is exactly the point: the RMW instructions buy a 17%
//! clock (and power) reduction at equal service.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example rmw_vs_software
//! ```

use nicsim_cpu::FwFunc;
use nicsim_repro::{Experiment, NicConfig, RunReport};

fn run(exp: &Experiment, label: &str, cfg: NicConfig) -> RunReport {
    let run = exp.run(label, cfg);
    println!(
        "{label}: {:.2} Gb/s duplex at {} MHz x {} cores",
        run.stats.total_udp_gbps(),
        run.config.cpu_mhz,
        run.config.cores
    );
    run
}

fn main() {
    let exp = Experiment::new("rmw_vs_software").quiet();
    let sw = run(&exp, "software-only", NicConfig::software_only_200()).stats;
    let rmw = run(&exp, "RMW-enhanced ", NicConfig::rmw_166()).stats;

    println!();
    println!("send-side ordering overhead per frame (instructions):");
    let swd = sw.instr_per_frame(FwFunc::SendDispatch);
    let rmwd = rmw.instr_per_frame(FwFunc::SendDispatch);
    println!("  software-only: {swd:6.1}   (lock, scan, clear loops)");
    println!("  RMW-enhanced:  {rmwd:6.1}   (single `set` / `update` instructions)");
    println!(
        "  reduction:     {:6.1}% (paper: 51.5%)",
        100.0 * (1.0 - rmwd / swd)
    );

    println!();
    println!("receive-side ordering overhead per frame (instructions):");
    let swr = sw.instr_per_frame(FwFunc::RecvDispatch);
    let rmwr = rmw.instr_per_frame(FwFunc::RecvDispatch);
    println!("  software-only: {swr:6.1}");
    println!("  RMW-enhanced:  {rmwr:6.1}");
    println!(
        "  reduction:     {:6.1}% (paper: 30.8%)",
        100.0 * (1.0 - rmwr / swr)
    );

    println!();
    println!(
        "both saturate the link, so the RMW instructions translate into a \
         {} -> {} MHz clock reduction at equal throughput",
        200, 166
    );
}
