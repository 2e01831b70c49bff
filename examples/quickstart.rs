//! Quickstart: build the paper's headline NIC configuration — six
//! single-issue cores and a four-bank scratchpad at 166 MHz with the
//! RMW-enhanced firmware — and drive full-duplex line-rate streams of
//! maximum-sized UDP datagrams through it.
//!
//! Run with:
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nicsim_repro::{Experiment, NicConfig};

fn main() {
    let cfg = NicConfig::rmw_166();
    println!(
        "configuration: {} cores @ {} MHz, {} scratchpad banks, {:?} firmware",
        cfg.cores, cfg.cpu_mhz, cfg.banks, cfg.mode
    );

    // Warm the pipeline up, then measure a steady-state window. The
    // engine validates every frame byte-for-byte and in order.
    let exp = Experiment::new("quickstart").quiet();
    let run = exp.run("rmw@166", cfg);
    let stats = &run.stats;

    println!(
        "transmit:  {:7.2} Gb/s UDP payload ({} frames)",
        stats.tx_udp_gbps, stats.tx_frames
    );
    println!(
        "receive:   {:7.2} Gb/s UDP payload ({} frames)",
        stats.rx_udp_gbps, stats.rx_frames
    );
    println!(
        "total:     {:7.2} Gb/s of the 19.15 Gb/s duplex Ethernet limit",
        stats.total_udp_gbps()
    );
    println!("per-core IPC: {:.2} (paper: 0.72)", stats.ipc());
    println!(
        "scratchpad bandwidth: {:.1} Gb/s; frame memory: {:.1} Gb/s",
        stats.scratchpad_gbps, stats.frame_mem_gbps
    );
}
