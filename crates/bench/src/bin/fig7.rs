//! Figure 7: full-duplex UDP throughput while scaling core frequency and
//! the number of processors (maximum-sized frames, software-only
//! firmware as in §6.1).
//!
//! The 31 runs are independent, so they execute across the engine's
//! worker pool: `cargo run --release --bin fig7 -- --jobs 8`. Results
//! land in `results/fig7.json`.

use nicsim::{FwMode, NicConfig};
use nicsim_bench::{header, traced_run, Args};
use nicsim_exp::{RunSpec, Sweep};

fn main() {
    let args = Args::parse("fig7");
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
    if let Some(path) = exp.trace_path() {
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
