//! Table 4: bandwidth required / peak / consumed for the instruction
//! memory, scratchpads, and frame memory in the six-core line-rate
//! configuration. Writes `results/table4.json`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_exp::Json;

fn main() {
    let args = Args::parse("table4");
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
