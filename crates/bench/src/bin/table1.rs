//! Table 1: average instructions and data accesses to send and receive
//! one Ethernet frame, measured on the idealized (single-core,
//! synchronization-free) firmware. Writes `results/table1.json`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_cpu::FwFunc;

fn main() {
    let args = Args::parse("table1");
    let exp = &args.exp;
    header(
        "Table 1: per-frame instructions and data accesses (idealized firmware)",
        "anchors: send 282 instr (229 MIPS), receive 253 instr (206 MIPS) at 812,744 fps",
    );
    // A 300 MHz single core is near saturation for the ideal firmware,
    // matching the paper's methodology of profiling the loaded firmware.
    let cfg = args.configure(
        NicConfig::ideal()
            .to_builder()
            .cpu_mhz(300)
            .build()
            .unwrap(),
    );
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
