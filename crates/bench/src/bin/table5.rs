//! Table 5: execution profiles comparing frame-ordering methods —
//! instructions and memory accesses per packet for the ideal,
//! software-only, and RMW-enhanced firmware. The three runs execute in
//! parallel; writes `results/table5.json`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_cpu::FwFunc;
use nicsim_exp::Sweep;

fn main() {
    let args = Args::parse("table5");
    let exp = &args.exp;
    header(
        "Table 5: per-packet instructions / accesses by ordering method",
        "RMW cuts send dispatch+ordering instr by 51.5%, recv by 30.8%; accesses by 65.0%/35.2%",
    );
    let sweep = Sweep::new(NicConfig::default()).axis_configs(
        "firmware",
        [
            (
                "ideal@300",
                args.configure(
                    NicConfig::ideal()
                        .to_builder()
                        .cpu_mhz(300)
                        .build()
                        .unwrap(),
                ),
            ),
            (
                "software@200",
                args.configure(NicConfig::software_only_200()),
            ),
            ("rmw@166", args.configure(NicConfig::rmw_166())),
        ],
    );
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
