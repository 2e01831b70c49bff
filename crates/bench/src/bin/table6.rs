//! Table 6: cycles spent in each function per packet for the
//! software-only (200 MHz) and RMW-enhanced (166 MHz) configurations.
//! The two runs execute in parallel; writes `results/table6.json`.

use nicsim::NicConfig;
use nicsim_bench::{header, Args};
use nicsim_cpu::FwFunc;
use nicsim_exp::Sweep;

fn main() {
    let args = Args::parse("table6");
    let exp = &args.exp;
    header(
        "Table 6: per-packet cycles by function, software@200 vs RMW@166",
        "paper: RMW cuts send cycles 28.4%, receive cycles 4.7%; both reach line rate",
    );
    let sweep = Sweep::new(NicConfig::default()).axis_configs(
        "firmware",
        [
            (
                "software@200",
                args.configure(NicConfig::software_only_200()),
            ),
            ("rmw@166", args.configure(NicConfig::rmw_166())),
        ],
    );
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
