//! Table 2: theoretical peak IPCs of NIC firmware for different
//! processor configurations, from an offline analysis of a dynamic
//! instruction trace of the idealized firmware. Writes
//! `results/table2.json` with the IPC matrix under `"extra"`.

use nicsim::{NicConfig, NullProbe};
use nicsim_bench::{header, to_ilp_trace, Args};
use nicsim_exp::Json;
use nicsim_ilp::{analyze, expand, BranchModel, IssueOrder, PipelineModel, ProcessorConfig};

fn main() {
    let args = Args::parse("table2");
    let exp = &args.exp;
    header(
        "Table 2: theoretical peak IPCs of NIC firmware",
        "trends: in-order prefers hazard removal; out-of-order prefers branch prediction",
    );
    let cfg = args.configure(
        NicConfig::ideal()
            .to_builder()
            .cpu_mhz(300)
            .capture_ilp(true)
            .build()
            .unwrap(),
    );
    let (run, mut sys) = exp.run_with_probe("ideal@300+ilp", cfg, NullProbe);
    let mut events = sys.take_ilp_trace().expect("ILP capture enabled");
    // The IPC limits converge within a few hundred thousand
    // instructions; truncate so the offline analysis stays quick.
    events.truncate(120_000);
    let trace = expand(&to_ilp_trace(&events));
    println!("dynamic trace: {} instructions", trace.len());
    println!(
        "{:<10} {:>6} | {:>8} {:>8} | {:>8} {:>8} {:>8}",
        "Issue", "Width", "PP+PBP", "PP+NoBP", "St+PBP", "St+PBP1", "St+NoBP"
    );
    let mut extra_rows = Vec::new();
    for order in [IssueOrder::InOrder, IssueOrder::OutOfOrder] {
        for width in [1u32, 2, 4] {
            let run_cfg = |pipe, bp| {
                analyze(
                    &trace,
                    ProcessorConfig {
                        order,
                        width,
                        pipeline: pipe,
                        branches: bp,
                    },
                )
            };
            let cells = [
                (
                    "pp_pbp",
                    run_cfg(PipelineModel::Perfect, BranchModel::Perfect),
                ),
                (
                    "pp_nobp",
                    run_cfg(PipelineModel::Perfect, BranchModel::None),
                ),
                (
                    "st_pbp",
                    run_cfg(PipelineModel::Stalls, BranchModel::Perfect),
                ),
                ("st_pbp1", run_cfg(PipelineModel::Stalls, BranchModel::Pbp1)),
                ("st_nobp", run_cfg(PipelineModel::Stalls, BranchModel::None)),
            ];
            let issue = if order == IssueOrder::InOrder {
                "in-order"
            } else {
                "OOO"
            };
            println!(
                "{:<10} {:>6} | {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}",
                issue, width, cells[0].1, cells[1].1, cells[2].1, cells[3].1, cells[4].1,
            );
            let mut row = Json::obj()
                .with("issue", issue)
                .with("width", u64::from(width));
            for (key, ipc) in cells {
                row.set(key, ipc);
            }
            extra_rows.push(row);
        }
    }
    println!("(PP = perfect pipeline, St = 5-stage with stalls)");
    let extra = Json::obj()
        .with("trace_instructions", trace.len())
        .with("peak_ipc", Json::Arr(extra_rows));
    exp.finish(vec![run], Some(extra)).expect("write results");
}
