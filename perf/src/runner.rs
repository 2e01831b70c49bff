//! `perf run`: every workload in a fresh child process, one at a time,
//! then the isolated kernels, then `perf/results/latest.json` with the
//! provenance of the numbers beside them.

use crate::kernels;
use crate::measure::{self, results_dir};
use crate::spec::{PER_LAYER, WORKLOADS};
use nicsim_exp::Json;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// First line of a command's standard output, if it ran and succeeded.
fn first_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    Some(text.lines().next().unwrap_or("").trim().to_string())
}

/// Where the numbers came from. `git` entries are null outside a
/// repository (a driver's checkout is not one).
fn provenance(args: &RunArgs) -> Json {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = |rest: &[&str]| first_line(Command::new("git").arg("-C").arg(&repo).args(rest));
    let head = git(&["rev-parse", "HEAD"]);
    // Dirty ignoring the benchmark's own output directory.
    let dirty = head.as_ref().and_then(|_| {
        git(&["status", "--porcelain", "--", ".", ":(exclude)perf/results"])
            .map(|line| !line.is_empty())
    });
    Json::obj()
        .with("git_head", head)
        .with("dirty", dirty)
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        )
        .with("rustc", first_line(Command::new("rustc").arg("-V")))
        .with("seed", args.seed)
        .with("seconds_per_workload", args.seconds)
}

/// Run everything; `Ok(true)` when every check passed.
pub fn run(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = results_dir();
    let started = Instant::now();
    let mut all_correct = true;
    let mut workloads = Json::obj();
    for w in &WORKLOADS {
        let detail_path = dir.join(format!("{}.json", w.name));
        // A child that dies must not be mistaken for its predecessor.
        let _ = std::fs::remove_file(&detail_path);
        let t0 = Instant::now();
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--trace", "both"])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: cannot start child: {e}", w.name))?;
        println!(
            "{:<16} finished in {:.1} s",
            w.name,
            t0.elapsed().as_secs_f64()
        );
        if !status.success() {
            eprintln!("FAIL: {}: child exited with {status}", w.name);
            all_correct = false;
        }
        match std::fs::read_to_string(&detail_path) {
            Ok(text) => {
                let detail =
                    Json::parse(&text).map_err(|e| format!("{}: {e}", detail_path.display()))?;
                workloads.set(w.name, detail);
            }
            Err(e) => {
                eprintln!("FAIL: {}: no result written ({e})", w.name);
                all_correct = false;
            }
        }
    }

    let mut kernel_json = Json::obj();
    for (name, value) in kernels::run_all(args.smoke) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .expect("kernel metrics are named in spec")
            .unit;
        measure::print_metric("kernels", name, value, unit);
        kernel_json.set(name, measure::metric(value, unit));
    }

    let latest = Json::obj()
        .with("schema", "nicsim-perf/v1")
        .with("comparable", !args.smoke)
        .with("correct", all_correct)
        .with("provenance", provenance(args))
        .with("workloads", workloads)
        .with("kernels", kernel_json);
    let path = dir.join("latest.json");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::write(&path, latest.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} after {:.1} s",
        path.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}
