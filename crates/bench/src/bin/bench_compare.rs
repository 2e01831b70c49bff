//! Diff two `BENCH_simspeed.json` result files point by point.
//!
//! Usage: `bench_compare <baseline.json> <candidate.json> [--strict[=TOL]]`
//!
//! Rows are matched by their `point` label inside `extra.kernels`; for
//! each match the tool prints the kernel speedup and absolute
//! cycles-per-host-second from both files with relative deltas.
//! Points present in only one file are listed so a renamed or dropped
//! benchmark row can't slip through a diff unnoticed.
//!
//! By default the comparison is informational (exit 0): absolute
//! wall-clock numbers from different hosts — or different loads on the
//! same host — are not comparable at gate precision, and the simspeed
//! binary already enforces the in-process floors. `--strict` turns a
//! speedup drop beyond TOL (default 0.10, i.e. 10%) into a non-zero
//! exit for same-host A/B runs.

use nicsim_exp::json::{parse, Json};
use std::process::exit;

struct Row {
    speedup: f64,
    cps: f64,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (Some(base_path), Some(cand_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_compare <baseline.json> <candidate.json> [--strict[=TOL]]");
        exit(2);
    };
    let strict_tol = match args.next().as_deref() {
        None => None,
        Some("--strict") => Some(0.10),
        Some(s) if s.starts_with("--strict=") => match s["--strict=".len()..].parse() {
            Ok(t) => Some(t),
            Err(_) => {
                eprintln!("bench_compare: bad tolerance in {s}");
                exit(2);
            }
        },
        Some(s) => {
            eprintln!("bench_compare: unknown argument {s}");
            exit(2);
        }
    };

    let base = load(&base_path);
    let cand = load(&cand_path);
    println!("baseline:  {base_path}");
    println!("candidate: {cand_path}");
    println!(
        "{:>36} {:>8} {:>8} {:>7} {:>9} {:>9} {:>7}",
        "point", "spd old", "spd new", "delta", "Mcps old", "Mcps new", "delta"
    );

    let mut regressions = Vec::new();
    for (label, b) in &base {
        let Some(c) = cand.iter().find(|(l, _)| l == label).map(|(_, r)| r) else {
            println!("{label:>36} only in baseline");
            continue;
        };
        let spd_delta = rel(b.speedup, c.speedup);
        let cps_delta = rel(b.cps, c.cps);
        println!(
            "{:>36} {:>7.2}x {:>7.2}x {:>+6.1}% {:>9.1} {:>9.1} {:>+6.1}%",
            label,
            b.speedup,
            c.speedup,
            spd_delta * 100.0,
            b.cps / 1e6,
            c.cps / 1e6,
            cps_delta * 100.0
        );
        if let Some(tol) = strict_tol {
            if spd_delta < -tol {
                regressions.push(format!(
                    "{label}: speedup {:.2}x -> {:.2}x ({:+.1}%)",
                    b.speedup,
                    c.speedup,
                    spd_delta * 100.0
                ));
            }
        }
    }
    for (label, _) in &cand {
        if !base.iter().any(|(l, _)| l == label) {
            println!("{label:>36} only in candidate");
        }
    }

    if !regressions.is_empty() {
        for r in &regressions {
            eprintln!("REGRESSED: {r}");
        }
        exit(1);
    }
}

fn rel(old: f64, new: f64) -> f64 {
    (new - old) / old.max(1e-9)
}

/// The `(point, row)` list from one results file, in file order.
fn load(path: &str) -> Vec<(String, Row)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_compare: {path}: {e}");
        exit(2);
    });
    let doc = parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_compare: {path}: invalid JSON: {e}");
        exit(2);
    });
    let Some(points) = doc
        .get("extra")
        .and_then(|e| e.get("kernels"))
        .and_then(Json::as_arr)
    else {
        eprintln!("bench_compare: {path}: no extra.kernels array (not a simspeed results file?)");
        exit(2);
    };
    points
        .iter()
        .filter_map(|p| {
            let label = p.get("point")?.as_str()?.to_string();
            Some((
                label,
                Row {
                    speedup: p.get("speedup")?.as_f64()?,
                    cps: p.get("cycles_per_host_sec")?.as_f64()?,
                },
            ))
        })
        .collect()
}
