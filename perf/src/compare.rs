//! `perf compare <a.json> <b.json>`: one row per workload x end-to-end
//! metric, judged by the metric's own bound. `a` is the base of every
//! ratio.

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use nicsim_exp::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The repetitions of one side scatter by more than the bound, so
    /// a difference this size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against base `a`. `resolution` is how far the lower
/// quartile sits above the fastest repetition, as a share of it, on
/// the noisier side; simulated (`exact`) metrics at the same seed
/// allow no worsening at all.
pub fn classify(m: &EndToEnd, a: f64, b: f64, resolution: f64, same_seed: bool) -> Verdict {
    let worse_by = match m.better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    };
    if m.exact && same_seed {
        return if worse_by > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    if resolution > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn value(doc: &Json, workload: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `(q1 - min) / q1` of the host-time summary behind `metric`.
fn resolution(doc: &Json, workload: &str, metric: &str) -> f64 {
    let key = match metric {
        "sim_mcps" | "host_us_per_frame" => "run_s",
        "setup_s" => "setup_s",
        _ => return 0.0,
    };
    let field = |name: &str| {
        doc.get("workloads")?
            .get(workload)?
            .get("host_time")?
            .get(key)?
            .get(name)?
            .as_f64()
    };
    match (field("q1"), field("min")) {
        (Some(q1), Some(min)) if q1 > 0.0 => (q1 - min) / q1,
        _ => 0.0,
    }
}

/// Print the comparison; `Ok(true)` when no row regressed.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let seed = |d: &Json| d.get("provenance")?.get("seed")?.as_f64();
    let same_seed = seed(a).is_some() && seed(a) == seed(b);
    for (side, doc) in [("a", a), ("b", b)] {
        if doc.get("comparable") != Some(&Json::Bool(true)) {
            println!("note: {side} is a smoke run and not comparable");
        }
    }
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>12}  verdict",
        "workload", "metric", "a", "b", "b/a (base a)"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (value(a, w.name, m.name), value(b, w.name, m.name)) else {
                return Err(format!("{} {} missing from a result file", w.name, m.name));
            };
            let res = resolution(a, w.name, m.name).max(resolution(b, w.name, m.name));
            let verdict = classify(m, va, vb, res, same_seed);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<16} {:<18} {:>14.6} {:>14.6} {:>12.4}  {}",
                w.name,
                m.name,
                va,
                vb,
                vb / va,
                verdict.as_str()
            );
        }
        let digest = |d: &'_ Json| -> Option<String> {
            let hex = d
                .get("workloads")?
                .get(w.name)?
                .get("sim_digest")?
                .as_str()?;
            Some(hex.to_string())
        };
        if digest(a) != digest(b) {
            let why = if same_seed {
                "model changed"
            } else {
                "seeds differ"
            };
            println!(
                "{:<16} sim_digest {} -> {}: {why}",
                w.name,
                digest(a).unwrap_or_default(),
                digest(b).unwrap_or_default()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::end_to_end;

    #[test]
    fn classifies_a_regression_a_tie_and_noise() {
        let mcps = end_to_end("sim_mcps").unwrap();
        let (inside, beyond) = (mcps.bound / 2.0, mcps.bound * 1.5);
        // Slower by more than the bound, tight repetitions: regressed.
        assert_eq!(
            classify(mcps, 10.0, 10.0 * (1.0 - beyond), 0.01, true),
            Verdict::Regressed
        );
        // A tie, and a wobble inside the bound: ok.
        assert_eq!(classify(mcps, 10.0, 10.0, 0.01, true), Verdict::Ok);
        assert_eq!(
            classify(mcps, 10.0, 10.0 * (1.0 - inside), 0.01, true),
            Verdict::Ok
        );
        // Faster is never a regression.
        assert_eq!(classify(mcps, 10.0, 20.0, 0.01, true), Verdict::Ok);
        // Repetitions scattered wider than the bound: cannot tell.
        assert_eq!(
            classify(mcps, 10.0, 10.0 * (1.0 - beyond), beyond, true),
            Verdict::Unresolved
        );

        let us = end_to_end("host_us_per_frame").unwrap();
        assert_eq!(
            classify(us, 1.0, 1.0 + us.bound * 1.5, 0.0, true),
            Verdict::Regressed
        );
        assert_eq!(classify(us, 1.0, 0.5, 0.0, true), Verdict::Ok);
    }

    #[test]
    fn simulated_metrics_must_be_equal_at_one_seed() {
        let gbps = end_to_end("sim_udp_gbps").unwrap();
        assert_eq!(classify(gbps, 19.146, 19.146, 0.0, true), Verdict::Ok);
        assert_eq!(
            classify(gbps, 19.146, 19.145, 0.0, true),
            Verdict::Regressed
        );
        // Across seeds the fleet's goodput moves; the bound applies.
        assert_eq!(classify(gbps, 19.146, 19.145, 0.0, false), Verdict::Ok);
    }
}
