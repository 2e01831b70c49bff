//! The engine's central guarantee: a list of runs produces
//! bit-identical statistics whether it executes serially or across a
//! worker pool. Each `NicSystem` is single-threaded and deterministic,
//! and the engine stores results by list index, so the only way this
//! can fail is a scheduling bug — which is exactly what the test guards.

use nicsim::NicConfig;
use nicsim_exp::{stats_to_json, Experiment, RunSpec};

fn specs() -> Vec<RunSpec> {
    // Four cheap configurations: small core counts keep the simulated
    // windows fast in debug builds while still exercising distinct
    // firmware schedules per run.
    let mut specs = Vec::new();
    for cores in [1usize, 2] {
        for cpu_mhz in [100u64, 166] {
            let mut cfg = NicConfig::default();
            (cfg.cores, cfg.cpu_mhz) = (cores, cpu_mhz);
            specs.push(RunSpec::at(
                cfg,
                &[("cores", &cores), ("cpu_mhz", &cpu_mhz)],
            ));
        }
    }
    specs
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let run = |name, jobs| {
        let exp = Experiment::new(name).windows_ms(1, 1).quiet().jobs(jobs);
        exp.run_all(&specs()).expect("valid specs")
    };
    let serial = run("determinism-serial", 1);
    let parallel = run("determinism-parallel", 4);

    assert_eq!(serial.len(), 4);
    assert_eq!(parallel.len(), 4);
    for ((s, p), spec) in serial.iter().zip(&parallel).zip(specs()) {
        // The order given regardless of completion order...
        assert_eq!(s.label, spec.label);
        assert_eq!(p.label, spec.label);
        assert_eq!(s.axes, p.axes);
        // ...and byte-identical serialized statistics: shortest-roundtrip
        // float formatting means bit-identical stats give identical JSON.
        assert_eq!(
            stats_to_json(&s.stats).pretty(),
            stats_to_json(&p.stats).pretty(),
            "run '{}' diverged between serial and parallel execution",
            s.label
        );
    }
}
