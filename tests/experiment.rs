//! Integration tests for the experiment engine as exposed through the
//! `nicsim_repro` facade: validated configuration building, the unified
//! `Experiment::run`/`run_all` entry points, `RunSpec` labels, and the
//! structured JSON results file.

use nicsim_repro::{ConfigError, Experiment, Json, NicConfig, NicSystem, RunSpec, SCHEMA};

#[test]
fn builder_rejects_invalid_configurations() {
    assert_eq!(
        NicConfig::builder().cores(0).build(),
        Err(ConfigError::ZeroCores)
    );
    assert_eq!(
        NicConfig::builder().banks(0).build(),
        Err(ConfigError::ZeroBanks)
    );
    assert_eq!(
        NicConfig::builder().udp_payload(0).build(),
        Err(ConfigError::ZeroPayload)
    );
    assert_eq!(
        NicConfig::builder().udp_payload(1473).build(),
        Err(ConfigError::PayloadTooLarge { payload: 1473 })
    );
    assert_eq!(
        NicConfig::builder()
            .mode(nicsim_repro::FwMode::Ideal)
            .cores(6)
            .build(),
        Err(ConfigError::IdealMultiCore { cores: 6 })
    );
    let cfg = NicConfig::builder().cores(4).cpu_mhz(200).build().unwrap();
    assert_eq!(cfg.cores, 4);
    assert_eq!(cfg.cpu_mhz, 200);
}

#[test]
fn builder_finish_propagates_validation_errors() {
    let mut bad = NicConfig::default();
    bad.cores = 0;
    assert!(matches!(
        NicSystem::build(bad).finish(),
        Err(ConfigError::ZeroCores)
    ));
    assert!(NicSystem::build(NicConfig::default()).finish().is_ok());
}

#[test]
fn run_and_results_file_round_trip() {
    let out_dir = std::env::temp_dir().join(format!("nicsim-exp-test-{}", std::process::id()));
    let exp = Experiment::new("facade-smoke")
        .windows_ms(1, 1)
        .quiet()
        .jobs(2)
        .out_dir(&out_dir);

    let cfg = NicConfig::builder().cores(2).cpu_mhz(125).build().unwrap();
    let run = exp.run("run", cfg);
    assert_eq!(run.label, "run");
    assert!(run.stats.tx_frames > 0, "warmed-up run must move frames");

    let specs: Vec<RunSpec> = [1usize, 2]
        .into_iter()
        .map(|cores| {
            let mut point = cfg;
            point.cores = cores;
            RunSpec::at(point, &[("cores", &cores)])
        })
        .collect();
    let runs = exp.run_all(&specs).expect("valid specs");
    let report = exp.finish(runs, None).expect("write results file");
    let path = out_dir.join("facade-smoke.json");

    let text = std::fs::read_to_string(&path).expect("read results file");
    let doc = Json::parse(&text).expect("results file is valid JSON");
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    assert_eq!(
        doc.get("experiment").and_then(Json::as_str),
        Some("facade-smoke")
    );
    let runs = doc.get("runs").and_then(Json::as_arr).expect("runs array");
    assert_eq!(runs.len(), 2);
    for (json, run) in runs.iter().zip(&report.runs) {
        assert_eq!(
            json.get("label").and_then(Json::as_str),
            Some(run.label.as_str())
        );
        let cores = json
            .get("config")
            .and_then(|c| c.get("cores"))
            .and_then(Json::as_f64);
        assert_eq!(cores, Some(run.config.cores as f64));
        let gbps = json
            .get("stats")
            .and_then(|s| s.get("total_udp_gbps"))
            .and_then(Json::as_f64);
        assert_eq!(gbps, Some(run.stats.total_udp_gbps()));
    }

    std::fs::remove_dir_all(&out_dir).ok();
}

/// Nested loops give a row-major grid, and `RunSpec::at` labels each
/// point `"axis=value,…"` with its coordinates in axis order.
#[test]
fn sweep_labels_expand_row_major() {
    let mut specs = Vec::new();
    for cores in [1usize, 2] {
        for cpu_mhz in [100u64, 200] {
            let mut cfg = NicConfig::default();
            (cfg.cores, cfg.cpu_mhz) = (cores, cpu_mhz);
            specs.push(RunSpec::at(
                cfg,
                &[("cores", &cores), ("cpu_mhz", &cpu_mhz)],
            ));
        }
    }
    let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "cores=1,cpu_mhz=100",
            "cores=1,cpu_mhz=200",
            "cores=2,cpu_mhz=100",
            "cores=2,cpu_mhz=200",
        ]
    );
    assert_eq!((specs[2].cfg.cores, specs[2].cfg.cpu_mhz), (2, 100));
    assert_eq!(
        specs[1].axes,
        [
            ("cores".to_string(), "1".to_string()),
            ("cpu_mhz".to_string(), "200".to_string()),
        ]
    );
    let single = RunSpec::single("cpu_mhz=800,cores=1", NicConfig::default());
    assert_eq!(single.label, "cpu_mhz=800,cores=1");
    assert!(single.axes.is_empty());
}

/// `run_all` checks every configuration before the first run starts:
/// an invalid spec anywhere in the list fails the whole call.
#[test]
fn invalid_sweep_point_fails_before_running() {
    let mut bad = NicConfig::default();
    bad.cores = 0;
    let specs = [
        RunSpec::at(NicConfig::default(), &[("cores", &6)]),
        RunSpec::at(bad, &[("cores", &0)]),
    ];
    let exp = Experiment::new("facade-invalid").quiet();
    assert_eq!(exp.run_all(&specs).unwrap_err(), ConfigError::ZeroCores);
}

/// Every run of every committed results file still rebuilds through
/// `config_from_json` — what the file's `config` object is for — and
/// every fleet workload it records re-parses to the same spec.
#[test]
fn committed_results_reload() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let (mut runs, mut workloads) = (0, 0);
    for entry in std::fs::read_dir(dir).expect("results/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        for run in doc.get("runs").and_then(Json::as_arr).expect("runs array") {
            let config = run.get("config").expect("run has a config");
            if let Err(e) = nicsim_repro::exp::config_from_json(config) {
                panic!("{}: {e}", path.display());
            }
            runs += 1;
        }
        // A fleet section records its workload as the spec that rebuilds it.
        if let Some(Json::Obj(sections)) = doc.get("extra") {
            for (name, section) in sections {
                if let Some(spec) = section.get("workload").and_then(Json::as_str) {
                    let parsed = nicsim_net::Workload::parse(spec).map(|w| w.spec());
                    assert_eq!(parsed.as_deref(), Ok(spec), "{}: {name}", path.display());
                    workloads += 1;
                }
            }
        }
    }
    assert!(runs >= 84, "only {runs} runs under results/");
    assert!(
        workloads >= 2,
        "only {workloads} workload specs under results/"
    );
}
