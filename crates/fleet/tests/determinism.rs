//! The fleet engine's determinism contract: per-NIC statistics and the
//! fabric's order-sensitive delivery/drop digest are bit-identical at
//! any shard count and across repeated runs at the same seed, in both
//! dispatch modes. This is the property that makes sharded fleet runs
//! trustworthy — parallelism changes wall-clock time and nothing else.

use nicsim::{DispatchMode, NicConfig};
use nicsim_fleet::{Fleet, FleetConfig, FleetStats};
use nicsim_net::workload::{Arrivals, Pattern, SizeMix, Workload};
use nicsim_net::FabricConfig;
use nicsim_sim::Ps;

fn run(cfg: FleetConfig) -> FleetStats {
    let (warmup, window) = (Ps::from_us(150), Ps::from_us(300));
    let mut fleet = Fleet::new(cfg, warmup + window).expect("valid fleet config");
    let stats = fleet.run_measured(warmup, window);
    // No NIC crashes here, so every window is the fleet's own.
    for (i, s) in stats.per_nic.iter().enumerate() {
        assert_eq!(s.core_ticks, stats.cycles_per_nic, "NIC {i}");
    }
    stats
}

fn base_cfg(dispatch: DispatchMode, shards: usize) -> FleetConfig {
    FleetConfig {
        nics: 5,
        shards,
        nic: NicConfig::builder()
            .cores(2)
            .cpu_mhz(500)
            .dispatch(dispatch)
            .build()
            .expect("valid NIC config"),
        fabric: FabricConfig::default(),
        workload: Workload {
            pattern: Pattern::Uniform,
            sizes: SizeMix::Bimodal {
                small: 90,
                large: 1200,
                small_frac: 0.6,
            },
            arrivals: Arrivals::Poisson,
            fps: 80_000.0,
            seed: 42,
            ..Workload::default()
        },
    }
}

/// Field-by-field equality of two fleet results, with a label naming
/// the pair under comparison. `RunStats` is `PartialEq`, so per-NIC
/// equality is exact bit-identity of every counter and rate.
fn assert_identical(a: &FleetStats, b: &FleetStats, label: &str) {
    assert_eq!(a.per_nic.len(), b.per_nic.len(), "{label}: NIC counts");
    for (i, (x, y)) in a.per_nic.iter().zip(&b.per_nic).enumerate() {
        assert_eq!(x, y, "{label}: NIC {i} stats diverged");
    }
    assert_eq!(a.fabric, b.fabric, "{label}: fabric stats/digest diverged");
    assert_eq!(a.ports, b.ports, "{label}: per-port stats diverged");
    assert_eq!(a.epochs, b.epochs, "{label}: epoch counts diverged");
    assert_eq!(
        a.nic_epochs_skipped, b.nic_epochs_skipped,
        "{label}: skip decisions diverged"
    );
}

#[test]
fn shard_count_is_unobservable() {
    for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
        let reference = run(base_cfg(dispatch, 1));
        assert!(
            reference.fabric.delivered > 0,
            "{dispatch:?}: no fabric traffic — the identity check is vacuous"
        );
        // 5 is the NIC count: every chunk, the coordinator's
        // included, is one NIC.
        for shards in [2usize, 4, 5] {
            let sharded = run(base_cfg(dispatch, shards));
            assert_identical(
                &reference,
                &sharded,
                &format!("{dispatch:?}, {shards} shards vs 1"),
            );
        }
    }
}

#[test]
fn same_seed_replays_exactly() {
    for dispatch in [DispatchMode::Polling, DispatchMode::Interrupt] {
        let first = run(base_cfg(dispatch, 2));
        let second = run(base_cfg(dispatch, 2));
        assert_identical(&first, &second, &format!("{dispatch:?}, repeated seed"));
    }
}

#[test]
fn different_seeds_diverge() {
    // Non-vacuity for the replay test: the digest must actually depend
    // on the traffic, not collapse to a constant.
    let a = run(base_cfg(DispatchMode::Polling, 1));
    let mut cfg = base_cfg(DispatchMode::Polling, 1);
    cfg.workload.seed = 43;
    let b = run(cfg);
    assert_ne!(
        a.fabric.digest, b.fabric.digest,
        "digest is insensitive to the workload seed"
    );
}

#[test]
fn incast_drop_behavior_is_shard_invariant() {
    // Dropping frames exercises the fabric's queue-overflow path; the
    // digest folds drops in order, so identical digests mean identical
    // drop decisions, not just identical counts.
    let mut small_buf = base_cfg(DispatchMode::Polling, 1);
    small_buf.workload.pattern = Pattern::Incast { target: 2 };
    small_buf.workload.sizes = SizeMix::Fixed(1472);
    small_buf.workload.fps = 400_000.0;
    small_buf.fabric = FabricConfig {
        port_buffer_bytes: 4_000,
        ..FabricConfig::default()
    };
    let reference = run(small_buf);
    assert!(
        reference.fabric.dropped > 0,
        "incast never overflowed the egress buffer — drop identity is vacuous"
    );
    let mut sharded_cfg = small_buf;
    sharded_cfg.shards = 4;
    let sharded = run(sharded_cfg);
    assert_identical(&reference, &sharded, "incast drops, 4 shards vs 1");
}
