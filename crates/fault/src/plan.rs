//! The fault plan and its `--faults` grammar. Every fault class is named
//! once, in the field list below; `KEYS`, generated from it, is what
//! `parse`, `spec`, `validate` and `is_noop` walk.

use crate::{SITE_NIC_CRASH_BASE, SITE_NIC_PLAN_BASE};
use nicsim_sim::{Ps, Spec, XorShift64};

/// Most retry attempts a plan may ask for before a failing DMA command
/// aborts ([`FaultPlan::validate`]).
pub const MAX_RETRIES: u32 = 64;

/// What a spec key's value is: how `validate` bounds it, and whether a
/// nonzero value arms a fault class.
#[derive(Clone, Copy)]
enum Kind {
    /// The master seed: any `u64`.
    Seed,
    /// A per-event probability in [0, 1]; nonzero arms its class.
    Prob,
    /// At most [`MAX_RETRIES`]: the draw loops once per retry, and the
    /// backoff shift stops growing at 16 anyway.
    Retries,
    /// Nanoseconds, at most one second: the `<< 16` backoff and the sum
    /// of all retries' backoffs fit a `u64` with room for the clock.
    Ns,
    /// Microseconds, at most 100 seconds: the picosecond value shifted
    /// by 16 still fits a `u64`.
    Us,
    /// A [`Kind::Us`] period; nonzero arms its class.
    Period,
    /// The Pareto shape: finite and not negative.
    Shape,
}

/// One row of the spec grammar: a key, its kind, and its field — set
/// from text, printed, and read as a number (every bound is far below
/// 2^53, so comparing through `f64` is exact where it matters).
struct Key {
    name: &'static str,
    kind: Kind,
    set: fn(&mut FaultPlan, &str) -> bool,
    show: fn(&FaultPlan) -> String,
    num: fn(&FaultPlan) -> f64,
}

/// Declares [`FaultPlan`], its defaults and [`KEYS`] from one list of
/// `"key" Kind => field: type = default` rows, in `spec()` order.
macro_rules! fault_plan {
    ($(#[$plan:meta])* { $($(#[$doc:meta])* $key:literal $kind:ident => $field:ident: $ty:ty = $default:expr,)* }) => {
        $(#[$plan])*
        pub struct FaultPlan {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl Default for FaultPlan {
            fn default() -> FaultPlan {
                FaultPlan { $($field: $default,)* }
            }
        }

        /// The spec keys: [`KEYS`]' names, then the `rate` shorthand.
        const NAMES: &[&str] = &[$($key,)* "rate"];

        /// The spec grammar, one row per [`FaultPlan`] field.
        const KEYS: &[Key] = &[$(Key {
            name: $key,
            kind: Kind::$kind,
            set: |plan, text| text.parse().map(|v| plan.$field = v).is_ok(),
            show: |plan| plan.$field.to_string(),
            num: |plan| plan.$field as f64,
        },)*];
    };
}

fault_plan! {
    /// A complete, `Copy` fault schedule: per-event probabilities, retry and
    /// watchdog policy, and the master seed. Configured through
    /// `NicConfig::builder().faults(..)` or parsed from a `--faults` spec
    /// (see [`FaultPlan::parse`]).
    #[derive(Debug, Clone, Copy, PartialEq)]
    {
        /// Master seed; each site derives its own stream from it.
        "seed" Seed => seed: u64 = 1,
        /// Per-frame probability of a single-bit corruption on the inbound
        /// link (caught by the MAC RX CRC32 check).
        "crc" Prob => link_corrupt: f64 = 0.0,
        /// Per-frame probability of frame truncation on the inbound link.
        "trunc" Prob => link_truncate: f64 = 0.0,
        /// Per-payload-command probability of a transient DMA completion
        /// error (retried with exponential backoff, then aborted).
        "dma" Prob => dma_error: f64 = 0.0,
        /// Per-payload-command probability of a bounded PCI stall.
        "stall" Prob => dma_stall: f64 = 0.0,
        /// Duration of one PCI stall, nanoseconds.
        "stall_ns" Ns => stall_ns: u64 = 200,
        /// Retry attempts before a failing DMA command is aborted.
        "retries" Retries => max_retries: u32 = 4,
        /// Base retry backoff, nanoseconds; attempt `n` waits
        /// `backoff_ns << n`.
        "backoff_ns" Ns => backoff_ns: u64 = 100,
        /// Per-read-burst probability of a correctable single-bit ECC event
        /// in the frame memory.
        "ecc" Prob => ecc: f64 = 0.0,
        /// Microseconds between stuck-assist hangs on each DMA engine
        /// (0 disables hang injection). A hang persists until the watchdog
        /// resets the unit.
        "hang_us" Period => hang_period_us: u64 = 0,
        /// Watchdog timeout, microseconds: how long an assist may sit stuck
        /// (hung with work pending) before `NicSystem` resets it. The same
        /// timeout bounds how long a crashed NIC stays down before the
        /// fleet-level watchdog resets it.
        "watchdog_us" Us => watchdog_us: u64 = 50,
        /// Per-frame probability of a single-bit corruption on a fabric
        /// link (fleet runs; caught by the receiver's MAC RX CRC32 check).
        "fab_crc" Prob => fabric_corrupt: f64 = 0.0,
        /// Microseconds between link flaps on each fabric link (0 disables
        /// flap injection). Each link's flap phase is seeded independently.
        "flap_us" Period => flap_period_us: u64 = 0,
        /// Duration of one link flap, microseconds; frames offered while
        /// the source link is down are dropped into the fabric digest.
        "flap_down_us" Us => flap_down_us: u64 = 5,
        /// Per-frame probability of a transient port-buffer squeeze at the
        /// destination port (admission capacity quartered for that frame).
        "squeeze" Prob => squeeze: f64 = 0.0,
        /// Microseconds between whole-NIC crashes (0 disables). The fleet
        /// watchdog detects a crashed NIC and resets it after `watchdog_us`.
        "crash_us" Period => crash_period_us: u64 = 0,
        /// Per-DMA-write probability of poisoning one byte of the payload
        /// as it lands in host memory (caught by driver frame validation).
        "poison" Prob => host_poison: f64 = 0.0,
        /// Per-handler-dispatch probability of a firmware instruction fault
        /// (handler aborted, core restarts the scan after a fixed penalty).
        "fw" Prob => fw_fault: f64 = 0.0,
        /// Pareto shape for PCI stall durations; 0 keeps the legacy fixed
        /// `stall_ns`. With `alpha > 0` a stall lasts
        /// `stall_ns * u^(-1/alpha)` bounded at 100× `stall_ns`.
        "stall_alpha" Shape => stall_alpha: f64 = 0.0,
    }
}

impl FaultPlan {
    /// A plan applying `rate` uniformly to the per-event fault classes
    /// (link corruption, truncation at a tenth, DMA errors, stalls,
    /// ECC) — the axis the `fault_sweep` bench walks, and what the
    /// `rate=` shorthand sets.
    pub fn with_rate(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            link_corrupt: rate,
            link_truncate: rate * 0.1,
            dma_error: rate,
            dma_stall: rate,
            ecc: rate,
            ..FaultPlan::default()
        }
    }

    /// Parse a `--faults` spec: a comma-separated `key=value` list in
    /// any order, each key at most once ([`Spec`]).
    ///
    /// | key           | meaning                                    |
    /// |---------------|--------------------------------------------|
    /// | `seed`        | master seed (u64, default 1)               |
    /// | `rate`        | shorthand: sets `crc`, `dma`, `stall`, `ecc` to the value and `trunc` to a tenth; none of those five may be given with it |
    /// | `crc`         | per-frame link corruption probability      |
    /// | `trunc`       | per-frame link truncation probability      |
    /// | `dma`         | per-command transient DMA error probability|
    /// | `stall`       | per-command PCI stall probability          |
    /// | `stall_ns`    | stall duration (default 200, at most 10^9) |
    /// | `retries`     | DMA retry attempts before abort (default 4, at most 64) |
    /// | `backoff_ns`  | base retry backoff (default 100, at most 10^9) |
    /// | `ecc`         | per-read-burst ECC event probability       |
    /// | `hang_us`     | hang injection period, 0 = off (default 0) |
    /// | `watchdog_us` | watchdog timeout (default 50)              |
    /// | `fab_crc`     | per-frame fabric link corruption probability |
    /// | `flap_us`     | fabric link flap period, 0 = off (default 0) |
    /// | `flap_down_us`| flap down duration (default 5)             |
    /// | `squeeze`     | per-frame port-buffer squeeze probability  |
    /// | `crash_us`    | whole-NIC crash period, 0 = off (default 0)|
    /// | `poison`      | per-DMA-write host poison probability      |
    /// | `fw`          | per-dispatch firmware fault probability    |
    /// | `stall_alpha` | Pareto shape for stall durations, 0 = fixed (finite, >= 0) |
    ///
    /// Every `_us` duration is at most 10^8 (100 seconds).
    ///
    /// Example: `--faults seed=7,crc=1e-3,dma=1e-4,hang_us=500`.
    ///
    /// # Errors
    ///
    /// Returns a description naming the first malformed item, or what
    /// [`FaultPlan::validate`] rejects.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut given = Spec::read(spec, NAMES)?;
        let default = FaultPlan::default();
        let rate = given.take(KEYS.len());
        let mut plan = match rate {
            Some(_) => FaultPlan::with_rate(default.seed, given.value("rate", 0.0)?),
            None => default,
        };
        // The classes `rate` sets are the rows it moves off their default.
        let rated = FaultPlan::with_rate(default.seed, 1.0);
        for (row, k) in KEYS.iter().enumerate() {
            let Some(text) = given.take(row) else {
                continue;
            };
            if let Some(r) = rate.filter(|_| (k.num)(&rated) != (k.num)(&default)) {
                return Err(format!("rate={r}: also sets {}, which is given", k.name));
            }
            if !(k.set)(&mut plan, text) {
                return Err(format!("{}={text}: bad value", k.name));
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Check every value against its [`Kind`]'s bounds, naming the first
    /// bad one (in `spec()` order) by its spec key. [`FaultPlan::parse`]
    /// ends here, and so must every other way a plan gets in (the
    /// fields are `pub`).
    ///
    /// # Errors
    ///
    /// Returns `key=value: what it must be`.
    pub fn validate(&self) -> Result<(), String> {
        for k in KEYS {
            let v = (k.num)(self);
            let must = match k.kind {
                Kind::Prob if !(0.0..=1.0).contains(&v) => "probability must be in [0, 1]".into(),
                Kind::Retries if v > f64::from(MAX_RETRIES) => {
                    format!("at most {MAX_RETRIES} retries")
                }
                Kind::Ns if v > 1e9 => "at most one second (1000000000)".into(),
                Kind::Us | Kind::Period if v > 1e8 => "at most 100 seconds (100000000)".into(),
                Kind::Shape if !(v >= 0.0 && v.is_finite()) => {
                    "shape must be finite and >= 0".into()
                }
                _ => continue,
            };
            return Err(format!("{}={}: {must}", k.name, (k.show)(self)));
        }
        Ok(())
    }

    /// The spec string that re-parses to this plan (results metadata).
    pub fn spec(&self) -> String {
        let items: Vec<String> = KEYS
            .iter()
            .map(|k| format!("{}={}", k.name, (k.show)(self)))
            .collect();
        items.join(",")
    }

    /// Whether every fault class is disabled — an all-zeros plan. Armed
    /// plumbing treats such a plan exactly like no plan at all (the
    /// zero-rate fast path): no site state is built, no draws happen,
    /// and the hot loops never branch on fault state.
    pub fn is_noop(&self) -> bool {
        KEYS.iter()
            .filter(|k| matches!(k.kind, Kind::Prob | Kind::Period))
            .all(|k| (k.num)(self) == 0.0)
    }

    /// The per-NIC plan a fleet hands to NIC `nic`: same policy, but a
    /// seed derived through [`SITE_NIC_PLAN_BASE`] so the internal fault
    /// streams of different NICs never correlate. Derived at fleet build
    /// time, so it is invariant across shard counts and dispatch modes.
    pub fn derive_nic(&self, nic: u64) -> FaultPlan {
        let mut rng = XorShift64::for_site(self.seed, SITE_NIC_PLAN_BASE + nic);
        FaultPlan {
            seed: rng.next_u64(),
            ..*self
        }
    }

    /// First crash onset for `nic`: one full period plus a seeded jitter
    /// within a second period, so crashes across the fleet de-phase.
    /// `None` when crash injection is disabled.
    pub fn crash_onset(&self, nic: u64) -> Option<Ps> {
        if self.crash_period_us == 0 {
            return None;
        }
        let period = Ps::from_us(self.crash_period_us);
        let mut rng = XorShift64::for_site(self.seed, SITE_NIC_CRASH_BASE + nic);
        Some(period + Ps(rng.below(period.0.max(1))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DmaFaults, ErrorStats, FabricFaults, SITE_DMA_READ};

    #[test]
    fn parse_roundtrips_through_spec() {
        let plan =
            FaultPlan::parse("seed=9,crc=0.001,dma=0.0002,hang_us=500,watchdog_us=80").unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.link_corrupt, 0.001);
        assert_eq!(plan.hang_period_us, 500);
        assert_eq!(FaultPlan::parse(&plan.spec()).unwrap(), plan);
    }

    /// Results files and `config_from_json` carry these strings; the
    /// literals were taken at the commit before `KEYS` existed.
    #[test]
    fn spec_strings_are_pinned() {
        assert_eq!(
            FaultPlan::default().spec(),
            "seed=1,crc=0,trunc=0,dma=0,stall=0,stall_ns=200,retries=4,backoff_ns=100,ecc=0,\
             hang_us=0,watchdog_us=50,fab_crc=0,flap_us=0,flap_down_us=5,squeeze=0,crash_us=0,\
             poison=0,fw=0,stall_alpha=0"
        );
        // perf/src/workloads.rs's FAULT_SPEC.
        let perf = "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,\
                    squeeze=0.005,crash_us=2000,watchdog_us=60,poison=0.002,fw=0.001,\
                    stall_alpha=1.5";
        assert_eq!(
            FaultPlan::parse(perf).unwrap().spec(),
            "seed=23,crc=0.002,trunc=0.0002,dma=0.002,stall=0.002,stall_ns=200,retries=4,\
             backoff_ns=100,ecc=0.002,hang_us=0,watchdog_us=60,fab_crc=0.01,flap_us=200,\
             flap_down_us=20,squeeze=0.005,crash_us=2000,poison=0.002,fw=0.001,stall_alpha=1.5"
        );
    }

    /// The two hand-written grammar tables and the results-schema list
    /// name everything the code does.
    #[test]
    fn docs_list_every_key() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        for k in KEYS {
            let cell = format!("| `{}`", k.name);
            assert!(include_str!("plan.rs").contains(&cell), "parse: {cell}");
            assert!(experiments.contains(&cell), "EXPERIMENTS.md: {cell}");
        }
        for (row, _) in ErrorStats::default().summary() {
            let listed = experiments
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .any(|word| word == row);
            assert!(listed, "EXPERIMENTS.md: {row}");
        }
    }

    #[test]
    fn parse_rate_shorthand_and_errors() {
        let plan = FaultPlan::parse("seed=2,rate=1e-3").unwrap();
        assert_eq!(plan.link_corrupt, 1e-3);
        assert_eq!(plan.dma_error, 1e-3);
        assert_eq!(plan.ecc, 1e-3);
        assert_eq!(plan.link_truncate, 1e-4);
        assert_eq!(plan.seed, 2);
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("crc=2.0").is_err());
        assert!(FaultPlan::parse("martians=1").is_err());
    }

    #[test]
    fn noop_detection_tracks_every_class() {
        assert!(FaultPlan::default().is_noop());
        assert!(FaultPlan::with_rate(9, 0.0).is_noop());
        for set in [
            |p: &mut FaultPlan| p.link_corrupt = 1e-9,
            |p: &mut FaultPlan| p.link_truncate = 1e-9,
            |p: &mut FaultPlan| p.dma_error = 1e-9,
            |p: &mut FaultPlan| p.dma_stall = 1e-9,
            |p: &mut FaultPlan| p.ecc = 1e-9,
            |p: &mut FaultPlan| p.hang_period_us = 1,
            |p: &mut FaultPlan| p.fabric_corrupt = 1e-9,
            |p: &mut FaultPlan| p.flap_period_us = 1,
            |p: &mut FaultPlan| p.squeeze = 1e-9,
            |p: &mut FaultPlan| p.crash_period_us = 1,
            |p: &mut FaultPlan| p.host_poison = 1e-9,
            |p: &mut FaultPlan| p.fw_fault = 1e-9,
        ] {
            let mut p = FaultPlan::default();
            set(&mut p);
            assert!(!p.is_noop(), "{p:?}");
        }
    }

    #[test]
    fn spec_roundtrip_property_over_random_plans() {
        // xorshift-driven property test: random plans survive a
        // spec() -> parse() round trip bit-exactly (f64 Display is the
        // shortest round-trippable form).
        let mut r = XorShift64::for_site(0xfee1_600d, 99);
        for _ in 0..200 {
            let prob = |r: &mut XorShift64| r.below(1001) as f64 / 1000.0;
            let plan = FaultPlan {
                seed: r.next_u64(),
                link_corrupt: prob(&mut r),
                link_truncate: prob(&mut r),
                dma_error: prob(&mut r),
                dma_stall: prob(&mut r),
                stall_ns: r.below(10_000),
                max_retries: r.below(16) as u32,
                backoff_ns: r.below(10_000),
                ecc: prob(&mut r),
                hang_period_us: r.below(1000),
                watchdog_us: r.below(1000),
                fabric_corrupt: prob(&mut r),
                flap_period_us: r.below(1000),
                flap_down_us: r.below(100),
                squeeze: prob(&mut r),
                crash_period_us: r.below(1000),
                host_poison: prob(&mut r),
                fw_fault: prob(&mut r),
                stall_alpha: r.below(40) as f64 / 10.0,
            };
            let spec = plan.spec();
            assert_eq!(FaultPlan::parse(&spec).unwrap(), plan, "{spec}");
        }
    }

    #[test]
    fn parse_rejects_bad_new_keys() {
        assert!(FaultPlan::parse("fab_crc=1.5").is_err());
        assert!(FaultPlan::parse("squeeze=-0.1").is_err());
        assert!(FaultPlan::parse("poison=2").is_err());
        assert!(FaultPlan::parse("fw=nan").is_err());
        assert!(FaultPlan::parse("stall_alpha=-1").is_err());
        assert!(FaultPlan::parse("flap_us=bogus").is_err());
        let p = FaultPlan::parse("fab_crc=0.01,flap_us=200,squeeze=0.05,crash_us=400").unwrap();
        assert_eq!(p.fabric_corrupt, 0.01);
        assert_eq!(p.flap_period_us, 200);
        assert_eq!(p.squeeze, 0.05);
        assert_eq!(p.crash_period_us, 400);
    }

    #[test]
    fn parse_rejects_values_that_would_wedge_or_overflow() {
        // `retries=4294967295` used to parse and then spin in
        // `draw_command`; the durations used to overflow `Ps::from_us`
        // (a panic in debug, a nonsense period in release); `nan`
        // passed the `< 0.0` check.
        for (spec, key) in [
            ("dma=1,retries=4294967295", "retries"),
            ("retries=65", "retries"),
            ("hang_us=18446744073709551615", "hang_us"),
            ("watchdog_us=18446744073709551615", "watchdog_us"),
            ("flap_us=18446744073709551615", "flap_us"),
            ("flap_down_us=18446744073709551615", "flap_down_us"),
            ("crash_us=18446744073709551615", "crash_us"),
            ("stall_ns=18446744073709551615", "stall_ns"),
            ("backoff_ns=18446744073709551615", "backoff_ns"),
            ("hang_us=100000001", "hang_us"),
            ("stall_ns=1000000001", "stall_ns"),
            ("stall_alpha=nan", "stall_alpha"),
            ("stall_alpha=inf", "stall_alpha"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            let value = spec.rsplit('=').next().unwrap();
            assert!(
                err.starts_with(&format!("{key}=")) && err.to_lowercase().contains(value),
                "{spec}: {err}"
            );
        }
        // The largest legal values run every site's arithmetic without
        // overflow: all 65 attempts fail and every backoff is summed.
        let plan = FaultPlan::parse(
            "dma=1,stall=1,retries=64,stall_ns=1000000000,backoff_ns=1000000000,\
             hang_us=100000000,watchdog_us=100000000,flap_us=100000000,\
             flap_down_us=100000000,crash_us=100000000,stall_alpha=0.01",
        )
        .unwrap();
        let mut d = DmaFaults::new(&plan, SITE_DMA_READ, Ps::ZERO);
        let o = d.draw_command();
        assert!(o.abort && o.attempts == 65);
        assert!(
            Ps::from_ms(10_000) + o.delay > o.delay,
            "room for the clock"
        );
        let _ = FabricFaults::new(&plan, 2);
        assert!(plan.crash_onset(0).unwrap() >= Ps::from_ms(100_000));
    }

    #[test]
    fn derived_nic_plans_decorrelate_but_replay() {
        let plan = FaultPlan::with_rate(7, 1e-3);
        let a = plan.derive_nic(0);
        let b = plan.derive_nic(1);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a, plan.derive_nic(0), "derivation must replay");
        assert_eq!(a.dma_error, plan.dma_error, "policy fields carry over");
    }

    #[test]
    fn crash_onsets_are_seeded_and_bounded() {
        let plan = FaultPlan {
            crash_period_us: 100,
            ..FaultPlan::default()
        };
        assert_eq!(FaultPlan::default().crash_onset(0), None);
        let a = plan.crash_onset(0).unwrap();
        let b = plan.crash_onset(1).unwrap();
        assert_eq!(a, plan.crash_onset(0).unwrap());
        assert_ne!(a, b);
        for t in [a, b] {
            assert!(t >= Ps::from_us(100) && t < Ps::from_us(200), "{t:?}");
        }
    }
}
