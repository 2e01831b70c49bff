//! The `key=value` grammar behind `--workload` and `--faults`
//! (`nicsim_sim::Spec`), tested through both parsers: key order never
//! changes the result, no input panics, and every accepted spec
//! round-trips through `spec()`.

use nicsim_fault::FaultPlan;
use nicsim_net::{Arrivals, Pattern, SizeMix, Workload};
use nicsim_sim::XorShift64;

/// Every valid workload spec string the tree holds (tests, docs,
/// scripts, and the two `spec()` strings `results/fleet.json` records).
const WORKLOAD_SPECS: [&str; 18] = [
    "pattern=incast,target=3,fps=400000,size=256,seed=9",
    "pattern=hotspot,target=1,fraction=0.8,arrivals=bursty,burst=8",
    "pareto_min=64,alpha=1.5,arrivals=poisson",
    "reliable=1,rto_us=30",
    "reliable=0",
    "reliable=1,rto_us=100000000",
    "pattern=incast,target=9",
    "fps=1.4e7",
    "pattern=incast,target=0,fps=400000,size=1472,seed=7",
    "pattern=incast,target=0",
    "pattern=incast,target=0,fps=2e5",
    "pattern=hotspot,target=0,fraction=0.7,arrivals=poisson,fps=2e5",
    "pattern=incast,target=0,fps=4e5",
    "reliable=1,rto_us=30,fps=1e5",
    "pattern=uniform,size=1472,arrivals=cbr,fps=100000,seed=1,reliable=0,rto_us=50",
    "pattern=incast,target=0,size=1472,arrivals=cbr,fps=400000,seed=1,reliable=0,rto_us=50",
    "pattern=permutation,shift=8",
    "pattern=permutation,shift=9",
];

/// Every valid `--faults` spec string the tree holds.
const FAULT_SPECS: [&str; 17] = [
    "seed=9,crc=0.001,dma=0.0002,hang_us=500,watchdog_us=80",
    "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,squeeze=0.005,\
     crash_us=2000,watchdog_us=60,poison=0.002,fw=0.001,stall_alpha=1.5",
    "seed=23,rate=0.002,fab_crc=0.01,flap_us=200,flap_down_us=20,squeeze=0.005,\
     crash_us=180,watchdog_us=60,poison=0.002,fw=0.001,stall_alpha=1.5",
    "seed=2,rate=1e-3",
    "fab_crc=0.01,flap_us=200,squeeze=0.05,crash_us=400",
    "dma=1,stall=1,retries=64,stall_ns=1000000000,backoff_ns=1000000000,\
     hang_us=100000000,watchdog_us=100000000,flap_us=100000000,\
     flap_down_us=100000000,crash_us=100000000,stall_alpha=0.01",
    "hang_us=1,watchdog_us=2",
    "seed=1,crc=0.05",
    "seed=3,fab_crc=1e-3,flap_us=200,squeeze=1e-2,crash_us=500,poison=1e-4,fw=1e-5,\
     stall_alpha=1.2",
    "seed=31,fab_crc=0.02",
    "seed=41,fab_crc=0.01,crc=0.01,dma=0.01,crash_us=150,watchdog_us=40,stall_alpha=0",
    "seed=5,crash_us=120,watchdog_us=50",
    "seed=5,dma=0.05,stall=0.05,hang_us=40,watchdog_us=5,poison=0.02,crc=0.02,stall_alpha=0",
    "seed=7,crc=1e-3,dma=1e-4",
    "seed=99,rate=0",
    "seed=1,rate=1e-3",
    "seed=42,retries=1",
];

/// The workload keys, which the parser keeps private.
const WORKLOAD_KEYS: &str = "pattern shift target fraction size small large small_frac \
                             pareto_min alpha arrivals burst fps seed reliable rto_us";

/// Values a mutation may put in place of a valid one.
const VALUES: [&str; 18] = [
    "0",
    "1",
    "-1",
    "2",
    "0.5",
    "1e-3",
    "64",
    "1472",
    "1e99",
    "nan",
    "inf",
    "18446744073709551615",
    "",
    "x",
    "uniform",
    "permutation",
    "hotspot",
    "bursty",
];

/// The `i`-th of the `items.len()!` orders of `items` (`i` read as a
/// mixed-radix number), joined back into a spec.
fn nth_order(items: &[&str], mut i: u64) -> String {
    let mut left = items.to_vec();
    let mut out = Vec::new();
    while !left.is_empty() {
        let n = left.len() as u64;
        out.push(left.remove((i % n) as usize));
        i /= n;
    }
    out.join(",")
}

/// Every order of each spec when there are at most 5,040, else 2,000
/// drawn at random, paired with the spec.
fn orders<'a>(specs: &[&'a str], r: &mut XorShift64) -> Vec<(&'a str, String)> {
    let mut out = Vec::new();
    for &spec in specs {
        let items: Vec<&str> = spec.split(',').collect();
        let count: u64 = (1..=items.len() as u64).product();
        let picks: Vec<u64> = if count <= 5040 {
            (0..count).collect()
        } else {
            (0..2000).map(|_| r.below(count)).collect()
        };
        out.extend(picks.into_iter().map(|i| (spec, nth_order(&items, i))));
    }
    out
}

/// Random bytes, mostly from the grammar's own alphabet.
fn noise(r: &mut XorShift64) -> String {
    const ALPHABET: &[u8] = b"=,. -+e0123456789abcdefghijklmnopqrstuvwxyz_";
    let len = r.below(48) as usize;
    let bytes: Vec<u8> = (0..len)
        .map(|_| match r.below(8) {
            0 => r.below(256) as u8,
            _ => ALPHABET[r.below(ALPHABET.len() as u64) as usize],
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `spec` after one to three random edits: a byte deleted or inserted,
/// an item dropped or repeated, a value replaced, a key added.
fn mutate(r: &mut XorShift64, spec: &str, keys: &[&str]) -> String {
    let pick = |r: &mut XorShift64, n: usize| r.below(n.max(1) as u64) as usize;
    let mut items: Vec<String> = spec.split(',').map(String::from).collect();
    for _ in 0..1 + r.below(3) {
        let at = pick(r, items.len());
        match r.below(6) {
            0 => {
                let joined = items.join(",");
                let cut = pick(r, joined.len());
                items = vec![format!(
                    "{}{}",
                    &joined[..cut],
                    &joined[(cut + 1).min(joined.len())..]
                )];
            }
            1 => {
                let joined = items.join(",");
                let at = pick(r, joined.len() + 1).min(joined.len());
                let c = b"=,.e0-"[pick(r, 6)] as char;
                items = vec![format!("{}{c}{}", &joined[..at], &joined[at..])];
            }
            2 if !items.is_empty() => {
                items.remove(at);
            }
            3 if !items.is_empty() => items.push(items[at].clone()),
            4 if !items.is_empty() => {
                let key = items[at].split('=').next().unwrap_or("").to_string();
                items[at] = format!("{key}={}", VALUES[pick(r, VALUES.len())]);
            }
            _ => items.push(format!(
                "{}={}",
                keys[pick(r, keys.len())],
                VALUES[pick(r, VALUES.len())]
            )),
        }
    }
    items.join(",")
}

/// Noise and mutations of `specs` (keys drawn from `keys`), half each.
fn garbage(r: &mut XorShift64, specs: &[&str], keys: &[&str], n: usize) -> Vec<String> {
    (0..n)
        .map(|i| match i % 2 {
            0 => noise(r),
            _ => {
                let spec = specs[r.below(specs.len() as u64) as usize];
                mutate(r, spec, keys)
            }
        })
        .collect()
}

#[test]
fn workload_grammar_is_order_free_total_and_round_trips() {
    let mut r = XorShift64::for_site(0x5bec, 1);
    for (spec, order) in orders(&WORKLOAD_SPECS, &mut r) {
        assert_eq!(Workload::parse(&order), Workload::parse(spec), "{order}");
    }
    let mut accepted = 0;
    let keys: Vec<&str> = WORKLOAD_KEYS.split_whitespace().collect();
    for text in garbage(&mut r, &WORKLOAD_SPECS, &keys, 20_000) {
        if let Ok(w) = Workload::parse(&text) {
            assert_eq!(Workload::parse(&w.spec()), Ok(w), "{text} -> {}", w.spec());
            accepted += 1;
        }
    }
    assert!(accepted > 1000, "only {accepted} inputs parsed");
    for spec in WORKLOAD_SPECS {
        let w = Workload::parse(spec).unwrap();
        assert_eq!(Workload::parse(&w.spec()), Ok(w), "{spec}");
    }
}

#[test]
fn fault_grammar_is_order_free_total_and_round_trips() {
    let mut r = XorShift64::for_site(0x5bec, 2);
    for (spec, order) in orders(&FAULT_SPECS, &mut r) {
        assert_eq!(FaultPlan::parse(&order), FaultPlan::parse(spec), "{order}");
    }
    let default = FaultPlan::default().spec();
    let mut keys: Vec<&str> = default
        .split(',')
        .map(|i| &i[..i.find('=').unwrap()])
        .collect();
    keys.push("rate");
    let mut accepted = 0;
    for text in garbage(&mut r, &FAULT_SPECS, &keys, 20_000) {
        if let Ok(plan) = FaultPlan::parse(&text) {
            assert_eq!(FaultPlan::parse(&plan.spec()), Ok(plan), "{text}");
            accepted += 1;
        }
    }
    assert!(accepted > 1000, "only {accepted} inputs parsed");
    for spec in FAULT_SPECS {
        assert!(FaultPlan::parse(spec).is_ok(), "{spec}");
    }
}

/// The cases whose result used to depend on key order, or that kept or
/// dropped a value silently.
#[test]
fn order_repeats_and_conflicts_are_decided_by_the_grammar() {
    assert_eq!(
        Workload::parse("target=3,pattern=incast"),
        Workload::parse("pattern=incast,target=3")
    );
    assert_eq!(
        Workload::parse("target=3,pattern=incast").unwrap().pattern,
        Pattern::Incast { target: 3 }
    );
    for (spec, names) in [
        (
            "pattern=hotspot,target=2,pattern=hotspot",
            &["pattern=hotspot", "twice"][..],
        ),
        ("size=200,small=100", &["size", "small", "size families"]),
        ("small=100,size=200", &["size", "small", "size families"]),
        ("arrivals=bursty,burst=0", &["burst=0"]),
        ("fps=1e5,fps=2e5", &["fps=2e5", "twice"]),
        ("arrivals=cbr,burst=4", &["burst=4", "does not apply"]),
        ("shift=2", &["shift=2", "does not apply"]),
        (
            "pattern=incast,fraction=0.5",
            &["fraction=0.5", "does not apply"],
        ),
        ("target=1", &["target=1", "does not apply"]),
    ] {
        let err = Workload::parse(spec).expect_err(spec);
        for name in names {
            assert!(err.contains(name), "{spec}: {err}");
        }
    }
    assert_eq!(
        Workload::parse("arrivals=bursty,burst=1").unwrap().arrivals,
        Arrivals::Bursty { burst: 1 }
    );
    assert_eq!(
        Workload::parse("small=100").unwrap().sizes,
        SizeMix::Bimodal {
            small: 100,
            large: 1472,
            small_frac: 0.9
        }
    );
    for (spec, names) in [
        ("crc=0.5,rate=0.001", &["rate=0.001", "crc"][..]),
        ("rate=0.001,crc=0.5", &["rate=0.001", "crc"]),
        ("rate=0,trunc=0", &["rate=0", "trunc"]),
        ("crc=0.1,crc=0.2", &["crc=0.2", "twice"]),
    ] {
        let err = FaultPlan::parse(spec).expect_err(spec);
        for name in names {
            assert!(err.contains(name), "{spec}: {err}");
        }
    }
    // `rate` leaves the classes it does not set to their own keys.
    let plan = FaultPlan::parse("rate=0.001,fab_crc=0.5,seed=4").unwrap();
    assert_eq!(
        (plan.link_corrupt, plan.fabric_corrupt, plan.seed),
        (0.001, 0.5, 4)
    );
}
