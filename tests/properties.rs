//! Randomized property tests on the core data structures and invariants.
//!
//! These were originally written against `proptest`; the container this
//! repo builds in has no access to crates.io, so they now run on the
//! workspace's deterministic PRNG. Each property draws a fixed number of
//! cases from a seeded `XorShift64` stream, so failures are reproducible
//! by construction, and the shrunk counterexamples proptest found in the
//! past are kept as explicit regression cases.

use nicsim::FaultPlan;
use nicsim_coherence::{Access, MesiSim};
use nicsim_fault::EccFaults;
use nicsim_ilp::{
    analyze, expand, BranchModel, IssueOrder, PipelineModel, ProcessorConfig, TraceOp,
};
use nicsim_mem::{FrameMemory, FrameMemoryConfig, Scratchpad, SpOp, SpRequest, StreamId};
use nicsim_net::frame::{build_udp_frame, validate_frame};
use nicsim_sim::{Freq, Ps, RoundRobin, XorShift64};

/// Cases drawn per property.
const CASES: u64 = 200;

/// Test-case draws from the workspace's PRNG.
struct Rng(XorShift64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(XorShift64::for_site(seed, 0))
    }

    fn u32(&mut self) -> u32 {
        (self.0.next_u64() >> 32) as u32
    }

    /// Uniform draw from `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.0.below(hi - lo)
    }

    fn bool(&mut self) -> bool {
        self.0.next_u64() & 1 == 1
    }
}

/// Any legal UDP payload survives the build/validate roundtrip with its
/// sequence number intact.
#[test]
fn frame_roundtrip() {
    let mut rng = Rng::new(0xf00d_0001);
    for _ in 0..CASES {
        let seq = rng.u32();
        let payload = rng.range(4, 1473) as usize;
        let f = build_udp_frame(seq, payload);
        let info = validate_frame(&f).unwrap();
        assert_eq!(info.seq, seq);
        assert_eq!(info.udp_payload, payload);
        assert!(f.len() >= 64 && f.len() <= 1518);
    }
}

/// Flipping any payload byte is detected by validation.
#[test]
fn frame_corruption_detected() {
    let mut rng = Rng::new(0xf00d_0002);
    let check = |seq: u32, payload: usize, flip: usize| {
        let mut f = build_udp_frame(seq, payload);
        let idx = 14 + flip % (f.len() - 18); // anywhere in IP..payload
        f[idx] ^= 0x5a;
        assert!(
            validate_frame(&f).is_err(),
            "corruption at byte {idx} of a {payload}-byte payload went undetected"
        );
    };
    // Regression: shrunk counterexample from the proptest era.
    check(0, 443, 962);
    for _ in 0..CASES {
        check(
            rng.u32(),
            rng.range(32, 1473) as usize,
            rng.range(0, 1024) as usize,
        );
    }
}

/// The scratchpad `update` instruction clears exactly the run it
/// reports, and only that run.
#[test]
fn update_clears_exactly_the_run() {
    let mut rng = Rng::new(0xf00d_0003);
    for _ in 0..CASES {
        let word = rng.u32();
        let start = rng.range(0, 32) as u8;
        let mut sp = Scratchpad::new(64, 1);
        sp.poke(0, word);
        let run = sp.execute(SpRequest {
            addr: 0,
            op: SpOp::Update { start_bit: start },
        });
        // Model the expected semantics.
        let mut expect_run = 0;
        let mut b = start as u32;
        while b < 32 && word & (1 << b) != 0 {
            expect_run += 1;
            b += 1;
        }
        assert_eq!(run, expect_run);
        let mask = if expect_run == 0 {
            0
        } else if expect_run == 32 {
            u32::MAX
        } else {
            ((1u32 << expect_run) - 1) << start
        };
        assert_eq!(sp.peek(0), word & !mask);
    }
}

/// `set` then `update` from the same index always reports at least a run
/// of one.
#[test]
fn set_then_update_sees_the_bit() {
    let mut rng = Rng::new(0xf00d_0004);
    for _ in 0..CASES {
        let word = rng.u32();
        let bit = rng.range(0, 32) as u8;
        let mut sp = Scratchpad::new(64, 1);
        sp.poke(0, word);
        sp.execute(SpRequest {
            addr: 0,
            op: SpOp::SetBit(bit),
        });
        let run = sp.execute(SpRequest {
            addr: 0,
            op: SpOp::Update { start_bit: bit },
        });
        assert!(run >= 1);
    }
}

/// Round-robin arbitration is work-conserving and starvation-free: when
/// every port requests continuously, service is even to within one
/// grant.
#[test]
fn round_robin_fairness() {
    let mut rng = Rng::new(0xf00d_0005);
    for _ in 0..CASES {
        let n = rng.range(1, 8) as usize;
        let rounds = rng.range(1, 200) as usize;
        let mut rr = RoundRobin::new(n);
        let mut served = vec![0usize; n];
        for _ in 0..rounds {
            if let Some(w) = rr.grant(|_| true) {
                served[w] += 1;
            }
        }
        let min = *served.iter().min().unwrap();
        let max = *served.iter().max().unwrap();
        assert!(max - min <= 1, "uneven service: {served:?}");
    }
}

/// The frame memory hands bursts back in the order it granted them: one
/// bus moves one burst at a time, so its completions need no sorting.
/// Random duplex traffic on all four streams, with and without ECC
/// correction latency, advanced in random steps.
#[test]
fn frame_memory_completes_in_order() {
    let mut rng = Rng::new(0xf00d_0006);
    let cfg = FrameMemoryConfig {
        capacity: 64 * 1024,
        ..FrameMemoryConfig::default()
    };
    for case in 0..CASES {
        let mut m = FrameMemory::new(cfg);
        if rng.bool() {
            let plan = FaultPlan {
                seed: case,
                ecc: 0.5,
                ..FaultPlan::default()
            };
            m.set_faults(EccFaults::new(&plan));
        }
        // Every completion, with the `now` it was handed out at. Tags
        // count submissions, so a stream's tags must come back rising.
        let mut done = Vec::new();
        let mut now = Ps::ZERO;
        let bursts = rng.range(1, 100);
        for tag in 0..bursts {
            let stream = StreamId::ALL[rng.range(0, 4) as usize];
            let len = rng.range(1, 1519) as u32;
            let addr = rng.range(0, (cfg.capacity - len) as u64) as u32;
            if rng.bool() {
                m.submit_read(stream, addr, len, tag, now);
            } else {
                m.submit_write(stream, addr, &vec![0; len as usize], tag, now);
            }
            if rng.bool() {
                now += Ps(rng.range(0, 400_000));
            }
            done.extend(m.advance(now).into_iter().map(|c| (now, c)));
        }
        done.extend(m.advance(Ps::MAX).into_iter().map(|c| (Ps::MAX, c)));
        assert!(done.iter().all(|(now, c)| c.at <= *now), "from the future");
        assert!(done.windows(2).all(|w| w[0].1.at <= w[1].1.at), "unsorted");
        for s in StreamId::ALL {
            let tags = done
                .iter()
                .filter(|(_, c)| c.stream == s)
                .map(|(_, c)| c.tag);
            assert!(tags.is_sorted_by(|a, b| a < b), "{s:?} reordered");
        }
        assert_eq!(done.len() as u64, bursts, "every burst completes once");
        assert_eq!(m.next_event(), Ps::MAX);
    }
}

/// Frequencies convert to periods and back within rounding.
#[test]
fn freq_period_roundtrip() {
    for mhz in 1u64..1000 {
        let f = Freq::from_mhz(mhz);
        let p = f.period();
        let implied_hz = 1_000_000_000_000.0 / p.0 as f64;
        let err = (implied_hz - f.hz() as f64).abs() / f.hz() as f64;
        assert!(err < 0.001, "period rounding error {err}");
    }
}

/// MESI invariant: replaying any access pattern, the stats stay
/// consistent (hits never exceed accesses, invalidations never exceed
/// writes).
#[test]
fn mesi_single_writer() {
    let mut rng = Rng::new(0xf00d_0007);
    for _ in 0..CASES {
        let ops = rng.range(1, 300) as usize;
        let mut sim = MesiSim::new(4, 128, 16);
        for _ in 0..ops {
            sim.access(Access {
                requester: rng.range(0, 4) as usize,
                addr: rng.range(0, 64) * 16,
                write: rng.bool(),
            });
        }
        let s = sim.stats();
        assert!(s.hits <= s.accesses);
        assert!(s.invalidating_writes <= s.writes);
    }
}

fn ilp_ops_from_seed(seed: &[u8]) -> Vec<TraceOp> {
    seed.iter()
        .map(|k| match k {
            0 => TraceOp::Alu(2),
            1 => TraceOp::Load,
            2 => TraceOp::Store,
            3 => TraceOp::Rmw,
            _ => TraceOp::Branch { mispredict: false },
        })
        .collect()
}

fn ilp_check(ops: &[TraceOp]) {
    let trace = expand(ops);
    let run = |width| {
        analyze(
            &trace,
            ProcessorConfig {
                order: IssueOrder::OutOfOrder,
                width,
                pipeline: PipelineModel::Stalls,
                branches: BranchModel::Pbp1,
            },
        )
    };
    let mut ipcs = Vec::new();
    for width in [1u32, 2, 4] {
        let ipc = run(width);
        assert!(ipc > 0.0 && ipc <= width as f64 + 1e-9);
        // Deterministic: same trace, same config, same answer.
        assert_eq!(ipc, run(width));
        ipcs.push(ipc);
    }
    // Greedy program-order list scheduling is only near-monotone in
    // width; a 4-wide machine must still clearly beat single issue.
    assert!(ipcs[2] * 1.1 >= ipcs[0], "w4 {} vs w1 {}", ipcs[2], ipcs[0]);
}

/// ILP analyzer: IPC is positive, bounded by width, and wider machines
/// never clearly lose.
#[test]
fn ilp_bounded_and_monotone() {
    // Regression: shrunk counterexample from the proptest era.
    ilp_check(&ilp_ops_from_seed(&[
        1, 1, 2, 0, 2, 1, 1, 1, 1, 1, 1, 0, 2, 1, 0,
    ]));
    let mut rng = Rng::new(0xf00d_0008);
    for _ in 0..CASES {
        let len = rng.range(10, 200) as usize;
        let seed: Vec<u8> = (0..len).map(|_| rng.range(0, 5) as u8).collect();
        ilp_check(&ilp_ops_from_seed(&seed));
    }
}
