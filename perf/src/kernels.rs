//! Isolated kernels: one public component entry point timed in a loop,
//! to say which building block moved when `core.host_ns_per_stepped_cycle`
//! does. Simulator engineering numbers, not NIC performance.

use crate::stats::quantile;
use crate::workloads::FAULT_SPEC;
use nicsim::FaultPlan;
use nicsim_cpu::{CodeLayout, Core, CoreCtx};
use nicsim_mem::{
    Crossbar, FrameMemory, FrameMemoryConfig, ICacheConfig, InstrMemory, Scratchpad, SpOp,
    SpRequest, StreamId,
};
use nicsim_net::{build_udp_frame, set_endpoints, validate_frame, Fabric, FabricConfig};
use nicsim_sim::{EpochBarrier, Ps};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Host time given to each kernel (a twentieth of it in a smoke run).
const BUDGET: Duration = Duration::from_millis(300);
/// Batches per kernel; the reported time is their lower quartile.
const BATCHES: usize = 5;

/// Host nanoseconds per call of `f`: [`BATCHES`] batches that together
/// run for about `budget`, lower quartile of the per-call times.
fn ns_per_call(budget: Duration, mut f: impl FnMut()) -> f64 {
    let per_batch = budget / BATCHES as u32;
    // Size a batch by doubling until it fills its share of the budget.
    let mut calls = 1u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t0.elapsed() >= per_batch / 2 || calls >= 1 << 30 {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    quantile(&samples, 0.25)
}

fn xbar_tick(budget: Duration) -> f64 {
    let mut sp = Scratchpad::new(256 * 1024, 4);
    let mut xb = Crossbar::new(10, 4);
    ns_per_call(budget, || {
        for p in 0..10 {
            if xb.port_idle(p) {
                xb.submit(
                    p,
                    SpRequest {
                        addr: (p as u32) * 4,
                        op: SpOp::Read,
                    },
                );
            }
        }
        xb.tick(&mut sp);
        for p in 0..10 {
            black_box(xb.take_response(p));
        }
    })
}

fn scratchpad_rmw(budget: Duration) -> f64 {
    let mut sp = Scratchpad::new(256 * 1024, 4);
    sp.poke(64, 0xffff_ffff);
    ns_per_call(budget, || {
        sp.execute(SpRequest {
            addr: 64,
            op: SpOp::SetBit(7),
        });
        black_box(sp.execute(SpRequest {
            addr: 64,
            op: SpOp::Update { start_bit: 0 },
        }));
    })
}

fn sdram_burst(budget: Duration, len: usize) -> f64 {
    let mut fm = FrameMemory::new(FrameMemoryConfig::default());
    let frame = vec![0u8; len];
    let mut now = Ps::ZERO;
    ns_per_call(budget, || {
        now += Ps(10_000);
        fm.submit_write(StreamId::MacRx, 1024, &frame, 0, now);
        black_box(fm.advance(now + Ps(1_000_000)).len());
    })
}

/// One core looping `load` / `alu` / `store` through `CoreCtx` on a
/// private crossbar; the time is per core tick.
fn core_op(budget: Duration) -> f64 {
    let mut core = Core::new(0, ICacheConfig::default(), CodeLayout::new());
    let mut xbar = Crossbar::new(1, 4);
    let mut sp = Scratchpad::new(4096, 4);
    let mut imem = InstrMemory::new();
    let ctx = CoreCtx::new(core.slot(), 0);
    core.install(async move {
        loop {
            let v = ctx.load(64).await;
            ctx.alu(1).await;
            ctx.store(64, v.wrapping_add(1)).await;
        }
    });
    ns_per_call(budget, || {
        xbar.tick(&mut sp);
        core.tick(&mut xbar, &mut imem);
    })
}

/// `Fabric::offer` on an 8-port fabric, each frame one wire time after
/// the last so no egress queue builds; the delivered buffer is offered
/// again, so the loop allocates nothing.
fn fabric_offer(budget: Duration) -> f64 {
    let mut fabric = Fabric::new(8, FabricConfig::default());
    let mut frame = build_udp_frame(1, 1472);
    let step = nicsim_net::wire_time(frame.len());
    let mut w = Ps::ZERO;
    let mut n = 0u16;
    ns_per_call(budget, || {
        n = n.wrapping_add(1);
        w += step;
        let (src, dst) = (n % 8, (n + 1) % 8);
        set_endpoints(&mut frame, src, dst);
        let delivery = fabric.offer(w, src as usize, std::mem::take(&mut frame));
        frame = delivery.expect("an idle port accepts the frame").frame;
    })
}

/// One `open` / `wait_done` generation between a coordinator and one
/// worker: two threads, as many as this host has.
fn barrier_roundtrip(budget: Duration) -> f64 {
    let barrier = EpochBarrier::new(1);
    std::thread::scope(|scope| {
        let b = &barrier;
        let worker = scope.spawn(move || {
            let mut last = 0;
            while let Some(g) = b.wait_open(last) {
                last = g;
                b.finish(0, g);
            }
        });
        barrier.register_worker(worker.thread().clone());
        let mut gen = 0u64;
        let ns = ns_per_call(budget, || {
            gen += 1;
            barrier.open(gen);
            barrier.wait_done(gen);
        });
        barrier.shutdown();
        worker.join().expect("barrier worker exits on shutdown");
        ns
    })
}

/// Every isolated kernel in turn.
pub fn run_all(smoke: bool) -> Vec<(&'static str, f64)> {
    let budget = if smoke { BUDGET / 20 } else { BUDGET };
    let frame = build_udp_frame(42, 1472);
    vec![
        ("mem.xbar.tick_ns", xbar_tick(budget)),
        ("mem.scratchpad.rmw_ns", scratchpad_rmw(budget)),
        ("mem.sdram.burst1518_ns", sdram_burst(budget, 1518)),
        ("mem.sdram.burst64_ns", sdram_burst(budget, 64)),
        ("cpu.core.op_ns", core_op(budget)),
        (
            "net.frame.build1472_ns",
            ns_per_call(budget, || {
                black_box(build_udp_frame(black_box(42), 1472));
            }),
        ),
        (
            "net.frame.validate1518_ns",
            ns_per_call(budget, || {
                black_box(validate_frame(black_box(&frame)).is_ok());
            }),
        ),
        ("net.fabric.offer_ns", fabric_offer(budget)),
        ("sim.epoch_barrier.roundtrip_ns", barrier_roundtrip(budget)),
        (
            "fault.plan.parse_ns",
            ns_per_call(budget, || {
                black_box(FaultPlan::parse(black_box(FAULT_SPEC)).is_ok());
            }),
        ),
    ]
}
