//! Tests of the firmware's synchronization primitives running on real
//! simulated cores: the spinlock, `mark_bit` / `commit_scan` across the
//! three modes, `claim_range` under multi-core contention.

use nicsim_cpu::{CodeLayout, Core, CoreCtx, FwFunc};
use nicsim_firmware::mode::{claim_range, commit_scan, lock, mark_bit, try_lock, unlock, FwMode};
use nicsim_mem::{Crossbar, ICacheConfig, InstrMemory, Scratchpad};

struct Rig {
    cores: Vec<Core>,
    xbar: Crossbar,
    sp: Scratchpad,
    imem: InstrMemory,
}

impl Rig {
    fn new(n: usize) -> Rig {
        Rig {
            cores: (0..n)
                .map(|i| Core::new(i, ICacheConfig::default(), CodeLayout::new()))
                .collect(),
            xbar: Crossbar::new(n, 4),
            sp: Scratchpad::new(64 * 1024, 4),
            imem: InstrMemory::new(),
        }
    }

    fn ctx(&self, i: usize) -> CoreCtx {
        CoreCtx::new(self.cores[i].slot(), i)
    }

    fn run(&mut self, max: u64) {
        for _ in 0..max {
            if self.cores.iter().all(|c| c.halted()) {
                return;
            }
            self.xbar.tick(&mut self.sp);
            for c in &mut self.cores {
                c.tick(&mut self.xbar, &mut self.imem);
            }
        }
        panic!("firmware did not halt");
    }
}

const BITS: u32 = 0x100;
const COMMIT: u32 = 0x200;
const GUARD: u32 = 0x204;

fn mode_of(i: usize) -> FwMode {
    [FwMode::Ideal, FwMode::SoftwareOnly, FwMode::RmwEnhanced][i]
}

#[test]
fn lock_charges_the_lock_bucket_unless_the_mode_elides_it() {
    for mi in 0..3 {
        let mode = mode_of(mi);
        let mut rig = Rig::new(1);
        let ctx = rig.ctx(0);
        rig.cores[0].install(async move {
            ctx.set_func(FwFunc::RecvFrame);
            lock(&ctx, mode, GUARD).await;
            ctx.alu(2).await; // critical section -> RecvFrame
            let again = try_lock(&ctx, mode, GUARD).await;
            ctx.store(COMMIT, again as u32).await;
            unlock(&ctx, mode, GUARD).await;
        });
        rig.run(200);
        let p = rig.cores[0].profile();
        // Acquire (3) + the failed second attempt (3) + release (1).
        let want = if mode.locking() { 7 } else { 0 };
        assert_eq!(p.func(FwFunc::RecvLock).instructions, want, "{mode:?}");
        assert_eq!(p.func(FwFunc::RecvFrame).instructions, 3, "{mode:?}");
        assert_eq!(rig.sp.peek(COMMIT), !mode.locking() as u32, "{mode:?}");
        assert_eq!(rig.sp.peek(GUARD), 0, "{mode:?}: lock released");
    }
}

#[test]
fn contended_lock_spins_until_released() {
    // Two cores increment a shared counter 50 times each under the lock.
    const COUNTER: u32 = 0x208;
    let mut rig = Rig::new(2);
    for i in 0..2 {
        let ctx = rig.ctx(i);
        rig.cores[i].install(async move {
            ctx.set_func(FwFunc::SendFrame);
            for _ in 0..50 {
                lock(&ctx, FwMode::SoftwareOnly, GUARD).await;
                let v = ctx.load(COUNTER).await;
                ctx.store(COUNTER, v + 1).await;
                unlock(&ctx, FwMode::SoftwareOnly, GUARD).await;
            }
        });
    }
    rig.run(100_000);
    assert_eq!(rig.sp.peek(COUNTER), 100, "lost update under lock");
}

#[test]
fn mark_and_scan_agree_across_modes() {
    // All three modes must produce identical functional results for the
    // same completion pattern; only the cost differs.
    for mi in 0..3 {
        let mode = mode_of(mi);
        let mut rig = Rig::new(1);
        let ctx = rig.ctx(0);
        rig.cores[0].install(async move {
            ctx.set_func(FwFunc::SendDispatch);
            // Frames complete as 2,0,1,3 — commits must be in order.
            for f in [2u32, 0, 1, 3] {
                mark_bit(&ctx, mode, BITS, f, GUARD, FwFunc::SendDispatch).await;
            }
            let mut commit = 0;
            loop {
                let run = commit_scan(&ctx, mode, BITS, commit).await;
                if run == 0 {
                    break;
                }
                commit += run;
            }
            ctx.store(COMMIT, commit).await;
        });
        rig.run(10_000);
        assert_eq!(rig.sp.peek(COMMIT), 4, "{mode:?}: all four commit");
        assert_eq!(rig.sp.peek(BITS), 0, "{mode:?}: bits cleared");
        assert_eq!(rig.sp.peek(GUARD), 0, "{mode:?}: guard released");
    }
}

#[test]
fn rmw_mode_is_cheaper_than_software_for_ordering() {
    let cost = |mode: FwMode| {
        let mut rig = Rig::new(1);
        let ctx = rig.ctx(0);
        rig.cores[0].install(async move {
            ctx.set_func(FwFunc::SendDispatch);
            for f in 0..32u32 {
                mark_bit(&ctx, mode, BITS, f, GUARD, FwFunc::SendDispatch).await;
            }
            let mut commit = 0;
            loop {
                let run = commit_scan(&ctx, mode, BITS, commit).await;
                if run == 0 {
                    break;
                }
                commit += run;
            }
        });
        rig.run(100_000);
        let p = rig.cores[0].profile();
        p.total(|f| f.total_cycles())
    };
    let sw = cost(FwMode::SoftwareOnly);
    let rmw = cost(FwMode::RmwEnhanced);
    assert!(
        rmw * 2 < sw,
        "RMW ordering ({rmw} cycles) should be under half of software ({sw})"
    );
}

#[test]
fn claim_ranges_are_disjoint_and_complete_under_contention() {
    // Four cores claim from a 200-unit work source in batches of 3; the
    // union of claims must be exactly [0, 200) with no overlap.
    const AVAIL: u32 = 0x300;
    const CLAIM: u32 = 0x304;
    const LOCK: u32 = 0x308;
    const LOG: u32 = 0x1000; // 200 words: claim count per unit
    let mut rig = Rig::new(4);
    rig.sp.poke(AVAIL, 200);
    for i in 0..4 {
        let ctx = rig.ctx(i);
        rig.cores[i].install(async move {
            ctx.set_func(FwFunc::SendDispatch);
            loop {
                let (start, n) = claim_range(
                    &ctx,
                    FwMode::RmwEnhanced,
                    LOCK,
                    AVAIL,
                    CLAIM,
                    3,
                    0x400 + ctx.core_id() as u32 * 32,
                )
                .await;
                if n == 0 {
                    return;
                }
                for k in 0..n {
                    let a = LOG + (start + k) * 4;
                    let v = ctx.load(a).await;
                    ctx.store(a, v + 1).await;
                }
            }
        });
    }
    rig.run(200_000);
    for u in 0..200u32 {
        assert_eq!(
            rig.sp.peek(LOG + u * 4),
            1,
            "unit {u} claimed wrong number of times"
        );
    }
    assert_eq!(rig.sp.peek(CLAIM), 200);
}

#[test]
fn ideal_mode_charges_no_lock_cycles() {
    let mut rig = Rig::new(1);
    let ctx = rig.ctx(0);
    rig.cores[0].install(async move {
        ctx.set_func(FwFunc::SendFrame);
        for f in 0..8u32 {
            mark_bit(&ctx, FwMode::Ideal, BITS, f, GUARD, FwFunc::SendFrame).await;
        }
    });
    rig.run(10_000);
    let p = rig.cores[0].profile();
    assert_eq!(p.func(FwFunc::SendLock).instructions, 0);
    assert_eq!(p.func(FwFunc::RecvLock).instructions, 0);
}

#[test]
fn software_mark_charges_the_lock_bucket() {
    let mut rig = Rig::new(1);
    let ctx = rig.ctx(0);
    rig.cores[0].install(async move {
        ctx.set_func(FwFunc::RecvDispatch);
        mark_bit(
            &ctx,
            FwMode::SoftwareOnly,
            BITS,
            0,
            GUARD,
            FwFunc::RecvDispatch,
        )
        .await;
    });
    rig.run(10_000);
    let p = rig.cores[0].profile();
    assert!(
        p.func(FwFunc::RecvLock).instructions > 0,
        "lock acquire charged"
    );
    assert!(
        p.func(FwFunc::RecvDispatch).instructions > 0,
        "mark charged to ordering"
    );
}
