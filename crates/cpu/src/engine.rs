//! The per-core timing engine.
//!
//! `Core::tick` is called once per CPU-clock cycle (after the crossbar has
//! arbitrated). It advances the core's pipeline state machine, charging
//! every cycle to exactly one [`StallBucket`] of the current firmware
//! function. When the core is ready to issue, it takes the oldest
//! operation the firmware has issued and polls the firmware future only
//! when none is left. See the crate docs for the timing rules.
//!
//! Most cycles only charge a bucket: inside a multi-cycle span, waiting
//! for a load's data or the store buffer, parked, halted. So the system
//! ticks a core only on the cycle [`Core::tick_probed`] returns as its
//! *due* cycle, or when the crossbar holds its response; each tick first
//! charges the cycles since the previous one in bulk ([`Core::catch_up`]).
//! One rule, `Core::charge(n)`, charges both: a tick's own cycle is
//! `n = 1`, so a skipped cycle and a ticked one charge alike.

use crate::func::{CoreProfile, FwFunc, StallBucket};
use crate::layout::CodeLayout;
use crate::slot::{new_slot, PendingOp, SharedSlot};
use nicsim_mem::{Crossbar, ICache, ICacheConfig, InstrMemory, Scratchpad, SpOp, SpRequest};
use nicsim_obs::{Event, NullProbe, Probe};
use nicsim_sim::Ps;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Waker};

/// Cycles from a doorbell raising the wake line of a parked core to the
/// firmware's first dispatch instruction issuing — the paper's 2-cycle
/// event-to-dispatch cost, preserved by the interrupt mode.
const WAKE_DISPATCH_CYCLES: u32 = 2;

/// What to do after the currently-charging cycles elapse.
#[derive(Debug, Clone, Copy)]
enum Then {
    /// Take the firmware's next operation.
    Poll,
    /// Submit the taken memory transaction ([`Core`]'s `req`) to the
    /// crossbar.
    Mem,
    /// Park the core until its wake line is raised (`wfi`).
    Park,
}

#[derive(Debug, Clone, Copy)]
enum State {
    /// Ready to issue the firmware's next operation.
    Poll,
    /// Charging cycles: I-miss stall, then execution, then annulled slots.
    Busy {
        imiss: u32,
        exec: u32,
        annul: u32,
        then: Then,
    },
    /// A memory op's last cycle has elapsed; it is submitted at the tail
    /// of the first cycle the buffered store no longer blocks the port.
    WaitStoreDrain,
    /// A load/RMW is in the crossbar; waiting for data. `stalled` once
    /// the load-use stall cycle is charged: every later one is a conflict.
    WaitMem { stalled: bool },
    /// Parked by `wfi`; wakes when the wake line is raised.
    Parked,
    /// Firmware future completed.
    Halted,
}

/// One simulated processing core.
pub struct Core {
    id: usize,
    slot: SharedSlot,
    /// The firmware future; `None` once it has completed.
    fut: Option<Pin<Box<dyn Future<Output = ()>>>>,
    state: State,
    /// Profiling tag of the operation being charged: the one current
    /// when it was issued, which the slot's tag may have moved past.
    func: FwFunc,
    /// The last memory op taken, written once when it is taken and read
    /// at its submit; the states between carry no copy of it.
    req: SpRequest,
    store_inflight: bool,
    /// Level-triggered wake line, consumed when a parked core resumes.
    wake_pending: bool,
    icache: ICache,
    layout: CodeLayout,
    /// Offset of the fetch pointer within the current function's region.
    vpc_off: u64,
    /// Function whose region the fetch pointer is walking.
    fetch_func: FwFunc,
    /// Last line touched, to avoid redundant I-cache lookups.
    last_line: Option<u64>,
    /// The last cycle this core has accounted for.
    cycle: u64,
    profile: CoreProfile,
}

impl Core {
    /// Create core `id` (which is also its crossbar port) with the given
    /// I-cache geometry and code layout.
    pub fn new(id: usize, icache_cfg: ICacheConfig, layout: CodeLayout) -> Core {
        Core {
            id,
            slot: new_slot(),
            fut: None,
            state: State::Poll,
            func: FwFunc::Idle,
            req: SpRequest {
                addr: 0,
                op: SpOp::Read,
            },
            store_inflight: false,
            wake_pending: false,
            icache: ICache::new(icache_cfg),
            layout,
            vpc_off: 0,
            fetch_func: FwFunc::Idle,
            last_line: None,
            cycle: 0,
            profile: CoreProfile::new(),
        }
    }

    /// The core id / crossbar port.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The slot shared with the firmware future (create a
    /// [`crate::CoreCtx`] from this to write firmware).
    pub fn slot(&self) -> SharedSlot {
        self.slot.clone()
    }

    /// Install the firmware future this core runs.
    pub fn install(&mut self, fut: impl Future<Output = ()> + 'static) {
        self.fut = Some(Box::pin(fut));
        self.state = State::Poll;
        self.wake_pending = false;
        self.slot.clear();
    }

    /// Raise the core's wake line. A parked core resumes on its next
    /// tick, paying the 2-cycle dispatch cost; a running core consumes
    /// the (level-triggered, sticky) signal at its next `wfi`. A caller
    /// that ticks sparsely catches the core up first: the cycles before
    /// the wake were charged with the line down.
    pub fn raise_wake(&mut self) {
        self.wake_pending = true;
    }

    /// The next cycle on which this core must be ticked if no crossbar
    /// response arrives for it — the value [`Core::tick_probed`] returns:
    ///
    /// * ready to issue, or parked with the wake line up: the next cycle;
    /// * in a span that ends in a memory submit or a park: its last cycle;
    /// * in a span that ends by taking the next op: the cycle *after* its
    ///   last one, which only charges and moves the core to issue;
    /// * waiting for a response, parked, halted: never (`u64::MAX`).
    ///
    /// Every cycle before it only charges a stall bucket, unless a
    /// response arrives (the crossbar's ready bit for this port) or the
    /// wake line is raised.
    #[inline]
    pub fn due(&self) -> u64 {
        match self.state {
            State::Poll => self.cycle + 1,
            State::Busy {
                imiss,
                exec,
                annul,
                then,
            } => {
                let last = self.cycle + imiss as u64 + exec as u64 + annul as u64;
                last + u64::from(matches!(then, Then::Poll))
            }
            State::Parked if self.wake_pending => self.cycle + 1,
            State::WaitMem { .. } | State::WaitStoreDrain | State::Parked | State::Halted => {
                u64::MAX
            }
        }
    }

    /// Whether the core waits for its own crossbar transaction: a load's
    /// data, or the store buffer to drain. It acts on the cycle the
    /// response becomes consumable, which no due cycle can say.
    #[inline]
    pub fn awaits_response(&self) -> bool {
        matches!(self.state, State::WaitMem { .. } | State::WaitStoreDrain)
    }

    /// Whether the core is parked on `wfi`.
    pub fn parked(&self) -> bool {
        matches!(self.state, State::Parked)
    }

    /// Whether the firmware future has completed.
    pub fn halted(&self) -> bool {
        matches!(self.state, State::Halted)
    }

    /// The profiling counters collected so far.
    pub fn profile(&self) -> &CoreProfile {
        &self.profile
    }

    /// The core's instruction cache (for hit/miss statistics).
    pub fn icache(&self) -> &ICache {
        &self.icache
    }

    /// Zero profiling counters (for steady-state measurement windows).
    pub fn reset_stats(&mut self) {
        self.profile.reset();
        self.icache.reset_stats();
    }

    /// The next operation to charge and the tag it was issued under:
    /// the oldest one in the slot's batch, polling the firmware only when
    /// the batch is drained. `None` once the firmware has completed and
    /// everything it issued has been charged. The tick reports each as
    /// [`Event::OpTaken`], so an op trace never leads the engine.
    #[inline(always)]
    fn next_op(&mut self) -> Option<(PendingOp, FwFunc)> {
        if let Some(next) = self.slot.pop() {
            return Some(next);
        }
        if !self.poll_firmware() {
            return None;
        }
        let next = self.slot.pop();
        assert!(
            next.is_some() || self.fut.is_none(),
            "firmware future suspended without issuing an op"
        );
        next
    }

    /// Poll the firmware future once, which fills the drained batch from
    /// slot 0; `false` when it has already completed. Out of line so that
    /// `next_op` inlines into the tick and the op it takes stays in
    /// registers: returned through memory, its 16 bytes were copied with
    /// overlapping stores that defeated store-to-load forwarding.
    #[inline(never)]
    fn poll_firmware(&mut self) -> bool {
        let Some(fut) = self.fut.as_mut() else {
            return false;
        };
        debug_assert!(self.slot.is_empty(), "polled with a batch in flight");
        let mut cx = Context::from_waker(Waker::noop());
        if fut.as_mut().poll(&mut cx).is_ready() {
            self.fut = None;
        }
        true
    }

    /// Put the taken memory op on the (free) crossbar port. A store is
    /// buffered, so the core moves on; anything else waits for its data.
    #[inline]
    fn submit(&mut self, xbar: &mut Crossbar) {
        xbar.submit(self.id, self.req);
        if matches!(self.req.op, SpOp::Write(_)) {
            self.store_inflight = true;
            self.state = State::Poll;
        } else {
            self.state = State::WaitMem { stalled: false };
        }
    }

    /// Walk the fetch pointer over `n` instructions of the current
    /// function's code region, returning I-miss stall cycles. Emits
    /// [`Event::HandlerEnter`] when the fetch target moves to a different
    /// firmware function and [`Event::IcacheAccess`] per line touched.
    fn touch_code<P: Probe>(
        &mut self,
        mut n: u32,
        imem: &mut InstrMemory,
        at: Ps,
        probe: &mut P,
    ) -> u32 {
        let func = self.func;
        let (base, len_instr) = self.layout.region(func);
        let region_bytes = len_instr as u64 * 4;
        if func != self.fetch_func {
            // Handler entry: fetch restarts at the function's first line.
            self.fetch_func = func;
            self.vpc_off = 0;
            self.last_line = None;
            if P::CYCLE_EVENTS {
                probe.emit(Event::HandlerEnter {
                    core: self.id,
                    func: func.label(),
                    at,
                });
            }
        }
        let cfg = self.icache.config();
        let line_bytes = cfg.line_bytes as u64;
        let mut stall = 0u32;
        while n > 0 {
            let addr = base + self.vpc_off;
            let (line, _) = cfg.line_of(addr);
            if self.last_line != Some(line) {
                self.last_line = Some(line);
                let hit = self.icache.access(addr);
                if P::CYCLE_EVENTS {
                    probe.emit(Event::IcacheAccess {
                        core: self.id,
                        hit,
                        at,
                    });
                }
                if !hit {
                    let now = self.cycle + stall as u64;
                    let done = imem.fill(now, line_bytes);
                    stall += (done - now) as u32;
                }
            }
            let (_, line_off) = cfg.line_of(self.vpc_off);
            let in_line = ((line_bytes - line_off) / 4) as u32;
            let take = n.min(in_line.max(1));
            // Wrap at the region's end by subtraction: one step unless a
            // line is longer than the whole region.
            self.vpc_off += take as u64 * 4;
            while self.vpc_off >= region_bytes {
                self.vpc_off -= region_bytes;
            }
            n -= take;
        }
        stall
    }

    /// Advance one CPU cycle. Must be called after `xbar.tick()` for the
    /// same cycle.
    pub fn tick(&mut self, xbar: &mut Crossbar, imem: &mut InstrMemory) {
        let cycle = self.cycle + 1;
        self.tick_probed(xbar, imem, cycle, Ps::ZERO, &mut NullProbe);
    }

    /// [`Core::tick`] for cycle `cycle`, with probe instrumentation
    /// stamping events with the simulated time `now`. Cycles since the
    /// last tick are charged first ([`Core::catch_up`]), so a caller may
    /// skip any cycle before the returned [`Core::due`] cycle on which
    /// the crossbar holds no response for this core.
    pub fn tick_probed<P: Probe>(
        &mut self,
        xbar: &mut Crossbar,
        imem: &mut InstrMemory,
        cycle: u64,
        now: Ps,
        probe: &mut P,
    ) -> u64 {
        self.catch_up(cycle - 1);
        self.cycle = cycle;

        // Drain a completed buffered store.
        if self.store_inflight && xbar.take_response(self.id).is_some() {
            self.store_inflight = false;
        }

        // The zero-cycle transitions into the state this cycle is charged
        // in: a load's data lets the dependent op issue this very cycle.
        if let State::WaitMem { .. } = self.state {
            if let Some(v) = xbar.take_response(self.id) {
                self.slot.deliver(v);
                self.state = State::Poll;
            }
        }
        match self.state {
            State::Poll => {
                if let Some((op, func)) = self.next_op() {
                    if P::WORK_EVENTS {
                        probe.emit(Event::OpTaken {
                            core: self.id,
                            op,
                            at: now,
                        });
                    }
                    self.func = func;
                    let (exec, annul, then) = match op {
                        PendingOp::Alu(n) => (n, 0, Then::Poll),
                        PendingOp::Branch { mispredict } => (1, u32::from(mispredict), Then::Poll),
                        PendingOp::Mem(req) => {
                            self.req = req;
                            (1, 0, Then::Mem)
                        }
                        PendingOp::Wfi => (1, 0, Then::Park),
                    };
                    debug_assert!(exec > 0, "alu(0) completes in `Op` without being queued");
                    let imiss = self.touch_code(exec, imem, now, probe);
                    let p = self.profile.func_mut(func);
                    p.instructions += exec as u64;
                    p.mem_accesses += u64::from(matches!(then, Then::Mem));
                    self.state = State::Busy {
                        imiss,
                        exec,
                        annul,
                        then,
                    };
                } else {
                    self.state = State::Halted;
                }
            }
            State::Parked if self.wake_pending => {
                // Doorbell: resume through the fixed wake dispatch, whose
                // first cycle charges now; the firmware's `wfi` returns
                // when it has elapsed.
                self.wake_pending = false;
                self.slot.deliver(0);
                self.state = State::Busy {
                    imiss: 0,
                    exec: WAKE_DISPATCH_CYCLES,
                    annul: 0,
                    then: Then::Poll,
                };
            }
            _ => {}
        }

        self.charge(1);

        // A memory op submits at the tail of its last cycle, or of the
        // (conflict) cycle the store buffer drains on.
        if matches!(self.state, State::WaitStoreDrain) && !self.store_inflight {
            self.submit(xbar);
        }
        self.due()
    }

    /// Run this core alone from the end of cycle `cycle`, at time `now`,
    /// through at most cycle `limit`, cycles `period` apart: exactly the
    /// gated kernel's steps of a system in which nothing else acts. The
    /// crossbar arbitrates only on the cycle after this core submits
    /// ([`Crossbar::tick_alone`]), the core is ticked on its due cycles
    /// and when its response becomes consumable, and every other cycle
    /// only charges, at the next tick. Returns the last cycle it acted
    /// on (`cycle` when none), which is before `limit` when:
    ///
    /// * the core parks with its wake line down, or halts: it has nothing
    ///   left to do;
    /// * the next cycle would grant a write-class op to a watched word
    ///   ([`Scratchpad::watched`]): raising its signal is the system's
    ///   step, so the request stays in the crossbar for that step;
    /// * its next act falls after `limit`.
    ///
    /// The caller guarantees that nothing else acts through `limit`: no
    /// other requester holds a crossbar transaction, and no wake line
    /// is raised.
    pub fn run_alone<P: Probe>(
        &mut self,
        xbar: &mut Crossbar,
        sp: &mut Scratchpad,
        imem: &mut InstrMemory,
        (cycle, now, period): (u64, Ps, Ps),
        limit: u64,
        probe: &mut P,
    ) -> u64 {
        let bit = 1u64 << self.id;
        let at = |d: u64| Ps(now.0 + period.0 * (d - cycle));
        let (mut last, mut due) = (cycle, self.due());
        loop {
            if xbar.needs_tick() {
                // Its request, submitted on the last cycle, is granted on
                // this one. A store leaves the core due now; a load's
                // data becomes consumable on the next cycle.
                let d = last + 1;
                if d > limit || self.req.op.is_write() && sp.watched(self.req.addr) {
                    return last;
                }
                xbar.tick_alone(sp, at(d), probe);
                if due <= d {
                    due = self.tick_probed(xbar, imem, d, at(d), probe);
                }
                last = d;
                continue;
            }
            // A grant becomes consumable on the next cycle; otherwise
            // every cycle before the due one only charges.
            let d = if xbar.fresh() & bit != 0 {
                last + 1
            } else {
                due
            };
            if d > limit {
                return last;
            }
            xbar.skip_cycles(1);
            due = self.tick_probed(xbar, imem, d, at(d), probe);
            last = d;
        }
    }

    /// Account for every cycle after the last one this core was ticked
    /// or caught up on, through `cycle`, exactly as ticking each would:
    /// both charge with `Core::charge`. A span that ends by taking the
    /// next op may be consumed to its end; the core is then ready to
    /// issue.
    ///
    /// Callers must guarantee the core was not due on any of these cycles
    /// (`due() > cycle`) and that no crossbar response arrived for it.
    #[inline]
    pub fn catch_up(&mut self, cycle: u64) {
        if cycle > self.cycle {
            self.charge_skipped(cycle);
        }
    }

    /// [`Core::catch_up`] over at least one cycle.
    #[inline(never)]
    fn charge_skipped(&mut self, cycle: u64) {
        debug_assert!(self.due() > cycle, "core {} due before {cycle}", self.id);
        self.charge(cycle - self.cycle);
        self.cycle = cycle;
    }

    /// Charge `n` cycles of the current state — the one rule for every
    /// core cycle, ticked or skipped: a span in `imiss -> exec -> annul`
    /// order, a wait for data as one load-use stall then conflicts, for
    /// the store buffer as conflicts, parked as execution, halted as
    /// nothing. A span that ends moves on: to issue, to the store port
    /// or to park (only the first is reachable from a catch-up).
    #[inline(always)]
    fn charge(&mut self, n: u64) {
        let p = self.profile.func_mut(self.func);
        match &mut self.state {
            State::Halted => {}
            State::Busy {
                imiss,
                exec,
                annul,
                then,
            } => {
                let mut left = n;
                let take = (*imiss as u64).min(left);
                p.cycles[StallBucket::IMiss.index()] += take;
                *imiss -= take as u32;
                left -= take;
                let take = (*exec as u64).min(left);
                p.cycles[StallBucket::Exec.index()] += take;
                *exec -= take as u32;
                left -= take;
                let take = (*annul as u64).min(left);
                p.cycles[StallBucket::Pipeline.index()] += take;
                *annul -= take as u32;
                left -= take;
                debug_assert_eq!(left, 0);
                if *imiss + *exec + *annul == 0 {
                    self.state = match *then {
                        Then::Poll => State::Poll,
                        Then::Mem => State::WaitStoreDrain,
                        // The `wfi` returns on resume.
                        Then::Park => State::Parked,
                    };
                }
            }
            State::WaitMem { stalled } => {
                let load_use = u64::from(!*stalled);
                p.cycles[StallBucket::LoadStall.index()] += load_use;
                p.cycles[StallBucket::Conflict.index()] += n - load_use;
                *stalled = true;
            }
            State::WaitStoreDrain => p.cycles[StallBucket::Conflict.index()] += n,
            // The wake line is down: a raised one moves the core to its
            // 2-cycle dispatch before the cycle is charged.
            State::Parked => p.cycles[StallBucket::Exec.index()] += n,
            State::Poll => unreachable!("a core ready to issue takes its op first"),
        }
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("cycle", &self.cycle)
            .field("halted", &self.halted())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::CoreCtx;
    use crate::func::FwFunc;
    use nicsim_mem::Scratchpad;

    struct Rig {
        core: Core,
        xbar: Crossbar,
        sp: Scratchpad,
        imem: InstrMemory,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                core: Core::new(0, ICacheConfig::default(), CodeLayout::new()),
                xbar: Crossbar::new(1, 4),
                sp: Scratchpad::new(4096, 4),
                imem: InstrMemory::new(),
            }
        }

        fn ctx(&self) -> CoreCtx {
            CoreCtx::new(self.core.slot(), 0)
        }

        /// Run until the firmware halts; returns ticks consumed.
        fn run(&mut self, max: u64) -> u64 {
            for t in 0..max {
                if self.core.halted() {
                    return t;
                }
                self.xbar.tick(&mut self.sp);
                self.core.tick(&mut self.xbar, &mut self.imem);
            }
            panic!("firmware did not halt within {max} ticks");
        }
    }

    /// Discount I-miss stalls (cold caches) when checking cycle math.
    fn cycles_sans_imiss(core: &Core) -> u64 {
        let p = core.profile();
        p.total(|f| f.total_cycles()) - p.bucket_cycles(StallBucket::IMiss)
    }

    #[test]
    fn alu_costs_one_cycle_each() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(5).await;
        });
        rig.run(100);
        assert_eq!(cycles_sans_imiss(&rig.core), 5);
        assert_eq!(rig.core.profile().func(FwFunc::SendFrame).instructions, 5);
    }

    #[test]
    fn load_costs_two_cycles_uncontended() {
        let mut rig = Rig::new();
        rig.sp.poke(16, 42);
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            let v = ctx.load(16).await;
            assert_eq!(v, 42);
        });
        rig.run(100);
        let p = rig.core.profile();
        assert_eq!(p.bucket_cycles(StallBucket::LoadStall), 1);
        assert_eq!(p.bucket_cycles(StallBucket::Conflict), 0);
        assert_eq!(cycles_sans_imiss(&rig.core), 2);
    }

    #[test]
    fn store_does_not_stall() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.store(8, 7).await;
            ctx.alu(3).await;
        });
        rig.run(100);
        // 1 (store issue) + 3 (alu): the store drains in the background.
        assert_eq!(cycles_sans_imiss(&rig.core), 4);
        assert_eq!(rig.sp.peek(8), 7);
    }

    #[test]
    fn back_to_back_stores_stall_on_buffer() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.store(8, 1).await;
            ctx.store(12, 2).await;
        });
        rig.run(100);
        let p = rig.core.profile();
        assert_eq!(
            p.bucket_cycles(StallBucket::Conflict),
            1,
            "second store must wait for the single store buffer"
        );
        assert_eq!(rig.sp.peek(8), 1);
        assert_eq!(rig.sp.peek(12), 2);
    }

    #[test]
    fn branch_miss_annuls_a_slot() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.branch().await;
            ctx.branch_miss().await;
        });
        rig.run(100);
        let p = rig.core.profile();
        assert_eq!(p.bucket_cycles(StallBucket::Pipeline), 1);
        assert_eq!(p.bucket_cycles(StallBucket::Exec), 2);
        assert_eq!(p.total(|f| f.instructions), 2);
    }

    #[test]
    fn rmw_set_and_update_roundtrip() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendDispatch);
            ctx.set_bit(64, 0).await;
            ctx.set_bit(64, 1).await;
            ctx.set_bit(64, 3).await;
            let run = ctx.update(64, 0).await;
            assert_eq!(run, 2);
            let run = ctx.update(64, 2).await;
            assert_eq!(run, 0);
            let run = ctx.update(64, 3).await;
            assert_eq!(run, 1);
        });
        rig.run(200);
        assert_eq!(rig.sp.peek(64), 0);
        // Each RMW is exactly one instruction and one memory access.
        let p = rig.core.profile().func(FwFunc::SendDispatch);
        assert_eq!(p.instructions, 6);
        assert_eq!(p.mem_accesses, 6);
    }

    #[test]
    fn ipc_is_at_most_one() {
        let mut rig = Rig::new();
        let ctx = rig.ctx();
        rig.core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            for _ in 0..20 {
                ctx.alu(4).await;
                ctx.load(0).await;
                ctx.store(4, 1).await;
                ctx.branch_miss().await;
            }
        });
        let ticks = rig.run(10_000);
        let instr = rig.core.profile().total(|f| f.instructions);
        assert!(instr <= ticks);
        // And cycle accounting is complete: buckets sum to ticks, except
        // the final tick in which the future returned `Ready`.
        let cycles = rig.core.profile().total(|f| f.total_cycles());
        assert!(ticks - cycles <= 1, "ticks={ticks} cycles={cycles}");
    }
}

#[cfg(test)]
mod attribution_tests {
    use super::*;
    use crate::ctx::CoreCtx;
    use crate::func::{FwFunc, StallBucket};
    use nicsim_mem::Scratchpad;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn rig() -> (Core, Crossbar, Scratchpad, InstrMemory) {
        (
            Core::new(0, ICacheConfig::default(), CodeLayout::new()),
            Crossbar::new(1, 4),
            Scratchpad::new(4096, 4),
            InstrMemory::new(),
        )
    }

    fn run(core: &mut Core, xbar: &mut Crossbar, sp: &mut Scratchpad, imem: &mut InstrMemory) {
        for _ in 0..50_000 {
            if core.halted() {
                return;
            }
            xbar.tick(sp);
            core.tick(xbar, imem);
        }
        panic!("did not halt");
    }

    #[test]
    fn work_is_attributed_to_the_active_function() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::FetchSendBd);
            ctx.alu(10).await;
            ctx.set_func(FwFunc::RecvFrame);
            ctx.alu(20).await;
            ctx.load(0).await;
            ctx.set_func(FwFunc::Idle);
            ctx.alu(5).await;
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        let p = core.profile();
        assert_eq!(p.func(FwFunc::FetchSendBd).instructions, 10);
        assert_eq!(p.func(FwFunc::RecvFrame).instructions, 21);
        assert_eq!(p.func(FwFunc::RecvFrame).mem_accesses, 1);
        assert_eq!(p.func(FwFunc::Idle).instructions, 5);
        assert_eq!(p.func(FwFunc::SendFrame).instructions, 0);
    }

    #[test]
    fn icache_misses_are_charged_on_function_entry() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            // Alternate between two handlers: first pass cold, later
            // passes hit in the 8 KB cache.
            for _ in 0..3 {
                ctx.set_func(FwFunc::SendFrame);
                ctx.alu(100).await;
                ctx.set_func(FwFunc::RecvFrame);
                ctx.alu(100).await;
            }
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        let p = core.profile();
        let imiss = p.bucket_cycles(StallBucket::IMiss);
        assert!(imiss > 0, "cold misses must be charged");
        // 100 instructions touch ~13 lines; fills are ~4 cycles; all
        // I-miss time must come from the two cold passes only.
        assert!(imiss < 2 * 14 * 8, "warm passes must hit: imiss={imiss}");
        assert!(core.icache().hits() > core.icache().misses());
    }

    #[test]
    fn reset_stats_clears_profile_but_keeps_cache_contents() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(50).await;
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        core.reset_stats();
        assert_eq!(core.profile().total(|f| f.instructions), 0);
        // Cache contents survive: re-running through the same region
        // misses at most on the few lines the first pass never touched.
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(50).await;
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        assert!(
            core.icache().misses() <= 8,
            "warm region should mostly hit, got {} misses",
            core.icache().misses()
        );
    }

    #[test]
    fn queued_ops_are_charged_to_the_tag_they_were_issued_under() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(3).await;
            ctx.set_func(FwFunc::RecvFrame);
            ctx.alu(4).await;
            ctx.store(8, 1).await;
            ctx.set_func(FwFunc::Idle);
            ctx.branch_miss().await;
        });
        let mut log = nicsim_obs::EventLog::new();
        xbar.tick(&mut sp);
        core.tick_probed(&mut xbar, &mut imem, 1, Ps::ZERO, &mut log);
        // One poll ran the firmware to its end: its tag has moved on to
        // the last one while the first op is still being charged.
        assert_eq!(core.slot().func.get(), FwFunc::Idle);
        assert_eq!(core.slot().len(), 3);
        assert_eq!(core.profile().func(FwFunc::SendFrame).total_cycles(), 1);
        for cycle in 2..202 {
            xbar.tick(&mut sp);
            core.tick_probed(&mut xbar, &mut imem, cycle, Ps::ZERO, &mut log);
        }
        assert!(core.halted());
        let exec = StallBucket::Exec.index();
        let p = core.profile();
        assert_eq!(p.func(FwFunc::SendFrame).instructions, 3);
        assert_eq!(p.func(FwFunc::SendFrame).cycles[exec], 3);
        assert_eq!(p.func(FwFunc::RecvFrame).instructions, 5);
        assert_eq!(p.func(FwFunc::RecvFrame).mem_accesses, 1);
        assert_eq!(p.func(FwFunc::RecvFrame).cycles[exec], 5);
        assert_eq!(p.func(FwFunc::Idle).instructions, 1);
        assert_eq!(p.func(FwFunc::Idle).cycles[exec], 1);
        assert_eq!(
            p.func(FwFunc::Idle).cycles[StallBucket::Pipeline.index()],
            1
        );
        // Handler entries follow the charged ops, not the firmware.
        let entered: Vec<&str> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::HandlerEnter { func, .. } => Some(*func),
                _ => None,
            })
            .collect();
        let want = [FwFunc::SendFrame, FwFunc::RecvFrame, FwFunc::Idle].map(FwFunc::label);
        assert_eq!(entered, want);
    }

    #[test]
    fn taken_ops_are_reported_in_charging_order() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.alu(3).await;
            ctx.store(8, 1).await;
            ctx.load(8).await;
        });
        let mut log = nicsim_obs::EventLog::new();
        let mut cycle = 1;
        xbar.tick(&mut sp);
        core.tick_probed(&mut xbar, &mut imem, cycle, Ps(cycle), &mut log);
        // One poll issued all three; the engine has taken only the first.
        assert_eq!(core.slot().len(), 2);
        while !core.halted() {
            cycle += 1;
            xbar.tick(&mut sp);
            core.tick_probed(&mut xbar, &mut imem, cycle, Ps(cycle), &mut log);
        }
        let taken: Vec<(PendingOp, Ps)> = log
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::OpTaken { core: 0, op, at } => Some((op, at)),
                _ => None,
            })
            .collect();
        let mem = |op| PendingOp::Mem(SpRequest { addr: 8, op });
        let want = [PendingOp::Alu(3), mem(SpOp::Write(1)), mem(SpOp::Read)];
        assert_eq!(taken.iter().map(|t| t.0).collect::<Vec<_>>(), want);
        // Each is stamped with the time of the tick that took it.
        assert_eq!(taken[0].1, Ps(1));
        assert!(taken[1].1 > taken[0].1 && taken[2].1 > taken[1].1);
    }

    #[test]
    fn a_long_value_free_run_returns_to_the_engine() {
        // Nothing here ever waits for a result: only the queue bound
        // hands control back, so without it the first tick never ends.
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            loop {
                ctx.alu(1).await;
            }
        });
        for _ in 0..100 {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
            assert!(core.slot().len() <= crate::slot::RUN_AHEAD);
        }
        assert!(!core.halted());
        let p = core.profile();
        let exec = p.bucket_cycles(StallBucket::Exec);
        assert_eq!(exec + p.bucket_cycles(StallBucket::IMiss), 100);
        // One instruction per execution cycle; the last may sit in a miss.
        assert!(p.total(|f| f.instructions) - exec <= 1);
    }

    #[test]
    fn completion_with_ops_queued_halts_when_the_last_is_charged() {
        // The future returns on its first poll with three ops queued;
        // the core halts where the one-op-per-poll engine did (tick
        // counts pinned from it): after 4 cold-miss and 6 execution
        // cycles, on tick 11, which is also the first halted tick.
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(3).await;
            ctx.store(8, 7).await;
            ctx.alu(2).await;
        });
        let mut halted_at = None;
        for t in 1..=20 {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
            if core.halted() && halted_at.is_none() {
                halted_at = Some(t);
            }
        }
        assert_eq!(halted_at, Some(11));
        assert_eq!(core.profile().total(|f| f.instructions), 6);
        assert_eq!(sp.peek(8), 7);
    }

    /// Run `fw` to completion on a fresh core, waking it whenever it
    /// parks; returns how many times the engine polled the future.
    fn polls_to_run<F: Future<Output = ()> + 'static>(fw: impl FnOnce(CoreCtx) -> F) -> u32 {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let polls = std::rc::Rc::new(std::cell::Cell::new(0));
        let counter = polls.clone();
        let mut fw = Box::pin(fw(CoreCtx::new(core.slot(), 0)));
        core.install(std::future::poll_fn(move |cx| {
            counter.set(counter.get() + 1);
            fw.as_mut().poll(cx)
        }));
        while !core.halted() {
            if core.parked() {
                core.raise_wake();
            }
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
            assert!(core.cycle < 10_000, "did not halt");
        }
        polls.get()
    }

    #[test]
    fn the_firmware_is_polled_once_per_result_it_waits_for() {
        // The run-ahead contract: only an op whose result the firmware
        // reads, or a full queue, hands control back to the engine. A
        // spurious suspension would move no simulated result, only host
        // time, so the polls are counted: the first one plus one per
        // resumption.
        let polls = polls_to_run(|ctx| async move {
            ctx.alu(3).await;
            ctx.load(0).await;
            ctx.store(4, 1).await;
            ctx.branch().await;
            ctx.load(4).await;
            ctx.alu(0).await;
            ctx.update(64, 0).await;
        });
        assert_eq!(polls, 1 + 3, "two loads and an update");

        // A value-free run longer than the queue: one more poll each
        // time the queue fills (at the 9th and the 17th `alu`).
        let polls = polls_to_run(|ctx| async move {
            for _ in 0..2 * crate::slot::RUN_AHEAD + 4 {
                ctx.alu(1).await;
            }
            ctx.load(0).await;
        });
        assert_eq!(polls, 1 + 1 + 2, "one load, two full queues");

        let polls = polls_to_run(|ctx| async move {
            ctx.alu(2).await;
            ctx.wfi().await;
            ctx.alu(3).await;
        });
        assert_eq!(polls, 1 + 1, "the wfi returns when the core is woken");
    }

    #[test]
    fn sync_resumes_on_the_tick_the_queue_drains() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        let passed = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag = passed.clone();
        core.install(async move {
            ctx.alu(3).await;
            ctx.sync().await;
            flag.set(true);
            ctx.alu(1).await;
        });
        // The firmware gets past `sync` on exactly the tick the engine
        // issues the instruction after it — not on the first poll.
        for _ in 0..20 {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
            let issued = core.profile().total(|f| f.instructions);
            assert_eq!(passed.get(), issued == 4, "{issued} issued");
        }
        assert!(core.halted());
    }

    #[test]
    fn catch_up_matches_ticking_through_a_busy_span() {
        // Two identical cores run the same firmware; one is caught up
        // through a Busy span that ends by taking the next op, the other
        // ticks densely. Profiles and cycles must match exactly.
        let build = || {
            let (mut core, xbar, sp, imem) = rig();
            let ctx = CoreCtx::new(core.slot(), 0);
            core.install(async move {
                ctx.set_func(FwFunc::SendFrame);
                ctx.alu(12).await;
                ctx.branch_miss().await;
                ctx.alu(3).await;
            });
            (core, xbar, sp, imem)
        };
        let (mut dense, mut dx, mut dsp, mut dim) = build();
        let (mut fast, mut fx, mut fsp, mut fim) = build();

        // First tick enters Busy { exec: 12 } and charges one cycle.
        dx.tick(&mut dsp);
        dense.tick(&mut dx, &mut dim);
        fx.tick(&mut fsp);
        fast.tick(&mut fx, &mut fim);
        let due = fast.due();
        assert!(due >= 13, "the span's last cycle only charges: {due}");

        // Charge the whole span, its last cycle included, on the fast
        // core; tick the dense core through the same cycles.
        fast.catch_up(due - 1);
        for _ in 1..due - 1 {
            dx.tick(&mut dsp);
            dense.tick(&mut dx, &mut dim);
        }
        assert_eq!(fast.due(), due, "ready to issue on the due cycle");
        assert_eq!(fast.profile(), dense.profile());
        assert_eq!(fast.cycle, dense.cycle);

        // Both finish identically.
        run(&mut dense, &mut dx, &mut dsp, &mut dim);
        run(&mut fast, &mut fx, &mut fsp, &mut fim);
        assert_eq!(fast.profile(), dense.profile());
        assert_eq!(fast.cycle, dense.cycle);
    }

    #[test]
    fn a_halted_core_is_never_due_and_catch_up_charges_nothing() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.alu(1).await;
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        assert!(core.halted());
        assert_eq!(core.due(), u64::MAX);
        let (before, cycle) = (core.profile().clone(), core.cycle);
        core.catch_up(cycle + 1000);
        assert_eq!(core.cycle, cycle + 1000);
        assert_eq!(core.profile(), &before);
    }

    #[test]
    fn wfi_parks_until_wake_and_charges_dispatch_cost() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(2).await;
            ctx.wfi().await;
            ctx.alu(3).await;
        });
        // Tick until the core parks. The `wfi` is issued behind the
        // still-uncharged `alu(2)`, on the first poll.
        xbar.tick(&mut sp);
        core.tick(&mut xbar, &mut imem);
        assert_eq!(core.slot().len(), 1, "wfi queued");
        for _ in 0..20 {
            if core.parked() {
                break;
            }
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
        }
        assert!(core.parked());
        assert_eq!(core.due(), u64::MAX, "no doorbell: inert");
        let instr_at_park = core.profile().total(|f| f.instructions);
        assert_eq!(instr_at_park, 3, "alu(2) + the wfi instruction");

        // Parked ticks accumulate idle time but no instructions.
        let before = core.profile().total(|f| f.total_cycles());
        for _ in 0..5 {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
        }
        assert!(core.parked());
        assert_eq!(core.profile().total(|f| f.total_cycles()), before + 5);

        // Doorbell: next wake is immediate, the resume costs exactly the
        // 2-cycle dispatch plus the post-wake work, with no extra
        // instructions charged for the wakeup itself.
        core.raise_wake();
        assert_eq!(core.due(), core.cycle + 1);
        let cycles_at_wake = core.profile().total(|f| f.total_cycles());
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        let cycles = core.profile().total(|f| f.total_cycles());
        assert_eq!(
            cycles - cycles_at_wake,
            u64::from(WAKE_DISPATCH_CYCLES) + 3,
            "2-cycle wake dispatch + alu(3)"
        );
        assert_eq!(core.profile().total(|f| f.instructions), instr_at_park + 3);
    }

    #[test]
    fn parked_catch_up_matches_dense_ticking() {
        let build = || {
            let (mut core, xbar, sp, imem) = rig();
            let ctx = CoreCtx::new(core.slot(), 0);
            core.install(async move {
                ctx.set_func(FwFunc::RecvFrame);
                ctx.alu(4).await;
                ctx.wfi().await;
                ctx.alu(2).await;
            });
            (core, xbar, sp, imem)
        };
        let (mut dense, mut dx, mut dsp, mut dim) = build();
        let (mut fast, mut fx, mut fsp, mut fim) = build();
        for _ in 0..10 {
            dx.tick(&mut dsp);
            dense.tick(&mut dx, &mut dim);
            fx.tick(&mut fsp);
            fast.tick(&mut fx, &mut fim);
        }
        assert!(dense.parked() && fast.parked());

        // The doorbell fires 100 cycles later: the fast core is caught
        // up over the parked span, the dense core ticks through it.
        // Everything observable must match, including the preserved wake
        // cost.
        fast.catch_up(110);
        for _ in 0..100 {
            dx.tick(&mut dsp);
            dense.tick(&mut dx, &mut dim);
        }
        assert_eq!(fast.profile(), dense.profile());
        assert_eq!(fast.cycle, dense.cycle);

        dense.raise_wake();
        fast.raise_wake();
        assert_eq!(fast.due(), dense.due());
        run(&mut dense, &mut dx, &mut dsp, &mut dim);
        run(&mut fast, &mut fx, &mut fsp, &mut fim);
        assert_eq!(fast.profile(), dense.profile());
        assert_eq!(fast.cycle, dense.cycle);
    }

    #[test]
    fn wake_before_park_is_consumed_at_the_next_wfi() {
        // A doorbell that fires while the core is still busy is sticky:
        // the subsequent wfi completes after one spurious wake.
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(8).await;
            ctx.wfi().await;
        });
        xbar.tick(&mut sp);
        core.tick(&mut xbar, &mut imem);
        assert!(!core.parked(), "mid-Busy");
        core.raise_wake();
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        assert!(core.halted(), "sticky wake let the wfi complete");
    }

    /// One core on its own crossbar, scratchpad and instruction memory,
    /// with three more requesters (ports 1–3) that each read bank 0
    /// whenever they are idle.
    struct Contended {
        core: Core,
        xbar: Crossbar,
        sp: Scratchpad,
        imem: InstrMemory,
        log: nicsim_obs::EventLog,
    }

    impl Contended {
        fn new() -> Contended {
            Contended::with(|ctx| async move {
                ctx.set_func(FwFunc::SendFrame);
                ctx.alu(5).await;
                ctx.branch().await;
                for _ in 0..3 {
                    ctx.load(0).await;
                }
                ctx.store(4, 1).await;
                ctx.store(8, 2).await;
                ctx.store(12, 3).await;
                ctx.branch_miss().await;
                ctx.set_func(FwFunc::RecvFrame);
                ctx.alu(3).await;
                ctx.wfi().await;
                ctx.alu(20).await;
                // The wake raised during the `alu(20)` is consumed here.
                ctx.wfi().await;
                ctx.update(64, 0).await;
                // Parks with the store in flight: its response lands on a
                // parked core.
                ctx.store(16, 4).await;
                ctx.wfi().await;
                ctx.alu(2).await;
            })
        }

        /// The rig running firmware `fw`.
        fn with<F: Future<Output = ()> + 'static>(fw: impl FnOnce(CoreCtx) -> F) -> Contended {
            let mut core = Core::new(0, ICacheConfig::default(), CodeLayout::new());
            core.install(fw(CoreCtx::new(core.slot(), 0)));
            Contended {
                core,
                xbar: Crossbar::new(4, 4),
                sp: Scratchpad::new(4096, 4),
                imem: InstrMemory::new(),
                log: nicsim_obs::EventLog::new(),
            }
        }

        fn tick(&mut self, cycle: u64) -> u64 {
            let at = Ps(cycle);
            self.core
                .tick_probed(&mut self.xbar, &mut self.imem, cycle, at, &mut self.log)
        }

        /// The other requesters' turn, at the end of the cycle.
        fn contend(&mut self) {
            for port in 1..4 {
                self.xbar.take_response(port);
                if self.xbar.port_idle(port) {
                    let req = SpRequest {
                        addr: 32,
                        op: SpOp::Read,
                    };
                    self.xbar.submit(port, req);
                }
            }
        }
    }

    /// Every value a firmware's loads returned, in order.
    type Loaded = Rc<RefCell<Vec<u32>>>;

    /// The [`Contended`] rig running three rounds, each of `lead` ops (a
    /// store to word 0, then ALU ops) and then loads of word 0 and word
    /// 16, both on the contended bank, as one pair or as two loads; every
    /// round starts a batch. Also returns the firmware's poll count and
    /// the values its loads returned.
    fn pair_rig(paired: bool, lead: usize) -> (Contended, Rc<Cell<u32>>, Loaded) {
        let polls = Rc::new(Cell::new(0));
        let seen = Rc::new(RefCell::new(Vec::new()));
        let (counter, log) = (polls.clone(), seen.clone());
        let mut rig = Contended::with(move |ctx| {
            let mut fw = Box::pin(async move {
                ctx.set_func(FwFunc::SendFrame);
                let mut sum = 0;
                for round in 0..3 {
                    ctx.store(0, sum + round).await;
                    for _ in 1..lead {
                        ctx.alu(1).await;
                    }
                    let (a, b) = if paired {
                        ctx.load_pair(0, 16).await
                    } else {
                        (ctx.load(0).await, ctx.load(16).await)
                    };
                    log.borrow_mut().extend([a, b]);
                    sum = a + b;
                }
            });
            std::future::poll_fn(move |cx| {
                counter.set(counter.get() + 1);
                fw.as_mut().poll(cx)
            })
        });
        rig.sp.poke(16, 7);
        (rig, polls, seen)
    }

    /// Run the paired and the two-load firmware side by side: every tick
    /// leaves both cores with the same profile, crossbar grants, due
    /// cycle and probe events, the loads return the same values, and the
    /// pair polls `fewer` times less per round. Returns the bank-conflict
    /// cycles.
    fn pair_matches_two_loads(lead: usize, contend: bool, fewer: u32) -> u64 {
        let (mut pair, pair_polls, pair_seen) = pair_rig(true, lead);
        let (mut two, two_polls, two_seen) = pair_rig(false, lead);
        let mut cycle = 0;
        while !two.core.halted() {
            cycle += 1;
            assert!(cycle < 500, "did not halt");
            let mut due = [0; 2];
            for (rig, due) in [&mut pair, &mut two].into_iter().zip(&mut due) {
                rig.xbar.tick(&mut rig.sp);
                *due = rig.tick(cycle);
                if contend {
                    rig.contend();
                }
            }
            let when = format!("lead {lead}, contend {contend}, cycle {cycle}");
            assert_eq!(due[0], due[1], "{when}");
            assert_eq!(pair.core.profile(), two.core.profile(), "{when}");
            for port in 0..4 {
                let grants = |r: &Contended| r.xbar.port_stats(port).grants;
                assert_eq!(grants(&pair), grants(&two), "port {port}, {when}");
            }
        }
        assert!(pair.core.halted());
        assert_eq!(pair.log.events(), two.log.events());
        assert_eq!(*pair_seen.borrow(), [0, 7, 8, 7, 17, 7]);
        assert_eq!(*two_seen.borrow(), *pair_seen.borrow());
        assert_eq!(pair_polls.get() + 3 * fewer, two_polls.get());
        pair.core.profile().bucket_cycles(StallBucket::Conflict)
    }

    #[test]
    fn a_load_pair_charges_like_two_loads_with_one_poll_fewer() {
        for lead in [1, 4] {
            let quiet = pair_matches_two_loads(lead, false, 1);
            let contended = pair_matches_two_loads(lead, true, 1);
            assert!(contended > quiet, "lead {lead}: {contended} > {quiet}");
        }
    }

    #[test]
    fn a_pair_that_straddles_a_full_batch_matches_two_loads() {
        use crate::slot::RUN_AHEAD;
        for contend in [false, true] {
            // The first load fills the batch: the second goes into the
            // next one, after a poll, as a second `load` would.
            pair_matches_two_loads(RUN_AHEAD - 1, contend, 0);
            // The batch is full before the pair: both go into the next.
            pair_matches_two_loads(RUN_AHEAD, contend, 1);
        }
    }

    #[test]
    fn ticking_only_due_cycles_and_responses_matches_dense_ticking() {
        let (mut dense, mut sparse) = (Contended::new(), Contended::new());
        let same = |d: &Contended, s: &Contended, when: &str| {
            assert_eq!(d.core.profile(), s.core.profile(), "{when}");
            assert_eq!(d.core.cycle, s.core.cycle, "{when}");
            assert_eq!(d.log.events(), s.log.events(), "{when}");
        };
        let (mut due, mut sparse_ticks, mut parked_for) = (1, 0, 0);
        let (mut wakes, mut mid_span_at, mut halted_at) = (Vec::new(), None, None);
        let mut cycle = 0;
        while halted_at.is_none_or(|h| cycle < h + 20) {
            cycle += 1;
            assert!(cycle < 2_000, "did not halt");
            dense.xbar.tick(&mut dense.sp);
            sparse.xbar.tick(&mut sparse.sp);
            dense.tick(cycle);
            if due <= cycle || sparse.xbar.ready() & 1 != 0 {
                due = sparse.tick(cycle);
                sparse_ticks += 1;
                same(&dense, &sparse, &format!("tick on {cycle}"));
            } else {
                assert!(sparse.core.due() > cycle, "{cycle}");
                if cycle % 3 == 0 {
                    sparse.core.catch_up(cycle);
                    same(&dense, &sparse, &format!("catch-up to {cycle}"));
                }
            }
            dense.contend();
            sparse.contend();

            // Doorbells, placed by the dense core's state: one after ten
            // parked cycles, one in the middle of the `alu(20)` span.
            parked_for = if dense.core.parked() {
                parked_for + 1
            } else {
                0
            };
            if parked_for == 10 || mid_span_at == Some(cycle) {
                if mid_span_at.is_none() {
                    mid_span_at = Some(cycle + 8);
                } else if mid_span_at == Some(cycle) {
                    assert!(dense.core.due() > cycle + 1, "mid-span");
                }
                wakes.push(cycle);
                dense.core.raise_wake();
                sparse.core.catch_up(cycle);
                sparse.core.raise_wake();
                due = sparse.core.due();
                same(&dense, &sparse, &format!("wake on {cycle}"));
            }
            if dense.core.halted() && halted_at.is_none() {
                halted_at = Some(cycle);
            }
        }
        sparse.core.catch_up(cycle);
        same(&dense, &sparse, "the end");
        assert!(sparse.core.halted());
        assert_eq!(wakes.len(), 3, "{wakes:?}");
        let p = dense.core.profile();
        assert_eq!(
            p.bucket_cycles(StallBucket::Conflict),
            8,
            "contended: {p:?}"
        );
        assert_eq!(dense.sp.peek(16), 4);
        assert!(
            sparse_ticks * 2 < cycle,
            "{sparse_ticks} sparse ticks in {cycle} cycles"
        );
    }

    /// Every state's bucket rule, pinned: one firmware takes the core
    /// through an I-missing span, a contended load, a store waiting for
    /// the buffer, an annulled slot, a parked span with its wake
    /// dispatch, and the halt. The dense and sparse cores share the
    /// rule, so only exact counts catch a wrong one.
    #[test]
    fn every_state_charges_its_pinned_buckets() {
        let mut rig = Contended::with(|ctx| async move {
            ctx.set_func(FwFunc::SendFrame);
            ctx.alu(3).await;
            ctx.load(0).await;
            ctx.store(4, 1).await;
            ctx.store(8, 2).await;
            ctx.branch_miss().await;
            ctx.wfi().await;
            ctx.alu(1).await;
        });
        let (mut cycle, mut parked_for) = (0, 0);
        while !rig.core.halted() {
            cycle += 1;
            assert!(cycle < 500, "did not halt");
            rig.xbar.tick(&mut rig.sp);
            rig.tick(cycle);
            rig.contend();
            parked_for += u32::from(rig.core.parked());
            if parked_for == 4 && rig.core.parked() {
                rig.core.raise_wake();
            }
        }
        assert_eq!(cycle, 28, "halted on");
        let p = rig.core.profile().func(FwFunc::SendFrame);
        // Exec, IMiss, LoadStall, Conflict, Pipeline: 9 instructions, 3
        // parked cycles and the 2-cycle dispatch execute; the load pays
        // its load-use stall and 2 bank conflicts, the second store 1.
        assert_eq!(p.cycles, [14, 8, 1, 3, 1]);
        assert_eq!(p.instructions, 9);
    }

    #[test]
    fn a_ticked_halted_core_charges_nothing() {
        let (mut core, mut xbar, mut sp, mut imem) = rig();
        let ctx = CoreCtx::new(core.slot(), 0);
        core.install(async move {
            ctx.alu(1).await;
        });
        run(&mut core, &mut xbar, &mut sp, &mut imem);
        let before = core.profile().clone();
        for _ in 0..100 {
            xbar.tick(&mut sp);
            core.tick(&mut xbar, &mut imem);
        }
        assert!(core.halted());
        assert_eq!(core.profile(), &before);
    }
}

#[cfg(test)]
mod run_alone_tests {
    use super::*;
    use crate::ctx::CoreCtx;
    use crate::func::FwFunc;
    use nicsim_mem::{Listener, Scratchpad};
    use nicsim_obs::EventLog;

    const PERIOD: Ps = Ps(5_000);
    /// The one watched word: a write to it is the system's to grant.
    const WATCHED: u32 = 96;

    fn at(cycle: u64) -> Ps {
        Ps(PERIOD.0 * cycle)
    }

    /// One core on a 4-port crossbar whose other ports stay idle, with
    /// its scratchpad (one watched word), instruction memory and log.
    struct Rig {
        core: Core,
        xbar: Crossbar,
        sp: Scratchpad,
        imem: InstrMemory,
        log: EventLog,
    }

    /// Everything the two sides must agree on after a cycle: the core's
    /// profile, cycle and due cycle, the crossbar (port grant counts,
    /// arbiter pointers, requests and responses), the scratchpad's words
    /// and how many events the log holds.
    type Snapshot = (CoreProfile, u64, u64, String, Vec<u32>, usize);

    impl Rig {
        fn new<F: Future<Output = ()> + 'static>(fw: impl FnOnce(CoreCtx) -> F) -> Rig {
            let mut core = Core::new(0, ICacheConfig::default(), CodeLayout::new());
            core.install(fw(CoreCtx::new(core.slot(), 0)));
            let mut sp = Scratchpad::new(4096, 4);
            sp.watch_range(WATCHED, 4, Listener::FrameSide);
            Rig {
                core,
                xbar: Crossbar::new(4, 4),
                sp,
                imem: InstrMemory::new(),
                log: EventLog::new(),
            }
        }

        /// Cycle `c` ticked in full: the crossbar, then the core.
        fn step(&mut self, c: u64) {
            self.xbar.tick_probed(&mut self.sp, at(c), &mut self.log);
            self.core
                .tick_probed(&mut self.xbar, &mut self.imem, c, at(c), &mut self.log);
        }

        /// Raise the wake line at the end of cycle `c`, as the system's
        /// doorbell fan-out does.
        fn wake(&mut self, c: u64) {
            self.core.catch_up(c);
            self.core.raise_wake();
        }

        fn snapshot(&mut self, c: u64) -> Snapshot {
            self.core.catch_up(c);
            let words = (0..128).map(|w| self.sp.peek(w * 4)).collect();
            (
                self.core.profile().clone(),
                self.core.cycle,
                self.core.due(),
                format!("{:?}", self.xbar),
                words,
                self.log.events().len(),
            )
        }
    }

    /// The firmware every case runs: loads, a load pair, back-to-back
    /// stores, a load right after a store, each RMW, a branch miss, a
    /// function switch that misses in the I-cache, a store to the
    /// watched word, and two `wfi`s (the second one after the wake has
    /// already been raised, so it passes through).
    async fn firmware(ctx: CoreCtx) {
        ctx.set_func(FwFunc::SendFrame);
        ctx.alu(3).await;
        let v = ctx.load(0).await;
        let (a, b) = ctx.load_pair(4, 8).await;
        ctx.store(12, v + a + b + 1).await;
        ctx.store(16, 2).await;
        let w = ctx.load(12).await;
        ctx.branch().await;
        ctx.set_bit(20, 3).await;
        ctx.set_bit(20, 4).await;
        let run = ctx.update(20, 3).await;
        let held = ctx.test_and_set(24).await;
        ctx.branch_miss().await;
        ctx.set_func(FwFunc::RecvFrame);
        ctx.alu(40).await;
        ctx.store(WATCHED, w + run + held).await;
        ctx.alu(2).await;
        ctx.store(28, 7).await;
        ctx.wfi().await;
        ctx.set_func(FwFunc::Idle);
        ctx.alu(30).await;
        ctx.wfi().await;
        for i in 0..6 {
            ctx.load(4 * i).await;
            ctx.alu(i + 1).await;
        }
    }

    /// The reference: every cycle ticked, a wake raised 5 cycles into
    /// each park and another in the middle of the `alu(30)`. Returns the
    /// snapshot after each cycle (index 0: before the first), the wake
    /// cycles, and the log.
    fn reference() -> (Vec<Snapshot>, Vec<u64>, EventLog) {
        let mut rig = Rig::new(firmware);
        let mut snaps = vec![rig.snapshot(0)];
        let (mut wakes, mut parked_for, mut idle_ops) = (Vec::new(), 0, false);
        let mut c = 0;
        while !rig.core.halted() {
            c += 1;
            assert!(c < 1_000, "did not halt");
            rig.step(c);
            parked_for = if rig.core.parked() { parked_for + 1 } else { 0 };
            let in_idle = rig.core.func == FwFunc::Idle;
            if parked_for == 5 || (in_idle && !idle_ops && rig.core.due() > c + 10) {
                idle_ops |= in_idle;
                rig.wake(c);
                wakes.push(c);
            }
            snaps.push(rig.snapshot(c));
        }
        (snaps, wakes, rig.log)
    }

    /// Run the firmware ahead with a limit on every cycle `≡ offset`
    /// (mod `window`) and at every wake; each stop is followed by one
    /// full step, as the system steps the cycle a frame side wakes on.
    /// Every stop must match the reference. Returns the cycles the
    /// runs covered, whether one stopped before granting the store to
    /// the watched word, and whether one stopped on a parked core.
    fn ahead(window: u64, offset: u64) -> (u64, bool, bool) {
        let (snaps, wakes, log) = reference();
        let end = snaps.len() as u64 - 1;
        let mut rig = Rig::new(firmware);
        let (mut c, mut ran, mut woken) = (0, 0, 0);
        let (mut stopped_at_watch, mut stopped_parked) = (false, false);
        while c < end {
            let boundary = c + 1 + (offset + window - (c + 1) % window) % window;
            let wake = wakes.get(woken).copied().unwrap_or(u64::MAX);
            let limit = boundary.min(wake).min(end);
            let e = rig.core.run_alone(
                &mut rig.xbar,
                &mut rig.sp,
                &mut rig.imem,
                (c, at(c), PERIOD),
                limit,
                &mut rig.log,
            );
            assert!(e >= c && e <= limit);
            ran += e - c;
            stopped_at_watch |= rig.xbar.needs_tick() && rig.core.req.addr == WATCHED;
            stopped_parked |= rig.core.parked();
            c = e;
            assert_eq!(
                rig.snapshot(c),
                snaps[c as usize],
                "stop at {c} ({window}, {offset})"
            );
            if wakes.get(woken) == Some(&c) {
                rig.wake(c);
                woken += 1;
            } else if c < end {
                c += 1;
                rig.step(c);
                if wakes.get(woken) == Some(&c) {
                    rig.wake(c);
                    woken += 1;
                }
            }
            assert_eq!(
                rig.snapshot(c),
                snaps[c as usize],
                "step {c} ({window}, {offset})"
            );
        }
        assert_eq!(rig.log.events(), log.events(), "({window}, {offset})");
        assert!(
            rig.sp.take_signal(Listener::FrameSide),
            "the watched write landed"
        );
        (ran, stopped_at_watch, stopped_parked)
    }

    #[test]
    fn running_alone_matches_ticking_every_cycle() {
        let (snaps, wakes, _) = reference();
        assert_eq!(wakes.len(), 2, "{wakes:?}");
        let p = &snaps.last().unwrap().0;
        assert!(p.bucket_cycles(StallBucket::IMiss) > 0);
        assert!(p.bucket_cycles(StallBucket::Conflict) > 0, "a store waited");
        assert!(
            p.bucket_cycles(StallBucket::Pipeline) > 0,
            "a branch missed"
        );
        // Unbounded: only the watched write, the parks and the wakes stop
        // it, and it covers most of the run.
        let end = snaps.len() as u64 - 1;
        let (ran, watched, parked) = ahead(u64::MAX / 2, 0);
        assert!(watched, "never stopped before the watched write");
        assert!(parked, "never stopped at a `wfi`");
        assert!(ran * 10 > end * 8, "ran {ran} of {end}");
        // A limit at every cycle offset of a window.
        for window in [1, 2, 3, 7, 16] {
            for offset in 0..window {
                ahead(window, offset);
            }
        }
    }
}
