//! The epoch rendezvous used by the fleet engine.
//!
//! The paper's NIC has four clock domains (§3): the processor/scratchpad
//! core clock, the SDRAM/frame-bus clock, the wire-side MAC clock, and
//! the host-side PCI clock. The simulator folds all four into one
//! sequential loop per NIC.
//!
//! Parallelism lives one level up: NICs in a fleet are causally
//! independent within an epoch, so the fleet engine runs shards of them
//! on threads in lockstep. [`EpochBarrier`] is that rendezvous: a
//! generation-numbered open/finish handshake. The coordinator *opens*
//! generation `g` (publishing all prior writes), every worker does its
//! disjoint slice of work and *finishes* `g` while the coordinator does
//! its own slice, and the coordinator then *waits* for the finishes
//! (acquiring all the workers' writes).
//! Determinism follows from the disjointness of the slices, not from
//! timing: any interleaving of the threads between open and finish
//! produces the same state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread::Thread;
use std::time::Duration;

/// Generation published when the barrier shuts down.
const STOP: u64 = u64::MAX;

/// Spin iterations before a waiting side falls back to yielding. With a
/// free hardware thread per worker a short rendezvous completes within
/// the spin. On a host without one the peer cannot run while we spin, so
/// the spin budget drops to zero and waits go straight to the scheduler.
const SPIN: u32 = 4096;

/// Yield iterations between spinning and parking on the worker side:
/// `yield_now` costs a syscall but lets an oversubscribed peer run,
/// while `park_timeout` adds a full sleep/wake round trip.
const YIELDS: u32 = 64;

/// A per-worker completion slot, padded to a cache line so workers on
/// different shards never false-share their `done` counters.
#[derive(Debug)]
#[repr(align(64))]
struct DoneSlot(AtomicU64);

/// N-party generation rendezvous between one coordinator and `n`
/// worker threads, used by the fleet engine to run NIC shards in epoch
/// lockstep.
///
/// Protocol per epoch: the coordinator *opens* generation `g`
/// (publishing the frames injected since the last epoch), every worker
/// runs its shard of NICs up to the epoch boundary and *finishes* `g`
/// while the coordinator runs its own shard, and the coordinator then
/// *waits* for all `n` finishes (acquiring every shard's writes) before
/// exchanging frames through the fabric.
/// Determinism follows from the disjointness of the shards plus the
/// fabric's canonical ordering, not from thread timing.
#[derive(Debug)]
pub struct EpochBarrier {
    /// Latest generation the coordinator has opened (STOP = shut down).
    go: AtomicU64,
    /// Per-worker latest finished generation.
    done: Vec<DoneSlot>,
    /// Worker thread handles for unparking (set before first open).
    workers: std::sync::Mutex<Vec<Thread>>,
    /// Set if any worker panicked; poisons the coordinator's waits.
    worker_dead: AtomicBool,
    /// Per-wait spin budget: [`SPIN`] when every worker can plausibly
    /// have its own hardware thread, zero otherwise so waits go straight
    /// to the scheduler.
    spin: u32,
}

impl EpochBarrier {
    /// A barrier for `n` workers (0 is legal) at generation 0
    /// (nothing open, nothing done).
    pub fn new(n: usize) -> EpochBarrier {
        let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_spin(n, if parallelism > n { SPIN } else { 0 })
    }

    /// A barrier with an explicit spin budget. `with_spin(n, 0)` is the
    /// path an oversubscribed host takes: every wait goes straight to
    /// yield/park, which must still make progress (the unit tests pin
    /// this down without needing such a host). `n` may be 0: a
    /// coordinator with no workers, whose `open` and `wait_done`
    /// return at once.
    pub fn with_spin(n: usize, spin: u32) -> EpochBarrier {
        EpochBarrier {
            go: AtomicU64::new(0),
            done: (0..n).map(|_| DoneSlot(AtomicU64::new(0))).collect(),
            workers: std::sync::Mutex::new(Vec::new()),
            worker_dead: AtomicBool::new(false),
            spin,
        }
    }

    /// Number of workers this barrier rendezvouses.
    pub fn workers(&self) -> usize {
        self.done.len()
    }

    /// Register worker `idx`'s thread so `open`/`shutdown` can unpark
    /// it. Must be called for every worker before the first
    /// [`EpochBarrier::open`]. Registration order does not matter.
    pub fn register_worker(&self, t: Thread) {
        let mut workers = self.workers.lock().expect("barrier lock");
        assert!(workers.len() < self.done.len(), "more workers than slots");
        workers.push(t);
    }

    /// Coordinator side: open generation `gen` (> the previous one) to
    /// all workers, releasing the coordinator's writes.
    pub fn open(&self, gen: u64) {
        debug_assert!(gen != STOP);
        self.go.store(gen, Ordering::Release);
        for t in self.workers.lock().expect("barrier lock").iter() {
            t.unpark();
        }
    }

    /// Worker side: block until a generation newer than `last` is
    /// opened; returns it, or `None` on shutdown. Acquires all
    /// coordinator writes made before the open.
    pub fn wait_open(&self, last: u64) -> Option<u64> {
        let mut spins = 0u32;
        loop {
            let g = self.go.load(Ordering::Acquire);
            if g == STOP {
                return None;
            }
            if g > last {
                return Some(g);
            }
            spins = spins.saturating_add(1);
            if spins <= self.spin {
                std::hint::spin_loop();
            } else if spins <= self.spin + YIELDS {
                std::thread::yield_now();
            } else {
                // Parking races with unpark benignly: unpark on a
                // not-yet-parked thread makes the next park return
                // immediately, and the timeout bounds lost wakeups.
                std::thread::park_timeout(Duration::from_millis(1));
            }
        }
    }

    /// Worker `idx` marks generation `gen` finished, releasing its
    /// shard's writes to the coordinator.
    pub fn finish(&self, idx: usize, gen: u64) {
        self.done[idx].0.store(gen, Ordering::Release);
    }

    /// Worker side: mark the barrier poisoned (call from a panic guard
    /// so the coordinator fails fast instead of spinning forever).
    pub fn poison(&self) {
        self.worker_dead.store(true, Ordering::Release);
    }

    /// Coordinator side: block until every worker finishes generation
    /// `gen`, acquiring all their writes.
    ///
    /// # Panics
    ///
    /// Panics if a worker died without finishing (see
    /// [`EpochBarrier::poison`]).
    pub fn wait_done(&self, gen: u64) {
        for slot in &self.done {
            let mut spins = 0u32;
            while slot.0.load(Ordering::Acquire) < gen {
                assert!(
                    !self.worker_dead.load(Ordering::Acquire),
                    "epoch worker thread died mid-epoch"
                );
                spins = spins.saturating_add(1);
                if spins > self.spin {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }

    /// Coordinator side: tell every worker to exit its wait loop.
    pub fn shutdown(&self) {
        self.go.store(STOP, Ordering::Release);
        for t in self.workers.lock().expect("barrier lock").iter() {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_barrier_synchronizes_disjoint_shards() {
        // Four workers each own one cell of a shared array; the
        // coordinator sums the array in the exclusive section after
        // every wait_done. Any visibility or ordering bug shows up as
        // a stale sum.
        const WORKERS: usize = 4;
        let barrier = EpochBarrier::new(WORKERS);
        let mut cells = [0u64; WORKERS];
        let cells_ptr = cells.as_mut_ptr() as usize;
        std::thread::scope(|scope| {
            let b = &barrier;
            let handles: Vec<_> = (0..WORKERS)
                .map(|idx| {
                    scope.spawn(move || {
                        let cells = cells_ptr as *mut u64;
                        let mut last = 0;
                        while let Some(g) = b.wait_open(last) {
                            last = g;
                            // SAFETY: worker idx owns cell idx; the
                            // coordinator only reads between
                            // wait_done(g) and open(g + 1).
                            unsafe { *cells.add(idx) += g };
                            b.finish(idx, g);
                        }
                    })
                })
                .collect();
            for h in &handles {
                barrier.register_worker(h.thread().clone());
            }
            for gen in 1..=100u64 {
                barrier.open(gen);
                barrier.wait_done(gen);
                let sum: u64 = unsafe {
                    std::slice::from_raw_parts(cells_ptr as *const u64, WORKERS)
                        .iter()
                        .sum()
                };
                assert_eq!(sum, WORKERS as u64 * (gen * (gen + 1)) / 2);
            }
            barrier.shutdown();
        });
    }

    #[test]
    fn epoch_barrier_zero_spin_makes_progress() {
        let barrier = EpochBarrier::with_spin(2, 0);
        let mut counts = [0u64; 2];
        let counts_ptr = counts.as_mut_ptr() as usize;
        std::thread::scope(|scope| {
            let b = &barrier;
            let handles: Vec<_> = (0..2)
                .map(|idx| {
                    scope.spawn(move || {
                        let counts = counts_ptr as *mut u64;
                        let mut last = 0;
                        while let Some(g) = b.wait_open(last) {
                            last = g;
                            // SAFETY: disjoint cells, coordinator
                            // blocked in wait_done(g).
                            unsafe { *counts.add(idx) += 1 };
                            b.finish(idx, g);
                        }
                    })
                })
                .collect();
            for h in &handles {
                barrier.register_worker(h.thread().clone());
            }
            for gen in 1..=200u64 {
                barrier.open(gen);
                barrier.wait_done(gen);
            }
            barrier.shutdown();
        });
        assert_eq!(counts, [200, 200]);
    }

    #[test]
    fn epoch_barrier_shutdown_unblocks_all_workers() {
        let barrier = EpochBarrier::new(3);
        std::thread::scope(|scope| {
            let b = &barrier;
            let handles: Vec<_> = (0..3)
                .map(|_| scope.spawn(move || b.wait_open(0)))
                .collect();
            for h in &handles {
                barrier.register_worker(h.thread().clone());
            }
            barrier.shutdown();
            for h in handles {
                assert_eq!(h.join().expect("worker"), None);
            }
        });
    }

    #[test]
    fn epoch_barrier_poison_fails_the_wait() {
        let barrier = EpochBarrier::new(2);
        barrier.poison();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            barrier.open(1);
            barrier.wait_done(1);
        }));
        assert!(r.is_err(), "wait_done must panic on a dead worker");
    }

    #[test]
    fn epoch_barrier_worker_panic_propagates_to_waiting_coordinator() {
        // A worker that dies mid-generation (its panic guard calls
        // `poison`) must turn the coordinator's wait into a panic, not
        // an infinite spin. This is the guard the fleet engine installs
        // around each shard's epoch loop.
        let barrier = EpochBarrier::new(1);
        let handle = std::thread::scope(|scope| {
            let b = &barrier;
            let worker = scope.spawn(move || {
                struct Guard<'a>(&'a EpochBarrier);
                impl Drop for Guard<'_> {
                    fn drop(&mut self) {
                        if std::thread::panicking() {
                            self.0.poison();
                        }
                    }
                }
                let _guard = Guard(b);
                b.wait_open(0).expect("open before shutdown");
                panic!("shard blew up");
            });
            barrier.register_worker(worker.thread().clone());
            barrier.open(1);
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                barrier.wait_done(1);
            }));
            assert!(r.is_err(), "coordinator must fail fast, not spin");
            // Consume the worker's panic so the scope exits cleanly.
            worker.join()
        });
        assert!(handle.is_err(), "worker must have panicked");
    }

    /// Run `f` on its own thread and return whether it panicked, or
    /// fail the test if it has not returned within ten seconds: a
    /// regression here is a hang, which must fail rather than wedge
    /// the suite.
    fn panics_within_10s(f: impl FnOnce() + Send + 'static) -> bool {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(r.is_err());
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("still running after 10 s: hung")
    }

    #[test]
    fn epoch_barrier_without_workers_returns_at_once() {
        // The fleet engine's single-shard case: the coordinator runs
        // every NIC itself, so there is no one to wait for.
        let panicked = panics_within_10s(|| {
            let barrier = EpochBarrier::new(0);
            assert_eq!(barrier.workers(), 0);
            for gen in 1..=100u64 {
                barrier.open(gen);
                barrier.wait_done(gen);
            }
            barrier.shutdown();
        });
        assert!(!panicked);
    }

    #[test]
    fn epoch_barrier_shutdown_on_unwind_releases_live_workers() {
        // Two workers; one dies mid-generation while the other parks
        // in wait_open. The coordinator's wait_done panics, and the
        // shutdown its drop guard makes during the unwind lets the live
        // worker leave, so thread::scope returns the panic instead of
        // waiting for that worker forever. This is the fleet engine's
        // shape.
        struct Poison<'a>(&'a EpochBarrier);
        impl Drop for Poison<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.poison();
                }
            }
        }
        struct Shutdown<'a>(&'a EpochBarrier);
        impl Drop for Shutdown<'_> {
            fn drop(&mut self) {
                self.0.shutdown();
            }
        }
        let panicked = panics_within_10s(|| {
            let barrier = EpochBarrier::new(2);
            std::thread::scope(|scope| {
                let b = &barrier;
                let _shutdown = Shutdown(b);
                for idx in 0..2 {
                    let worker = scope.spawn(move || {
                        let _poison = Poison(b);
                        let mut last = 0;
                        while let Some(g) = b.wait_open(last) {
                            last = g;
                            assert!(idx == 0 || g < 2, "shard blew up");
                            b.finish(idx, g);
                        }
                    });
                    b.register_worker(worker.thread().clone());
                }
                for gen in 1..=3u64 {
                    b.open(gen);
                    b.wait_done(gen);
                }
            });
        });
        assert!(panicked, "the worker's panic must reach the caller");
    }
}
