//! Pins the heap allocations a steady-state NIC makes.
//!
//! A counting global allocator wraps `System` and counts every `alloc`
//! and `realloc` the test's own thread makes while counting is on. The
//! default NIC runs 200 µs of warm-up, then a 400 µs window is counted
//! at 1472-byte and at 18-byte datagrams. The counts are exact and
//! deterministic (the same in debug and release), so a change to the
//! frame path's allocations shows here as a named diff rather than as
//! noise in a timed run.

use nicsim::{NicConfig, NicSystem};
use nicsim_sim::Ps;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations counted on this thread, while `Some`.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    COUNT.with(|c| c.set(c.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// touches allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations over the default NIC's 200–600 µs window at
/// `udp_payload`, and the frames both directions moved in it.
fn steady_state(udp_payload: usize) -> (u64, u64) {
    let cfg = NicConfig::builder()
        .udp_payload(udp_payload)
        .build()
        .unwrap();
    let mut sys = NicSystem::build(cfg).finish().unwrap();
    sys.run_until(Ps::from_us(200));
    sys.reset_window();
    COUNT.with(|c| c.set(Some(0)));
    sys.run_until(Ps::from_us(600));
    let allocs = COUNT.with(|c| c.take()).expect("counting");
    let s = sys.collect();
    s.assert_clean();
    (allocs, s.tx_frames + s.rx_frames)
}

#[test]
fn steady_state_allocations_are_pinned() {
    assert_eq!(steady_state(1472), (992, 608), "1472-byte datagrams");
    assert_eq!(steady_state(18), (6_710, 712), "18-byte datagrams");
}
