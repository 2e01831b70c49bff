//! A counting wrapper around the system allocator, switched on only
//! for the traced repetition: with counting off an allocation pays one
//! relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

// Statistics only: none of these publishes other data, so Relaxed.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Zero the counters and start counting.
pub fn start() {
    ALLOCS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
}

/// Stop counting; returns `(allocations, bytes)` since [`start`].
pub fn stop() -> (u64, u64) {
    ON.store(false, Ordering::Relaxed);
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pin glibc's mmap threshold at its initial 128 KiB. Left alone it
/// grows when a large block is freed, after which the next
/// repetition's zeroed buffers (10 MB of host memory per NIC) come
/// from the recycled heap and are cleared eagerly instead of mapped
/// lazily: set-up time and peak RSS then depend on which repetitions
/// ran before, and on where ASLR put the heap (21 MB or 98 MB for the
/// same fleet). Pinned, every repetition allocates like a fresh
/// process. Returns whether glibc accepted the setting.
pub fn pin_mmap_threshold() -> bool {
    // SAFETY: `mallopt` only stores a tuning value inside glibc's
    // allocator state; it is called once, before any other thread
    // exists, with a parameter and value the manual page documents.
    unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) == 1 }
}
