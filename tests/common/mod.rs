//! A counting global allocator for the host-cost gates without a clock:
//! every allocation of at least [`BIG`] bytes is counted, on every
//! thread of the process. A test binary that includes this module
//! measures with [`big_allocs`]; keep one `#[test]` per binary, since the
//! counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations at least this large are payload-sized.
pub const BIG: usize = 16 * 1024;

struct Counting;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Payload-sized allocations made, by any thread, while `op` ran.
pub fn big_allocs<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = op();
    (out, BIG_ALLOCS.load(Ordering::Relaxed) - before)
}
