//! A counting global allocator for the host-cost gates without a clock:
//! every allocation of at least [`BIG`] bytes is counted against the
//! thread that makes it. A simulation runs on the thread that calls its
//! `run`, so [`big_allocs`] counts exactly what one test's operation
//! allocated, while the other tests of the binary run on threads of
//! their own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations at least this large are payload-sized.
pub const BIG: usize = 16 * 1024;

struct Counting;

thread_local! {
    /// `const`-initialised, no destructor: touching it never allocates,
    /// so the allocator itself may use it.
    static BIG_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= BIG {
        // A thread being torn down has no counter left; its allocations
        // are not any test's.
        let _ = BIG_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// thread-local `Cell` that neither allocates nor runs a destructor.
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

/// Payload-sized allocations this thread made while `op` ran.
pub fn big_allocs<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = BIG_ALLOCS.with(Cell::get);
    let out = op();
    (out, BIG_ALLOCS.with(Cell::get) - before)
}
