//! Good: the record path touches atomics in preallocated buckets only;
//! all allocation happened at construction time.
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Sketch {
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

fn sketch_index(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(63)
}

impl Sketch {
    pub fn record_ns(&self, ns: u64) {
        self.buckets[sketch_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }
}
