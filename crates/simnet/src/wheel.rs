//! Hierarchical timing wheel (calendar queue) for the event kernel.
//!
//! The kernel's event queue must pop events in exact `(time, seq)` order.
//! A `BinaryHeap` does that in `O(log n)` per operation with poor cache
//! behavior once the pending set grows to fleet scale (tens of thousands
//! of in-flight timers at 10k clones). The wheel replaces it with two
//! fixed-size slot arrays plus a small heap per "current instant" and a
//! heap-backed overflow level, giving near-`O(1)` push/pop for the dense
//! near-future traffic the simulation actually generates while remaining
//! exactly order-equivalent to the heap (see the
//! `wheel_matches_heap_reference` proptest below).
//!
//! ## Structure
//!
//! Let `W0 = 2^L0_SHIFT` ns be the level-0 slot width and `S = 2^RING_BITS`
//! the slot count per level.
//!
//! - **`cur`**: a small min-heap holding entries whose level-0 slot is
//!   `<= c0` (the drained cursor slot). The global minimum always lives
//!   here once [`TimingWheel::prime`] has run.
//! - **Level 0**: ring of `S` slots, each `W0` wide, covering exactly the
//!   level-1 slot `c1`: absolute L0 slots `[c1*S, (c1+1)*S)`.
//! - **Level 1**: ring of `S` slots, each `S*W0` wide, covering the fixed
//!   window `[w1, w1+S)` of absolute L1 slots.
//! - **`overflow`**: min-heap for everything at or past the level-1
//!   window's end.
//!
//! ## Invariants
//!
//! 1. Entries in `cur` have `l0slot(e) <= c0`; slot rings and overflow
//!    only hold strictly later entries, so `cur`'s minimum is global.
//! 2. Occupancy bitmaps (one `u64` word per 64 slots) make finding the
//!    next non-empty slot a few word scans; set bits only exist *after*
//!    the cursor, so a wrap-around ring scan visits slots in absolute
//!    order.
//! 3. Draining never reorders: a slot's entries are re-heapified into
//!    `cur` (level 0) or re-binned (level 1 → level 0, overflow →
//!    level 1) keyed by the same `(time, seq)`.
//!
//! Because simulated time never runs backwards (`push` is only called
//! with `time >= now`), a pushed entry is never earlier than the cursor
//! except at the current instant, which `cur` handles.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in nanoseconds (1024 ns ≈ 1 µs).
const L0_SHIFT: u32 = 10;
/// log2 of the slot count per ring (4096 slots).
const RING_BITS: u32 = 12;
/// Slots per ring.
const RING: usize = 1 << RING_BITS;
/// Ring index mask.
const RING_MASK: u64 = (RING as u64) - 1;
/// Bitmap words per ring.
const WORDS: usize = RING / 64;

struct Entry<T> {
    time: SimTime,
    seq: u64,
    value: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
    // first — the same trick the old kernel heap used.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Fixed-size occupancy bitmap over one ring.
struct Bitmap([u64; WORDS]);

impl Bitmap {
    fn new() -> Self {
        Bitmap([0; WORDS])
    }

    #[inline]
    fn set(&mut self, idx: usize) {
        self.0[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear(&mut self, idx: usize) {
        self.0[idx >> 6] &= !(1u64 << (idx & 63));
    }

    fn any(&self) -> bool {
        self.0.iter().any(|w| *w != 0)
    }

    /// First set index in ring order starting at `from` (inclusive),
    /// wrapping once around. `None` when the bitmap is empty.
    fn next_set_from(&self, from: usize) -> Option<usize> {
        let start_word = from >> 6;
        let start_bit = from & 63;
        // First (partial) word.
        let w = self.0[start_word] & (!0u64 << start_bit);
        if w != 0 {
            return Some((start_word << 6) + w.trailing_zeros() as usize);
        }
        // Remaining words, wrapping.
        for off in 1..=WORDS {
            let wi = (start_word + off) % WORDS;
            let w = self.0[wi];
            if w != 0 {
                return Some((wi << 6) + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The kernel event queue: pops strictly in `(time, seq)` order.
pub(crate) struct TimingWheel<T> {
    /// Entries at or before the cursor slot `c0` (includes everything at
    /// the current instant). The global minimum is here after `prime`.
    cur: BinaryHeap<Entry<T>>,
    /// Level-0 ring: absolute L0 slots `[c1*RING, (c1+1)*RING)`.
    l0: Vec<Vec<Entry<T>>>,
    l0_occ: Bitmap,
    /// Absolute level-0 cursor: slots `<= c0` have been drained to `cur`.
    c0: u64,
    /// Level-1 ring: absolute L1 slots `[w1, w1 + RING)`.
    l1: Vec<Vec<Entry<T>>>,
    l1_occ: Bitmap,
    /// Absolute L1 slot currently expanded into the level-0 ring.
    c1: u64,
    /// Start of the level-1 window (absolute L1 slot index).
    w1: u64,
    /// Entries at or past the level-1 window end.
    overflow: BinaryHeap<Entry<T>>,
    len: usize,
}

#[inline]
fn l0_slot(t: SimTime) -> u64 {
    t.as_nanos() >> L0_SHIFT
}

impl<T> TimingWheel<T> {
    pub(crate) fn new() -> Self {
        TimingWheel {
            cur: BinaryHeap::new(),
            l0: (0..RING).map(|_| Vec::new()).collect(),
            l0_occ: Bitmap::new(),
            c0: 0,
            l1: (0..RING).map(|_| Vec::new()).collect(),
            l1_occ: Bitmap::new(),
            c1: 0,
            w1: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Pending entry count (used by the test suite's invariant checks;
    /// the kernel tracks its own liveness separately).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Insert an entry. `time` must be at or after the last popped time
    /// (the kernel only schedules at or after `now`); entries at the
    /// current instant land in `cur` directly.
    pub(crate) fn push(&mut self, time: SimTime, seq: u64, value: T) {
        let e = Entry { time, seq, value };
        let s0 = l0_slot(time);
        self.len += 1;
        if s0 <= self.c0 {
            self.cur.push(e);
            return;
        }
        if s0 < (self.c1 + 1) << RING_BITS {
            let idx = (s0 & RING_MASK) as usize;
            self.l0[idx].push(e);
            self.l0_occ.set(idx);
            return;
        }
        let s1 = s0 >> RING_BITS;
        if s1 < self.w1 + RING as u64 {
            let idx = (s1 & RING_MASK) as usize;
            self.l1[idx].push(e);
            self.l1_occ.set(idx);
            return;
        }
        self.overflow.push(e);
    }

    /// Advance cursors until the global minimum entry sits in `cur` (or
    /// the wheel is empty).
    fn prime(&mut self) {
        while self.cur.is_empty() && self.len > 0 {
            // Next non-empty level-0 slot after c0 within the expanded
            // level-1 slot: set bits only exist after the cursor, so a
            // wrapping ring scan visits them in absolute order.
            if self.l0_occ.any() {
                let from = ((self.c0 + 1) & RING_MASK) as usize;
                let idx = self.l0_occ.next_set_from(from).expect("occupied ring");
                // Recover the absolute slot: it is the unique slot in
                // ((c0, (c1+1)*RING)) congruent to idx mod RING.
                let base = self.c1 << RING_BITS;
                let abs = base + idx as u64;
                debug_assert!(abs > self.c0);
                self.c0 = abs;
                self.l0_occ.clear(idx);
                // Drain preserves the slot Vec's capacity for reuse.
                for e in self.l0[idx].drain(..) {
                    debug_assert_eq!(l0_slot(e.time), abs);
                    self.cur.push(e);
                }
                continue;
            }
            // Level 0 exhausted: expand the next non-empty level-1 slot.
            if self.l1_occ.any() {
                let from = ((self.c1 + 1) & RING_MASK) as usize;
                let idx = self.l1_occ.next_set_from(from).expect("occupied ring");
                // Unique absolute L1 slot in (c1, w1+RING) congruent to idx.
                let c1_idx = (self.c1 & RING_MASK) as usize;
                let delta = (idx + RING - c1_idx) % RING;
                let abs = self.c1
                    + if delta == 0 {
                        RING as u64
                    } else {
                        delta as u64
                    };
                debug_assert!(abs > self.c1 && abs < self.w1 + RING as u64);
                self.c1 = abs;
                self.c0 = (abs << RING_BITS).saturating_sub(1).max(self.c0);
                self.l1_occ.clear(idx);
                let drained = std::mem::take(&mut self.l1[idx]);
                for e in drained {
                    let s0 = l0_slot(e.time);
                    debug_assert_eq!(s0 >> RING_BITS, abs);
                    let i0 = (s0 & RING_MASK) as usize;
                    self.l0[i0].push(e);
                    self.l0_occ.set(i0);
                }
                continue;
            }
            // Both rings exhausted: open a fresh level-1 window at the
            // overflow minimum and re-bin everything that fits.
            debug_assert!(!self.overflow.is_empty());
            let min_t = self.overflow.peek().expect("non-empty overflow").time;
            let w1 = l0_slot(min_t) >> RING_BITS;
            self.w1 = w1;
            // Position cursors just before the window so the scans above
            // pick up the first occupied slot.
            self.c1 = w1.saturating_sub(1).max(self.c1);
            let window_end_s0 = (self.w1 + RING as u64) << RING_BITS;
            while let Some(e) = self.overflow.peek() {
                if l0_slot(e.time) >= window_end_s0 {
                    break;
                }
                let e = self.overflow.pop().expect("peeked entry");
                let s1 = l0_slot(e.time) >> RING_BITS;
                let idx = (s1 & RING_MASK) as usize;
                self.l1[idx].push(e);
                self.l1_occ.set(idx);
            }
        }
    }

    /// Key and value of the earliest entry without removing it (the kernel
    /// only pops; tests use this to check `prime` is idempotent).
    #[cfg(test)]
    pub(crate) fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        self.prime();
        self.cur.peek().map(|e| (e.time, e.seq, &e.value))
    }

    /// Remove and return the earliest entry.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        self.prime();
        let e = self.cur.pop()?;
        self.len -= 1;
        Some((e.time, e.seq, e.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_seq_order_across_levels() {
        let mut w = TimingWheel::new();
        // Entries spanning cur / L0 / L1 / overflow, pushed out of order.
        let times: Vec<u64> = vec![
            0,
            1,
            5,
            1_000,              // same L0 slot as 1 at shift 10? 1000>>10=0 → cur region
            100_000,            // L0
            3_000_000,          // L0 (within first L1 slot: < 4096*1024)
            50_000_000,         // L1
            10_000_000_000,     // L1 (window is ~17.2 s)
            40_000_000_000,     // overflow
            90_000_000_000_000, // deep overflow
        ];
        // Push in a scrambled order.
        for (seq, &i) in [8usize, 2, 9, 0, 5, 7, 1, 4, 6, 3].iter().enumerate() {
            w.push(SimTime::from_nanos(times[i]), seq as u64, times[i]);
        }
        let mut got = Vec::new();
        while let Some((t, _s, v)) = w.pop() {
            assert_eq!(t.as_nanos(), v);
            got.push(v);
        }
        let mut want = times.clone();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut w = TimingWheel::new();
        for seq in (0..64u64).rev() {
            w.push(SimTime::from_nanos(7_777), seq, seq);
        }
        for want in 0..64u64 {
            let (_, s, v) = w.pop().expect("entry");
            assert_eq!(s, want);
            assert_eq!(v, want);
        }
    }

    #[test]
    fn interleaved_push_pop_at_advancing_times() {
        // Simulates the kernel pattern: pop one, schedule a few more at
        // or after the popped time.
        let mut w = TimingWheel::new();
        let mut seq = 0u64;
        let push = |w: &mut TimingWheel<u64>, t: u64, seq: &mut u64| {
            w.push(SimTime::from_nanos(t), *seq, t);
            *seq += 1;
        };
        push(&mut w, 10, &mut seq);
        push(&mut w, 20_000_000, &mut seq);
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0;
        while let Some((t, s, _)) = w.pop() {
            assert!((t, s) > last || popped == 0, "order violated");
            last = (t, s);
            popped += 1;
            if popped < 1000 {
                // Schedule at now (same instant) and at various futures.
                let base = t.as_nanos();
                push(&mut w, base, &mut seq);
                push(&mut w, base + (popped % 97) * 1_000, &mut seq);
                if popped % 13 == 0 {
                    push(&mut w, base + 30_000_000_000, &mut seq);
                }
            }
        }
        assert_eq!(w.len(), 0);
    }

    use proptest::prelude::*;

    proptest! {
        /// The wheel is order-equivalent to the heap it replaced: under
        /// arbitrary interleavings of pushes (at deltas spanning the
        /// current instant, both ring levels and the overflow heap) and
        /// pops, every pop returns exactly what a `BinaryHeap` keyed by
        /// `(time, seq)` would return. Pops advance `now`, reproducing
        /// the kernel's only scheduling constraint (`time >= now`);
        /// cancellation needs no arm here because the kernel cancels by
        /// tombstoning at dispatch, never by touching the queue.
        #[test]
        fn wheel_matches_heap_reference(
            ops in proptest::collection::vec((0u8..6, any::<u64>()), 1..400),
        ) {
            use std::cmp::Reverse;
            let mut wheel = TimingWheel::new();
            let mut heap: BinaryHeap<Reverse<(SimTime, u64, u64)>> = BinaryHeap::new();
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            let push = |wheel: &mut TimingWheel<u64>,
                            heap: &mut BinaryHeap<Reverse<(SimTime, u64, u64)>>,
                            now: SimTime,
                            seq: &mut u64,
                            delta: u64| {
                let t = SimTime::from_nanos(now.as_nanos().saturating_add(delta));
                wheel.push(t, *seq, *seq);
                heap.push(Reverse((t, *seq, *seq)));
                *seq += 1;
            };
            for (sel, raw) in ops {
                match sel {
                    // Same instant / cursor slot → lands in `cur`.
                    0 => push(&mut wheel, &mut heap, now, &mut seq, raw % 2_048),
                    // Within the expanded level-1 slot → level-0 ring.
                    1 => push(&mut wheel, &mut heap, now, &mut seq, raw % 4_000_000),
                    // Within the level-1 window (~17.2 s) → level-1 ring.
                    2 => push(&mut wheel, &mut heap, now, &mut seq, raw % 17_000_000_000),
                    // Past the window → overflow heap (re-binned later).
                    3 => push(&mut wheel, &mut heap, now, &mut seq, raw % 200_000_000_000_000),
                    _ => {
                        let got = wheel.pop();
                        let want = heap.pop().map(|Reverse((t, s, v))| (t, s, v));
                        prop_assert_eq!(&got, &want);
                        if let Some((t, _, _)) = got {
                            now = t;
                        }
                    }
                }
                prop_assert_eq!(wheel.len(), heap.len());
            }
            // Drain what remains: the full tail must match too.
            while let Some(Reverse((t, s, v))) = heap.pop() {
                prop_assert_eq!(wheel.pop(), Some((t, s, v)));
                now = t;
            }
            prop_assert_eq!(wheel.pop(), None);
            prop_assert_eq!(wheel.len(), 0);
            let _ = now;
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        for (i, t) in [5u64, 3, 900_000, 44_000_000_000, 3].iter().enumerate() {
            w.push(SimTime::from_nanos(*t), i as u64, ());
        }
        while let Some((pt, ps, _)) = w.peek().map(|(t, s, v)| (t, s, *v)) {
            let (t, s, _) = w.pop().expect("peeked entry pops");
            assert_eq!((pt, ps), (t, s));
        }
        assert!(w.pop().is_none());
    }
}
