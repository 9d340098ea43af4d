//! Content-shared payload: identical bytes exist once on the host.
//!
//! A fleet of clones holds the same golden-image bytes many times over
//! — in every clone's local file, every kernel buffer cache, every
//! proxy's content store — and between any two of those holders the
//! bytes cross codecs, links and copy buffers, so no *allocation*
//! survives the path; only the *content* does. [`share`] therefore
//! interns by content: a per-thread pool of weak references, keyed by
//! a hash of the bytes, hands back the live allocation that already
//! holds exactly these bytes, or pools the vector it was given without
//! copying it ([`share_slice`], for a borrowed block, copies on that
//! miss and only then).
//!
//! * The hash only picks a bucket; a full byte compare decides, so a
//!   collision costs a compare and never correctness. The hash is
//!   process-local, never stored and never on the wire — it is not a
//!   content digest (`gvfs::digest` stays the only one).
//! * The pool is per thread because a simulation's objects never leave
//!   the thread that runs it, so concurrent simulations (test threads)
//!   never share or contend for one table.
//! * [`SharedBytes`] is `Rc<Vec<u8>>`, not `Rc<[u8]>`: the pool's
//!   `Weak` then pins a 40-byte husk once the last owner drops, not the
//!   payload, and a miss moves the vector instead of copying it.
//! * Owners mutate only through [`Rc::make_mut`]. While the pool holds
//!   a `Weak`, `make_mut` never writes in place — it clones the bytes
//!   when another owner exists and moves them to a fresh, unpooled
//!   `Rc` when none does — so an allocation the pool can still reach
//!   never changes, which is what keeps its hash → bytes mapping true.
//!
//! Host side only: the pool charges no virtual time and counts nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

/// Immutable payload that may be held by many owners; see [`share`].
/// It stays on the thread that made it:
///
/// ```compile_fail,E0277
/// let bytes = vfs::share(vec![1, 2, 3]);
/// std::thread::spawn(move || bytes.len());
/// ```
pub type SharedBytes = Rc<Vec<u8>>;

/// The shared allocation holding exactly `bytes`: a live one from this
/// thread's pool if there is one, otherwise `bytes` itself, moved (not
/// copied) behind an `Rc` and pooled for later callers.
pub fn share(bytes: Vec<u8>) -> SharedBytes {
    POOL.with(|pool| pool.share(bytes))
}

/// [`share`] for bytes the caller only borrows — a block inside a
/// message off the wire: hashed and compared where they lie, and copied
/// only when the pool has no live allocation holding them.
pub fn share_slice(bytes: &[u8]) -> SharedBytes {
    POOL.with(|pool| pool.share(bytes))
}

thread_local! {
    static POOL: Pool = const { Pool::new() };
}

/// Below this many entries the table is never swept as a whole.
const SWEEP_FLOOR: usize = 64;

struct Pool {
    table: RefCell<Table>,
}

struct Table {
    // BTreeMap: the sweep iterates it (lint: determinism).
    buckets: BTreeMap<u64, Vec<Weak<Vec<u8>>>>,
    /// `Weak`s in `buckets`, dead ones included.
    entries: usize,
    /// `entries` right after the last whole-table sweep.
    swept: usize,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            table: RefCell::new(Table {
                buckets: BTreeMap::new(),
                entries: 0,
                swept: 0,
            }),
        }
    }

    fn share(&self, bytes: impl AsRef<[u8]> + Into<Vec<u8>>) -> SharedBytes {
        self.share_in_bucket(hash(bytes.as_ref()), bytes)
    }

    /// A miss pools `bytes.into()`: an owned vector moves, a slice is
    /// copied.
    fn share_in_bucket(&self, key: u64, bytes: impl AsRef<[u8]> + Into<Vec<u8>>) -> SharedBytes {
        let mut guard = self.table.borrow_mut();
        let table = &mut *guard;
        let bucket = table.buckets.entry(key).or_default();
        // Every visit drops the bucket's husks on its way to a match.
        let before = bucket.len();
        let mut hit = None;
        bucket.retain(|weak| match weak.upgrade() {
            Some(live) => {
                if hit.is_none() && **live == *bytes.as_ref() {
                    hit = Some(live);
                }
                true
            }
            None => false,
        });
        table.entries -= before - bucket.len();
        if let Some(hit) = hit {
            return hit;
        }
        let fresh = Rc::new(bytes.into());
        bucket.push(Rc::downgrade(&fresh));
        table.entries += 1;
        // Husks in buckets nobody visits again go when the table has
        // doubled since it was last swept: amortised O(1) per call.
        if table.entries > 2 * table.swept.max(SWEEP_FLOOR) {
            table.buckets.retain(|_, bucket| {
                bucket.retain(|weak| weak.strong_count() > 0);
                !bucket.is_empty()
            });
            table.entries = table.buckets.values().map(Vec::len).sum();
            table.swept = table.entries;
        }
        fresh
    }
}

/// Bucket key: four independent multiply-rotate lanes over 8-byte
/// words, so the multiplies of one 32-byte step overlap. Every step is
/// a bijection of its lane, so payloads differing in one word always
/// differ in that lane.
fn hash(bytes: &[u8]) -> u64 {
    const K: [u64; 4] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xFF51_AFD7_ED55_8CCD,
    ];
    fn step(lanes: &mut [u64; 4], block: &[u8]) {
        for ((lane, word), k) in lanes.iter_mut().zip(block.chunks_exact(8)).zip(K) {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ word).wrapping_mul(k).rotate_left(29);
        }
    }
    let mut lanes = K;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        step(&mut lanes, block);
    }
    // The tail is zero-padded to one more step; mixing the length in
    // keeps payloads that differ only in trailing zeros apart.
    let rest = blocks.remainder();
    let mut tail = [0u8; 32];
    tail[..rest.len()].copy_from_slice(rest);
    step(&mut lanes, &tail);
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K[0]).rotate_left(29);
    }
    h ^ (h >> 32)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAYLOAD: usize = 64 * 1024;

    fn payload(stamp: u64) -> Vec<u8> {
        let mut v = vec![0x5Au8; PAYLOAD];
        v[..8].copy_from_slice(&stamp.to_le_bytes());
        v
    }

    impl Pool {
        fn entries(&self) -> usize {
            let table = self.table.borrow();
            assert_eq!(
                table.entries,
                table.buckets.values().map(Vec::len).sum::<usize>()
            );
            table.entries
        }

        fn upgradable(&self) -> usize {
            let table = self.table.borrow();
            let live = |w: &&Weak<Vec<u8>>| w.strong_count() > 0;
            table.buckets.values().flatten().filter(live).count()
        }
    }

    #[test]
    fn one_bucket_merges_equal_payloads_and_only_those() {
        let pool = Pool::new();
        let a = pool.share_in_bucket(7, payload(1));
        let b = pool.share_in_bucket(7, payload(2));
        let a2 = pool.share_in_bucket(7, payload(1));
        assert!(Rc::ptr_eq(&a, &a2));
        assert!(!Rc::ptr_eq(&a, &b));
        assert_eq!(*b, payload(2));
        assert_eq!(pool.entries(), 2);
    }

    #[test]
    fn a_miss_pools_the_very_allocation_it_was_given() {
        let pool = Pool::new();
        let v = payload(3);
        let at = v.as_ptr();
        let shared = pool.share(v);
        assert_eq!(shared.as_ptr(), at, "a miss must move, not copy");
        let again = pool.share(payload(3));
        assert_eq!(again.as_ptr(), at);
    }

    #[test]
    fn a_borrowed_payload_joins_the_allocation_an_owned_one_would() {
        let pool = Pool::new();
        let v = payload(4);
        // A miss has to copy: the caller keeps its bytes.
        let from_slice = pool.share(&v[..]);
        assert_ne!(from_slice.as_ptr(), v.as_ptr());
        assert_eq!(*from_slice, v);
        // From then on either entry is a hit on that one allocation.
        assert!(Rc::ptr_eq(&from_slice, &pool.share(&v[..])));
        assert!(Rc::ptr_eq(&from_slice, &pool.share(v)));
        assert_eq!(pool.entries(), 1);
        // And through this thread's pool.
        let x = payload(0xB0_44_0E_ED);
        assert!(Rc::ptr_eq(&share_slice(&x), &share(x.to_vec())));
    }

    #[test]
    fn dropped_payloads_leave_nothing_upgradable_and_a_bounded_table() {
        let pool = Pool::new();
        let mut live = std::collections::VecDeque::new();
        for i in 0..10_000u64 {
            // Distinct payloads land in distinct buckets; keying by `i`
            // spares a debug build 655 MB of hashing.
            live.push_back(pool.share_in_bucket(i, payload(i)));
            if live.len() > 100 {
                live.pop_front();
            }
            let table = pool.table.borrow();
            assert!(table.entries <= 2 * table.swept.max(SWEEP_FLOOR));
            // The last sweep kept only live entries.
            assert!(table.swept <= 101);
        }
        assert_eq!(pool.upgradable(), 100);
        drop(live);
        assert_eq!(pool.upgradable(), 0);
        assert!(pool.entries() <= 2 * 101);
        // A visit clears its bucket's husks even without a sweep.
        let before = pool.entries();
        drop(pool.share_in_bucket(9_999, payload(9_999)));
        assert_eq!(pool.entries(), before);
    }

    #[test]
    fn overwriting_a_shared_chunk_leaves_pool_and_other_holders_unchanged() {
        let pool = Pool::new();
        let mut mine = pool.share(payload(5));
        let theirs = pool.share(payload(5));
        Rc::make_mut(&mut mine)[100..200].fill(0xEE);
        assert_eq!(*theirs, payload(5));
        assert!(Rc::ptr_eq(&theirs, &pool.share(payload(5))));
        // Sole owner of a pooled allocation: the write moves the bytes
        // to an unpooled `Rc`, so the pool never sees changed bytes.
        let mut sole = pool.share(payload(6));
        let at = sole.as_ptr();
        Rc::make_mut(&mut sole)[0] ^= 1;
        assert_eq!(sole.as_ptr(), at, "a sole owner's write copies nothing");
        let fresh = pool.share(payload(6));
        assert!(!Rc::ptr_eq(&fresh, &sole));
        assert_eq!(*fresh, payload(6));
    }

    #[test]
    fn hash_separates_lengths_tails_and_single_words() {
        let base = payload(0);
        let mut keys = vec![
            hash(&base),
            hash(&base[..PAYLOAD - 1]),
            hash(&[]),
            hash(&[0]),
        ];
        for at in [0, 8, 16, 24, 32, PAYLOAD - 1] {
            let mut v = base.clone();
            v[at] ^= 1;
            keys.push(hash(&v));
        }
        let distinct: std::collections::BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len());
    }
}
