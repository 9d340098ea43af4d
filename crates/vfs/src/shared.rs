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
//! * A block that arrives already shared — the one a READ reply says it
//!   was encoded from (`nfs3`'s `ReadRes::shared_block`) — is kept as
//!   it is and never visits the pool. If the pool never saw it, no pool
//!   `Weak` reaches it, so a `make_mut` on it breaks nothing here.
//! * Every per-thread table of `Weak`s — this pool, and the tables of
//!   `gvfs::cas` — drops its dead entries once it has doubled since it
//!   was last swept ([`WeakTable`]): amortised O(1) per insert.
//! * [`zero_block`] is this thread's pooled all-zero block: a hole read
//!   as one whole block is that allocation, so a zero test of it is a
//!   pointer test ([`is_zero_block`]).
//!
//! Host side only: the pool charges no virtual time and counts nothing.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::rc::{Rc, Weak};

use crate::sparse::CHUNK_SIZE;

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

/// This thread's pooled block of [`CHUNK_SIZE`] zeros.
pub fn zero_block() -> SharedBytes {
    ZERO.with(|zero| Rc::clone(zero.get_or_init(|| share(vec![0; CHUNK_SIZE]))))
}

/// Whether `bytes` lie inside this thread's [`zero_block`]: zeros
/// without a scan. Asking makes no zero block.
pub fn is_zero_block(bytes: &[u8]) -> bool {
    ZERO.with(|zero| {
        zero.get().is_some_and(|zero| {
            let (zero, bytes) = (zero.as_ptr_range(), bytes.as_ptr_range());
            zero.start <= bytes.start && bytes.end <= zero.end
        })
    })
}

thread_local! {
    static POOL: Pool = const { Pool::new() };
    static ZERO: OnceCell<SharedBytes> = const { OnceCell::new() };
}

/// Below this many entries a [`WeakTable`] is never swept as a whole.
const SWEEP_FLOOR: usize = 64;

/// A per-thread table whose entries hold `Weak`s — the pool's buckets,
/// and the tables of `gvfs::cas` — and whose dead entries go once it
/// has doubled since it was last swept: amortised O(1) per insert.
#[derive(Default)]
pub struct WeakTable<K, V> {
    // BTreeMap: the sweep iterates it (lint: determinism).
    /// The entries.
    pub map: BTreeMap<K, V>,
    /// `map.len()` right after the last sweep.
    swept: usize,
}

impl<K: Ord, V> WeakTable<K, V> {
    /// An empty table.
    pub const fn new() -> Self {
        WeakTable {
            map: BTreeMap::new(),
            swept: 0,
        }
    }

    /// Insert `value` under `key`; then, if the table has doubled since
    /// it was last swept, keep only the entries `live` accepts.
    pub fn insert(&mut self, key: K, value: V, live: impl FnMut(&K, &mut V) -> bool) {
        self.map.insert(key, value);
        if self.map.len() > 2 * self.swept.max(SWEEP_FLOOR) {
            self.map.retain(live);
            self.swept = self.map.len();
        }
    }
}

/// `(bucket key, address)` of every pooled allocation, unowned: a
/// bucket is a key's range, with no vector of its own.
type Buckets = WeakTable<(u64, usize), Weak<Vec<u8>>>;

struct Pool {
    table: RefCell<Buckets>,
}

/// What a pool miss keeps: the caller's vector moved, or a borrowed
/// slice copied.
trait Pooled {
    fn bytes(&self) -> &[u8];
    fn into_shared(self) -> SharedBytes;
}

impl Pooled for Vec<u8> {
    fn bytes(&self) -> &[u8] {
        self
    }
    fn into_shared(self) -> SharedBytes {
        Rc::new(self)
    }
}

impl Pooled for &[u8] {
    fn bytes(&self) -> &[u8] {
        self
    }
    fn into_shared(self) -> SharedBytes {
        Rc::new(self.to_vec())
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            table: RefCell::new(WeakTable::new()),
        }
    }

    fn share(&self, bytes: impl Pooled) -> SharedBytes {
        self.share_in_bucket(hash(bytes.bytes()), bytes)
    }

    fn share_in_bucket(&self, key: u64, bytes: impl Pooled) -> SharedBytes {
        let mut table = self.table.borrow_mut();
        // Every visit drops the bucket's husks on its way to a match.
        let mut hit = None;
        let mut husks = Vec::new();
        for (&(_, at), weak) in table.map.range((key, 0)..=(key, usize::MAX)) {
            match weak.upgrade() {
                Some(live) => {
                    if hit.is_none() && **live == *bytes.bytes() {
                        hit = Some(live);
                    }
                }
                None => husks.push(at),
            }
        }
        for at in husks {
            table.map.remove(&(key, at));
        }
        if let Some(hit) = hit {
            return hit;
        }
        let fresh = bytes.into_shared();
        let at = Rc::as_ptr(&fresh) as usize;
        // Husks in buckets nobody visits again go in the sweep.
        table.insert((key, at), Rc::downgrade(&fresh), |_, weak| {
            weak.strong_count() > 0
        });
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
        /// Entries in the buckets, checking every entry's address.
        fn entries(&self) -> usize {
            let table = self.table.borrow();
            for (&(_, at), weak) in &table.map {
                assert_eq!(weak.as_ptr() as usize, at, "an entry under another address");
            }
            table.map.len()
        }

        fn upgradable(&self) -> usize {
            let table = self.table.borrow();
            let live = |w: &&Weak<Vec<u8>>| w.strong_count() > 0;
            table.map.values().filter(live).count()
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
            let entries = pool.entries();
            let table = pool.table.borrow();
            assert!(entries <= 2 * table.swept.max(SWEEP_FLOOR));
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
    fn the_zero_block_is_pooled_and_known_by_address() {
        let zero = zero_block();
        assert_eq!(*zero, vec![0u8; CHUNK_SIZE]);
        assert!(Rc::ptr_eq(&zero, &share(vec![0; CHUNK_SIZE])));
        assert!(is_zero_block(&zero[..]));
        assert!(is_zero_block(&zero[100..200]));
        assert!(!is_zero_block(&[0u8; 64]));
        // Copy-on-write leaves the pooled block as it was.
        let mut mine = zero_block();
        Rc::make_mut(&mut mine)[0] = 1;
        assert!(!is_zero_block(&mine[..]));
        assert_eq!(zero_block()[0], 0);
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
