//! A small O(1) LRU map — the one recency order of every fully
//! associative cache in the tree — and the write-back page cache built on
//! it.
//!
//! The NFS server's memory cache and DRC, the VM guest cache and the host
//! page caches are count-bounded `LruMap`s: block-granular LRU sets, the
//! memory caches whose capacity misses on multi-gigabyte VM state are the
//! paper's motivation for proxy *disk* caches. The proxy's CAS, whole-file
//! cache and channel-reply caches budget bytes instead: each keeps its own
//! ledger and its own rule for which entries may go, over an `LruMap`
//! whose count bound never binds (`LruMap::new(usize::MAX)`), and walks
//! [`LruMap::iter_lru`] for its victims. The proxy's set-associative
//! block cache keeps a stamp per frame instead: it picks a set's victim
//! by dirtiness before recency.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The index's hasher: one multiply per word (the Fx hash). Keys are block
/// numbers, file ids, RPC xids and content digests, and nothing iterates
/// the index, so SipHash's flooding resistance would buy nothing here but
/// its cost: a crafted key can at worst lengthen a probe.
#[derive(Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Doubly-linked-list node stored in a slab.
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// An LRU map with a fixed capacity in entries. Insertion beyond capacity
/// evicts the least-recently-used entry and returns it.
pub struct LruMap<K, V> {
    capacity: usize,
    map: HashMap<K, usize, BuildHasherDefault<KeyHasher>>,
    slab: Vec<Option<Node<K, V>>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
}

impl<K: Eq + Hash + Clone, V> LruMap<K, V> {
    /// Create an LRU map holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be positive");
        LruMap {
            capacity,
            map: HashMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn node(&self, idx: usize) -> &Node<K, V> {
        self.slab[idx].as_ref().expect("live LRU slot")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node<K, V> {
        self.slab[idx].as_mut().expect("live LRU slot")
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = {
            let n = self.node(idx);
            (n.prev, n.next)
        };
        if prev != NIL {
            self.node_mut(prev).next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.node_mut(next).prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        let old_head = self.head;
        {
            let n = self.node_mut(idx);
            n.prev = NIL;
            n.next = old_head;
        }
        if old_head != NIL {
            self.node_mut(old_head).prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Unlink slot `idx` and free it, returning its node.
    fn take(&mut self, idx: usize) -> Node<K, V> {
        self.unlink(idx);
        self.free.push(idx);
        self.slab[idx].take().expect("live LRU slot")
    }

    /// Mark slot `idx` most-recently-used.
    fn touch(&mut self, idx: usize) {
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    /// Look up a key, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.get_mut(key).map(|v| &*v)
    }

    /// Mutable lookup, marking the key most-recently-used on hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        self.touch(idx);
        Some(&mut self.node_mut(idx).value)
    }

    /// Whether a key is present, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Look up a key *without* touching recency.
    pub fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        Some(&self.node(idx).value)
    }

    /// Mutable lookup *without* touching recency.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        Some(&mut self.node_mut(idx).value)
    }

    /// Insert or update a key, marking it most-recently-used. Returns the
    /// evicted `(key, value)` if capacity was exceeded.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).value = value;
            self.touch(idx);
            return None;
        }
        let evicted = (self.map.len() >= self.capacity).then(|| {
            let node = self.take(self.tail);
            self.map.remove(&node.key);
            (node.key, node.value)
        });
        let node = Node {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Some(node);
                i
            }
            None => {
                self.slab.push(Some(node));
                self.slab.len() - 1
            }
        };
        self.push_front(idx);
        self.map.insert(key, idx);
        evicted
    }

    /// Walk from the head to the `n`-th key `pick` accepts, then mark each
    /// picked key most-recently-used in turn, the most recent first (which
    /// reverses their order); returns them with their values, as found.
    fn touch_most_recent(&mut self, n: usize, mut pick: impl FnMut(&K) -> bool) -> Vec<(K, V)>
    where
        V: Clone,
    {
        let mut picked = Vec::with_capacity(n);
        let mut idx = self.head;
        while picked.len() < n && idx != NIL {
            let node = self.node(idx);
            if pick(&node.key) {
                picked.push(idx);
            }
            idx = node.next;
        }
        picked
            .into_iter()
            .map(|idx| {
                self.touch(idx);
                let node = self.node(idx);
                (node.key.clone(), node.value.clone())
            })
            .collect()
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        Some(self.take(idx).value)
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Iterate over `(key, value)` pairs from most- to least-recently-used.
    pub fn iter_mru(&self) -> impl Iterator<Item = (&K, &V)> {
        self.walk(self.head, |n| n.next)
    }

    /// Iterate over `(key, value)` pairs from least- to most-recently-used:
    /// the eviction order.
    pub fn iter_lru(&self) -> impl Iterator<Item = (&K, &V)> {
        self.walk(self.tail, |n| n.prev)
    }

    /// The nodes from `idx` on, following `step`.
    fn walk(
        &self,
        mut idx: usize,
        step: fn(&Node<K, V>) -> usize,
    ) -> impl Iterator<Item = (&K, &V)> {
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let n = self.node(idx);
            idx = step(n);
            Some((&n.key, &n.value))
        })
    }
}

/// A block an insert pushed out: its `(fileid, block)` key, its value
/// and, if it was dirty, its dirty tag.
pub type Evicted<V, D> = ((u64, u64), V, Option<D>);

/// A write-back page cache: an [`LruMap`] of blocks keyed by
/// `(fileid, block)`, and an index by key of the dirty ones, each with a
/// tag for its write-back (such as the handle it was dirtied through). A
/// key is indexed exactly while its block is cached and dirty, and a
/// fetched block never replaces a dirty one.
pub struct PageCache<V, D> {
    blocks: LruMap<(u64, u64), V>,
    dirty: BTreeMap<(u64, u64), D>,
}

impl<V: Clone, D> PageCache<V, D> {
    /// A cache holding at most `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        PageCache {
            blocks: LruMap::new(capacity),
            dirty: BTreeMap::new(),
        }
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether no block is cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Number of dirty blocks.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Whether a block is cached, *without* touching recency.
    pub fn contains(&self, key: &(u64, u64)) -> bool {
        self.blocks.contains(key)
    }

    /// Whether a block is cached and dirty, without touching recency.
    pub fn is_dirty(&self, key: &(u64, u64)) -> bool {
        self.dirty.contains_key(key)
    }

    /// Look up a block, marking it most recently used on hit.
    pub fn get(&mut self, key: &(u64, u64)) -> Option<&V> {
        self.blocks.get(key)
    }

    /// A write into a cached block: marks it most recently used and dirty
    /// through `tag`.
    pub fn get_mut(&mut self, key: &(u64, u64), tag: D) -> Option<&mut V> {
        let value = self.blocks.get_mut(key)?;
        self.dirty.insert(*key, tag);
        Some(value)
    }

    /// Cache a written block, most recently used and dirty through `tag`.
    /// Returns the block it pushed out.
    pub fn insert(&mut self, key: (u64, u64), value: V, tag: D) -> Option<Evicted<V, D>> {
        let evicted = self.push(key, value);
        self.dirty.insert(key, tag);
        evicted
    }

    /// Cache a fetched block clean — unless `key` turned dirty while the
    /// fetch was in flight: then the written block stays. Returns what the
    /// cache holds for `key`, now most recently used, and the evicted block.
    pub fn fill(&mut self, key: (u64, u64), value: V) -> (&V, Option<Evicted<V, D>>) {
        let evicted = if self.dirty.contains_key(&key) {
            None
        } else {
            self.push(key, value)
        };
        (self.blocks.get(&key).expect("just cached"), evicted)
    }

    /// Take the dirty blocks of `file` (of every file if `None`) out of the
    /// index, most recent first, leaving them cached clean. Each is made
    /// most recently used in that order, as a flush's scan of the whole
    /// cache did, at the cost of a head walk to the least recent one.
    pub fn take_dirty(&mut self, file: Option<u64>) -> Vec<((u64, u64), V, D)> {
        let range = file.map_or((0, 0)..=(u64::MAX, u64::MAX), |f| (f, 0)..=(f, u64::MAX));
        let n = self.dirty.range(range.clone()).count();
        let dirty = &self.dirty;
        let taken = self
            .blocks
            .touch_most_recent(n, |k| range.contains(k) && dirty.contains_key(k));
        let mut tag = |k: &(u64, u64)| self.dirty.remove(k).expect("a taken block is dirty");
        taken.into_iter().map(|(k, v)| (k, v, tag(&k))).collect()
    }

    /// The tag of the most recently used dirty block.
    pub fn most_recent_dirty(&self) -> Option<&D> {
        if self.dirty.is_empty() {
            return None;
        }
        self.blocks.iter_mru().find_map(|(k, _)| self.dirty.get(k))
    }

    /// Drop every block, dirty or not.
    pub fn clear(&mut self) {
        self.blocks.clear();
        self.dirty.clear();
    }

    /// Iterate over `(key, value)` pairs from most- to least-recently-used.
    pub fn iter_mru(&self) -> impl Iterator<Item = (&(u64, u64), &V)> {
        self.blocks.iter_mru()
    }

    /// Insert into the LRU; the victim leaves the dirty index with its tag.
    fn push(&mut self, key: (u64, u64), value: V) -> Option<Evicted<V, D>> {
        let (k, v) = self.blocks.insert(key, value)?;
        let tag = self.dirty.remove(&k);
        Some((k, v, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_refreshes_recency() {
        let mut lru = LruMap::new(2);
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(&1), Some(&"a")); // 1 becomes MRU
        let evicted = lru.insert(3, "c");
        assert_eq!(evicted, Some((2, "b"))); // 2 was LRU
        assert!(lru.contains(&1));
        assert!(lru.contains(&3));
    }

    #[test]
    fn insert_existing_updates_value_without_evicting() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.insert(1, 11), None);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&1), Some(&11));
    }

    #[test]
    fn remove_frees_capacity() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.remove(&1), Some(10));
        assert_eq!(lru.insert(3, 30), None); // no eviction needed
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn eviction_order_is_strict_lru() {
        let mut lru = LruMap::new(3);
        for i in 0..3 {
            lru.insert(i, i);
        }
        lru.get(&0);
        lru.get(&2);
        // Recency now: 2, 0, 1 (MRU..LRU)
        assert_eq!(lru.insert(9, 9), Some((1, 1)));
        assert_eq!(lru.insert(10, 10), Some((0, 0)));
        assert_eq!(lru.insert(11, 11), Some((2, 2)));
    }

    #[test]
    fn iter_mru_walks_in_recency_order() {
        let mut lru = LruMap::new(4);
        for i in 0..4 {
            lru.insert(i, ());
        }
        lru.get(&1);
        let keys: Vec<i32> = lru.iter_mru().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 2, 0]);
    }

    #[test]
    fn peek_leaves_recency_alone() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 10);
        lru.insert(2, 20);
        assert_eq!(lru.peek(&1), Some(&10));
        *lru.peek_mut(&1).expect("present") = 11;
        assert_eq!(lru.peek(&3), None);
        let lru_first: Vec<i32> = lru.iter_lru().map(|(k, _)| *k).collect();
        assert_eq!(lru_first, [1, 2]);
        assert_eq!(lru.insert(3, 30), Some((1, 11)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut lru = LruMap::new(2);
        lru.insert(1, 1);
        lru.clear();
        assert!(lru.is_empty());
        lru.insert(2, 2);
        assert_eq!(lru.get(&2), Some(&2));
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut lru = LruMap::new(64);
        for i in 0..10_000u64 {
            lru.insert(i % 200, i);
            if i % 3 == 0 {
                lru.get(&(i % 64));
            }
            if i % 7 == 0 {
                lru.remove(&(i % 50));
            }
            assert!(lru.len() <= 64);
        }
    }

    /// A cache of blocks `(file, b)` with value `b * 10`, inserted in
    /// `order` (the last one most recently used), the ones in `dirty`
    /// dirtied through their file.
    fn page_cache(order: &[(u64, u64)], dirty: &[(u64, u64)]) -> PageCache<u64, u64> {
        let mut pc = PageCache::new(8);
        for &key in order {
            if dirty.contains(&key) {
                pc.insert(key, key.1 * 10, key.0);
            } else {
                pc.fill(key, key.1 * 10);
            }
        }
        pc
    }

    fn keys(pc: &PageCache<u64, u64>) -> Vec<(u64, u64)> {
        pc.iter_mru().map(|(k, _)| *k).collect()
    }

    #[test]
    fn take_dirty_replays_touches_from_the_most_recent_down() {
        let order: Vec<_> = (0..6).map(|b| (b % 2, b)).collect();
        let mut pc = page_cache(&order, &order);
        // Recency 5, 4, 3, 2, 1, 0; file 1 holds the odd blocks.
        let taken = pc.take_dirty(Some(1));
        assert_eq!(
            taken,
            vec![((1, 5), 50, 1), ((1, 3), 30, 1), ((1, 1), 10, 1)]
        );
        assert_eq!(keys(&pc), [(1, 1), (1, 3), (1, 5), (0, 4), (0, 2), (0, 0)]);
        assert_eq!(pc.dirty_len(), 3);
        // The same order as a `get` of each, most recent first.
        let mut by_get = page_cache(&order, &[]);
        for b in [5, 3, 1] {
            by_get.get(&(1, b));
        }
        assert_eq!(keys(&by_get), keys(&pc));
        assert!(pc.take_dirty(Some(1)).is_empty());
        assert_eq!(pc.take_dirty(None).len(), 3);
        assert_eq!(pc.dirty_len(), 0);
    }

    #[test]
    fn an_evicted_block_leaves_the_dirty_index_with_its_tag() {
        let order: Vec<_> = (0..8).map(|b| (7, b)).collect();
        let mut pc = page_cache(&order, &[(7, 0)]);
        assert_eq!(pc.fill((9, 0), 0).1, Some(((7, 0), 0, Some(7))));
        assert!(!pc.is_dirty(&(7, 0)));
        assert_eq!(pc.insert((9, 1), 0, 9), Some(((7, 1), 10, None)));
        assert_eq!(pc.dirty_len(), 1);
        assert_eq!(pc.most_recent_dirty(), Some(&9));
    }

    #[test]
    fn a_fill_keeps_a_block_that_turned_dirty() {
        let mut pc = page_cache(&[(1, 0), (1, 1)], &[]);
        *pc.get_mut(&(1, 0), 1).expect("cached") = 99;
        assert_eq!(pc.fill((1, 0), 0), (&99, None));
        assert!(pc.is_dirty(&(1, 0)));
        assert_eq!(pc.fill((1, 1), 11), (&11, None));
        assert_eq!(pc.fill((1, 2), 20), (&20, None));
        assert_eq!(keys(&pc), [(1, 2), (1, 1), (1, 0)]);
        assert_eq!(pc.most_recent_dirty(), Some(&1));
    }
}
