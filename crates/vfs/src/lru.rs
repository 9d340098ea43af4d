//! A small O(1) LRU map used for buffer-cache models.
//!
//! Both the NFS server's memory cache and the kernel NFS client's buffer
//! cache are modelled as block-granular LRU sets with bounded capacity —
//! the paper's motivation for proxy *disk* caches is precisely that these
//! memory caches suffer capacity misses on multi-gigabyte VM state.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// The index's hasher: one multiply per word (the Fx hash). Keys are block
/// numbers, file ids and RPC xids, and nothing iterates the index, so
/// SipHash's flooding resistance would buy nothing here but its cost: a
/// crafted key can at worst lengthen a probe in a bounded map.
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

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
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

    /// Look up a key, marking it most-recently-used on hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&self.node(idx).value)
    }

    /// Mutable lookup, marking the key most-recently-used on hit.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.unlink(idx);
            self.push_front(idx);
        }
        Some(&mut self.node_mut(idx).value)
    }

    /// Whether a key is present, *without* touching recency.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Insert or update a key, marking it most-recently-used. Returns the
    /// evicted `(key, value)` if capacity was exceeded.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.node_mut(idx).value = value;
            if idx != self.head {
                self.unlink(idx);
                self.push_front(idx);
            }
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.unlink(tail);
            let node = self.slab[tail].take().expect("live LRU tail");
            self.map.remove(&node.key);
            self.free.push(tail);
            Some((node.key, node.value))
        } else {
            None
        };
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

    /// Walk from the most recently used entry until `n` keys that `pick`
    /// accepts are found, then mark each most-recently-used in turn, the
    /// most recent first — which leaves them at the head in reverse of
    /// their old order. Returns them with their values in their old order.
    /// Costs the depth of the `n`-th key picked, not the map's length.
    pub fn touch_most_recent(&mut self, n: usize, mut pick: impl FnMut(&K) -> bool) -> Vec<(K, V)>
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
                if idx != self.head {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                let node = self.node(idx);
                (node.key.clone(), node.value.clone())
            })
            .collect()
    }

    /// Remove a key, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.unlink(idx);
        let node = self.slab[idx].take().expect("live LRU slot");
        self.free.push(idx);
        Some(node.value)
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
        let mut idx = self.head;
        std::iter::from_fn(move || {
            if idx == NIL {
                return None;
            }
            let n = self.node(idx);
            idx = n.next;
            Some((&n.key, &n.value))
        })
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
    fn touch_most_recent_replays_touches_from_the_most_recent_down() {
        let mut lru = LruMap::new(8);
        for i in 0..6 {
            lru.insert(i, i * 10);
        }
        // Recency 5, 4, 3, 2, 1, 0; the odd keys, most recent first.
        let touched = lru.touch_most_recent(3, |k| k % 2 == 1);
        assert_eq!(touched, vec![(5, 50), (3, 30), (1, 10)]);
        let keys: Vec<i32> = lru.iter_mru().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![1, 3, 5, 4, 2, 0]);
        // The same order as a `get` of each, most recent first.
        let mut by_get = LruMap::new(8);
        for i in 0..6 {
            by_get.insert(i, i * 10);
        }
        for k in [5, 3, 1] {
            by_get.get(&k);
        }
        assert!(by_get.iter_mru().map(|(k, _)| *k).eq(keys));
        assert!(lru.touch_most_recent(0, |_| true).is_empty());
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
}
