//! The proxy's whole-file disk cache (the "file cache" of Figure 2).
//!
//! Files arrive here through the meta-data-driven file channel
//! (compress → remote copy → uncompress → read locally); once a file is
//! resident, every request against it is satisfied from the local disk.
//! Together with the block cache this forms the paper's *heterogeneous
//! disk caching* scheme. The file cache also supports write-back: dirty
//! files are re-compressed and uploaded on flush.
//!
//! ## Reference-backed entries (copy-on-write clones, DESIGN.md §5.9)
//!
//! With [`CowTuning`] enabled a file can also be installed as a
//! *reference*: a recipe of `(digest, len)` records resolved against the
//! per-proxy [`ContentStore`] instead of a materialized byte copy. Every
//! shared chunk is pinned in the CAS for the life of the entry (the
//! residency guarantee), so a warm install charges zero disk for
//! resident content; only freshly fetched bytes pay the install write.
//! The first write to a chunk *breaks sharing for that chunk only*: its
//! bytes are materialized into a private overlay (now disk-resident and
//! charged), the pin is released, and the chunk joins the dirty set so
//! flush can upload exactly the diverged ranges. The `bytes` ledger
//! counts disk-resident bytes only — full files by size, reference files
//! by their private overlay — and [`FileCache::validate_accounting`]
//! recomputes it from scratch.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::Env;
use vfs::{Disk, SparseBytes};

use crate::cas::ContentStore;
use crate::digest::{digest, Digest};

/// Knobs for copy-on-write reference installs, carried by
/// [`crate::ProxyConfig`]. [`CowTuning::off`] (the `Default`) keeps the
/// pre-CoW data paths byte-for-byte: every install materializes, exactly
/// as before this subsystem existed. CoW additionally requires dedup —
/// without a [`ContentStore`] there is nothing to reference — so an
/// enabled `cow` with `DedupTuning::off()` is inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CowTuning {
    /// Install channel fetches as reference files when a content map is
    /// available, and flush only their diverged chunks.
    pub enabled: bool,
}

impl CowTuning {
    /// Copy-on-write reference installs enabled.
    pub fn on() -> Self {
        CowTuning { enabled: true }
    }

    /// Disabled: the pre-CoW data paths, byte-for-byte.
    pub fn off() -> Self {
        CowTuning { enabled: false }
    }
}

/// A reference-backed file: recipe + CAS + private overlay.
struct RefFile {
    /// The store the recipe resolves through; shared chunks hold pins in
    /// it until broken or the entry is dropped.
    cas: Arc<ContentStore>,
    /// Recipe grid (last chunk may be short).
    chunk_bytes: u32,
    /// `(digest, len)` per chunk, covering `[0, size)`.
    recipe: Vec<(Digest, u32)>,
    /// Chunk index → privately materialized bytes (sharing broken).
    overlay: BTreeMap<u32, Vec<u8>>,
    /// Chunks diverged since the last flush (always ⊆ overlay keys).
    dirty_chunks: BTreeSet<u32>,
}

impl RefFile {
    /// Disk-resident (private overlay) bytes of this entry.
    fn overlay_bytes(&self) -> u64 {
        self.overlay.values().map(|b| b.len() as u64).sum()
    }

    /// Logical length described by the recipe.
    fn total(&self) -> u64 {
        self.recipe.iter().map(|(_, l)| *l as u64).sum()
    }

    /// `[off, off + len)` of the still-shared chunk `i`, decoded out of
    /// its pinned CAS entry. Pins guarantee residency; a miss is a
    /// pin-discipline bug, which the store counts and serves as zeros.
    fn shared_range(&self, i: usize, off: usize, len: usize) -> Vec<u8> {
        let (d, clen) = self.recipe[i];
        self.cas.get_pinned_range(&d, clen, off, len)
    }

    /// Assemble the full current contents (host-side; no time charged,
    /// mirroring the uncharged digest in [`FileCache::install`]).
    fn assemble(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total() as usize);
        for (i, &(_, clen)) in self.recipe.iter().enumerate() {
            match self.overlay.get(&(i as u32)) {
                Some(b) => out.extend_from_slice(b),
                None => out.extend_from_slice(&self.shared_range(i, 0, clen as usize)),
            }
        }
        out
    }

    /// Byte offset where chunk `i` starts.
    fn chunk_offset(&self, i: usize) -> u64 {
        i as u64 * self.chunk_bytes as u64
    }

    /// Read `[offset, offset+len)` clipped to the recipe, returning the
    /// bytes and how many of them came off the disk (private overlay —
    /// shared chunks serve from the pinned host-memory CAS for free).
    fn read_range(&self, offset: u64, len: usize) -> (Vec<u8>, u64) {
        let total = self.total();
        if offset >= total || len == 0 {
            return (Vec::new(), 0);
        }
        let end = total.min(offset + len as u64);
        let cb = self.chunk_bytes as u64;
        let first = (offset / cb) as usize;
        let last = ((end - 1) / cb) as usize;
        let mut out = Vec::with_capacity((end - offset) as usize);
        let mut disk = 0u64;
        for i in first..=last {
            let cstart = self.chunk_offset(i);
            let clen = self.recipe[i].1 as u64;
            let s = offset.max(cstart);
            let e = end.min(cstart + clen);
            if s >= e {
                continue;
            }
            let (lo, n) = ((s - cstart) as usize, (e - s) as usize);
            match self.overlay.get(&(i as u32)) {
                Some(b) => {
                    disk += e - s;
                    out.extend_from_slice(&b[lo..lo + n]);
                }
                None => out.extend_from_slice(&self.shared_range(i, lo, n)),
            }
        }
        (out, disk)
    }

    /// Copy-on-write break: materialize every chunk `[offset,
    /// offset+len)` touches into the overlay (releasing its pin), apply
    /// the write, and mark those chunks dirty. The caller guarantees the
    /// write does not extend past the recipe. Returns the disk bytes the
    /// break wrote (full length of newly materialized chunks + written
    /// spans of already-private ones), the ledger growth (overlay bytes
    /// added — newly private chunks now occupy cache disk), and how many
    /// chunks broke.
    fn cow_write(&mut self, offset: u64, bytes: &[u8]) -> (u64, u64, u64) {
        if bytes.is_empty() {
            return (0, 0, 0);
        }
        let end = offset + bytes.len() as u64;
        let cb = self.chunk_bytes as u64;
        let first = (offset / cb) as usize;
        let last = ((end - 1) / cb) as usize;
        let mut io = 0u64;
        let mut grew = 0u64;
        let mut breaks = 0u64;
        for i in first..=last {
            let (d, clen) = self.recipe[i];
            let cstart = self.chunk_offset(i);
            let s = offset.max(cstart);
            let e = end.min(cstart + clen as u64);
            if s >= e {
                continue;
            }
            let chunk = match self.overlay.entry(i as u32) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    let buf = self.cas.get_pinned_range(&d, clen, 0, clen as usize);
                    self.cas.unpin(&d);
                    breaks += 1;
                    io += clen as u64;
                    grew += clen as u64;
                    slot.insert(buf)
                }
                std::collections::btree_map::Entry::Occupied(o) => {
                    io += e - s;
                    o.into_mut()
                }
            };
            chunk[(s - cstart) as usize..(e - cstart) as usize]
                .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
            self.dirty_chunks.insert(i as u32);
        }
        (io, grew, breaks)
    }
}

impl Drop for RefFile {
    fn drop(&mut self) {
        // Release the residency pins of every still-shared chunk
        // (duplicate digests in the recipe hold one pin per occurrence).
        for (i, (d, _)) in self.recipe.iter().enumerate() {
            if !self.overlay.contains_key(&(i as u32)) {
                self.cas.unpin(d);
            }
        }
    }
}

enum Backing {
    /// Materialized bytes on the cache disk (the historical form).
    Full(SparseBytes),
    /// Recipe + overlay resolved against the proxy's CAS.
    Reference(RefFile),
}

/// What must travel upstream for a dirty file, handed to the flush path
/// by [`FileCache::take_dirty`].
pub enum DirtyFile {
    /// The full current contents.
    Whole(Vec<u8>),
    /// Only the diverged chunks of a reference-backed file: upstream
    /// still holds the golden base the recipe came from.
    Diverged {
        /// Current logical file size (reference files never grow past
        /// their recipe; growth converts them to full entries first).
        total: u64,
        /// `(offset, bytes)` per diverged chunk, ascending,
        /// non-overlapping.
        ranges: Vec<(u64, Vec<u8>)>,
        /// Digest of the *full* current contents — what upstream holds
        /// after the ranges are applied over the golden base (for
        /// `set_synced`).
        full_digest: Digest,
    },
}

impl DirtyFile {
    /// Payload bytes an upload of this carries.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            DirtyFile::Whole(contents) => contents.len() as u64,
            DirtyFile::Diverged { ranges, .. } => ranges.iter().map(|(_, b)| b.len() as u64).sum(),
        }
    }
}

/// Identity of a cached file: fileid + generation, i.e. the NFS handle.
pub type FileKey = vfs::Handle;

/// What upstream is known to hold for a cached file.
enum Synced {
    /// Nothing (never synced, or an upload is in flight).
    Unknown,
    /// Contents with this digest.
    Digest(Digest),
    /// Exactly the recipe a reference entry was installed from, whose
    /// contents nobody has had to digest yet. Only a reference with an
    /// empty overlay is ever in this state: [`FileCache::write`]
    /// resolves it before the first copy-on-write break.
    Recipe,
}

struct CachedFile {
    backing: Backing,
    size: u64,
    dirty: bool,
    last_use: u64,
    /// The contents upstream last acknowledged holding (set on install —
    /// the file arrived *from* upstream — and after a successful
    /// upload). A dirty file whose current digest still matches was
    /// rewritten with identical bytes; its upload can be skipped.
    /// Host-side bookkeeping only: no simulated time.
    synced: Synced,
}

impl CachedFile {
    /// The synced digest, first digesting the pristine contents of a
    /// reference whose digest was left unresolved at install (a
    /// non-persistent clone's memory state is never asked, and never
    /// pays for assembling the file).
    fn resolve_synced(&mut self) -> Option<Digest> {
        if let (Synced::Recipe, Backing::Reference(r)) = (&self.synced, &self.backing) {
            debug_assert!(r.overlay.is_empty(), "unresolved digest after a break");
            self.synced = Synced::Digest(digest(&r.assemble()));
        }
        match self.synced {
            Synced::Digest(d) => Some(d),
            Synced::Unknown | Synced::Recipe => None,
        }
    }

    /// Bytes this entry occupies on the cache disk: full files in full,
    /// reference files only their private overlay.
    fn disk_bytes(&self) -> u64 {
        match &self.backing {
            Backing::Full(_) => self.size,
            Backing::Reference(r) => r.overlay_bytes(),
        }
    }
}

/// Counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileCacheStats {
    /// Read requests satisfied from the file cache.
    pub read_hits: u64,
    /// Files installed via the file channel.
    pub installs: u64,
    /// Files evicted for capacity.
    pub evictions: u64,
    /// Installs that created a reference-backed entry (subset of
    /// `installs`).
    pub ref_installs: u64,
    /// Chunks whose sharing was broken by a first write.
    pub cow_breaks: u64,
}

struct Inner {
    // BTreeMap: victim selection and dirty_files() iterate this map, so
    // its order must be deterministic (lint: determinism).
    files: BTreeMap<FileKey, CachedFile>,
    bytes: u64,
    stamp: u64,
    stats: FileCacheStats,
}

/// Whole-file cache on the proxy's local disk.
pub struct FileCache {
    disk: Disk,
    capacity_bytes: u64,
    inner: Mutex<Inner>,
}

impl FileCache {
    /// Create a file cache with the given capacity on `disk`.
    pub fn new(disk: Disk, capacity_bytes: u64) -> Self {
        FileCache {
            disk,
            capacity_bytes,
            inner: Mutex::new(Inner {
                files: BTreeMap::new(),
                bytes: 0,
                stamp: 0,
                stats: FileCacheStats::default(),
            }),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FileCacheStats {
        self.inner.lock().stats
    }

    /// Whether a file is resident.
    pub fn contains(&self, key: FileKey) -> bool {
        self.inner.lock().files.contains_key(&key)
    }

    /// Bytes resident.
    pub fn bytes_stored(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Install a file's full contents (paying the local-disk write for
    /// every byte — a dedup'd fetch saves WAN transfer and origin work,
    /// not the local write of the assembled file; CAS entries live in
    /// host memory, so a CAS hit is no guarantee the bytes are still on
    /// this cache disk). Evicts least-recently-used clean files if over
    /// capacity.
    pub fn install(&self, env: &Env, key: FileKey, contents: &[u8]) {
        {
            let mut inner = self.inner.lock();
            inner.stamp += 1;
            let stamp = inner.stamp;
            let mut data = SparseBytes::new();
            data.write_at(0, contents);
            let size = contents.len() as u64;
            if let Some(old) = inner.files.insert(
                key,
                CachedFile {
                    backing: Backing::Full(data),
                    size,
                    dirty: false,
                    last_use: stamp,
                    synced: Synced::Digest(digest(contents)),
                },
            ) {
                let old_bytes = old.disk_bytes();
                debug_assert!(
                    inner.bytes >= old_bytes,
                    "file-cache byte accounting underflow"
                );
                inner.bytes -= old_bytes;
            }
            inner.bytes += size;
            inner.stats.installs += 1;
            Self::evict_for_capacity(&mut inner, self.capacity_bytes, key);
        }
        self.disk.sequential_io(env, contents.len() as u64);
    }

    /// Install a file as a *reference*: `recipe` records resolved
    /// against `cas`, every one of which the caller has already pinned
    /// (one pin per record occurrence — ownership of those pins passes
    /// to the entry and is released on break/eviction/replace). Shared
    /// content charges no disk at all; only `fresh_bytes` — the payloads
    /// that actually crossed the upstream link to satisfy this install —
    /// pay the sequential install write.
    pub fn install_reference(
        &self,
        env: &Env,
        key: FileKey,
        cas: Arc<ContentStore>,
        chunk_bytes: u32,
        recipe: Vec<(Digest, u32)>,
        fresh_bytes: u64,
    ) {
        let rf = RefFile {
            cas,
            chunk_bytes,
            recipe,
            overlay: BTreeMap::new(),
            dirty_chunks: BTreeSet::new(),
        };
        let size = rf.total();
        {
            let mut inner = self.inner.lock();
            inner.stamp += 1;
            let stamp = inner.stamp;
            if let Some(old) = inner.files.insert(
                key,
                CachedFile {
                    backing: Backing::Reference(rf),
                    size,
                    dirty: false,
                    last_use: stamp,
                    // The recipe came *from* upstream, so upstream holds
                    // exactly this; its digest is resolved on demand.
                    synced: Synced::Recipe,
                },
            ) {
                let old_bytes = old.disk_bytes();
                debug_assert!(
                    inner.bytes >= old_bytes,
                    "file-cache byte accounting underflow"
                );
                inner.bytes -= old_bytes;
            }
            // A fresh reference has no overlay: zero disk-resident bytes.
            inner.stats.installs += 1;
            inner.stats.ref_installs += 1;
            Self::evict_for_capacity(&mut inner, self.capacity_bytes, key);
        }
        if fresh_bytes > 0 {
            self.disk.sequential_io(env, fresh_bytes);
        }
    }

    /// Capacity enforcement: evict LRU clean files (dirty files must be
    /// uploaded first; they are pinned until flushed). Reference entries
    /// release their CAS pins on removal via `RefFile::drop`.
    fn evict_for_capacity(inner: &mut Inner, capacity_bytes: u64, just_installed: FileKey) {
        while inner.bytes > capacity_bytes {
            let victim = inner
                .files
                .iter()
                .filter(|(k, f)| !f.dirty && **k != just_installed)
                // A reference with no overlay occupies no disk: evicting
                // it frees nothing and would only drop useful pins.
                .filter(|(_, f)| match &f.backing {
                    Backing::Full(_) => true,
                    Backing::Reference(r) => r.overlay_bytes() > 0,
                })
                .min_by_key(|(_, f)| f.last_use)
                .map(|(k, _)| *k);
            match victim.and_then(|k| inner.files.remove(&k)) {
                Some(f) => {
                    let freed = f.disk_bytes();
                    debug_assert!(inner.bytes >= freed, "file-cache byte accounting underflow");
                    inner.bytes -= freed;
                    inner.stats.evictions += 1;
                }
                None => break, // everything is dirty or it's just us
            }
        }
    }

    /// Digest of the contents upstream last acknowledged for this file
    /// (`None` when the file is absent or was never synced).
    pub fn synced_digest(&self, key: FileKey) -> Option<Digest> {
        let mut inner = self.inner.lock();
        inner
            .files
            .get_mut(&key)
            .and_then(CachedFile::resolve_synced)
    }

    /// Record that upstream now durably holds contents with this digest
    /// (called after a successful channel upload). No-op when absent.
    pub fn set_synced(&self, key: FileKey, d: Digest) {
        let mut inner = self.inner.lock();
        if let Some(f) = inner.files.get_mut(&key) {
            f.synced = Synced::Digest(d);
        }
    }

    /// Forget what upstream holds for this file. Called *before* every
    /// upload attempt: a failed chunked upload may already have
    /// durably applied leading chunks upstream (a torn file), so from
    /// the moment an upload starts until it succeeds the upstream copy
    /// must be treated as unknown — otherwise a VM rewriting the
    /// pre-upload bytes would match the stale digest and skip the
    /// repair upload forever. No-op when absent.
    pub fn clear_synced(&self, key: FileKey) {
        let mut inner = self.inner.lock();
        if let Some(f) = inner.files.get_mut(&key) {
            f.synced = Synced::Unknown;
        }
    }

    /// Read a range from a resident file, paying local-disk time for the
    /// disk-resident bytes touched. A reference file's shared chunks are
    /// served out of the pinned host-memory CAS (that residency is what
    /// the pin buys — DESIGN.md §5.9), so only its private overlay bytes
    /// charge the disk. Returns `None` if the file is not resident.
    pub fn read(&self, env: &Env, key: FileKey, offset: u64, len: u32) -> Option<(Vec<u8>, bool)> {
        let out = {
            let mut inner = self.inner.lock();
            inner.stamp += 1;
            let stamp = inner.stamp;
            let f = inner.files.get_mut(&key)?;
            f.last_use = stamp;
            let (data, disk_bytes) = match &f.backing {
                Backing::Full(sparse) => {
                    let data = sparse.read_range(offset, len as usize);
                    // Streaming from the local file: positioning
                    // amortized across the whole-file access pattern
                    // these reads come from.
                    let n = data.len().max(1) as u64;
                    (data, n)
                }
                Backing::Reference(r) => r.read_range(offset, len as usize),
            };
            let eof = offset + data.len() as u64 >= f.size;
            inner.stats.read_hits += 1;
            Some((data, eof, disk_bytes))
        };
        let (data, eof, disk_bytes) = out?;
        if disk_bytes > 0 {
            self.disk.stream_io(env, disk_bytes);
        }
        Some((data, eof))
    }

    /// Write a range into a resident file, marking it dirty. On a
    /// reference file this is the copy-on-write break: each touched
    /// chunk is materialized into the private overlay (charged as disk
    /// traffic, pin released), and only those chunks join the dirty set.
    /// A write extending past the recipe converts the entry to a full
    /// file first. Returns false if the file is not resident.
    pub fn write(&self, env: &Env, key: FileKey, offset: u64, bytes: &[u8]) -> bool {
        let io_bytes = {
            let mut inner = self.inner.lock();
            inner.stamp += 1;
            let stamp = inner.stamp;
            match inner.files.get_mut(&key) {
                Some(f) => {
                    // A reference still owing its synced digest settles
                    // it now: past this write the pristine contents can
                    // no longer be assembled.
                    f.resolve_synced();
                    // Growth is incompatible with a recipe-bounded
                    // backing: materialize to a full entry first (the
                    // assembled shared bytes become disk-resident and
                    // the ledger charges them; `RefFile::drop` releases
                    // the pins).
                    let mut materialize_delta = 0u64;
                    if let Backing::Reference(r) = &f.backing {
                        if offset + bytes.len() as u64 > f.size {
                            let full = r.assemble();
                            materialize_delta = f.size - r.overlay_bytes();
                            let mut sparse = SparseBytes::new();
                            sparse.write_at(0, &full);
                            f.backing = Backing::Full(sparse);
                        }
                    }
                    let (grew, io, breaks) = match &mut f.backing {
                        Backing::Full(sparse) => {
                            sparse.write_at(offset, bytes);
                            let new_len = sparse.len();
                            // clippy suggests saturating_sub here, but that is exactly
                            // what the exact-accounting invariant bans in this file.
                            #[allow(clippy::implicit_saturating_sub)]
                            let grew = if new_len > f.size {
                                new_len - f.size
                            } else {
                                0
                            };
                            f.size = new_len;
                            (grew, bytes.len().max(1) as u64, 0u64)
                        }
                        Backing::Reference(r) => {
                            let (io, grew, breaks) = r.cow_write(offset, bytes);
                            (grew, io.max(1), breaks)
                        }
                    };
                    f.dirty = true;
                    f.last_use = stamp;
                    inner.bytes += grew + materialize_delta;
                    inner.stats.cow_breaks += breaks;
                    Some(io + materialize_delta)
                }
                None => None,
            }
        };
        match io_bytes {
            Some(io) => {
                self.disk.stream_io(env, io);
                true
            }
            None => false,
        }
    }

    /// What must travel upstream for a dirty resident file, paying the
    /// disk read for it; clears the dirty state. A dirty *reference* file
    /// with a recorded chunk set yields, when `diverged_only` allows it,
    /// just those chunks (they stay privately resident). Everything else
    /// — full-backed files, and a reference re-marked dirty with no chunk
    /// set, e.g. after a failed upload — yields the full contents: on a
    /// reference only the private overlay is read off the disk (shared
    /// chunks assemble from the pinned CAS) and the backing stays a
    /// reference, so the ledger is untouched. `None` when the file is
    /// absent or clean.
    pub fn take_dirty(&self, env: &Env, key: FileKey, diverged_only: bool) -> Option<DirtyFile> {
        let (out, disk_read) = {
            let mut inner = self.inner.lock();
            let f = inner.files.get_mut(&key)?;
            if !f.dirty {
                return None;
            }
            f.dirty = false;
            let total = f.size;
            match &mut f.backing {
                Backing::Full(sparse) => {
                    let data = sparse.read_range(0, total as usize);
                    let n = data.len() as u64;
                    (DirtyFile::Whole(data), n)
                }
                Backing::Reference(r) if diverged_only && !r.dirty_chunks.is_empty() => {
                    let mut ranges = Vec::with_capacity(r.dirty_chunks.len());
                    let mut disk = 0u64;
                    for &i in r.dirty_chunks.iter() {
                        let Some(b) = r.overlay.get(&i) else {
                            debug_assert!(false, "dirty chunk without overlay bytes");
                            continue;
                        };
                        disk += b.len() as u64;
                        ranges.push((r.chunk_offset(i as usize), b.clone()));
                    }
                    let full_digest = digest(&r.assemble());
                    r.dirty_chunks.clear();
                    let diverged = DirtyFile::Diverged {
                        total,
                        ranges,
                        full_digest,
                    };
                    (diverged, disk)
                }
                Backing::Reference(r) => {
                    r.dirty_chunks.clear();
                    (DirtyFile::Whole(r.assemble()), r.overlay_bytes())
                }
            }
        };
        self.disk.sequential_io(env, disk_read);
        Some(out)
    }

    /// Whether a resident file is reference-backed.
    pub fn is_reference(&self, key: FileKey) -> bool {
        matches!(
            self.inner.lock().files.get(&key).map(|f| &f.backing),
            Some(Backing::Reference(_))
        )
    }

    /// Recompute the byte ledger from scratch and assert every
    /// accounting invariant (test and audit hook; the exact-accounting
    /// discipline of PR 1 extended across the shared/private split).
    pub fn validate_accounting(&self) {
        let inner = self.inner.lock();
        let mut total = 0u64;
        for (k, f) in inner.files.iter() {
            match &f.backing {
                Backing::Full(_) => total += f.size,
                Backing::Reference(r) => {
                    assert_eq!(
                        f.size,
                        r.total(),
                        "reference size diverged from its recipe for {k:?}"
                    );
                    assert!(
                        r.dirty_chunks.iter().all(|i| r.overlay.contains_key(i)),
                        "dirty chunk without overlay bytes for {k:?}"
                    );
                    assert!(
                        f.dirty || r.dirty_chunks.is_empty(),
                        "clean file with a non-empty dirty-chunk set for {k:?}"
                    );
                    total += r.overlay_bytes();
                }
            }
        }
        assert_eq!(
            inner.bytes, total,
            "file-cache byte ledger drifted from per-file disk bytes"
        );
    }

    /// Re-mark a resident file dirty. A failed write-back upload calls
    /// this so the contents (still resident) stay queued for the next
    /// flush instead of being silently dropped. No-op when absent.
    pub fn mark_dirty(&self, key: FileKey) {
        let mut inner = self.inner.lock();
        if let Some(f) = inner.files.get_mut(&key) {
            f.dirty = true;
        }
    }

    /// Keys of dirty files.
    pub fn dirty_files(&self) -> Vec<FileKey> {
        let inner = self.inner.lock();
        let mut v: Vec<FileKey> = inner
            .files
            .iter()
            .filter(|(_, f)| f.dirty)
            .map(|(k, _)| *k)
            .collect();
        v.sort_unstable();
        v
    }

    /// The size of a resident file.
    pub fn size_of(&self, key: FileKey) -> Option<u64> {
        self.inner.lock().files.get(&key).map(|f| f.size)
    }

    /// Drop everything (dirty data must have been flushed).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.files.clear();
        inner.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimHandle, Simulation};
    use std::sync::Arc;
    use vfs::DiskModel;

    fn cache(h: &SimHandle, cap: u64) -> Arc<FileCache> {
        Arc::new(FileCache::new(
            Disk::new(
                h,
                DiskModel {
                    seek: SimDuration::from_micros(100),
                    bytes_per_sec: 1e9,
                },
            ),
            cap,
        ))
    }

    fn key(n: u64) -> FileKey {
        FileKey {
            fileid: n,
            generation: 1,
        }
    }

    /// The full contents a whole-file take hands over.
    fn take_whole(c: &FileCache, env: &Env, k: FileKey) -> Option<Vec<u8>> {
        match c.take_dirty(env, k, false)? {
            DirtyFile::Whole(contents) => Some(contents),
            DirtyFile::Diverged { .. } => panic!("whole-file take yielded ranges"),
        }
    }

    #[test]
    fn install_read_round_trip_with_eof() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            assert!(cc.read(&env, key(1), 0, 10).is_none());
            cc.install(&env, key(1), b"memory state contents");
            let (data, eof) = cc.read(&env, key(1), 0, 1024).unwrap();
            assert_eq!(data, b"memory state contents");
            assert!(eof);
            let (mid, eof2) = cc.read(&env, key(1), 7, 5).unwrap();
            assert_eq!(mid, b"state");
            assert!(!eof2);
        });
        sim.run();
    }

    #[test]
    fn writes_mark_dirty_and_grow() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            cc.install(&env, key(1), b"0123456789");
            assert!(cc.write(&env, key(1), 8, b"XYZ"));
            assert_eq!(cc.size_of(key(1)), Some(11));
            assert_eq!(cc.dirty_files(), vec![key(1)]);
            let contents = take_whole(&cc, &env, key(1)).unwrap();
            assert_eq!(contents, b"01234567XYZ");
            assert!(cc.dirty_files().is_empty());
            assert!(take_whole(&cc, &env, key(1)).is_none());
        });
        sim.run();
    }

    #[test]
    fn capacity_evicts_lru_clean_files() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 2500);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            cc.install(&env, key(1), &[1u8; 1000]);
            cc.install(&env, key(2), &[2u8; 1000]);
            // Touch 1 so 2 becomes LRU.
            cc.read(&env, key(1), 0, 1).unwrap();
            cc.install(&env, key(3), &[3u8; 1000]);
            assert!(cc.contains(key(1)));
            assert!(!cc.contains(key(2)));
            assert!(cc.contains(key(3)));
            assert_eq!(cc.stats().evictions, 1);
        });
        sim.run();
    }

    #[test]
    fn synced_digest_tracks_installs_and_uploads() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            assert_eq!(cc.synced_digest(key(1)), None);
            cc.install(&env, key(1), b"suspend state");
            assert_eq!(cc.synced_digest(key(1)), Some(digest(b"suspend state")));
            // An identical rewrite dirties the file but leaves the synced
            // digest equal to the current contents' digest.
            assert!(cc.write(&env, key(1), 0, b"suspend state"));
            assert_eq!(cc.dirty_files(), vec![key(1)]);
            let contents = take_whole(&cc, &env, key(1)).unwrap();
            assert_eq!(cc.synced_digest(key(1)), Some(digest(&contents)));
            // A real change diverges; set_synced records the new upload.
            assert!(cc.write(&env, key(1), 0, b"SUSPEND"));
            let contents = take_whole(&cc, &env, key(1)).unwrap();
            assert_ne!(cc.synced_digest(key(1)), Some(digest(&contents)));
            cc.set_synced(key(1), digest(&contents));
            assert_eq!(cc.synced_digest(key(1)), Some(digest(&contents)));
        });
        sim.run();
    }

    #[test]
    fn clear_synced_forgets_the_upstream_digest() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            cc.install(&env, key(1), b"suspend state");
            assert!(cc.synced_digest(key(1)).is_some());
            // An upload attempt starts: upstream state is now unknown
            // until set_synced records a completed upload.
            cc.clear_synced(key(1));
            assert_eq!(cc.synced_digest(key(1)), None);
            cc.set_synced(key(1), digest(b"suspend state"));
            assert_eq!(cc.synced_digest(key(1)), Some(digest(b"suspend state")));
            // Absent files are a no-op, not a panic.
            cc.clear_synced(key(9));
        });
        sim.run();
    }

    #[test]
    fn dirty_files_are_pinned_against_eviction() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 2500);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            cc.install(&env, key(1), &[1u8; 1000]);
            cc.write(&env, key(1), 0, b"dirty");
            cc.install(&env, key(2), &[2u8; 1000]);
            cc.install(&env, key(3), &[3u8; 1000]);
            // Key 2 (clean LRU) went, key 1 stayed despite being older.
            assert!(cc.contains(key(1)));
            assert!(!cc.contains(key(2)));
        });
        sim.run();
    }

    /// Chunk `content` onto `cas` with one pin per record occurrence —
    /// exactly what the proxy's reference-install path does before
    /// handing the recipe (and pin ownership) to `install_reference`.
    fn pinned_recipe(cas: &Arc<ContentStore>, content: &[u8], chunk: u32) -> Vec<(Digest, u32)> {
        content
            .chunks(chunk as usize)
            .map(|c| {
                let d = cas.insert(c);
                assert!(cas.pin(&d));
                (d, c.len() as u32)
            })
            .collect()
    }

    fn golden(len: usize) -> Vec<u8> {
        // Aperiodic so equal-size chunks get distinct digests.
        (0..len as u64)
            .map(|i| ((i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u8)
            .collect()
    }

    #[test]
    fn reference_install_serves_reads_with_zero_disk_bytes() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(2500);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.is_reference(key(1)));
            assert_eq!(cc.bytes_stored(), 0, "shared content charged disk");
            assert_eq!(cc.size_of(key(1)), Some(2500));
            assert_eq!(cc.synced_digest(key(1)), Some(digest(&content)));
            // Reads assemble byte-identically, across chunk boundaries.
            let (data, eof) = cc.read(&env, key(1), 0, 4096).unwrap();
            assert_eq!(data, content);
            assert!(eof);
            let (mid, eof2) = cc.read(&env, key(1), 1000, 100).unwrap();
            assert_eq!(mid, &content[1000..1100]);
            assert!(!eof2);
            assert_eq!(cas.pinned_bytes(), 2500);
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn reference_synced_digest_is_the_pristine_one_however_late_it_is_asked() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(3000);
            let eager = digest(&content);
            for k in 1..=4 {
                let recipe = pinned_recipe(&cas, &content, 1024);
                cc.install_reference(&env, key(k), cas.clone(), 1024, recipe, 0);
            }
            // Asked first, then written.
            assert_eq!(cc.synced_digest(key(1)), Some(eager));
            assert!(cc.write(&env, key(1), 1500, b"DIVERGED"));
            assert_eq!(cc.synced_digest(key(1)), Some(eager));
            // Written first (a break, then an extension that converts the
            // entry to a full file), asked afterwards.
            assert!(cc.write(&env, key(2), 1500, b"DIVERGED"));
            assert_eq!(cc.synced_digest(key(2)), Some(eager));
            assert!(cc.write(&env, key(3), 2990, b"past-the-end-tail"));
            assert!(!cc.is_reference(key(3)));
            assert_eq!(cc.synced_digest(key(3)), Some(eager));
            // An upload starting before anyone asked still forgets it.
            cc.clear_synced(key(4));
            assert_eq!(cc.synced_digest(key(4)), None);
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn cow_break_charges_only_the_broken_chunk() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(4096);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            // First write to chunk 1 breaks sharing for that chunk only.
            assert!(cc.write(&env, key(1), 1500, b"DIVERGED"));
            assert_eq!(cc.bytes_stored(), 1024, "exactly one chunk private");
            assert_eq!(cc.stats().cow_breaks, 1);
            assert_eq!(cas.pinned_bytes(), 3072, "broken chunk still pinned");
            cc.validate_accounting();
            // A second write to the same chunk breaks nothing further.
            assert!(cc.write(&env, key(1), 1024, b"x"));
            assert_eq!(cc.stats().cow_breaks, 1);
            assert_eq!(cc.bytes_stored(), 1024);
            // Guest-visible contents match a materialized equivalent.
            let mut want = content.clone();
            want[1500..1508].copy_from_slice(b"DIVERGED");
            want[1024] = b'x';
            let (data, _) = cc.read(&env, key(1), 0, 4096).unwrap();
            assert_eq!(data, want);
            // Flush hands over exactly the diverged chunk.
            assert_eq!(cc.dirty_files(), vec![key(1)]);
            let Some(DirtyFile::Diverged {
                total,
                ranges,
                full_digest,
            }) = cc.take_dirty(&env, key(1), true)
            else {
                panic!("a diverged-only take of a broken chunk yields ranges");
            };
            assert_eq!(total, 4096);
            assert_eq!(ranges.len(), 1);
            assert_eq!(ranges[0].0, 1024);
            assert_eq!(ranges[0].1, &want[1024..2048]);
            assert_eq!(full_digest, digest(&want));
            assert!(cc.dirty_files().is_empty());
            assert!(cc.take_dirty(&env, key(1), true).is_none());
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn whole_file_take_on_partial_divergence_keeps_the_ledger_exact() {
        // The satellite-1 audit: a whole-file take on a partially
        // diverged reference must neither convert the entry (double
        // charge) nor drop overlay bytes (under charge).
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(3000);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.write(&env, key(1), 0, b"new-head"));
            let before = cc.bytes_stored();
            assert_eq!(before, 1024);
            cc.clear_synced(key(1));
            let took = take_whole(&cc, &env, key(1)).unwrap();
            let mut want = content.clone();
            want[..8].copy_from_slice(b"new-head");
            assert_eq!(took, want);
            assert_eq!(cc.bytes_stored(), before, "ledger moved on take");
            assert!(cc.is_reference(key(1)), "take must not convert");
            assert!(cc.take_dirty(&env, key(1), true).is_none());
            cc.validate_accounting();
            // Re-dirtying after a failed upload keeps the full-file path,
            // even for a taker that would accept ranges.
            cc.mark_dirty(key(1));
            assert!(matches!(
                cc.take_dirty(&env, key(1), true),
                Some(DirtyFile::Whole(took)) if took == want
            ));
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn replacing_and_clearing_reference_entries_releases_pins() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(2048);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert_eq!(cas.pinned_bytes(), 2048);
            // Reinstalling the file as a full copy drops the reference
            // and its pins.
            cc.install(&env, key(1), &content);
            assert_eq!(cas.pinned_bytes(), 0);
            assert_eq!(cc.bytes_stored(), 2048);
            // And a cleared cache holds no pins either.
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(2), cas.clone(), 1024, recipe, 0);
            assert_eq!(cas.pinned_bytes(), 2048);
            cc.clear();
            assert_eq!(cas.pinned_bytes(), 0);
            assert_eq!(cc.bytes_stored(), 0);
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn extending_write_converts_reference_to_full() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(2000);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.write(&env, key(1), 1990, b"past-the-end-tail"));
            assert!(!cc.is_reference(key(1)));
            assert_eq!(cc.size_of(key(1)), Some(2007));
            assert_eq!(cc.bytes_stored(), 2007);
            assert_eq!(cas.pinned_bytes(), 0, "conversion must release pins");
            let mut want = content.clone();
            want.resize(2007, 0);
            want[1990..].copy_from_slice(b"past-the-end-tail");
            let (data, _) = cc.read(&env, key(1), 0, 4096).unwrap();
            assert_eq!(data, want);
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn capacity_pressure_spares_zero_cost_references() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 2500);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Arc::new(ContentStore::new(1 << 20));
            let content = golden(2048);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            // Two full installs blow the 2500-byte budget repeatedly; the
            // zero-overlay reference occupies no disk, so it survives
            // while full files pay.
            cc.install(&env, key(2), &[2u8; 2000]);
            cc.install(&env, key(3), &[3u8; 2000]);
            assert!(cc.contains(key(1)), "free reference evicted");
            assert!(!cc.contains(key(2)));
            assert!(cc.contains(key(3)));
            // Once it carries private bytes it competes like any file.
            assert!(cc.write(&env, key(1), 0, b"p"));
            assert!(matches!(
                cc.take_dirty(&env, key(1), true),
                Some(DirtyFile::Diverged { ranges, .. }) if ranges.len() == 1
            ));
            cc.install(&env, key(4), &[4u8; 2000]);
            assert!(!cc.contains(key(1)), "diverged reference now evictable");
            assert_eq!(cas.pinned_bytes(), 0, "eviction must release pins");
            cc.validate_accounting();
        });
        sim.run();
    }
}
