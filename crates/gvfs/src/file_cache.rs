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
use std::rc::Rc;

use simnet::Env;
use simnet::Shared;
use vfs::{Disk, LruMap, Payload, PayloadRef, SharedBytes, SparseBytes, CHUNK_SIZE};

use crate::cas::{BrokenPin, ContentStore};
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
    cas: Rc<ContentStore>,
    /// Recipe grid (last chunk may be short).
    chunk_bytes: u32,
    /// `(digest, len)` per chunk, covering `[0, size)`.
    recipe: Vec<(Digest, u32)>,
    /// Chunk index → privately materialized bytes (sharing broken),
    /// written through `Rc::make_mut`: a read hands them out by
    /// reference.
    overlay: BTreeMap<u32, SharedBytes>,
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

    /// Byte offset where chunk `i` starts.
    fn chunk_offset(&self, i: usize) -> u64 {
        i as u64 * self.chunk_bytes as u64
    }

    /// Read `[offset, offset+len)` clipped to the recipe, returning the
    /// bytes and how many of them came off the disk (private overlay —
    /// shared chunks serve from the pinned host-memory CAS for free).
    /// Every byte is by reference, one step per 32 KiB file block the
    /// range touches. Of the chunks the read touches in a block, each
    /// cut to the block, a run of shared ones is one CAS block
    /// ([`ContentStore::pinned_block`]) and a private one its overlay
    /// allocation: a whole-block read of shared chunks asks for the
    /// whole block, and a read beside a broken pin never asks for it.
    fn read_range(&self, offset: u64, len: usize) -> Result<(Payload, u64), BrokenPin> {
        let total = self.total();
        let mut out = Payload::new();
        if offset >= total || len == 0 {
            return Ok((out, 0));
        }
        let end = total.min(offset + len as u64);
        let (cb, bs) = (self.chunk_bytes as u64, CHUNK_SIZE as u64);
        let private = |i: usize| self.overlay.get(&(i as u32));
        let mut disk = 0u64;
        for b in offset / bs..=(end - 1) / bs {
            let block = b * bs..total.min(b * bs + bs);
            let (s, e) = (offset.max(block.start), end.min(block.end));
            let last = ((e - 1) / cb) as usize;
            let mut i = (s / cb) as usize;
            while i <= last {
                let at = self.chunk_offset(i);
                if let Some(bytes) = private(i) {
                    let (lo, hi) = (s.max(at), e.min(at + self.recipe[i].1 as u64));
                    disk += hi - lo;
                    out.push_shared(Rc::clone(bytes), (lo - at) as usize..(hi - at) as usize);
                    i += 1;
                    continue;
                }
                let run = i..(i..=last)
                    .find(|&j| private(j).is_some())
                    .unwrap_or(last + 1);
                let slices: Vec<_> = run
                    .clone()
                    .map(|j| {
                        let (d, clen) = self.recipe[j];
                        let cstart = self.chunk_offset(j);
                        let lo = block.start.max(cstart) - cstart;
                        let hi = block.end.min(cstart + clen as u64) - cstart;
                        (d, lo as usize..hi as usize)
                    })
                    .collect();
                let shared = self.cas.pinned_block(&slices)?;
                let from = block.start.max(at);
                let to = from + shared.len() as u64;
                let within = s.max(from) - from..e.min(to) - from;
                out.push_shared(shared, within.start as usize..within.end as usize);
                i = run.end;
            }
        }
        Ok((out, disk))
    }

    /// Copy-on-write break: materialize every chunk `[offset,
    /// offset+len)` touches into the overlay (releasing its pin), apply
    /// the write, and mark those chunks dirty. The caller guarantees the
    /// write does not extend past the recipe. Returns the disk bytes the
    /// break wrote (full length of newly materialized chunks + written
    /// spans of already-private ones), the ledger growth (overlay bytes
    /// added — newly private chunks now occupy cache disk), and how many
    /// chunks broke. A broken pin on a chunk to materialize fails the
    /// write before anything changes.
    fn cow_write(&mut self, offset: u64, bytes: &[u8]) -> Result<(u64, u64, u64), BrokenPin> {
        if bytes.is_empty() {
            return Ok((0, 0, 0));
        }
        let end = offset + bytes.len() as u64;
        let cb = self.chunk_bytes as u64;
        let first = (offset / cb) as usize;
        let last = ((end - 1) / cb) as usize;
        let mut io = 0u64;
        let mut grew = 0u64;
        let mut spans = Vec::with_capacity(last + 1 - first);
        for i in first..=last {
            let clen = self.recipe[i].1;
            let cstart = self.chunk_offset(i);
            let s = offset.max(cstart);
            let e = end.min(cstart + clen as u64);
            if s >= e {
                continue;
            }
            // A still-shared chunk is read out of its pin before anything
            // changes, so a broken pin leaves the entry as it was.
            let shared = if self.overlay.contains_key(&(i as u32)) {
                io += e - s;
                None
            } else {
                io += clen as u64;
                grew += clen as u64;
                Some(self.read_range(cstart, clen as usize)?.0)
            };
            spans.push((i, cstart, s, e, shared));
        }
        let mut breaks = 0u64;
        for (i, cstart, s, e, shared) in spans {
            if let Some(chunk) = shared {
                self.cas.unpin(&self.recipe[i].0);
                self.overlay.insert(i as u32, Rc::new(chunk.to_vec()));
                breaks += 1;
            }
            if let Some(chunk) = self.overlay.get_mut(&(i as u32)) {
                Rc::make_mut(chunk)[(s - cstart) as usize..(e - cstart) as usize]
                    .copy_from_slice(&bytes[(s - offset) as usize..(e - offset) as usize]);
                self.dirty_chunks.insert(i as u32);
            }
        }
        Ok((io, grew, breaks))
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
    /// Exactly the contents the entry was installed with, which nobody
    /// has had to digest yet. Only an entry no write has touched is ever
    /// in this state: [`FileCache::write`] resolves it before the first
    /// byte lands.
    Pristine,
}

struct CachedFile {
    backing: Backing,
    size: u64,
    dirty: bool,
    /// The contents upstream last acknowledged holding (set on install —
    /// the file arrived *from* upstream — and after a successful
    /// upload). A dirty file whose current digest still matches was
    /// rewritten with identical bytes; its upload can be skipped.
    /// Host-side bookkeeping only: no simulated time.
    synced: Synced,
}

impl CachedFile {
    /// The synced digest, first digesting the pristine contents of an
    /// entry whose digest was left unresolved at install (a
    /// non-persistent clone's memory state is never asked, and never
    /// pays for digesting the file or assembling a reference).
    fn resolve_synced(&mut self) -> Result<Option<Digest>, BrokenPin> {
        if let Synced::Pristine = self.synced {
            let d = match &self.backing {
                Backing::Full(sparse) => {
                    digest(&sparse.read_range(0, self.size as usize).contiguous())
                }
                Backing::Reference(r) => {
                    debug_assert!(r.overlay.is_empty(), "unresolved digest after a break");
                    digest(&r.read_range(0, self.size as usize)?.0.contiguous())
                }
            };
            self.synced = Synced::Digest(d);
        }
        Ok(match self.synced {
            Synced::Digest(d) => Some(d),
            Synced::Unknown | Synced::Pristine => None,
        })
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
    /// The resident files in recency order; the byte budget, not the
    /// map's count bound, limits them.
    files: LruMap<FileKey, CachedFile>,
    bytes: u64,
    stats: FileCacheStats,
}

impl Inner {
    /// Make `f` the most recently used entry for `key`, debiting the disk
    /// bytes of the entry it replaces and crediting its own.
    fn put(&mut self, key: FileKey, f: CachedFile) {
        if let Some(old) = self.files.remove(&key) {
            let old_bytes = old.disk_bytes();
            debug_assert!(
                self.bytes >= old_bytes,
                "file-cache byte accounting underflow"
            );
            self.bytes -= old_bytes;
        }
        self.bytes += f.disk_bytes();
        self.files.insert(key, f);
    }
}

/// Whole-file cache on the proxy's local disk.
pub struct FileCache {
    disk: Disk,
    capacity_bytes: u64,
    inner: Shared<Inner>,
}

impl FileCache {
    /// Create a file cache with the given capacity on `disk`.
    pub fn new(disk: Disk, capacity_bytes: u64) -> Self {
        FileCache {
            disk,
            capacity_bytes,
            inner: Shared::new(Inner {
                files: LruMap::new(usize::MAX),
                bytes: 0,
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
        self.inner.lock().files.contains(&key)
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
    /// capacity. A payload of whole pooled blocks — a materialized
    /// recipe — is kept by reference, block for block.
    pub fn install<'a>(&self, env: &Env, key: FileKey, contents: impl Into<PayloadRef<'a>>) {
        let contents = contents.into();
        {
            let mut inner = self.inner.lock();
            let mut data = SparseBytes::new();
            data.write_at(0, contents);
            let size = contents.len() as u64;
            inner.put(
                key,
                CachedFile {
                    backing: Backing::Full(data),
                    size,
                    dirty: false,
                    // The contents came *from* upstream; their digest is
                    // resolved on demand.
                    synced: Synced::Pristine,
                },
            );
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
        cas: Rc<ContentStore>,
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
            // A fresh reference has no overlay: zero disk-resident bytes.
            inner.put(
                key,
                CachedFile {
                    backing: Backing::Reference(rf),
                    size,
                    dirty: false,
                    // The recipe came *from* upstream, so upstream holds
                    // exactly this; its digest is resolved on demand.
                    synced: Synced::Pristine,
                },
            );
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
                .iter_lru()
                .filter(|(k, f)| !f.dirty && **k != just_installed)
                // A reference with no overlay occupies no disk: evicting
                // it frees nothing and would only drop useful pins.
                .find(|(_, f)| match &f.backing {
                    Backing::Full(_) => true,
                    Backing::Reference(r) => r.overlay_bytes() > 0,
                })
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
    /// (`None` when the file is absent or was never synced). A reference
    /// whose pristine digest is still owed resolves it here, which fails
    /// on a broken pin.
    pub fn synced_digest(&self, key: FileKey) -> Result<Option<Digest>, BrokenPin> {
        let mut inner = self.inner.lock();
        match inner.files.peek_mut(&key) {
            Some(f) => f.resolve_synced(),
            None => Ok(None),
        }
    }

    /// Record that upstream now durably holds contents with this digest
    /// (called after a successful channel upload). No-op when absent.
    pub fn set_synced(&self, key: FileKey, d: Digest) {
        let mut inner = self.inner.lock();
        if let Some(f) = inner.files.peek_mut(&key) {
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
        if let Some(f) = inner.files.peek_mut(&key) {
            f.synced = Synced::Unknown;
        }
    }

    /// Read a range from a resident file, paying local-disk time for the
    /// disk-resident bytes touched. A reference file's shared chunks are
    /// served out of the pinned host-memory CAS (that residency is what
    /// the pin buys — DESIGN.md §5.9), so only its private overlay bytes
    /// charge the disk. Returns `None` if the file is not resident, and
    /// [`BrokenPin`] if a shared chunk the range needs is not.
    pub fn read(
        &self,
        env: &Env,
        key: FileKey,
        offset: u64,
        len: u32,
    ) -> Result<Option<(Payload, bool)>, BrokenPin> {
        let (data, eof, disk_bytes) = {
            let mut inner = self.inner.lock();
            // Refreshed on lookup, even if the read then meets a broken
            // pin.
            let Some(f) = inner.files.get_mut(&key) else {
                return Ok(None);
            };
            let (data, disk_bytes) = match &f.backing {
                Backing::Full(sparse) => {
                    let data = sparse.read_range(offset, len as usize);
                    // Streaming from the local file: positioning
                    // amortized across the whole-file access pattern
                    // these reads come from.
                    let n = data.len().max(1) as u64;
                    (data, n)
                }
                Backing::Reference(r) => r.read_range(offset, len as usize)?,
            };
            let eof = offset + data.len() as u64 >= f.size;
            inner.stats.read_hits += 1;
            (data, eof, disk_bytes)
        };
        if disk_bytes > 0 {
            self.disk.stream_io(env, disk_bytes);
        }
        Ok(Some((data, eof)))
    }

    /// Write a range into a resident file, marking it dirty. On a
    /// reference file this is the copy-on-write break: each touched
    /// chunk is materialized into the private overlay (charged as disk
    /// traffic, pin released), and only those chunks join the dirty set.
    /// A write extending past the recipe converts the entry to a full
    /// file first. Returns false if the file is not resident; a broken
    /// pin on a chunk the write needs fails it and changes nothing.
    pub fn write(
        &self,
        env: &Env,
        key: FileKey,
        offset: u64,
        bytes: &[u8],
    ) -> Result<bool, BrokenPin> {
        let io_bytes = {
            let mut inner = self.inner.lock();
            match inner.files.peek_mut(&key) {
                Some(f) => {
                    // A reference still owing its synced digest settles
                    // it now: past this write the pristine contents can
                    // no longer be assembled.
                    f.resolve_synced()?;
                    // Growth is incompatible with a recipe-bounded
                    // backing: materialize to a full entry first (the
                    // shared bytes become disk-resident and the ledger
                    // charges them, while the sparse store keeps each
                    // whole shared block by reference; `RefFile::drop`
                    // releases the pins).
                    let mut materialize_delta = 0u64;
                    if let Backing::Reference(r) = &f.backing {
                        if offset + bytes.len() as u64 > f.size {
                            let (full, _) = r.read_range(0, f.size as usize)?;
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
                            let (io, grew, breaks) = r.cow_write(offset, bytes)?;
                            (grew, io.max(1), breaks)
                        }
                    };
                    f.dirty = true;
                    // Recency moves only once the write has landed.
                    inner.files.get(&key);
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
                Ok(true)
            }
            None => Ok(false),
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
    /// absent or clean. A broken pin fails the take and leaves the file
    /// dirty.
    pub fn take_dirty(
        &self,
        env: &Env,
        key: FileKey,
        diverged_only: bool,
    ) -> Result<Option<DirtyFile>, BrokenPin> {
        let (out, disk_read) = {
            let mut inner = self.inner.lock();
            let Some(f) = inner.files.peek_mut(&key).filter(|f| f.dirty) else {
                return Ok(None);
            };
            let total = f.size;
            let taken = match &mut f.backing {
                Backing::Full(sparse) => {
                    let data = sparse.read_range(0, total as usize).to_vec();
                    let n = data.len() as u64;
                    (DirtyFile::Whole(data), n)
                }
                Backing::Reference(r) if diverged_only && !r.dirty_chunks.is_empty() => {
                    let full_digest = digest(&r.read_range(0, total as usize)?.0.contiguous());
                    let mut ranges = Vec::with_capacity(r.dirty_chunks.len());
                    let mut disk = 0u64;
                    for &i in r.dirty_chunks.iter() {
                        let Some(b) = r.overlay.get(&i) else {
                            debug_assert!(false, "dirty chunk without overlay bytes");
                            continue;
                        };
                        disk += b.len() as u64;
                        ranges.push((r.chunk_offset(i as usize), b.to_vec()));
                    }
                    r.dirty_chunks.clear();
                    let diverged = DirtyFile::Diverged {
                        total,
                        ranges,
                        full_digest,
                    };
                    (diverged, disk)
                }
                Backing::Reference(r) => {
                    let whole = DirtyFile::Whole(r.read_range(0, total as usize)?.0.to_vec());
                    r.dirty_chunks.clear();
                    (whole, r.overlay_bytes())
                }
            };
            f.dirty = false;
            taken
        };
        self.disk.sequential_io(env, disk_read);
        Ok(Some(out))
    }

    /// Whether a resident file is reference-backed.
    pub fn is_reference(&self, key: FileKey) -> bool {
        matches!(
            self.inner.lock().files.peek(&key).map(|f| &f.backing),
            Some(Backing::Reference(_))
        )
    }

    /// Recompute the byte ledger from scratch and assert every
    /// accounting invariant (test and audit hook; the exact-accounting
    /// discipline of PR 1 extended across the shared/private split).
    pub fn validate_accounting(&self) {
        let inner = self.inner.lock();
        let mut total = 0u64;
        for (k, f) in inner.files.iter_lru() {
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
        if let Some(f) = inner.files.peek_mut(&key) {
            f.dirty = true;
        }
    }

    /// Keys of dirty files.
    pub fn dirty_files(&self) -> Vec<FileKey> {
        let inner = self.inner.lock();
        let mut v: Vec<FileKey> = inner
            .files
            .iter_lru()
            .filter(|(_, f)| f.dirty)
            .map(|(k, _)| *k)
            .collect();
        v.sort_unstable();
        v
    }

    /// The size of a resident file.
    pub fn size_of(&self, key: FileKey) -> Option<u64> {
        self.inner.lock().files.peek(&key).map(|f| f.size)
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
    use std::rc::Rc;
    use vfs::DiskModel;

    fn cache(h: &SimHandle, cap: u64) -> Rc<FileCache> {
        Rc::new(FileCache::new(
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
        match c.take_dirty(env, k, false).unwrap()? {
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
            assert!(cc.read(&env, key(1), 0, 10).unwrap().is_none());
            cc.install(&env, key(1), b"memory state contents");
            let (data, eof) = cc.read(&env, key(1), 0, 1024).unwrap().unwrap();
            assert_eq!(data, b"memory state contents");
            assert!(eof);
            let (mid, eof2) = cc.read(&env, key(1), 7, 5).unwrap().unwrap();
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
            assert!(cc.write(&env, key(1), 8, b"XYZ").unwrap());
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
            cc.read(&env, key(1), 0, 1).unwrap().unwrap();
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
            assert_eq!(cc.synced_digest(key(1)).unwrap(), None);
            cc.install(&env, key(1), b"suspend state");
            assert_eq!(
                cc.synced_digest(key(1)).unwrap(),
                Some(digest(b"suspend state"))
            );
            // An identical rewrite dirties the file but leaves the synced
            // digest equal to the current contents' digest.
            assert!(cc.write(&env, key(1), 0, b"suspend state").unwrap());
            assert_eq!(cc.dirty_files(), vec![key(1)]);
            let contents = take_whole(&cc, &env, key(1)).unwrap();
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(digest(&contents)));
            // A real change diverges; set_synced records the new upload.
            assert!(cc.write(&env, key(1), 0, b"SUSPEND").unwrap());
            let contents = take_whole(&cc, &env, key(1)).unwrap();
            assert_ne!(cc.synced_digest(key(1)).unwrap(), Some(digest(&contents)));
            cc.set_synced(key(1), digest(&contents));
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(digest(&contents)));
        });
        sim.run();
    }

    #[test]
    fn a_full_install_owes_its_digest_until_the_first_write() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            // Sparse contents: a hole between two written ranges.
            let mut a = vec![0u8; 200_000];
            a[..5].copy_from_slice(b"state");
            a[150_000..150_004].copy_from_slice(b"tail");
            cc.install(&env, key(1), &a);
            // Nobody asks for the digest before the write lands.
            assert!(cc.write(&env, key(1), 0, b"STATE").unwrap());
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(digest(&a)));
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
            assert!(cc.synced_digest(key(1)).unwrap().is_some());
            // An upload attempt starts: upstream state is now unknown
            // until set_synced records a completed upload.
            cc.clear_synced(key(1));
            assert_eq!(cc.synced_digest(key(1)).unwrap(), None);
            cc.set_synced(key(1), digest(b"suspend state"));
            assert_eq!(
                cc.synced_digest(key(1)).unwrap(),
                Some(digest(b"suspend state"))
            );
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
            cc.write(&env, key(1), 0, b"dirty").unwrap();
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
    fn pinned_recipe(cas: &Rc<ContentStore>, content: &[u8], chunk: u32) -> Vec<(Digest, u32)> {
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
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(2500);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.is_reference(key(1)));
            assert_eq!(cc.bytes_stored(), 0, "shared content charged disk");
            assert_eq!(cc.size_of(key(1)), Some(2500));
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(digest(&content)));
            // Reads assemble byte-identically, across chunk boundaries.
            let (data, eof) = cc.read(&env, key(1), 0, 4096).unwrap().unwrap();
            assert_eq!(data, content);
            assert!(eof);
            let (mid, eof2) = cc.read(&env, key(1), 1000, 100).unwrap().unwrap();
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
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(3000);
            let eager = digest(&content);
            for k in 1..=4 {
                let recipe = pinned_recipe(&cas, &content, 1024);
                cc.install_reference(&env, key(k), cas.clone(), 1024, recipe, 0);
            }
            // Asked first, then written.
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(eager));
            assert!(cc.write(&env, key(1), 1500, b"DIVERGED").unwrap());
            assert_eq!(cc.synced_digest(key(1)).unwrap(), Some(eager));
            // Written first (a break, then an extension that converts the
            // entry to a full file), asked afterwards.
            assert!(cc.write(&env, key(2), 1500, b"DIVERGED").unwrap());
            assert_eq!(cc.synced_digest(key(2)).unwrap(), Some(eager));
            assert!(cc.write(&env, key(3), 2990, b"past-the-end-tail").unwrap());
            assert!(!cc.is_reference(key(3)));
            assert_eq!(cc.synced_digest(key(3)).unwrap(), Some(eager));
            // An upload starting before anyone asked still forgets it.
            cc.clear_synced(key(4));
            assert_eq!(cc.synced_digest(key(4)).unwrap(), None);
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
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(4096);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            // First write to chunk 1 breaks sharing for that chunk only.
            assert!(cc.write(&env, key(1), 1500, b"DIVERGED").unwrap());
            assert_eq!(cc.bytes_stored(), 1024, "exactly one chunk private");
            assert_eq!(cc.stats().cow_breaks, 1);
            assert_eq!(cas.pinned_bytes(), 3072, "broken chunk still pinned");
            cc.validate_accounting();
            // A second write to the same chunk breaks nothing further.
            assert!(cc.write(&env, key(1), 1024, b"x").unwrap());
            assert_eq!(cc.stats().cow_breaks, 1);
            assert_eq!(cc.bytes_stored(), 1024);
            // Guest-visible contents match a materialized equivalent.
            let mut want = content.clone();
            want[1500..1508].copy_from_slice(b"DIVERGED");
            want[1024] = b'x';
            let (data, _) = cc.read(&env, key(1), 0, 4096).unwrap().unwrap();
            assert_eq!(data, want);
            // Flush hands over exactly the diverged chunk.
            assert_eq!(cc.dirty_files(), vec![key(1)]);
            let Some(DirtyFile::Diverged {
                total,
                ranges,
                full_digest,
            }) = cc.take_dirty(&env, key(1), true).unwrap()
            else {
                panic!("a diverged-only take of a broken chunk yields ranges");
            };
            assert_eq!(total, 4096);
            assert_eq!(ranges.len(), 1);
            assert_eq!(ranges[0].0, 1024);
            assert_eq!(ranges[0].1, &want[1024..2048]);
            assert_eq!(full_digest, digest(&want));
            assert!(cc.dirty_files().is_empty());
            assert!(cc.take_dirty(&env, key(1), true).unwrap().is_none());
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
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(3000);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.write(&env, key(1), 0, b"new-head").unwrap());
            let before = cc.bytes_stored();
            assert_eq!(before, 1024);
            cc.clear_synced(key(1));
            let took = take_whole(&cc, &env, key(1)).unwrap();
            let mut want = content.clone();
            want[..8].copy_from_slice(b"new-head");
            assert_eq!(took, want);
            assert_eq!(cc.bytes_stored(), before, "ledger moved on take");
            assert!(cc.is_reference(key(1)), "take must not convert");
            assert!(cc.take_dirty(&env, key(1), true).unwrap().is_none());
            cc.validate_accounting();
            // Re-dirtying after a failed upload keeps the full-file path,
            // even for a taker that would accept ranges.
            cc.mark_dirty(key(1));
            assert!(matches!(
                cc.take_dirty(&env, key(1), true).unwrap(),
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
            let cas = Rc::new(ContentStore::new(1 << 20));
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
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(2000);
            let recipe = pinned_recipe(&cas, &content, 1024);
            cc.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
            assert!(cc.write(&env, key(1), 1990, b"past-the-end-tail").unwrap());
            assert!(!cc.is_reference(key(1)));
            assert_eq!(cc.size_of(key(1)), Some(2007));
            assert_eq!(cc.bytes_stored(), 2007);
            assert_eq!(cas.pinned_bytes(), 0, "conversion must release pins");
            let mut want = content.clone();
            want.resize(2007, 0);
            want[1990..].copy_from_slice(b"past-the-end-tail");
            let (data, _) = cc.read(&env, key(1), 0, 4096).unwrap().unwrap();
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
            let cas = Rc::new(ContentStore::new(1 << 20));
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
            assert!(cc.write(&env, key(1), 0, b"p").unwrap());
            assert!(matches!(
                cc.take_dirty(&env, key(1), true).unwrap(),
                Some(DirtyFile::Diverged { ranges, .. }) if ranges.len() == 1
            ));
            cc.install(&env, key(4), &[4u8; 2000]);
            assert!(!cc.contains(key(1)), "diverged reference now evictable");
            assert_eq!(cas.pinned_bytes(), 0, "eviction must release pins");
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn a_broken_pin_fails_reads_writes_and_takes_instead_of_serving_zeros() {
        let sim = Simulation::new();
        let c = cache(&sim.handle(), 1 << 20);
        let cc = c.clone();
        sim.spawn("t", move |env| {
            let cas = Rc::new(ContentStore::new(1 << 20));
            let content = golden(3072);
            for k in [1, 2] {
                let recipe = pinned_recipe(&cas, &content, 1024);
                cc.install_reference(&env, key(k), cas.clone(), 1024, recipe, 0);
            }
            // Key 1 diverges in chunk 0 (settling its synced digest)
            // before chunk 1's entry breaks.
            assert!(cc.write(&env, key(1), 0, b"y").unwrap());
            cas.corrupt_entry(&digest(&content[1024..2048]));
            // The pristine digest of an untouched reference needs every
            // chunk, so key 2 can neither report it nor take a write.
            assert_eq!(cc.synced_digest(key(2)), Err(BrokenPin));
            assert_eq!(cc.write(&env, key(2), 0, b"z"), Err(BrokenPin));
            // A read over the broken chunk fails; one beside it does not.
            assert_eq!(cc.read(&env, key(1), 1000, 100), Err(BrokenPin));
            let (tail, _) = cc.read(&env, key(1), 2048, 1024).unwrap().unwrap();
            assert_eq!(tail, &content[2048..]);
            // A write that must materialize the broken chunk changes
            // nothing.
            assert_eq!(cc.write(&env, key(1), 1500, b"x"), Err(BrokenPin));
            assert_eq!((cc.bytes_stored(), cc.stats().cow_breaks), (1024, 1));
            // The dirty file's upload needs the broken chunk too: it stays
            // dirty, whichever way it is taken.
            for diverged_only in [true, false] {
                assert!(cc.take_dirty(&env, key(1), diverged_only).is_err());
                assert_eq!(cc.dirty_files(), vec![key(1)]);
            }
            cc.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn recency_moves_on_reads_landed_writes_and_reinstalls_only() {
        // Each case leaves two clean, evictable files and installs a
        // third that pushes the cache over its 3500 bytes: the victim
        // is whichever of the two the case left least recently used.
        let sim = Simulation::new();
        let h = sim.handle();
        sim.spawn("t", move |env| {
            let content = golden(3072);
            // Key 1 is a reference with its first chunk private (so it
            // is evictable) and clean, key 2 a full file installed after
            // it; chunk 1's CAS entry is damaged if `broken`.
            let setup = |broken: bool| {
                let c = cache(&h, 3500);
                let cas = Rc::new(ContentStore::new(1 << 20));
                let recipe = pinned_recipe(&cas, &content, 1024);
                c.install_reference(&env, key(1), cas.clone(), 1024, recipe, 0);
                assert!(c.write(&env, key(1), 0, b"p").unwrap());
                assert!(c.take_dirty(&env, key(1), true).unwrap().is_some());
                c.install(&env, key(2), &[2u8; 1000]);
                if broken {
                    cas.corrupt_entry(&digest(&content[1024..2048]));
                }
                (c, cas)
            };
            let evicts = |c: &FileCache, victim: u64, survivor: u64| {
                c.install(&env, key(3), &[3u8; 1500]);
                assert!(!c.contains(key(victim)), "key {victim} stayed");
                assert!(c.contains(key(survivor)), "key {survivor} went");
                c.validate_accounting();
            };
            // Untouched, key 1 is the least recently used.
            let (c, _cas) = setup(false);
            evicts(&c, 1, 2);
            // A read that meets a broken pin still refreshes key 1.
            let (c, _cas) = setup(true);
            assert_eq!(c.read(&env, key(1), 1100, 100), Err(BrokenPin));
            evicts(&c, 2, 1);
            // A write that fails on a broken pin does not.
            let (c, _cas) = setup(true);
            assert_eq!(c.write(&env, key(1), 1500, b"x"), Err(BrokenPin));
            evicts(&c, 1, 2);
            // One that lands does, and stays refreshed once flushed.
            let (c, _cas) = setup(false);
            assert!(c.write(&env, key(1), 10, b"x").unwrap());
            assert!(c.take_dirty(&env, key(1), true).unwrap().is_some());
            evicts(&c, 2, 1);
            // A re-install moves key 1 to the most recent and debits the
            // overlay it replaces: 1100 + 1000 bytes before key 3 lands.
            let (c, cas) = setup(false);
            c.install(&env, key(1), &[1u8; 1100]);
            assert_eq!((c.bytes_stored(), cas.pinned_bytes()), (2100, 0));
            c.validate_accounting();
            evicts(&c, 2, 1);
            assert_eq!(c.bytes_stored(), 2600);
            // A re-install as a reference debits the whole file it
            // replaces: only key 1's overlay is left on the disk.
            let (c, cas) = setup(false);
            let recipe = pinned_recipe(&cas, &content[..2048], 1024);
            c.install_reference(&env, key(2), cas.clone(), 1024, recipe, 0);
            assert_eq!(c.bytes_stored(), 1024);
            c.validate_accounting();
        });
        sim.run();
    }
}
