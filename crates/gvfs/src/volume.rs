//! The cache volume: what a proxy keeps on its local disk ("banks are
//! created on the local disk on demand", §3.2.1) — the block cache, the
//! file cache, the content-addressed store with its pin ledger, and the
//! blocks parked for write-back with the file sizes the guest's writes
//! established. It outlives the proxy: a restarted proxy is another
//! [`Proxy::new`](crate::Proxy::new) over the same volume and loses
//! nothing the guest was told is stable.

use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use simnet::{Shared, SimHandle};
use vfs::{Disk, SharedBytes};

use crate::block_cache::{BlockCache, BlockCacheConfig, Tag};
use crate::cas::ContentStore;
use crate::file_cache::{FileCache, FileKey};
use crate::proxy::ProxyConfig;

/// Absorbed writes the origin has not seen yet, beyond the dirty frames
/// and files of the caches. One lock: a write bumps a size and a failed
/// write-back parks a block, and a flush reads both.
#[derive(Default)]
pub(crate) struct Ledger {
    /// Degraded-mode write-back retry queue: dirty blocks whose upstream
    /// WRITE (or the covering COMMIT) failed. Flush drains it with
    /// bounded-backoff retry rounds; until then the bytes live here
    /// instead of being dropped. BTreeMap: drained in deterministic
    /// order (lint: determinism).
    pub(crate) parked: BTreeMap<Tag, SharedBytes>,
    /// File sizes absorbed writes (or an upstream EOF) established: what
    /// a write-back clips to and GETATTR patches from. A flush keeps
    /// them: the meta-data still reports the pre-session size, and a
    /// later eviction clipped to it would drop appended bytes.
    pub(crate) sizes: HashMap<FileKey, u64>,
}

/// A proxy's local disk and its contents. Cloning is cheap and clones
/// share everything; a field replaced on one clone is not replaced on the
/// others, so set the fields before the first proxy mounts the volume.
#[derive(Clone)]
pub struct CacheVolume {
    /// The disk the caches live on.
    pub disk: Disk,
    /// The block cache, if the volume has one.
    pub block_cache: Option<Rc<BlockCache>>,
    /// The file cache, if the volume has one.
    pub file_cache: Option<Rc<FileCache>>,
    /// The content-addressed store, when dedup is on.
    pub cas: Option<Rc<ContentStore>>,
    pub(crate) ledger: Shared<Ledger>,
}

impl CacheVolume {
    /// The volume of a proxy configured by `cfg` on `disk`: a block cache
    /// of geometry `block`, a file cache of `file_bytes`, and a CAS of
    /// `cfg.dedup.cas_bytes` when dedup is on. The block cache's counters
    /// register in `h`'s telemetry registry. Mounting costs no disk time.
    pub fn new(
        h: &SimHandle,
        disk: Disk,
        cfg: &ProxyConfig,
        block: Option<BlockCacheConfig>,
        file_bytes: Option<u64>,
    ) -> CacheVolume {
        CacheVolume {
            block_cache: block.map(|geometry| Rc::new(BlockCache::new(h, disk.clone(), geometry))),
            file_cache: file_bytes.map(|bytes| Rc::new(FileCache::new(disk.clone(), bytes))),
            cas: cfg
                .dedup
                .enabled
                .then(|| Rc::new(ContentStore::new(cfg.dedup.cas_bytes))),
            ledger: Shared::default(),
            disk,
        }
    }

    /// Dirty blocks parked for the next flush.
    pub fn parked_blocks(&self) -> usize {
        self.ledger.lock().parked.len()
    }
}
