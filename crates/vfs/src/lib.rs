//! # vfs — filesystem substrate for the GVFS reproduction
//!
//! An inode-based, sparse, in-memory filesystem ([`Fs`]) with
//! generation-checked handles; a disk timing model ([`Disk`],
//! [`DiskModel`]); an O(1) [`LruMap`] used to model bounded memory
//! buffer caches, and the write-back [`PageCache`] of the host's local
//! disk and kernel NFS client; the content pool ([`share`], [`share_slice`],
//! [`zero_block`], [`SharedBytes`])
//! through which every store of immutable payload keeps identical
//! bytes once on the host; and [`Payload`], the shared pieces and zero
//! runs a file read hands out instead of a copy.
//!
//! The simulated kernel NFS servers (image/data servers) export an `Fs`;
//! compute servers use one as the local disk filesystem; VM state files
//! (multi-gigabyte `.vmdk`/`.vmss`) are stored sparsely so the whole
//! evaluation fits comfortably in RAM.

#![warn(missing_docs)]

mod disk;
mod fs;
pub mod io;
mod lru;
mod payload;
mod shared;
mod sparse;

pub use disk::{Disk, DiskModel};
pub use fs::{Attr, FileId, FileType, Fs, FsError, FsResult, Handle};
pub use io::{FileIo, IoError, IoResult, LocalIo, LocalIoConfig, MountTable, OpenFile};
pub use lru::{Evicted, LruMap, PageCache};
pub use payload::{Payload, PayloadRef, Piece};
pub use shared::{is_zero_block, share, share_slice, zero_block, SharedBytes, WeakTable};
pub use sparse::{SparseBytes, CHUNK_SIZE, USED_SPAN};
