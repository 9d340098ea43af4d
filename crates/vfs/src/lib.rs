//! # vfs — filesystem substrate for the GVFS reproduction
//!
//! An inode-based, sparse, in-memory filesystem ([`Fs`]) with
//! generation-checked handles; a disk timing model ([`Disk`],
//! [`DiskModel`]); an O(1) [`LruMap`] used to model bounded memory
//! buffer caches; and the content pool ([`share`], [`share_slice`],
//! [`SharedBytes`])
//! through which every store of immutable payload keeps identical
//! bytes once on the host.
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
mod shared;
mod sparse;

pub use disk::{Disk, DiskModel};
pub use fs::{Attr, FileId, FileType, Fs, FsError, FsResult, Handle};
pub use io::{FileIo, IoError, IoResult, LocalIo, LocalIoConfig, MountTable, OpenFile};
pub use lru::LruMap;
pub use shared::{share, share_slice, SharedBytes};
pub use sparse::{SparseBytes, CHUNK_SIZE};
