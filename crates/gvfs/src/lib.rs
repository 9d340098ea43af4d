//! # gvfs — Grid Virtual File System (HPDC 2004 reproduction)
//!
//! The paper's contribution: user-level NFS proxy extensions that make
//! wide-area VM state transfer fast without modifying kernel NFS clients,
//! kernel NFS servers, applications or VM monitors.
//!
//! * [`Proxy`] — the user-level proxy: RPC server toward the kernel
//!   client, RPC client toward the next hop; chains compose into
//!   multi-level hierarchies.
//! * [`BlockCache`] — proxy-managed, set-associative, block-based disk
//!   cache with write-back or write-through policies and bank/frame
//!   structure per the paper.
//! * [`FileCache`] + [`channel`] — whole-file caching fed by the
//!   meta-data-driven file channel (compress → remote copy → uncompress
//!   → read locally), forming heterogeneous disk caching.
//! * [`meta`] — middleware-generated per-file meta-data: zero-block maps
//!   for VM memory state and file-channel action lists.
//! * [`codec`] — the zero-aware compressor standing in for GZIP.
//! * [`IdentityMapper`] — cross-domain authentication: short-lived
//!   middleware credentials mapped to local shadow accounts by
//!   server-side proxies.
//! * [`session`] — middleware session management: establish per-user
//!   proxy chains, signal write-back flushes (session-based consistency).
//! * [`transfer`] — the knobs of the overlapped WAN paths (chunked file
//!   channel, parallel write-back flush, proxy read-ahead), which all
//!   fan out through [`simnet::run_windowed`].
//! * [`digest`] + [`cas`] — content-addressed redundancy elimination:
//!   the canonical 128-bit content hash, per-proxy content store, and
//!   the recipe/blob channel path that ships only bytes the near side
//!   does not already hold.

#![warn(missing_docs)]

pub mod block_cache;
pub mod cas;
pub mod channel;
pub mod codec;
pub mod digest;
pub mod file_cache;
pub mod fleet;
pub mod identity;
pub mod meta;
pub mod proxy;
pub mod session;
pub mod transfer;

pub use block_cache::{BlockCache, BlockCacheConfig, BlockCacheStats, Tag, WritePolicy};
pub use cas::{ContentStore, DedupTel, DedupTuning};
pub use channel::{
    decode_gossip, encode_gossip, ChannelClient, DedupFetch, FileChannelServer, PinnedRecipe,
    RecipeFetch, CHANNEL_PROGRAM, CHANNEL_V1, MAX_GOSSIP_DIGESTS,
};
pub use codec::CodecModel;
pub use digest::Digest;
pub use file_cache::{CowTuning, DirtyFile, FileCache, FileCacheStats, FileKey};
pub use fleet::FleetTuning;
pub use identity::{IdentityMapper, MappedAccount};
pub use meta::{
    generate_content_map, generate_zero_map, meta_name_for, ContentMap, FileChannelSpec, MetaFile,
    ZeroMap,
};
pub use proxy::{FlushReport, Proxy, ProxyConfig, ProxyStats};
pub use session::{GvfsSession, ImageServer, Listen, Middleware, Tier};
pub use transfer::TransferTuning;
