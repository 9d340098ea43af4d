//! The file-based data channel (paper §3.2.2).
//!
//! When meta-data marks a file as "will be required in full" (e.g. a VM
//! memory state before resume), the client-side proxy bypasses
//! block-by-block NFS and runs the action list: **compress** the file on
//! the server (GZIP), **remote copy** it (GSI-enabled SCP in the paper),
//! **uncompress** into the file cache, then **read locally**.
//!
//! We model the server half as an RPC program co-located with the
//! server-side GVFS proxy ([`FileChannelServer`]). A transfer is always
//! chunk procedures: `FETCH_CHUNK` reads a range off the server disk,
//! compresses it (CPU time charged) and returns the compressed stream —
//! whose bytes are what actually crosses the simulated WAN link, exactly
//! like the SCP of a `.gz` — and `UPLOAD_CHUNK` is the reverse path used
//! for write-back of dirty cached files. The paper's serial whole-file
//! action list is the degenerate tuning of that one path: chunk size `0`
//! ("do not split") and a window of one. With dedup on, the same
//! transfer runs by recipe instead: `FETCH_RECIPE` names the file's
//! chunks by digest and `FETCH_BLOBS` (singly or in `FETCH_BLOBS_BATCH`
//! envelopes) moves only the chunks the near side does not hold.
//!
//! Every args and reply shape of the program is a typed message in the
//! wire-codec section below ([`ChunkArgs`], [`RecipeArgs`],
//! [`BlobArgs`], [`UploadArgs`], [`GossipDigests`] and the
//! status-prefixed [`Reply`]s), encoded and decoded through
//! `xdr::{Encode, Decode}` and nowhere else; the origin, the client and
//! the proxies along the path all use them.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::rc::Rc;

use nfs3::Fh3;
use oncrpc::{OpaqueAuth, ProgramError, RpcClient, RpcProgram};
use simnet::Shared;
use simnet::{run_windowed, Env, Resource, TransferTel};
use vfs::{Disk, Fs, Handle, Payload, CHUNK_SIZE};
use xdr::{Decode, Decoder, Encode, Encoder};

use crate::cas::{Blob, BrokenPin, ContentStore, DedupTel};
use crate::codec::{self, CodecModel};
use crate::digest::Digest;
use crate::meta::{scan_content_map, ContentMap};

/// Cap on recipe records a client will decode from a reply (matches the
/// meta parser's bound: 16 M records ≈ 16 TB at 1 MB chunks).
const MAX_RECIPE_RECORDS: usize = 1 << 24;

/// Cap on the bytes a client will materialize from one recipe's `total`
/// (the same 16 TB ceiling the records bound implies at 1 MB chunks).
const MAX_RECIPE_BYTES: u64 = 1 << 44;

/// RPC program number for the GVFS file channel (private range).
pub const CHANNEL_PROGRAM: u32 = 400_100;
/// Program version.
pub const CHANNEL_V1: u32 = 1;

/// Procedures. Numbers 1 and 2 were the whole-file FETCH and UPLOAD;
/// they are retired (`ProcUnavail`) and not reused.
pub mod chanproc {
    /// Ping.
    pub const NULL: u32 = 0;
    /// Fetch one chunk `[offset, offset+count)` of a file, compressed.
    /// Successive chunks pipeline: the server compresses chunk `k+1`
    /// while chunk `k` crosses the WAN and chunk `k-1` decompresses.
    pub const FETCH_CHUNK: u32 = 3;
    /// Upload one chunk of a file at a given offset (write-back path).
    pub const UPLOAD_CHUNK: u32 = 4;
    /// Fetch a file's per-chunk digest recipe (server-computed fallback
    /// when middleware meta carries no content map).
    pub const FETCH_RECIPE: u32 = 5;
    /// Fetch one recipe chunk's payload by `(offset, len, digest)`. The
    /// digest travels in the request so intermediate proxies can serve
    /// and single-flight the call by *content*, not just by file.
    pub const FETCH_BLOBS: u32 = 6;
    /// Batched read-side fetches: the args are an [`oncrpc::batch`]
    /// envelope of `(proc, args)` sub-calls (fetch procedures only, see
    /// [`batchable`](super::batchable)) and the result is the matching
    /// per-item reply envelope. One WAN round-trip — and one tunnel
    /// per-message cost — covers the whole envelope. A fleet client proxy
    /// sends a cold file's misses in these, and a shard forwards each
    /// envelope's own fresh misses upstream in one.
    pub const FETCH_BLOBS_BATCH: u32 = 7;
    /// Intra-region anti-entropy between sibling shard proxies: the
    /// caller pushes a bounded delta of blob digests it newly holds and
    /// the reply carries the receiver's own delta (tracked by a
    /// per-sender cursor). Proxy-to-proxy only — the origin has no
    /// content store and answers `ProcUnavail`.
    pub const GOSSIP_DIGESTS: u32 = 8;
    /// Peer-to-peer blob fetch between sibling shard proxies. Args are
    /// the `FETCH_BLOBS` wire format; the receiver serves *only* from
    /// its content store (never forwards upstream, so two shards can
    /// never ping-pong a miss) and fails the call on a local miss. The
    /// reply is a `FETCH_BLOBS` reply, so the caller's digest
    /// verification applies unchanged.
    pub const FETCH_BLOBS_PEER: u32 = 9;
}

/// Whether `proc` may ride a [`chanproc::FETCH_BLOBS_BATCH`] envelope.
/// Only read-side procedures do: a batched mutation retried as a whole
/// envelope would blur the duplicate-request-cache's at-most-once story,
/// and nothing on the fleet path needs it. The origin and every batching
/// proxy fail any other item with `BATCH_ITEM_FAILED`.
pub fn batchable(proc: u32) -> bool {
    matches!(
        proc,
        chanproc::FETCH_CHUNK | chanproc::FETCH_RECIPE | chanproc::FETCH_BLOBS
    )
}

/// Channel status codes: the word every reply opens with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanStatus {
    /// Success.
    Ok,
    /// No such file.
    NoEnt,
    /// Stale handle.
    Stale,
    /// Stream failed to decode.
    BadStream,
}

impl ChanStatus {
    fn from_fs(e: vfs::FsError) -> ChanStatus {
        match e {
            vfs::FsError::Stale => ChanStatus::Stale,
            _ => ChanStatus::NoEnt,
        }
    }
}

/// What disagreed in a reply that decoded but cannot be right.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mismatch {
    /// A reply holds a different number of bytes or items than it
    /// declares, or than the call asked for.
    ReplyLength,
    /// A recipe's records do not add up to its total.
    RecipeSpan,
    /// A slot of a transfer window never ran.
    WindowSlot,
    /// A content-store entry's length is not its recipe record's.
    CasLength,
}

/// Errors surfaced by the client half.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// RPC-level failure.
    Rpc(oncrpc::RpcError),
    /// Channel-level status.
    Status(ChanStatus),
    /// A reply did not decode; what the decoder said.
    Decode(xdr::Error),
    /// A reply decoded but disagrees with what it must match.
    Mismatch(Mismatch),
    /// A chunk the recipe needs is not in the local CAS: one larger
    /// than the whole CAS is not retained after its fetch, so it can be
    /// neither pinned nor read back through a pin.
    NotRetained,
}

impl From<xdr::Error> for ChannelError {
    fn from(e: xdr::Error) -> Self {
        ChannelError::Decode(e)
    }
}

impl From<Mismatch> for ChannelError {
    fn from(m: Mismatch) -> Self {
        ChannelError::Mismatch(m)
    }
}

// -- wire codec -------------------------------------------------------------
//
// Every message of the program is one of the types below; senders write
// `xdr::to_bytes(&msg)` and receivers `xdr::from_bytes::<T>(bytes)`, which
// refuses a message that is not consumed exactly.

/// Cap on digests per [`chanproc::GOSSIP_DIGESTS`] message in either
/// direction, enforced by [`GossipDigests`]' decoder (lint:
/// bounded-decode). The proxy's gossip message size must stay at or
/// below this.
pub const MAX_GOSSIP_DIGESTS: usize = 1024;

/// `FETCH_CHUNK` args: a byte range of a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkArgs {
    /// The file.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Byte count.
    pub count: u32,
}
xdr::record! { ChunkArgs { file, offset, count } }

/// `FETCH_RECIPE` args: a file and the chunk size to digest it at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecipeArgs {
    /// The file.
    pub file: Fh3,
    /// Chunk granularity of the recipe.
    pub chunk_bytes: u32,
}
xdr::record! { RecipeArgs { file, chunk_bytes } }

/// `FETCH_BLOBS` / `FETCH_BLOBS_PEER` args: a byte range of a file and
/// the digest its contents should have. The origin serves by range and
/// the client verifies; the digest rides along so proxies can serve and
/// coalesce by content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlobArgs {
    /// The file.
    pub file: Fh3,
    /// Byte offset.
    pub offset: u64,
    /// Byte count.
    pub len: u32,
    /// The expected content digest.
    pub want: Digest,
}
xdr::record! { BlobArgs { file, offset, len, want } }

/// `UPLOAD_CHUNK` args: a chunk of a file whose final size is `total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadArgs<'a> {
    /// The file.
    pub file: Fh3,
    /// Where the chunk goes.
    pub offset: u64,
    /// The file's final size.
    pub total: u64,
    /// Whether `payload` is a [`codec`] stream.
    pub compressed: bool,
    /// The chunk, as sent: a slice of the call.
    pub payload: &'a [u8],
}
xdr::record! { UploadArgs<'a> { file, offset, total, compressed, payload } }

/// `GOSSIP_DIGESTS` args and reply: the sending shard and a delta of
/// digests it holds (a reply's sender is the replying shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GossipDigests {
    /// Shard id of the sender.
    pub sender: u32,
    /// At most [`MAX_GOSSIP_DIGESTS`] digests.
    pub digests: Vec<Digest>,
}

impl Encode for GossipDigests {
    fn encode(&self, enc: &mut Encoder) {
        debug_assert!(self.digests.len() <= MAX_GOSSIP_DIGESTS);
        enc.put_u32(self.sender);
        enc.put_array(&self.digests, |enc, d| d.encode(enc));
    }
}

impl Decode<'_> for GossipDigests {
    // A count over the cap is refused before it sizes an allocation.
    fn decode(dec: &mut Decoder<'_>) -> xdr::Result<Self> {
        let sender = dec.get_u32()?;
        let n = dec.get_u32()? as usize;
        let mut digests = xdr::bounded_alloc(n, MAX_GOSSIP_DIGESTS)?;
        for _ in 0..n {
            digests.push(Digest::decode(dec)?);
        }
        Ok(GossipDigests { sender, digests })
    }
}

/// A reply: a [`ChanStatus`] word, then the body `T` only when the
/// status is `Ok` (so `Err` never holds `Ok`). `FETCH_CHUNK` replies
/// with a [`ChunkBody`], `FETCH_BLOBS` with a [`WirePayload`] and
/// `FETCH_RECIPE` with a [`ContentMap`]; `UPLOAD_CHUNK`'s reply is the
/// bare status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply<T>(pub Result<T, ChanStatus>);

impl<T: Encode> Encode for Reply<T> {
    fn encode(&self, enc: &mut Encoder) {
        match &self.0 {
            Ok(body) => {
                ChanStatus::Ok.encode(enc);
                body.encode(enc);
            }
            Err(status) => status.encode(enc),
        }
    }
}

impl<'a, T: Decode<'a>> Decode<'a> for Reply<T> {
    fn decode(dec: &mut Decoder<'a>) -> xdr::Result<Self> {
        Ok(Reply(match ChanStatus::decode(dec)? {
            ChanStatus::Ok => Ok(T::decode(dec)?),
            status => Err(status),
        }))
    }
}

impl Encode for ChanStatus {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(match self {
            ChanStatus::Ok => 0,
            ChanStatus::NoEnt => 2,
            ChanStatus::Stale => 70,
            ChanStatus::BadStream => 9000,
        });
    }
}

impl Decode<'_> for ChanStatus {
    fn decode(dec: &mut Decoder<'_>) -> xdr::Result<Self> {
        Ok(match dec.get_u32()? {
            0 => ChanStatus::Ok,
            2 => ChanStatus::NoEnt,
            70 => ChanStatus::Stale,
            9000 => ChanStatus::BadStream,
            other => return Err(xdr::Error::InvalidDiscriminant(other)),
        })
    }
}

/// A chunk as it crosses the wire: its uncompressed length, whether it
/// travels compressed, and the bytes sent (a slice of the message).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePayload<'a> {
    /// Uncompressed length.
    pub len: u64,
    /// Whether `data` is a [`codec`] stream.
    pub compressed: bool,
    /// The bytes on the wire.
    pub data: &'a [u8],
}
xdr::record! { WirePayload<'a> { len, compressed, data } }

/// The body of a `FETCH_CHUNK` reply: the file's size, then the chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkBody<'a> {
    /// The file's size.
    pub total: u64,
    /// The chunk.
    pub payload: WirePayload<'a>,
}
xdr::record! { ChunkBody<'a> { total, payload } }

/// The channel's form of a recipe: total, chunk size, a hyper record
/// count, then `(digest, len)` records. (Meta files lay a content map
/// out their own way: [`crate::meta::MetaFile::to_bytes`].)
impl Encode for ContentMap {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.total);
        enc.put_u32(self.chunk_bytes);
        enc.put_u64(self.records.len() as u64);
        for (d, l) in &self.records {
            d.encode(enc);
            enc.put_u32(*l);
        }
    }
}

impl Decode<'_> for ContentMap {
    fn decode(dec: &mut Decoder<'_>) -> xdr::Result<Self> {
        let total = dec.get_u64()?;
        let chunk_bytes = dec.get_u32()?;
        if chunk_bytes == 0 {
            return Err(xdr::Error::OutOfRange("chunk_bytes"));
        }
        let count = dec.get_u64()?;
        let mut records = xdr::bounded_alloc(
            usize::try_from(count).unwrap_or(usize::MAX),
            MAX_RECIPE_RECORDS,
        )?;
        for _ in 0..count {
            records.push((Digest::decode(dec)?, dec.get_u32()?));
        }
        Ok(ContentMap {
            chunk_bytes,
            total,
            records,
        })
    }
}

/// The file a call's args name: every channel procedure that has one
/// leads with its handle, so only that prefix is decoded.
pub(crate) fn decode_args_file(args: &[u8]) -> xdr::Result<Handle> {
    Ok(Fh3::decode(&mut Decoder::new(args))?.0)
}

/// Decode a whole reply, surfacing a status other than `Ok` as the error.
fn read_reply<'a, T: Decode<'a>>(res: &'a [u8]) -> Result<T, ChannelError> {
    xdr::from_bytes::<Reply<T>>(res)?
        .0
        .map_err(ChannelError::Status)
}

impl<'a> WirePayload<'a> {
    /// The chunk's contents, decompressed (charging the codec model) if
    /// it travelled compressed, borrowed from the message if not.
    pub(crate) fn unpack(&self, env: &Env) -> Result<Cow<'a, [u8]>, ChannelError> {
        if !self.compressed {
            return Ok(Cow::Borrowed(self.data));
        }
        env.sleep(CodecModel::default().decompress_time(self.len));
        codec::decompress(self.data)
            .map(Cow::Owned)
            .map_err(|_| ChannelError::Status(ChanStatus::BadStream))
    }
}

/// Read a `FETCH_BLOBS` reply — a single call's, a batch item's or a
/// peer's — and verify its payload against the digest the recipe
/// promised with [`Blob::verify`], the one place that makes a [`Blob`]:
/// a decompress and a digest charged to the codec model, run in full the
/// first time this thread sees the stream. A verified chunk lives on in
/// its wire form alone. Proxies call this before a reply may enter their
/// content store; the CPU it charges is the price of guarding a shared
/// store against a range-serving origin. Returns `(blob, wire bytes)`.
pub(crate) fn read_blob_reply(env: &Env, res: &[u8], want: Digest) -> BlobFetchResult {
    let p: WirePayload = read_reply(res)?;
    // Verify the content actually matches the recipe (a regenerated
    // server file would silently corrupt the reassembly otherwise).
    let blob = Blob::verify(env, want, &p).ok_or(ChannelError::Status(ChanStatus::BadStream))?;
    Ok((blob, p.data.len() as u64))
}

/// A `FETCH_BLOBS` reply carrying a chunk of logical length `len` as the
/// compressed stream `packed`: what a proxy answers out of its content
/// store.
pub(crate) fn blob_reply(len: u32, packed: &[u8]) -> Vec<u8> {
    xdr::to_bytes(&Reply(Ok(WirePayload {
        len: len.into(),
        compressed: true,
        data: packed,
    })))
}

/// One slot of a `FETCH_BLOBS_BATCH` reply envelope: the sub-call's
/// result bytes, or `BATCH_ITEM_FAILED` if it produced none.
pub(crate) fn batch_reply_item(result: Option<Vec<u8>>) -> oncrpc::BatchReplyItem {
    match result {
        Some(result) => oncrpc::BatchReplyItem {
            stat: oncrpc::BATCH_OK,
            result,
        },
        None => oncrpc::BatchReplyItem {
            stat: oncrpc::BATCH_ITEM_FAILED,
            result: Vec::new(),
        },
    }
}

// -- origin -----------------------------------------------------------------

/// Server half of the file channel (runs with the server-side proxy).
pub struct FileChannelServer {
    fs: Shared<Fs>,
    disk: Disk,
    /// When false, fetches return raw bytes (ablation: channel without
    /// compression).
    compress: bool,
    /// Optional CPU contention: compressions serialize on the image
    /// server's processors (a dual-CPU node in the paper's testbed), so
    /// eight parallel clonings cannot all gzip at once.
    cpu: Option<Resource>,
}

/// How a range serve charges the origin disk: a positioned access (seek +
/// stream) or a streaming continuation of the previous record in the
/// same envelope (no positioning — the platter is already there).
#[derive(Clone, Copy, PartialEq, Eq)]
enum DiskCharge {
    Positioned,
    Continuation,
}

impl FileChannelServer {
    /// Create a channel server over the image server's filesystem/disk,
    /// its compressions serialized on `cpu` if given.
    pub fn new(fs: Shared<Fs>, disk: Disk, compress: bool, cpu: Option<Resource>) -> Rc<Self> {
        Rc::new(FileChannelServer {
            fs,
            disk,
            compress,
            cpu,
        })
    }

    /// Serve the range `[offset, offset + count)` of a file, clipped to
    /// its size: filesystem read, disk charge, optional compression,
    /// reply encoding. `FETCH_CHUNK` (whose reply also carries the file
    /// total) and `FETCH_BLOBS`, single or batched, all end here, so a
    /// batched item's reply bytes equal the single call's by
    /// construction; only the disk-positioning charge differs.
    fn serve_range(
        &self,
        env: &Env,
        h: Handle,
        offset: u64,
        count: u32,
        charge: DiskCharge,
        with_total: bool,
    ) -> Vec<u8> {
        let read = {
            let mut fs = self.fs.lock();
            let now = env.now().as_nanos();
            fs.size(h).and_then(|size| {
                // Reads past EOF yield an empty chunk, not an error: the
                // probe chunk doubles as the size query.
                let len = (count as u64).min(size.saturating_sub(offset)) as usize;
                fs.read(h, offset, len, now).map(|(data, _)| (size, data))
            })
        };
        let (size, contents) = match read {
            Ok(r) => r,
            Err(e) => return xdr::to_bytes(&ChanStatus::from_fs(e)),
        };
        let len = contents.len() as u64;
        match charge {
            DiskCharge::Positioned => self.disk.sequential_io(env, len),
            DiskCharge::Continuation => self.disk.stream_io(env, len),
        }
        // Borrowed straight out of the store when the range is one chunk.
        let contents = contents.contiguous();
        let packed;
        let payload: &[u8] = if self.compress {
            let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
            env.sleep(CodecModel::default().compress_time(len));
            packed = codec::compress(&contents);
            &packed
        } else {
            &contents
        };
        let payload = WirePayload {
            len,
            compressed: self.compress,
            data: payload,
        };
        if with_total {
            xdr::to_bytes(&Reply(Ok(ChunkBody {
                total: size,
                payload,
            })))
        } else {
            xdr::to_bytes(&Reply(Ok(payload)))
        }
    }

    /// Apply one `UPLOAD_CHUNK`: set the file's length to `total`, then
    /// write the chunk at its offset.
    fn apply_upload(&self, env: &Env, args: &[u8]) -> Result<Vec<u8>, ProgramError> {
        let a: UploadArgs = garbage_unless(args)?;
        let (h, offset, total) = (a.file.0, a.offset, a.total);
        let contents = if a.compressed {
            match codec::decompress(a.payload) {
                Ok(c) => {
                    let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
                    env.sleep(CodecModel::default().decompress_time(c.len() as u64));
                    Cow::Owned(c)
                }
                Err(_) => return Ok(xdr::to_bytes(&ChanStatus::BadStream)),
            }
        } else {
            Cow::Borrowed(a.payload)
        };
        // Setting the length to the final size is idempotent across
        // chunks only while every chunk lies inside [0, total): then the
        // file ends at `total` whatever order a windowed upload lands
        // in. A chunk that overhangs would grow the file past `total`
        // and make the final size depend on arrival order — refuse it
        // before touching the filesystem.
        let inside = offset
            .checked_add(contents.len() as u64)
            .is_some_and(|end| end <= total);
        if !inside {
            return Ok(xdr::to_bytes(&ChanStatus::BadStream));
        }
        let status = {
            let mut fs = self.fs.lock();
            let now = env.now().as_nanos();
            match fs
                .setattr(h, Some(total), None, now)
                .and_then(|_| fs.write(h, offset, &contents[..], now))
            {
                Ok(_) => ChanStatus::Ok,
                Err(e) => ChanStatus::from_fs(e),
            }
        };
        if status == ChanStatus::Ok {
            self.disk.sequential_io(env, contents.len() as u64);
        }
        Ok(xdr::to_bytes(&status))
    }

    /// Compute a file's recipe at `chunk_bytes` granularity: the server
    /// scans and digests the whole file.
    fn serve_recipe(&self, env: &Env, args: &[u8]) -> Result<Vec<u8>, ProgramError> {
        let a: RecipeArgs = garbage_unless(args)?;
        let (h, chunk_bytes) = (a.file.0, a.chunk_bytes);
        if chunk_bytes == 0 {
            return Err(ProgramError::GarbageArgs);
        }
        let recipe = {
            let mut fs = self.fs.lock();
            let total = match fs.size(h) {
                Ok(s) => s,
                Err(e) => return Ok(xdr::to_bytes(&ChanStatus::from_fs(e))),
            };
            // The chunk count is server-derived, but the client caps the
            // records it will decode at the same bound, so refuse here
            // instead of encoding a reply the peer must reject.
            if total.div_ceil(chunk_bytes as u64) > MAX_RECIPE_RECORDS as u64 {
                return Err(ProgramError::GarbageArgs);
            }
            match scan_content_map(&mut fs, h, chunk_bytes, env.now().as_nanos()) {
                Ok(recipe) => recipe,
                Err(e) => return Ok(xdr::to_bytes(&ChanStatus::from_fs(e))),
            }
        };
        // Computing a recipe streams the whole file off the disk and
        // digests it on the server CPUs.
        self.disk.sequential_io(env, recipe.total);
        {
            let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
            env.sleep(CodecModel::default().digest_time(recipe.total));
        }
        Ok(xdr::to_bytes(&Reply(Ok(recipe))))
    }

    /// Serve a `FETCH_BLOBS_BATCH` envelope item by item. Each item
    /// produces the same reply bytes as the equivalent single call, so a
    /// batched fetch is byte-equivalent to N sequential ones by
    /// construction.
    fn serve_envelope(
        &self,
        env: &Env,
        cred: &OpaqueAuth,
        args: &[u8],
    ) -> Result<Vec<u8>, ProgramError> {
        let items = oncrpc::batch::decode_batch(args).map_err(|_| ProgramError::GarbageArgs)?;
        let mut replies = xdr::bounded_alloc(items.len(), oncrpc::batch::MAX_BATCH_ITEMS)
            .map_err(|_| ProgramError::GarbageArgs)?;
        // A recipe-ordered envelope asks for *adjacent* file ranges: the
        // platter crosses them in one pass, so only the first record of
        // each contiguous span pays the positioning cost — followers are
        // charged as streaming continuations. Interleaved single
        // FETCH_BLOBS calls cannot get this: the arm has moved for
        // whoever came in between.
        let mut prev: Option<(Handle, u64)> = None;
        for item in items {
            let reply = if !batchable(item.proc) {
                None
            } else if item.proc == chanproc::FETCH_BLOBS {
                xdr::from_bytes(&item.args).ok().map(|a: BlobArgs| {
                    let (h, offset, len) = (a.file.0, a.offset, a.len);
                    let charge = if prev == Some((h, offset)) {
                        DiskCharge::Continuation
                    } else {
                        DiskCharge::Positioned
                    };
                    prev = Some((h, offset + len as u64));
                    self.serve_range(env, h, offset, len, charge, false)
                })
            } else {
                prev = None;
                self.serve(env, cred, item.proc, &item.args).ok()
            };
            replies.push(batch_reply_item(reply));
        }
        Ok(oncrpc::batch::encode_batch_reply(&replies))
    }

    /// Execute one channel procedure — a call of its own, or an item of
    /// an envelope.
    fn serve(
        &self,
        env: &Env,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Vec<u8>, ProgramError> {
        match proc {
            chanproc::NULL => Ok(Vec::new()),
            chanproc::FETCH_CHUNK => {
                let a: ChunkArgs = garbage_unless(args)?;
                Ok(self.serve_range(
                    env,
                    a.file.0,
                    a.offset,
                    a.count,
                    DiskCharge::Positioned,
                    true,
                ))
            }
            chanproc::UPLOAD_CHUNK => self.apply_upload(env, args),
            chanproc::FETCH_RECIPE => self.serve_recipe(env, args),
            chanproc::FETCH_BLOBS => {
                // The trailing digest is for proxies along the path; the
                // origin serves by range and the client verifies.
                let a: BlobArgs = garbage_unless(args)?;
                Ok(self.serve_range(
                    env,
                    a.file.0,
                    a.offset,
                    a.len,
                    DiskCharge::Positioned,
                    false,
                ))
            }
            chanproc::FETCH_BLOBS_BATCH => self.serve_envelope(env, cred, args),
            _ => Err(ProgramError::ProcUnavail),
        }
    }
}

/// Decode a call's args, which must be all of `args`; anything else is
/// `GARBAGE_ARGS`.
fn garbage_unless<'a, T: Decode<'a>>(args: &'a [u8]) -> Result<T, ProgramError> {
    xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)
}

impl RpcProgram for FileChannelServer {
    fn program(&self) -> u32 {
        CHANNEL_PROGRAM
    }

    fn version(&self) -> u32 {
        CHANNEL_V1
    }

    fn call(
        &self,
        env: &Env,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<xdr::Bytes, ProgramError> {
        self.serve(env, cred, proc, args).map(xdr::Bytes::from)
    }
}

// -- client -----------------------------------------------------------------

/// Call `proc` of the channel program through `rpc` (a proxy calling its
/// gossip peers uses this directly).
pub(crate) fn call(
    rpc: &RpcClient,
    env: &Env,
    proc: u32,
    args: &[u8],
) -> Result<xdr::Bytes, oncrpc::RpcError> {
    rpc.call(env, CHANNEL_PROGRAM, CHANNEL_V1, proc, args)
}

/// Result of [`ChannelClient::fetch_recipe_pinned`]: every record of
/// `recipe` is CAS-resident and holds one pin per record occurrence.
/// Ownership of those pins passes to the caller: straight into
/// [`crate::FileCache::install_reference`], or back to the store through
/// [`PinnedRecipe::materialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PinnedRecipe {
    /// The recipe, fully resolved against the local CAS.
    pub recipe: ContentMap,
    /// Compressed bytes that crossed the wire.
    pub wire: u64,
    /// Logical bytes of the chunks actually fetched (the rest were
    /// already resident or rode a duplicate in-file digest).
    pub fresh_bytes: u64,
}

impl PinnedRecipe {
    /// The file's contents, read out of `cas` — the store the fetch
    /// pinned its records in — through those pins, which are released
    /// whether the read succeeds or fails: one pooled 32 KiB block per
    /// file block, assembled once per host thread
    /// ([`ContentStore::pinned_block`]). A read that finds a pinned
    /// record gone is [`ChannelError::NotRetained`].
    pub fn materialize(self, cas: &ContentStore) -> Result<Payload, ChannelError> {
        let records = &self.recipe.records;
        let total = self.recipe.total;
        let span: u64 = records.iter().map(|(_, l)| *l as u64).sum();
        let read = if total > MAX_RECIPE_BYTES {
            Err(ChannelError::from(xdr::Error::LengthOverLimit {
                declared: u32::try_from(total).unwrap_or(u32::MAX),
                limit: u32::MAX,
            }))
        } else if span != total {
            Err(Mismatch::RecipeSpan.into())
        } else {
            recipe_blocks(cas, records, total).map_err(|_| ChannelError::NotRetained)
        };
        for (d, _) in records {
            cas.unpin(d);
        }
        read
    }
}

/// The first `total` bytes `records` lay out, in file order, as pooled
/// 32 KiB blocks: each record is cut where blocks end, and a block is
/// asked for once its slices fill it.
fn recipe_blocks(
    cas: &ContentStore,
    records: &[(Digest, u32)],
    total: u64,
) -> Result<Payload, BrokenPin> {
    let mut out = Payload::new();
    let mut slices = Vec::new();
    let (mut at, mut block_end) = (0u64, total.min(CHUNK_SIZE as u64));
    for &(d, len) in records {
        let mut lo = 0u64;
        while lo < len as u64 && at < total {
            let n = (len as u64 - lo).min(block_end - at);
            slices.push((d, lo as usize..(lo + n) as usize));
            (lo, at) = (lo + n, at + n);
            if at == block_end {
                let block = cas.pinned_block(&slices)?;
                let n = block.len();
                out.push_shared(block, 0..n);
                slices.clear();
                block_end = total.min(block_end + CHUNK_SIZE as u64);
            }
        }
    }
    Ok(out)
}

/// One blob's outcome inside a fetch: the verified chunk in its wire
/// form and the wire bytes it cost — or that slot's failure.
type BlobFetchResult = Result<(Blob, u64), ChannelError>;

/// What a recipe fetch resolves against and how its misses travel.
pub struct RecipeFetch<'a> {
    /// The file's recipe when middleware meta carried a content map;
    /// `None` asks the server for one (`FETCH_RECIPE`).
    pub recipe_hint: Option<&'a ContentMap>,
    /// Chunk size to ask the server's recipe for (`0` means 1 MB).
    pub chunk_bytes: u32,
    /// Max calls in flight (single blobs, or envelopes).
    pub window: usize,
    /// Missing records per `FETCH_BLOBS_BATCH` envelope, so a cold
    /// transfer crosses the upstream link in `misses / batch`
    /// round-trips; `<= 1` sends one `FETCH_BLOBS` per missing record.
    pub batch: usize,
    /// The local content store records resolve against.
    pub cas: &'a ContentStore,
    /// Dedup counters to charge.
    pub dtel: &'a DedupTel,
    /// Window telemetry, if the caller has any.
    pub tel: Option<&'a TransferTel>,
}

/// One fetch group: the `(offset, len, digest)` of a distinct missing
/// recipe record.
type Group = (u64, u32, Digest);

/// Take one pin on `d` if it is resident (`Ok(false)` if not), recording
/// it in `pins` before anything can fail so the caller's unwind sees it,
/// and count the record as satisfied without a blob fetch.
fn pin_resident(
    rq: &RecipeFetch<'_>,
    pins: &mut Vec<Digest>,
    d: &Digest,
    l: u32,
) -> Result<bool, ChannelError> {
    if !rq.cas.pin(d) {
        return Ok(false);
    }
    pins.push(*d);
    if rq.cas.len_of(d) != Some(l) {
        return Err(Mismatch::CasLength.into());
    }
    rq.dtel.recipe_hits.inc();
    rq.dtel.bytes_avoided.add(l as u64);
    Ok(true)
}

/// Client half of the file channel, used by the client-side proxy.
#[derive(Clone)]
pub struct ChannelClient {
    rpc: RpcClient,
}

impl ChannelClient {
    /// Bind to an RPC stub whose endpoint serves [`FileChannelServer`].
    pub fn new(rpc: RpcClient) -> Self {
        ChannelClient { rpc }
    }

    fn call(&self, env: &Env, proc: u32, args: &[u8]) -> Result<xdr::Bytes, ChannelError> {
        call(&self.rpc, env, proc, args).map_err(ChannelError::Rpc)
    }

    /// Fetch one chunk. Returns (file_total, chunk_contents, wire_bytes);
    /// a read past EOF yields an empty chunk, so the first chunk doubles
    /// as the size probe.
    fn fetch_chunk(
        &self,
        env: &Env,
        h: Handle,
        offset: u64,
        count: u32,
    ) -> Result<(u64, Vec<u8>, u64), ChannelError> {
        let args = xdr::to_bytes(&ChunkArgs {
            file: Fh3(h),
            offset,
            count,
        });
        let res = self.call(env, chanproc::FETCH_CHUNK, &args)?;
        let ChunkBody { total, payload } = read_reply(&res)?;
        let contents = payload.unpack(env)?.into_owned();
        if contents.len() as u64 != payload.len {
            return Err(Mismatch::ReplyLength.into());
        }
        Ok((total, contents, payload.data.len() as u64))
    }

    /// Fetch and decompress a whole file in pipelined chunks: up to
    /// `window` chunk RPCs in flight, so server compression, WAN
    /// transfer and client decompression of successive chunks overlap.
    /// Returns (contents, wire_bytes): the caller can report the
    /// compression ratio achieved on the WAN. `chunk_bytes == 0` means
    /// "do not split" — the file travels as one chunk as large as the
    /// wire's count field allows — and with `window <= 1` the chunks go
    /// one at a time: together, the paper's serial action list.
    pub fn fetch_chunked(
        &self,
        env: &Env,
        h: Handle,
        chunk_bytes: u32,
        window: usize,
        tel: Option<&TransferTel>,
    ) -> Result<(Vec<u8>, u64), ChannelError> {
        let count = if chunk_bytes == 0 {
            u32::MAX
        } else {
            chunk_bytes
        };
        // The first chunk is also the size probe.
        let (total, first, first_wire) = self.fetch_chunk(env, h, 0, count)?;
        let offsets: Vec<u64> = (count as u64..total).step_by(count as usize).collect();
        let me = self.clone();
        let slots = run_windowed(env, "chan-fetch", window, offsets, tel, move |env, off| {
            Some(me.fetch_chunk(env, h, off, count))
        });
        let mut contents = first;
        let mut wire = first_wire;
        for slot in slots {
            let (_, data, w) = slot.ok_or(Mismatch::WindowSlot)??;
            contents.extend_from_slice(&data);
            wire += w;
        }
        if contents.len() as u64 != total {
            return Err(Mismatch::ReplyLength.into());
        }
        Ok((contents, wire))
    }

    /// Fetch one recipe chunk's payload; the expected digest travels in
    /// the request (content-addressed proxy caching) and is verified
    /// against the decompressed bytes here.
    fn fetch_blob(&self, env: &Env, h: Handle, (offset, len, want): Group) -> BlobFetchResult {
        let args = xdr::to_bytes(&BlobArgs {
            file: Fh3(h),
            offset,
            len,
            want,
        });
        let res = self.call(env, chanproc::FETCH_BLOBS, &args)?;
        read_blob_reply(env, &res, want)
    }

    /// Fetch several recipe chunks in one `FETCH_BLOBS_BATCH` envelope —
    /// one upstream round-trip for the whole slice. Each returned slot
    /// is what the equivalent single `FETCH_BLOBS` call would produce,
    /// verified against its digest; a per-item server failure surfaces
    /// as that slot's error without poisoning its neighbours.
    fn fetch_blobs_batch(
        &self,
        env: &Env,
        h: Handle,
        wants: &[Group],
    ) -> Result<Vec<BlobFetchResult>, ChannelError> {
        let items: Vec<oncrpc::BatchItem> = wants
            .iter()
            .map(|&(offset, len, want)| oncrpc::BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: xdr::to_bytes(&BlobArgs {
                    file: Fh3(h),
                    offset,
                    len,
                    want,
                }),
            })
            .collect();
        let args = oncrpc::batch::encode_batch(&items);
        let res = self.call(env, chanproc::FETCH_BLOBS_BATCH, &args)?;
        let replies = oncrpc::batch::decode_batch_reply(&res)?;
        if replies.len() != wants.len() {
            return Err(Mismatch::ReplyLength.into());
        }
        Ok(replies
            .iter()
            .zip(wants)
            .map(|(r, &(_, _, want))| {
                if !r.ok() {
                    return Err(ChannelError::Status(ChanStatus::BadStream));
                }
                read_blob_reply(env, &r.result, want)
            })
            .collect())
    }

    /// The recipe a fetch runs by: the caller's hint, or the server's
    /// answer to `FETCH_RECIPE` (it scans and digests the file, disk and
    /// CPU time charged there); either way its records must span
    /// exactly the file total.
    fn recipe_for(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'_>,
    ) -> Result<ContentMap, ChannelError> {
        let recipe = match rq.recipe_hint {
            Some(r) => r.clone(),
            None => {
                let args = xdr::to_bytes(&RecipeArgs {
                    file: Fh3(h),
                    chunk_bytes: if rq.chunk_bytes == 0 {
                        1 << 20
                    } else {
                        rq.chunk_bytes
                    },
                });
                read_reply(&self.call(env, chanproc::FETCH_RECIPE, &args)?)?
            }
        };
        let span: u64 = recipe.records.iter().map(|(_, l)| *l as u64).sum();
        if span != recipe.total {
            return Err(Mismatch::RecipeSpan.into());
        }
        Ok(recipe)
    }

    /// Fetch every group's payload, `rq.window` calls in flight: one
    /// `FETCH_BLOBS` per group, or with `rq.batch > 1` envelopes of
    /// `rq.batch` groups. One slot per group, in order; item-level
    /// failures surface in their slot, an envelope-level failure fails
    /// the whole fetch. Each blob is held in its wire form alone from
    /// the moment it is verified, while the rest of the window lands.
    fn fetch_groups(
        &self,
        env: &Env,
        h: Handle,
        groups: &[Group],
        rq: &RecipeFetch<'_>,
    ) -> Result<Vec<BlobFetchResult>, ChannelError> {
        let me = self.clone();
        let window = rq.window.max(1);
        if rq.batch > 1 {
            let envelopes: Vec<Vec<Group>> = groups.chunks(rq.batch).map(|c| c.to_vec()).collect();
            let rounds = run_windowed(
                env,
                "chan-dedup",
                window,
                envelopes,
                rq.tel,
                move |env, wants| Some(me.fetch_blobs_batch(env, h, &wants)),
            );
            let mut flat = xdr::bounded_alloc(groups.len(), MAX_RECIPE_RECORDS)?;
            for round in rounds {
                flat.extend(round.ok_or(Mismatch::WindowSlot)??);
            }
            Ok(flat)
        } else {
            Ok(run_windowed(
                env,
                "chan-dedup",
                window,
                groups.to_vec(),
                rq.tel,
                move |env, group| Some(me.fetch_blob(env, h, group)),
            )
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(Mismatch::WindowSlot.into())))
            .collect())
        }
    }

    /// Fetch a whole file by recipe into the local CAS, taking one pin
    /// per record occurrence: every chunk whose digest the CAS already
    /// holds is pinned in place, and only the missing payloads (one per
    /// *distinct* missing digest) cross the wire and are inserted
    /// pre-pinned. On success the returned [`PinnedRecipe`] carries
    /// ownership of every pin; on any error all pins taken so far are
    /// released, so the caller can simply fall back to
    /// [`ChannelClient::fetch_chunked`].
    pub fn fetch_recipe_pinned(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'_>,
    ) -> Result<PinnedRecipe, ChannelError> {
        let recipe = self.recipe_for(env, h, rq)?;
        // Pins taken so far, released in bulk if anything goes wrong.
        let mut pins: Vec<Digest> = xdr::bounded_alloc(recipe.records.len(), MAX_RECIPE_RECORDS)?;
        match self.pin_records(env, h, rq, &recipe, &mut pins) {
            Ok((wire, fresh_bytes)) => Ok(PinnedRecipe {
                recipe,
                wire,
                fresh_bytes,
            }),
            Err(e) => {
                for d in &pins {
                    rq.cas.unpin(d);
                }
                Err(e)
            }
        }
    }

    /// The body of [`ChannelClient::fetch_recipe_pinned`]: every pin it
    /// takes is pushed on `pins` the moment it is taken, so the caller
    /// can release them all on error. Returns `(wire, fresh_bytes)`.
    fn pin_records(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'_>,
        recipe: &ContentMap,
        pins: &mut Vec<Digest>,
    ) -> Result<(u64, u64), ChannelError> {
        let cas = rq.cas;
        // First pass: pin what is resident, and plan one fetch group per
        // distinct missing digest. Later occurrences of a missing digest
        // ride its group's fetch and wait for the third pass.
        let mut groups: Vec<Group> = Vec::new();
        let mut missing: BTreeSet<Digest> = BTreeSet::new();
        let mut dups: Vec<(Digest, u32)> = Vec::new();
        let mut off = 0u64;
        for &(d, l) in &recipe.records {
            if missing.contains(&d) {
                dups.push((d, l));
            } else if !pin_resident(rq, pins, &d, l)? {
                missing.insert(d);
                groups.push((off, l, d));
            }
            off += l as u64;
        }
        // Second pass: fetch the misses and insert them pre-pinned.
        let mut wire = 0u64;
        let mut fresh_bytes = 0u64;
        for (slot, (_, _, d)) in self
            .fetch_groups(env, h, &groups, rq)?
            .into_iter()
            .zip(&groups)
        {
            let (blob, w) = slot?;
            rq.dtel.blob_fetches.inc();
            wire += w;
            fresh_bytes += blob.len() as u64;
            cas.insert_blob(blob, true);
            // An oversized payload is not retained by the CAS and
            // therefore cannot be pinned.
            if !cas.contains(d) {
                return Err(ChannelError::NotRetained);
            }
            pins.push(*d);
        }
        // Third pass: duplicate occurrences each take their own pin —
        // their digest is resident by now (pinned above), so this cannot
        // race an eviction.
        for (d, l) in dups {
            if !pin_resident(rq, pins, &d, l)? {
                return Err(ChannelError::NotRetained);
            }
        }
        Ok((wire, fresh_bytes))
    }

    /// Upload one chunk of a file whose final size is `total`.
    fn upload_chunk(
        &self,
        env: &Env,
        h: Handle,
        offset: u64,
        total: u64,
        data: &[u8],
    ) -> Result<u64, ChannelError> {
        env.sleep(CodecModel::default().compress_time(data.len() as u64));
        let payload = codec::compress(data);
        let args = xdr::to_bytes(&UploadArgs {
            file: Fh3(h),
            offset,
            total,
            compressed: true,
            payload: &payload,
        });
        let res = self.call(env, chanproc::UPLOAD_CHUNK, &args)?;
        match xdr::from_bytes(&res)? {
            ChanStatus::Ok => Ok(payload.len() as u64),
            status => Err(ChannelError::Status(status)),
        }
    }

    /// Compress and upload byte ranges of a file whose final size is
    /// `total`, up to `window` in flight; returns the wire bytes. The
    /// ranges need not cover the file: the server applies each with a
    /// size-preserving set-length + write, so untouched ranges keep
    /// whatever content the server already holds — exactly what a
    /// copy-on-write flush of only the diverged chunks needs when
    /// upstream still has the golden base the recipe came from.
    pub fn upload_ranges(
        &self,
        env: &Env,
        h: Handle,
        total: u64,
        ranges: Vec<(u64, Vec<u8>)>,
        window: usize,
        tel: Option<&TransferTel>,
    ) -> Result<u64, ChannelError> {
        // A lone range or a serial window is not a windowed transfer: it
        // runs inline and leaves the window telemetry alone.
        let tel = tel.filter(|_| ranges.len() > 1 && window > 1);
        let me = self.clone();
        let slots = run_windowed(
            env,
            "chan-upload",
            window,
            ranges,
            tel,
            move |env, (off, data)| Some(me.upload_chunk(env, h, off, total, &data)),
        );
        slots.into_iter().try_fold(0u64, |wire, slot| {
            Ok(wire + slot.ok_or(Mismatch::WindowSlot)??)
        })
    }
}

/// Cut a whole file into the `(offset, bytes)` ranges a chunked upload
/// sends. `chunk_bytes == 0` means "do not split": the file goes as one
/// chunk at offset 0.
pub fn chunk_ranges(contents: &[u8], chunk_bytes: u32) -> Vec<(u64, Vec<u8>)> {
    let step = if chunk_bytes == 0 {
        contents.len().max(1)
    } else {
        chunk_bytes as usize
    };
    let mut chunks: Vec<(u64, Vec<u8>)> = contents
        .chunks(step)
        .enumerate()
        .map(|(i, c)| ((i * step) as u64, c.to_vec()))
        .collect();
    if chunks.is_empty() {
        // An empty file still has to be cut to length upstream.
        chunks.push((0, Vec::new()));
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use oncrpc::{AuthSys, Dispatcher, WireSpec};
    use simnet::{Link, SimDuration, Simulation};
    use vfs::DiskModel;

    type Rig = (Shared<Fs>, ChannelClient, Link);

    fn rig(sim: &Simulation, mbps: f64, compress: bool) -> Rig {
        let h = sim.handle();
        let fs = Shared::new(Fs::new(0));
        let disk = Disk::new(&h, DiskModel::server_array());
        let server = FileChannelServer::new(fs.clone(), disk, compress, None);
        let up = Link::from_mbps(&h, "up", mbps, SimDuration::from_millis(17));
        let down = Link::from_mbps(&h, "down", mbps, SimDuration::from_millis(17));
        let ep = oncrpc::endpoint(&h, up, down.clone(), WireSpec::ssh_tunnel(50e6));
        ep.listener
            .serve("chan", Dispatcher::new().register(server).into_handler(), 2);
        let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("c", 1, 1)));
        (fs, ChannelClient::new(rpc), down)
    }

    /// Create `name` holding `data`, then grow it (sparsely) to `size`.
    fn put_file(fs: &Shared<Fs>, name: &str, data: &[u8], size: u64) -> Handle {
        let mut f = fs.lock();
        let root = f.root();
        let h = f.create(root, name, 0o644, 0).unwrap();
        f.write(h, 0, data, 0).unwrap();
        if size > data.len() as u64 {
            f.setattr(h, Some(size), None, 0).unwrap();
        }
        h
    }

    /// A serial, unbatched recipe fetch against `cas`.
    fn rq<'a>(
        hint: Option<&'a ContentMap>,
        chunk_bytes: u32,
        cas: &'a ContentStore,
        dtel: &'a DedupTel,
    ) -> RecipeFetch<'a> {
        RecipeFetch {
            recipe_hint: hint,
            chunk_bytes,
            window: 4,
            batch: 1,
            cas,
            dtel,
            tel: None,
        }
    }

    #[test]
    fn whole_file_fetch_returns_exact_contents_and_compressed_wire_bytes() {
        let sim = Simulation::new();
        let (fs, chan, down) = rig(&sim, 25.0, true);
        // A 4 MB file, 90% zeros (like a memory image).
        let fh = put_file(&fs, "vm.vmss", &[], 4 << 20);
        for i in 0..40 {
            let mut f = fs.lock();
            f.write(fh, i * 100_000, &[0xABu8; 10_000], 0).unwrap();
        }
        sim.spawn("client", move |env| {
            // Unsplit and serial: the paper's whole-file action list.
            let (contents, wire) = chan.fetch_chunked(&env, fh, 0, 1, None).unwrap();
            assert_eq!(contents.len(), 4 << 20);
            assert_eq!(&contents[0..4], &[0xAB; 4]);
            assert_eq!(contents[50_000], 0);
            assert!(
                wire < (contents.len() / 5) as u64,
                "wire {wire} should be far below {}",
                contents.len()
            );
            // The link only carried roughly the compressed bytes.
            assert!(down.total_bytes() < (1 << 20) as u64 + 65536);
        });
        sim.run();
    }

    #[test]
    fn chunked_fetch_and_upload_round_trip() {
        let sim = Simulation::new();
        let (fs, chan, _down) = rig(&sim, 25.0, true);
        let data: Vec<u8> = (0..(3 << 20) + 12345u32).map(|i| (i % 251) as u8).collect();
        let fh = put_file(&fs, "vm.vmss", &data, 0);
        let redo = put_file(&fs, "redo.log", &[], 0);
        let fs2 = fs.clone();
        sim.spawn("client", move |env| {
            let (mono, _) = chan.fetch_chunked(&env, fh, 0, 1, None).unwrap();
            let (chunked, _) = chan.fetch_chunked(&env, fh, 1 << 20, 4, None).unwrap();
            assert_eq!(mono, data);
            assert_eq!(chunked, data);
            // Upload new contents of a different (shorter) length, split
            // and pipelined; then a small file, unsplit and serial.
            let new: Vec<u8> = (0..(2 << 20) + 7u32).map(|i| (i % 13) as u8).collect();
            let len = new.len() as u64;
            chan.upload_ranges(&env, fh, len, chunk_ranges(&new, 1 << 20), 4, None)
                .unwrap();
            let small: Vec<u8> = (0..100_000u32).map(|i| (i % 13) as u8).collect();
            let len = small.len() as u64;
            chan.upload_ranges(&env, redo, len, chunk_ranges(&small, 0), 1, None)
                .unwrap();
            let mut f = fs2.lock();
            for (h, want) in [(fh, &new), (redo, &small)] {
                assert_eq!(f.size(h).unwrap(), want.len() as u64);
                let (back, _) = f.read(h, 0, want.len(), 0).unwrap();
                assert_eq!(&back, want);
            }
        });
        sim.run();
    }

    #[test]
    fn chunked_fetch_overlaps_pipeline_stages() {
        let elapsed = |chunk: u32, window: usize| -> f64 {
            let sim = Simulation::new();
            let (fs, chan, _down) = rig(&sim, 14.0, true);
            let data: Vec<u8> = (0..8 << 20u32).map(|i| (i % 17) as u8).collect();
            let fh = put_file(&fs, "m.vmss", &data, 0);
            sim.spawn("client", move |env| {
                chan.fetch_chunked(&env, fh, chunk, window, None).unwrap();
            });
            sim.run().as_secs_f64()
        };
        let serial = elapsed(0, 1);
        let pipelined = elapsed(1 << 20, 4);
        assert!(
            pipelined < serial,
            "pipelined {pipelined}s should beat serial {serial}s"
        );
    }

    /// A recipe fetch materialized: pin, read through the pins, unpin.
    fn fetch_whole(
        chan: &ChannelClient,
        env: &Env,
        fh: Handle,
        rq: &RecipeFetch<'_>,
    ) -> Result<(Vec<u8>, PinnedRecipe), ChannelError> {
        let pr = chan.fetch_recipe_pinned(env, fh, rq)?;
        Ok((pr.clone().materialize(rq.cas)?.to_vec(), pr))
    }

    #[test]
    fn dedup_fetch_reassembles_and_dedupes() {
        let sim = Simulation::new();
        let (fs, chan, down) = rig(&sim, 25.0, true);
        // 5 MB file whose first and third MB are identical.
        let mb = 1usize << 20;
        let mut data: Vec<u8> = (0..5 * mb).map(|i| (i % 249) as u8).collect();
        let (lo, hi) = data.split_at_mut(2 * mb);
        hi[..mb].copy_from_slice(&lo[..mb]);
        let fh = put_file(&fs, "vm.vmss", &data, 0);
        let recipe = crate::meta::generate_content_map(&mut fs.lock(), fh, 1 << 20).unwrap();
        sim.spawn("client", move |env| {
            let cas = ContentStore::new(1 << 30);
            let dtel = DedupTel::unregistered();
            // Cold CAS, meta-data recipe: the duplicate chunk rides its
            // twin's fetch; the bytes are the plain chunked fetch's.
            let (cold, pr) =
                fetch_whole(&chan, &env, fh, &rq(Some(&recipe), 1 << 20, &cas, &dtel)).unwrap();
            let (mono, _) = chan.fetch_chunked(&env, fh, 1 << 20, 4, None).unwrap();
            assert_eq!(cold, mono);
            assert_eq!(cold, data);
            assert_eq!(cas.pinned_bytes(), 0, "materializing releases every pin");
            assert_eq!(dtel.blob_fetches.get(), 4, "4 distinct MB chunks");
            assert_eq!(dtel.recipe_hits.get(), 1, "duplicate chunk served locally");
            assert_eq!(dtel.bytes_avoided.get(), 1 << 20);
            assert!(pr.wire > 0);
            assert_eq!(pr.fresh_bytes, 4 << 20, "4 distinct MB chunks fetched");
            let wire_after_first = down.total_bytes();
            // Warm CAS, server's recipe: all local, only the recipe crosses.
            let (warm, pr) = fetch_whole(&chan, &env, fh, &rq(None, 1 << 20, &cas, &dtel)).unwrap();
            assert_eq!(warm, data);
            assert_eq!(pr.wire, 0);
            assert_eq!(pr.fresh_bytes, 0);
            assert_eq!(dtel.blob_fetches.get(), 4);
            assert_eq!(dtel.recipe_hits.get(), 6);
            // Only the recipe reply crossed the link the second time.
            assert!(down.total_bytes() - wire_after_first < 4096);
        });
        sim.run();
    }

    #[test]
    fn materialize_cuts_records_of_any_length_into_whole_blocks() {
        let cas = ContentStore::new(1 << 30);
        let lens = [5_000usize, 70_000, 1, 12_345, 32 * 1024];
        let mut want = Vec::new();
        let records: Vec<(Digest, u32)> = lens
            .iter()
            .enumerate()
            .map(|(r, &n)| {
                let chunk: Vec<u8> = (0..n).map(|i| (i * 7 + r * 13) as u8 | 1).collect();
                want.extend_from_slice(&chunk);
                (cas.insert_pinned(&chunk), n as u32)
            })
            .collect();
        let pinned = |total: u64| PinnedRecipe {
            recipe: ContentMap {
                chunk_bytes: 1 << 16,
                total,
                records: records.clone(),
            },
            wire: 0,
            fresh_bytes: 0,
        };
        let got = pinned(want.len() as u64).materialize(&cas).unwrap();
        assert_eq!(got, want);
        let sizes: Vec<usize> = got.pieces().map(|p| p.len()).collect();
        let tail = want.len() % CHUNK_SIZE;
        assert_eq!(sizes.len(), want.len().div_ceil(CHUNK_SIZE));
        assert!(sizes[..sizes.len() - 1].iter().all(|&n| n == CHUNK_SIZE));
        assert_eq!(sizes.last(), Some(&tail));
        assert_eq!(cas.pinned_bytes(), 0, "materializing releases every pin");
        // A recipe whose records do not add up to its total still
        // releases its pins.
        for (d, _) in &records {
            assert!(cas.pin(d));
        }
        let short = pinned(want.len() as u64 + 1).materialize(&cas);
        assert_eq!(short, Err(Mismatch::RecipeSpan.into()));
        assert_eq!(cas.pinned_bytes(), 0);
    }

    #[test]
    fn materialize_reports_a_broken_pin_and_releases_every_pin() {
        let sim = Simulation::new();
        let (fs, chan, _down) = rig(&sim, 100.0, true);
        let data: Vec<u8> = (0..1 << 20u32).map(|i| (i % 241) as u8).collect();
        let fh = put_file(&fs, "vm.vmss", &data, 0);
        sim.spawn("client", move |env| {
            let cas = ContentStore::new(1 << 30);
            let dtel = DedupTel::unregistered();
            let pr = chan
                .fetch_recipe_pinned(&env, fh, &rq(None, 1 << 18, &cas, &dtel))
                .unwrap();
            assert_eq!(cas.pinned_bytes(), 1 << 20);
            cas.corrupt_entry(&pr.recipe.records[1].0);
            assert_eq!(pr.materialize(&cas), Err(ChannelError::NotRetained));
            assert_eq!(cas.pinned_bytes(), 0);
        });
        sim.run();
    }

    #[test]
    fn dedup_fetch_detects_stale_recipe() {
        let sim = Simulation::new();
        let (fs, chan, _down) = rig(&sim, 100.0, true);
        let data: Vec<u8> = (0..1 << 20u32).map(|i| (i % 241) as u8).collect();
        let fh = put_file(&fs, "vm.vmss", &data, 0);
        let mut recipe = crate::meta::generate_content_map(&mut fs.lock(), fh, 1 << 18).unwrap();
        // Corrupt one recipe record: the fetched bytes no longer match.
        recipe.records[2].0 = Digest(1, 2);
        sim.spawn("client", move |env| {
            let cas = ContentStore::new(1 << 30);
            let dtel = DedupTel::unregistered();
            match chan.fetch_recipe_pinned(&env, fh, &rq(Some(&recipe), 1 << 18, &cas, &dtel)) {
                Err(ChannelError::Status(ChanStatus::BadStream)) => {}
                other => panic!("expected BadStream on digest mismatch, got {other:?}"),
            }
            assert_eq!(cas.pinned_bytes(), 0, "pins leaked");
        });
        sim.run();
    }

    #[test]
    fn fetch_missing_file_reports_stale() {
        let sim = Simulation::new();
        let (_fs, chan, _down) = rig(&sim, 100.0, true);
        sim.spawn("client", move |env| {
            let bogus = Handle {
                fileid: 999,
                generation: 9,
            };
            match chan.fetch_chunked(&env, bogus, 0, 1, None) {
                Err(ChannelError::Status(ChanStatus::Stale | ChanStatus::NoEnt)) => {}
                other => panic!("expected stale/noent, got {other:?}"),
            }
        });
        sim.run();
    }

    #[test]
    fn compressed_fetch_is_faster_than_uncompressed_on_slow_links() {
        let elapsed = |compress: bool| -> f64 {
            let sim = Simulation::new();
            let (fs, chan, _down) = rig(&sim, 25.0, compress);
            let fh = put_file(&fs, "m.vmss", &[7u8; 100_000], 8 << 20);
            sim.spawn("client", move |env| {
                chan.fetch_chunked(&env, fh, 0, 1, None).unwrap();
            });
            sim.run().as_secs_f64()
        };
        let with = elapsed(true);
        let without = elapsed(false);
        assert!(
            with < without / 3.0,
            "compressed {with}s should beat raw {without}s"
        );
    }
}
