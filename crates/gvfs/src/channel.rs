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
//! Every args and reply shape of the program is encoded and decoded in
//! the wire-codec section below and nowhere else; the origin, the client
//! and the proxies along the path all call it.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use oncrpc::{OpaqueAuth, ProgramError, RpcClient, RpcProgram};
use parking_lot::Mutex;
use simnet::{run_windowed, Env, Resource, TransferTel};
use vfs::{Disk, Fs, Handle};
use xdr::{Decode, Decoder, Encode, Encoder};

use crate::cas::{Blob, ContentStore, DedupTel};
use crate::codec::{self, CodecModel};
use crate::digest::{digest, Digest};
use crate::meta::ContentMap;

/// Cap on recipe records a client will decode from a reply (matches the
/// meta parser's bound: 16 M records ≈ 16 TB at 1 MB chunks).
const MAX_RECIPE_RECORDS: u64 = 1 << 24;

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
    /// per-message cost — covers the whole envelope; shard proxies in a
    /// fleet cloning run coalesce adjacent `FETCH_BLOBS` misses into
    /// this.
    pub const FETCH_BLOBS_BATCH: u32 = 7;
    /// Intra-region anti-entropy between sibling shard proxies: the
    /// caller pushes a bounded delta of blob digests it newly holds and
    /// the reply carries the receiver's own delta (tracked by a
    /// per-sender cursor). Proxy-to-proxy only — the origin has no
    /// digest-keyed reply cache and answers `ProcUnavail`.
    pub const GOSSIP_DIGESTS: u32 = 8;
    /// Peer-to-peer blob fetch between sibling shard proxies. Args are
    /// the `FETCH_BLOBS` wire format; the receiver serves *only* from
    /// its local digest-keyed reply cache (never forwards upstream, so
    /// two shards can never ping-pong a miss) and fails the call on a
    /// local miss. The reply is a `FETCH_BLOBS` reply, so the caller's
    /// digest verification applies unchanged.
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

/// Channel status codes.
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
    fn as_u32(self) -> u32 {
        match self {
            ChanStatus::Ok => 0,
            ChanStatus::NoEnt => 2,
            ChanStatus::Stale => 70,
            ChanStatus::BadStream => 9000,
        }
    }

    fn from_u32(v: u32) -> Option<Self> {
        Some(match v {
            0 => ChanStatus::Ok,
            2 => ChanStatus::NoEnt,
            70 => ChanStatus::Stale,
            9000 => ChanStatus::BadStream,
            _ => return None,
        })
    }

    fn from_fs(e: vfs::FsError) -> ChanStatus {
        match e {
            vfs::FsError::Stale => ChanStatus::Stale,
            _ => ChanStatus::NoEnt,
        }
    }
}

/// Errors surfaced by the client half.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// RPC-level failure.
    Rpc(oncrpc::RpcError),
    /// Channel-level status.
    Status(ChanStatus),
    /// Reply malformed.
    Decode,
    /// A fetched chunk is larger than the whole local CAS, which does
    /// not retain it, so it cannot anchor a reference file.
    NotRetained,
}

impl From<xdr::Error> for ChannelError {
    fn from(_: xdr::Error) -> Self {
        ChannelError::Decode
    }
}

// -- wire codec -------------------------------------------------------------

/// Cap on digests per [`chanproc::GOSSIP_DIGESTS`] message in either
/// direction, enforced by the bounded decoder below (lint:
/// bounded-decode). The proxy's gossip message size must stay at or
/// below this.
pub const MAX_GOSSIP_DIGESTS: usize = 1024;

fn put_digest(enc: &mut Encoder, d: &Digest) {
    enc.put_u64(d.0);
    enc.put_u64(d.1);
}

fn get_digest(dec: &mut Decoder) -> xdr::Result<Digest> {
    Ok(Digest(dec.get_u64()?, dec.get_u64()?))
}

/// Encode a gossip message: sender shard id + digest delta. Used for
/// both the call args and the reply body (the reply's "sender" is the
/// replying shard).
pub fn encode_gossip(sender: u32, digests: &[Digest]) -> Vec<u8> {
    debug_assert!(digests.len() <= MAX_GOSSIP_DIGESTS);
    let mut enc = Encoder::new();
    enc.put_u32(sender);
    enc.put_u32(digests.len() as u32);
    for d in digests {
        put_digest(&mut enc, d);
    }
    enc.into_bytes()
}

/// Decode a gossip message, rejecting counts beyond
/// [`MAX_GOSSIP_DIGESTS`] *before* allocating (a hostile length prefix
/// must not size an allocation — the bounded-decode rule all channel
/// procs follow).
pub fn decode_gossip(bytes: &[u8]) -> Option<(u32, Vec<Digest>)> {
    let mut dec = Decoder::new(bytes);
    let sender = dec.get_u32().ok()?;
    let n = dec.get_u32().ok()? as usize;
    let mut digests: Vec<Digest> = xdr::bounded_alloc(n, MAX_GOSSIP_DIGESTS).ok()?;
    for _ in 0..n {
        digests.push(get_digest(&mut dec).ok()?);
    }
    Some((sender, digests))
}

/// Args that open with the file handle, as every file procedure's do.
fn fh_args(h: Handle, rest: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    nfs3::Fh3(h).encode(&mut enc);
    rest(&mut enc);
    enc.into_bytes()
}

fn get_fh(dec: &mut Decoder) -> xdr::Result<Handle> {
    Ok(nfs3::Fh3::decode(dec)?.0)
}

/// The file a call's args name: every channel procedure that has one
/// leads with its handle.
pub(crate) fn decode_args_file(args: &[u8]) -> Option<Handle> {
    get_fh(&mut Decoder::new(args)).ok()
}

/// `FETCH_CHUNK` args: file, byte offset, byte count.
fn encode_chunk_args(h: Handle, offset: u64, count: u32) -> Vec<u8> {
    fh_args(h, |enc| {
        enc.put_u64(offset);
        enc.put_u32(count);
    })
}

/// Decode `FETCH_CHUNK` args.
pub(crate) fn decode_chunk_args(args: &[u8]) -> Option<(Handle, u64, u32)> {
    let mut dec = Decoder::new(args);
    Some((
        get_fh(&mut dec).ok()?,
        dec.get_u64().ok()?,
        dec.get_u32().ok()?,
    ))
}

/// `FETCH_RECIPE` args: file, chunk size.
fn encode_recipe_args(h: Handle, chunk_bytes: u32) -> Vec<u8> {
    fh_args(h, |enc| enc.put_u32(chunk_bytes))
}

/// Decode `FETCH_RECIPE` args.
pub(crate) fn decode_recipe_args(args: &[u8]) -> Option<(Handle, u32)> {
    let mut dec = Decoder::new(args);
    Some((get_fh(&mut dec).ok()?, dec.get_u32().ok()?))
}

/// `FETCH_BLOBS` / `FETCH_BLOBS_PEER` args: file, byte range, and the
/// expected content digest. The origin serves by range and the client
/// verifies; the digest rides along so proxies can serve and coalesce by
/// content.
fn encode_blob_args(h: Handle, offset: u64, len: u32, want: Digest) -> Vec<u8> {
    fh_args(h, |enc| {
        enc.put_u64(offset);
        enc.put_u32(len);
        put_digest(enc, &want);
    })
}

/// Decode `FETCH_BLOBS` / `FETCH_BLOBS_PEER` args.
pub(crate) fn decode_blob_args(args: &[u8]) -> Option<(Handle, u64, u32, Digest)> {
    let mut dec = Decoder::new(args);
    Some((
        get_fh(&mut dec).ok()?,
        dec.get_u64().ok()?,
        dec.get_u32().ok()?,
        get_digest(&mut dec).ok()?,
    ))
}

/// A reply that is only a status word.
fn status_reply(status: ChanStatus) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(status.as_u32());
    enc.into_bytes()
}

/// Check a reply's leading status word.
fn read_status(dec: &mut Decoder) -> Result<(), ChannelError> {
    match ChanStatus::from_u32(dec.get_u32()?).ok_or(ChannelError::Decode)? {
        ChanStatus::Ok => Ok(()),
        status => Err(ChannelError::Status(status)),
    }
}

/// A payload reply: `Ok | [total] | len | compressed | payload`, where
/// `total` (the file size) is present in `FETCH_CHUNK` replies only and
/// `len` is the payload's uncompressed length.
fn payload_reply(total: Option<u64>, len: u64, compressed: bool, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(ChanStatus::Ok.as_u32());
    if let Some(total) = total {
        enc.put_u64(total);
    }
    enc.put_u64(len);
    enc.put_bool(compressed);
    enc.put_opaque_var(payload);
    enc.into_bytes()
}

/// The `len | compressed | payload` tail of a payload reply, decoded.
struct Payload {
    /// The uncompressed length the reply declares.
    len: u64,
    contents: Vec<u8>,
    /// The compressed stream `contents` was decoded from, if the payload
    /// travelled compressed.
    packed: Option<Vec<u8>>,
    /// Bytes the payload cost on the wire.
    wire: u64,
}

/// Decode a payload reply's tail, decompressing it (charging `codec`).
fn decode_payload(
    env: &Env,
    codec: &CodecModel,
    dec: &mut Decoder,
) -> Result<Payload, ChannelError> {
    let len = dec.get_u64()?;
    let compressed = dec.get_bool()?;
    let payload = dec.get_opaque_var()?;
    let wire = payload.len() as u64;
    let (contents, packed) = if compressed {
        env.sleep(codec.decompress_time(len));
        let contents =
            codec::decompress(&payload).map_err(|_| ChannelError::Status(ChanStatus::BadStream))?;
        (contents, Some(payload))
    } else {
        (payload, None)
    };
    Ok(Payload {
        len,
        contents,
        packed,
        wire,
    })
}

/// Read a blob payload off a reply: decompress, then digest the contents
/// (both charged to `codec`) and verify length and digest against what
/// the recipe promised. Only a payload that passes becomes a [`Blob`] —
/// this is the one place that makes one.
fn read_payload(
    env: &Env,
    codec: &CodecModel,
    dec: &mut Decoder,
    want: Digest,
) -> BlobFetchResult<Vec<u8>> {
    let p = decode_payload(env, codec, dec)?;
    // Verify the content actually matches the recipe (a regenerated
    // server file would silently corrupt the reassembly otherwise).
    env.sleep(codec.digest_time(p.contents.len() as u64));
    if p.contents.len() as u64 != p.len || digest(&p.contents) != want {
        return Err(ChannelError::Status(ChanStatus::BadStream));
    }
    let blob = Blob::verified(want, &p.contents, p.packed);
    Ok((blob, p.contents, p.wire))
}

/// Read a `FETCH_CHUNK` reply: `(file total, chunk contents, wire bytes)`.
fn read_chunk_reply(
    env: &Env,
    codec: &CodecModel,
    res: &[u8],
) -> Result<(u64, Vec<u8>, u64), ChannelError> {
    let mut dec = Decoder::new(res);
    read_status(&mut dec)?;
    let total = dec.get_u64()?;
    let p = decode_payload(env, codec, &mut dec)?;
    if p.contents.len() as u64 != p.len {
        return Err(ChannelError::Decode);
    }
    Ok((total, p.contents, p.wire))
}

/// Read a `FETCH_BLOBS` reply — a single call's, a batch item's or a
/// peer's — verifying the contents against `want`: `(blob, contents,
/// wire bytes)`. Proxies call this before a reply may enter their
/// digest-keyed cache; the decompression and digest CPU it charges is
/// the price of guarding a shared cache against a range-serving origin.
pub(crate) fn read_blob_reply(
    env: &Env,
    codec: &CodecModel,
    res: &[u8],
    want: Digest,
) -> BlobFetchResult<Vec<u8>> {
    let mut dec = Decoder::new(res);
    read_status(&mut dec)?;
    read_payload(env, codec, &mut dec, want)
}

/// The uncompressed chunk length a successful `FETCH_BLOBS` reply
/// declares (for a proxy's bytes-avoided accounting; no verification).
pub(crate) fn blob_reply_len(res: &[u8]) -> Option<u64> {
    let mut dec = Decoder::new(res);
    dec.get_u32().ok()?;
    dec.get_u64().ok()
}

/// `UPLOAD_CHUNK` args: file, byte offset, final file size, and the
/// (optionally compressed) chunk payload.
fn encode_upload_args(
    h: Handle,
    offset: u64,
    total: u64,
    compressed: bool,
    payload: &[u8],
) -> Vec<u8> {
    fh_args(h, |enc| {
        enc.put_u64(offset);
        enc.put_u64(total);
        enc.put_bool(compressed);
        enc.put_opaque_var(payload);
    })
}

/// Decode `UPLOAD_CHUNK` args: `(file, offset, total, compressed, payload)`.
fn decode_upload_args(args: &[u8]) -> Option<(Handle, u64, u64, bool, Vec<u8>)> {
    let mut dec = Decoder::new(args);
    Some((
        get_fh(&mut dec).ok()?,
        dec.get_u64().ok()?,
        dec.get_u64().ok()?,
        dec.get_bool().ok()?,
        dec.get_opaque_var().ok()?,
    ))
}

/// A `FETCH_RECIPE` reply: `Ok | total | chunk_bytes | count | records`.
fn recipe_reply(recipe: &ContentMap) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(ChanStatus::Ok.as_u32());
    enc.put_u64(recipe.total);
    enc.put_u32(recipe.chunk_bytes);
    enc.put_u64(recipe.records.len() as u64);
    for (d, l) in &recipe.records {
        put_digest(&mut enc, d);
        enc.put_u32(*l);
    }
    enc.into_bytes()
}

/// Read a `FETCH_RECIPE` reply.
fn read_recipe_reply(res: &[u8]) -> Result<ContentMap, ChannelError> {
    let mut dec = Decoder::new(res);
    read_status(&mut dec)?;
    let total = dec.get_u64()?;
    let chunk_bytes = dec.get_u32()?;
    let count = dec.get_u64()?;
    if chunk_bytes == 0 || count > MAX_RECIPE_RECORDS {
        return Err(ChannelError::Decode);
    }
    // Growth is bounded by the actual reply length: each record costs
    // 20 reply bytes, so a truncated stream fails before the Vec grows.
    let mut records = Vec::new();
    for _ in 0..count {
        let d = get_digest(&mut dec)?;
        records.push((d, dec.get_u32()?));
    }
    Ok(ContentMap {
        chunk_bytes,
        total,
        records,
    })
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
    fs: Arc<Mutex<Fs>>,
    disk: Disk,
    codec: CodecModel,
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
    /// Create a channel server over the image server's filesystem/disk.
    pub fn new(fs: Arc<Mutex<Fs>>, disk: Disk, codec: CodecModel, compress: bool) -> Arc<Self> {
        Arc::new(FileChannelServer {
            fs,
            disk,
            codec,
            compress,
            cpu: None,
        })
    }

    /// As [`FileChannelServer::new`], with a bounded CPU resource.
    pub fn with_cpu(
        fs: Arc<Mutex<Fs>>,
        disk: Disk,
        codec: CodecModel,
        compress: bool,
        cpu: Resource,
    ) -> Arc<Self> {
        Arc::new(FileChannelServer {
            fs,
            disk,
            codec,
            compress,
            cpu: Some(cpu),
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
            Err(e) => return status_reply(ChanStatus::from_fs(e)),
        };
        let len = contents.len() as u64;
        match charge {
            DiskCharge::Positioned => self.disk.sequential_io(env, len),
            DiskCharge::Continuation => self.disk.stream_io(env, len),
        }
        let payload = if self.compress {
            let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
            env.sleep(self.codec.compress_time(len));
            codec::compress(&contents)
        } else {
            contents
        };
        payload_reply(with_total.then_some(size), len, self.compress, &payload)
    }

    /// Apply one `UPLOAD_CHUNK`: set the file's length to `total`, then
    /// write the chunk at its offset.
    fn apply_upload(&self, env: &Env, args: &[u8]) -> Result<Vec<u8>, ProgramError> {
        let (h, offset, total, compressed, payload) =
            decode_upload_args(args).ok_or(ProgramError::GarbageArgs)?;
        let contents = if compressed {
            match codec::decompress(&payload) {
                Ok(c) => {
                    let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
                    env.sleep(self.codec.decompress_time(c.len() as u64));
                    c
                }
                Err(_) => return Ok(status_reply(ChanStatus::BadStream)),
            }
        } else {
            payload
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
            return Ok(status_reply(ChanStatus::BadStream));
        }
        let status = {
            let mut fs = self.fs.lock();
            let now = env.now().as_nanos();
            match fs
                .setattr(h, Some(total), None, now)
                .and_then(|_| fs.write(h, offset, &contents, now))
            {
                Ok(_) => ChanStatus::Ok,
                Err(e) => ChanStatus::from_fs(e),
            }
        };
        if status == ChanStatus::Ok {
            self.disk.sequential_io(env, contents.len() as u64);
        }
        Ok(status_reply(status))
    }

    /// Compute a file's recipe at `chunk_bytes` granularity: the server
    /// scans and digests the whole file.
    fn serve_recipe(&self, env: &Env, args: &[u8]) -> Result<Vec<u8>, ProgramError> {
        let (h, chunk_bytes) = decode_recipe_args(args).ok_or(ProgramError::GarbageArgs)?;
        if chunk_bytes == 0 {
            return Err(ProgramError::GarbageArgs);
        }
        let recipe = {
            let mut fs = self.fs.lock();
            let total = match fs.size(h) {
                Ok(s) => s,
                Err(e) => return Ok(status_reply(ChanStatus::from_fs(e))),
            };
            let now = env.now().as_nanos();
            let nchunks = total.div_ceil(chunk_bytes as u64);
            // `nchunks` is server-derived, but the client caps the
            // records it will decode at the same bound, so refuse here
            // instead of encoding a reply the peer must reject.
            let mut records = xdr::bounded_alloc(nchunks as usize, MAX_RECIPE_RECORDS as usize)
                .map_err(|_| ProgramError::GarbageArgs)?;
            for c in 0..nchunks {
                let off = c * chunk_bytes as u64;
                let len = ((total - off).min(chunk_bytes as u64)) as usize;
                match fs.read(h, off, len, now) {
                    Ok((data, _)) => records.push((digest(&data), len as u32)),
                    Err(e) => return Ok(status_reply(ChanStatus::from_fs(e))),
                }
            }
            ContentMap {
                chunk_bytes,
                total,
                records,
            }
        };
        // Computing a recipe streams the whole file off the disk and
        // digests it on the server CPUs.
        self.disk.sequential_io(env, recipe.total);
        {
            let _cpu = self.cpu.as_ref().map(|c| c.acquire(env));
            env.sleep(self.codec.digest_time(recipe.total));
        }
        Ok(recipe_reply(&recipe))
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
                decode_blob_args(&item.args).map(|(h, offset, len, _)| {
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
                let (h, offset, count) =
                    decode_chunk_args(args).ok_or(ProgramError::GarbageArgs)?;
                Ok(self.serve_range(env, h, offset, count, DiskCharge::Positioned, true))
            }
            chanproc::UPLOAD_CHUNK => self.apply_upload(env, args),
            chanproc::FETCH_RECIPE => self.serve_recipe(env, args),
            chanproc::FETCH_BLOBS => {
                // The trailing digest is for proxies along the path; the
                // origin serves by range and the client verifies.
                let (h, offset, len, _) =
                    decode_blob_args(args).ok_or(ProgramError::GarbageArgs)?;
                Ok(self.serve_range(env, h, offset, len, DiskCharge::Positioned, false))
            }
            chanproc::FETCH_BLOBS_BATCH => self.serve_envelope(env, cred, args),
            _ => Err(ProgramError::ProcUnavail),
        }
    }
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

/// Result of a materializing recipe fetch ([`ChannelClient::fetch_dedup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupFetch {
    /// The reassembled file contents (byte-identical to what
    /// [`ChannelClient::fetch_chunked`] would have returned).
    pub contents: Vec<u8>,
    /// Compressed bytes that crossed the wire.
    pub wire: u64,
    /// Logical bytes of the chunks actually fetched (the rest came out
    /// of the local CAS or rode a duplicate in-file digest).
    pub fresh_bytes: u64,
}

/// Result of [`ChannelClient::fetch_recipe_pinned`]: every record of
/// `recipe` is CAS-resident and holds one pin per record occurrence.
/// Ownership of those pins passes to the caller (normally straight into
/// [`crate::FileCache::install_reference`]).
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

/// One blob's outcome inside a fetch: the verified chunk in its wire
/// form, what the caller kept of its contents (`T`), and the wire bytes
/// it cost — or that slot's failure.
pub type BlobFetchResult<T> = Result<(Blob, T, u64), ChannelError>;

/// What a fetch keeps of each verified blob's decompressed contents,
/// applied inside the transfer worker the moment the blob is verified:
/// everything ([`std::convert::identity`], to assemble a file) or
/// nothing ([`drop`], when only the CAS entry is wanted — the worker then
/// holds the compressed form alone while the rest of the window lands).
pub type Keep<T> = fn(Vec<u8>) -> T;

/// What a recipe-driven fetch resolves against and how its misses
/// travel; shared by both outcomes ([`ChannelClient::fetch_dedup`]
/// materializes, [`ChannelClient::fetch_recipe_pinned`] pins).
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

/// How one recipe record is satisfied.
enum Slot<L> {
    /// Held locally (whatever the outcome keeps of it).
    Local(L),
    /// First occurrence of a missing digest: fetch group `.0`.
    Fetch(usize),
    /// Later occurrence of a digest already being fetched as group `.0`:
    /// no extra wire bytes.
    Dup(usize),
}

/// Plan each record of `recipe`: held locally (as `local` reports it),
/// or member of a fetch group — one group per distinct missing digest,
/// duplicates within the file ride the first fetch.
fn plan_recipe<L>(
    recipe: &ContentMap,
    mut local: impl FnMut(&Digest, u32) -> Result<Option<L>, ChannelError>,
) -> Result<(Vec<Slot<L>>, Vec<Group>), ChannelError> {
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: BTreeMap<Digest, usize> = BTreeMap::new();
    let mut plan = xdr::bounded_alloc(recipe.records.len(), MAX_RECIPE_RECORDS as usize)?;
    let mut off = 0u64;
    for (d, l) in &recipe.records {
        plan.push(if let Some(&gi) = group_of.get(d) {
            Slot::Dup(gi)
        } else if let Some(held) = local(d, *l)? {
            Slot::Local(held)
        } else {
            group_of.insert(*d, groups.len());
            groups.push((off, *l, *d));
            Slot::Fetch(groups.len() - 1)
        });
        off += *l as u64;
    }
    Ok((plan, groups))
}

/// Count one recipe record satisfied without a blob fetch.
fn recipe_hit(dtel: &DedupTel, len: u32) {
    dtel.recipe_hits.inc();
    dtel.bytes_avoided.add(len as u64);
}

/// Take one pin on `d` if it is resident (`Ok(false)` if not), recording
/// it in `pins` before anything can fail so the caller's unwind sees it.
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
        return Err(ChannelError::Decode);
    }
    recipe_hit(rq.dtel, l);
    Ok(true)
}

/// Client half of the file channel, used by the client-side proxy.
#[derive(Clone)]
pub struct ChannelClient {
    rpc: RpcClient,
    codec: CodecModel,
}

impl ChannelClient {
    /// Bind to an RPC stub whose endpoint serves [`FileChannelServer`].
    pub fn new(rpc: RpcClient, codec: CodecModel) -> Self {
        ChannelClient { rpc, codec }
    }

    /// The CPU-cost model this client charges for codec and digest work.
    /// The proxy copies it so its own dedup bookkeeping (flush-side
    /// digesting, blob verification) prices CPU consistently with the
    /// fetch paths.
    pub fn codec(&self) -> &CodecModel {
        &self.codec
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
        let args = encode_chunk_args(h, offset, count);
        let res = self.call(env, chanproc::FETCH_CHUNK, &args)?;
        read_chunk_reply(env, &self.codec, &res)
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
            let (_, data, w) = slot.ok_or(ChannelError::Decode)??;
            contents.extend_from_slice(&data);
            wire += w;
        }
        if contents.len() as u64 != total {
            return Err(ChannelError::Decode);
        }
        Ok((contents, wire))
    }

    /// Fetch the per-chunk digest recipe of a file from the server. Used
    /// when the middleware meta carries no content map; the server scans
    /// and digests the file (disk + CPU time charged there).
    pub fn fetch_recipe(
        &self,
        env: &Env,
        h: Handle,
        chunk_bytes: u32,
    ) -> Result<ContentMap, ChannelError> {
        let args = encode_recipe_args(h, chunk_bytes);
        read_recipe_reply(&self.call(env, chanproc::FETCH_RECIPE, &args)?)
    }

    /// Fetch one recipe chunk's payload; the expected digest travels in
    /// the request (content-addressed proxy caching) and is verified
    /// against the decompressed bytes here.
    fn fetch_blob<T>(
        &self,
        env: &Env,
        h: Handle,
        (offset, len, want): Group,
        keep: Keep<T>,
    ) -> BlobFetchResult<T> {
        let args = encode_blob_args(h, offset, len, want);
        let res = self.call(env, chanproc::FETCH_BLOBS, &args)?;
        let (blob, contents, wire) = read_blob_reply(env, &self.codec, &res, want)?;
        Ok((blob, keep(contents), wire))
    }

    /// Fetch several recipe chunks in one `FETCH_BLOBS_BATCH` envelope —
    /// one upstream round-trip for the whole slice. Each returned slot
    /// is what the equivalent single `FETCH_BLOBS` call would produce,
    /// verified against its digest (`keep` runs on an item's contents
    /// before the next item is decoded); a per-item server failure
    /// surfaces as that slot's error without poisoning its neighbours.
    pub fn fetch_blobs_batch<T>(
        &self,
        env: &Env,
        h: Handle,
        wants: &[(u64, u32, Digest)],
        keep: Keep<T>,
    ) -> Result<Vec<BlobFetchResult<T>>, ChannelError> {
        let items: Vec<oncrpc::BatchItem> = wants
            .iter()
            .map(|&(offset, len, want)| oncrpc::BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: encode_blob_args(h, offset, len, want),
            })
            .collect();
        let args = oncrpc::batch::encode_batch(&items);
        let res = self.call(env, chanproc::FETCH_BLOBS_BATCH, &args)?;
        let replies = oncrpc::batch::decode_batch_reply(&res)?;
        if replies.len() != wants.len() {
            return Err(ChannelError::Decode);
        }
        Ok(replies
            .iter()
            .zip(wants)
            .map(|(r, &(_, _, want))| {
                if !r.ok() {
                    return Err(ChannelError::Status(ChanStatus::BadStream));
                }
                let (blob, contents, wire) = read_blob_reply(env, &self.codec, &r.result, want)?;
                Ok((blob, keep(contents), wire))
            })
            .collect())
    }

    /// The recipe a fetch runs by: the caller's hint, or the server's
    /// answer to `FETCH_RECIPE`; either way its records must span
    /// exactly the file total.
    fn recipe_for<'a>(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'a>,
    ) -> Result<Cow<'a, ContentMap>, ChannelError> {
        let recipe = match rq.recipe_hint {
            Some(r) => Cow::Borrowed(r),
            None => {
                let cb = if rq.chunk_bytes == 0 {
                    1 << 20
                } else {
                    rq.chunk_bytes
                };
                Cow::Owned(self.fetch_recipe(env, h, cb)?)
            }
        };
        let span: u64 = recipe.records.iter().map(|(_, l)| *l as u64).sum();
        if span != recipe.total {
            return Err(ChannelError::Decode);
        }
        Ok(recipe)
    }

    /// Fetch every group's payload, `rq.window` calls in flight: one
    /// `FETCH_BLOBS` per group, or with `rq.batch > 1` envelopes of
    /// `rq.batch` groups. One slot per group, in order; item-level
    /// failures surface in their slot, an envelope-level failure fails
    /// the whole fetch.
    fn fetch_groups<T: Send + 'static>(
        &self,
        env: &Env,
        h: Handle,
        groups: &[Group],
        rq: &RecipeFetch<'_>,
        keep: Keep<T>,
    ) -> Result<Vec<BlobFetchResult<T>>, ChannelError> {
        let me = self.clone();
        let window = rq.window.max(1);
        let slots: Vec<BlobFetchResult<T>> = if rq.batch > 1 {
            let envelopes: Vec<Vec<Group>> = groups.chunks(rq.batch).map(|c| c.to_vec()).collect();
            let rounds = run_windowed(
                env,
                "chan-dedup",
                window,
                envelopes,
                rq.tel,
                move |env, wants| Some(me.fetch_blobs_batch(env, h, &wants, keep)),
            );
            let mut flat = xdr::bounded_alloc(groups.len(), MAX_RECIPE_RECORDS as usize)?;
            for round in rounds {
                flat.extend(round.ok_or(ChannelError::Decode)??);
            }
            flat
        } else {
            run_windowed(
                env,
                "chan-dedup",
                window,
                groups.to_vec(),
                rq.tel,
                move |env, group| Some(me.fetch_blob(env, h, group, keep)),
            )
            .into_iter()
            .map(|slot| slot.unwrap_or(Err(ChannelError::Decode)))
            .collect()
        };
        if slots.len() != groups.len() {
            return Err(ChannelError::Decode);
        }
        Ok(slots)
    }

    /// Fetch a whole file by recipe: serve every chunk whose digest the
    /// local CAS already holds, fetch only the missing payloads (one per
    /// *distinct* missing digest) and reassemble. `contents`/`wire`
    /// match what [`ChannelClient::fetch_chunked`] would return;
    /// `fresh_bytes` is the logical size of the chunks that actually
    /// crossed the wire (what a dedup-aware cache install must charge to
    /// disk). Any error leaves the caller free to fall back to the plain
    /// chunked transfer.
    pub fn fetch_dedup(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'_>,
    ) -> Result<DedupFetch, ChannelError> {
        let recipe = self.recipe_for(env, h, rq)?;
        let (plan, groups) = plan_recipe(&recipe, |d, l| match rq.cas.get(d) {
            Some(bytes) if bytes.len() != l as usize => Err(ChannelError::Decode),
            held => Ok(held),
        })?;
        for (slot, (_, l)) in plan.iter().zip(&recipe.records) {
            if !matches!(slot, Slot::Fetch(_)) {
                recipe_hit(rq.dtel, *l);
            }
        }
        let mut fetched: Vec<Vec<u8>> =
            xdr::bounded_alloc(groups.len(), MAX_RECIPE_RECORDS as usize)?;
        let mut wire = 0u64;
        let mut fresh_bytes = 0u64;
        for slot in self.fetch_groups(env, h, &groups, rq, std::convert::identity)? {
            let (blob, data, w) = slot?;
            rq.dtel.blob_fetches.inc();
            wire += w;
            fresh_bytes += data.len() as u64;
            rq.cas.insert_blob(blob, false);
            fetched.push(data);
        }
        let mut contents = xdr::bounded_alloc(recipe.total as usize, MAX_RECIPE_BYTES as usize)?;
        for slot in &plan {
            contents.extend_from_slice(match slot {
                Slot::Local(bytes) => bytes,
                Slot::Fetch(gi) | Slot::Dup(gi) => &fetched[*gi],
            });
        }
        if contents.len() as u64 != recipe.total {
            return Err(ChannelError::Decode);
        }
        Ok(DedupFetch {
            contents,
            wire,
            fresh_bytes,
        })
    }

    /// Resolve a whole file's recipe into the local CAS *without*
    /// assembling the contents, taking one pin per record occurrence:
    /// resident chunks are pinned in place, missing ones are fetched
    /// (planned and transported exactly like
    /// [`ChannelClient::fetch_dedup`]) and inserted pre-pinned. On
    /// success the returned [`PinnedRecipe`] carries ownership of every
    /// pin; on any error all pins taken so far are released, so the
    /// caller can simply fall back to a materializing fetch.
    pub fn fetch_recipe_pinned(
        &self,
        env: &Env,
        h: Handle,
        rq: &RecipeFetch<'_>,
    ) -> Result<PinnedRecipe, ChannelError> {
        let recipe = self.recipe_for(env, h, rq)?.into_owned();
        // Pins taken so far, released in bulk if anything goes wrong.
        let mut pins: Vec<Digest> =
            xdr::bounded_alloc(recipe.records.len(), MAX_RECIPE_RECORDS as usize)?;
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
        // First pass: pin what is resident; duplicate occurrences of a
        // missing digest wait for the third pass.
        let (plan, groups) = plan_recipe(recipe, |d, l| {
            Ok(pin_resident(rq, pins, d, l)?.then_some(()))
        })?;
        // Second pass: fetch the misses and insert them pre-pinned.
        let mut wire = 0u64;
        let mut fresh_bytes = 0u64;
        // Nothing here looks at contents, so each blob's are dropped the
        // moment it is verified and the window waits in compressed form.
        for (slot, (_, _, d)) in self
            .fetch_groups(env, h, &groups, rq, drop)?
            .into_iter()
            .zip(&groups)
        {
            let (blob, (), w) = slot?;
            rq.dtel.blob_fetches.inc();
            wire += w;
            fresh_bytes += blob.len() as u64;
            cas.insert_blob(blob, true);
            // An oversized payload is not retained by the CAS and
            // therefore cannot anchor a reference file.
            if !cas.contains(d) {
                return Err(ChannelError::NotRetained);
            }
            pins.push(*d);
        }
        // Third pass: duplicate occurrences each take their own pin —
        // their digest is resident by now (pinned above), so this cannot
        // race an eviction.
        for (slot, (d, l)) in plan.iter().zip(&recipe.records) {
            if matches!(slot, Slot::Dup(_)) && !pin_resident(rq, pins, d, *l)? {
                return Err(ChannelError::Decode);
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
        env.sleep(self.codec.compress_time(data.len() as u64));
        let payload = codec::compress(data);
        let args = encode_upload_args(h, offset, total, true, &payload);
        let res = self.call(env, chanproc::UPLOAD_CHUNK, &args)?;
        read_status(&mut Decoder::new(&res))?;
        Ok(payload.len() as u64)
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
            Ok(wire + slot.ok_or(ChannelError::Decode)??)
        })
    }

    /// Compress and upload a whole file in pipelined chunks (write-back
    /// path), the reverse of [`ChannelClient::fetch_chunked`]: client
    /// compression of chunk `k+1` overlaps the WAN transfer of chunk
    /// `k`. The file is cut by [`chunk_ranges`].
    pub fn upload_chunked(
        &self,
        env: &Env,
        h: Handle,
        contents: &[u8],
        chunk_bytes: u32,
        window: usize,
        tel: Option<&TransferTel>,
    ) -> Result<u64, ChannelError> {
        let chunks = chunk_ranges(contents, chunk_bytes);
        self.upload_ranges(env, h, contents.len() as u64, chunks, window, tel)
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

    type Rig = (Arc<Mutex<Fs>>, ChannelClient, Link);

    fn rig(sim: &Simulation, mbps: f64, compress: bool) -> Rig {
        let h = sim.handle();
        let fs = Arc::new(Mutex::new(Fs::new(0)));
        let disk = Disk::new(&h, DiskModel::server_array());
        let server = FileChannelServer::new(fs.clone(), disk, CodecModel::default(), compress);
        let up = Link::from_mbps(&h, "up", mbps, SimDuration::from_millis(17));
        let down = Link::from_mbps(&h, "down", mbps, SimDuration::from_millis(17));
        let ep = oncrpc::endpoint(&h, up, down.clone(), WireSpec::ssh_tunnel(50e6));
        ep.listener
            .serve("chan", Dispatcher::new().register(server).into_handler(), 2);
        let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("c", 1, 1)));
        (fs, ChannelClient::new(rpc, CodecModel::default()), down)
    }

    /// Create `name` holding `data`, then grow it (sparsely) to `size`.
    fn put_file(fs: &Mutex<Fs>, name: &str, data: &[u8], size: u64) -> Handle {
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
            chan.upload_chunked(&env, fh, &new, 1 << 20, 4, None)
                .unwrap();
            let small: Vec<u8> = (0..100_000u32).map(|i| (i % 13) as u8).collect();
            chan.upload_chunked(&env, redo, &small, 0, 1, None).unwrap();
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
            let cold = chan
                .fetch_dedup(&env, fh, &rq(Some(&recipe), 1 << 20, &cas, &dtel))
                .unwrap();
            let (mono, _) = chan.fetch_chunked(&env, fh, 1 << 20, 4, None).unwrap();
            assert_eq!(cold.contents, mono);
            assert_eq!(cold.contents, data);
            assert_eq!(dtel.blob_fetches.get(), 4, "4 distinct MB chunks");
            assert_eq!(dtel.recipe_hits.get(), 1, "duplicate chunk served locally");
            assert_eq!(dtel.bytes_avoided.get(), 1 << 20);
            assert!(cold.wire > 0);
            assert_eq!(cold.fresh_bytes, 4 << 20, "4 distinct MB chunks fetched");
            let wire_after_first = down.total_bytes();
            // Warm CAS, server's recipe: all local, only the recipe crosses.
            let warm = chan
                .fetch_dedup(&env, fh, &rq(None, 1 << 20, &cas, &dtel))
                .unwrap();
            assert_eq!(warm.contents, data);
            assert_eq!(warm.wire, 0);
            assert_eq!(warm.fresh_bytes, 0);
            assert_eq!(dtel.blob_fetches.get(), 4);
            assert_eq!(dtel.recipe_hits.get(), 6);
            // Only the recipe reply crossed the link the second time.
            assert!(down.total_bytes() - wire_after_first < 4096);
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
            match chan.fetch_dedup(&env, fh, &rq(Some(&recipe), 1 << 18, &cas, &dtel)) {
                Err(ChannelError::Status(ChanStatus::BadStream)) => {}
                other => panic!("expected BadStream on digest mismatch, got {other:?}"),
            }
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
