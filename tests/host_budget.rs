//! Host-cost gates without a clock: how many payload-sized allocations
//! (16 KiB or more, counted by the allocator in `common`) an operation
//! makes. Every copy of a payload lands in a fresh allocation of at least
//! its size, so the count is the number of copies.
//!
//! - **One NFS block operation** through kernel client ← caching proxy ←
//!   NFS server. A 32 KiB READ or WRITE payload should be copied once per
//!   hop on the sending side and not at all on the receiving side
//!   (DESIGN.md §5.11, "One copy per hop"). A read hands the guest the
//!   cached blocks by reference (`vfs::Payload`), so a read the kernel
//!   buffer answers allocates none. The payloads are resident in the
//!   content pool beforehand, so interning a clean block is a pool hit
//!   and allocates nothing.
//! - **A whole-block write** keeps the block it is given when that is
//!   one whole shared block: the sparse store's chunk is the 32 KiB NFS
//!   block, so copying a file of kernel blocks into a local file makes
//!   no copy, and a kernel-client write over a whole block neither
//!   copies the block it replaces nor zero-fills a new one.
//! - **The middleware's content-map scan.** A chunk read as several
//!   pieces is gathered into one of four buffers the whole scan reuses,
//!   and a hole is digested once, so the count does not grow with the
//!   file.
//! - **A reference READ**: a 32 KiB read of a copy-on-write clone's
//!   chunk, which lives codec-compressed in the proxy's content store.
//!   The store seeks to the range with the entry's record index and
//!   decodes it straight into the one vector the READ reply is encoded
//!   from, so each read makes one payload-sized allocation, however many
//!   records the chunk's stream holds.
//! - **A recipe fetch into a second store.** A `FETCH_BLOBS` reply that
//!   repeats a stream this thread already verified for its digest is
//!   taken by a byte compare: the proxy decodes and copies nothing, and
//!   the second store shares the first one's allocation.
//! - **A block crosses the host once.** A READ reply encoded from one
//!   whole shared block carries it, and the kernel client keeps that
//!   very allocation as it arrives, with no pool lookup: its block is
//!   the origin's chunk, the proxy's frame on a warm hit, the file
//!   cache's chunk on a file-cache hit, and the pool's zero block for a
//!   hole. A reference file's block is assembled once while anyone holds
//!   it, so a second reader allocates only its reply, and neither a
//!   materialized recipe of live blocks nor a reference of live blocks
//!   that grows into a full file allocates a block.
//!
//! The counter is per thread and a simulation runs on the thread that
//! calls its `run`, one process at a time, so between two reads of the
//! counter only the measured operation allocates, whatever the other
//! tests of this binary do meanwhile.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::rc::Rc;

use common::big_allocs;
use gvfs::digest::digest;
use gvfs::{
    BlockCacheConfig, CacheVolume, ChannelClient, ContentMap, ContentStore, DedupTel, DedupTuning,
    FileCache, FileChannelServer, ImageServer, Listen, PinnedRecipe, ProxyConfig, RecipeFetch, Tag,
    Tier,
};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use simnet::{Link, Shared, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, FileIo, Fs, Handle, Payload, Piece, CHUNK_SIZE};

// ---------------------------------------------------------------------------
// One NFS block operation

const BLOCK: usize = 32 * 1024;

/// Block `b` of the test file: dense, and different from every other.
fn block(b: u64) -> Vec<u8> {
    (0..BLOCK as u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(b * 7) % 253) as u8)
        .collect()
}

fn lan(h: &SimHandle, name: &str) -> Link {
    Link::new(h, name, 1e9, SimDuration::from_micros(50))
}

/// A READ the proxy answers from its block cache: the frame is encoded
/// into the reply (1); the kernel client hands the guest the block it
/// interned out of the reply, by reference. Before "one copy per hop":
/// 5; before reads by reference: 2.
const WARM_READ: usize = 1;
/// A READ the proxy forwards: the server encodes its store's chunk into
/// the reply (1) — the store read is by reference, and the proxy adds
/// nothing. Before "one copy per hop": 7; before reads by reference: 3.
const FORWARDED_READ: usize = 1;
/// A READ the kernel buffer answers: its blocks, by reference.
const KERNEL_HIT_READ: usize = 0;
/// A 1 MiB read of blocks the kernel buffer holds, the shape of a
/// resume reading a memory state file: 32 blocks, by reference.
const RESUME_READ: usize = 0;
/// A WRITE the proxy absorbs: the WRITE call (1), the proxy's dirty
/// frame (2); the kernel client keeps the guest's whole block as its
/// dirty block. Before "one copy per hop": 6; before a whole-block write
/// kept its block: 3.
const ABSORBED_WRITE: usize = 2;

#[test]
fn a_block_operation_stays_inside_its_copy_budget() {
    const BLOCKS: u64 = 40;
    const RESUME: u32 = 1 << 20;
    let sim = Simulation::new();
    let h = sim.handle();

    // NFS server holding `/f`.
    let origin = ImageServer::start(
        &h,
        Listen::plain(lan(&h, "up"), lan(&h, "down")),
        768 << 20,
        false,
    );
    {
        let mut fs = origin.fs.lock();
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).unwrap();
        for b in 0..BLOCKS {
            fs.write(f, b * BLOCK as u64, &block(b), 0).unwrap();
        }
    }

    // Write-back caching proxy in front of it.
    let cred = OpaqueAuth::sys(&AuthSys::new("guest", 500, 500));
    let cfg = ProxyConfig {
        name: "proxy".into(),
        meta_handling: false,
        dedup: DedupTuning::off(),
        ..ProxyConfig::default()
    };
    let geometry = BlockCacheConfig::with_capacity(64 << 20, 4, 16, BLOCK as u32);
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, Some(geometry), None);
    let tier = Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin.channel, cred.clone()),
        Listen::plain(lan(&h, "lo-up"), lan(&h, "lo-down")),
    );
    let cache = volume.block_cache.as_ref().unwrap().clone();
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred));

    sim.spawn("guest", move |env| {
        // Every clean payload the run interns is already pooled.
        let _resident: Vec<_> = (0..BLOCKS).map(|b| vfs::share(block(b))).collect();
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        let f = kc.lookup_path(&env, "/f").unwrap();
        let at = |b: u64| b * BLOCK as u64;
        let read = |b: u64| big_allocs(|| kc.read(&env, f, at(b), BLOCK as u32).unwrap());

        // Block 0 takes each path once first, so lazily built state
        // (telemetry cells, queues) is not billed to the measured run.
        read(0);
        kc.invalidate_caches();
        read(0);

        // Block 1 was read ahead beside block 0. The last block is a
        // fresh position no read has prefetched, so its READ is
        // forwarded, and the one block read-ahead speculates after it
        // lies past EOF: no second block lands inside the measurement.
        let fresh = BLOCKS - 1;
        let (data, forwarded) = read(fresh);
        assert_eq!(data, block(fresh));
        kc.invalidate_caches();
        let (data, warm) = read(fresh);
        assert_eq!(data, block(fresh));
        assert_eq!(
            cache.stats().hits,
            2,
            "the second read of a block is a proxy hit"
        );
        let (data, kernel_hit) = read(fresh);
        assert_eq!(data, block(fresh));
        assert_eq!(cache.stats().hits, 2, "the third is a kernel-buffer hit");

        // A resume-shaped read: 1 MiB of blocks the kernel buffer holds.
        let resume = |off: u64| big_allocs(|| kc.read(&env, f, off, RESUME).unwrap());
        let first = 4;
        let (cold, _) = resume(at(first));
        // The read-ahead the cold pass started lands before the
        // measured pass.
        env.sleep(SimDuration::from_secs(1));
        let (data, resumed) = resume(at(first));
        assert_eq!(data, cold);
        let want: Vec<u8> = (first..first + RESUME as u64 / BLOCK as u64)
            .flat_map(block)
            .collect();
        assert_eq!(data, want);

        let write = |b: u64| {
            let payload = Payload::from(block(b + 100));
            big_allocs(|| {
                kc.write(&env, f, at(b), &payload).unwrap();
                kc.close(&env, f).unwrap();
            })
            .1
        };
        write(2);
        let absorbed = write(3);
        assert_eq!(cache.dirty_frames(), 2, "both WRITEs were absorbed");
        cache.validate_accounting();

        assert_eq!(
            (warm, forwarded, absorbed),
            (WARM_READ, FORWARDED_READ, ABSORBED_WRITE),
            "payload-sized allocations per warm READ / forwarded READ / absorbed WRITE"
        );
        assert_eq!(
            (kernel_hit, resumed),
            (KERNEL_HIT_READ, RESUME_READ),
            "payload-sized allocations per kernel-buffer hit READ / 1 MiB cached read"
        );
    });
    sim.run();
}

// ---------------------------------------------------------------------------
// A whole-block write

/// A payload of `n` whole shared blocks, pooled as a kernel client's
/// clean blocks are.
fn whole_blocks(n: u64) -> Payload {
    let mut p = Payload::new();
    for b in 0..n {
        p.push_shared(vfs::share(block(b)), 0..BLOCK);
    }
    p
}

#[test]
fn a_copy_of_whole_shared_blocks_into_a_local_file_allocates_nothing() {
    const BLOCKS: u64 = 16;
    let payload = whole_blocks(BLOCKS);
    let mut fs = Fs::new(0);
    let root = fs.root();
    let h = fs.create(root, "vmss", 0o644, 0).unwrap();
    // The shape of a clone's copy of its memory state: 1 MiB reads of
    // kernel blocks, each written as it came.
    let (_, allocs) = big_allocs(|| fs.write(h, 0, &payload, 0).unwrap());
    assert_eq!(
        allocs, 0,
        "payload-sized allocations of a {BLOCKS}-block write of whole shared blocks"
    );
    let (read, _) = fs.read(h, 0, payload.len(), 0).unwrap();
    assert_eq!(read, payload.to_vec());
}

#[test]
fn a_kernel_client_write_over_a_whole_block_copies_nothing() {
    let sim = Simulation::new();
    let h = sim.handle();
    let origin = ImageServer::start(
        &h,
        Listen::plain(lan(&h, "up"), lan(&h, "down")),
        64 << 20,
        false,
    );
    {
        let mut fs = origin.fs.lock();
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).unwrap();
        fs.write(f, 0, &whole_blocks(4), 0).unwrap();
    }
    let cred = OpaqueAuth::sys(&AuthSys::new("guest", 500, 500));
    let nfs = Nfs3Client::new(RpcClient::new(origin.channel, cred));
    sim.spawn("guest", move |env| {
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        let f = kc.lookup_path(&env, "/f").unwrap();
        // Block 0 clean in the kernel buffer and held by a live read too,
        // as pooled content is by every other file holding it; block 1
        // only at the server.
        let held = kc.read(&env, f, 0, BLOCK as u32).unwrap();
        let write = |b: u64, payload: &Payload| {
            big_allocs(|| kc.write(&env, f, b * BLOCK as u64, payload).unwrap()).1
        };
        let whole = Payload::from(block(100));
        let mut halves = Payload::new();
        halves.append(&whole, 0..BLOCK / 2);
        halves.append(&Payload::from(block(101)), BLOCK / 2..BLOCK);
        let counts = [write(0, &whole), write(1, &whole), write(2, &halves)];
        assert_eq!(
            counts,
            [0, 0, 1],
            "payload-sized allocations of a kernel-client write over a cached block / \
             an uncached block / an uncached block from two half-blocks"
        );
        let want = [
            &block(100)[..],
            &block(100)[..],
            &block(100)[..BLOCK / 2],
            &block(101)[BLOCK / 2..],
        ]
        .concat();
        assert_eq!(kc.read(&env, f, 0, 3 * BLOCK as u32).unwrap(), want);
        assert_eq!(held, block(0));
        kc.close(&env, f).unwrap();
    });
    sim.run();
}

// ---------------------------------------------------------------------------
// The content-map scan

/// Content-map chunks span two store chunks, so every written one is
/// read as two pieces (or a piece and a zero run) and must be gathered.
const MAP_CHUNK: usize = 2 * CHUNK_SIZE;

/// A file of `chunks` map chunks: every third a hole, every fifth
/// written only in its first half, the rest dense.
fn map_file(chunks: usize) -> (Fs, Handle, Vec<u8>) {
    let mut fs = Fs::new(0);
    let root = fs.root();
    let h = fs.create(root, "vmss", 0o644, 0).unwrap();
    let mut bytes = vec![0u8; chunks * MAP_CHUNK];
    for (c, chunk) in bytes.chunks_mut(MAP_CHUNK).enumerate() {
        let written = match (c % 3, c % 5) {
            (0, _) => 0,
            (_, 0) => MAP_CHUNK / 2,
            _ => MAP_CHUNK,
        };
        for (i, b) in chunk[..written].iter_mut().enumerate() {
            *b = (i.wrapping_mul(31).wrapping_add(c * 7) % 251) as u8 | 1;
        }
        if written > 0 {
            fs.write(h, (c * MAP_CHUNK) as u64, &chunk[..written], 0)
                .unwrap();
        }
    }
    fs.setattr(h, Some(bytes.len() as u64), None, 0).unwrap();
    (fs, h, bytes)
}

#[test]
fn a_content_map_gathers_into_four_reused_buffers() {
    let mut counts = Vec::new();
    for chunks in [16, 64] {
        let (mut fs, h, bytes) = map_file(chunks);
        let (map, allocs) =
            big_allocs(|| gvfs::generate_content_map(&mut fs, h, MAP_CHUNK as u32).unwrap());
        let want: Vec<_> = bytes
            .chunks(MAP_CHUNK)
            .map(|c| (digest(c), c.len() as u32))
            .collect();
        assert_eq!(map.records, want, "{chunks} chunks");
        counts.push(allocs);
    }
    assert_eq!(
        counts,
        [4, 4],
        "payload-sized allocations of a 16-chunk and a 64-chunk scan"
    );
}

// ---------------------------------------------------------------------------
// A reference READ

const REF_CHUNK: usize = 1 << 20;
const REF_READ: usize = 32 * 1024;

/// A dense chunk: a single literal record.
fn few_records() -> Vec<u8> {
    (0..REF_CHUNK).map(|i| (i % 251) as u8 | 1).collect()
}

/// A memory-image-like chunk: short literals between short zero and
/// byte runs, a few thousand records.
fn many_records() -> Vec<u8> {
    (0..REF_CHUNK)
        .map(|i| match i % 320 {
            0..=99 => 0,
            100..=199 => 0x5A,
            r => (r * 7 % 251) as u8 | 1,
        })
        .collect()
}

#[test]
fn a_reference_read_decodes_into_its_one_reply_vector() {
    let sim = Simulation::new();
    let h = sim.handle();
    let cache = FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 30);
    sim.spawn("reader", move |env| {
        let cas = Rc::new(ContentStore::new(1 << 30));
        for (file, chunk) in [few_records(), many_records()].into_iter().enumerate() {
            let key = Handle {
                fileid: file as u64 + 1,
                generation: 0,
            };
            let d = cas.insert_pinned(&chunk);
            cache.install_reference(
                &env,
                key,
                cas.clone(),
                REF_CHUNK as u32,
                vec![(d, REF_CHUNK as u32)],
                0,
            );
            for at in (0..REF_CHUNK).step_by(REF_READ) {
                let (read, allocs) = big_allocs(|| {
                    cache
                        .read(&env, key, at as u64, REF_READ as u32)
                        .unwrap()
                        .unwrap()
                });
                assert_eq!(read.0, &chunk[at..at + REF_READ], "file {file} at {at}");
                assert_eq!(
                    allocs, 1,
                    "file {file}: payload-sized allocations of the read at {at}"
                );
            }
        }
    });
    sim.run();
}

// ---------------------------------------------------------------------------
// A recipe fetch into a second store

/// Blobs in the fetched file: dense 32 KiB chunks, one literal record
/// each, so a chunk's stream is larger than the chunk.
const FETCH_BLOBS: u64 = 4;
/// A recipe fetch into a fresh store: per blob, 4 on the way to the
/// proxy (the origin's compressed stream as it grows, and the reply it
/// is encoded into), then the buffer the stream is decoded into to be
/// digested (1) and the stream kept for the store (1).
const FIRST_FETCH: usize = 6 * FETCH_BLOBS as usize;
/// The same fetch into a second store on the same thread: each reply
/// repeats a stream already verified for its digest, so the proxy
/// neither decodes it nor copies it, and shares the first store's
/// allocation. Before a stream was verified once per host: 24, the
/// first fetch's count (a decode buffer and a wire copy per blob).
const SECOND_FETCH: usize = 4 * FETCH_BLOBS as usize;

#[test]
fn a_second_store_fetching_verified_streams_decodes_and_copies_none() {
    let sim = Simulation::new();
    let h = sim.handle();
    let fs = Shared::new(Fs::new(0));
    let f = {
        let mut fs = fs.lock();
        let root = fs.root();
        let f = fs.create(root, "vmss", 0o644, 0).unwrap();
        for b in 0..FETCH_BLOBS {
            fs.write(f, b * BLOCK as u64, &block(b), 0).unwrap();
        }
        f
    };
    let recipe = gvfs::generate_content_map(&mut fs.lock(), f, BLOCK as u32).unwrap();
    let server = FileChannelServer::new(
        fs.clone(),
        Disk::new(&h, DiskModel::server_array()),
        true,
        None,
    );
    let ep = oncrpc::endpoint(
        &h,
        lan(&h, "up"),
        lan(&h, "down"),
        WireSpec::ssh_tunnel(50e6),
    );
    ep.listener
        .serve("chan", Dispatcher::new().register(server).into_handler(), 2);
    let cred = OpaqueAuth::sys(&AuthSys::new("proxy", 1, 1));
    let chan = ChannelClient::new(RpcClient::new(ep.channel, cred));
    sim.spawn("proxy", move |env| {
        let dtel = DedupTel::unregistered();
        let stores = [ContentStore::new(1 << 30), ContentStore::new(1 << 30)];
        let counts: Vec<usize> = stores
            .iter()
            .map(|cas| {
                let rq = RecipeFetch {
                    recipe_hint: Some(&recipe),
                    chunk_bytes: BLOCK as u32,
                    window: 1,
                    batch: 1,
                    cas,
                    dtel: &dtel,
                    tel: None,
                };
                let (pinned, allocs) =
                    big_allocs(|| chan.fetch_recipe_pinned(&env, f, &rq).unwrap());
                let want: Vec<u8> = (0..FETCH_BLOBS).flat_map(block).collect();
                assert_eq!(pinned.materialize(cas).unwrap(), want);
                allocs
            })
            .collect();
        assert_eq!(dtel.blob_fetches.get(), 2 * FETCH_BLOBS);
        for (d, _) in &recipe.records {
            let [a, b] = stores.each_ref().map(|cas| cas.get_packed(d).unwrap().1);
            assert!(Rc::ptr_eq(&a, &b), "both stores hold one stream");
        }
        assert_eq!(
            counts,
            [FIRST_FETCH, SECOND_FETCH],
            "payload-sized allocations of a {FETCH_BLOBS}-blob recipe fetch into a fresh \
             store / into a second store on the same thread"
        );
    });
    sim.run();
}

// ---------------------------------------------------------------------------
// A block crosses the host once

/// The bytes of `p`, which is one piece of bytes.
fn only_piece(p: &Payload) -> &[u8] {
    let pieces: Vec<Piece<'_>> = p.pieces().collect();
    let [Piece::Bytes(b)] = pieces[..] else {
        panic!("not one piece of bytes");
    };
    b
}

/// Whether `p` is one piece, all of the allocation `block` starts.
fn is_block(p: &Payload, block: &[u8]) -> bool {
    let b = only_piece(p);
    b.as_ptr() == block.as_ptr() && b.len() == block.len()
}

#[test]
fn the_kernel_client_holds_the_block_the_proxy_served() {
    let sim = Simulation::new();
    let h = sim.handle();
    let origin = ImageServer::start(
        &h,
        Listen::plain(lan(&h, "up"), lan(&h, "down")),
        64 << 20,
        false,
    );
    // `f`'s blocks are whole allocations outside the pool: a copy of
    // one anywhere on the way would show as another address.
    let (origin_chunks, g) = {
        let mut fs = origin.fs.lock();
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).unwrap();
        for b in 0..2 {
            fs.write(f, b * BLOCK as u64, &Payload::from(block(b)), 0)
                .unwrap();
        }
        let chunks = [0, 1].map(|b| fs.read(f, b * BLOCK as u64, BLOCK, 0).unwrap().0);
        let g = fs.create(root, "g", 0o644, 0).unwrap();
        (chunks, g)
    };
    let cred = OpaqueAuth::sys(&AuthSys::new("guest", 500, 500));
    let cfg = ProxyConfig {
        name: "proxy".into(),
        meta_handling: false,
        dedup: DedupTuning::off(),
        ..ProxyConfig::default()
    };
    let geometry = BlockCacheConfig::with_capacity(16 << 20, 4, 16, BLOCK as u32);
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, Some(geometry), Some(64 << 20));
    let direct = Nfs3Client::new(RpcClient::new(origin.channel.clone(), cred.clone()));
    let tier = Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin.channel, cred.clone()),
        Listen::plain(lan(&h, "lo-up"), lan(&h, "lo-down")),
    );
    let cache = volume.block_cache.clone().unwrap();
    let files = volume.file_cache.clone().unwrap();
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred));
    sim.spawn("guest", move |env| {
        // `g` lives in the proxy's file cache: a pooled block, then a
        // hole.
        let mut contents = Payload::new();
        contents.push_shared(vfs::share(block(7)), 0..BLOCK);
        contents.push_zeros(BLOCK);
        files.install(&env, g, &contents);
        let raw = nfs.clone();
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        let at = |b: u64| b * BLOCK as u64;
        // What a READ through the proxy carries besides its bytes.
        let carried = |h: Handle, b: u64| {
            let res = raw.read(&env, h, at(b), BLOCK as u32).unwrap();
            let block = res
                .data
                .attached()
                .expect("a whole-block reply carries its block");
            block.as_ptr()
        };
        let f = kc.lookup_path(&env, "/f").unwrap();
        // Straight from the origin: the kernel keeps the chunk the reply
        // was encoded from as it arrives, without looking it up in the
        // pool.
        let bare = KernelClient::mount(&env, direct, "/", KernelConfig::default()).unwrap();
        let read = bare.read(&env, f, 0, BLOCK as u32).unwrap();
        assert!(
            is_block(&read, only_piece(&origin_chunks[0])),
            "a READ from the origin: the kernel holds the origin's chunk"
        );
        // A forwarded READ fills the frame with the origin's chunk; the
        // second is a warm hit.
        let forwarded = kc.read(&env, f, at(1), BLOCK as u32).unwrap();
        assert!(
            is_block(&forwarded, only_piece(&origin_chunks[1])),
            "a forwarded READ: the kernel holds the origin's chunk"
        );
        kc.invalidate_caches();
        let warm = kc.read(&env, f, at(1), BLOCK as u32).unwrap();
        assert_eq!(cache.stats().hits, 1, "the second read is a proxy hit");
        let tag = Tag {
            fileid: f.fileid,
            generation: f.generation,
            block: 1,
        };
        let (frame, _) = cache.lookup_range(&env, tag, 0, BLOCK).unwrap();
        assert!(
            is_block(&warm, &frame),
            "a warm hit: the kernel holds the frame"
        );
        assert_eq!(
            carried(f, 1),
            frame.as_ptr(),
            "a warm hit carries the frame"
        );

        let g = kc.lookup_path(&env, "/g").unwrap();
        let cached = kc.read(&env, g, 0, BLOCK as u32).unwrap();
        let (chunk, _) = files.read(&env, g, 0, BLOCK as u32).unwrap().unwrap();
        let chunk = only_piece(&chunk);
        assert!(
            is_block(&cached, chunk),
            "a file-cache hit: the kernel holds the cache's chunk"
        );
        assert_eq!(
            carried(g, 0),
            chunk.as_ptr(),
            "a file-cache hit carries the chunk"
        );
        let zero = vfs::zero_block();
        let hole = kc.read(&env, g, at(1), BLOCK as u32).unwrap();
        assert!(is_block(&hole, &zero), "a hole is the zero block");
        assert_eq!(
            carried(g, 1),
            zero.as_ptr(),
            "a hole carries the zero block"
        );
    });
    sim.run();
}

/// A reference file of one `REF_CHUNK` chunk in a fresh store.
fn reference_file(env: &simnet::Env, cache: &FileCache, key: Handle, chunk: &[u8]) {
    let cas = Rc::new(ContentStore::new(1 << 30));
    let d = cas.insert_pinned(chunk);
    cache.install_reference(
        env,
        key,
        cas,
        REF_CHUNK as u32,
        vec![(d, REF_CHUNK as u32)],
        0,
    );
}

#[test]
fn a_second_reader_of_a_reference_block_allocates_only_its_reply() {
    let sim = Simulation::new();
    let h = sim.handle();
    let cache = FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 30);
    sim.spawn("reader", move |env| {
        let key = Handle {
            fileid: 1,
            generation: 0,
        };
        let chunk = many_records();
        reference_file(&env, &cache, key, &chunk);
        let at = 3 * REF_READ as u64;
        let read = || {
            cache
                .read(&env, key, at, REF_READ as u32)
                .unwrap()
                .unwrap()
                .0
        };
        let reply = |data: &Payload| nfs3::results::encode_read(None, data, false);
        let (first, decoded) = big_allocs(read);
        assert_eq!(decoded, 1, "the first read decodes the block");
        let (wire, allocs) = big_allocs(|| reply(&read()));
        assert_eq!(
            allocs, 1,
            "payload-sized allocations of a second reader's READ, reply included"
        );
        let res = nfs3::results::decode_read(&wire).unwrap();
        assert_eq!(res.data, &chunk[at as usize..at as usize + REF_READ]);
        let carried = res
            .data
            .attached()
            .expect("a whole-block reply carries its block");
        assert!(is_block(&first, carried), "both readers hold one block");
    });
    sim.run();
}

#[test]
fn a_materialized_install_of_live_blocks_allocates_no_block() {
    /// The fleets' recipe grain: four records to a block.
    const RECORD: usize = 8 * 1024;
    const BLOCKS: u64 = 8;
    let sim = Simulation::new();
    let h = sim.handle();
    let cache = FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 30);
    sim.spawn("installer", move |env| {
        let cas = ContentStore::new(1 << 30);
        let bytes: Vec<u8> = (0..BLOCKS).flat_map(block).collect();
        let records: Vec<_> = bytes
            .chunks(RECORD)
            .map(|c| (cas.insert(c), RECORD as u32))
            .collect();
        let pinned = || {
            for (d, _) in &records {
                assert!(cas.pin(d));
            }
            PinnedRecipe {
                recipe: ContentMap {
                    chunk_bytes: RECORD as u32,
                    total: bytes.len() as u64,
                    records: records.clone(),
                },
                wire: 0,
                fresh_bytes: 0,
            }
        };
        let (live, decoded) = big_allocs(|| pinned().materialize(&cas).unwrap());
        assert_eq!(live, bytes);
        assert_eq!(
            decoded, BLOCKS as usize,
            "the first materialize decodes each block"
        );
        let key = Handle {
            fileid: 1,
            generation: 0,
        };
        let (_, allocs) = big_allocs(|| {
            let contents = pinned().materialize(&cas).unwrap();
            cache.install(&env, key, &contents);
        });
        assert_eq!(
            allocs, 0,
            "payload-sized allocations of a {BLOCKS}-block materialized install of live blocks"
        );
        assert_eq!(cas.pinned_bytes(), 0);
        let (read, _) = cache
            .read(&env, key, 0, bytes.len() as u32)
            .unwrap()
            .unwrap();
        assert_eq!(read, bytes);
        let mut whole = Payload::new();
        for (b, piece) in live.pieces().enumerate() {
            let Piece::Bytes(piece) = piece else {
                panic!("block {b} is not bytes");
            };
            let at = b as u64 * BLOCK as u64;
            let (installed, _) = cache.read(&env, key, at, BLOCK as u32).unwrap().unwrap();
            assert!(is_block(&installed, piece), "block {b} by reference");
            whole.append(&installed, 0..BLOCK);
        }
        assert_eq!(whole, bytes);
    });
    sim.run();
}

#[test]
fn a_reference_of_live_blocks_grows_without_allocating_a_block() {
    const BLOCKS: u64 = 8;
    let sim = Simulation::new();
    let h = sim.handle();
    let cache = FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 30);
    sim.spawn("writer", move |env| {
        let cas = Rc::new(ContentStore::new(1 << 30));
        let recipe: Vec<_> = (0..BLOCKS)
            .map(|b| (cas.insert_pinned(&block(b)), BLOCK as u32))
            .collect();
        let key = Handle {
            fileid: 1,
            generation: 0,
        };
        cache.install_reference(&env, key, cas, BLOCK as u32, recipe, 0);
        let size = BLOCKS * BLOCK as u64;
        // Readers hold every block, as a kernel client would.
        let (live, _) = cache.read(&env, key, 0, size as u32).unwrap().unwrap();
        cache.synced_digest(key).unwrap();
        let (grew, allocs) = big_allocs(|| cache.write(&env, key, size, b"tail").unwrap());
        assert!(grew && !cache.is_reference(key));
        assert_eq!(
            allocs, 0,
            "payload-sized allocations of a {BLOCKS}-block reference growing by 4 bytes"
        );
        for (b, piece) in live.pieces().enumerate() {
            let Piece::Bytes(piece) = piece else {
                panic!("block {b} is not bytes");
            };
            let at = b as u64 * BLOCK as u64;
            let (kept, _) = cache.read(&env, key, at, BLOCK as u32).unwrap().unwrap();
            assert!(is_block(&kept, piece), "block {b} by reference");
        }
        let (tail, _) = cache.read(&env, key, size, 4).unwrap().unwrap();
        assert_eq!(tail, b"tail");
    });
    sim.run();
}
