//! Criterion microbenchmarks for the hot data paths: the XDR codec, the
//! RPC call encoder, the zero-aware compressor, the set-associative block cache's index math,
//! the sparse byte store, the content pool behind it, and an end-to-end
//! RPC round trip and kernel-client read miss on the simulated
//! transport. These guard the *wall-clock* cost of running the figures,
//! not virtual-time results.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use gvfs::{codec, BlockCache, BlockCacheConfig, Tag};
use nfs3::args::WriteArgs;
use nfs3::proto::StableHow;
use nfs3::results::{decode_read, encode_read};
use nfs3::{Fh3, KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::msg::{encode_call, CallHeader};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, ReplyBody, RpcClient, RpcMessage, WireSpec};
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, FileIo, SparseBytes, CHUNK_SIZE};
use xdr::{Decoder, Encode, Encoder};

fn bench_xdr(c: &mut Criterion) {
    let mut g = c.benchmark_group("xdr");
    let block = vec![0xA5u8; 32 * 1024];
    g.throughput(Throughput::Bytes(block.len() as u64));
    g.bench_function("encode_32k_read_reply", |b| {
        b.iter(|| {
            let mut enc = Encoder::with_capacity(block.len() + 64);
            enc.put_u32(0);
            enc.put_bool(false);
            enc.put_u32(block.len() as u32);
            enc.put_bool(true);
            enc.put_opaque_var(&block);
            enc.into_bytes()
        })
    });
    let encoded = {
        let mut enc = Encoder::new();
        enc.put_u32(0);
        enc.put_bool(false);
        enc.put_u32(block.len() as u32);
        enc.put_bool(true);
        enc.put_opaque_var(&block);
        enc.into_bytes()
    };
    g.bench_function("decode_32k_read_reply", |b| {
        b.iter(|| {
            let mut dec = Decoder::new(&encoded);
            let _ = dec.get_u32().unwrap();
            let _ = dec.get_bool().unwrap();
            let _ = dec.get_u32().unwrap();
            let _ = dec.get_bool().unwrap();
            dec.get_opaque_var().unwrap()
        })
    });
    g.finish();
}

fn bench_oncrpc(c: &mut Criterion) {
    // What `RpcClient` does to every call before it reaches the link:
    // here a 32 KB WRITE's arguments behind an AUTH_SYS credential.
    let mut g = c.benchmark_group("oncrpc");
    let args = vec![0xA5u8; 32 * 1024 + 48];
    let header = CallHeader {
        xid: 7,
        prog: 100_003,
        vers: 3,
        proc: 7,
        cred: OpaqueAuth::sys(&AuthSys::new("b", 1, 1)),
        verf: OpaqueAuth::none(),
    };
    g.throughput(Throughput::Bytes(args.len() as u64));
    g.bench_function("encode_call_32k", |b| {
        b.iter(|| {
            // As `RpcClient` does: a header per call (a credential
            // clone), into a buffer sized for header and arguments.
            let header = header.clone();
            let mut enc = Encoder::with_capacity(40 + header.cred.body.len() + args.len());
            encode_call(&mut enc, &header, &args);
            enc.into_bytes()
        })
    });
    g.finish();
}

fn bench_nfs3_hop(c: &mut Criterion) {
    // One 32 KB payload across one hop, sender and receiver: everything
    // that touches its bytes between a cache frame on one side and a
    // cache frame on the other (DESIGN.md §5.11, "One copy per hop").
    const BLOCK: usize = 32 * 1024;
    let mut g = c.benchmark_group("nfs3");
    g.throughput(Throughput::Bytes(BLOCK as u64));
    let block: Vec<u8> = (0..BLOCK).map(|i| (i / 5) as u8).collect();
    // The frame a proxy serves from; the receiver's pool already holds
    // its content, as it does for most of a guest disk.
    let frame = vfs::share(block.clone());
    g.bench_function("read_reply_32k_hop", |b| {
        b.iter(|| {
            let wire = RpcMessage::success(7, encode_read(None, &frame, false)).into_wire();
            let reply = RpcMessage::decode_shared(&wire).unwrap();
            let RpcMessage::Reply {
                body: ReplyBody::Accepted { results, .. },
                ..
            } = reply
            else {
                unreachable!("a successful reply");
            };
            vfs::share_slice(&decode_read(&results).unwrap().data)
        })
    });
    let header = CallHeader {
        xid: 7,
        prog: 100_003,
        vers: 3,
        proc: 7,
        cred: OpaqueAuth::sys(&AuthSys::new("b", 1, 1)),
        verf: OpaqueAuth::none(),
    };
    let file = Fh3(vfs::Handle {
        fileid: 9,
        generation: 1,
    });
    g.bench_function("write_args_32k_hop", |b| {
        b.iter(|| {
            let args = WriteArgs {
                file,
                offset: 1 << 20,
                count: BLOCK as u32,
                stable: StableHow::Unstable,
                data: &block,
            };
            let header = header.clone();
            let room = 40 + header.cred.body.len() + WriteArgs::HEAD_LEN + BLOCK;
            let mut enc = Encoder::with_capacity(room);
            encode_call(&mut enc, &header, &[]);
            args.encode(&mut enc);
            let wire = enc.into_shared();
            let RpcMessage::Call { args, .. } = RpcMessage::decode_shared(&wire).unwrap() else {
                unreachable!("a call");
            };
            // Absorbed: the receiver's dirty frame.
            std::sync::Arc::new(WriteArgs::from_bytes(&args).unwrap().data.to_vec())
        })
    });
    g.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    // A memory-image-like megabyte: 90% zeros.
    let mut data = vec![0u8; 1 << 20];
    for i in 0..26 {
        let off = i * 40_000;
        for j in 0..4_000 {
            data[off + j] = ((i * 31 + j) % 251) as u8;
        }
    }
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("compress_sparse_1m", |b| b.iter(|| codec::compress(&data)));
    let compressed = codec::compress(&data);
    g.bench_function("decompress_sparse_1m", |b| {
        b.iter(|| codec::decompress(&compressed).unwrap())
    });
    g.finish();
}

/// Payloads per timed sample of the content-pool benchmarks: one 64 KB
/// `share` is a few microseconds, too short to time alone, and 1 MiB
/// stays cache-resident, as a chunk is in situ (it was just copied out
/// of a write buffer or decoded from a READ reply).
const BATCH: usize = 16;

/// `BATCH` 64 KB payloads, pairwise different iff `distinct`.
fn payloads(distinct: bool) -> Vec<Vec<u8>> {
    (0..BATCH as u64)
        .map(|i| {
            let mut v = vec![0xA5u8; CHUNK_SIZE];
            v[..8].copy_from_slice(&(i * u64::from(distinct)).to_le_bytes());
            v
        })
        .collect()
}

fn bench_shared(c: &mut Criterion) {
    // The pool's hash is private; `share` is how it is measured. A hit
    // is hash + full compare, a miss is hash + pooling (and the drop of
    // the batch, which is what makes the next sample miss again).
    let mut g = c.benchmark_group("shared");
    g.throughput(Throughput::Bytes((BATCH * CHUNK_SIZE) as u64));
    for (name, distinct) in [("share_hit_64k", false), ("share_miss_64k", true)] {
        // Every share of the hit batch hits, the first included.
        let _resident = (!distinct).then(|| payloads(false).pop().map(vfs::share));
        g.bench_function(name, |b| {
            b.iter_batched(
                || payloads(distinct),
                |batch| batch.into_iter().map(vfs::share).collect::<Vec<_>>(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_sparse(c: &mut Criterion) {
    let mut g = c.benchmark_group("sparse");
    g.bench_function("write_read_sparse_far_offset", |b| {
        b.iter_batched(
            SparseBytes::new,
            |mut s| {
                s.write_at(1 << 30, &[1u8; 65536]);
                s.truncate(2 << 30);
                s.read_range((1 << 30) - 100, 66000)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("is_zero_range_512m_hole", |b| {
        let mut s = SparseBytes::new();
        s.truncate(1 << 30);
        s.write_at(512 << 20, &[1]);
        b.iter(|| s.is_zero_range(0, 512 << 20))
    });
    // Whole-chunk writes go through the content pool: the same chunk
    // written BATCH times is held once, distinct chunks BATCH times.
    g.throughput(Throughput::Bytes((BATCH * CHUNK_SIZE) as u64));
    for (name, distinct) in [
        ("write_whole_chunk_repeated", false),
        ("write_whole_chunk_distinct", true),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || payloads(distinct),
                |batch| {
                    let mut s = SparseBytes::new();
                    for (i, chunk) in batch.iter().enumerate() {
                        s.write_at((i * CHUNK_SIZE) as u64, chunk);
                    }
                    s
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_block_cache(c: &mut Criterion) {
    // Real virtual-time cache ops executed inside a tiny simulation.
    let mut g = c.benchmark_group("block_cache");
    g.bench_function("insert_lookup_1000", |b| {
        b.iter(|| {
            let sim = Simulation::new();
            let h = sim.handle();
            let cache = Arc::new(BlockCache::new(
                &h,
                Disk::new(&h, DiskModel::scsi_2004()),
                BlockCacheConfig::with_capacity(64 << 20, 16, 8, 32 * 1024),
            ));
            let c2 = cache.clone();
            sim.spawn("b", move |env: Env| {
                for i in 0..1000u64 {
                    let tag = Tag {
                        fileid: 1,
                        generation: 1,
                        block: i,
                    };
                    c2.insert(&env, tag, vec![0u8; 1024], false);
                }
                for i in 0..1000u64 {
                    let tag = Tag {
                        fileid: 1,
                        generation: 1,
                        block: i,
                    };
                    let _ = c2.lookup(&env, tag);
                }
            });
            sim.run()
        })
    });
    g.finish();
}

fn bench_rpc_roundtrip(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated_rpc");
    g.bench_function("null_call_roundtrip_x100", |b| {
        b.iter(|| {
            let sim = Simulation::new();
            let h = sim.handle();
            let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
            let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
            let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
            ep.listener
                .serve("echo", Dispatcher::new().into_handler(), 1);
            let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("b", 1, 1)));
            sim.spawn("client", move |env: Env| {
                for _ in 0..100 {
                    // Unknown program: server answers PROG_UNAVAIL — a
                    // full encode/transfer/dispatch/reply cycle.
                    let _ = rpc.call(&env, 42, 1, 0, &[]);
                }
            });
            sim.run()
        })
    });
    g.finish();
}

fn bench_kernel(c: &mut Criterion) {
    // A READ miss entering the kernel buffer cache as a clean,
    // content-shared block: 128 cold 32 KB reads over a fast link.
    const BLOCK: usize = 32 * 1024;
    const BLOCKS: usize = 128;
    let mut g = c.benchmark_group("kernel");
    g.throughput(Throughput::Bytes((BLOCKS * BLOCK) as u64));
    g.bench_function("insert_clean_block_32k", |b| {
        b.iter_batched(
            || {
                let sim = Simulation::new();
                let h = sim.handle();
                let disk = Disk::new(&h, DiskModel::server_array());
                let (fs, server) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
                {
                    let mut fs = fs.lock();
                    let root = fs.root();
                    let f = fs.create(root, "f", 0o644, 0).unwrap();
                    let data: Vec<u8> = (0..BLOCKS * BLOCK).map(|i| (i / 7) as u8).collect();
                    fs.write(f, 0, &data, 0).unwrap();
                }
                let mount = MountServer::new(fs, vec!["/".to_string()]);
                let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
                let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
                let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
                let handler = Dispatcher::new()
                    .register(server)
                    .register(mount)
                    .into_handler();
                ep.listener.serve("nfsd", handler, 8);
                let nfs = Nfs3Client::new(RpcClient::new(
                    ep.channel,
                    OpaqueAuth::sys(&AuthSys::new("b", 1, 1)),
                ));
                sim.spawn("client", move |env: Env| {
                    let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
                    let f = kc.lookup_path(&env, "/f").unwrap();
                    for blk in 0..BLOCKS {
                        kc.read(&env, f, (blk * BLOCK) as u64, BLOCK as u32)
                            .unwrap();
                    }
                });
                sim
            },
            |sim| sim.run(),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_xdr, bench_oncrpc, bench_nfs3_hop, bench_codec, bench_shared, bench_sparse, bench_block_cache,
        bench_rpc_roundtrip, bench_kernel
}
criterion_main!(benches);
