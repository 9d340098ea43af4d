//! Host cost per layer, measured from outside: each probe calls one
//! layer's public API in a loop, on inputs shaped like the workloads'
//! (32 KiB READ replies, 8 KiB CAS chunks, 1 MiB channel chunks), and
//! reports the median over [`BATCHES`] batches. Probes whose operation
//! needs virtual time run it inside a small simulation, so their cost
//! includes the engine events the operation causes, as it does in situ.
//!
//! Each probe is also recorded as a span, for the trace file.

use std::sync::Arc;

use gvfs::{codec, digest, BlockCache, BlockCacheConfig, ContentStore, Tag};
use gvfs_bench::perfjson::wall_time;
use nfs3::proto::StableHow;
use nfs3::{KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::batch::{decode_batch_reply, encode_batch_reply};
use oncrpc::{
    AuthSys, BatchReplyItem, Dispatcher, OpaqueAuth, RpcClient, RpcMessage, WireSpec, BATCH_OK,
};
use simnet::{Env, JsonValue, Link, SimDuration, SimHandle, Simulation, Telemetry};
use std::hint::black_box;
use std::sync::Mutex;
use vfs::{Disk, DiskModel, FileIo, Fs, SparseBytes};
use xdr::{Bytes, Decoder, Encoder};

use crate::stats::median;

/// Batches per probe; the reported value is their median.
pub const BATCHES: usize = 5;

const BLOCK: usize = 32 * 1024;
const CAS_CHUNK: usize = 8 * 1024;
const MIB: usize = 1 << 20;

/// One probe's interval on the probe clock (seconds since the first
/// probe started), with the work it did.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Metric the probe reports.
    pub name: &'static str,
    /// Layer it exercised.
    pub layer: &'static str,
    /// Start, seconds.
    pub start_s: f64,
    /// End, seconds.
    pub end_s: f64,
    /// Operations performed over all batches, calibration included.
    pub ops: u64,
    /// Bytes those operations processed.
    pub bytes: u64,
}

impl Span {
    /// The span as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("name", self.name.into()),
            ("layer", self.layer.into()),
            ("start_s", JsonValue::Float(self.start_s)),
            ("end_s", JsonValue::Float(self.end_s)),
            ("ops", JsonValue::Uint(self.ops)),
            ("bytes", JsonValue::Uint(self.bytes)),
        ])
    }
}

/// What a probe reports per operation.
#[derive(Clone, Copy)]
enum Unit {
    /// Nanoseconds per operation.
    Ns,
    /// Milliseconds per operation.
    Ms,
    /// Operations per second.
    PerSec,
    /// Megabytes (10^6 bytes) per second, `bytes` per operation.
    MbPerSec(usize),
}

/// Every probe's value and span.
#[derive(Debug, Default)]
pub struct Probes {
    /// `(metric name, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// One span per probe, in running order.
    pub spans: Vec<Span>,
    /// Compressed size of the sparse sample as a share of its size: what
    /// turns channel wire bytes back into bytes the codec worked on.
    pub sparse_ratio: f64,
    budget_s: f64,
    clock_s: f64,
}

impl Probes {
    /// Run one probe. `batch(n)` performs about `n` operations and
    /// returns the wall seconds they took and how many it performed; it
    /// is first called with growing `n` until a batch fills its share of
    /// the budget, then [`BATCHES`] times at that size.
    fn probe(
        &mut self,
        name: &'static str,
        unit: Unit,
        max_ops: u64,
        mut batch: impl FnMut(u64) -> (f64, u64),
    ) {
        let layer = name
            .strip_prefix("probe.")
            .and_then(|rest| rest.rsplit_once('.'))
            .map_or("", |(layer, _)| layer);
        let target = self.budget_s / BATCHES as f64;
        let mut total_ops = 0u64;
        let (per_op, whole) = wall_time(|| {
            let mut n = 1u64;
            loop {
                let (secs, ops) = batch(n);
                total_ops += ops;
                if secs >= target / 2.0 || n >= max_ops {
                    break;
                }
                let grow = if secs > 0.0 { target / secs } else { 8.0 };
                n = ((n as f64 * grow.clamp(1.5, 8.0)).ceil() as u64).min(max_ops);
            }
            let mut samples = Vec::with_capacity(BATCHES);
            for _ in 0..BATCHES {
                let (secs, ops) = batch(n);
                total_ops += ops;
                samples.push(secs / ops.max(1) as f64);
            }
            median(&samples)
        });
        let (value, bytes_per_op) = match unit {
            Unit::Ns => (per_op * 1e9, 0),
            Unit::Ms => (per_op * 1e3, 0),
            Unit::PerSec => (1.0 / per_op, 0),
            Unit::MbPerSec(bytes) => (bytes as f64 / per_op / 1e6, bytes),
        };
        self.values.push((name, value));
        self.spans.push(Span {
            name,
            layer,
            start_s: self.clock_s,
            end_s: self.clock_s + whole,
            ops: total_ops,
            bytes: total_ops * bytes_per_op as u64,
        });
        self.clock_s += whole;
    }

    /// A probe whose operation is a plain function call.
    fn call<T>(&mut self, name: &'static str, unit: Unit, mut op: impl FnMut(u64) -> T) {
        self.probe(name, unit, u64::MAX, |n| {
            let ((), secs) = wall_time(|| {
                for i in 0..n {
                    black_box(op(black_box(i)));
                }
            });
            (secs, n)
        });
    }

    /// A probe whose operations run inside one simulated process. `body`
    /// prepares whatever it needs, then returns the wall seconds of its
    /// `n` operations, measured around the loop alone.
    fn in_sim(
        &mut self,
        name: &'static str,
        max_ops: u64,
        body: impl Fn(&Env, u64) -> f64 + Send + Sync + 'static,
    ) {
        let body = Arc::new(body);
        self.probe(name, Unit::Ns, max_ops, |n| {
            let sim = Simulation::new();
            let secs = Arc::new(Mutex::new(0.0));
            let (body, out) = (body.clone(), secs.clone());
            sim.spawn("probe", move |env: Env| {
                *out.lock().expect("probe result lock") = body(&env, n);
            });
            sim.run();
            let secs = *secs.lock().expect("probe result lock");
            (secs, n)
        });
    }

    /// A probe that times a whole simulation and counts its events.
    fn whole_sim(
        &mut self,
        name: &'static str,
        unit: Unit,
        build: impl Fn(&Simulation, u64) -> u64,
    ) {
        self.probe(name, unit, u64::MAX, |n| {
            let sim = Simulation::new();
            let h = sim.handle();
            let ops = build(&sim, n);
            let (_, secs) = wall_time(|| sim.run());
            // `ops` of 0 means "count the scheduler's events".
            (secs, if ops == 0 { h.events_processed() } else { ops })
        });
    }
}

/// Time `n` calls of `op` from inside a simulated process.
fn timed(n: u64, mut op: impl FnMut(u64)) -> f64 {
    wall_time(|| {
        for i in 0..n {
            op(i);
        }
    })
    .1
}

/// Deterministic filler that no codec can shrink.
fn dense(len: usize) -> Vec<u8> {
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    (0..len)
        .map(|_| {
            s = simnet::splitmix64(s);
            (s >> 56) as u8
        })
        .collect()
}

/// A memory-image-like buffer: about 90% zeros, the rest in 4 KB runs.
fn sparse(len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    let filler = dense(4_000);
    for run in data.chunks_mut(40_000) {
        let n = filler.len().min(run.len());
        run[..n].copy_from_slice(&filler[..n]);
    }
    data
}

fn read_reply(block: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(block.len() + 64);
    enc.put_u32(0);
    enc.put_bool(false);
    enc.put_u32(block.len() as u32);
    enc.put_bool(true);
    enc.put_opaque_var(block);
    enc.into_bytes()
}

/// An NFS server holding `/f` (4 MiB, dense) behind a fast link, and a
/// client stub for it.
fn nfs_rig(h: &SimHandle) -> Nfs3Client {
    let disk = Disk::new(h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(h, disk, ServerConfig::default());
    {
        let mut fs = fs.lock();
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).expect("create probe file");
        fs.write(f, 0, &dense(4 * MIB), 0).expect("fill probe file");
    }
    let mount = MountServer::new(fs, vec!["/".to_string()]);
    let up = Link::new(h, "up", 1e9, SimDuration::from_micros(50));
    let down = Link::new(h, "down", 1e9, SimDuration::from_micros(50));
    let ep = oncrpc::endpoint(h, up, down, WireSpec::plain());
    let handler = Dispatcher::new()
        .register(server)
        .register(mount)
        .into_handler();
    ep.listener.serve("nfsd", handler, 8);
    Nfs3Client::new(RpcClient::new(
        ep.channel,
        OpaqueAuth::sys(&AuthSys::new("probe", 500, 500)),
    ))
}

fn tag(block: u64) -> Tag {
    Tag {
        fileid: 1,
        generation: 1,
        block,
    }
}

fn block_cache(env: &Env) -> BlockCache {
    let h = env.handle();
    BlockCache::new(
        h,
        Disk::new(h, DiskModel::scsi_2004()),
        BlockCacheConfig::with_capacity(8 << 30, 512, 16, BLOCK as u32),
    )
}

/// Run every probe, giving each about `budget_s` seconds.
pub fn run_all(budget_s: f64) -> Probes {
    use Unit::{MbPerSec, Ms, Ns, PerSec};
    let mut p = Probes {
        budget_s,
        ..Probes::default()
    };
    let block = dense(BLOCK);

    // --- xdr, oncrpc: message coding ------------------------------------
    p.call("probe.xdr.encode_read_reply_ns", Ns, |_| read_reply(&block));
    let encoded = read_reply(&block);
    p.call("probe.xdr.decode_read_reply_ns", Ns, |_| {
        let mut dec = Decoder::new(&encoded);
        let head = (dec.get_u32(), dec.get_bool(), dec.get_u32(), dec.get_bool());
        (head, dec.get_opaque_var().map(|d| d.len()))
    });
    let reply = RpcMessage::success(7, Bytes::from_vec(encoded.clone()));
    p.call("probe.oncrpc.msg_encode_ns", Ns, |_| xdr::to_bytes(&reply));
    let wire = Bytes::from_vec(xdr::to_bytes(&reply));
    p.call("probe.oncrpc.msg_decode_shared_ns", Ns, |_| {
        RpcMessage::decode_shared(&wire).map(|m| m.xid())
    });
    let items: Vec<BatchReplyItem> = (0..32)
        .map(|_| BatchReplyItem {
            stat: BATCH_OK,
            result: block[..CAS_CHUNK].to_vec(),
        })
        .collect();
    p.call("probe.oncrpc.batch_encode_ns", Ns, |_| {
        encode_batch_reply(&items)
    });
    let batch_wire = encode_batch_reply(&items);
    p.call("probe.oncrpc.batch_decode_ns", Ns, |_| {
        decode_batch_reply(&batch_wire).map(|v| v.len())
    });

    // --- oncrpc, nfs3: calls through a simulated link ---------------------
    p.whole_sim("probe.oncrpc.null_rtt_ns", Ns, |sim, n| {
        let h = sim.handle();
        let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
        let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
        let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
        ep.listener
            .serve("echo", Dispatcher::new().into_handler(), 1);
        let rpc = RpcClient::new(ep.channel, OpaqueAuth::sys(&AuthSys::new("p", 1, 1)));
        sim.spawn("client", move |env: Env| {
            for _ in 0..n {
                // Unknown program: the server answers PROG_UNAVAIL after
                // a full encode / transfer / dispatch / reply cycle.
                let _ = rpc.call(&env, 42, 1, 0, &[]);
            }
        });
        n
    });
    p.in_sim("probe.nfs3.server_read_ns", u64::MAX, |env, n| {
        let nfs = nfs_rig(env.handle());
        let root = nfs.mount(env, "/").expect("mount");
        let (f, _) = nfs.lookup(env, root, "f").expect("lookup");
        timed(n, |i| {
            let off = (i % 128) * BLOCK as u64;
            black_box(nfs.read(env, f, off, BLOCK as u32).expect("read"));
        })
    });
    p.in_sim("probe.nfs3.server_write_ns", u64::MAX, |env, n| {
        let nfs = nfs_rig(env.handle());
        let root = nfs.mount(env, "/").expect("mount");
        let (f, _) = nfs.lookup(env, root, "f").expect("lookup");
        let data = dense(BLOCK);
        timed(n, |i| {
            let off = (i % 128) * BLOCK as u64;
            nfs.write(env, f, off, data.clone(), StableHow::Unstable)
                .expect("write");
        })
    });
    p.in_sim("probe.nfs3.kernel_cached_read_ns", u64::MAX, |env, n| {
        let nfs = nfs_rig(env.handle());
        let kc = KernelClient::mount(env, nfs, "/", KernelConfig::default()).expect("mount");
        let f = kc.lookup_path(env, "/f").expect("lookup");
        for b in 0..128u64 {
            kc.read(env, f, b * BLOCK as u64, BLOCK as u32)
                .expect("warm");
        }
        timed(n, |i| {
            let off = (i % 128) * BLOCK as u64;
            black_box(kc.read(env, f, off, BLOCK as u32).expect("read"));
        })
    });

    // --- vfs: the sparse byte store under every simulated file ------------
    let mut store = SparseBytes::new();
    p.call("probe.vfs.sparse_write_ns", Ns, |i| {
        store.write_at((i % 2048) * BLOCK as u64, &block)
    });
    p.call("probe.vfs.sparse_read_ns", Ns, |i| {
        store.read_range((i % 2048) * BLOCK as u64, BLOCK)
    });
    store.truncate(1 << 30);
    p.call("probe.vfs.is_zero_range_ns", Ns, |i| {
        store.is_zero_range((512 << 20) + (i % 2048) * BLOCK as u64, BLOCK)
    });
    drop(store);

    // --- gvfs: codec, digest, meta-data ----------------------------------
    for (data, compress, decompress) in [
        (
            sparse(MIB),
            "probe.gvfs.codec.compress_sparse_mb_s",
            "probe.gvfs.codec.decompress_sparse_mb_s",
        ),
        (
            dense(MIB),
            "probe.gvfs.codec.compress_dense_mb_s",
            "probe.gvfs.codec.decompress_dense_mb_s",
        ),
    ] {
        p.call(compress, MbPerSec(MIB), |_| codec::compress(&data));
        let packed = codec::compress(&data);
        if p.sparse_ratio == 0.0 {
            p.sparse_ratio = packed.len() as f64 / MIB as f64;
        }
        p.call(decompress, MbPerSec(MIB), |_| {
            codec::decompress(&packed).map(|d| d.len())
        });
    }
    let image = sparse(MIB);
    p.call(
        "probe.gvfs.digest.chunk_digests_mb_s",
        MbPerSec(MIB),
        |_| digest::chunk_digests(&image, CAS_CHUNK as u32),
    );
    let mut fs = Fs::new(0);
    let root = fs.root();
    let file = fs
        .create(root, "vmss", 0o644, 0)
        .expect("create probe file");
    fs.write(file, 0, &sparse(4 * MIB), 0)
        .expect("fill probe file");
    p.call(
        "probe.gvfs.meta.content_map_mb_s",
        MbPerSec(4 * MIB),
        |_| gvfs::generate_content_map(&mut fs, file, CAS_CHUNK as u32).map(|m| m.records.len()),
    );
    p.call("probe.gvfs.meta.zero_map_mb_s", MbPerSec(4 * MIB), |_| {
        gvfs::generate_zero_map(&fs, file, BLOCK as u32).map(|m| m.zero_count())
    });
    drop(fs);

    // --- gvfs: content store ---------------------------------------------
    // Fresh content on every insert: 64 MiB of distinct chunks at most,
    // in a store that never has to evict.
    p.probe("probe.gvfs.cas.insert_ns", Ns, 8192, |n| {
        let cas = ContentStore::new(1 << 30);
        let mut chunk = dense(CAS_CHUNK);
        let ((), secs) = wall_time(|| {
            for i in 0..n {
                chunk[..8].copy_from_slice(&i.to_le_bytes());
                black_box(cas.insert(&chunk));
            }
        });
        (secs, n)
    });
    let cas = ContentStore::new(1 << 30);
    let mut chunk = dense(CAS_CHUNK);
    let digests: Vec<_> = (0..1024u64)
        .map(|i| {
            chunk[..8].copy_from_slice(&i.to_le_bytes());
            cas.insert(&chunk)
        })
        .collect();
    p.call("probe.gvfs.cas.get_ns", Ns, |i| {
        cas.get(&digests[(i % 1024) as usize]).map(|d| d.len())
    });
    p.call("probe.gvfs.cas.pin_unpin_ns", Ns, |i| {
        let d = &digests[(i % 1024) as usize];
        let pinned = cas.pin(d);
        cas.unpin(d);
        pinned
    });
    drop(cas);

    // --- gvfs: block cache (pays simulated disk time per operation) -------
    // 2 GiB of resident 32 KiB frames at most.
    p.in_sim("probe.gvfs.block_cache.insert_ns", 65_536, |env, n| {
        let cache = block_cache(env);
        let data = dense(BLOCK);
        timed(n, |i| {
            black_box(cache.insert(env, tag(i), data.clone(), false));
        })
    });
    p.in_sim(
        "probe.gvfs.block_cache.lookup_hit_ns",
        u64::MAX,
        |env, n| {
            let cache = block_cache(env);
            let data = dense(BLOCK);
            for b in 0..1024 {
                cache.insert(env, tag(b), data.clone(), false);
            }
            timed(n, |i| {
                black_box(cache.lookup(env, tag(i % 1024)));
            })
        },
    );
    p.in_sim(
        "probe.gvfs.block_cache.lookup_miss_ns",
        u64::MAX,
        |env, n| {
            let cache = block_cache(env);
            timed(n, |i| {
                black_box(cache.lookup(env, tag(i)));
            })
        },
    );

    // --- simnet: engine, link, channel -----------------------------------
    p.whole_sim(
        "probe.simnet.engine.self_wake_events_s",
        PerSec,
        |sim, n| {
            sim.spawn("sleeper", move |env: Env| {
                for _ in 0..n {
                    env.sleep(SimDuration::from_micros(1));
                }
            });
            0
        },
    );
    p.whole_sim("probe.simnet.engine.pingpong_events_s", PerSec, |sim, n| {
        let h = sim.handle();
        let (ping_tx, ping_rx) = simnet::channel::<u64>(&h);
        let (pong_tx, pong_rx) = simnet::channel::<u64>(&h);
        sim.spawn("ping", move |env: Env| {
            for i in 0..n {
                ping_tx.send(i);
                let _ = pong_rx.recv(&env);
            }
        });
        sim.spawn("pong", move |env: Env| {
            while let Ok(i) = ping_rx.recv(&env) {
                pong_tx.send(i);
            }
        });
        0
    });
    p.whole_sim(
        "probe.simnet.engine.churn_1000_events_s",
        PerSec,
        |sim, n| {
            let iters = n.div_ceil(1000);
            for proc_ in 0..1000u64 {
                sim.spawn(format!("churn{proc_}"), move |env: Env| {
                    let mut s = proc_ + 1;
                    for _ in 0..iters {
                        s = simnet::splitmix64(s);
                        env.sleep(SimDuration::from_micros(1 + s % 128));
                        env.yield_now();
                    }
                });
            }
            0
        },
    );
    p.in_sim("probe.simnet.engine.spawn_join_ns", u64::MAX, |env, n| {
        timed(n, |i| env.spawn(format!("child{i}"), |_| {}).join(env))
    });
    p.in_sim("probe.simnet.link.transfer_ns", u64::MAX, |env, n| {
        let link = Link::new(env.handle(), "probe", 1e9, SimDuration::from_micros(50));
        timed(n, |_| link.transfer(env, BLOCK as u64))
    });
    p.whole_sim("probe.simnet.sync.channel_send_recv_ns", Ns, |sim, n| {
        let (tx, rx) = simnet::channel::<u64>(&sim.handle());
        sim.spawn("producer", move |env: Env| {
            for i in 0..n {
                tx.send(i);
                env.yield_now();
            }
        });
        sim.spawn("consumer", move |env: Env| while rx.recv(&env).is_ok() {});
        n
    });

    // --- simnet: telemetry ------------------------------------------------
    let registry = Telemetry::new();
    let counter = registry.counter("probe", "counter");
    p.call("probe.simnet.telemetry.counter_inc_ns", Ns, |_| {
        counter.inc()
    });
    let sketch = registry.sketch("probe", "sketch");
    p.call("probe.simnet.telemetry.sketch_record_ns", Ns, |i| {
        sketch.record_ns(1_000 + i * 977 % 1_000_000_000)
    });
    // As many series as fleet_warm registers: 2,500 counters, 70 gauges,
    // 130 histograms and the clone-latency sketch.
    for i in 0..2500 {
        registry.counter("probe", format!("c{i}")).add(i);
    }
    for i in 0..70 {
        registry.gauge("probe", format!("g{i}")).add(i);
    }
    for i in 0..130 {
        registry
            .histogram("probe", format!("h{i}"))
            .record(SimDuration::from_micros(i));
    }
    p.call("probe.simnet.telemetry.snapshot_ms", Ms, |_| {
        registry.snapshot().counters.len()
    });
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_probe_reports_the_median_batch_in_its_unit_and_a_span() {
        let mut p = Probes {
            budget_s: 0.0,
            ..Probes::default()
        };
        // Pretend every operation takes exactly 2 microseconds.
        p.probe(
            "probe.gvfs.codec.fake_mb_s",
            Unit::MbPerSec(1_000),
            64,
            |n| (n as f64 * 2e-6, n),
        );
        p.probe("probe.xdr.fake_ns", Unit::Ns, 64, |n| (n as f64 * 2e-6, n));
        p.probe("probe.simnet.engine.fake_s", Unit::PerSec, 64, |n| {
            (n as f64 * 2e-6, n)
        });
        let close = |(name, got): (&str, f64), want: f64| {
            assert!(
                (got / want - 1.0).abs() < 1e-9,
                "{name}: {got}, want {want}"
            );
        };
        close(p.values[0], 500.0);
        close(p.values[1], 2_000.0);
        close(p.values[2], 500_000.0);
        // A zero budget stops calibrating at once: 1 + BATCHES batches of 1.
        assert_eq!(p.spans[0].ops, 1 + BATCHES as u64);
        assert_eq!(p.spans[0].bytes, 1_000 * (1 + BATCHES as u64));
        assert_eq!(p.spans[0].layer, "gvfs.codec");
        assert_eq!(p.spans[1].layer, "xdr");
        assert!(p.spans[0].end_s <= p.spans[1].start_s);
    }

    #[test]
    fn calibration_grows_batches_until_one_fills_its_share_but_not_past_the_cap() {
        let mut p = Probes {
            budget_s: 1.0,
            ..Probes::default()
        };
        let mut sizes = Vec::new();
        p.probe("probe.xdr.fake_ns", Unit::Ns, 1_000, |n| {
            sizes.push(n);
            (n as f64 * 1e-9, n)
        });
        assert_eq!(sizes.iter().max(), Some(&1_000));
        assert_eq!(&sizes[sizes.len() - BATCHES..], &[1_000; BATCHES]);
        assert!(sizes.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sparse_filler_is_mostly_zeros_and_dense_filler_is_not() {
        let zeros = |d: &[u8]| d.iter().filter(|b| **b == 0).count() as f64 / d.len() as f64;
        assert!(zeros(&sparse(MIB)) > 0.85);
        assert!(zeros(&dense(MIB)) < 0.02);
    }
}
