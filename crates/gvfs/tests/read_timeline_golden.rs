//! Golden timeline pinning the proxy's read half — and the kernel
//! client's block fan-out — from outside.
//!
//! Two recording taps, one in front of the origin (`o`) and one in front
//! of the proxy (`p`), log every call as `hop virtual-ns proc fh offset
//! count`. One fixed session drives the read paths of a write-back proxy
//! with a 16-frame block cache:
//!
//! 1. a sequential stream through streak runs 1 (speculate one block),
//!    2–3 (wait for evidence) and ≥ 4 (open the read-ahead window), with
//!    prefetched blocks hit on the way;
//! 2. a demand READ that joins an in-flight prefetch which lands, and one
//!    that joins a prefetch which fails to land (a block past EOF) and
//!    then forwards on its own;
//! 3. a second stream that pushes the first one's prefetched, never-read
//!    blocks out of the cache (counted as wasted at the flush);
//! 4. a stream over a file with a zero map, where zero-filtered reads
//!    never reach the cache and candidates are skipped or clipped by the
//!    meta-data;
//! 5. a read-modify-write WRITE (partial write into an absent block of a
//!    file whose size is known) and the flush that sends it upstream;
//! 6. kernel-client reads of 24 missing blocks and write-backs of 6 dirty
//!    ones, at `max_inflight` 1 and 8.
//!
//! The session runs at `read_ahead` 0 and 8; the logs and the
//! `prefetch_issued/hits/wasted` counters are compared with
//! `tests/golden/read_timeline.txt`, recorded from the code as it stood
//! *before* the proxy's three per-block in-flight sets became one flight
//! table, the kernel client's two worker pools became calls of the shared
//! windowed fan-out and the NFS result bodies moved into one codec — all
//! of which had to reproduce the recording line for line. Regenerate
//! (only when the read path's behaviour intentionally changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p gvfs --test read_timeline_golden
//! ```

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::{BlockCacheConfig, DedupTuning, Middleware, ProxyConfig, Tier, TransferTuning};
use nfs3::args::{CommitArgs, ReadArgs, WriteArgs};
use nfs3::proto::{proc3, DirOpArgs3, StableHow};
use nfs3::{
    KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig, NFS_PROGRAM,
};
use oncrpc::transport::RpcHandler;
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RpcClient, RpcMessage, WireSpec};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, FileIo, Fs, Handle};
use xdr::Decode;

const FIXTURE: &str = include_str!("golden/read_timeline.txt");
const BS: u64 = 32 * 1024;

type Log = Arc<Mutex<Vec<String>>>;

/// Records every call that reaches `inner`, stamped with its arrival time.
struct Tap {
    hop: &'static str,
    inner: Arc<dyn RpcHandler>,
    log: Log,
}

/// `fh offset count` of a call's arguments, as far as its procedure has
/// them.
fn describe(prog: u32, proc: u32, args: &[u8]) -> String {
    let fh = |h: Handle| format!("fh={}.{}", h.fileid, h.generation);
    if prog != NFS_PROGRAM {
        return String::new();
    }
    match proc {
        proc3::READ => {
            let r: ReadArgs = xdr::from_bytes(args).unwrap();
            format!("{} off={} len={}", fh(r.file.0), r.offset, r.count)
        }
        proc3::WRITE => {
            let w = WriteArgs::from_bytes(args).unwrap();
            format!(
                "{} off={} len={} stable={:?}",
                fh(w.file.0),
                w.offset,
                w.data.len(),
                w.stable
            )
        }
        proc3::COMMIT => {
            let c: CommitArgs = xdr::from_bytes(args).unwrap();
            fh(c.file.0)
        }
        proc3::LOOKUP => {
            let d: DirOpArgs3 = xdr::from_bytes(args).unwrap();
            format!("{} name={}", fh(d.dir.0), d.name)
        }
        _ => match nfs3::Fh3::decode(&mut xdr::Decoder::new(args)) {
            Ok(h) => fh(h.0),
            Err(_) => String::new(),
        },
    }
}

impl RpcHandler for Tap {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        if let Ok(RpcMessage::Call { header, args }) = RpcMessage::decode_shared(request) {
            self.log.lock().push(format!(
                "{} {} prog={} proc={} {}",
                self.hop,
                env.now().as_nanos(),
                header.prog,
                header.proc,
                describe(header.prog, header.proc, &args)
            ));
        }
        self.inner.handle(env, request)
    }
}

/// Deterministic, never-zero contents for `blocks` blocks plus `tail`
/// bytes of file number `what`.
fn contents(what: u64, blocks: u64, tail: u64) -> Vec<u8> {
    (0..blocks * BS + tail)
        .map(|i| ((i / 7 + i * 13 + what * 29) % 251) as u8 + 1)
        .collect()
}

fn seed(fs: &Arc<Mutex<Fs>>, name: &str, data: &[u8]) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let h = f.create(root, name, 0o644, 0).unwrap();
    f.write(h, 0, data, 0).unwrap();
    h
}

fn render_session(read_ahead: usize) -> String {
    let sim = Simulation::new();
    let h = sim.handle();
    let log: Log = Arc::new(Mutex::new(Vec::new()));

    let server_disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, server_disk, ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
    let origin = Dispatcher::new()
        .register(server)
        .register(mount)
        .into_handler();
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let ep = oncrpc::endpoint(&h, wan_up, wan_down, WireSpec::ssh_tunnel(50e6));
    ep.listener.serve(
        "origin",
        Arc::new(Tap {
            hop: "o",
            inner: origin,
            log: log.clone(),
        }),
        8,
    );

    let cred = OpaqueAuth::sys(&AuthSys::new("timeline", 1, 1));
    let proxy = Tier::build(
        ProxyConfig {
            name: "timeline-proxy".into(),
            transfer: TransferTuning {
                read_ahead,
                ..TransferTuning::default()
            },
            dedup: DedupTuning::off(),
            ..ProxyConfig::default()
        },
        // One fully associative set of 16 frames: plain LRU, so which
        // blocks the second stream pushes out is easy to follow.
        Some(BlockCacheConfig {
            banks: 1,
            sets_per_bank: 1,
            assoc: 16,
            block_size: BS as u32,
        }),
        None,
        &Disk::new(&h, DiskModel::scsi_2004()),
        RpcClient::new(ep.channel, cred.clone()),
    );

    let lo_up = Link::new(&h, "lo-up", 1e9, SimDuration::from_micros(20));
    let lo_down = Link::new(&h, "lo-down", 1e9, SimDuration::from_micros(20));
    let lo = oncrpc::endpoint(&h, lo_up, lo_down, WireSpec::plain());
    lo.listener.serve(
        "proxy",
        Arc::new(Tap {
            hop: "p",
            inner: proxy.clone(),
            log: log.clone(),
        }),
        16,
    );
    let rpc = RpcClient::new(lo.channel, cred.clone());

    // The files of the session.
    let stream = seed(&fs, "stream.img", &contents(1, 40, 0));
    let joined = seed(&fs, "joined.img", &contents(2, 4, 0));
    let one_block = seed(&fs, "one-block.img", &contents(3, 1, 0));
    let evictor = seed(&fs, "evictor.img", &contents(4, 20, 0));
    let rmw = seed(&fs, "rmw.img", &contents(5, 3, 5000));
    let k1 = seed(&fs, "k1.img", &contents(6, 24, 0));
    let k8 = seed(&fs, "k8.img", &contents(7, 24, 0));
    // Memory state with a zero map: blocks 0–5, 8, 12 and 13 live, the
    // rest holes, ending 1000 bytes into block 23.
    let zeros = {
        let mut data = vec![0u8; (23 * BS + 1000) as usize];
        for b in [0u64, 1, 2, 3, 4, 5, 8, 12, 13] {
            let at = (b * BS) as usize;
            data[at..at + BS as usize].copy_from_slice(&contents(8 + b, 1, 0));
        }
        let fh = seed(&fs, "mem.vmss", &data);
        Middleware::generate_meta(&mut fs.lock(), "", "mem.vmss", BS as u32, true, None).unwrap();
        fh
    };

    let proxy2 = proxy.clone();
    let fs2 = fs.clone();
    sim.spawn("guest", move |env: Env| {
        let nfs = Nfs3Client::new(rpc.clone());
        let root = nfs.mount(&env, "/").unwrap();
        for name in [
            "stream.img",
            "joined.img",
            "one-block.img",
            "evictor.img",
            "rmw.img",
            "mem.vmss",
        ] {
            nfs.lookup(&env, root, name).unwrap();
        }
        let check = |fh: Handle, off: u64, data: &[u8]| {
            let (want, _) = fs2.lock().read(fh, off, data.len(), 0).unwrap();
            assert_eq!(data, &want[..], "fh {fh:?} off {off}");
        };
        let read = |env: &Env, fh: Handle, block: u64| {
            let r = nfs.read(env, fh, block * BS, BS as u32).unwrap();
            check(fh, block * BS, &r.data);
            r
        };
        // A second reader that asks for `block` one millisecond after
        // the main one — while the block's prefetch is still in flight.
        let late_reader = |env: &Env, fh: Handle, block: u64| {
            let (nfs, got) = (nfs.clone(), Arc::new(Mutex::new(None)));
            let got2 = got.clone();
            let reader = env.spawn("late-reader", move |env| {
                env.sleep(SimDuration::from_millis(1));
                let r = nfs.read(&env, fh, block * BS, BS as u32).unwrap();
                *got2.lock() = Some(r.data.len());
            });
            (reader, got)
        };

        // 1. Streak runs 1, 2–3, ≥ 4 and prefetched hits.
        for block in 0..7 {
            read(&env, stream, block);
        }
        // 2. Joining a prefetch that lands, then one that does not.
        let (late, got) = late_reader(&env, joined, 1);
        read(&env, joined, 0);
        late.join(&env);
        assert_eq!(*got.lock(), Some(BS as usize));
        let (late, got) = late_reader(&env, one_block, 1);
        read(&env, one_block, 0);
        late.join(&env);
        assert_eq!(*got.lock(), Some(0), "nothing past the end of the file");
        // 3. A second stream evicts the first one's unread prefetches.
        for block in 0..20 {
            read(&env, evictor, block);
        }
        // 4. Zero map: filtered reads, skipped and clipped candidates.
        for block in 0..24 {
            let r = read(&env, zeros, block);
            assert_eq!(r.eof, block == 23);
        }
        // 5. Read-modify-write: the tail read teaches the proxy the size.
        let tail = read(&env, rmw, 3);
        assert!(tail.eof && tail.data.len() == 5000);
        nfs.write(&env, rmw, 100, vec![0xAB; 300], StableHow::Unstable)
            .unwrap();
        let merged = nfs.read(&env, rmw, 0, BS as u32).unwrap().data;
        assert_eq!(&merged[100..400], &[0xAB; 300][..]);
        check(rmw, 400, &merged[400..]);
        let report = proxy2.flush(&env, &cred);
        assert_eq!(report.blocks, 1);

        // 6. The kernel client's block fan-out, serial and windowed.
        for (max_inflight, name, fh) in [(1usize, "k1.img", k1), (8, "k8.img", k8)] {
            let cfg = KernelConfig {
                max_inflight,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, Nfs3Client::new(rpc.clone()), "/", cfg).unwrap();
            let kh = kc.lookup_path(&env, name).unwrap();
            assert_eq!(kh, fh);
            let got = kc.read(&env, kh, 0, (24 * BS) as u32).unwrap();
            check(fh, 0, &got);
            // Dirty six blocks (the first one partially) and close.
            kc.write(&env, kh, 2 * BS + 77, &vec![0xCD; (6 * BS - 77) as usize])
                .unwrap();
            kc.close(&env, kh).unwrap();
        }
        let report = proxy2.flush(&env, &cred);
        assert_eq!(report.blocks, 12);
    });
    let tel = h.telemetry().clone();
    sim.run();

    let snap = tel.snapshot();
    let count = |name: &str| snap.counter("gvfs", &format!("timeline-proxy.{name}"));
    let (issued, hits, wasted) = (
        count("prefetch_issued"),
        count("prefetch_hits"),
        count("prefetch_wasted"),
    );
    if read_ahead == 0 {
        assert_eq!((issued, hits, wasted), (0, 0, 0));
    } else {
        assert!(hits > 0, "no prefetched block was ever hit");
        assert!(wasted > 0, "no prefetched block was evicted unread");
        assert!(issued > hits + wasted, "no prefetch failed to land");
    }
    let mut out = format!("# read_ahead={read_ahead}\n");
    out.push_str(&log.lock().join("\n"));
    out.push_str(&format!(
        "\nprefetch issued={issued} hits={hits} wasted={wasted} zero_filtered={} forwarded={}\n",
        count("zero_filtered"),
        count("forwarded"),
    ));
    out
}

#[test]
fn read_timeline_is_byte_identical() {
    let rendered: String = [0usize, 8].map(render_session).concat();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/read_timeline.txt"
        );
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual: Vec<&str> = rendered.lines().collect();
    for (i, (exp, act)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(exp, act, "line #{i} drifted from the pinned timeline");
    }
    assert_eq!(expected.len(), actual.len(), "timeline length drifted");
}
