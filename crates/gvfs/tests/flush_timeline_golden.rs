//! Golden timeline pinning the proxy's write-back half from outside.
//!
//! A recording tap sits in front of the origin (NFS server, MOUNT and
//! file-channel server behind one dispatcher) and logs every call that
//! reaches it as `virtual-ns program proc fh offset len stable_how`. One
//! fixed session drives every way dirty data leaves the proxy:
//!
//! 1. dirty blocks of two files through a four-frame block cache, so some
//!    leave by eviction and the rest by the flush pass (WRITEs + one
//!    COMMIT per file);
//! 2. a dirty *full* file-cache file (a reference install converted by an
//!    extending write) and a dirty *reference* file with two broken
//!    chunks (ranges upload), flushed alongside the blocks;
//! 3. an unchanged re-flush: the same bytes rewritten everywhere, so the
//!    block acked-skip and the file synced-digest skip both fire;
//! 4. a WAN outage over the next flush, which fails the block WRITE and
//!    the reference file's ranges upload into the whole-file retry round.
//!
//! The session runs at `flush_window` 1 and 8; the log, each
//! [`FlushReport`] and the final synced digests are compared with
//! `tests/golden/flush_timeline.txt`, recorded from the code as it stood
//! *before* eviction, the flush pass and the retry rounds were folded
//! onto one block sender and one file uploader. That change had to
//! reproduce the recording byte for byte. The fixture was then
//! regenerated exactly once, for the fix that sends eviction write-backs
//! `FILE_SYNC`: the eviction rows' `stable` column changed, and — because
//! the server pays a synchronous disk write before it answers them —
//! every later instant moved by that disk time; no row appeared,
//! vanished or changed place. Regenerate (only when the write-back
//! behaviour intentionally changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p gvfs --test flush_timeline_golden
//! ```

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::channel::chanproc;
use gvfs::digest::digest;
use gvfs::{
    BlockCache, BlockCacheConfig, ChannelClient, CodecModel, CowTuning, FileCache,
    FileChannelServer, FileChannelSpec, FileKey, Middleware, Proxy, ProxyConfig, TransferTuning,
    CHANNEL_PROGRAM,
};
use nfs3::args::{ReadArgs, WriteArgs};
use nfs3::proto::{proc3, StableHow};
use nfs3::{MountServer, Nfs3Client, Nfs3Server, ServerConfig, NFS_PROGRAM};
use oncrpc::transport::RpcHandler;
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RetryPolicy, RpcClient, RpcMessage, WireSpec};
use parking_lot::Mutex;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};
use xdr::{Decode, Decoder};

const FIXTURE: &str = include_str!("golden/flush_timeline.txt");
const BS: u64 = 32 * 1024;
/// File-channel chunk (and content-map record) size.
const CHUNK: u32 = 8 * 1024;
/// Chunks in each golden `.vmss`.
const CHUNKS: u64 = 6;

type Log = Arc<Mutex<Vec<String>>>;

/// Records every call that reaches `inner`, stamped with its arrival time.
struct Tap {
    inner: Arc<dyn RpcHandler>,
    log: Log,
}

/// `fh offset len stable_how` of a call's arguments, as far as its
/// procedure has them.
fn describe(prog: u32, proc: u32, args: &[u8]) -> String {
    let fh = |h: Handle| format!("fh={}.{}", h.fileid, h.generation);
    if prog == NFS_PROGRAM && proc == proc3::WRITE {
        let w = WriteArgs::from_bytes(args).unwrap();
        return format!(
            "{} off={} len={} stable={:?}",
            fh(w.file.0),
            w.offset,
            w.data.len(),
            w.stable
        );
    }
    if prog == NFS_PROGRAM && proc == proc3::READ {
        let r: ReadArgs = xdr::from_bytes(args).unwrap();
        return format!("{} off={} len={}", fh(r.file.0), r.offset, r.count);
    }
    let mut dec = Decoder::new(args);
    let Ok(h) = nfs3::Fh3::decode(&mut dec) else {
        return String::new();
    };
    let rest = match (prog, proc) {
        // offset, total, compressed, payload
        (CHANNEL_PROGRAM, chanproc::UPLOAD_CHUNK) => {
            let (off, total) = (dec.get_u64().unwrap(), dec.get_u64().unwrap());
            let _ = dec.get_bool().unwrap();
            let wire = dec.get_opaque_var().unwrap().len();
            format!(" off={off} total={total} len={wire}")
        }
        (CHANNEL_PROGRAM, chanproc::FETCH_CHUNK | chanproc::FETCH_BLOBS) => {
            format!(
                " off={} len={}",
                dec.get_u64().unwrap(),
                dec.get_u32().unwrap()
            )
        }
        _ => String::new(),
    };
    format!("{}{rest}", fh(h.0))
}

impl RpcHandler for Tap {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        if let Ok(RpcMessage::Call { header, args }) = RpcMessage::decode_shared(request) {
            self.log.lock().push(format!(
                "{} prog={} proc={} {}",
                env.now().as_nanos(),
                header.prog,
                header.proc,
                describe(header.prog, header.proc, &args)
            ));
        }
        self.inner.handle(env, request)
    }
}

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

/// Deterministic `len` bytes for (`what`, `version`); never all-zero.
fn payload(what: u64, version: u64, len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| ((i * 31 + what * 17 + version * 101) % 249) as u8 + 1)
        .collect()
}

/// Seed a golden `.vmss` of [`CHUNKS`] chunks and publish its meta
/// (content map + channel spec), so the proxy's first READ installs it
/// through the file channel.
fn seed_vmss(fs: &Arc<Mutex<Fs>>, name: &str, what: u64) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let fh = f.create(root, name, 0o644, 0).unwrap();
    for c in 0..CHUNKS {
        let data = payload(what + c, 0, CHUNK as usize);
        f.write(fh, c * CHUNK as u64, &data, 0).unwrap();
    }
    let spec = FileChannelSpec {
        compress: true,
        writeback: true,
    };
    Middleware::generate_meta_chunked(&mut f, "", name, BS as u32, CHUNK, false, Some(spec))
        .unwrap();
    fh
}

fn render_session(flush_window: usize) -> String {
    let sim = Simulation::new();
    let h = sim.handle();
    let log: Log = Arc::new(Mutex::new(Vec::new()));

    let server_disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, server_disk, ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
    let chan_disk = Disk::new(&h, DiskModel::server_array());
    let chan_server = FileChannelServer::new(fs.clone(), chan_disk, CodecModel::default(), true);
    let origin = Dispatcher::new()
        .register(server)
        .register(mount)
        .register(chan_server)
        .into_handler();
    let tap = Arc::new(Tap {
        inner: origin,
        log: log.clone(),
    });

    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let ep = oncrpc::endpoint(
        &h,
        wan_up.clone(),
        wan_down.clone(),
        WireSpec::ssh_tunnel(50e6),
    );
    ep.listener.serve("origin", tap, 8);

    // A short retransmission budget, so calls into the outage fail (and
    // reach the flush's own retry rounds) instead of riding it out.
    let policy = RetryPolicy {
        first_timeout: SimDuration::from_millis(300),
        max_timeout: SimDuration::from_millis(300),
        max_attempts: 2,
        jitter_frac: 0.0,
    };
    let cred = OpaqueAuth::sys(&AuthSys::new("timeline", 1, 1));
    let upstream = RpcClient::new(ep.channel.clone(), cred.clone()).with_policy(policy);
    let chan = ChannelClient::new(
        RpcClient::new(ep.channel, cred.clone()).with_policy(policy),
        CodecModel::default(),
    );
    // Hand-wired, not `gvfs::Tier`: the file cache and the block cache sit
    // on a disk each here, a tier keeps both on one, and the pinned
    // instants at `flush_window` 8 move by a disk access when uploads and
    // block write-backs queue on the same arm.
    let fc = Arc::new(FileCache::new(
        Disk::new(&h, DiskModel::scsi_2004()),
        256 << 20,
    ));
    // Four frames (two sets of two): ten dirty blocks cannot all stay.
    let bc = Arc::new(BlockCache::new(
        &h,
        Disk::new(&h, DiskModel::scsi_2004()),
        BlockCacheConfig {
            banks: 1,
            sets_per_bank: 2,
            assoc: 2,
            block_size: BS as u32,
        },
    ));
    let proxy = Proxy::new(
        ProxyConfig {
            name: "timeline-proxy".into(),
            transfer: TransferTuning {
                chunk_bytes: CHUNK,
                flush_window,
                read_ahead: 0,
                ..TransferTuning::default()
            },
            cow: CowTuning::on(),
            ..ProxyConfig::default()
        },
        upstream,
    )
    .with_block_cache(bc.clone())
    .with_file_channel(fc.clone(), chan)
    .into_handler();

    let lo_up = Link::new(&h, "lo-up", 1e9, SimDuration::from_micros(20));
    let lo_down = Link::new(&h, "lo-down", 1e9, SimDuration::from_micros(20));
    let lo = oncrpc::endpoint(&h, lo_up, lo_down, WireSpec::plain());
    lo.listener.serve("proxy", proxy.clone(), 8);
    let nfs = Nfs3Client::new(RpcClient::new(lo.channel, cred.clone()));

    let img = |name: &str, blocks: u64| {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, name, 0o644, 0).unwrap();
        f.setattr(fh, Some(blocks * BS), None, 0).unwrap();
        fh
    };
    let (a, b) = (img("a.img", 6), img("b.img", 4));
    let full = seed_vmss(&fs, "full.vmss", 100);
    let refd = seed_vmss(&fs, "ref.vmss", 200);

    // The outage the fourth flush runs into.
    for (link, seed) in [(&wan_up, 31), (&wan_down, 32)] {
        link.install_faults(LinkFaultPlan::new(seed).outage(secs(60), secs(62)));
    }

    let reports: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let reports2 = reports.clone();
    let proxy2 = proxy.clone();
    sim.spawn("guest", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        for name in ["a.img", "b.img", "full.vmss", "ref.vmss"] {
            nfs.lookup(&env, root, name).unwrap();
        }
        let write = |env: &Env, fh: Handle, off: u64, data: Vec<u8>| {
            nfs.write(env, fh, off, data, StableHow::Unstable).unwrap();
        };
        let flush = |env: &Env, label: &str| {
            let report = proxy2.flush(env, &cred);
            reports2.lock().push(format!("{label} {report:?}"));
        };
        // Install both images (reference installs: CoW is on).
        for fh in [full, refd] {
            let r = nfs.read(&env, fh, 0, CHUNK).unwrap();
            assert_eq!(r.data.len(), CHUNK as usize);
        }
        let dirty_everything = |env: &Env, version: u64| {
            for blk in 0..6 {
                write(env, a, blk * BS, payload(blk, version, BS as usize));
            }
            nfs.commit(env, a).unwrap();
            for blk in 0..4 {
                write(env, b, blk * BS, payload(50 + blk, version, BS as usize));
            }
            nfs.commit(env, b).unwrap();
            // `a` again, so both files have blocks resident at the flush
            // and both have lost some to eviction.
            write(env, a, 0, payload(0, version, BS as usize));
            // Past the recipe's end: converts `full` to a full entry.
            write(
                env,
                full,
                CHUNKS * CHUNK as u64 - 100,
                payload(300, version, 600),
            );
            // Two broken chunks of `ref` (1 and 4).
            write(env, refd, CHUNK as u64 + 10, payload(301, version, 500));
            write(env, refd, 4 * CHUNK as u64, payload(302, version, 2000));
        };
        dirty_everything(&env, 1);
        flush(&env, "flush-1");
        // The same bytes again: nothing upstream differs.
        dirty_everything(&env, 1);
        flush(&env, "flush-2-unchanged");
        // New content for one block and one chunk, flushed into the outage.
        let now = env.now();
        env.sleep(secs(60).saturating_since(now));
        write(&env, a, 5 * BS, payload(5, 2, BS as usize));
        write(&env, refd, 2 * CHUNK as u64, payload(303, 2, 700));
        flush(&env, "flush-3-outage");
        flush(&env, "flush-4-quiet");
    });
    sim.run();

    let stats = proxy.stats();
    assert!(
        bc.stats().dirty_evictions > 0,
        "the session must evict dirty blocks"
    );
    assert!(
        stats.dedup_acked_skips >= 3,
        "block acked-skip and both file synced-digest skips must fire: {stats:?}"
    );
    assert!(
        stats.flush_retry_rounds >= 1,
        "the outage must force a retry"
    );

    let mut out = format!("# flush_window={flush_window}\n");
    out.push_str(&log.lock().join("\n"));
    out.push('\n');
    out.push_str(&reports.lock().join("\n"));
    out.push('\n');
    for (name, fh) in [("full", full), ("ref", refd)] {
        let key = FileKey {
            fileid: fh.fileid,
            generation: fh.generation,
        };
        let synced = fc.synced_digest(key).map(|d| d.to_hex());
        out.push_str(&format!("synced {name} {synced:?}\n"));
    }
    // What the origin ends up holding, per file.
    let mut f = fs.lock();
    for (name, fh) in [("a", a), ("b", b), ("full", full), ("ref", refd)] {
        let (bytes, _) = f.read(fh, 0, 1 << 20, 0).unwrap();
        out.push_str(&format!(
            "origin {name} len={} {}\n",
            bytes.len(),
            digest(&bytes).to_hex()
        ));
    }
    out
}

#[test]
fn flush_timeline_is_byte_identical() {
    let rendered: String = [1usize, 8].map(render_session).concat();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/flush_timeline.txt"
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

/// The fixture shows every exit: eviction and flush WRITEs, COMMITs, and
/// channel uploads — so the suite cannot shrink silently.
#[test]
fn fixture_covers_every_exit() {
    let nfs = |proc: u32| format!(" prog={NFS_PROGRAM} proc={proc} ");
    let has = |needle: &str| FIXTURE.lines().any(|l| l.contains(needle));
    assert!(has(&nfs(proc3::COMMIT)));
    assert!(has("stable=Unstable"), "no flush WRITE in the fixture");
    assert!(has("stable=FileSync"), "no eviction WRITE in the fixture");
    let upload = format!(" prog={CHANNEL_PROGRAM} proc={} ", chanproc::UPLOAD_CHUNK);
    assert!(has(&upload), "no channel upload in the fixture");
}
