//! Equivalence: the windowed write-back flush must push exactly the same
//! `(file, offset, bytes)` set upstream as the serial flush, report the
//! same totals, and leave the server file byte-identical — parallelism
//! may only change *when* WRITEs happen, never *what* is written.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeSet;
use std::sync::Arc;

use gvfs::{BlockCacheConfig, DedupTuning, FlushReport, Listen, ProxyConfig, Tier, TransferTuning};
use nfs3::{args::WriteArgs, MountServer, Nfs3Client, Nfs3Server, ServerConfig, NFS_PROGRAM};
use oncrpc::{transport::RpcHandler, AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel};

/// One WRITE observed at the server: (fileid, generation, offset, data).
type WriteRec = (u64, u64, u64, Vec<u8>);
type WriteLog = Arc<Mutex<BTreeSet<WriteRec>>>;

/// Run one dirty-cache flush with the given window and return what the
/// server saw: the WRITE set, the flush report, and the file contents.
fn run_flush(flush_window: usize) -> (BTreeSet<WriteRec>, FlushReport, Vec<u8>) {
    let sim = Simulation::new();
    let h = sim.handle();

    let server_disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, server_disk, ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
    let inner = Dispatcher::new()
        .register(server)
        .register(mount)
        .into_handler();
    let log: WriteLog = Arc::new(Mutex::new(BTreeSet::new()));
    let log2 = log.clone();
    let recording: Arc<dyn RpcHandler> = Arc::new(move |env: &Env, req: &[u8]| {
        if let Ok(oncrpc::RpcMessage::Call { header, args }) = xdr::from_bytes(req) {
            if header.prog == NFS_PROGRAM && header.proc == nfs3::proto::proc3::WRITE {
                if let Ok(w) = WriteArgs::from_bytes(&args) {
                    log2.lock().insert((
                        w.file.0.fileid,
                        w.file.0.generation,
                        w.offset,
                        w.data.to_vec(),
                    ));
                }
            }
        }
        inner.handle(env, &req.into()).to_vec()
    });

    let up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let ep = oncrpc::endpoint(&h, up, down, WireSpec::ssh_tunnel(50e6));
    ep.listener.serve("nfsd", recording, 8);

    let cred = OpaqueAuth::sys(&AuthSys::new("flush", 1, 1));
    let tier = Tier::start(
        ProxyConfig {
            name: "flush-proxy".into(),
            meta_handling: false,
            transfer: TransferTuning {
                flush_window,
                read_ahead: 0,
                ..TransferTuning::default()
            },
            // Exact WRITE/COMMIT interleavings are pinned here.
            dedup: DedupTuning::off(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::with_capacity(
            256 << 20,
            64,
            16,
            32 * 1024,
        )),
        None,
        &Disk::new(&h, DiskModel::scsi_2004()),
        RpcClient::new(ep.channel, cred.clone()),
        Listen::loopback(&h),
    );
    let proxy = tier.proxy;

    // Seed two files on the server so the flush covers several files with
    // several blocks each (deterministic per-file commit ordering).
    let fhs = {
        let mut f = fs.lock();
        let root = f.root();
        let a = f.create(root, "a.img", 0o644, 0).unwrap();
        let b = f.create(root, "b.img", 0o644, 0).unwrap();
        f.setattr(a, Some(20 * 32 * 1024), None, 0).unwrap();
        // b gets a size that clips its last dirty block mid-way.
        f.setattr(b, Some(12 * 32 * 1024 + 1000), None, 0).unwrap();
        [a, b]
    };

    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred.clone()));

    let out: Arc<Mutex<Option<FlushReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let proxy2 = proxy.clone();
    sim.spawn("client", move |env: Env| {
        // Dirty a spread of distinct-content blocks across both files
        // (write-back absorbs them into the cache).
        for (fi, fh) in fhs.iter().enumerate() {
            let blocks: u64 = if fi == 0 { 20 } else { 13 };
            for b in 0..blocks {
                let data: Vec<u8> = (0..32 * 1024u32)
                    .map(|i| ((i as u64 + b * 7 + fi as u64 * 131) % 251) as u8)
                    .collect();
                nfs.write(
                    &env,
                    *fh,
                    b * 32 * 1024,
                    data,
                    nfs3::proto::StableHow::Unstable,
                )
                .unwrap();
            }
            nfs.commit(&env, *fh).unwrap();
        }
        let report = proxy2.flush(&env, &cred);
        *out2.lock() = Some(report);
    });
    sim.run();

    let writes = log.lock().clone();
    let report = out.lock().unwrap();
    let contents = {
        let mut f = fs.lock();
        let (mut data, _) = f.read(fhs[0], 0, 20 * 32 * 1024, 0).unwrap();
        let (more, _) = f.read(fhs[1], 0, 12 * 32 * 1024 + 1000, 0).unwrap();
        data.extend(more);
        data
    };
    (writes, report, contents)
}

#[test]
fn windowed_flush_is_equivalent_to_serial() {
    let (serial_writes, serial_report, serial_contents) = run_flush(1);
    let (win_writes, win_report, win_contents) = run_flush(8);

    // The serial run actually flushed something non-trivial.
    assert_eq!(serial_report.blocks, 33);
    assert_eq!(serial_report.failed_blocks, 0);
    assert!(!serial_writes.is_empty());

    // Same (file, offset, bytes) set, same report, same server bytes.
    assert_eq!(serial_writes, win_writes);
    assert_eq!(serial_report, win_report);
    assert_eq!(serial_contents, win_contents);
}
