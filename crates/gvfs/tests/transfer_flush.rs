//! The write-back flush against an independent reference: the WRITE set
//! the server logs must be exactly what the client wrote, each block cut
//! at its file's size, the [`FlushReport`] must count exactly those
//! blocks and bytes, and the server's files must end up holding exactly
//! those bytes. The windowed flush may only change *when* WRITEs happen,
//! never *what* is written.
//!
//! Two things must go right on the way. The server restarts between the
//! first file's WRITEs and its COMMIT, so the verifiers disagree and
//! every block of that file has to be requeued and sent again. And the
//! second file is truncated, through the proxy, after a write that left
//! its last cached frame longer than the file: the flush must cut that
//! block at the file's size instead of growing the file back.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

use gvfs::{BlockCacheConfig, CacheVolume, DedupTuning, FlushReport, Listen, ProxyConfig, Tier};
use nfs3::proto::{proc3, StableHow};
use nfs3::{args::WriteArgs, MountServer, Nfs3Client, Nfs3Server, ServerConfig, NFS_PROGRAM};
use oncrpc::{transport::RpcHandler, AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use simnet::Shared;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel};

const BS: u64 = 32 * 1024;
/// Blocks of `a.img`, all written whole.
const A_BLOCKS: u64 = 20;
/// `b.img`'s size after its truncation: twelve whole blocks and 1000
/// bytes of a thirteenth.
const B_SIZE: u64 = 12 * BS + 1000;

/// One WRITE observed at the server: (fileid, generation, offset, data).
type WriteRec = (u64, u64, u64, Vec<u8>);

/// The client's bytes for block `b` of file `fi`.
fn block(fi: u64, b: u64) -> Vec<u8> {
    (0..BS)
        .map(|i| ((i + b * 7 + fi * 131) % 251) as u8)
        .collect()
}

#[test]
fn flush_writes_exactly_what_the_client_wrote() {
    let sim = Simulation::new();
    let h = sim.handle();

    let server_disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, server_disk, ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
    let inner = Dispatcher::new()
        .register(server.clone())
        .register(mount)
        .into_handler();
    let log: Shared<BTreeSet<WriteRec>> = Shared::default();
    let write_calls = Rc::new(Cell::new(0u64));
    let (log2, calls2, restarted) = (log.clone(), write_calls.clone(), Cell::new(false));
    let recording: Rc<dyn RpcHandler> = Rc::new(move |env: &Env, req: &[u8]| {
        if let Ok(oncrpc::RpcMessage::Call { header, args }) = xdr::from_bytes(req) {
            if header.prog == NFS_PROGRAM && header.proc == proc3::WRITE {
                let w = xdr::from_bytes::<WriteArgs>(&args).unwrap();
                let fh = w.file.0;
                let rec = (fh.fileid, fh.generation, w.offset, w.data.to_vec());
                log2.lock().insert(rec);
                calls2.set(calls2.get() + 1);
            }
            // The first COMMIT finds a rebooted server: the WRITEs before
            // it are lost and the verifier has rotated.
            if header.prog == NFS_PROGRAM && header.proc == proc3::COMMIT && !restarted.get() {
                restarted.set(true);
                server.restart(env.now().as_nanos());
            }
        }
        inner.handle(env, &req.into()).to_vec()
    });

    let up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let ep = oncrpc::endpoint(&h, up, down, WireSpec::ssh_tunnel(50e6));
    ep.listener.serve("nfsd", recording, 8);

    let cred = OpaqueAuth::sys(&AuthSys::new("flush", 1, 1));
    let cfg = ProxyConfig {
        name: "flush-proxy".into(),
        meta_handling: false,
        // The dedup'd flush may skip blocks; this reference counts every
        // block as sent.
        dedup: DedupTuning::off(),
        ..ProxyConfig::default()
    };
    let geometry = BlockCacheConfig::with_capacity(256 << 20, 64, 16, BS as u32);
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, Some(geometry), None);
    let upstream = RpcClient::new(ep.channel, cred.clone());
    let tier = Tier::start(cfg, &volume, upstream, Listen::loopback(&h));
    let proxy = tier.proxy;

    // `b.img` starts one whole block longer than it ends, with bytes the
    // client never wrote in its last block.
    let fhs = {
        let mut f = fs.lock();
        let root = f.root();
        let a = f.create(root, "a.img", 0o644, 0).unwrap();
        let b = f.create(root, "b.img", 0o644, 0).unwrap();
        f.setattr(a, Some(A_BLOCKS * BS), None, 0).unwrap();
        f.write(b, 0, &vec![0xEE; 13 * BS as usize], 0).unwrap();
        [a, b]
    };

    // The reference: every byte the client writes, by file and offset,
    // each WRITE cut at its file's final size.
    let writes: [Vec<(u64, Vec<u8>)>; 2] = [
        (0..A_BLOCKS).map(|b| (b * BS, block(0, b))).collect(),
        // Block 12 first, while the proxy knows no size for the file: it
        // reads the whole block upstream to patch it, so the frame runs
        // past the truncation below.
        std::iter::once((12 * BS, block(1, 12)[..1000].to_vec()))
            .chain((0..12).map(|b| (b * BS, block(1, b))))
            .collect(),
    ];
    let sizes = [A_BLOCKS * BS, B_SIZE];
    let mut expected: BTreeSet<WriteRec> = BTreeSet::new();
    let mut expected_files = [Vec::new(), Vec::new()];
    for (fi, fh) in fhs.iter().enumerate() {
        let file = &mut expected_files[fi];
        file.resize(sizes[fi] as usize, 0);
        for (off, data) in &writes[fi] {
            let keep = (sizes[fi] - off).min(data.len() as u64) as usize;
            let data = data[..keep].to_vec();
            file[*off as usize..*off as usize + keep].copy_from_slice(&data);
            expected.insert((fh.fileid, fh.generation, *off, data));
        }
    }

    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred.clone()));
    let out: Shared<Option<FlushReport>> = Shared::new(None);
    let out2 = out.clone();
    sim.spawn("client", move |env: Env| {
        // Write-back absorbs every write into the cache.
        for (fh, file_writes) in fhs.iter().zip(writes) {
            for (off, data) in file_writes {
                nfs.write(&env, *fh, off, data, StableHow::Unstable)
                    .unwrap();
            }
            nfs.commit(&env, *fh).unwrap();
        }
        nfs.setattr(&env, fhs[1], Some(B_SIZE), None).unwrap();
        *out2.lock() = Some(proxy.flush(&env, &cred));
    });
    sim.run();

    let report = out.lock().unwrap();
    let seen = log.lock().clone();
    let at = |w: &WriteRec| (w.0, w.1, w.2, w.3.len());
    let extra: Vec<_> = seen.difference(&expected).map(at).collect();
    let missing: Vec<_> = expected.difference(&seen).map(at).collect();
    assert!(
        extra.is_empty() && missing.is_empty(),
        "WRITEs the client never made: {extra:?}; client writes never sent: {missing:?}"
    );
    let block_bytes = expected.iter().map(|w| w.3.len() as u64).sum();
    let want = FlushReport {
        blocks: expected.len() as u64,
        block_bytes,
        ..FlushReport::default()
    };
    assert_eq!(report, want);
    // `a.img` went twice: once before the restart, once after it.
    assert_eq!(write_calls.get(), expected.len() as u64 + A_BLOCKS);
    let mut f = fs.lock();
    for (fh, want) in fhs.iter().zip(expected_files) {
        let got = f.read(*fh, 0, 1 << 20, 0).unwrap().0.to_vec();
        assert_eq!(got.len(), want.len(), "file size");
        assert!(got == want, "file bytes differ");
    }
}
