//! End-to-end NFSv3 tests: kernel client ↔ server over simulated links.

use std::rc::Rc;

use nfs3::{KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use proptest::prelude::*;
use simnet::{Env, Link, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, FileIo, FileType, Payload};

/// Wire up a server exporting a fresh Fs and return a connected kernel
/// client factory plus the server handle.
fn rig(sim: &Simulation, latency: SimDuration, mbps: f64) -> (Rc<Nfs3Server>, Nfs3Client) {
    let h: SimHandle = sim.handle();
    let disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
    let mount = MountServer::new(fs, vec!["/".to_string()]);
    let up = Link::from_mbps(&h, "up", mbps, latency);
    let down = Link::from_mbps(&h, "down", mbps, latency);
    let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
    let handler = Dispatcher::new()
        .register(server.clone())
        .register(mount)
        .into_handler();
    ep.listener.serve("nfsd", handler, 8);
    let rpc = RpcClient::new(
        ep.channel,
        OpaqueAuth::sys(&AuthSys::new("client", 500, 500)),
    );
    (server, Nfs3Client::new(rpc))
}

fn fast(sim: &Simulation) -> (Rc<Nfs3Server>, Nfs3Client) {
    rig(sim, SimDuration::from_micros(100), 1000.0)
}

#[test]
fn mount_create_write_read_round_trip() {
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let dir = nfs.mkdir(&env, root, "images").unwrap();
        let file = nfs.create(&env, dir, "vm.vmss").unwrap();
        let payload: Vec<u8> = (0..=255u8).cycle().take(100_000).collect();
        // Write in protocol-sized chunks.
        for (i, chunk) in payload.chunks(32 * 1024).enumerate() {
            nfs.write(
                &env,
                file,
                (i * 32 * 1024) as u64,
                chunk,
                nfs3::proto::StableHow::Unstable,
            )
            .unwrap();
        }
        nfs.commit(&env, file).unwrap();
        // Read back through LOOKUP.
        let (file2, attr) = nfs.lookup(&env, dir, "vm.vmss").unwrap();
        assert_eq!(file2, file);
        assert_eq!(attr.unwrap().size, 100_000);
        let mut got = Vec::new();
        let mut off = 0u64;
        loop {
            let r = nfs.read(&env, file, off, 32 * 1024).unwrap();
            off += r.data.len() as u64;
            got.extend_from_slice(&r.data);
            if r.eof {
                break;
            }
        }
        assert_eq!(got, payload);
    });
    sim.run();
}

#[test]
fn stale_handles_and_missing_names_error_properly() {
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let f = nfs.create(&env, root, "x").unwrap();
        nfs.remove(&env, root, "x").unwrap();
        match nfs.getattr(&env, f) {
            Err(nfs3::NfsError::Status(nfs3::Status::Stale)) => {}
            other => panic!("expected stale, got {other:?}"),
        }
        match nfs.lookup(&env, root, "nope") {
            Err(nfs3::NfsError::Status(nfs3::Status::NoEnt)) => {}
            other => panic!("expected noent, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn mount_of_unexported_path_is_denied() {
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        assert!(nfs.mount(&env, "/secret").is_err());
    });
    sim.run();
}

#[test]
fn gvfs_credentials_are_rejected_by_kernel_server() {
    // A kernel NFS server does not understand middleware credentials;
    // the GVFS server-side proxy must map them to AUTH_SYS first.
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let gvfs_cred = OpaqueAuth::gvfs(&oncrpc::AuthGvfs {
            session_id: 1,
            grid_user: "alice".into(),
            expires_at: u64::MAX,
        });
        let bad = Nfs3Client::new(nfs.rpc().with_cred(gvfs_cred));
        match bad.getattr(&env, root) {
            Err(nfs3::NfsError::Rpc(oncrpc::RpcError::Denied(_))) => {}
            other => panic!("expected auth denial, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn kernel_client_reads_hit_buffer_cache_on_reread() {
    let sim = Simulation::new();
    let (_server, nfs) = rig(&sim, SimDuration::from_millis(17), 25.0); // WAN
    sim.spawn("client", move |env: Env| {
        // Server-side setup (pre-populate a 4 MB file instantly).
        let root = nfs.mount(&env, "/").unwrap();
        let file = nfs.create(&env, root, "data").unwrap();
        let kc = KernelClient::mount(&env, nfs.clone(), "/", KernelConfig::default()).unwrap();
        // Write through the kernel client, then close (flushes).
        let data: Vec<u8> = (0..4u32 * 1024 * 1024).map(|i| (i % 251) as u8).collect();
        kc.write(&env, file, 0, &Payload::from(&data[..])).unwrap();
        kc.close(&env, file).unwrap();

        let t0 = env.now();
        let got = kc.read(&env, file, 0, 4 * 1024 * 1024).unwrap();
        let warm = env.now() - t0;
        assert_eq!(got, data);
        // All blocks still cached from the write: no READ RPCs.
        assert_eq!(kc.stats().read_rpcs, 0);
        assert!(warm < SimDuration::from_millis(100), "warm read {warm}");

        // Cold: invalidate, read again — now RPCs and WAN time.
        kc.invalidate_caches();
        let t1 = env.now();
        let got2 = kc.read(&env, file, 0, 4 * 1024 * 1024).unwrap();
        let cold = env.now() - t1;
        assert_eq!(got2, data);
        assert_eq!(kc.stats().read_rpcs, 128); // 4 MB / 32 KB
        assert!(cold > warm * 10, "cold {cold} vs warm {warm}");
    });
    sim.run();
}

#[test]
fn kernel_client_write_staging_flushes_on_close() {
    let sim = Simulation::new();
    let (server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        let h = kc.create_path(&env, "out.log").unwrap();
        // Small writes stage in memory: no WRITE RPCs yet.
        for i in 0..16u64 {
            kc.write(&env, h, i * 1000, &Payload::from(&[0xAB; 1000]))
                .unwrap();
        }
        assert_eq!(kc.stats().write_rpcs, 0);
        kc.close(&env, h).unwrap();
        let st = kc.stats();
        assert!(st.write_rpcs > 0, "close must flush dirty blocks");
        // The data is now on the server.
        let attr = server.fs().lock().getattr(h).unwrap();
        assert_eq!(attr.size, 16_000);
    });
    sim.run();
}

#[test]
fn kernel_client_partial_block_write_preserves_neighbors() {
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        let h = kc.create_path(&env, "f").unwrap();
        kc.write(&env, h, 0, &Payload::from(vec![1u8; 64 * 1024]))
            .unwrap();
        kc.close(&env, h).unwrap();
        kc.invalidate_caches();
        // Partial overwrite in the middle of block 0 (read-modify-write).
        kc.write(&env, h, 100, &Payload::from(b"XYZ")).unwrap();
        kc.close(&env, h).unwrap();
        kc.invalidate_caches();
        let data = kc.read(&env, h, 0, 64 * 1024).unwrap().to_vec();
        assert_eq!(&data[..100], &vec![1u8; 100][..]);
        assert_eq!(&data[100..103], b"XYZ");
        assert_eq!(&data[103..], &vec![1u8; 64 * 1024 - 103][..]);
    });
    sim.run();
}

#[test]
fn kernel_client_namespace_operations() {
    let sim = Simulation::new();
    let (_server, nfs) = fast(&sim);
    sim.spawn("client", move |env: Env| {
        let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
        kc.mkdir_path(&env, "vm").unwrap();
        kc.create_path(&env, "vm/a.vmdk").unwrap();
        kc.symlink_path(&env, "vm/link.vmdk", "/exports/golden.vmdk")
            .unwrap();
        let mut names = kc.readdir_path(&env, "vm").unwrap();
        names.sort();
        assert_eq!(names, vec!["a.vmdk", "link.vmdk"]);
        let lh = kc.lookup_path(&env, "vm/link.vmdk").unwrap();
        let attr = kc.getattr(&env, lh).unwrap();
        assert_eq!(attr.ftype, FileType::Symlink);
        assert_eq!(kc.readlink(&env, lh).unwrap(), "/exports/golden.vmdk");
        kc.remove_path(&env, "vm/a.vmdk").unwrap();
        assert!(kc.lookup_path(&env, "vm/a.vmdk").is_err());
    });
    sim.run();
}

#[test]
fn wan_latency_dominates_small_reads() {
    // A single small cold read over a 17 ms link must cost at least one
    // RTT; over a 0.1 ms LAN it must not.
    let run = |latency_ms: u64| -> f64 {
        let sim = Simulation::new();
        let (_server, nfs) = rig(&sim, SimDuration::from_millis(latency_ms), 100.0);
        let out = Rc::new(std::cell::Cell::new(0u64));
        let out2 = out.clone();
        sim.spawn("client", move |env: Env| {
            let root = nfs.mount(&env, "/").unwrap();
            let f = nfs.create(&env, root, "x").unwrap();
            nfs.write(&env, f, 0, vec![9u8; 100], nfs3::proto::StableHow::FileSync)
                .unwrap();
            let kc = KernelClient::mount(&env, nfs, "/", KernelConfig::default()).unwrap();
            let t0 = env.now();
            kc.read(&env, f, 0, 100).unwrap();
            out2.set((env.now() - t0).as_nanos());
        });
        sim.run();
        out.get() as f64 / 1e6
    };
    let wan_ms = run(17);
    let lan_ms = run(0);
    assert!(wan_ms >= 34.0, "WAN read took {wan_ms} ms");
    assert!(lan_ms < 5.0, "LAN read took {lan_ms} ms");
}

proptest! {
    /// `KernelClient::read` against dense `Vec<u8>` models of two files:
    /// a 6-block buffer cache under two 20-block files keeps evicting, so
    /// every read assembles from a random mix of cached blocks (left by
    /// earlier reads and writes), fetched blocks and blocks evicted a
    /// moment ago, over unaligned ranges that start and end anywhere —
    /// mid-block, across the end of the file, past it.
    ///
    /// Writes are as unaligned as the reads and span up to six blocks,
    /// all the cache holds, so a write's own inserts evict blocks it has
    /// yet to reach — its partially covered edges, cached or just
    /// fetched for read-modify-write — and dirty blocks of earlier
    /// writes, which stay staged until a read's fetch or a later write
    /// pushes them out or an invalidation flushes the files first. Each
    /// op picks its file, so the dirty blocks a read or write pushes out
    /// are as often the *other* file's, and must reach the server through
    /// that file's handle.
    #[test]
    fn kernel_client_reads_match_a_dense_model(
        len in 1usize..20_000,
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..8, 0usize..21_000, 1usize..5_000, any::<u8>(), 0usize..2),
            1..60,
        ),
    ) {
        const BS: u32 = 1024;
        let sim = Simulation::new();
        let (server, nfs) = fast(&sim);
        let mul = seed | 1;
        let fill = |salt: u64| -> Vec<u8> {
            (0..len as u64).map(|i| ((i ^ salt).wrapping_mul(mul) >> 7) as u8).collect()
        };
        let mut models = [fill(0), fill(0x5EED)];
        sim.spawn("client", move |env: Env| {
            let cfg = KernelConfig {
                rsize: BS,
                cache_bytes: 6 * BS as u64,
                max_inflight: 3,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).unwrap();
            let files = ["f", "g"].map(|name| kc.create_path(&env, name).unwrap());
            for (h, model) in files.iter().zip(&models) {
                server.fs().lock().write(*h, 0, model, 0).unwrap();
                kc.close(&env, *h).unwrap();
            }
            let remount = |kc: &KernelClient| {
                for h in files {
                    kc.close(&env, h).unwrap();
                }
                kc.invalidate_caches();
            };
            for (op, off, n, byte, which) in ops {
                let (h, model) = (files[which], &mut models[which]);
                match op {
                    0..=5 => {
                        let got = kc.read(&env, h, off as u64, n as u32).unwrap();
                        let end = (off + n).min(model.len());
                        assert_eq!(got, &model[off.min(model.len())..end], "read {which}:{off}+{n}");
                    }
                    6 => {
                        let off = off % model.len();
                        let bytes = vec![byte; n.min(model.len() - off)];
                        kc.write(&env, h, off as u64, &Payload::from(&bytes[..])).unwrap();
                        model[off..off + bytes.len()].copy_from_slice(&bytes);
                    }
                    7 => remount(&kc),
                    _ => unreachable!(),
                }
            }
            let check_all = |when: &str| {
                for (h, model) in files.iter().zip(&models) {
                    let whole = kc.read(&env, *h, 0, model.len() as u32 + 7).unwrap();
                    assert_eq!(&whole, model, "{when}");
                }
            };
            check_all("at the end");
            // Every acknowledged byte reaches the server, and the dirty
            // accounting returns to zero (`invalidate_caches` asserts it).
            remount(&kc);
            check_all("after flush and remount");
        });
        sim.run();
    }
}

/// A READ or WRITE whose `offset + count` overflows `u64` — far past the
/// `maxfilesize` FSINFO advertises — is not a valid READ3/WRITE3 call of
/// this server: it is refused as `GARBAGE_ARGS` before anything computes
/// with the sum. One `nfsd` worker serves the connection, so the calls
/// that follow prove it survived.
#[test]
fn hostile_offsets_get_a_decodable_error_and_the_worker_survives() {
    let sim = Simulation::new();
    let h = sim.handle();
    let disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
    let mount = MountServer::new(fs, vec!["/".to_string()]);
    let link = |name: &str| Link::from_mbps(&h, name, 1000.0, SimDuration::from_micros(100));
    let ep = oncrpc::endpoint(&h, link("up"), link("down"), WireSpec::plain());
    let handler = Dispatcher::new().register(server).register(mount);
    ep.listener.serve("nfsd", handler.into_handler(), 1);
    let cred = OpaqueAuth::sys(&AuthSys::new("client", 500, 500));
    let nfs = Nfs3Client::new(RpcClient::new(ep.channel, cred));
    sim.spawn("client", move |env: Env| {
        use nfs3::proto::StableHow;
        let garbage =
            nfs3::NfsError::Rpc(oncrpc::RpcError::Accept(oncrpc::AcceptStat::GarbageArgs));
        let root = nfs.mount(&env, "/").unwrap();
        let file = nfs.create(&env, root, "f").unwrap();
        nfs.write(&env, file, 0, b"intact", StableHow::FileSync)
            .unwrap();
        let hostile = u64::MAX - 10;
        let wrote = nfs.write(&env, file, hostile, [7u8; 32], StableHow::Unstable);
        assert_eq!(wrote.unwrap_err(), garbage);
        assert_eq!(nfs.read(&env, file, hostile, 32).unwrap_err(), garbage);
        // Inside `u64`, but past the maximum file size FSINFO advertises.
        let max = nfs.fsinfo(&env, root).unwrap().maxfilesize;
        let wrote = nfs.write(&env, file, max - 3, [7u8; 4], StableHow::Unstable);
        assert_eq!(wrote.unwrap_err(), garbage);
        assert_eq!(nfs.read(&env, file, max, 1).unwrap_err(), garbage);
        // Ending exactly at the maximum is a valid (empty) read.
        assert!(nfs.read(&env, file, max - 8, 8).unwrap().data.is_empty());
        let r = nfs.read(&env, file, 0, 32).unwrap();
        assert_eq!(r.data, b"intact");
        assert_eq!(nfs.getattr(&env, file).unwrap().size, 6);
    });
    sim.run();
}
