//! Host-cost gate without a clock: how many payload-sized allocations one
//! NFS block operation makes on its way through the stack.
//!
//! A 32 KiB READ or WRITE payload should be copied once per hop on the
//! sending side and not at all on the receiving side (DESIGN.md §5.11,
//! "One copy per hop"). Every copy of a block lands in a fresh
//! allocation of at least its size, so a counting `#[global_allocator]`
//! sees them all: this test drives one operation of each kind through
//! kernel client ← caching proxy ← NFS server and pins the number of
//! allocations of 16 KiB or more it caused, on every thread of the
//! process. A read hands the guest the cached blocks by reference
//! (`vfs::Payload`), so a read the kernel buffer answers allocates none. The payloads are resident in the content pool beforehand, so
//! interning a clean block is a pool hit and allocates nothing.
//!
//! One `#[test]` in a binary of its own: the counter is process-wide,
//! and the simulation runs one process at a time, so between two reads
//! of the counter only the measured operation allocates.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::big_allocs;
use gvfs::{BlockCacheConfig, DedupTuning, ImageServer, Listen, ProxyConfig, Tier, TransferTuning};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{AuthSys, OpaqueAuth, RpcClient};
use simnet::{Link, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, FileIo, Payload};

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
/// A WRITE the proxy absorbs: the kernel client's dirty block (1), the
/// WRITE call (2), the proxy's dirty frame (3). Before: 6.
const ABSORBED_WRITE: usize = 3;

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

    // Write-back caching proxy in front of it, read-ahead off.
    let cred = OpaqueAuth::sys(&AuthSys::new("guest", 500, 500));
    let tier = Tier::start(
        ProxyConfig {
            name: "proxy".into(),
            meta_handling: false,
            transfer: TransferTuning {
                read_ahead: 0,
                ..TransferTuning::default()
            },
            dedup: DedupTuning::off(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::with_capacity(
            64 << 20,
            4,
            16,
            BLOCK as u32,
        )),
        None,
        &Disk::new(&h, DiskModel::scsi_2004()),
        RpcClient::new(origin.channel, cred.clone()),
        Listen::plain(lan(&h, "lo-up"), lan(&h, "lo-down")),
    );
    let cache = tier.proxy.block_cache().unwrap().clone();
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

        let (data, forwarded) = read(1);
        assert_eq!(data, block(1));
        kc.invalidate_caches();
        let (data, warm) = read(1);
        assert_eq!(data, block(1));
        assert_eq!(
            cache.stats().hits,
            2,
            "the second read of a block is a proxy hit"
        );
        let (data, kernel_hit) = read(1);
        assert_eq!(data, block(1));
        assert_eq!(cache.stats().hits, 2, "the third is a kernel-buffer hit");

        // A resume-shaped read: 1 MiB of blocks the kernel buffer holds.
        let resume = |off: u64| big_allocs(|| kc.read(&env, f, off, RESUME).unwrap());
        let first = 4;
        let (cold, _) = resume(at(first));
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
