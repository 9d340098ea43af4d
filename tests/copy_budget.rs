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
//! process. The payloads are resident in the content pool beforehand, so
//! interning a clean block is a pool hit and allocates nothing.
//!
//! One `#[test]` in a binary of its own: the counter is process-wide,
//! and the simulation runs one process at a time, so between two reads
//! of the counter only the measured operation allocates.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gvfs::{BlockCacheConfig, DedupTuning, ImageServer, Listen, ProxyConfig, Tier, TransferTuning};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{AuthSys, OpaqueAuth, RpcClient};
use simnet::{Link, SimDuration, SimHandle, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use vfs::{Disk, DiskModel, FileIo};

const BLOCK: usize = 32 * 1024;
/// Allocations at least this large are payload-sized.
const BIG: usize = 16 * 1024;

struct Counting;

static BIG_ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// relaxed atomic that publishes nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Payload-sized allocations made, by any thread, while `op` ran.
fn big_allocs<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = op();
    (out, BIG_ALLOCS.load(Ordering::Relaxed) - before)
}

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
/// into the reply (1) and the kernel client copies the reply's payload
/// into the guest's buffer (2). Before "one copy per hop": 5.
const WARM_READ: usize = 2;
/// A READ the proxy forwards: the server's store read (1), its reply
/// (2), the guest's buffer (3) — the proxy adds none. Before: 7.
const FORWARDED_READ: usize = 3;
/// A WRITE the proxy absorbs: the kernel client's dirty block (1), the
/// WRITE call (2), the proxy's dirty frame (3). Before: 6.
const ABSORBED_WRITE: usize = 3;

#[test]
fn a_block_operation_stays_inside_its_copy_budget() {
    const BLOCKS: u64 = 8;
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

        let write = |b: u64| {
            let payload = block(b + 100);
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
    });
    sim.run();
}
