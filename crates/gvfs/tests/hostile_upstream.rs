//! A proxy's meta-data discovery (paper §3.2.2) against an upstream
//! that lies: whatever the upstream claims about a meta file, the
//! LOOKUP that triggered the discovery still answers, and no claim sizes
//! an allocation or keeps the proxy reading. And a reply rebuilt on its
//! way, after it was encoded from a pooled block, installs the bytes it
//! carries on the wire, not that block.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::rc::Rc;

use gvfs::{BlockCacheConfig, CacheVolume, Proxy, ProxyConfig};
use nfs3::proto::proc3;
use nfs3::results::{encode_lookup, encode_read};
use oncrpc::{OpaqueAuth, RpcClient, RpcMessage, WireSpec};
use simnet::Shared;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, Handle, Payload};

/// The file a hostile upstream's every LOOKUP names.
const HOSTILE_FILE: Handle = Handle {
    fileid: 7,
    generation: 1,
};

/// LOOKUP `vm.vmss` through a proxy whose upstream names a 2^40-byte
/// [`HOSTILE_FILE`] for every LOOKUP and answers every READ with what `read`
/// returns: `(data, eof)`. Returns what the client got.
fn lookup_through_hostile_upstream(
    read: impl Fn() -> (Vec<u8>, bool) + 'static,
) -> Result<Handle, nfs3::NfsError> {
    let sim = Simulation::new();
    let h = sim.handle();
    let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(10));
    let fh = HOSTILE_FILE;
    let attr = vfs::Attr {
        ftype: vfs::FileType::Regular,
        mode: 0o644,
        nlink: 1,
        uid: 0,
        gid: 0,
        size: 1 << 40,
        used: 0,
        fileid: fh.fileid,
        atime_ns: 0,
        mtime_ns: 0,
        ctime_ns: 0,
    };
    let upstream = oncrpc::endpoint(&h, link("up"), link("down"), WireSpec::plain());
    let hostile = move |_env: &Env, request: &[u8]| -> Vec<u8> {
        let Ok(RpcMessage::Call { header: call, .. }) =
            RpcMessage::decode_shared(&request.to_vec().into())
        else {
            panic!("the proxy sends calls");
        };
        let results = match call.proc {
            proc3::LOOKUP => encode_lookup(fh, Some(attr.clone()), None),
            proc3::READ => {
                let (data, eof) = read();
                encode_read(Some(attr.clone()), &data, eof)
            }
            other => panic!("unexpected procedure {other}"),
        };
        RpcMessage::success(call.xid, results).into_wire().to_vec()
    };
    upstream.listener.serve("hostile", Rc::new(hostile), 1);
    let cfg = ProxyConfig {
        name: "px".into(),
        ..ProxyConfig::default()
    };
    let volume = CacheVolume::new(&h, Disk::new(&h, DiskModel::scsi_2004()), &cfg, None, None);
    let proxy = Proxy::new(
        cfg,
        RpcClient::new(upstream.channel, OpaqueAuth::none()),
        &volume,
    );
    let front = oncrpc::endpoint(&h, link("c-up"), link("c-down"), WireSpec::plain());
    front.listener.serve("px", Rc::new(proxy), 1);
    let client = nfs3::Nfs3Client::new(RpcClient::new(front.channel, OpaqueAuth::none()));
    let found = Shared::new(None);
    let out = found.clone();
    sim.spawn("client", move |env| {
        *out.lock() = Some(client.lookup(&env, fh, "vm.vmss").map(|(h, _)| h));
    });
    sim.run();
    let found = found.lock().take();
    found.expect("the LOOKUP finished")
}

#[test]
fn lookup_finishes_when_the_upstream_claims_a_huge_meta_file() {
    // Every READ returns 32 bytes of meta header claiming 2^40
    // blocks. Neither that claim nor the LOOKUP's file size may size
    // an allocation in the proxy.
    let mut header = b"GVFSMETA1\n".to_vec();
    header.extend_from_slice(&0u64.to_be_bytes());
    header.extend_from_slice(&[0, 1]);
    header.extend_from_slice(&4096u32.to_be_bytes());
    header.extend_from_slice(&(1u64 << 40).to_be_bytes());
    let found = lookup_through_hostile_upstream(move || (header.clone(), true));
    assert_eq!(found.ok(), Some(HOSTILE_FILE));
}

#[test]
fn lookup_finishes_when_the_upstream_never_says_eof() {
    // Every READ returns 32 KiB and no `eof`. The proxy stops once a
    // meta file reaches `xdr::DEFAULT_MAX_LEN` bytes; one that kept
    // reading would trip the panic instead of hanging the test.
    const BLOCK: usize = 32 * 1024;
    let limit = xdr::DEFAULT_MAX_LEN as usize / BLOCK + 1;
    let reads = Rc::new(Cell::new(0));
    let counted = reads.clone();
    let found = lookup_through_hostile_upstream(move || {
        let n = counted.get() + 1;
        counted.set(n);
        assert!(n <= limit, "READ #{n}: the meta loop is unbounded");
        (vec![0; BLOCK], false)
    });
    assert_eq!(found.ok(), Some(HOSTILE_FILE));
    let reads = reads.get();
    assert_eq!(reads, xdr::DEFAULT_MAX_LEN as usize / BLOCK);
}

#[test]
fn a_reply_rebuilt_on_its_way_installs_the_bytes_it_carries() {
    // The upstream encodes every READ from one pooled block, so the
    // results it encodes carry that block; then it rebuilds the message
    // with the payload's last byte flipped, as a fault on the path
    // would. The proxy must cache what arrived, never the block.
    const BLOCK: usize = 32 * 1024;
    let sim = Simulation::new();
    let h = sim.handle();
    let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(10));
    let block = vfs::share((0..BLOCK).map(|i| (i % 251) as u8).collect());
    let mut flipped = block.to_vec();
    flipped[BLOCK - 1] ^= 0xFF;
    let served = block.clone();
    let upstream = oncrpc::endpoint(&h, link("up"), link("down"), WireSpec::plain());
    let hostile = move |_env: &Env, request: &[u8]| -> Vec<u8> {
        let Ok(RpcMessage::Call { header: call, .. }) =
            RpcMessage::decode_shared(&request.to_vec().into())
        else {
            panic!("the proxy sends calls");
        };
        assert_eq!(call.proc, proc3::READ);
        let mut data = Payload::new();
        data.push_shared(served.clone(), 0..BLOCK);
        let results = encode_read(None, &data, false);
        let mut wire = RpcMessage::success(call.xid, results).into_wire().to_vec();
        *wire.last_mut().unwrap() ^= 0xFF;
        wire
    };
    upstream.listener.serve("hostile", Rc::new(hostile), 1);
    let cfg = ProxyConfig {
        name: "px".into(),
        meta_handling: false,
        ..ProxyConfig::default()
    };
    let geometry = BlockCacheConfig::with_capacity(1 << 20, 1, 4, BLOCK as u32);
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, Some(geometry), None);
    let proxy = Proxy::new(
        cfg,
        RpcClient::new(upstream.channel, OpaqueAuth::none()),
        &volume,
    );
    let front = oncrpc::endpoint(&h, link("c-up"), link("c-down"), WireSpec::plain());
    front.listener.serve("px", Rc::new(proxy), 1);
    let client = nfs3::Nfs3Client::new(RpcClient::new(front.channel, OpaqueAuth::none()));
    let cache = volume.block_cache.clone().unwrap();
    sim.spawn("client", move |env| {
        let forwarded = client.read(&env, HOSTILE_FILE, 0, BLOCK as u32).unwrap();
        assert_eq!(forwarded.data, flipped, "the forwarded reply");
        assert!(
            forwarded.data.attached().is_none(),
            "a rebuilt reply carries no block"
        );
        let hit = client.read(&env, HOSTILE_FILE, 0, BLOCK as u32).unwrap();
        assert_eq!(
            cache.stats().hits,
            1,
            "the second read is a block-cache hit"
        );
        assert_eq!(hit.data, flipped, "the cached block is what arrived");
        let frame = hit
            .data
            .attached()
            .expect("a whole-frame hit carries its frame");
        assert!(
            !Rc::ptr_eq(frame, &block),
            "the proxy installed the block it never got"
        );
    });
    sim.run();
}
