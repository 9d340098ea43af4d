//! Golden-vector suite pinning the file channel's wire format.
//!
//! A recording tap sits in front of the origin's [`FileChannelServer`]
//! and in front of two sibling shard proxies; a fixed scenario drives
//! every live channel procedure (3–9: chunk, upload-chunk, recipe, blob,
//! batch envelope, gossip, peer blob) through the public client entry
//! points and, for the error replies, through raw calls. Every call the
//! taps see is rendered as `hop proc args -> reply` and compared with
//! `tests/golden/channel_wire.txt`, which was recorded from the code as
//! it stood *before* the channel was folded onto one wire codec — so the
//! args each client emits and the reply bytes each server returns are
//! pinned from outside the module that now encodes them. (The recording
//! ran this very scenario; only the three client calls whose signatures
//! that change altered were spelled the old way: `upload_chunked` and
//! `upload_ranges` still took their always-`true` compress flag, and
//! `fetch_dedup` was `fetch_dedup_batched` with positional arguments.)
//! Regenerate (only when the wire format intentionally changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p gvfs --test channel_wire_golden
//! ```

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::channel::{chanproc, RecipeFetch};
use gvfs::digest::{digest, Digest};
use gvfs::{
    encode_gossip, ChannelClient, CodecModel, ContentStore, DedupTel, FileChannelServer,
    FleetTuning, Proxy, ProxyConfig, Tier, WritePolicy, CHANNEL_PROGRAM, CHANNEL_V1,
};
use oncrpc::transport::RpcHandler;
use oncrpc::{
    AcceptStat, AuthSys, BatchItem, Dispatcher, OpaqueAuth, ReplyBody, RpcChannel, RpcClient,
    RpcMessage, WireSpec,
};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};
use xdr::{Encode, Encoder};

const FIXTURE: &str = include_str!("golden/channel_wire.txt");
const CHUNK: u32 = 1024;

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

type Log = Arc<Mutex<Vec<String>>>;

/// Records every channel-program call that reaches `inner`, with the
/// reply `inner` gave: result bytes on success, `!stat` otherwise.
struct Tap {
    hop: &'static str,
    inner: Arc<dyn RpcHandler>,
    log: Log,
}

impl RpcHandler for Tap {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        let reply = self.inner.handle(env, request);
        if let Ok(RpcMessage::Call { header, args }) = RpcMessage::decode_shared(request) {
            if header.prog == CHANNEL_PROGRAM {
                let outcome = match RpcMessage::decode_shared(&reply) {
                    Ok(RpcMessage::Reply {
                        body:
                            ReplyBody::Accepted {
                                stat: AcceptStat::Success,
                                results,
                                ..
                            },
                        ..
                    }) => to_hex(&results),
                    Ok(RpcMessage::Reply {
                        body: ReplyBody::Accepted { stat, .. },
                        ..
                    }) => format!("!{stat:?}"),
                    other => format!("!{other:?}"),
                };
                self.log.lock().push(format!(
                    "{} proc={} {} -> {}",
                    self.hop,
                    header.proc,
                    to_hex(&args),
                    outcome
                ));
            }
        }
        reply
    }
}

/// Serve `inner` behind a tap on a fresh clean LAN; returns the channel
/// clients reach it through.
fn serve_tapped(
    h: &SimHandle,
    hop: &'static str,
    inner: Arc<dyn RpcHandler>,
    log: &Log,
) -> RpcChannel {
    let up = Link::new(h, format!("{hop}-up"), 1e9, SimDuration::from_micros(100));
    let down = Link::new(h, format!("{hop}-down"), 1e9, SimDuration::from_micros(100));
    let ep = oncrpc::endpoint(h, up, down, WireSpec::plain());
    let tap = Arc::new(Tap {
        hop,
        inner,
        log: log.clone(),
    });
    ep.listener.serve(hop, tap, 4);
    ep.channel
}

fn fh_args(h: Handle, rest: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    nfs3::Fh3(h).encode(&mut enc);
    rest(&mut enc);
    enc.into_bytes()
}

fn blob_args(h: Handle, offset: u64, len: u32, d: Digest) -> Vec<u8> {
    fh_args(h, |enc| {
        enc.put_u64(offset);
        enc.put_u32(len);
        enc.put_u64(d.0);
        enc.put_u64(d.1);
    })
}

/// A raw channel call whose outcome only the tap cares about.
fn raw(env: &Env, rpc: &RpcClient, proc: u32, args: &[u8]) {
    let _ = rpc.call(env, CHANNEL_PROGRAM, CHANNEL_V1, proc, args);
}

/// A cacheless proxy (nothing on its disk) over `upstream`, for the
/// caller to serve behind a tap.
fn cacheless(cfg: ProxyConfig, upstream: RpcClient) -> Arc<Proxy> {
    let disk = Disk::new(upstream.channel().handle(), DiskModel::server_array());
    Tier::build(cfg, None, None, &disk, upstream)
}

fn shard(name: &str, upstream: RpcClient) -> Arc<Proxy> {
    let cfg = ProxyConfig {
        name: name.into(),
        write_policy: WritePolicy::WriteThrough,
        meta_handling: false,
        read_only_share: true,
        fleet: FleetTuning::region(),
        ..ProxyConfig::default()
    };
    cacheless(cfg, upstream)
}

/// 2.5 chunks: a patterned chunk, an all-zero chunk, a half chunk.
fn image() -> Vec<u8> {
    let mut data: Vec<u8> = (0..CHUNK).map(|i| (i % 7) as u8).collect();
    data.extend(std::iter::repeat_n(0u8, CHUNK as usize));
    data.extend((0..CHUNK / 2).map(|i| (i % 5) as u8 + 1));
    data
}

fn render_fixture() -> String {
    let sim = Simulation::new();
    let h = sim.handle();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let fs = Arc::new(Mutex::new(Fs::new(0)));
    let (fh, scratch) = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "golden.vmss", 0o644, 0).unwrap();
        f.write(fh, 0, &image(), 0).unwrap();
        (fh, f.create(root, "redo.log", 0o644, 0).unwrap())
    };
    let origin = |compress: bool| {
        let disk = Disk::new(&h, DiskModel::server_array());
        let server = FileChannelServer::new(fs.clone(), disk, CodecModel::default(), compress);
        Dispatcher::new().register(server).into_handler()
    };
    let cred = OpaqueAuth::sys(&AuthSys::new("golden", 1, 1));
    let origin_rpc = RpcClient::new(serve_tapped(&h, "origin", origin(true), &log), cred.clone());
    let plain_rpc = RpcClient::new(serve_tapped(&h, "plain", origin(false), &log), cred.clone());
    let shard_a = shard("shardA", origin_rpc.clone());
    let shard_b = shard("shardB", origin_rpc.clone());
    let a_rpc = RpcClient::new(
        serve_tapped(&h, "shardA", shard_a.clone(), &log),
        cred.clone(),
    );
    let b_rpc = RpcClient::new(
        serve_tapped(&h, "shardB", shard_b.clone(), &log),
        cred.clone(),
    );
    shard_a.set_gossip_peers(0, vec![(1, b_rpc.clone())]);
    shard_b.set_gossip_peers(1, vec![(0, a_rpc.clone())]);

    let stale = Handle {
        fileid: 999,
        generation: 9,
    };
    let fs2 = fs.clone();
    sim.spawn("driver", move |env: Env| {
        let chan = ChannelClient::new(origin_rpc.clone(), CodecModel::default());
        let data = image();

        // 3 FETCH_CHUNK: a windowed whole-file fetch, a read past EOF,
        // an uncompressed reply, a stale handle.
        let (got, _) = chan.fetch_chunked(&env, fh, CHUNK, 4, None).unwrap();
        assert_eq!(got, data);
        let chunk_args = |h: Handle, off: u64| {
            fh_args(h, |enc| {
                enc.put_u64(off);
                enc.put_u32(CHUNK);
            })
        };
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_CHUNK,
            &chunk_args(fh, 1 << 20),
        );
        raw(&env, &plain_rpc, chanproc::FETCH_CHUNK, &chunk_args(fh, 0));
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_CHUNK,
            &chunk_args(stale, 0),
        );

        // 4 UPLOAD_CHUNK: a chunked whole-file upload, a ranged upload,
        // a corrupt stream, a stale handle.
        let new: Vec<u8> = (0..2 * CHUNK + 100).map(|i| (i % 3) as u8).collect();
        chan.upload_chunked(&env, scratch, &new, CHUNK, 4, None)
            .unwrap();
        let ranges = vec![(0u64, vec![9u8; 64]), (CHUNK as u64, vec![8u8; 32])];
        chan.upload_ranges(&env, scratch, new.len() as u64, ranges, 4, None)
            .unwrap();
        {
            let mut f = fs2.lock();
            let (back, _) = f.read(scratch, 0, new.len() + 1, 0).unwrap();
            assert_eq!(back.len(), new.len());
            assert_eq!(&back[..64], &[9u8; 64]);
            assert_eq!(&back[64..CHUNK as usize], &new[64..CHUNK as usize]);
        }
        let upload_args = |h: Handle, payload: &[u8]| {
            fh_args(h, |enc| {
                enc.put_u64(0);
                enc.put_u64(64);
                enc.put_bool(true);
                enc.put_opaque_var(payload);
            })
        };
        raw(
            &env,
            &origin_rpc,
            chanproc::UPLOAD_CHUNK,
            &upload_args(scratch, &[0xFF, 0xFE, 0xFD]),
        );
        let packed = gvfs::codec::compress(&[1u8; 64]);
        raw(
            &env,
            &origin_rpc,
            chanproc::UPLOAD_CHUNK,
            &upload_args(stale, &packed),
        );

        // 5 FETCH_RECIPE: served, stale, and the zero chunk size the
        // origin refuses as garbage.
        let recipe = chan.fetch_recipe(&env, fh, CHUNK).unwrap();
        assert_eq!(recipe.total, data.len() as u64);
        let recipe_args = |h: Handle, cb: u32| fh_args(h, |enc| enc.put_u32(cb));
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_RECIPE,
            &recipe_args(stale, CHUNK),
        );
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_RECIPE,
            &recipe_args(fh, 0),
        );

        // 6 FETCH_BLOBS: one call per distinct digest (serial, unbatched),
        // an uncompressed reply, a stale handle.
        let cas = ContentStore::new(1 << 30);
        let dtel = DedupTel::unregistered();
        let df = chan
            .fetch_dedup(
                &env,
                fh,
                &RecipeFetch {
                    recipe_hint: Some(&recipe),
                    chunk_bytes: CHUNK,
                    window: 1,
                    batch: 1,
                    cas: &cas,
                    dtel: &dtel,
                    tel: None,
                },
            )
            .unwrap();
        assert_eq!(df.contents, data);
        let d0 = recipe.records[0].0;
        raw(
            &env,
            &plain_rpc,
            chanproc::FETCH_BLOBS,
            &blob_args(fh, 0, CHUNK, d0),
        );
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_BLOBS,
            &blob_args(stale, 0, CHUNK, d0),
        );

        // 7 FETCH_BLOBS_BATCH: the client's envelope, then a mixed one —
        // a stale blob, a mutation (refused), a chunk, a recipe, garbage.
        let wants: Vec<(u64, u32, Digest)> =
            vec![(0, CHUNK, d0), (CHUNK as u64, CHUNK, recipe.records[1].0)];
        let slots = chan.fetch_blobs_batch(&env, fh, &wants, drop).unwrap();
        assert!(slots.iter().all(|s| s.is_ok()));
        let mixed = oncrpc::batch::encode_batch(&[
            BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: blob_args(fh, 2 * CHUNK as u64, CHUNK / 2, recipe.records[2].0),
            },
            BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: blob_args(stale, 0, CHUNK, d0),
            },
            BatchItem {
                proc: chanproc::UPLOAD_CHUNK,
                args: upload_args(scratch, &packed),
            },
            BatchItem {
                proc: chanproc::FETCH_CHUNK,
                args: chunk_args(fh, CHUNK as u64),
            },
            BatchItem {
                proc: chanproc::FETCH_RECIPE,
                args: recipe_args(fh, 2 * CHUNK),
            },
            BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: vec![0, 0, 0, 1],
            },
        ]);
        raw(&env, &origin_rpc, chanproc::FETCH_BLOBS_BATCH, &mixed);
        raw(&env, &origin_rpc, chanproc::FETCH_BLOBS_BATCH, &[0xFF; 4]);

        // 8 GOSSIP_DIGESTS and 9 FETCH_BLOBS_PEER between sibling shards:
        // shard A caches a blob (its upstream envelope is logged at the
        // origin), advertises it to B, and serves B's miss peer-to-peer.
        raw(
            &env,
            &a_rpc,
            chanproc::FETCH_BLOBS,
            &blob_args(fh, 0, CHUNK, d0),
        );
        shard_a.gossip_round(&env);
        shard_b.gossip_round(&env);
        raw(
            &env,
            &b_rpc,
            chanproc::FETCH_BLOBS,
            &blob_args(fh, 0, CHUNK, d0),
        );
        // Errors: the origin has no gossip, garbage args, a peer miss.
        raw(
            &env,
            &origin_rpc,
            chanproc::GOSSIP_DIGESTS,
            &encode_gossip(7, &[d0]),
        );
        raw(
            &env,
            &b_rpc,
            chanproc::GOSSIP_DIGESTS,
            &[0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF],
        );
        raw(
            &env,
            &a_rpc,
            chanproc::FETCH_BLOBS_PEER,
            &blob_args(fh, 0, CHUNK, digest(b"nobody holds this")),
        );
        raw(
            &env,
            &origin_rpc,
            chanproc::FETCH_BLOBS_PEER,
            &blob_args(fh, 0, CHUNK, d0),
        );
    });
    sim.run();
    let mut out = log.lock().join("\n");
    out.push('\n');
    out
}

#[test]
fn channel_wire_images_are_byte_identical() {
    let rendered = render_fixture();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/channel_wire.txt");
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual: Vec<&str> = rendered.lines().collect();
    for (i, (exp, act)) in expected.iter().zip(actual.iter()).enumerate() {
        assert_eq!(
            exp, act,
            "channel call #{i} drifted from the pinned wire image"
        );
    }
    assert_eq!(expected.len(), actual.len(), "channel call count drifted");
}

/// Every live procedure appears in the fixture with at least one served
/// reply and one refusal — an RPC-level accept error (`!stat`) or a bare
/// non-zero channel status — so the suite cannot shrink silently.
#[test]
fn fixture_covers_every_live_procedure_and_an_error_of_each() {
    let refused = |reply: &str| reply.starts_with('!') || (reply.len() == 8 && reply != "00000000");
    for proc in 3..=9u32 {
        let tag = format!(" proc={proc} ");
        let replies: Vec<&str> = FIXTURE
            .lines()
            .filter(|l| l.contains(&tag))
            .filter_map(|l| l.rsplit(" -> ").next())
            .collect();
        assert!(
            replies.iter().any(|r| !refused(r)),
            "procedure {proc} has no served reply in the fixture"
        );
        assert!(
            replies.iter().any(|r| refused(r)),
            "procedure {proc} has no error reply in the fixture"
        );
    }
}

/// Procedures 1 and 2 (whole-file FETCH and UPLOAD) are retired: the
/// origin answers `ProcUnavail`, directly and through a proxy, and the
/// numbers are not reused.
#[test]
fn retired_whole_file_procedures_answer_proc_unavail() {
    let sim = Simulation::new();
    let h = sim.handle();
    let log: Log = Arc::new(Mutex::new(Vec::new()));
    let fs = Arc::new(Mutex::new(Fs::new(0)));
    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "vm.vmss", 0o644, 0).unwrap();
        f.write(fh, 0, &image(), 0).unwrap();
        fh
    };
    let disk = Disk::new(&h, DiskModel::server_array());
    let server = FileChannelServer::new(fs.clone(), disk, CodecModel::default(), true);
    let cred = OpaqueAuth::sys(&AuthSys::new("golden", 1, 1));
    let origin = Dispatcher::new().register(server).into_handler();
    let origin_rpc = RpcClient::new(serve_tapped(&h, "origin", origin, &log), cred.clone());
    let proxy = cacheless(ProxyConfig::default(), origin_rpc.clone());
    let proxy_rpc = RpcClient::new(serve_tapped(&h, "proxy", proxy, &log), cred);
    let fs2 = fs.clone();
    sim.spawn("driver", move |env: Env| {
        let fetch = fh_args(fh, |_| {});
        let upload = fh_args(fh, |enc| {
            enc.put_bool(false);
            enc.put_opaque_var(b"overwritten");
        });
        for rpc in [&origin_rpc, &proxy_rpc] {
            for (proc, args) in [(1u32, &fetch), (2, &upload)] {
                match rpc.call(&env, CHANNEL_PROGRAM, CHANNEL_V1, proc, args) {
                    Err(oncrpc::RpcError::Accept(AcceptStat::ProcUnavail)) => {}
                    other => panic!("procedure {proc}: expected ProcUnavail, got {other:?}"),
                }
            }
        }
        let (back, _) = fs2.lock().read(fh, 0, 1 << 20, 0).unwrap();
        assert_eq!(back, image(), "a retired UPLOAD must not touch the file");
    });
    sim.run();
    // Two calls straight at the origin, two at the proxy and those two
    // again at the origin: the proxy answered neither from a cache.
    assert_eq!(log.lock().len(), 6);
}
