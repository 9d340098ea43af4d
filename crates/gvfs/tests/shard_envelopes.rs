//! How a batching shard groups blob misses upstream: only in the
//! envelopes its clients send. An envelope's own fresh misses — not held
//! in the shard's CAS, not already being fetched — travel upstream as
//! one envelope, in order; a digest another request is already fetching
//! is waited for, never sent twice; and a lone `FETCH_BLOBS` miss goes
//! upstream as the single call it is, joining nobody's envelope.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::rc::Rc;

use gvfs::channel::chanproc;
use gvfs::meta::generate_content_map;
use gvfs::{
    CacheVolume, Digest, FileChannelServer, FleetTuning, Proxy, ProxyConfig, WritePolicy,
    CHANNEL_PROGRAM, CHANNEL_V1,
};
use oncrpc::transport::RpcHandler;
use oncrpc::{AuthSys, BatchItem, Dispatcher, OpaqueAuth, RpcChannel, RpcClient, RpcMessage};
use simnet::Shared;
use simnet::{Env, Link, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};
use xdr::{Decoder, Encode, Encoder};

const CHUNK: u32 = 1024;

/// `(proc, digests asked for)` per channel call that reached the origin.
type Log = Shared<Vec<(u32, Vec<Digest>)>>;

/// The digest a `FETCH_BLOBS` args body ends with.
fn wanted(args: &[u8]) -> Digest {
    let tail = &args[args.len() - 16..];
    let word = |b: &[u8]| u64::from_be_bytes(b.try_into().unwrap());
    Digest(word(&tail[..8]), word(&tail[8..]))
}

/// Records the blob fetches that reach `inner`.
struct Tap {
    inner: Rc<dyn RpcHandler>,
    log: Log,
}

impl RpcHandler for Tap {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        if let Ok(RpcMessage::Call { header, args }) = RpcMessage::decode_shared(request) {
            let digests = match header.proc {
                chanproc::FETCH_BLOBS => vec![wanted(&args)],
                chanproc::FETCH_BLOBS_BATCH => oncrpc::batch::decode_batch(&args)
                    .unwrap()
                    .iter()
                    .map(|item| wanted(&item.args))
                    .collect(),
                _ => Vec::new(),
            };
            self.log.lock().push((header.proc, digests));
        }
        self.inner.handle(env, request)
    }
}

fn lan(h: &SimHandle, name: &str, latency: SimDuration) -> (Link, Link) {
    let link = |dir: &str| Link::new(h, format!("{name}-{dir}"), 1e9, latency);
    (link("up"), link("down"))
}

/// Serve `inner` on a fresh link pair; returns the channel into it.
fn serve(h: &SimHandle, name: &str, latency: SimDuration, inner: Rc<dyn RpcHandler>) -> RpcChannel {
    let (up, down) = lan(h, name, latency);
    let ep = oncrpc::endpoint(h, up, down, oncrpc::WireSpec::plain());
    ep.listener.serve(name, inner, 8);
    ep.channel
}

fn blob_args(h: Handle, offset: u64, d: Digest) -> Vec<u8> {
    let mut enc = Encoder::new();
    nfs3::Fh3(h).encode(&mut enc);
    enc.put_u64(offset);
    enc.put_u32(CHUNK);
    enc.put_u64(d.0);
    enc.put_u64(d.1);
    enc.into_bytes()
}

/// The chunk a `FETCH_BLOBS` reply carries, decompressed.
fn payload(reply: &[u8]) -> Vec<u8> {
    let mut dec = Decoder::new(reply);
    assert_eq!(dec.get_u32().unwrap(), 0, "channel status Ok");
    assert_eq!(dec.get_u64().unwrap(), CHUNK as u64);
    assert!(dec.get_bool().unwrap(), "served compressed");
    gvfs::codec::decompress(&dec.get_opaque_var().unwrap()).unwrap()
}

#[test]
fn a_shard_groups_misses_only_in_the_envelopes_clients_send() {
    let sim = Simulation::new();
    let h = sim.handle();
    let fs = Shared::new(Fs::new(0));
    let data: Vec<u8> = (0..5 * CHUNK)
        .map(|i| (i / CHUNK * 41 + i % 13) as u8)
        .collect();
    let (img, recipe) = {
        let mut f = fs.lock();
        let root = f.root();
        let img = f.create(root, "img", 0o644, 0).unwrap();
        f.write(img, 0, &data, 0).unwrap();
        (img, generate_content_map(&mut f, img, CHUNK).unwrap())
    };
    let d: Vec<Digest> = recipe.records.iter().map(|(d, _)| *d).collect();

    let log: Log = Shared::default();
    let server = FileChannelServer::new(
        fs.clone(),
        Disk::new(&h, DiskModel::server_array()),
        true,
        None,
    );
    let origin = Tap {
        inner: Dispatcher::new().register(server).into_handler(),
        log: log.clone(),
    };
    let cred = OpaqueAuth::sys(&AuthSys::new("fleet", 1, 1));
    // A WAN round trip (10 ms) outlasts every client's arrival.
    let wan = serve(&h, "wan", SimDuration::from_millis(5), Rc::new(origin));
    let cfg = ProxyConfig {
        name: "shard".into(),
        write_policy: WritePolicy::WriteThrough,
        meta_handling: false,
        fleet: FleetTuning::shard(),
        ..ProxyConfig::default()
    };
    let volume = CacheVolume::new(
        &h,
        Disk::new(&h, DiskModel::server_array()),
        &cfg,
        None,
        None,
    );
    let shard = Proxy::new(cfg, RpcClient::new(wan, cred.clone()), &volume).into_handler();
    let shard_chan = serve(&h, "lan", SimDuration::from_micros(100), shard);

    // A lone miss at t=0, then two envelopes overlapping in chunks 1-2.
    let requests: [(u64, &[usize]); 3] = [(0, &[4]), (1, &[0, 1, 2]), (2, &[1, 2, 3])];
    for (at_ms, chunks) in requests {
        let rpc = RpcClient::new(shard_chan.clone(), cred.clone());
        let (d, data) = (d.clone(), data.clone());
        sim.spawn(format!("client-{at_ms}"), move |env: Env| {
            env.sleep(SimDuration::from_millis(at_ms));
            let args = |i: usize| blob_args(img, i as u64 * CHUNK as u64, d[i]);
            let chunk = |i: usize| &data[i * CHUNK as usize..(i + 1) * CHUNK as usize];
            if let [i] = chunks {
                let proc = chanproc::FETCH_BLOBS;
                let reply = rpc.call(&env, CHANNEL_PROGRAM, CHANNEL_V1, proc, &args(*i));
                assert_eq!(payload(&reply.unwrap()), chunk(*i));
                return;
            }
            let items: Vec<BatchItem> = chunks
                .iter()
                .map(|&i| BatchItem {
                    proc: chanproc::FETCH_BLOBS,
                    args: args(i),
                })
                .collect();
            let proc = chanproc::FETCH_BLOBS_BATCH;
            let replies = rpc.call_batch(&env, CHANNEL_PROGRAM, CHANNEL_V1, proc, &items);
            for (reply, &i) in replies.unwrap().iter().zip(chunks) {
                assert!(reply.ok());
                assert_eq!(payload(&reply.result), chunk(i));
            }
        });
    }
    sim.run();

    assert_eq!(
        *log.lock(),
        [
            (chanproc::FETCH_BLOBS, vec![d[4]]),
            (chanproc::FETCH_BLOBS_BATCH, vec![d[0], d[1], d[2]]),
            (chanproc::FETCH_BLOBS_BATCH, vec![d[3]]),
        ],
        "upstream: the lone miss alone, then each envelope's own fresh misses"
    );
}
