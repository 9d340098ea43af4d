//! What the file channel refuses, and what it reports when it fails:
//!
//! * a mutation wrapped in a `FETCH_BLOBS_BATCH` envelope is refused by a
//!   batching shard proxy by the origin's own rule, never forwarded as a
//!   single call;
//! * an `UPLOAD_CHUNK` that overhangs the file's final size is refused
//!   before the filesystem is touched, so a valid chunk set ends at
//!   exactly `total` whatever order it lands in;
//! * both outcomes of the recipe fetch (keep the pins, materialize
//!   through them) report the error that actually happened, and a
//!   failed fetch or a materialize releases every pin it took;
//! * a `FETCH_BLOBS` reply whose payload is not the recipe's chunk never
//!   becomes a `cas::Blob`: nothing reaches the CAS but by passing the
//!   digest check;
//! * a proxy whose recipe fetch fails falls back to the chunked transfer
//!   once, without trying the recipe again.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::cell::Cell;
use std::rc::Rc;

use gvfs::channel::{chanproc, ChanStatus, ChannelError};
use gvfs::meta::{generate_content_map, ContentMap};
use gvfs::{
    CacheVolume, ChannelClient, ContentStore, CowTuning, DedupTel, Digest, FileChannelServer,
    FileChannelSpec, FleetTuning, ImageServer, Listen, Middleware, ProxyConfig, RecipeFetch, Tier,
    WritePolicy, CHANNEL_PROGRAM, CHANNEL_V1,
};
use nfs3::{MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::transport::RpcHandler;
use oncrpc::{
    AuthSys, BatchItem, BatchReplyItem, Dispatcher, OpaqueAuth, ProgramError, RetryPolicy,
    RpcChannel, RpcClient, RpcError, RpcMessage, RpcProgram, WireSpec, BATCH_OK,
};
use simnet::Shared;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};
use xdr::{Decoder, Encode, Encoder};

const CHUNK: u32 = 1024;

fn cred() -> OpaqueAuth {
    OpaqueAuth::sys(&AuthSys::new("guard", 1, 1))
}

/// An origin channel server over a fresh filesystem, behind a WAN whose
/// links the caller may fault.
fn origin(sim: &Simulation) -> (Shared<Fs>, RpcChannel, Link, Link) {
    let h = sim.handle();
    let up = Link::from_mbps(&h, "wan-up", 100.0, SimDuration::from_millis(5));
    let down = Link::from_mbps(&h, "wan-down", 100.0, SimDuration::from_millis(5));
    let server = ImageServer::start(
        &h,
        Listen::plain(up.clone(), down.clone()),
        768 << 20,
        false,
    );
    (server.fs, server.channel, up, down)
}

fn put_file(fs: &Shared<Fs>, name: &str, data: &[u8]) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let h = f.create(root, name, 0o644, 0).unwrap();
    f.write(h, 0, data, 0).unwrap();
    h
}

fn contents(fs: &Shared<Fs>, h: Handle) -> Vec<u8> {
    fs.lock().read(h, 0, 1 << 20, 0).unwrap().0.to_vec()
}

/// `chunks` distinct chunks plus a half-chunk tail.
fn image(chunks: u32) -> Vec<u8> {
    (0..chunks * CHUNK + CHUNK / 2)
        .map(|i| (i / CHUNK * 37 + i % 251) as u8)
        .collect()
}

fn upload_args(h: Handle, offset: u64, total: u64, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    nfs3::Fh3(h).encode(&mut enc);
    enc.put_u64(offset);
    enc.put_u64(total);
    enc.put_bool(false);
    enc.put_opaque_var(payload);
    enc.into_bytes()
}

fn blob_args(h: Handle, offset: u64, len: u32, d: Digest) -> Vec<u8> {
    let mut enc = Encoder::new();
    nfs3::Fh3(h).encode(&mut enc);
    enc.put_u64(offset);
    enc.put_u32(len);
    enc.put_u64(d.0);
    enc.put_u64(d.1);
    enc.into_bytes()
}

/// One raw `UPLOAD_CHUNK`; returns the reply's status word.
fn upload(env: &Env, rpc: &RpcClient, args: &[u8]) -> u32 {
    let res = rpc
        .call(
            env,
            CHANNEL_PROGRAM,
            CHANNEL_V1,
            chanproc::UPLOAD_CHUNK,
            args,
        )
        .unwrap();
    Decoder::new(&res).get_u32().unwrap()
}

#[test]
fn mutation_in_an_envelope_is_refused_by_a_batching_shard() {
    let sim = Simulation::new();
    let h = sim.handle();
    let (fs, wan, _up, _down) = origin(&sim);
    let data = image(2);
    let img = put_file(&fs, "img", &data);
    let victim = put_file(&fs, "victim", b"precious");
    let recipe = generate_content_map(&mut fs.lock(), img, CHUNK).unwrap();

    let lan_up = Link::new(&h, "lan-up", 1e9, SimDuration::from_micros(100));
    let lan_down = Link::new(&h, "lan-down", 1e9, SimDuration::from_micros(100));
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
    let listen = Listen::plain(lan_up, lan_down);
    let shard = Tier::start(cfg, &volume, RpcClient::new(wan, cred()), listen);
    let rpc = RpcClient::new(shard.channel, cred());

    let fs2 = fs.clone();
    sim.spawn("attacker", move |env: Env| {
        let blob = |i: usize| BatchItem {
            proc: chanproc::FETCH_BLOBS,
            args: blob_args(img, i as u64 * CHUNK as u64, CHUNK, recipe.records[i].0),
        };
        let items = [
            blob(0),
            BatchItem {
                proc: chanproc::UPLOAD_CHUNK,
                args: upload_args(victim, 0, 4, b"evil"),
            },
            blob(1),
        ];
        let replies = rpc
            .call_batch(
                &env,
                CHANNEL_PROGRAM,
                CHANNEL_V1,
                chanproc::FETCH_BLOBS_BATCH,
                &items,
            )
            .unwrap();
        assert_eq!(replies.len(), 3);
        assert!(!replies[1].ok(), "the smuggled upload's slot must fail");
        assert!(replies[1].result.is_empty());
        // Its neighbours are served: status Ok and the chunk length.
        for r in [&replies[0], &replies[2]] {
            assert!(r.ok(), "a refused item must not poison its neighbours");
            let mut dec = Decoder::new(&r.result);
            assert_eq!(dec.get_u32().unwrap(), 0);
            assert_eq!(dec.get_u64().unwrap(), CHUNK as u64);
        }
        assert_eq!(contents(&fs2, victim), b"precious");
    });
    sim.run();
}

#[test]
fn overhanging_upload_chunk_is_refused_and_leaves_the_file_untouched() {
    let sim = Simulation::new();
    let (fs, wan, _up, _down) = origin(&sim);
    let before: Vec<u8> = (0..100u8).collect();
    let fh = put_file(&fs, "redo.log", &before);
    let rpc = RpcClient::new(wan, cred());
    let fs2 = fs.clone();
    sim.spawn("client", move |env: Env| {
        // Ends 10 bytes past `total`; ends at u64 overflow; starts past it.
        for (offset, total) in [(90u64, 100u64), (u64::MAX - 5, u64::MAX), (101, 100)] {
            let status = upload(&env, &rpc, &upload_args(fh, offset, total, &[7u8; 20]));
            assert_eq!(
                status, 9000,
                "offset {offset} total {total}: want BadStream"
            );
            assert_eq!(contents(&fs2, fh), before, "a refused chunk wrote");
        }
        // The same chunk inside a large enough total is applied.
        assert_eq!(upload(&env, &rpc, &upload_args(fh, 90, 110, &[7u8; 20])), 0);
        assert_eq!(fs2.lock().size(fh).unwrap(), 110);
    });
    sim.run();
}

#[test]
fn any_arrival_order_of_a_valid_chunk_set_ends_at_total() {
    // Four chunks (the last one short) over a file that starts longer
    // than the new total, landed in every one of the 24 orders.
    let new: Vec<u8> = (0..3 * CHUNK + 100).map(|i| (i % 13) as u8).collect();
    let chunks: Vec<(u64, Vec<u8>)> = new
        .chunks(CHUNK as usize)
        .enumerate()
        .map(|(i, c)| (i as u64 * CHUNK as u64, c.to_vec()))
        .collect();
    let mut orders: Vec<Vec<usize>> = vec![vec![]];
    for _ in 0..chunks.len() {
        orders = orders
            .iter()
            .flat_map(|o| {
                (0..chunks.len())
                    .filter(|i| !o.contains(i))
                    .map(|i| [o.as_slice(), &[i]].concat())
                    .collect::<Vec<_>>()
            })
            .collect();
    }
    assert_eq!(orders.len(), 24);
    let sim = Simulation::new();
    let (fs, wan, _up, _down) = origin(&sim);
    let rpc = RpcClient::new(wan, cred());
    let total = new.len() as u64;
    sim.spawn("client", move |env: Env| {
        for (n, order) in orders.iter().enumerate() {
            let fh = put_file(&fs, &format!("f{n}"), &vec![0xEEu8; 5 * CHUNK as usize]);
            for &i in order {
                let (offset, data) = &chunks[i];
                assert_eq!(
                    upload(&env, &rpc, &upload_args(fh, *offset, total, data)),
                    0
                );
            }
            assert_eq!(fs.lock().size(fh).unwrap(), total, "order {order:?}");
            assert_eq!(contents(&fs, fh), new, "order {order:?}");
        }
    });
    sim.run();
}

/// Run both recipe outcomes, one store each: a fetch into `cas[0]` whose
/// pins are kept, and a fetch into `cas[1]` materialized through its
/// pins (a store that already holds chunk 0 makes each fetch take a pin
/// before anything fails). Hands back what each reported (the second
/// with the bytes it read) and the pinned bytes each store is left with.
fn resolve_both(
    env: &Env,
    chan: &ChannelClient,
    fh: Handle,
    recipe: &ContentMap,
    batch: usize,
    cas: &[ContentStore; 2],
) -> Outcomes {
    let dtel = DedupTel::unregistered();
    let fetch = |cas| {
        let rq = RecipeFetch {
            recipe_hint: Some(recipe),
            chunk_bytes: CHUNK,
            window: 2,
            batch,
            cas,
            dtel: &dtel,
            tel: None,
        };
        chan.fetch_recipe_pinned(env, fh, &rq)
    };
    let pinned = fetch(&cas[0]).map(|_| ());
    let materialized = fetch(&cas[1])
        .and_then(|pr| pr.materialize(&cas[1]))
        .map(|p| p.to_vec());
    let left = (cas[0].pinned_bytes(), cas[1].pinned_bytes());
    (pinned, materialized, left)
}

/// What [`resolve_both`] reports.
type Outcomes = (
    Result<(), ChannelError>,
    Result<Vec<u8>, ChannelError>,
    (u64, u64),
);

#[test]
fn recipe_outcomes_report_the_real_error_and_release_their_pins() {
    let sim = Simulation::new();
    let (fs, wan, up, down) = origin(&sim);
    let data = image(4);
    let fh = put_file(&fs, "img", &data);
    let recipe = generate_content_map(&mut fs.lock(), fh, CHUNK).unwrap();
    let chan = ChannelClient::new(RpcClient::new(wan.clone(), cred()));
    // A client that gives up: two attempts, 200 ms apart.
    let impatient = ChannelClient::new(RpcClient::new(wan, cred()).with_policy(RetryPolicy {
        first_timeout: SimDuration::from_millis(200),
        max_timeout: SimDuration::from_millis(200),
        max_attempts: 2,
        jitter_frac: 0.0,
    }));
    sim.spawn("client", move |env: Env| {
        let warm = || {
            let cas = ContentStore::new(1 << 20);
            cas.insert(&data[..CHUNK as usize]);
            cas
        };
        let warm = || [warm(), warm()];
        let bad_stream = Err(ChannelError::Status(ChanStatus::BadStream));
        let stale_handle = Err(ChannelError::Status(ChanStatus::Stale));
        let gone = Handle {
            fileid: 999,
            generation: 9,
        };

        // Stale recipe: record 2 names a digest the origin's bytes do
        // not hash to, whether it travels alone or in an envelope.
        let mut stale = recipe.clone();
        stale.records[2].0 = Digest(1, 2);
        for batch in [1, 4] {
            let (pinned, materialized, left) =
                resolve_both(&env, &chan, fh, &stale, batch, &warm());
            assert_eq!(pinned, bad_stream, "batch {batch}");
            assert_eq!(materialized.map(drop), bad_stream, "batch {batch}");
            assert_eq!(left, (0, 0), "batch {batch}: pins leaked");
        }

        // Item failure: every blob of a vanished file answers Stale in
        // its own slot of an otherwise healthy envelope.
        let (pinned, materialized, left) = resolve_both(&env, &chan, gone, &recipe, 4, &warm());
        assert_eq!(pinned, stale_handle);
        assert_eq!(materialized.map(drop), stale_handle);
        assert_eq!(left, (0, 0), "pins leaked");

        // Oversized blob: a CAS smaller than one chunk retains nothing,
        // so nothing can be pinned, and a materialized fetch, which
        // reads through pins, cannot succeed either.
        let tiny = [0, 1].map(|_| ContentStore::new(CHUNK as u64 / 2));
        let (pinned, materialized, left) = resolve_both(&env, &chan, fh, &recipe, 4, &tiny);
        assert_eq!(pinned, Err(ChannelError::NotRetained));
        assert_eq!(materialized, Err(ChannelError::NotRetained));
        assert_eq!(left, (0, 0), "pins leaked");

        // Envelope RPC failure: the WAN goes dark for longer than the
        // client is willing to retransmit.
        let dark = |seed| {
            LinkFaultPlan::new(seed).outage(env.now(), env.now() + SimDuration::from_secs(60))
        };
        up.install_faults(dark(1));
        down.install_faults(dark(3));
        let timed_out = Err(ChannelError::Rpc(RpcError::TimedOut));
        let (pinned, materialized, left) = resolve_both(&env, &impatient, fh, &recipe, 4, &warm());
        assert_eq!(pinned, timed_out);
        assert_eq!(materialized.map(drop), timed_out);
        assert_eq!(left, (0, 0), "pins leaked");
    });
    sim.run();
}

/// An origin that answers every `FETCH_BLOBS`, alone or in an envelope,
/// with one canned reply.
struct CannedOrigin(Vec<u8>);

impl RpcProgram for CannedOrigin {
    fn program(&self) -> u32 {
        CHANNEL_PROGRAM
    }

    fn version(&self) -> u32 {
        CHANNEL_V1
    }

    fn call(
        &self,
        _env: &Env,
        _cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<xdr::Bytes, ProgramError> {
        let item = BatchReplyItem {
            stat: BATCH_OK,
            result: self.0.clone(),
        };
        match proc {
            chanproc::FETCH_BLOBS => Ok(item.result.into()),
            chanproc::FETCH_BLOBS_BATCH => {
                let asked =
                    oncrpc::batch::decode_batch(args).map_err(|_| ProgramError::GarbageArgs)?;
                Ok(oncrpc::batch::encode_batch_reply(&vec![item; asked.len()]).into())
            }
            _ => Err(ProgramError::ProcUnavail),
        }
    }
}

/// A `FETCH_BLOBS` reply: `Ok | len | compressed | payload`.
fn blob_reply(len: u64, compressed: bool, payload: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u32(0);
    enc.put_u64(len);
    enc.put_bool(compressed);
    enc.put_opaque_var(payload);
    enc.into_bytes()
}

#[test]
fn a_blob_reply_that_fails_verification_never_reaches_the_cas() {
    let chunk: Vec<u8> = (0..CHUNK).map(|i| (i % 251) as u8).collect();
    let mut other = chunk.clone();
    other[7] ^= 1;
    let recipe = ContentMap {
        chunk_bytes: CHUNK,
        total: CHUNK as u64,
        records: vec![(gvfs::digest::digest(&chunk), CHUNK)],
    };
    let packed = gvfs::codec::compress(&chunk);
    let len = CHUNK as u64;
    // (what the origin answers, whether it is the recipe's chunk)
    let replies = [
        ("honest, compressed", blob_reply(len, true, &packed), true),
        ("honest, raw", blob_reply(len, false, &chunk), true),
        (
            "other bytes",
            blob_reply(len, true, &gvfs::codec::compress(&other)),
            false,
        ),
        ("other bytes, raw", blob_reply(len, false, &other), false),
        (
            "another length",
            blob_reply(len, true, &gvfs::codec::compress(&chunk[..900])),
            false,
        ),
        (
            "a length it does not have",
            blob_reply(len - 1, true, &packed),
            false,
        ),
        (
            "no stream at all",
            blob_reply(len, true, &packed[..packed.len() / 2]),
            false,
        ),
    ];
    for (what, reply, honest) in replies {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(100));
        let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(100));
        let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
        let origin = Dispatcher::new().register(Rc::new(CannedOrigin(reply)));
        ep.listener.serve("origin", origin.into_handler(), 2);
        let chan = ChannelClient::new(RpcClient::new(ep.channel, cred()));
        let (recipe, chunk) = (recipe.clone(), chunk.clone());
        sim.spawn("client", move |env: Env| {
            let fh = Handle {
                fileid: 5,
                generation: 1,
            };
            for batch in [1, 4] {
                let cas = [0, 1].map(|_| ContentStore::new(1 << 20));
                let (pinned, materialized, left) =
                    resolve_both(&env, &chan, fh, &recipe, batch, &cas);
                if honest {
                    assert_eq!(pinned, Ok(()), "{what}");
                    assert_eq!(materialized.as_ref(), Ok(&chunk), "{what}");
                    for cas in &cas {
                        assert_eq!(cas.get(&recipe.records[0].0).unwrap(), chunk, "{what}");
                    }
                    assert_eq!(left, (CHUNK as u64, 0), "{what}");
                } else {
                    let bad_stream = Err(ChannelError::Status(ChanStatus::BadStream));
                    assert_eq!(pinned, bad_stream, "{what}, batch {batch}");
                    assert_eq!(materialized.map(drop), bad_stream, "{what}, batch {batch}");
                    let entries = cas.each_ref().map(|c| c.entries());
                    assert_eq!((entries, left), ([0, 0], (0, 0)), "{what}: reached the CAS");
                }
            }
        });
        sim.run();
    }
}

/// Counts the blobs asked of `inner`: one per `FETCH_BLOBS` call and one
/// per item of a `FETCH_BLOBS_BATCH` envelope.
struct CountBlobs {
    inner: Rc<dyn RpcHandler>,
    blobs: Rc<Cell<u64>>,
}

impl RpcHandler for CountBlobs {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        if let Ok(RpcMessage::Call { header, args }) = RpcMessage::decode_shared(request) {
            let asked = match (header.prog, header.proc) {
                (CHANNEL_PROGRAM, chanproc::FETCH_BLOBS) => 1,
                (CHANNEL_PROGRAM, chanproc::FETCH_BLOBS_BATCH) => {
                    oncrpc::batch::decode_batch(&args).map_or(0, |items| items.len() as u64)
                }
                _ => 0,
            };
            self.blobs.set(self.blobs.get() + asked);
        }
        self.inner.handle(env, request)
    }
}

/// A copy-on-write proxy whose content-map hint went stale (the origin's
/// file changed after its meta-data was made) tries the recipe once:
/// every blob is asked for in one attempt, the failure is counted and
/// traced once, and the guest reads the origin's bytes through the one
/// chunked fallback.
#[test]
fn a_failed_recipe_fetch_is_tried_once() {
    let sim = Simulation::new();
    let h = sim.handle();
    h.telemetry().set_trace(true);
    let disk = Disk::new(&h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(&h, disk.clone(), ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
    let chan = FileChannelServer::new(fs.clone(), disk, true, None);
    let nfsd = Dispatcher::new()
        .register(server)
        .register(mount)
        .register(chan)
        .into_handler();
    let blobs = Rc::new(Cell::new(0));
    let up = Link::from_mbps(&h, "wan-up", 100.0, SimDuration::from_millis(5));
    let down = Link::from_mbps(&h, "wan-down", 100.0, SimDuration::from_millis(5));
    let wan = oncrpc::endpoint(&h, up, down, WireSpec::plain());
    let counted = CountBlobs {
        inner: nfsd,
        blobs: blobs.clone(),
    };
    wan.listener.serve("nfsd", Rc::new(counted), 8);

    // Five distinct records; then record 2 changes under the meta-data.
    let data = image(4);
    let fh = put_file(&fs, "golden.vmss", &data);
    let spec = FileChannelSpec {
        compress: true,
        writeback: false,
    };
    let meta = Middleware::generate_meta_chunked(
        &mut fs.lock(),
        "",
        "golden.vmss",
        CHUNK,
        CHUNK,
        false,
        Some(spec),
    )
    .unwrap();
    assert_eq!(meta.content_map.unwrap().records.len(), 5);
    let mut now = data;
    now[2 * CHUNK as usize] ^= 0xFF;
    fs.lock().write(fh, 0, &now, 0).unwrap();

    let cfg = ProxyConfig {
        name: "cow-proxy".into(),
        cow: CowTuning::on(),
        ..ProxyConfig::default()
    };
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, None, Some(64 << 20));
    let upstream = RpcClient::new(wan.channel, cred());
    let tier = Tier::start(cfg, &volume, upstream, Listen::loopback(&h));
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred()));
    let want = now.clone();
    sim.spawn("guest", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (f, _) = nfs.lookup(&env, root, "golden.vmss").unwrap();
        let mut got = Vec::new();
        while got.len() < want.len() {
            let r = nfs.read(&env, f, got.len() as u64, CHUNK).unwrap();
            got.extend_from_slice(&r.data);
        }
        assert_eq!(got, want, "the guest must read the origin's bytes");
    });
    sim.run();

    assert_eq!(blobs.get(), 5, "the recipe was tried again");
    let snap = h.telemetry().snapshot();
    assert_eq!(snap.counter_sum("gvfs", ".recovered_errors"), 1);
    assert_eq!(snap.counter_sum("gvfs", ".cow.ref_installs"), 0);
    let fallbacks: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == "channel_fallback")
        .collect();
    assert_eq!(fallbacks.len(), 1);
    assert!(
        fallbacks[0]
            .labels
            .contains(&("error", "Status(BadStream)".to_string())),
        "{:?}",
        fallbacks[0].labels
    );
}
