//! Golden-vector suite pinning the NFS result bytes from outside.
//!
//! Two fixed scenarios render every reply as `label -> result-hex`:
//!
//! 1. the server's own READ / WRITE / COMMIT / GETATTR / LOOKUP replies,
//!    success and each failure body (status only, post-op attributes,
//!    wcc data), taken straight from [`RpcProgram::call`];
//! 2. the replies a write-back GVFS proxy answers *locally* — warm block
//!    cache hits (a full block, a sub-block read, a short EOF-tail block
//!    and a read starting past that tail's end), zero-map filtered READs,
//!    absorbed WRITEs, the local COMMIT and a size-patched GETATTR —
//!    beside the forwarded replies they follow.
//!
//! `tests/golden/nfs_wire.txt` was recorded from the code as it stood
//! *before* server, client stub and proxy were folded onto one result
//! codec, when each of them still encoded these bodies by hand — so the
//! bytes are pinned from outside the module that now writes them. Blocks
//! are 64 bytes to keep the vectors readable. Regenerate (only when the
//! wire format intentionally changes) with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p nfs3 --test nfs_wire_golden
//! ```

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::{BlockCacheConfig, ImageServer, Listen, Middleware, ProxyConfig, Tier};
use nfs3::args::{CommitArgs, ReadArgs, WriteArgs};
use nfs3::proto::{proc3, DirOpArgs3, StableHow};
use nfs3::{Fh3, Nfs3Client, Nfs3Server, ServerConfig, NFS_PROGRAM, NFS_V3};
use oncrpc::{AuthSys, OpaqueAuth, RpcClient, RpcProgram};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};

const FIXTURE: &str = include_str!("golden/nfs_wire.txt");
/// Block size of the proxy's cache and of the zero map.
const BS: u32 = 64;

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Deterministic `len` bytes, never zero.
fn payload(what: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(7) % 199 + what)
        .collect()
}

fn read_args(h: Handle, offset: u64, count: u32) -> Vec<u8> {
    xdr::to_bytes(&ReadArgs {
        file: Fh3(h),
        offset,
        count,
    })
}

fn write_args(h: Handle, offset: u64, data: Vec<u8>, stable: StableHow) -> Vec<u8> {
    xdr::to_bytes(&WriteArgs {
        file: Fh3(h),
        offset,
        count: data.len() as u32,
        stable,
        data: &data,
    })
}

fn commit_args(h: Handle) -> Vec<u8> {
    xdr::to_bytes(&CommitArgs {
        file: Fh3(h),
        offset: 0,
        count: 0,
    })
}

fn lookup_args(dir: Handle, name: &str) -> Vec<u8> {
    xdr::to_bytes(&DirOpArgs3 {
        dir: Fh3(dir),
        name: name.to_string(),
    })
}

fn seed(fs: &Arc<Mutex<Fs>>, name: &str, contents: &[u8], size: Option<u64>) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let h = f.create(root, name, 0o644, 0).unwrap();
    if let Some(s) = size {
        f.setattr(h, Some(s), None, 0).unwrap();
    }
    f.write(h, 0, contents, 0).unwrap();
    h
}

/// The server's own replies, success and failure.
fn render_server() -> String {
    let sim = Simulation::new();
    let h = sim.handle();
    let disk = Disk::new(&h, DiskModel::server_array());
    let (fs, srv) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
    let file = seed(&fs, "f", &payload(1, 100), None);
    let (root, dir) = {
        let mut f = fs.lock();
        let root = f.root();
        (root, f.mkdir(root, "d", 0o755, 0).unwrap())
    };
    let stale = Handle {
        fileid: 999,
        generation: 9,
    };
    let out: Arc<Mutex<Vec<String>>> = Arc::default();
    let out2 = out.clone();
    sim.spawn("t", move |env| {
        let cred = OpaqueAuth::sys(&AuthSys::new("golden", 1, 1));
        let calls: Vec<(&str, u32, Vec<u8>)> = vec![
            ("getattr ok", proc3::GETATTR, xdr::to_bytes(&Fh3(file))),
            ("getattr stale", proc3::GETATTR, xdr::to_bytes(&Fh3(stale))),
            ("lookup ok", proc3::LOOKUP, lookup_args(root, "f")),
            ("lookup noent", proc3::LOOKUP, lookup_args(root, "nope")),
            ("lookup notdir", proc3::LOOKUP, lookup_args(file, "x")),
            ("read mid", proc3::READ, read_args(file, 10, 40)),
            ("read to eof", proc3::READ, read_args(file, 80, 64)),
            ("read past eof", proc3::READ, read_args(file, 200, 16)),
            ("read dir", proc3::READ, read_args(dir, 0, 16)),
            ("read stale", proc3::READ, read_args(stale, 0, 16)),
            (
                "write unstable",
                proc3::WRITE,
                write_args(file, 96, payload(9, 12), StableHow::Unstable),
            ),
            (
                "write filesync",
                proc3::WRITE,
                write_args(file, 0, payload(5, 8), StableHow::FileSync),
            ),
            (
                "write dir",
                proc3::WRITE,
                write_args(dir, 0, payload(5, 8), StableHow::Unstable),
            ),
            (
                "write stale",
                proc3::WRITE,
                write_args(stale, 0, payload(5, 8), StableHow::Unstable),
            ),
            ("commit ok", proc3::COMMIT, commit_args(file)),
            ("commit stale", proc3::COMMIT, commit_args(stale)),
            ("getattr after", proc3::GETATTR, xdr::to_bytes(&Fh3(file))),
        ];
        for (label, proc, args) in calls {
            let line = match srv.call(&env, &cred, proc, &args) {
                Ok(res) => format!("server {label} -> {}", to_hex(&res)),
                Err(e) => format!("server {label} -> !{e:?}"),
            };
            out2.lock().push(line);
        }
    });
    sim.run();
    let lines = out.lock();
    lines.join("\n") + "\n"
}

/// The replies a write-back proxy with a block cache gives, local and
/// forwarded.
fn render_proxy() -> String {
    let sim = Simulation::new();
    let h = sim.handle();
    let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
    let origin = ImageServer::start(
        &h,
        Listen::plain(link("o-up"), link("o-down")),
        768 << 20,
        false,
    );
    let fs = origin.fs;
    let bs = BS as usize;
    // Three full blocks and a 20-byte tail.
    let img = seed(&fs, "img", &payload(3, 3 * bs + 20), None);
    // Memory state: one live block, the rest holes, ending mid-block.
    let mem = seed(&fs, "mem", &payload(7, bs), Some(5 * BS as u64 - 10));
    let other = seed(&fs, "other", &payload(11, 30), None);
    Middleware::generate_meta(&mut fs.lock(), "", "mem", BS, true, None).unwrap();

    let cred = OpaqueAuth::sys(&AuthSys::new("golden", 1, 1));
    let front = Tier::start(
        ProxyConfig {
            name: "golden-proxy".into(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig {
            banks: 1,
            sets_per_bank: 4,
            assoc: 4,
            block_size: BS,
        }),
        None,
        &Disk::new(&h, DiskModel::scsi_2004()),
        RpcClient::new(origin.channel, cred.clone()),
        Listen::plain(link("p-up"), link("p-down")),
    );
    let rpc = RpcClient::new(front.channel, cred);

    let out: Arc<Mutex<Vec<String>>> = Arc::default();
    let out2 = out.clone();
    sim.spawn("guest", move |env: Env| {
        let nfs = Nfs3Client::new(rpc.clone());
        let root = nfs.mount(&env, "/").unwrap();
        let b = BS as u64;
        let calls: Vec<(&str, u32, Vec<u8>)> = vec![
            // LOOKUPs go upstream; the proxy peeks at the handle to find
            // `mem`'s meta file.
            ("lookup img", proc3::LOOKUP, lookup_args(root, "img")),
            ("lookup mem", proc3::LOOKUP, lookup_args(root, "mem")),
            ("lookup noent", proc3::LOOKUP, lookup_args(root, "nope")),
            ("read img b0 cold", proc3::READ, read_args(img, 0, BS)),
            ("read img b0 warm", proc3::READ, read_args(img, 0, BS)),
            ("read img b0 sub-block", proc3::READ, read_args(img, 16, 24)),
            ("read img tail cold", proc3::READ, read_args(img, 3 * b, BS)),
            ("read img tail warm", proc3::READ, read_args(img, 3 * b, BS)),
            (
                "read img past tail",
                proc3::READ,
                read_args(img, 3 * b + 40, 8),
            ),
            ("read mem live", proc3::READ, read_args(mem, 0, BS)),
            ("read mem zero", proc3::READ, read_args(mem, 2 * b, BS)),
            ("read mem zero tail", proc3::READ, read_args(mem, 4 * b, BS)),
            ("read mem past eof", proc3::READ, read_args(mem, 6 * b, BS)),
            (
                "write img b1 full",
                proc3::WRITE,
                write_args(img, b, payload(21, bs), StableHow::Unstable),
            ),
            (
                "write img b0 partial",
                proc3::WRITE,
                write_args(img, 8, payload(22, 12), StableHow::FileSync),
            ),
            (
                "write img extend",
                proc3::WRITE,
                write_args(img, 300, payload(23, 10), StableHow::Unstable),
            ),
            ("commit img", proc3::COMMIT, commit_args(img)),
            (
                "getattr img patched",
                proc3::GETATTR,
                xdr::to_bytes(&Fh3(img)),
            ),
            ("getattr other", proc3::GETATTR, xdr::to_bytes(&Fh3(other))),
            ("read img b1 rewritten", proc3::READ, read_args(img, b, BS)),
        ];
        for (label, proc, args) in calls {
            let line = match rpc.call(&env, NFS_PROGRAM, NFS_V3, proc, &args) {
                Ok(res) => format!("proxy {label} -> {}", to_hex(&res)),
                Err(e) => format!("proxy {label} -> !{e:?}"),
            };
            out2.lock().push(line);
        }
    });
    let tel = h.telemetry().clone();
    sim.run();
    // The scenario only pins local replies if they were answered locally.
    let snap = tel.snapshot();
    let count = |name: &str| snap.counter("gvfs", &format!("golden-proxy.{name}"));
    assert_eq!(count("zero_filtered"), 3);
    assert_eq!(count("writes_absorbed"), 3);
    assert_eq!(snap.counter("gvfs", "block-cache.hits"), 5);
    let lines = out.lock();
    lines.join("\n") + "\n"
}

#[test]
fn nfs_result_bytes_are_byte_identical() {
    let rendered = render_server() + &render_proxy();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/nfs_wire.txt");
        std::fs::write(path, &rendered).unwrap();
        return;
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    let actual: Vec<&str> = rendered.lines().collect();
    for (exp, act) in expected.iter().zip(actual.iter()) {
        assert_eq!(exp, act, "a reply drifted from the pinned bytes");
    }
    assert_eq!(expected.len(), actual.len(), "reply count drifted");
}
