//! Property tests over arbitrary fault schedules: any combination of
//! packet loss, WAN outages, and server restarts may slow a client down
//! or surface clean errors — but must never lose an acknowledged byte,
//! violate the RFC 1813 §3.3.7 write-verifier contract, or (absent a
//! restart) leak a duplicated non-idempotent side effect past the
//! duplicate-request cache.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nfs3::proto::{StableHow, Status};
use nfs3::{MountServer, Nfs3Client, Nfs3Server, NfsError, ServerConfig};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RetryPolicy, RpcClient, WireSpec};
use proptest::prelude::*;
use simnet::Shared;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};

const BS: u64 = 4096;
const NBLOCKS: u64 = 6;

fn t(secs: u64) -> SimTime {
    SimTime::from_nanos(secs * 1_000_000_000)
}

fn payload(b: u64) -> Vec<u8> {
    (0..BS as u32)
        .map(|i| ((i as u64 + b * 31) % 249) as u8)
        .collect()
}

/// What the client observed, for post-simulation verification.
#[derive(Default)]
struct Observed {
    /// FILE_SYNC write acknowledged per block.
    synced: Vec<bool>,
    /// UNSTABLE write confirmed durable (its write verifier matched a
    /// successful COMMIT's verifier) per block.
    confirmed: Vec<bool>,
    /// A MKDIR of a fresh name came back `Status::Exist` — only a server
    /// restart (which clears the duplicate-request cache) may cause this.
    spurious_exist: bool,
}

proptest! {
    /// Drive an NFSv3 client over a WAN whose loss rate, outage windows,
    /// and server restart times are all arbitrary. Afterwards, inspect
    /// the server's filesystem directly:
    ///
    /// * every block whose FILE_SYNC WRITE was acknowledged is byte-exact;
    /// * every UNSTABLE block confirmed by a matching COMMIT verifier is
    ///   byte-exact (restarts in between force re-sends, mismatched
    ///   verifiers mean "not durable" and are retried or abandoned);
    /// * with no restart scheduled, a retransmitted MKDIR never leaks
    ///   `Status::Exist` — the duplicate-request cache replays the
    ///   original reply instead of re-executing.
    #[test]
    fn acknowledged_bytes_survive_any_fault_schedule(
        seed in any::<u64>(),
        drop in 0.0f64..0.25,
        outages in proptest::collection::vec((0u64..60, 1u64..15), 0..3),
        restarts in proptest::collection::vec(1u64..70, 0..3),
    ) {
        let sim = Simulation::new();
        let h = sim.handle();
        let disk = Disk::new(&h, DiskModel::server_array());
        let (fs, server) = Nfs3Server::with_new_fs(&h, disk, ServerConfig::default());
        let mount = MountServer::new(fs.clone(), vec!["/".to_string()]);
        let handler = Dispatcher::new()
            .register(server.clone())
            .register(mount)
            .into_handler();

        let up = Link::from_mbps(&h, "up", 6.0, SimDuration::from_millis(17));
        let down = Link::from_mbps(&h, "down", 14.0, SimDuration::from_millis(17));
        let mut up_plan = LinkFaultPlan::new(seed).drop_prob(drop);
        let mut down_plan = LinkFaultPlan::new(seed.wrapping_add(1)).drop_prob(drop);
        for (start, len) in &outages {
            up_plan = up_plan.outage(t(*start), t(start + len));
            down_plan = down_plan.outage(t(*start), t(start + len));
        }
        up.install_faults(up_plan);
        down.install_faults(down_plan);
        let ep = oncrpc::endpoint(&h, up, down, WireSpec::plain());
        ep.listener.serve("nfsd", handler, 8);

        for at in &restarts {
            let srv = server.clone();
            let at = *at;
            sim.spawn("chaos", move |env: Env| {
                env.sleep(t(at).saturating_since(env.now()));
                srv.restart(env.now().as_nanos());
            });
        }

        let sync_file;
        let unstable_file;
        {
            let mut f = fs.lock();
            let root = f.root();
            sync_file = f.create(root, "sync.img", 0o644, 0).unwrap();
            unstable_file = f.create(root, "unstable.img", 0o644, 0).unwrap();
        }

        let cred = OpaqueAuth::sys(&AuthSys::new("prop", 1, 1));
        let nfs = Nfs3Client::new(
            RpcClient::new(ep.channel, cred).with_policy(RetryPolicy::wan()),
        );
        let no_restarts = restarts.is_empty();
        let observed: Shared<Observed> = Shared::new(Observed::default());
        let obs = observed.clone();
        sim.spawn("client", move |env: Env| {
            let mut seen = Observed::default();
            // Phase 1: FILE_SYNC writes — durable the instant they are
            // acknowledged, restarts notwithstanding.
            for b in 0..NBLOCKS {
                let ok = nfs
                    .write(&env, sync_file, b * BS, payload(b), StableHow::FileSync)
                    .is_ok();
                seen.synced.push(ok);
            }
            // Phase 2: UNSTABLE writes + COMMIT with verifier checking,
            // re-sending on mismatch exactly like the proxy's flush.
            let mut verfs: Vec<Option<u64>> = (0..NBLOCKS)
                .map(|b| {
                    nfs.write(&env, unstable_file, b * BS, payload(b), StableHow::Unstable)
                        .ok()
                        .map(|r| r.verf)
                })
                .collect();
            let mut confirmed = vec![false; NBLOCKS as usize];
            for _round in 0..4 {
                let commit_verf = nfs.commit(&env, unstable_file).ok();
                let mut all_ok = true;
                for b in 0..NBLOCKS as usize {
                    if confirmed[b] {
                        continue;
                    }
                    if verfs[b].is_some() && verfs[b] == commit_verf {
                        confirmed[b] = true;
                    } else {
                        all_ok = false;
                        verfs[b] = nfs
                            .write(
                                &env,
                                unstable_file,
                                b as u64 * BS,
                                payload(b as u64),
                                StableHow::Unstable,
                            )
                            .ok()
                            .map(|r| r.verf);
                    }
                }
                if all_ok {
                    break;
                }
            }
            seen.confirmed = confirmed;
            // Phase 3: non-idempotent MKDIRs of fresh names. The DRC must
            // absorb retransmits; Status::Exist can only leak if a restart
            // wiped the cache between executions.
            let root = match nfs.mount(&env, "/") {
                Ok(r) => r,
                Err(_) => {
                    *obs.lock() = seen;
                    return;
                }
            };
            for i in 0..3u32 {
                if let Err(NfsError::Status(Status::Exist)) =
                    nfs.mkdir(&env, root, &format!("dir{i}"))
                {
                    seen.spurious_exist = true;
                }
            }
            *obs.lock() = seen;
        });
        sim.run();

        let seen = observed.lock();
        let mut f = fs.lock();
        let check = |f: &mut Fs, fh: Handle, b: u64| -> Vec<u8> {
            f.read(fh, b * BS, BS as usize, 0).map(|(d, _)| d.to_vec()).unwrap_or_default()
        };
        for b in 0..NBLOCKS as usize {
            if seen.synced.get(b).copied().unwrap_or(false) {
                prop_assert!(
                    check(&mut f, sync_file, b as u64) == payload(b as u64),
                    "acknowledged FILE_SYNC block {} lost (drop={}, outages={:?}, restarts={:?})",
                    b, drop, &outages, &restarts
                );
            }
            if seen.confirmed.get(b).copied().unwrap_or(false) {
                prop_assert!(
                    check(&mut f, unstable_file, b as u64) == payload(b as u64),
                    "verifier-confirmed UNSTABLE block {} lost (drop={}, outages={:?}, restarts={:?})",
                    b, drop, &outages, &restarts
                );
            }
        }
        if no_restarts {
            prop_assert!(
                !seen.spurious_exist,
                "DRC leaked a duplicated MKDIR as Status::Exist with no restart scheduled \
                 (drop={}, outages={:?})",
                drop, &outages
            );
        }
    }
}
