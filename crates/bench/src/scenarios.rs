//! Scenario topologies for the paper's evaluation (§4.1).
//!
//! Calibrated substitutes for the paper's testbed:
//!
//! * **LAN**: 100 Mb/s Ethernet at the University of Florida,
//!   ~0.2 ms one-way.
//! * **WAN**: Abilene between Northwestern and Florida; per-stream
//!   effective throughput calibrated against the paper's own transfer
//!   numbers (SCP of a 1.9 GB image ≈ 1127 s ⇒ ~14 Mb/s down;
//!   full-state upload 4633 s for 2.5 GB ⇒ ~4.6 Mb/s up), one-way
//!   ~17 ms.
//! * Compute servers: 2004-era SCSI disks (~6 ms seek, 40 MB/s);
//!   image servers: RAID arrays (~4 ms, 60 MB/s).
//!
//! Four application scenarios, exactly as §4.2.1 defines them:
//! `Local`, `LAN`, `WAN` (GVFS proxies + SSH tunnels, no disk cache),
//! `WAN+C` (client-side proxy disk caching enabled).

use std::sync::Arc;

use gvfs::{
    BlockCacheConfig, DedupTuning, GvfsSession, ImageServer, Listen, Middleware, ProxyConfig,
};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{OpaqueAuth, RetryPolicy, RpcClient};
use parking_lot::Mutex;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation, Snapshot};
use vfs::{Disk, DiskModel, FileType, Fs, LocalIo, LocalIoConfig, MountTable};
use vmm::{install_image, VmConfig, VmImageSpec, VmMonitor};
use workloads::Workload;

/// Network calibration.
#[derive(Debug, Clone, Copy)]
pub struct NetParams {
    /// WAN server→client bandwidth (Mb/s).
    pub wan_down_mbps: f64,
    /// WAN client→server bandwidth (Mb/s).
    pub wan_up_mbps: f64,
    /// WAN one-way latency.
    pub wan_oneway: SimDuration,
    /// LAN bandwidth (Mb/s).
    pub lan_mbps: f64,
    /// LAN one-way latency.
    pub lan_oneway: SimDuration,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            wan_down_mbps: 14.0,
            wan_up_mbps: 6.0,
            wan_oneway: SimDuration::from_millis(17),
            lan_mbps: 100.0,
            lan_oneway: SimDuration::from_micros(200),
        }
    }
}

/// Fault-injection schedule for the failure-domain benchmark. With
/// [`AppParams::fault`] set to `None` (the default) the topology is
/// identical to the fault-free harness: no fault plans are installed and
/// no retransmission policy is attached, so baseline timings do not move.
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// Seed for the deterministic per-message drop RNG. The WAN uplink
    /// uses `seed`, the downlink `seed + 1`.
    pub seed: u64,
    /// Per-message drop probability applied to each WAN direction for the
    /// whole run. Loss is silence: the client sees only its own timeout.
    pub drop_prob: f64,
    /// Start of the WAN outage window, in virtual seconds.
    pub outage_start_secs: f64,
    /// Outage length in virtual seconds; `0.0` disables the outage.
    pub outage_secs: f64,
    /// Restart the image server at this virtual time, discarding its
    /// unstable writes and rotating its write verifier (RFC 1813 §3.3.7).
    pub restart_at_secs: Option<f64>,
}

impl FaultSpec {
    fn plan(&self, seed: u64) -> LinkFaultPlan {
        let mut plan = LinkFaultPlan::new(seed).drop_prob(self.drop_prob);
        if self.outage_secs > 0.0 {
            let start = SimTime::from_nanos((self.outage_start_secs * 1e9) as u64);
            let end =
                SimTime::from_nanos(((self.outage_start_secs + self.outage_secs) * 1e9) as u64);
            plan = plan.outage(start, end);
        }
        plan
    }
}

/// The four application-execution scenarios of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppScenario {
    /// VM state on the compute server's local disk.
    Local,
    /// NFS mount from the LAN image server through GVFS proxies/tunnels.
    Lan,
    /// Same over the WAN.
    Wan,
    /// WAN plus client-side proxy disk caching.
    WanC,
}

impl AppScenario {
    /// Paper's label.
    pub fn label(self) -> &'static str {
        match self {
            AppScenario::Local => "Local",
            AppScenario::Lan => "LAN",
            AppScenario::Wan => "WAN",
            AppScenario::WanC => "WAN+C",
        }
    }

    /// All four, in the paper's order.
    pub fn all() -> [AppScenario; 4] {
        [
            AppScenario::Local,
            AppScenario::Lan,
            AppScenario::Wan,
            AppScenario::WanC,
        ]
    }
}

/// Harness tuning (things the paper fixes in §4.1).
#[derive(Debug, Clone, Copy)]
pub struct AppParams {
    /// Network calibration.
    pub net: NetParams,
    /// Kernel NFS client buffer cache (limited memory capacity is the
    /// motivation for proxy *disk* caches).
    pub kernel_cache_bytes: u64,
    /// Proxy disk cache capacity (paper: 8 GB, 512 banks, 16-way).
    pub proxy_cache_bytes: u64,
    /// Server memory cache.
    pub server_cache_bytes: u64,
    /// Collect trace events (carried into the scenario's [`Snapshot`]).
    pub trace: bool,
    /// Fault-injection schedule for the network scenarios; `None` (the
    /// default) runs fault-free.
    pub fault: Option<FaultSpec>,
    /// Content-addressed dedup on the client-side proxy.
    /// [`DedupTuning::off()`] reproduces the pre-CAS WAN paths exactly.
    pub dedup: DedupTuning,
}

impl Default for AppParams {
    fn default() -> Self {
        AppParams {
            net: NetParams::default(),
            kernel_cache_bytes: 96 << 20,
            proxy_cache_bytes: 8 << 30,
            server_cache_bytes: 768 << 20,
            trace: false,
            fault: None,
            dedup: DedupTuning::default(),
        }
    }
}

/// Per-phase timing of one benchmark run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// (phase name, seconds).
    pub phases: Vec<(String, f64)>,
    /// Sum of phases.
    pub total: f64,
}

/// Result of an application scenario.
#[derive(Debug, Clone)]
pub struct AppResult {
    /// Scenario label.
    pub scenario: String,
    /// One entry per consecutive run (run 0 cold, later runs warm).
    pub runs: Vec<AppRun>,
    /// Time to flush write-back contents after the last run, when a
    /// caching proxy was present.
    pub flush_secs: Option<f64>,
    /// Final virtual time of the whole scenario simulation.
    pub total_virtual_secs: f64,
    /// Telemetry registry snapshot taken after the simulation drained.
    pub snapshot: Snapshot,
    /// Content digest of the image server's filesystem after the
    /// simulation drained (network scenarios only). Fault runs compare
    /// this against the fault-free run to prove zero lost bytes.
    pub server_fs_digest: Option<u64>,
    /// Scheduler events the simulation processed end-to-end (the
    /// wall-clock harness divides this by host time for events/sec).
    pub events_processed: u64,
    /// Processes (OS threads) the simulation spawned end-to-end.
    pub processes_spawned: u64,
}

/// Digest over a deterministic recursive walk of a filesystem: path,
/// type, size, and full contents of every regular file (symlink targets
/// included). Timestamps are deliberately excluded so runs whose virtual
/// clocks diverged (fault injection) still compare equal when the bytes
/// do.
///
/// Word-at-a-time (FNV-1a over 64-bit words, byte strings entering as
/// their canonical [`gvfs::digest`]) and never reads zeros: file contents
/// are walked in 64 KB steps of the file offset, an all-zero step only
/// lengthens the current zero run, and a run is mixed in as its length.
/// The steps are a function of the contents alone, so a hole and a
/// stored all-zero chunk digest identically. The value is only ever
/// compared between runs of one build, never recorded.
pub fn fs_digest(fs: &Arc<Mutex<Fs>>) -> u64 {
    const STEP: u64 = 64 * 1024;
    // Domain separators: a zero run's length can never pass for data.
    const ZERO_RUN: u64 = 0x5a45_524f_5f52_554e;
    const DATA: u64 = 0x4441_5441_5f5f_5f5f;
    fn mix_word(h: &mut u64, w: u64) {
        *h = (*h ^ w).wrapping_mul(0x100_0000_01b3);
    }
    fn mix(h: &mut u64, bytes: &[u8]) {
        let d = gvfs::digest::digest(bytes);
        mix_word(h, d.0);
        mix_word(h, d.1);
    }
    fn end_zero_run(h: &mut u64, zeros: &mut u64) {
        if *zeros > 0 {
            mix_word(h, ZERO_RUN);
            mix_word(h, *zeros);
            *zeros = 0;
        }
    }
    let mut f = fs.lock();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut stack = vec![(String::new(), f.root())];
    while let Some((path, dir)) = stack.pop() {
        let Ok(mut entries) = f.readdir(dir) else {
            continue;
        };
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        // The stack pops in reverse push order; push reversed so the walk
        // visits entries in sorted order.
        for (name, handle) in entries.into_iter().rev() {
            let p = format!("{path}/{name}");
            let Ok(attr) = f.getattr(handle) else {
                continue;
            };
            mix(&mut h, p.as_bytes());
            mix_word(&mut h, attr.size);
            match attr.ftype {
                FileType::Directory => stack.push((p, handle)),
                FileType::Regular => {
                    let mut zeros = 0u64;
                    let mut off = 0u64;
                    while off < attr.size {
                        let len = (attr.size - off).min(STEP);
                        if f.is_zero_range(handle, off, len as usize) == Ok(true) {
                            zeros += len;
                        } else {
                            let Ok((data, _)) = f.read(handle, off, len as usize, 0) else {
                                break;
                            };
                            end_zero_run(&mut h, &mut zeros);
                            mix_word(&mut h, DATA);
                            mix(&mut h, &data);
                        }
                        off += len;
                    }
                    end_zero_run(&mut h, &mut zeros);
                }
                FileType::Symlink => {
                    if let Ok(target) = f.readlink(handle) {
                        mix(&mut h, target.as_bytes());
                    }
                }
            }
        }
    }
    h
}

/// Execute `workload` `runs` consecutive times under `kind`, returning
/// per-phase times. Cold caches on run 0 (fresh everything); later runs
/// keep every cache warm, like the paper's consecutive kernel-compile
/// runs.
pub fn run_app_scenario(
    kind: AppScenario,
    workload: &Workload,
    params: &AppParams,
    runs: usize,
) -> AppResult {
    let sim = Simulation::new();
    let h = sim.handle();
    if params.trace {
        h.telemetry().set_trace(true);
    }
    let image = VmImageSpec::app_benchmark("appvm");
    let results: Arc<Mutex<AppResult>> = Arc::new(Mutex::new(AppResult {
        scenario: kind.label().to_string(),
        runs: Vec::new(),
        flush_secs: None,
        total_virtual_secs: 0.0,
        snapshot: Snapshot::default(),
        server_fs_digest: None,
        events_processed: 0,
        processes_spawned: 0,
    }));
    let mut server_fs: Option<Arc<Mutex<Fs>>> = None;

    let kcfg = KernelConfig {
        cache_bytes: params.kernel_cache_bytes,
        ..KernelConfig::default()
    };

    match kind {
        AppScenario::Local => {
            let local = LocalIo::new(
                Disk::new(&h, DiskModel::scsi_2004()),
                LocalIoConfig {
                    cache_bytes: params.kernel_cache_bytes,
                    ..LocalIoConfig::default()
                },
                0,
            );
            local.with_fs(|fs| {
                let root = fs.root();
                let dir = fs.mkdir(root, "vm", 0o755, 0).unwrap();
                install_image(fs, dir, &image).unwrap();
            });
            let table = MountTable::new().mount("/", local);
            let wl = workload.clone();
            let out = results.clone();
            sim.spawn("driver", move |env: Env| {
                let vm = VmMonitor::attach(&env, &table, "/vm", image, VmConfig::default(), None)
                    .unwrap();
                drive_runs(&env, &vm, &wl, runs, &out, None);
            });
        }
        AppScenario::Lan | AppScenario::Wan | AppScenario::WanC => {
            let (up, down) = match kind {
                AppScenario::Lan => (
                    Link::from_mbps(&h, "lan-up", params.net.lan_mbps, params.net.lan_oneway),
                    Link::from_mbps(&h, "lan-down", params.net.lan_mbps, params.net.lan_oneway),
                ),
                _ => (
                    Link::from_mbps(&h, "wan-up", params.net.wan_up_mbps, params.net.wan_oneway),
                    Link::from_mbps(
                        &h,
                        "wan-down",
                        params.net.wan_down_mbps,
                        params.net.wan_oneway,
                    ),
                ),
            };
            let listen = Listen::tunnel(up.clone(), down.clone());
            let server = ImageServer::start(&h, listen, params.server_cache_bytes, true);
            server_fs = Some(server.fs.clone());
            {
                let mut fs = server.fs.lock();
                let root = fs.root();
                let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
                install_image(&mut fs, dir, &image).unwrap();
            }
            if let Some(fault) = params.fault {
                // Faults live on the external links only; loopback hops
                // (kernel client → proxy, server proxy → kernel server)
                // stay reliable, as a local socket would.
                up.install_faults(fault.plan(fault.seed));
                down.install_faults(fault.plan(fault.seed.wrapping_add(1)));
                if let Some(at) = fault.restart_at_secs {
                    let srv = server.server.clone();
                    sim.spawn("chaos-restart", move |env: Env| {
                        env.sleep(SimDuration::from_secs_f64(at));
                        srv.restart(env.now().as_nanos());
                    });
                }
            }
            let mw = Middleware::new();
            // Fault-injection runs put a retransmission policy on whichever
            // stub faces the (faulted) external channel.
            let mut wan = RpcClient::new(server.channel.clone(), OpaqueAuth::none());
            if params.fault.is_some() {
                wan = wan.with_policy(RetryPolicy::wan());
            }
            // WAN+C: a client-side proxy with both disk caches. LAN/WAN:
            // the paper's plain GVFS data path — the kernel client mounts
            // the tunnelled server channel itself, no disk cache.
            let (stub, session) = if kind == AppScenario::WanC {
                let session = mw.start_session(
                    &server.mapper,
                    "griduser",
                    &wan,
                    ProxyConfig {
                        name: "client-proxy".into(),
                        dedup: params.dedup,
                        ..ProxyConfig::default()
                    },
                    Some(BlockCacheConfig::paper(params.proxy_cache_bytes)),
                    Some(params.proxy_cache_bytes),
                );
                (session.rpc(), Some(session))
            } else {
                let (_sid, cred) = mw.establish_session(&server.mapper, "griduser");
                (wan.with_cred(cred), None)
            };
            let wl = workload.clone();
            let out = results.clone();
            sim.spawn("driver", move |env: Env| {
                let nfs = Nfs3Client::new(stub);
                let kc = KernelClient::mount(&env, nfs, "/exports", kcfg).unwrap();
                let table = MountTable::new().mount("/mnt/gvfs", kc.clone());
                let vm =
                    VmMonitor::attach(&env, &table, "/mnt/gvfs", image, VmConfig::default(), None)
                        .unwrap();
                drive_runs(&env, &vm, &wl, runs, &out, session);
            });
        }
    }

    let end = sim.run();
    let mut res = Arc::try_unwrap(results)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    res.total_virtual_secs = end.as_secs_f64();
    res.snapshot = h.telemetry().snapshot();
    res.server_fs_digest = server_fs.as_ref().map(fs_digest);
    res.events_processed = h.events_processed();
    res.processes_spawned = h.processes_spawned();
    res
}

/// Shared run loop: cold run 0, warm runs after; flush timing at the end.
fn drive_runs(
    env: &Env,
    vm: &VmMonitor,
    wl: &Workload,
    runs: usize,
    out: &Arc<Mutex<AppResult>>,
    session: Option<GvfsSession>,
) {
    for _run in 0..runs {
        let mut phases = Vec::with_capacity(wl.phases.len());
        let run_start = env.now();
        for phase in &wl.phases {
            let t0 = env.now();
            vm.run(env, &phase.ops).unwrap();
            // Guest periodic sync: write costs belong to their phase.
            vm.sync_disk(env).unwrap();
            phases.push((phase.name.clone(), (env.now() - t0).as_secs_f64()));
        }
        let total = (env.now() - run_start).as_secs_f64();
        out.lock().runs.push(AppRun { phases, total });
    }
    vm.shutdown(env).unwrap();
    if let Some(session) = session {
        let t0 = env.now();
        session.flush(env);
        out.lock().flush_secs = Some((env.now() - t0).as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A filesystem holding one file, `size` bytes long, with `writes`
    /// applied in order.
    fn fs_with(size: u64, writes: &[(u64, &[u8])]) -> Arc<Mutex<Fs>> {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let dir = fs.mkdir(root, "vm", 0o755, 0).unwrap();
        let file = fs.create(dir, "disk.vmdk", 0o644, 0).unwrap();
        for (off, bytes) in writes {
            fs.write(file, *off, bytes, 0).unwrap();
        }
        fs.setattr(file, Some(size), None, 0).unwrap();
        Arc::new(Mutex::new(fs))
    }

    #[test]
    fn fs_digest_is_content_defined() {
        const STEP: usize = 64 * 1024;
        let size = 5 * STEP as u64 + 100;
        let data: Vec<u8> = (0..STEP + 777).map(|i| (i * 31 % 251) as u8 | 1).collect();
        let at = STEP as u64 + 13;
        let base = fs_digest(&fs_with(size, &[(at, &data)]));
        assert_eq!(base, fs_digest(&fs_with(size, &[(at, &data)])));

        // A hole and stored zeros are the same contents. Zeroing a chunk
        // that once held data keeps it allocated, unlike a hole.
        let zeros = vec![0u8; STEP];
        let stored = fs_with(
            size,
            &[
                (at, &data),
                (4 * STEP as u64, &[7u8; 64]),
                (4 * STEP as u64, &zeros),
            ],
        );
        assert_eq!(base, fs_digest(&stored));

        // Any single-byte flip shows: inside the data, at its edges, and
        // in what was a zero run (first byte, step boundary, last byte).
        let data_end = at + data.len() as u64;
        for pos in [
            0,
            at - 1,
            at,
            at + 4,
            data_end - 1,
            data_end,
            3 * STEP as u64,
            4 * STEP as u64 - 1,
            size - 1,
        ] {
            let mut byte = [1u8];
            if (at..data_end).contains(&pos) {
                byte[0] = data[(pos - at) as usize] ^ 0x80;
            }
            let flipped = fs_digest(&fs_with(size, &[(at, &data), (pos, &byte)]));
            assert_ne!(base, flipped, "flip at {pos} undetected");
        }

        // Any size change shows, also when only trailing zeros differ.
        for other in [size - 1, size + 1, size + STEP as u64, size - 100, 0] {
            let resized = fs_digest(&fs_with(other, &[(at, &data)]));
            assert_ne!(base, resized, "size {other} digests like {size}");
        }
    }
}
