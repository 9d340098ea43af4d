//! Cloning scenarios (paper §4.3, Figure 6 and Table 1).
//!
//! A "golden" image (320 MB RAM / 1.6 GB disk) lives on the WAN image
//! server, pre-processed by middleware (zero map + compressed file
//! channel for the `.vmss`). Clonings are timed end-to-end: copy config,
//! copy memory state, symlink the virtual disk, configure, resume.
//!
//! * **WAN-S1** — one image cloned eight times sequentially to the same
//!   compute server (temporal locality: later clones hit the proxy's
//!   caches).
//! * **WAN-S2** — eight different images cloned once each (no locality).
//! * **WAN-S3** — eight different images, new to this compute server but
//!   pre-cached on a LAN second-level proxy by earlier clonings for
//!   other machines in the same LAN.
//! * **WAN-P** — eight clonings in parallel from one image server
//!   (Table 1): the WAN uplink is shared, so the speedup is ~7×, not 8×.
//! * Baselines: full-image SCP copy, and cloning over pure NFS (no GVFS:
//!   8 KB blocks, no pipelining, no caches).

use std::rc::Rc;

use gvfs::{
    BlockCacheConfig, CacheVolume, CowTuning, DedupTuning, FileChannelSpec, FleetTuning,
    IdentityMapper, ImageServer, Listen, Middleware, ProxyConfig, Tier, WritePolicy,
};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{AuthSys, OpaqueAuth, RpcChannel, RpcClient};
use simnet::Shared;
use simnet::{Env, Link, SimDuration, SimHandle, Simulation, Snapshot};
use vfs::{Disk, DiskModel, Fs, LocalIo, LocalIoConfig, MountTable};
use vmm::{clone_vm, diverge_image, install_image, CloneConfig, CloneTimes, VmConfig, VmImageSpec};
use workloads::scp::ScpModel;

use crate::scenarios::NetParams;

/// Sequential cloning scenarios of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CloneScenario {
    /// Images on the compute server's local disk.
    Local,
    /// One golden image, eight sequential clones (temporal locality).
    WanS1,
    /// Eight different images, sequential (no locality).
    WanS2,
    /// Eight different images pre-cached on a LAN second-level proxy.
    WanS3,
}

impl CloneScenario {
    /// Paper's label.
    pub fn label(self) -> &'static str {
        match self {
            CloneScenario::Local => "Local",
            CloneScenario::WanS1 => "WAN-S1",
            CloneScenario::WanS2 => "WAN-S2",
            CloneScenario::WanS3 => "WAN-S3",
        }
    }

    /// All four, in the figure's order.
    pub fn all() -> [CloneScenario; 4] {
        [
            CloneScenario::Local,
            CloneScenario::WanS1,
            CloneScenario::WanS2,
            CloneScenario::WanS3,
        ]
    }
}

/// Harness parameters for cloning runs.
#[derive(Debug, Clone, Copy)]
pub struct CloneParams {
    /// Network calibration.
    pub net: NetParams,
    /// Number of clonings per scenario (paper: 8).
    pub clones: usize,
    /// Number of distinct golden images to install; `None` keeps the
    /// historical one-image-per-clone behaviour. Setup cost is
    /// O(images), not O(clones): clone `i` uses image `i % images`, so
    /// a fleet of hundreds of clones no longer installs hundreds of
    /// golden images just to exercise arrival pressure.
    pub images: Option<usize>,
    /// Kernel client buffer (kept small: the copy streams through it).
    pub kernel_cache_bytes: u64,
    /// Proxy cache capacity.
    pub proxy_cache_bytes: u64,
    /// Use a reduced image for quick runs (tests); `None` = paper size.
    pub image_scale: Option<u64>,
    /// Content-map / CAS record size the middleware uses when it
    /// pre-processes the golden `.vmss` files. The figure scenarios keep
    /// the historical 1 MB records; fleet runs use small records so a
    /// cold transfer is many round-trips — the regime the shard tier's
    /// batching targets.
    pub cas_chunk_bytes: u32,
    /// Content-addressed redundancy elimination on the client-side and
    /// LAN proxies (the server proxy never dedups: it sits on the
    /// server's own LAN, so a CAS there can avoid no WAN bytes).
    pub dedup: DedupTuning,
    /// Fleet RPC batching on the proxy tiers (client proxies fetch
    /// multi-digest envelopes; LAN/shard proxies coalesce concurrent
    /// misses upstream). `off()` — the default — keeps every
    /// pre-fleet scenario byte-identical.
    pub fleet: FleetTuning,
    /// Fixed VMM device-restore CPU per resume. Defaults to the paper's
    /// 6 s figure for a full-size 320 MB VM; reduced-scale probes may
    /// scale it down with the image (as the fleet scenario does) so a
    /// constant CPU term does not bury the data path being measured.
    pub device_cpu: SimDuration,
    /// Fixed VMM configure CPU per clone (full-size figure: 3 s),
    /// scaled like `device_cpu` where appropriate.
    pub configure_cpu: SimDuration,
    /// Copy-on-write reference-file cloning on the caching proxies: a
    /// clone whose golden content is CAS-resident installs as a recipe
    /// (zero disk-install cost) and flushes only diverged chunks.
    /// `on` by default for the cloning scenarios; requires `dedup` (the
    /// knob is inert without a CAS), so dedup-off ablations are
    /// unaffected. `off()` reproduces the pre-CoW paths exactly.
    pub cow: CowTuning,
    /// Collect trace events (carried into the scenario's [`Snapshot`]).
    pub trace: bool,
}

impl Default for CloneParams {
    fn default() -> Self {
        CloneParams {
            net: NetParams::default(),
            clones: 8,
            images: None,
            kernel_cache_bytes: 32 << 20,
            proxy_cache_bytes: 8 << 30,
            image_scale: None,
            cas_chunk_bytes: 1 << 20,
            dedup: DedupTuning::default(),
            fleet: FleetTuning::off(),
            device_cpu: SimDuration::from_secs(6),
            configure_cpu: SimDuration::from_secs(3),
            cow: CowTuning::on(),
            trace: false,
        }
    }
}

impl CloneParams {
    fn image_spec(&self, name: &str) -> VmImageSpec {
        let mut spec = VmImageSpec::clone_benchmark(name);
        if let Some(scale) = self.image_scale {
            spec.memory_bytes /= scale;
            spec.disk_bytes /= scale;
        }
        spec
    }

    /// Configuration of a caching proxy tier called `name` in these
    /// scenarios: the three tunings under test, everything else default.
    fn tier_config(&self, name: String) -> ProxyConfig {
        ProxyConfig {
            name,
            dedup: self.dedup,
            fleet: self.fleet,
            cow: self.cow,
            ..ProxyConfig::default()
        }
    }

    /// A LAN second-level proxy (the WAN-S3 cache, a fleet shard): a
    /// write-through block cache on a server-class disk, and the channel
    /// blobs it relays in its CAS, forwarding to `upstream`, reachable
    /// over the LAN pair `<links>-up/-down`.
    pub(crate) fn start_lan_tier(
        &self,
        h: &SimHandle,
        name: String,
        links: &str,
        upstream: RpcClient,
    ) -> Tier {
        let lan = |dir| {
            let name = format!("{links}-{dir}");
            Link::from_mbps(h, name, self.net.lan_mbps, self.net.lan_oneway)
        };
        let cfg = ProxyConfig {
            write_policy: WritePolicy::WriteThrough,
            ..self.tier_config(name)
        };
        let disk = Disk::new(h, DiskModel::server_array());
        let geometry = BlockCacheConfig::paper(self.proxy_cache_bytes);
        let volume = CacheVolume::new(h, disk, &cfg, Some(geometry), None);
        Tier::start(
            cfg,
            &volume,
            upstream,
            Listen::tunnel(lan("up"), lan("down")),
        )
    }

    /// Whether CoW cloning is actually in effect: the knob is inert
    /// without a CAS to resolve recipes against, so dedup-off runs are
    /// bit-identical whatever `cow` says.
    pub(crate) fn cow_active(&self) -> bool {
        self.cow.enabled && self.dedup.enabled
    }

    /// How the GVFS cloning scenarios clone: VMM costs from these
    /// parameters, and a CoW memory copy when CoW is in effect.
    fn clone_config(&self) -> CloneConfig {
        CloneConfig {
            vm: self.vm_config(),
            configure_cpu: self.configure_cpu,
            cow_memory: self.cow_active(),
            ..CloneConfig::default()
        }
    }

    pub(crate) fn vm_config(&self) -> VmConfig {
        VmConfig {
            guest_cache_fraction: 0.12,
            // Restoring a 320 MB VM's devices on a 2004 hosted VMM is
            // slow (several seconds of VMware work beyond the file I/O).
            device_cpu: self.device_cpu,
            ..VmConfig::default()
        }
    }
}

/// Fraction of each sibling image's memory that diverges from the
/// shared golden base (clustered per [`vmm::DIVERGE_REGION`]).
const SIBLING_DIVERGENCE: f64 = 0.04;

/// Per-image divergence seed (distinct from any content seed).
fn diverge_seed(i: usize) -> u64 {
    0xD1CE_0000 + i as u64
}

/// Install image `i` of a clone fleet into `dir`: every image is built
/// from the same golden base (identical content seed), then images
/// beyond the first diverge in a clustered ~4% of their memory state —
/// the picture a grid sees when distinct VMs descend from one install.
fn install_fleet_image(
    fs: &mut Fs,
    dir: vfs::Handle,
    params: &CloneParams,
    i: usize,
) -> VmImageSpec {
    let spec = params.image_spec(&format!("vm{i}"));
    let img = install_image(fs, dir, &spec).unwrap();
    if i > 0 {
        diverge_image(fs, &img, &spec, diverge_seed(i), SIBLING_DIVERGENCE).unwrap();
    }
    spec
}

/// Install `n` golden images (+ their middleware meta-data) under
/// `/exports` of the image-server fs. Returns their specs.
pub(crate) fn install_goldens(fs: &Shared<Fs>, params: &CloneParams, n: usize) -> Vec<VmImageSpec> {
    let fs = &mut *fs.lock();
    let root = fs.root();
    let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
    (0..n)
        .map(|i| {
            let spec = install_fleet_image(fs, dir, params, i);
            // Middleware pre-processing: zero map + compressed file
            // channel on the memory state (after divergence, so the
            // content map describes the bytes actually served).
            Middleware::generate_meta_chunked(
                fs,
                "exports",
                &spec.vmss_name(),
                32 * 1024,
                params.cas_chunk_bytes,
                true,
                Some(FileChannelSpec {
                    compress: true,
                    writeback: false,
                }),
            )
            .unwrap();
            spec
        })
        .collect()
}

/// The WAN image server every GVFS cloning scenario clones from.
fn build_wan_server(h: &SimHandle, params: &CloneParams) -> ImageServer {
    let net = &params.net;
    let up = Link::from_mbps(h, "wan-up", net.wan_up_mbps, net.wan_oneway);
    let down = Link::from_mbps(h, "wan-down", net.wan_down_mbps, net.wan_oneway);
    ImageServer::start(h, Listen::tunnel(up, down), 768 << 20, true)
}

/// One compute host — `user`'s session (local disk, client-side caching
/// proxy toward `upstream`) under a kernel mount — as the mount table
/// its clonings run against.
pub(crate) fn build_compute_host(
    mw: &Middleware,
    mapper: &Rc<IdentityMapper>,
    user: &str,
    upstream: RpcChannel,
    params: &CloneParams,
    kernel_cfg: KernelConfig,
    env: &Env,
) -> MountTable {
    let session = mw.start_session(
        mapper,
        user,
        &RpcClient::new(upstream, OpaqueAuth::none()),
        params.tier_config("client-proxy".into()),
        Some(BlockCacheConfig::paper(params.proxy_cache_bytes)),
        Some(params.proxy_cache_bytes),
    );
    let kc =
        KernelClient::mount(env, Nfs3Client::new(session.rpc()), "/exports", kernel_cfg).unwrap();
    let local = LocalIo::new(session.volume.disk.clone(), LocalIoConfig::default(), 0);
    MountTable::new().mount("/", local).mount("/mnt/gvfs", kc)
}

/// Result of a sequential cloning scenario: per-clone step times.
#[derive(Debug, Clone)]
pub struct CloneResult {
    /// Scenario label.
    pub scenario: String,
    /// One entry per cloning, in order.
    pub times: Vec<CloneTimes>,
    /// Final virtual time of the whole scenario simulation.
    pub total_virtual_secs: f64,
    /// Telemetry registry snapshot taken after the simulation drained.
    pub snapshot: Snapshot,
    /// Scheduler events the simulation processed end-to-end (the
    /// wall-clock harness divides this by host time for events/sec).
    pub events_processed: u64,
    /// Processes (coroutines) the simulation spawned end-to-end.
    pub processes_spawned: u64,
}

impl CloneResult {
    /// Total seconds across all clonings.
    pub fn total_secs(&self) -> f64 {
        self.times.iter().map(|t| t.total.as_secs_f64()).sum()
    }
}

/// Run a sequential cloning scenario.
pub fn run_cloning(scenario: CloneScenario, params: &CloneParams) -> CloneResult {
    let sim = Simulation::new();
    let h = sim.handle();
    if params.trace {
        h.telemetry().set_trace(true);
    }
    let out: Shared<Vec<CloneTimes>> = Shared::new(Vec::new());
    let n = params.clones;
    let kcfg = KernelConfig {
        cache_bytes: params.kernel_cache_bytes,
        ..KernelConfig::default()
    };

    match scenario {
        CloneScenario::Local => {
            let local = LocalIo::new(
                Disk::new(&h, DiskModel::scsi_2004()),
                LocalIoConfig::default(),
                0,
            );
            let specs: Vec<VmImageSpec> = {
                let mut got = Vec::new();
                local.with_fs(|fs| {
                    let root = fs.root();
                    let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
                    for i in 0..n {
                        got.push(install_fleet_image(fs, dir, params, i));
                    }
                });
                got
            };
            let table = MountTable::new().mount("/", local);
            let out2 = out.clone();
            let cfg = CloneConfig {
                vm: params.vm_config(),
                configure_cpu: params.configure_cpu,
                ..CloneConfig::default()
            };
            sim.spawn("cloner", move |env: Env| {
                for (i, spec) in specs.iter().enumerate() {
                    let (times, vm) =
                        clone_vm(&env, &table, "/exports", spec, &format!("/clone{i}"), cfg)
                            .unwrap();
                    vm.shutdown(&env).unwrap();
                    out2.lock().push(times);
                }
            });
        }
        CloneScenario::WanS1 | CloneScenario::WanS2 => {
            let server = build_wan_server(&h, params);
            let distinct = if scenario == CloneScenario::WanS1 {
                1
            } else {
                params.images.unwrap_or(n).max(1)
            };
            let specs = install_goldens(&server.fs, params, distinct);
            let mw = Middleware::new();
            let params2 = *params;
            let out2 = out.clone();
            sim.spawn("cloner", move |env: Env| {
                let host = build_compute_host(
                    &mw,
                    &server.mapper,
                    "clone-user",
                    server.channel.clone(),
                    &params2,
                    kcfg,
                    &env,
                );
                let cfg = params2.clone_config();
                for i in 0..n {
                    let spec = &specs[i % specs.len()];
                    let (times, vm) =
                        clone_vm(&env, &host, "/mnt/gvfs", spec, &format!("/clone{i}"), cfg)
                            .unwrap();
                    vm.shutdown(&env).unwrap();
                    out2.lock().push(times);
                }
            });
        }
        CloneScenario::WanS3 => {
            let server = build_wan_server(&h, params);
            let distinct = params.images.unwrap_or(n).max(1);
            let specs = install_goldens(&server.fs, params, distinct);
            let mw = Middleware::new();
            let (_sid, cred) = mw.establish_session(&server.mapper, "clone-user");

            // The LAN second-level proxy, forwarding over the WAN.
            let wan = RpcClient::new(server.channel.clone(), cred);
            let lan = params.start_lan_tier(&h, "lan-cache-proxy".into(), "lan", wan);

            let params2 = *params;
            let out2 = out.clone();
            sim.spawn("cloner", move |env: Env| {
                let cfg = params2.clone_config();
                let fresh_host = || {
                    build_compute_host(
                        &mw,
                        &server.mapper,
                        "clone-user",
                        lan.channel.clone(),
                        &params2,
                        kcfg,
                        &env,
                    )
                };
                // Warm-up: another compute server on the same LAN clones
                // each image first (not timed).
                let warm_host = fresh_host();
                for (i, spec) in specs.iter().enumerate() {
                    let (_, vm) = clone_vm(
                        &env,
                        &warm_host,
                        "/mnt/gvfs",
                        spec,
                        &format!("/warm{i}"),
                        cfg,
                    )
                    .unwrap();
                    vm.shutdown(&env).unwrap();
                }
                // Timed clones cycle through the distinct images (one
                // pass each when `images` is unset).
                // Timed: a fresh compute server (cold local caches) whose
                // misses hit the warm LAN proxy.
                let host = fresh_host();
                for i in 0..n {
                    let spec = &specs[i % specs.len()];
                    let (times, vm) =
                        clone_vm(&env, &host, "/mnt/gvfs", spec, &format!("/clone{i}"), cfg)
                            .unwrap();
                    vm.shutdown(&env).unwrap();
                    out2.lock().push(times);
                }
            });
        }
    }

    let end = sim.run();
    let times = out.try_unwrap().unwrap_or_default();
    CloneResult {
        scenario: scenario.label().to_string(),
        times,
        total_virtual_secs: end.as_secs_f64(),
        snapshot: h.telemetry().snapshot(),
        events_processed: h.events_processed(),
        processes_spawned: h.processes_spawned(),
    }
}

/// Parallel-cloning result (Table 1).
#[derive(Debug, Clone)]
pub struct ParallelResult {
    /// Wall time for the 8 parallel clonings, cold caches.
    pub cold_secs: f64,
    /// Wall time repeated with warm caches.
    pub warm_secs: f64,
    /// Final virtual time of the whole scenario simulation.
    pub total_virtual_secs: f64,
    /// Telemetry registry snapshot taken after the simulation drained.
    pub snapshot: Snapshot,
    /// Scheduler events the simulation processed end-to-end (the
    /// wall-clock harness divides this by host time for events/sec).
    pub events_processed: u64,
    /// Processes (coroutines) the simulation spawned end-to-end.
    pub processes_spawned: u64,
}

/// Table 1's WAN-P: `clones` compute servers clone in parallel from one
/// image server, sharing its WAN connection; then repeat warm.
pub fn run_parallel_cloning(params: &CloneParams) -> ParallelResult {
    run_two_pass_cloning(params, true)
}

/// Sequential total for Table 1's first row: same 8 images, same
/// configuration, but cloned one after another on one compute server
/// (cold pass), then all over again (warm pass).
pub fn run_sequential_for_table1(params: &CloneParams) -> ParallelResult {
    run_two_pass_cloning(params, false)
}

/// Both rows of Table 1: `clones` clonings timed as a cold pass and
/// again as a warm pass — either every clone on a compute host of its
/// own (own session, own caches), all at once, or all of them in turn
/// on one host.
fn run_two_pass_cloning(params: &CloneParams, parallel: bool) -> ParallelResult {
    let sim = Simulation::new();
    let h = sim.handle();
    if params.trace {
        h.telemetry().set_trace(true);
    }
    let n = params.clones;
    let server = build_wan_server(&h, params);
    // Setup is O(images), not O(clones): clone `i` uses image
    // `i % images` (one image per clone when `images` is unset).
    let distinct = params.images.unwrap_or(n).max(1);
    let specs = install_goldens(&server.fs, params, distinct);
    let mw = Middleware::new();
    let kcfg = KernelConfig {
        cache_bytes: params.kernel_cache_bytes,
        ..KernelConfig::default()
    };
    let pass_secs = Shared::new([0.0f64; 2]);
    let params2 = *params;
    let pass_secs2 = pass_secs.clone();
    let mapper = server.mapper.clone();
    let channel = server.channel.clone();
    let driver = if parallel { "coordinator" } else { "cloner" };
    sim.spawn(driver, move |env: Env| {
        let cfg = params2.clone_config();
        let hosts: Vec<MountTable> = (0..if parallel { n } else { 1 })
            .map(|i| {
                let user = if parallel {
                    format!("user{i}")
                } else {
                    "seq-user".to_string()
                };
                build_compute_host(&mw, &mapper, &user, channel.clone(), &params2, kcfg, &env)
            })
            .collect();
        let shared = Rc::new((hosts, specs));
        let tag = if parallel { 'p' } else { 's' };
        for pass in 0..2 {
            let t0 = env.now();
            let mut joins = Vec::new();
            for i in 0..n {
                let shared = shared.clone();
                let clone_one = move |env: &Env| {
                    let (hosts, specs) = &*shared;
                    let (_, vm) = clone_vm(
                        env,
                        &hosts[i % hosts.len()],
                        "/mnt/gvfs",
                        &specs[i % specs.len()],
                        &format!("/{tag}{pass}clone{i}"),
                        cfg,
                    )
                    .unwrap();
                    vm.shutdown(env).unwrap();
                };
                if parallel {
                    let name = format!("clone-p{pass}-{i}");
                    joins.push(env.spawn(name, move |env| clone_one(&env)));
                } else {
                    clone_one(&env);
                }
            }
            for j in joins {
                j.join(&env);
            }
            pass_secs2.lock()[pass] = (env.now() - t0).as_secs_f64();
        }
    });
    let end = sim.run();
    let [cold_secs, warm_secs] = *pass_secs.lock();
    ParallelResult {
        cold_secs,
        warm_secs,
        total_virtual_secs: end.as_secs_f64(),
        snapshot: h.telemetry().snapshot(),
        events_processed: h.events_processed(),
        processes_spawned: h.processes_spawned(),
    }
}

/// Baseline: transfer the entire image (config + memory + disk) with SCP.
pub fn scp_baseline_secs(params: &CloneParams) -> f64 {
    let sim = Simulation::new();
    let h = sim.handle();
    let down = Link::from_mbps(
        &h,
        "wan-down",
        params.net.wan_down_mbps,
        params.net.wan_oneway,
    );
    let spec = params.image_spec("vm0");
    let total = spec.memory_bytes + spec.disk_bytes + 4096;
    let model = ScpModel::default();
    let est = model.idle_copy_time(&down, total).as_secs_f64();
    drop(sim);
    est
}

/// Baseline: clone over pure NFS — no GVFS proxies, 2004 defaults
/// (rsize 8 KB, no read pipelining), memory state pulled block by block.
pub fn pure_nfs_clone_secs(params: &CloneParams) -> f64 {
    let sim = Simulation::new();
    let h = sim.handle();
    let up = Link::from_mbps(&h, "wan-up", params.net.wan_up_mbps, params.net.wan_oneway);
    let down = Link::from_mbps(
        &h,
        "wan-down",
        params.net.wan_down_mbps,
        params.net.wan_oneway,
    );
    let server = ImageServer::start(&h, Listen::plain(up, down), 768 << 20, false);
    let spec = {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let spec = params.image_spec("vm0");
        install_image(&mut fs, dir, &spec).unwrap();
        spec
    };
    let out = Shared::new(0.0f64);
    let out2 = out.clone();
    let params2 = *params;
    sim.spawn("cloner", move |env: Env| {
        let cred = OpaqueAuth::sys(&AuthSys::new("compute", 500, 500));
        let nfs = Nfs3Client::new(RpcClient::new(server.channel.clone(), cred));
        let kc = KernelClient::mount(
            &env,
            nfs,
            "/exports",
            KernelConfig {
                rsize: 8 * 1024,
                max_inflight: 1,
                cache_bytes: params2.kernel_cache_bytes,
                ..KernelConfig::default()
            },
        )
        .unwrap();
        let local = LocalIo::new(
            Disk::new(env.handle(), DiskModel::scsi_2004()),
            LocalIoConfig::default(),
            0,
        );
        let table = MountTable::new().mount("/", local).mount("/mnt/nfs", kc);
        let cfg = CloneConfig {
            vm: params2.vm_config(),
            configure_cpu: params2.configure_cpu,
            // Pure NFS moves the memory copy in protocol-sized chunks.
            copy_chunk: 8 * 1024,
            ..CloneConfig::default()
        };
        let t0 = env.now();
        let (_, vm) = clone_vm(&env, &table, "/mnt/nfs", &spec, "/clone0", cfg).unwrap();
        vm.shutdown(&env).unwrap();
        *out2.lock() = (env.now() - t0).as_secs_f64();
    });
    sim.run();
    let secs = *out.lock();
    secs
}
