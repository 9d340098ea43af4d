//! Fleet-scale cloning: a sharded proxy tree under seeded arrival load.
//!
//! Beyond the paper's eight-clone figures, this scenario asks what the
//! GVFS data path does when a *fleet* of clone requests arrives as open
//! traffic: one origin image server, `sites` LAN sites each fronted by a
//! second-level **shard proxy** (all sharing the origin's single WAN link
//! pair), and a few compute hosts per site, each with its own client
//! proxy. Requests are generated by a seeded [`ArrivalProcess`] (Poisson
//! or bursty on/off) and assigned image/site/divergence by a
//! [`ClonePopulation`] — the whole run replays bit-for-bit from its
//! seeds.
//!
//! The interesting knob is [`FleetTuning`] on the shard proxies: with
//! `shard()` they coalesce concurrent `FETCH_BLOBS` misses for the same
//! golden content into batched multi-digest WAN round-trips
//! (`FETCH_BLOBS_BATCH`); with `off()` every miss pays its own WAN call.
//! Clone latency lands in a [`simnet::PercentileSketch`] histogram, so the
//! report can state p50/p95/p99 under bursty arrivals instead of a mean
//! that hides the tail.

use std::cell::Cell;
use std::rc::Rc;

use gvfs::{CowTuning, DedupTuning, FleetTuning, ImageServer, Listen, Middleware, Tier};
use nfs3::KernelConfig;
use oncrpc::RpcClient;
use simnet::{ArrivalProcess, Env, Gauge, JsonValue, Link, SimDuration, Simulation, Snapshot};
use vmm::{clone_vm, CloneConfig, ClonePopulation, GuestOp};

use crate::cloning::{build_compute_host, install_goldens, CloneParams};
use crate::report::scenario_report;
use crate::scenarios::NetParams;

/// How the clone requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Memoryless Poisson arrivals at the mean rate.
    Poisson,
    /// Bursty on/off modulated Poisson: same long-run mean rate, but
    /// delivered in flash crowds (4× rate at 25% duty cycle).
    Bursty,
    /// Diurnal inhomogeneous Poisson: `rate_per_sec` is the *peak*; the
    /// instantaneous rate follows a [`DIURNAL_PERIOD_SECS`]-long day
    /// curve from a 10%-of-peak trough to the full peak and back
    /// (long-run mean ≈ 0.55 × peak). The 10k-fleet model.
    Diurnal,
}

/// Virtual length of one diurnal "day" — compressed so a 10k-clone run
/// spans most of a day's ramp without hours of virtual (and wall) time.
pub const DIURNAL_PERIOD_SECS: f64 = 600.0;

impl ArrivalMode {
    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ArrivalMode::Poisson => "poisson",
            ArrivalMode::Bursty => "bursty",
            ArrivalMode::Diurnal => "diurnal",
        }
    }
}

/// Virtual-time period between one shard's anti-entropy rounds (each
/// round pushes the local inventory delta to one peer, round-robin, and
/// pulls that peer's delta back): tens of rounds inside one cold cloning
/// wave.
const GOSSIP_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Parameters of one fleet run.
#[derive(Debug, Clone, Copy)]
pub struct FleetParams {
    /// Network calibration (the origin WAN pair and each site's LAN).
    pub net: NetParams,
    /// LAN sites, each with one shard proxy.
    pub sites: usize,
    /// Gossip regions the sites are partitioned into (`sites` must be a
    /// multiple). Shards gossip digest inventories and peer-serve blob
    /// misses *within* their region only, so cold content crosses the
    /// WAN once per region. Ignored (and irrelevant) unless
    /// `fleet.gossip()` is on; `1` = everyone is one region.
    pub regions: usize,
    /// Simulated users behind the requests (`0` = no user model, the
    /// pre-10k uniform image popularity). With users, each has a sticky
    /// preferred image, producing the warm/cold image skew of a real
    /// population.
    pub users: usize,
    /// Compute hosts per site (each with its own client proxy/caches).
    pub hosts_per_site: usize,
    /// Total clone requests driven through the fleet.
    pub clones: usize,
    /// Distinct golden images on the origin (installed once; satellite
    /// of PR 8 — setup is O(images), not O(clones)).
    pub images: usize,
    /// Seed for both the arrival process and the population assignment.
    pub seed: u64,
    /// Arrival model.
    pub arrival: ArrivalMode,
    /// Long-run mean arrival rate, clones per virtual second.
    pub rate_per_sec: f64,
    /// Image-size divisor (fleet runs use reduced images so 512 clones
    /// finish in sane wall time; the data path is unchanged).
    pub image_scale: Option<u64>,
    /// CAS record size the middleware uses for the golden `.vmss`
    /// content maps. Fleet runs use small records: a cold image is then
    /// many WAN round-trips, which is the regime shard batching targets
    /// (the figure scenarios keep the historical 32 KB).
    pub cas_chunk_bytes: u32,
    /// Shard-proxy batching/back-pressure tuning. `off()` is the
    /// ablation: identical topology, one WAN call per miss.
    pub fleet: FleetTuning,
    /// Content-addressed dedup on shard and client proxies.
    pub dedup: DedupTuning,
    /// Copy-on-write reference-file cloning on shard and client proxies
    /// (requires `dedup`; inert without it). `on` by default — a warm
    /// site's clones install as recipes instead of materialized copies.
    /// `off()` reproduces the pre-CoW fleet paths exactly.
    pub cow: CowTuning,
    /// Kernel client buffer on each compute host.
    pub kernel_cache_bytes: u64,
    /// Proxy disk cache capacity (shard and client tiers).
    pub proxy_cache_bytes: u64,
    /// Fixed VMM device-restore cost per resume. The paper's full-size
    /// figure is 6 s for a 320 MB VM; fleet runs shrink the images by
    /// `image_scale`, so constructors scale this down proportionally —
    /// otherwise a constant CPU term buries the data-path tail this
    /// scenario exists to measure.
    pub device_cpu: SimDuration,
    /// Fixed VMM configure cost per clone (full-size figure: 3 s),
    /// scaled like `device_cpu`.
    pub configure_cpu: SimDuration,
    /// Collect trace events.
    pub trace: bool,
}

/// `full / scale`, for deriving scaled VMM CPU costs.
fn scaled(full: SimDuration, scale: Option<u64>) -> SimDuration {
    SimDuration::from_nanos(full.as_nanos() / scale.unwrap_or(1).max(1))
}

/// The fleet scenario's network: a modern grid link, not the paper's
/// 2004 WAN. Long-haul bandwidth has grown three orders of magnitude
/// since the original testbed while round-trip latency is pinned by the
/// speed of light — which moves the cold-transfer bottleneck from
/// *bytes on the wire* to *round-trips in flight*, exactly the regime
/// the proxy tiers' RPC batching targets.
fn fleet_net() -> NetParams {
    NetParams {
        wan_down_mbps: 400.0,
        wan_up_mbps: 100.0,
        wan_oneway: SimDuration::from_millis(17),
        lan_mbps: 1000.0,
        lan_oneway: SimDuration::from_micros(200),
    }
}

impl Default for FleetParams {
    fn default() -> Self {
        FleetParams {
            net: fleet_net(),
            sites: 4,
            regions: 1,
            users: 0,
            hosts_per_site: 2,
            clones: 512,
            images: 8,
            seed: 0xF1EE7,
            arrival: ArrivalMode::Poisson,
            rate_per_sec: 1.0,
            image_scale: Some(64),
            cas_chunk_bytes: 8 * 1024,
            fleet: FleetTuning::shard(),
            dedup: DedupTuning::default(),
            cow: CowTuning::on(),
            kernel_cache_bytes: 32 << 20,
            proxy_cache_bytes: 8 << 30,
            device_cpu: scaled(SimDuration::from_secs(6), Some(64)),
            configure_cpu: scaled(SimDuration::from_secs(3), Some(64)),
            trace: false,
        }
    }
}

impl FleetParams {
    /// CI-sized smoke variant: 64 clones over 2 sites.
    pub fn smoke() -> Self {
        FleetParams {
            sites: 2,
            clones: 64,
            images: 4,
            image_scale: Some(128),
            device_cpu: scaled(SimDuration::from_secs(6), Some(128)),
            configure_cpu: scaled(SimDuration::from_secs(3), Some(128)),
            ..FleetParams::default()
        }
    }

    /// The 10,240-clone / 16-site / 4-region scale-out: diurnal arrivals
    /// from a 2,048-user population with image affinity, region gossip
    /// on the shard tier. `FleetTuning::shard()` (gossip off) on the
    /// same params is the ablation lane the WAN-reduction gate compares
    /// against.
    pub fn ten_k() -> Self {
        FleetParams {
            sites: 16,
            regions: 4,
            hosts_per_site: 2,
            clones: 10_240,
            images: 8,
            users: 2_048,
            arrival: ArrivalMode::Diurnal,
            // Peak rate: the diurnal mean is ≈ 0.55 × 48 ≈ 26 clones/s,
            // so the run spans most of one compressed virtual day.
            rate_per_sec: 48.0,
            image_scale: Some(128),
            device_cpu: scaled(SimDuration::from_secs(6), Some(128)),
            configure_cpu: scaled(SimDuration::from_secs(3), Some(128)),
            fleet: FleetTuning::region(),
            ..FleetParams::default()
        }
    }

    fn arrival_process(&self) -> ArrivalProcess {
        match self.arrival {
            ArrivalMode::Poisson => ArrivalProcess::poisson(self.seed, self.rate_per_sec),
            // 4× the mean rate at a 25% duty cycle keeps the long-run
            // rate equal while concentrating arrivals into flash crowds.
            ArrivalMode::Bursty => {
                ArrivalProcess::on_off(self.seed, self.rate_per_sec * 4.0, 8.0, 24.0)
            }
            ArrivalMode::Diurnal => {
                ArrivalProcess::diurnal(self.seed, self.rate_per_sec, DIURNAL_PERIOD_SECS)
            }
        }
    }

    /// The population view: user model iff `users > 0`.
    fn population(&self) -> ClonePopulation {
        if self.users > 0 {
            ClonePopulation::with_users(self.seed, self.images.max(1), self.sites, self.users)
        } else {
            ClonePopulation::new(self.seed, self.images.max(1), self.sites)
        }
    }

    /// The [`CloneParams`] view used for golden-image installation.
    fn clone_params(&self) -> CloneParams {
        CloneParams {
            net: self.net,
            clones: self.clones,
            images: Some(self.images),
            kernel_cache_bytes: self.kernel_cache_bytes,
            proxy_cache_bytes: self.proxy_cache_bytes,
            image_scale: self.image_scale,
            cas_chunk_bytes: self.cas_chunk_bytes,
            dedup: self.dedup,
            fleet: self.fleet,
            device_cpu: self.device_cpu,
            configure_cpu: self.configure_cpu,
            cow: self.cow,
            trace: self.trace,
        }
    }
}

/// Latency summary of one fleet run, straight from the percentile
/// sketch (values in virtual seconds).
#[derive(Debug, Clone, Copy)]
pub struct LatencySummary {
    /// Completed clones (every request must finish).
    pub count: u64,
    /// Median clone latency.
    pub p50_secs: f64,
    /// 95th percentile.
    pub p95_secs: f64,
    /// 99th percentile — where bursty arrivals live.
    pub p99_secs: f64,
    /// Mean.
    pub mean_secs: f64,
    /// Worst clone.
    pub max_secs: f64,
}

/// Result of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// `fleet-<arrival>-<batch|nobatch>` label.
    pub scenario: String,
    /// Clone latency percentiles.
    pub latency: LatencySummary,
    /// Per-site shard concurrency high-water marks (queue depth).
    pub shard_queue_high_water: Vec<u64>,
    /// Origin WAN downlink utilization over the whole run (0.0–1.0).
    pub wan_down_utilization: f64,
    /// Origin WAN uplink utilization over the whole run (0.0–1.0).
    pub wan_up_utilization: f64,
    /// Batched WAN round-trips and the items they carried, summed over
    /// shard proxies (0 with batching off).
    pub batches: u64,
    /// Items carried inside those batches.
    pub batched_items: u64,
    /// Raw origin WAN downlink bytes — the figure of merit the gossip
    /// ablation gates on (utilization divides by virtual time, which
    /// gossip also changes).
    pub wan_down_bytes: u64,
    /// Blob misses served by a sibling shard over the LAN instead of the
    /// WAN, summed over shards (0 with gossip off).
    pub gossip_peer_hits: u64,
    /// Logical chunk bytes those peer serves carried.
    pub gossip_peer_bytes: u64,
    /// Final virtual time of the run.
    pub total_virtual_secs: f64,
    /// Telemetry registry snapshot after the run drained.
    pub snapshot: Snapshot,
    /// Scheduler events processed end-to-end.
    pub events_processed: u64,
    /// Processes spawned end-to-end.
    pub processes_spawned: u64,
}

impl FleetResult {
    /// The run's slice of a `fleet` report, under `label`: the standard
    /// snapshot-derived body plus a `fleet` object with the latency
    /// percentiles and fleet telemetry and a `wan` object with the
    /// absolute byte counts the `--ten-k` gossip gate is computed from.
    pub fn report(&self, label: &str) -> JsonValue {
        let sites = self.shard_queue_high_water.len();
        let mut body = scenario_report(label, self.total_virtual_secs, &self.snapshot);
        body.push_field(
            "fleet",
            JsonValue::object([
                ("clones", JsonValue::Uint(self.latency.count)),
                ("p50_secs", JsonValue::Float(self.latency.p50_secs)),
                ("p95_secs", JsonValue::Float(self.latency.p95_secs)),
                ("p99_secs", JsonValue::Float(self.latency.p99_secs)),
                ("mean_secs", JsonValue::Float(self.latency.mean_secs)),
                ("max_secs", JsonValue::Float(self.latency.max_secs)),
                (
                    "shard_queue_high_water",
                    JsonValue::Array(
                        self.shard_queue_high_water
                            .iter()
                            .map(|w| JsonValue::Uint(*w))
                            .collect(),
                    ),
                ),
                (
                    "wan_down_utilization",
                    JsonValue::Float(self.wan_down_utilization),
                ),
                (
                    "wan_up_utilization",
                    JsonValue::Float(self.wan_up_utilization),
                ),
                ("batches", JsonValue::Uint(self.batches)),
                ("batched_items", JsonValue::Uint(self.batched_items)),
            ]),
        );
        body.push_field(
            "wan",
            JsonValue::object([
                ("down_bytes", JsonValue::Uint(self.wan_down_bytes)),
                (
                    "down_bytes_per_site",
                    JsonValue::Uint(self.wan_down_bytes / sites.max(1) as u64),
                ),
                ("gossip_peer_hits", JsonValue::Uint(self.gossip_peer_hits)),
                ("gossip_peer_bytes", JsonValue::Uint(self.gossip_peer_bytes)),
            ]),
        );
        body
    }
}

/// Run one fleet scenario. Everything — arrivals, assignment, data path,
/// report — is a pure function of `params`.
pub fn run_fleet(params: &FleetParams) -> FleetResult {
    let sim = Simulation::new();
    let h = sim.handle();
    if params.trace {
        h.telemetry().set_trace(true);
    }
    let cp = params.clone_params();

    // Origin image server behind its single WAN pair (shared by every
    // site: the whole point of the shard tier is what that sharing does).
    let wan_up = Link::from_mbps(&h, "wan-up", params.net.wan_up_mbps, params.net.wan_oneway);
    let wan_down = Link::from_mbps(
        &h,
        "wan-down",
        params.net.wan_down_mbps,
        params.net.wan_oneway,
    );
    let server = ImageServer::start(&h, Listen::tunnel(wan_up, wan_down), 768 << 20, true);
    let specs = install_goldens(&server.fs, &cp, params.images.max(1));
    let mw = Middleware::new();

    // One shard proxy per site: block + file caches + CAS, forwarding
    // over the shared WAN, serving its site's LAN endpoint. The shard is
    // where FleetTuning lives — concurrent misses from the site's hosts
    // coalesce here into batched WAN round-trips.
    let mut shards: Vec<Tier> = Vec::with_capacity(params.sites);
    let mut shard_gauges: Vec<Gauge> = Vec::with_capacity(params.sites);
    let mut shard_creds = Vec::with_capacity(params.sites);
    for s in 0..params.sites {
        let (_sid, cred) = mw.establish_session(&server.mapper, &format!("site{s}"));
        shard_creds.push(cred.clone());
        shards.push(cp.start_lan_tier(
            &h,
            format!("shard{s}"),
            &format!("lan{s}"),
            RpcClient::new(server.channel.clone(), cred),
        ));
        shard_gauges.push(h.telemetry().gauge("fleet", format!("shard{s}.inflight")));
    }

    // Region gossip wiring: partition the sites into `regions` equal
    // groups, hand every shard LAN clients for its in-region siblings,
    // and run one anti-entropy driver process per shard until the
    // coordinator reports the fleet drained. With gossip off none of
    // this exists — no peers, no drivers, no extra events — so the
    // gossip-off timeline is untouched.
    let gossip_on = params.fleet.gossip() && params.dedup.enabled && params.sites > 1;
    let gossip_stop = Rc::new(Cell::new(false));
    if gossip_on {
        assert!(
            params.regions >= 1 && params.sites.is_multiple_of(params.regions.max(1)),
            "sites must partition evenly into regions"
        );
        let span = params.sites / params.regions.max(1);
        for s in 0..params.sites {
            let region_start = (s / span) * span;
            let peers: Vec<(u32, RpcClient)> = (region_start..region_start + span)
                .filter(|&t| t != s)
                .map(|t| {
                    (
                        t as u32,
                        RpcClient::new(shards[t].channel.clone(), shard_creds[s].clone()),
                    )
                })
                .collect();
            shards[s].proxy.set_gossip_peers(s as u32, peers);
        }
        for (s, shard) in shards.iter().enumerate() {
            let shard = shard.proxy.clone();
            let stop = gossip_stop.clone();
            let mut rng = simnet::DetRng::new(params.seed ^ 0x60551F ^ s as u64);
            sim.spawn(format!("gossip{s}"), move |env: Env| {
                while !stop.get() {
                    // Deterministic per-round jitter (up to a quarter
                    // period) desynchronizes the shards' rounds so a
                    // region's pushes do not arrive in lockstep.
                    let jitter = rng.next_u64() % (GOSSIP_INTERVAL.as_nanos() / 4);
                    env.sleep(GOSSIP_INTERVAL + SimDuration::from_nanos(jitter));
                    shard.gossip_round(&env);
                }
            });
        }
    }

    let latency = h.telemetry().histogram("fleet", "clone_latency_ns");
    let pop = params.population();
    let mut arrivals = params.arrival_process();
    let offsets = arrivals.take_offsets(params.clones);

    let kcfg = KernelConfig {
        cache_bytes: params.kernel_cache_bytes,
        ..KernelConfig::default()
    };
    let mut vm = cp.vm_config();
    vm.device_cpu = params.device_cpu;
    let cfg = CloneConfig {
        vm,
        configure_cpu: params.configure_cpu,
        cow_memory: cp.cow_active(),
        ..CloneConfig::default()
    };

    let params2 = *params;
    let mapper = server.mapper.clone();
    let gauges = shard_gauges.clone();
    let sketch = latency.clone();
    let stop = gossip_stop.clone();
    sim.spawn("fleet-coordinator", move |env: Env| {
        // Hosts are built up-front, before the clock starts mattering:
        // a grid site's compute servers exist before the load shows up.
        let hosts: Vec<Vec<_>> = (0..params2.sites)
            .map(|s| {
                (0..params2.hosts_per_site)
                    .map(|k| {
                        build_compute_host(
                            &mw,
                            &mapper,
                            &format!("site{s}-host{k}"),
                            shards[s].channel.clone(),
                            &params2.clone_params(),
                            kcfg,
                            &env,
                        )
                    })
                    .collect()
            })
            .collect();
        let hosts = Rc::new(hosts);
        let specs = Rc::new(specs);
        // Warm-site prestage (CoW lanes only): before the arrival clock
        // starts, every host touches exactly the golden memory states
        // its site's future arrivals will request — pulling their
        // content through the shard into each client proxy, where CoW
        // installs it as a reference (untimed, like the S3 warm pass).
        // With CoW off this is skipped and the fleet runs cold, exactly
        // as before.
        if params2.cow.enabled && params2.dedup.enabled {
            for (s, site_hosts) in hosts.iter().enumerate() {
                for image in pop.images_for_site(s, params2.clones) {
                    for host in site_hosts {
                        let path = format!("/mnt/gvfs/{}", specs[image].vmss_name());
                        let f = host.open(&env, &path).expect("prestage open");
                        f.io.read(&env, f.handle, 0, 4096).expect("prestage read");
                        f.io.close(&env, f.handle).expect("prestage close");
                    }
                }
            }
        }
        let mut joins = Vec::with_capacity(params2.clones);
        let t_start = env.now();
        for (i, at) in offsets.iter().enumerate() {
            let due = t_start + *at;
            let now = env.now();
            if due > now {
                env.sleep(due - now);
            }
            let site = pop.site_of(i);
            // Within a site, spread clones across hosts by arrival order.
            let host_ix = (i / params2.sites) % params2.hosts_per_site;
            let image = pop.image_of(i);
            let hosts = hosts.clone();
            let specs = specs.clone();
            let gauge = gauges[site].clone();
            let sketch = sketch.clone();
            let diverge_bytes = pop.diverge_bytes_of(i, specs[image].memory_bytes);
            joins.push(env.spawn(format!("clone{i}"), move |env| {
                let t0 = env.now();
                gauge.inc();
                let host = &hosts[site][host_ix];
                let spec = &specs[image];
                let (_times, vm) =
                    clone_vm(&env, host, "/mnt/gvfs", spec, &format!("/clone{i}"), cfg)
                        .expect("clone_vm");
                // Population-driven divergence: the fresh clone dirties
                // its own slice of guest state before it counts as "up".
                let chunk = 64 * 1024u64;
                let mut written = 0u64;
                let mut off = (diverge_bytes.wrapping_mul(0x9E37)) % spec.disk_bytes.max(1);
                let mut ops = Vec::new();
                while written < diverge_bytes {
                    let len = chunk.min(diverge_bytes - written) as u32;
                    if off + len as u64 > spec.disk_bytes {
                        off = 0;
                    }
                    ops.push(GuestOp::DiskWrite { offset: off, len });
                    off += len as u64;
                    written += len as u64;
                }
                vm.run(&env, &ops).expect("divergence writes");
                vm.shutdown(&env).expect("shutdown");
                gauge.dec();
                sketch.record(env.now() - t0);
            }));
        }
        for j in joins {
            j.join(&env);
        }
        // Release the gossip drivers; each exits on its next tick, so
        // quiescence follows within one gossip period.
        stop.set(true);
    });

    let end = sim.run();
    let snapshot = h.telemetry().snapshot();
    let total_virtual_secs = end.as_secs_f64();
    let count = latency.count();
    assert_eq!(
        count, params.clones as u64,
        "every clone must complete and be recorded"
    );
    let q = |p: f64| latency.quantile_ns(p) as f64 / 1e9;
    let util = |name: &str, mbps: f64| {
        let bytes = snapshot.counter_sum("link", name);
        if total_virtual_secs > 0.0 {
            (bytes as f64 * 8.0) / (mbps * 1e6 * total_virtual_secs)
        } else {
            0.0
        }
    };
    let sum_shard = |name: &str| {
        (0..params.sites)
            .map(|s| snapshot.counter_sum("gvfs", &format!("shard{s}.fleet.{name}")))
            .sum()
    };
    let sum_gossip = |name: &str| {
        (0..params.sites)
            .map(|s| snapshot.counter_sum("gvfs", &format!("shard{s}.gossip.{name}")))
            .sum()
    };
    FleetResult {
        scenario: format!(
            "fleet-{}-{}{}",
            params.arrival.label(),
            if params.fleet.batching() {
                "batch"
            } else {
                "nobatch"
            },
            if params.fleet.gossip() { "-gossip" } else { "" }
        ),
        latency: LatencySummary {
            count,
            p50_secs: q(0.50),
            p95_secs: q(0.95),
            p99_secs: q(0.99),
            mean_secs: latency.mean_ns() as f64 / 1e9,
            max_secs: latency.max_ns() as f64 / 1e9,
        },
        shard_queue_high_water: shard_gauges.iter().map(|g| g.high_water()).collect(),
        wan_down_utilization: util("wan-down.bytes", params.net.wan_down_mbps),
        wan_up_utilization: util("wan-up.bytes", params.net.wan_up_mbps),
        batches: sum_shard("batches"),
        batched_items: sum_shard("batched_items"),
        wan_down_bytes: snapshot.counter_sum("link", "wan-down.bytes"),
        gossip_peer_hits: sum_gossip("peer_hits"),
        gossip_peer_bytes: sum_gossip("peer_bytes"),
        total_virtual_secs,
        snapshot,
        events_processed: h.events_processed(),
        processes_spawned: h.processes_spawned(),
    }
}
