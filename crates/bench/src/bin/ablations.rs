//! Ablations of the design choices DESIGN.md calls out (not a paper
//! figure — extra evidence for *why* each GVFS mechanism earns its keep):
//!
//! 1. write-back vs write-through proxy caching (SPECseis phase 1),
//! 2. zero-map meta-data on/off (memory-state read over pure block NFS),
//! 3. compressed file channel vs block transfer (one cloning),
//! 4. in-text claim at full scale: reads filtered when resuming a 512 MB
//!    post-boot image at 8 KB granularity (paper: 60,452 / 65,750).

use gvfs::{BlockCacheConfig, ImageServer, Listen, Middleware, ProxyConfig};
use gvfs_bench::report::{scenario_report, write_report, BenchCli};
use gvfs_bench::{
    run_app_scenario, run_cloning, AppParams, AppScenario, CloneParams, CloneScenario, NetParams,
};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{OpaqueAuth, RpcClient};
use simnet::{Link, Simulation};
use vfs::FileIo;
use vmm::{install_image, VmImageSpec};
use workloads::specseis::{generate, SpecseisParams};

fn wan(h: &simnet::SimHandle) -> (Link, Link) {
    let net = NetParams::default();
    (
        Link::from_mbps(h, "wan-up", net.wan_up_mbps, net.wan_oneway),
        Link::from_mbps(h, "wan-down", net.wan_down_mbps, net.wan_oneway),
    )
}

/// Resume-style full read of a memory image; returns (reads, filtered,
/// total virtual seconds, telemetry snapshot).
fn zero_filter_counts(
    memory_mb: u64,
    with_meta: bool,
    trace: bool,
) -> (u64, u64, f64, simnet::Snapshot) {
    let sim = Simulation::new();
    let h = sim.handle();
    if trace {
        h.telemetry().set_trace(true);
    }
    let (up, down) = wan(&h);
    let server = ImageServer::start(&h, Listen::tunnel(up, down), 768 << 20, true);
    let spec = VmImageSpec {
        name: "postboot".into(),
        memory_bytes: memory_mb << 20,
        disk_bytes: 64 << 20,
        mem_nonzero_fraction: 0.08,
        disk_used_fraction: 0.1,
        seed: 0x7373,
    };
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        install_image(&mut fs, dir, &spec).unwrap();
        if with_meta {
            Middleware::generate_meta(&mut fs, "exports", "postboot.vmss", 8 * 1024, true, None)
                .unwrap();
        }
    }
    let mw = Middleware::new();
    let session = mw.start_session(
        &server.mapper,
        "u",
        &RpcClient::new(server.channel.clone(), OpaqueAuth::none()),
        ProxyConfig {
            name: "client-proxy".into(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::paper(8 << 30)),
        Some(8 << 30),
    );
    let out = std::sync::Arc::new(parking_lot::Mutex::new((0u64, 0u64)));
    let out2 = out.clone();
    sim.spawn("resume", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let kc = KernelClient::mount(
            &env,
            nfs,
            "/exports",
            KernelConfig {
                rsize: 8 * 1024,
                wsize: 8 * 1024,
                ..KernelConfig::default()
            },
        )
        .unwrap();
        let fh = kc.lookup_path(&env, "postboot.vmss").unwrap();
        let mut off = 0u64;
        let total = memory_mb << 20;
        while off < total {
            let data = kc.read(&env, fh, off, 256 * 1024).unwrap();
            off += data.len() as u64;
        }
        let st = session.proxy.stats();
        *out2.lock() = (st.reads, st.zero_filtered);
    });
    let end = sim.run();
    let (reads, filtered) = *out.lock();
    (reads, filtered, end.as_secs_f64(), h.telemetry().snapshot())
}

fn main() {
    let cli = BenchCli::parse("ablations");
    let mut scenarios = Vec::new();
    println!("== Ablation 1: write-back vs write-through (SPECseis phase 1, WAN+C) ==");
    // WAN+C is write-back by construction; WAN (no cache) forwards every
    // write — the paper's two ends of the spectrum.
    let wl = generate(&SpecseisParams::default());
    let params = AppParams {
        trace: cli.trace,
        ..AppParams::default()
    };
    let wb = run_app_scenario(AppScenario::WanC, &wl, &params, 1);
    let wt = run_app_scenario(AppScenario::Wan, &wl, &params, 1);
    scenarios.push(scenario_report(
        "ablation1 write-back (WAN+C)",
        wb.total_virtual_secs,
        &wb.snapshot,
    ));
    scenarios.push(scenario_report(
        "ablation1 write-through (WAN)",
        wt.total_virtual_secs,
        &wt.snapshot,
    ));
    println!(
        "  phase 1: write-back {:.0}s   write-through/forwarding {:.0}s   ({:.1}x)\n",
        wb.runs[0].phases[0].1,
        wt.runs[0].phases[0].1,
        wt.runs[0].phases[0].1 / wb.runs[0].phases[0].1
    );

    println!("== Ablation 2: zero-map meta-data (64 MB post-boot memory read, 8 KB blocks) ==");
    let (reads_off, filt_off, secs_off, snap_off) = zero_filter_counts(64, false, cli.trace);
    let (reads_on, filt_on, secs_on, snap_on) = zero_filter_counts(64, true, cli.trace);
    scenarios.push(scenario_report(
        "ablation2 zero-map off",
        secs_off,
        &snap_off,
    ));
    scenarios.push(scenario_report("ablation2 zero-map on", secs_on, &snap_on));
    println!("  without meta: {reads_off} reads, {filt_off} filtered locally");
    println!("  with meta:    {reads_on} reads, {filt_on} filtered locally\n");

    println!("== Ablation 3: file channel vs pure block transfer (first cloning) ==");
    let quick = CloneParams {
        clones: 1,
        image_scale: Some(4),
        trace: cli.trace,
        // This ablation isolates the compressed file channel; CoW
        // reference cloning has its own binary (cow_ablation).
        cow: gvfs::CowTuning::off(),
        ..CloneParams::default()
    };
    let channel_res = run_cloning(CloneScenario::WanS1, &quick);
    scenarios.push(scenario_report(
        "ablation3 compressed channel (WAN-S1 x1)",
        channel_res.total_virtual_secs,
        &channel_res.snapshot,
    ));
    let with_channel = channel_res.times[0].total.as_secs_f64();
    // Channel off: strip the meta-data before cloning is not directly
    // exposed; the pure-NFS baseline is the closest no-GVFS bound.
    let no_gvfs = gvfs_bench::pure_nfs_clone_secs(&quick);
    println!(
        "  with compressed channel: {with_channel:.0}s   pure NFS: {no_gvfs:.0}s   ({:.1}x)\n",
        no_gvfs / with_channel
    );

    println!("== In-text claim: 512 MB post-boot resume, 8 KB reads ==");
    let (reads, filtered, claim_secs, claim_snap) = zero_filter_counts(512, true, cli.trace);
    scenarios.push(scenario_report(
        "in-text claim 512MB resume",
        claim_secs,
        &claim_snap,
    ));
    println!("  paper:    65,750 reads, 60,452 filtered (92.0%)");
    println!(
        "  measured: {reads} reads, {filtered} filtered ({:.1}%)",
        filtered as f64 / reads as f64 * 100.0
    );
    if let Some(path) = &cli.json_path {
        write_report(path, "ablations", scenarios);
    }
}
