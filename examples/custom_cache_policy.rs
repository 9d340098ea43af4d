//! Per-application cache policy (paper §3.2.1): middleware configures
//! each user's proxy according to what it knows about the application.
//!
//! A high-throughput batch task whose outputs nobody reads until the job
//! finishes gets a write-back proxy (session consistency, flush on
//! signal); a task with concurrent readers elsewhere gets write-through.
//! Same machinery, one config field — the point of user-level proxies.
//!
//! Run with: `cargo run --release --example custom_cache_policy`

use gvfs::{BlockCacheConfig, ImageServer, Listen, Middleware, ProxyConfig, WritePolicy};
use nfs3::proto::StableHow;
use nfs3::Nfs3Client;
use oncrpc::{OpaqueAuth, RpcClient};
use simnet::{Link, Shared, SimDuration, Simulation};

fn run_with_policy(policy: WritePolicy) -> (f64, f64) {
    let sim = Simulation::new();
    let h = sim.handle();
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let server = ImageServer::start(&h, Listen::tunnel(wan_up, wan_down), 768 << 20, true);
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        fs.create(dir, "out.dat", 0o644, 0).unwrap();
    }
    // The one field middleware sets differently per application.
    let session = Middleware::new().start_session(
        &server.mapper,
        "batch-user",
        &RpcClient::new(server.channel.clone(), OpaqueAuth::none()),
        ProxyConfig {
            name: format!("{policy:?}-proxy"),
            write_policy: policy,
            meta_handling: false,
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::with_capacity(2 << 30, 64, 16, 32 * 1024)),
        None,
    );

    let out = Shared::new((0.0f64, 0.0f64));
    let out2 = out.clone();
    sim.spawn("batch-task", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let root = nfs.mount(&env, "/exports").unwrap();
        let (fh, _) = nfs.lookup(&env, root, "out.dat").unwrap();
        // Write 16 MB of results.
        let t0 = env.now();
        for i in 0..512u64 {
            nfs.write(
                &env,
                fh,
                i * 32 * 1024,
                vec![0x42; 32 * 1024],
                StableHow::Unstable,
            )
            .unwrap();
        }
        nfs.commit(&env, fh).unwrap();
        let write_time = (env.now() - t0).as_secs_f64();
        // Session ends: middleware signals write-back.
        let t1 = env.now();
        session.flush(&env);
        let flush_time = (env.now() - t1).as_secs_f64();
        *out2.lock() = (write_time, flush_time);
    });
    sim.run();
    let r = *out.lock();
    r
}

fn main() {
    println!("writing 16 MB of batch results to a WAN mount:\n");
    let (wt_write, wt_flush) = run_with_policy(WritePolicy::WriteThrough);
    let (wb_write, wb_flush) = run_with_policy(WritePolicy::WriteBack);
    println!("write-through: task blocked {wt_write:6.1}s on writes, flush adds {wt_flush:5.1}s");
    println!("write-back:    task blocked {wb_write:6.1}s on writes, flush adds {wb_flush:5.1}s");
    println!(
        "\nWith write-back, the user-perceived write latency drops {:.0}x; the upload\n\
         happens when the middleware signals the flush (user off-line / session idle).",
        wt_write / wb_write
    );
}
