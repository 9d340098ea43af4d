//! # simnet — deterministic discrete-event simulation substrate
//!
//! This crate provides the virtual-time foundation on which the GVFS
//! reproduction runs: a discrete-event scheduler with thread-backed
//! blocking processes, FIFO resources, channels, one-shot signals and a
//! fluid-flow (processor-sharing) network link model.
//!
//! The paper ("Distributed File System Support for Virtual Machines in
//! Grid Computing", HPDC 2004) evaluated GVFS on a real WAN between the
//! University of Florida and Northwestern University. We reproduce the
//! experiments on a simulated timeline instead: all latency, bandwidth,
//! disk and CPU costs advance a virtual clock, which makes each figure
//! reproducible bit-for-bit on a laptop.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Simulation, SimDuration, Link};
//!
//! let sim = Simulation::new();
//! let h = sim.handle();
//! let wan = Link::from_mbps(&h, "wan", 25.0, SimDuration::from_millis(17));
//! sim.spawn("copy", move |env| {
//!     wan.transfer(&env, 1_000_000); // blocks in virtual time
//!     println!("done at {}", env.now());
//! });
//! let end = sim.run();
//! assert!(end.as_secs_f64() > 0.3); // 1 MB at 25 Mb/s + latency
//! ```

#![warn(missing_docs)]

pub mod arrival;
mod engine;
mod fanout;
pub mod fault;
mod link;
pub mod sync;
pub mod telemetry;
mod time;
mod wheel;

pub use arrival::ArrivalProcess;
pub use engine::{
    default_sched_policy, first_divergence, set_default_sched_policy, CancelToken, Env,
    EventRecord, ProcessHandle, SchedPolicy, SimHandle, Simulation, DEFAULT_EVENT_TRACE_CAP,
};
pub use fanout::{run_windowed, TransferTel};
pub use fault::{splitmix64, DetRng, LinkFaultPlan, OutageWindow};
pub use link::{Link, TransferOutcome};
pub use sync::{
    channel, Disconnected, Receiver, RecvTimeoutError, Resource, ResourceGuard, Sender, Signal,
};
pub use telemetry::{Counter, Gauge, JsonValue, PercentileSketch, Snapshot, Telemetry, TraceEvent};
pub use time::{SimDuration, SimTime};
