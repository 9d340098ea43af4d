//! Fluid-flow network link model.
//!
//! A [`Link`] has a propagation latency and a bandwidth. Concurrent
//! transfers share the bandwidth equally (processor sharing): when a flow
//! starts or finishes, every active flow's completion time is recomputed.
//! This first-order model is what produces the paper's Table 1 behaviour —
//! eight parallel VM clonings contending for a single image-server uplink
//! complete in ~1/7th of the sequential time, not 1/8th, because the warm-up
//! and per-RPC latency parts do not parallelize while the bulk transfer
//! parts share the pipe.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use crate::shared::Shared;

use crate::engine::{Env, Pid, SimHandle};
use crate::fault::{DetRng, LinkFaultPlan};
use crate::telemetry::{Counter, PercentileSketch, TraceEvent};
use crate::time::{SimDuration, SimTime};

/// A flow is considered complete when fewer than this many bytes remain;
/// guards against floating-point residue.
const COMPLETE_EPS: f64 = 1e-3;

/// What happened to a message handed to [`Link::transfer_checked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferOutcome {
    /// The message reached the far end.
    Delivered,
    /// The message was lost to the link's probabilistic drop process
    /// (after paying latency and serialization — the bytes were carried,
    /// then discarded).
    Dropped,
    /// The message was cut by an outage window: either it entered the
    /// link while down, or the outage started while it was in flight.
    Severed,
}

impl TransferOutcome {
    /// Whether the message arrived.
    pub fn delivered(self) -> bool {
        self == TransferOutcome::Delivered
    }
}

struct Flow {
    remaining: f64,
    pid: Pid,
}

struct FaultState {
    rng: DetRng,
    plan: LinkFaultPlan,
    /// Flow ids severed by an outage start while in flight; the woken
    /// transfer consumes its id from here to learn its fate.
    severed_flows: BTreeSet<u64>,
}

struct LinkState {
    bytes_per_sec: f64,
    latency: SimDuration,
    flows: BTreeMap<u64, Flow>,
    next_flow_id: u64,
    last_update: SimTime,
    /// Generation counter: bumping it invalidates the outstanding
    /// completion callback.
    timer_gen: u64,
    /// Fault injection, absent by default (zero overhead, identical
    /// timeline to a build without the feature).
    faults: Option<FaultState>,
    /// Reused completion buffer for [`Link::on_timer`]: cleared, never
    /// shrunk, so the steady-state timer path performs no allocation.
    completed_buf: Vec<(u64, Pid)>,
}

/// A unidirectional network link with latency and shared bandwidth.
///
/// Cheap to clone (shared state). For a bidirectional path, construct one
/// `Link` per direction, or reuse a single `Link` when modelling a
/// half-duplex bottleneck.
#[derive(Clone)]
pub struct Link {
    handle: SimHandle,
    name: Rc<str>,
    state: Shared<LinkState>,
    /// Telemetry-backed byte/message counters. Registered by name, so two
    /// `Link`s created with the same name on one simulation share them —
    /// the counters then report the aggregate over both (used by the
    /// parallel-cloning scenario, where eight per-host loopback links
    /// reuse one name on purpose).
    bytes: Counter,
    messages: Counter,
    dropped: Counter,
    severed: Counter,
    transfer_times: PercentileSketch,
}

impl Link {
    /// Create a link. `bytes_per_sec` is the bottleneck bandwidth;
    /// `latency` is the one-way propagation delay applied to each
    /// [`Link::transfer`].
    pub fn new(
        handle: &SimHandle,
        name: impl Into<String>,
        bytes_per_sec: f64,
        latency: SimDuration,
    ) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link bandwidth must be positive"
        );
        let name: Rc<str> = name.into().into();
        let tel = handle.telemetry();
        Link {
            handle: handle.clone(),
            bytes: tel.counter("link", format!("{name}.bytes")),
            messages: tel.counter("link", format!("{name}.messages")),
            dropped: tel.counter("link", format!("{name}.dropped")),
            severed: tel.counter("link", format!("{name}.severed")),
            transfer_times: tel.histogram("link", format!("{name}.transfer")),
            name,
            state: Shared::new(LinkState {
                bytes_per_sec,
                latency,
                flows: BTreeMap::new(),
                next_flow_id: 0,
                last_update: SimTime::ZERO,
                timer_gen: 0,
                faults: None,
                completed_buf: Vec::new(),
            }),
        }
    }

    /// Convenience constructor from megabits per second.
    pub fn from_mbps(
        handle: &SimHandle,
        name: impl Into<String>,
        mbps: f64,
        latency: SimDuration,
    ) -> Self {
        Self::new(handle, name, mbps * 1_000_000.0 / 8.0, latency)
    }

    /// The link name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.state.lock().latency
    }

    /// Nominal bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> f64 {
        self.state.lock().bytes_per_sec
    }

    /// Total payload bytes carried so far. A view over the telemetry
    /// counter `link/<name>.bytes` (shared across same-named links).
    pub fn total_bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Total non-empty `transfer` calls completed or in flight. A view
    /// over the telemetry counter `link/<name>.messages`.
    pub fn total_messages(&self) -> u64 {
        self.messages.get()
    }

    /// Install a deterministic fault plan on this link: per-message drops
    /// and outage windows. Each outage start schedules a scheduler
    /// callback that severs every in-flight flow at that instant (the
    /// blocked senders resume immediately with
    /// [`TransferOutcome::Severed`]). Installing a plan twice replaces the
    /// drop process but re-registers the new plan's outages.
    pub fn install_faults(&self, plan: LinkFaultPlan) {
        let outages = plan.outages.clone();
        {
            let mut st = self.state.lock();
            st.faults = Some(FaultState {
                rng: DetRng::new(plan.seed),
                plan,
                severed_flows: BTreeSet::new(),
            });
        }
        for w in outages {
            let this = self.clone();
            self.handle.schedule_call(w.start, move || {
                this.sever_in_flight();
            });
        }
    }

    /// Cut every in-flight flow right now (outage start): flows are
    /// removed, their ids recorded as severed, and their senders woken to
    /// observe the failure.
    fn sever_in_flight(&self) {
        let mut st = self.state.lock();
        let now = self.handle.now();
        Self::progress(&mut st, now);
        let ids: Vec<u64> = st.flows.keys().copied().collect();
        let mut pids = Vec::with_capacity(ids.len());
        for id in &ids {
            if let Some(flow) = st.flows.remove(id) {
                pids.push(flow.pid);
            }
        }
        if let Some(f) = st.faults.as_mut() {
            f.severed_flows.extend(ids.iter().copied());
        }
        self.severed.add(pids.len() as u64);
        self.reschedule(&mut st, now);
        drop(st);
        for pid in pids {
            self.handle.schedule_wake(now, pid);
        }
    }

    /// Whether `t` falls inside one of the installed outage windows.
    fn in_outage(st: &LinkState, t: SimTime) -> bool {
        st.faults
            .as_ref()
            .is_some_and(|f| f.plan.outages.iter().any(|w| w.contains(t)))
    }

    /// Transfer `bytes` across the link: one propagation latency plus the
    /// serialization time under fair bandwidth sharing with every other
    /// in-flight transfer. Blocks the calling process in virtual time.
    /// Ignores the delivery outcome — use [`Link::transfer_checked`] on
    /// paths that model loss.
    pub fn transfer(&self, env: &Env, bytes: u64) {
        let _ = self.transfer_checked(env, bytes);
    }

    /// Like [`Link::transfer`], but reports whether the message survived
    /// the link's fault plan. With no plan installed the result is always
    /// [`TransferOutcome::Delivered`] and the timing is identical to
    /// [`Link::transfer`].
    pub fn transfer_checked(&self, env: &Env, bytes: u64) -> TransferOutcome {
        let t0 = env.now();
        // Decide the probabilistic drop up front so the RNG stream is a
        // pure function of the message order, not of link occupancy.
        let pre_dropped = {
            let mut st = self.state.lock();
            match st.faults.as_mut() {
                Some(f) => {
                    let p = f.plan.drop_prob;
                    f.rng.chance(p)
                }
                None => false,
            }
        };
        // Propagation first; bandwidth sharing applies to serialization.
        let latency = self.latency();
        env.sleep(latency);
        let mut outcome = TransferOutcome::Delivered;
        if bytes > 0 {
            let flow_id;
            {
                let mut st = self.state.lock();
                let now = self.handle.now();
                if Self::in_outage(&st, now) {
                    // The message reaches the cut and goes no further; it
                    // never serializes, so it is not counted as carried.
                    self.severed.inc();
                    drop(st);
                    self.finish_trace(env, t0, bytes);
                    return TransferOutcome::Severed;
                }
                self.bytes.add(bytes);
                self.messages.inc();
                Self::progress(&mut st, now);
                let id = st.next_flow_id;
                flow_id = id;
                st.next_flow_id += 1;
                st.flows.insert(
                    id,
                    Flow {
                        remaining: bytes as f64,
                        pid: env.pid(),
                    },
                );
                self.reschedule(&mut st, now);
            }
            env.suspend();
            // Were we woken by completion or by an outage severing us?
            let was_severed = {
                let mut st = self.state.lock();
                match st.faults.as_mut() {
                    Some(f) => f.severed_flows.remove(&flow_id),
                    None => false,
                }
            };
            if was_severed {
                outcome = TransferOutcome::Severed;
            }
        } else {
            let st = self.state.lock();
            if Self::in_outage(&st, env.now()) {
                drop(st);
                self.severed.inc();
                self.finish_trace(env, t0, bytes);
                return TransferOutcome::Severed;
            }
        }
        if outcome.delivered() && pre_dropped {
            self.dropped.inc();
            outcome = TransferOutcome::Dropped;
        }
        self.finish_trace(env, t0, bytes);
        outcome
    }

    fn finish_trace(&self, env: &Env, t0: SimTime, bytes: u64) {
        let elapsed = env.now() - t0;
        self.transfer_times.record(elapsed);
        let tel = self.handle.telemetry();
        if tel.trace_enabled() {
            tel.trace(
                TraceEvent::new(env.now(), "link", "transfer")
                    .bytes(bytes)
                    .duration(elapsed)
                    .label("link", self.name.to_string()),
            );
        }
    }

    /// Advance every active flow to `now` at the current fair-share rate.
    fn progress(st: &mut LinkState, now: SimTime) {
        let elapsed = now.saturating_since(st.last_update).as_secs_f64();
        st.last_update = now;
        let n = st.flows.len();
        if n == 0 || elapsed <= 0.0 {
            return;
        }
        let rate = st.bytes_per_sec / n as f64;
        for flow in st.flows.values_mut() {
            flow.remaining = (flow.remaining - rate * elapsed).max(0.0);
        }
    }

    /// Schedule (or re-schedule) the completion callback for the earliest
    /// finishing flow.
    fn reschedule(&self, st: &mut LinkState, now: SimTime) {
        st.timer_gen += 1;
        let gen = st.timer_gen;
        if st.flows.is_empty() {
            return;
        }
        let min_remaining = st
            .flows
            .values()
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        let rate = st.bytes_per_sec / st.flows.len() as f64;
        // Round UP to the next nanosecond: a sub-nanosecond residual must
        // still advance the clock, or the timer would re-fire at the same
        // instant forever (livelock) while `progress` subtracts nothing.
        let dt = SimDuration::from_nanos(((min_remaining / rate).max(0.0) * 1e9).ceil() as u64);
        let this = self.clone();
        self.handle.schedule_call(now + dt, move || {
            this.on_timer(gen);
        });
    }

    fn on_timer(&self, gen: u64) {
        let mut st = self.state.lock();
        if st.timer_gen != gen {
            return; // superseded by a newer flow arrival/departure
        }
        let now = self.handle.now();
        // Fused per-timer pass. The naive form — `progress` (O(n)
        // update), a completion scan (O(n), fresh Vec), and
        // `reschedule`'s min-scan (O(n)) — walks the flow map three
        // times and allocates on every timer event. This single walk
        // performs the identical arithmetic on identical operands (same
        // fair-share decrement, same clamp, same ascending-id wake
        // order out of the BTreeMap, same rounding in the re-arm), so
        // the event timeline is bit-for-bit unchanged; it just touches
        // each flow once and reuses one buffer.
        let elapsed = now.saturating_since(st.last_update).as_secs_f64();
        st.last_update = now;
        let n = st.flows.len();
        let dec = if n > 0 && elapsed > 0.0 {
            st.bytes_per_sec / n as f64 * elapsed
        } else {
            0.0
        };
        let mut min_left = f64::INFINITY;
        let mut completed = std::mem::take(&mut st.completed_buf);
        completed.clear();
        for (id, flow) in st.flows.iter_mut() {
            let left = (flow.remaining - dec).max(0.0);
            flow.remaining = left;
            if left <= COMPLETE_EPS {
                completed.push((*id, flow.pid));
            } else {
                min_left = min_left.min(left);
            }
        }
        for (id, pid) in &completed {
            st.flows.remove(id);
            self.handle.schedule_wake(now, *pid);
        }
        completed.clear();
        st.completed_buf = completed;
        st.timer_gen += 1;
        let gen = st.timer_gen;
        if st.flows.is_empty() {
            return;
        }
        let rate = st.bytes_per_sec / st.flows.len() as f64;
        let dt = SimDuration::from_nanos(((min_left / rate).max(0.0) * 1e9).ceil() as u64);
        let this = self.clone();
        self.handle.schedule_call(now + dt, move || {
            this.on_timer(gen);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use std::cell::Cell;

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_transfer_takes_latency_plus_serialization() {
        let sim = Simulation::new();
        let h = sim.handle();
        // 1 MB/s, 100 ms latency; 2 MB transfer => 0.1 + 2.0 = 2.1 s.
        let link = Link::new(&h, "wan", 1_000_000.0, SimDuration::from_millis(100));
        let l2 = link.clone();
        sim.spawn("xfer", move |env| {
            l2.transfer(&env, 2_000_000);
            assert!((env.now().as_secs_f64() - 2.1).abs() < 1e-6);
        });
        let end = sim.run();
        assert!((secs(end) - 2.1).abs() < 1e-6);
        assert_eq!(link.total_bytes(), 2_000_000);
    }

    #[test]
    fn two_equal_flows_share_bandwidth_fairly() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::new(&h, "l", 1_000_000.0, SimDuration::ZERO);
        for i in 0..2 {
            let l = link.clone();
            sim.spawn(format!("f{i}"), move |env| {
                l.transfer(&env, 1_000_000);
                // Two 1 MB flows at 1 MB/s shared => both finish at 2 s.
                assert!((env.now().as_secs_f64() - 2.0).abs() < 1e-6);
            });
        }
        let end = sim.run();
        assert!((secs(end) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_slows_earlier_flow() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::new(&h, "l", 1_000_000.0, SimDuration::ZERO);
        let l1 = link.clone();
        let l2 = link.clone();
        let t1 = Rc::new(Cell::new(0));
        let t2 = Rc::new(Cell::new(0));
        let t1c = t1.clone();
        let t2c = t2.clone();
        sim.spawn("early", move |env| {
            l1.transfer(&env, 2_000_000);
            t1c.set(env.now().as_nanos());
        });
        sim.spawn("late", move |env| {
            env.sleep(SimDuration::from_secs(1));
            l2.transfer(&env, 500_000);
            t2c.set(env.now().as_nanos());
        });
        sim.run();
        // Early: 1 MB in the first second alone, then shares.
        // Late: 0.5 MB at 0.5 MB/s => finishes at t=2.0.
        // Early then has 0.5 MB left at full rate => t=2.5.
        assert!((t2.get() as f64 / 1e9 - 2.0).abs() < 1e-6);
        assert!((t1.get() as f64 / 1e9 - 2.5).abs() < 1e-6);
    }

    #[test]
    fn n_parallel_flows_scale_like_processor_sharing() {
        // 8 flows of B bytes each on one link take the same total time as
        // 8 sequential flows (bandwidth is conserved), but each individual
        // flow sees 1/8th rate.
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::new(&h, "l", 8_000_000.0, SimDuration::ZERO);
        for i in 0..8 {
            let l = link.clone();
            sim.spawn(format!("f{i}"), move |env| {
                l.transfer(&env, 8_000_000);
                assert!((env.now().as_secs_f64() - 8.0).abs() < 1e-6);
            });
        }
        let end = sim.run();
        assert!((secs(end) - 8.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_transfer_costs_only_latency() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::new(&h, "l", 1e9, SimDuration::from_millis(35));
        let l = link.clone();
        sim.spawn("ping", move |env| {
            l.transfer(&env, 0);
            assert_eq!(env.now().as_nanos(), 35_000_000);
        });
        sim.run();
        assert_eq!(link.total_messages(), 0);
    }

    #[test]
    fn fault_free_checked_transfer_matches_legacy_timing() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::new(&h, "wan", 1_000_000.0, SimDuration::from_millis(100));
        let l2 = link.clone();
        sim.spawn("xfer", move |env| {
            assert_eq!(
                l2.transfer_checked(&env, 2_000_000),
                TransferOutcome::Delivered
            );
            assert!((env.now().as_secs_f64() - 2.1).abs() < 1e-6);
        });
        sim.run();
        assert_eq!(link.dropped.get(), 0);
        assert_eq!(link.severed.get(), 0);
    }

    #[test]
    fn seeded_drops_are_deterministic_and_pay_full_cost() {
        let run = |seed: u64| -> (Vec<TransferOutcome>, u64) {
            let sim = Simulation::new();
            let h = sim.handle();
            let link = Link::new(&h, "l", 1_000_000.0, SimDuration::ZERO);
            link.install_faults(LinkFaultPlan::new(seed).drop_prob(0.3));
            let outcomes = Shared::new(Vec::new());
            let l = link.clone();
            let o = outcomes.clone();
            sim.spawn("xfer", move |env| {
                for _ in 0..50 {
                    let outcome = l.transfer_checked(&env, 10_000);
                    o.lock().push(outcome);
                }
            });
            let end = sim.run();
            // Dropped messages still pay serialization: 50 × 10 ms.
            assert_eq!(end.as_nanos(), 500_000_000);
            let got = outcomes.lock().clone();
            (got, link.dropped.get())
        };
        let (a, dropped_a) = run(11);
        let (b, dropped_b) = run(11);
        let (c, _) = run(12);
        assert_eq!(a, b, "same seed, same fate per message");
        assert_ne!(a, c, "different seed, different schedule");
        assert!(dropped_a > 0 && dropped_a < 50, "some but not all dropped");
        assert_eq!(dropped_a, dropped_b);
        assert_eq!(
            a.iter().filter(|o| **o == TransferOutcome::Dropped).count() as u64,
            dropped_a
        );
    }

    #[test]
    fn outage_severs_in_flight_flow_and_blocks_new_entries() {
        let sim = Simulation::new();
        let h = sim.handle();
        // 1 MB/s, no latency; 4 MB transfer would end at t=4s, but an
        // outage at t=1s severs it.
        let link = Link::new(&h, "l", 1_000_000.0, SimDuration::ZERO);
        let t = |s: u64| SimTime::ZERO + SimDuration::from_secs(s);
        link.install_faults(LinkFaultPlan::new(0).outage(t(1), t(3)));
        let l = link.clone();
        sim.spawn("xfer", move |env| {
            let got = l.transfer_checked(&env, 4_000_000);
            assert_eq!(got, TransferOutcome::Severed);
            assert_eq!(env.now().as_nanos(), 1_000_000_000);
            // Retry while the link is down: severed on entry, at once.
            let got = l.transfer_checked(&env, 1_000_000);
            assert_eq!(got, TransferOutcome::Severed);
            assert_eq!(env.now().as_nanos(), 1_000_000_000);
            // Wait out the outage; the link works again.
            env.sleep(SimDuration::from_secs(2));
            let got = l.transfer_checked(&env, 1_000_000);
            assert_eq!(got, TransferOutcome::Delivered);
            assert_eq!(env.now().as_nanos(), 4_000_000_000);
        });
        sim.run();
        assert_eq!(link.severed.get(), 2);
    }

    #[test]
    fn idle_transfer_time_matches_actual_idle_transfer() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = Link::from_mbps(&h, "wan", 25.0, SimDuration::from_millis(17));
        // Latency plus serialization at the full 25 Mb/s.
        let est =
            SimDuration::from_millis(17) + SimDuration::from_secs_f64(10_000_000.0 / 25e6 * 8.0);
        let l = link.clone();
        sim.spawn("xfer", move |env| {
            let t0 = env.now();
            l.transfer(&env, 10_000_000);
            let actual = env.now() - t0;
            let diff = actual.as_secs_f64() - est.as_secs_f64();
            assert!(diff.abs() < 1e-6, "estimate {est:?} vs actual {actual:?}");
        });
        sim.run();
    }
}
