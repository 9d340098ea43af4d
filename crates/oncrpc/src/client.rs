//! RPC client stub.

use std::cell::Cell;
use std::rc::Rc;

use simnet::Shared;
use simnet::{splitmix64, Counter, Env, Gauge, PercentileSketch, SimDuration, Telemetry};
use xdr::{Bytes, Encoder};

use crate::auth::OpaqueAuth;
use crate::msg::{self, AcceptStat, CallHeader, RejectStat, ReplyBody, RpcMessage};
use crate::transport::RpcChannel;

/// Errors surfaced by [`RpcClient::call`].
#[derive(Debug, Clone, PartialEq)]
pub enum RpcError {
    /// The transport is gone (listener dropped / connection reset).
    Transport,
    /// The reply could not be parsed.
    Decode(xdr::Error),
    /// Reply xid did not match the call.
    XidMismatch {
        /// xid we sent.
        expected: u32,
        /// xid we got back.
        got: u32,
    },
    /// The server accepted the call but reported a failure.
    Accept(AcceptStat),
    /// The server denied the call.
    Denied(RejectStat),
    /// All retransmit attempts timed out without a matching reply.
    TimedOut,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Transport => write!(f, "RPC transport failure"),
            RpcError::Decode(e) => write!(f, "RPC reply decode error: {e}"),
            RpcError::XidMismatch { expected, got } => {
                write!(f, "RPC xid mismatch: expected {expected}, got {got}")
            }
            RpcError::Accept(s) => write!(f, "RPC accepted-call failure: {s:?}"),
            RpcError::Denied(s) => write!(f, "RPC call denied: {s:?}"),
            RpcError::TimedOut => write!(f, "RPC call timed out after all retransmits"),
        }
    }
}

impl std::error::Error for RpcError {}

/// Retransmission policy of a stub ([`RpcClient::with_policy`]).
///
/// A call keeps its xid across retransmits (that is what lets the
/// server's duplicate-request cache recognise it); each attempt waits for
/// a per-attempt timeout that doubles up to `max_timeout`, with optional
/// deterministic jitter derived from `(xid, attempt)` so concurrent
/// callers don't retransmit in lockstep yet every run replays
/// identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Timeout for the first attempt.
    pub first_timeout: SimDuration,
    /// Cap on the per-attempt timeout as it doubles.
    pub max_timeout: SimDuration,
    /// Total attempts (first transmission + retransmits).
    pub max_attempts: u32,
    /// Fraction of the timeout added as deterministic jitter (0 = none).
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// A policy sized for the paper's WAN (~34 ms RTT, multi-second
    /// windowed transfers): 5 s first timeout doubling to 20 s, eight
    /// attempts — enough to ride out a 10 s outage with margin.
    pub fn wan() -> Self {
        RetryPolicy {
            first_timeout: SimDuration::from_secs(5),
            max_timeout: SimDuration::from_secs(20),
            max_attempts: 8,
            jitter_frac: 0.1,
        }
    }

    /// Per-attempt timeout for `attempt` (0-based), before jitter.
    fn base_timeout(&self, attempt: u32) -> SimDuration {
        let mut t = self.first_timeout;
        for _ in 0..attempt {
            t = t * 2;
            if t >= self.max_timeout {
                return self.max_timeout;
            }
        }
        t
    }

    /// Deterministic jitter for `(xid, attempt)`: a pure function of its
    /// inputs, so a rerun with the same seed retransmits at the same
    /// virtual instants.
    fn jitter(&self, xid: u32, attempt: u32, timeout: SimDuration) -> SimDuration {
        if self.jitter_frac <= 0.0 {
            return SimDuration::ZERO;
        }
        let word = splitmix64(((xid as u64) << 32) | attempt as u64);
        let unit = (word >> 11) as f64 / (1u64 << 53) as f64;
        SimDuration::from_secs_f64(timeout.as_secs_f64() * self.jitter_frac * unit)
    }
}

/// Outcome of decoding one reply against the xid we are waiting for.
enum ReplyMatch {
    /// The reply matches our call: the final result.
    Done(Result<Bytes, RpcError>),
    /// A stray reply for some other xid: discard and keep waiting.
    Stale,
}

/// Telemetry handles for one program, resolved against the registry once
/// (on the program's first call) and then recorded through the shared
/// cells. The failure counters register with `calls`, so every
/// program a client spoke carries the same counter set, zero or not.
struct ProgTel {
    prog: u32,
    outstanding: Gauge,
    calls: Counter,
    errors: Counter,
    stale_replies: Counter,
    timeouts: Counter,
    retransmits: Counter,
    /// Per-procedure latency histograms; procedure numbers are tiny and
    /// few, so a sorted vec beats a map.
    procs: Shared<Vec<(u32, PercentileSketch)>>,
}

impl ProgTel {
    fn register(tel: &Telemetry, prog: u32) -> ProgTel {
        let label = prog_label(prog);
        let c = |name: &str| tel.counter("rpc", format!("client.{label}.{name}"));
        ProgTel {
            prog,
            outstanding: tel.gauge("rpc", format!("client.{label}.outstanding")),
            calls: c("calls"),
            errors: c("errors"),
            stale_replies: c("stale_replies"),
            timeouts: c("timeouts"),
            retransmits: c("retransmits"),
            procs: Shared::new(Vec::new()),
        }
    }

    /// The latency histogram for `proc`, registering it on first use.
    fn proc_hist(&self, tel: &Telemetry, proc: u32) -> PercentileSketch {
        let mut procs = self.procs.lock();
        match procs.binary_search_by_key(&proc, |(p, _)| *p) {
            Ok(i) => procs[i].1.clone(),
            Err(i) => {
                let label = prog_label(self.prog);
                let h = tel.histogram("rpc", format!("client.{label}.proc{proc}"));
                procs.insert(i, (proc, h.clone()));
                h
            }
        }
    }
}

/// Per-client cache of [`ProgTel`] handles, shared across the stubs that
/// [`RpcClient::with_cred`]/[`with_policy`](RpcClient::with_policy)
/// derive, so a proxy's per-user stubs all record through one set of
/// cells. One client talks to at most a handful of programs.
#[derive(Clone, Default)]
struct TelCache {
    progs: Shared<Vec<Rc<ProgTel>>>,
}

impl TelCache {
    fn prog(&self, tel: &Telemetry, prog: u32) -> Rc<ProgTel> {
        let mut progs = self.progs.lock();
        match progs.binary_search_by_key(&prog, |pt| pt.prog) {
            Ok(i) => progs[i].clone(),
            Err(i) => {
                let pt = Rc::new(ProgTel::register(tel, prog));
                progs.insert(i, pt.clone());
                pt
            }
        }
    }
}

/// A client stub bound to one transport channel and one credential.
/// Cloneable and shareable across simulated processes; xids are allocated
/// from one shared counter so concurrent callers never collide.
#[derive(Clone)]
pub struct RpcClient {
    chan: RpcChannel,
    cred: OpaqueAuth,
    next_xid: Rc<Cell<u32>>,
    policy: Option<RetryPolicy>,
    tel: TelCache,
}

impl RpcClient {
    /// Create a client over `chan` using `cred` for every call.
    pub fn new(chan: RpcChannel, cred: OpaqueAuth) -> Self {
        RpcClient {
            chan,
            cred,
            next_xid: Rc::new(Cell::new(1)),
            policy: None,
            tel: TelCache::default(),
        }
    }

    /// Replace the credential (e.g. after middleware refreshes a
    /// short-lived GVFS identity).
    pub fn with_cred(&self, cred: OpaqueAuth) -> Self {
        RpcClient {
            chan: self.chan.clone(),
            cred,
            next_xid: self.next_xid.clone(),
            policy: self.policy,
            tel: self.tel.clone(),
        }
    }

    /// Attach a retransmission policy; [`RpcClient::call`] on the
    /// returned stub retransmits per `policy` instead of waiting forever.
    pub fn with_policy(&self, policy: RetryPolicy) -> Self {
        RpcClient {
            chan: self.chan.clone(),
            cred: self.cred.clone(),
            next_xid: self.next_xid.clone(),
            policy: Some(policy),
            tel: self.tel.clone(),
        }
    }

    /// The retransmission policy, if one is attached.
    pub fn policy(&self) -> Option<RetryPolicy> {
        self.policy
    }

    /// The credential attached to calls from this stub.
    pub fn cred(&self) -> &OpaqueAuth {
        &self.cred
    }

    /// Underlying channel (proxies use it to forward raw messages).
    pub fn channel(&self) -> &RpcChannel {
        &self.chan
    }

    /// Call `(prog, vers, proc)` with pre-encoded `args`, returning the
    /// result bytes of a successful reply. The one entry point: with a
    /// [`RetryPolicy`] attached, each attempt is bounded by a timeout and
    /// the request is retransmitted — under the *same* xid, so the
    /// server's duplicate-request cache can suppress re-execution — until
    /// a matching reply arrives or attempts are exhausted
    /// ([`RpcError::TimedOut`]); without one the call is a single shot
    /// that waits for its reply.
    ///
    /// Every call records into the telemetry registry: a per-procedure
    /// virtual-time histogram `rpc/client.<prog>.proc<N>` plus call and
    /// error counters — this is the single choke point through which all
    /// client-side RPC traffic flows (kernel client, proxies, channel).
    pub fn call(
        &self,
        env: &Env,
        prog: u32,
        vers: u32,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, RpcError> {
        self.call_with(env, prog, vers, proc, args.len(), |enc| {
            enc.put_opaque_fixed(args)
        })
    }

    /// [`RpcClient::call`] for a caller that has its arguments as a
    /// value, not as bytes: `encode_args` writes them — about `args_len`
    /// bytes, whole words — straight behind the call header, so a WRITE
    /// payload is copied once, into the buffer that goes on the wire.
    pub fn call_with(
        &self,
        env: &Env,
        prog: u32,
        vers: u32,
        proc: u32,
        args_len: usize,
        encode_args: impl FnOnce(&mut Encoder),
    ) -> Result<Bytes, RpcError> {
        // One xid and one encoded request for the whole logical call:
        // retransmits send views of the same buffer, byte-identical by
        // construction, which is how the server's DRC recognises them.
        let xid = self.next_xid.get();
        self.next_xid.set(xid.wrapping_add(1));
        let header = CallHeader {
            xid,
            prog,
            vers,
            proc,
            cred: self.cred.clone(),
            verf: OpaqueAuth::none(),
        };
        // Six header words, two auth fields of two words and a body.
        let mut enc = Encoder::with_capacity(40 + xdr::padded(header.cred.body.len()) + args_len);
        msg::encode_call(&mut enc, &header, &[]);
        encode_args(&mut enc);
        debug_assert_eq!(enc.len() % 4, 0, "RPC payload must be word-aligned");
        let request = enc.into_shared();
        self.instrumented(env, prog, proc, |c, pt| match c.policy {
            Some(policy) => c.call_retry(env, pt, xid, request, policy),
            None => c.call_inner(env, pt, xid, request),
        })
    }

    /// Issue many logical sub-calls as ONE wire round-trip: encodes
    /// `items` into a [`crate::batch`] envelope and sends it as a single
    /// call to `batch_proc` via [`RpcClient::call`]. Because the
    /// envelope is ordinary argument bytes, the retransmit path is
    /// untouched — one xid, one shared encoded request across attempts —
    /// so batching inherits the duplicate-request-cache byte-identity
    /// contract for free. Returns the per-item replies in request order.
    pub fn call_batch(
        &self,
        env: &Env,
        prog: u32,
        vers: u32,
        batch_proc: u32,
        items: &[crate::batch::BatchItem],
    ) -> Result<Vec<crate::batch::BatchReplyItem>, RpcError> {
        let args = crate::batch::encode_batch(items);
        let reply = self.call(env, prog, vers, batch_proc, &args)?;
        crate::batch::decode_batch_reply(&reply).map_err(RpcError::Decode)
    }

    /// Shared telemetry wrapper: per-procedure latency histogram,
    /// call/error counters, outstanding gauge — all recorded through
    /// handles cached in [`TelCache`]; after a program's first call the
    /// global registry is never locked again on this path.
    fn instrumented(
        &self,
        env: &Env,
        prog: u32,
        proc: u32,
        body: impl FnOnce(&Self, &ProgTel) -> Result<Bytes, RpcError>,
    ) -> Result<Bytes, RpcError> {
        let t0 = env.now();
        let pt = self.tel.prog(env.telemetry(), prog);
        pt.outstanding.inc();
        let result = body(self, &pt);
        pt.outstanding.dec();
        pt.proc_hist(env.telemetry(), proc).record(env.now() - t0);
        pt.calls.inc();
        if result.is_err() {
            pt.errors.inc();
        }
        result
    }

    /// Decode one reply against the xid we sent. A reply bearing some
    /// other xid is a stray (stale retransmit answer, reordered delivery)
    /// and must be discarded — not treated as fatal for this call.
    fn match_reply(&self, pt: &ProgTel, xid: u32, reply_bytes: &Bytes) -> ReplyMatch {
        let reply = match RpcMessage::decode_shared(reply_bytes) {
            Ok(r) => r,
            Err(e) => return ReplyMatch::Done(Err(RpcError::Decode(e))),
        };
        match reply {
            RpcMessage::Reply { xid: rxid, body } => {
                if rxid != xid {
                    pt.stale_replies.inc();
                    return ReplyMatch::Stale;
                }
                ReplyMatch::Done(match body {
                    ReplyBody::Accepted {
                        stat: AcceptStat::Success,
                        results,
                        ..
                    } => Ok(results),
                    ReplyBody::Accepted { stat, .. } => Err(RpcError::Accept(stat)),
                    ReplyBody::Denied(stat) => Err(RpcError::Denied(stat)),
                })
            }
            RpcMessage::Call { .. } => {
                ReplyMatch::Done(Err(RpcError::Decode(xdr::Error::InvalidDiscriminant(0))))
            }
        }
    }

    fn call_inner(
        &self,
        env: &Env,
        pt: &ProgTel,
        xid: u32,
        request: Bytes,
    ) -> Result<Bytes, RpcError> {
        let pending = self.chan.send_request(env, request);
        loop {
            let reply_bytes = pending.recv(env).ok_or(RpcError::Transport)?;
            match self.match_reply(pt, xid, &reply_bytes) {
                ReplyMatch::Done(result) => return result,
                ReplyMatch::Stale => continue,
            }
        }
    }

    fn call_retry(
        &self,
        env: &Env,
        pt: &ProgTel,
        xid: u32,
        request: Bytes,
        policy: RetryPolicy,
    ) -> Result<Bytes, RpcError> {
        let attempts = policy.max_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                pt.retransmits.inc();
            }
            let timeout = policy.base_timeout(attempt);
            let deadline = env.now() + timeout + policy.jitter(xid, attempt, timeout);
            let pending = self.chan.send_request(env, request.clone());
            while let Some(reply_bytes) = pending.recv_deadline(env, deadline) {
                match self.match_reply(pt, xid, &reply_bytes) {
                    ReplyMatch::Done(result) => return result,
                    ReplyMatch::Stale => continue,
                }
            }
            pt.timeouts.inc();
            // Abandoning `pending` here drops its private reply queue, so
            // a late reply to this attempt is discarded on arrival rather
            // than confusing a future call.
        }
        Err(RpcError::TimedOut)
    }
}

/// Human-readable label for well-known program numbers (used in metric
/// names; unknown programs render as `prog<N>`).
pub fn prog_label(prog: u32) -> String {
    match prog {
        100_003 => "nfs3".to_string(),
        100_005 => "mount".to_string(),
        400_100 => "channel".to_string(),
        other => format!("prog{other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthSys;
    use crate::transport::{endpoint, WireSpec};
    use simnet::{Link, LinkFaultPlan, SimHandle, SimTime, Simulation};
    use std::cell::Cell;

    const PROG: u32 = 200_000;

    fn fast_link(h: &SimHandle, name: &str) -> Link {
        Link::new(h, name, 1e9, SimDuration::from_millis(1))
    }

    fn request_xid(req: &[u8]) -> u32 {
        match xdr::from_bytes::<RpcMessage>(req).unwrap() {
            RpcMessage::Call { header, .. } => header.xid,
            RpcMessage::Reply { .. } => panic!("server got a reply"),
        }
    }

    fn test_policy(first_secs: u64, max_secs: u64, attempts: u32) -> RetryPolicy {
        RetryPolicy {
            first_timeout: SimDuration::from_secs(first_secs),
            max_timeout: SimDuration::from_secs(max_secs),
            max_attempts: attempts,
            jitter_frac: 0.0,
        }
    }

    fn client_over(
        sim: &Simulation,
        up: Link,
        handler: Rc<dyn crate::transport::RpcHandler>,
    ) -> RpcClient {
        let h = sim.handle();
        let ep = endpoint(&h, up, fast_link(&h, "down"), WireSpec::plain());
        ep.listener.serve("srv", handler, 1);
        RpcClient::new(
            ep.channel,
            OpaqueAuth::sys(&AuthSys::new("client", 1000, 1000)),
        )
    }

    #[test]
    fn stale_reply_is_discarded_and_call_retransmits() {
        // Server answers the first request with the WRONG xid (a stray),
        // then answers correctly. The client must discard the stray —
        // previously fatal — count it, time out, and retransmit.
        let sim = Simulation::new();
        let h = sim.handle();
        let served = Rc::new(Cell::new(0u32));
        let s2 = served.clone();
        let handler = Rc::new(move |_env: &Env, req: &[u8]| {
            let xid = request_xid(req);
            let k = s2.get();
            s2.set(k + 1);
            let reply_xid = if k == 0 { xid.wrapping_add(7_000) } else { xid };
            xdr::to_bytes(&RpcMessage::success(reply_xid, xdr::to_bytes(&5u32)))
        });
        let client =
            client_over(&sim, fast_link(&h, "up"), handler).with_policy(test_policy(1, 4, 4));
        sim.spawn("c", move |env| {
            let res = client.call(&env, PROG, 1, 1, &[]).unwrap();
            let v: u32 = xdr::from_bytes(&res).unwrap();
            assert_eq!(v, 5);
        });
        sim.run();
        let tel = h.telemetry().clone();
        assert_eq!(
            tel.counter("rpc", "client.prog200000.stale_replies").get(),
            1
        );
        assert_eq!(tel.counter("rpc", "client.prog200000.timeouts").get(), 1);
        assert_eq!(tel.counter("rpc", "client.prog200000.retransmits").get(), 1);
        assert_eq!(served.get(), 2);
    }

    #[test]
    fn retransmit_rides_out_an_outage() {
        // Uplink is down for the first 7 s; the call starts at t=0. The
        // first two attempts are lost; the third (t=3 s deadline → 1+2+…)
        // lands after recovery. Same xid throughout.
        let sim = Simulation::new();
        let h = sim.handle();
        let up = fast_link(&h, "up");
        up.install_faults(
            LinkFaultPlan::new(11).outage(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(7)),
        );
        let served = Rc::new(Cell::new(0u32));
        let s2 = served.clone();
        let handler = Rc::new(move |_env: &Env, req: &[u8]| {
            let xid = request_xid(req);
            s2.set(s2.get() + 1);
            xdr::to_bytes(&RpcMessage::success(xid, xdr::to_bytes(&9u32)))
        });
        let client = client_over(&sim, up, handler).with_policy(test_policy(1, 8, 8));
        sim.spawn("c", move |env| {
            let res = client.call(&env, PROG, 1, 1, &[]).unwrap();
            let v: u32 = xdr::from_bytes(&res).unwrap();
            assert_eq!(v, 9);
            // Deadlines 1,2,4,8 → attempts at t=0,1,3,7; the t=7 attempt
            // is the first past the outage.
            assert!(env.now() >= SimTime::ZERO + SimDuration::from_secs(7));
        });
        sim.run();
        let tel = h.telemetry().clone();
        assert_eq!(tel.counter("rpc", "client.prog200000.timeouts").get(), 3);
        assert_eq!(tel.counter("rpc", "client.prog200000.retransmits").get(), 3);
        // Only the post-recovery retransmit reached the server.
        assert_eq!(served.get(), 1);
    }

    #[test]
    fn exhausted_attempts_time_out_with_exact_schedule() {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = fast_link(&h, "up");
        up.install_faults(LinkFaultPlan::new(3).drop_prob(1.0));
        let handler = Rc::new(|_env: &Env, req: &[u8]| {
            let xid = request_xid(req);
            xdr::to_bytes(&RpcMessage::success(xid, Vec::new()))
        });
        let client = client_over(&sim, up, handler).with_policy(test_policy(1, 4, 3));
        sim.spawn("c", move |env| {
            let err = client.call(&env, PROG, 1, 1, &[]).unwrap_err();
            assert_eq!(err, RpcError::TimedOut);
            // 1 s + 2 s + 4 s of per-attempt timeouts, no jitter.
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(7));
        });
        sim.run();
        let tel = h.telemetry().clone();
        assert_eq!(tel.counter("rpc", "client.prog200000.timeouts").get(), 3);
        assert_eq!(tel.counter("rpc", "client.prog200000.retransmits").get(), 2);
        assert_eq!(tel.counter("rpc", "client.prog200000.errors").get(), 1);
    }

    #[test]
    fn call_without_policy_is_a_single_shot() {
        let sim = Simulation::new();
        let h = sim.handle();
        let handler = Rc::new(|_env: &Env, req: &[u8]| {
            let xid = request_xid(req);
            xdr::to_bytes(&RpcMessage::success(xid, xdr::to_bytes(&1u32)))
        });
        let client = client_over(&sim, fast_link(&h, "up"), handler);
        assert!(client.policy().is_none());
        sim.spawn("c", move |env| {
            let res = client.call(&env, PROG, 1, 1, &[]).unwrap();
            let v: u32 = xdr::from_bytes(&res).unwrap();
            assert_eq!(v, 1);
        });
        let end = sim.run();
        assert!(
            end < SimTime::ZERO + SimDuration::from_millis(100),
            "{end:?}"
        );
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::wan();
        let t = p.base_timeout(1);
        let a = p.jitter(42, 1, t);
        let b = p.jitter(42, 1, t);
        let c = p.jitter(43, 1, t);
        assert_eq!(a, b);
        assert!(a.as_secs_f64() <= t.as_secs_f64() * p.jitter_frac);
        // Different xids almost surely jitter differently.
        assert_ne!(a, c);
    }

    #[test]
    fn base_timeout_doubles_and_caps() {
        let p = test_policy(1, 5, 8);
        assert_eq!(p.base_timeout(0), SimDuration::from_secs(1));
        assert_eq!(p.base_timeout(1), SimDuration::from_secs(2));
        assert_eq!(p.base_timeout(2), SimDuration::from_secs(4));
        assert_eq!(p.base_timeout(3), SimDuration::from_secs(5));
        assert_eq!(p.base_timeout(7), SimDuration::from_secs(5));
    }

    #[test]
    fn failure_counters_register_with_calls_and_count_exactly() {
        // DESIGN.md §5.6: a program's failure counters register together
        // with `calls`, so they are in every snapshot at 0 before any
        // failure, count each failure exactly, and recording one takes
        // no registry lock.
        let tel = Telemetry::new();
        let pt = ProgTel::register(&tel, PROG);
        let value = |t: &Telemetry, name: &str| {
            t.snapshot()
                .counters
                .iter()
                .find(|c| c.name == format!("client.prog{PROG}.{name}"))
                .map(|c| c.value)
        };
        for name in [
            "calls",
            "errors",
            "stale_replies",
            "timeouts",
            "retransmits",
        ] {
            assert_eq!(value(&tel, name), Some(0), "{name} at construction");
        }
        let before = tel.debug_resolutions();
        for _ in 0..3 {
            pt.timeouts.inc();
        }
        pt.errors.inc();
        assert_eq!(
            tel.debug_resolutions(),
            before,
            "hot path resolved a handle"
        );
        assert_eq!(value(&tel, "timeouts"), Some(3));
        assert_eq!(value(&tel, "errors"), Some(1));
        assert_eq!(value(&tel, "retransmits"), Some(0));
    }

    #[test]
    fn proc_histogram_cache_is_order_independent() {
        // The per-procedure sorted-vec cache must yield the same metric
        // set whatever order procedures first arrive in, and must hit
        // the registry once per procedure, not once per record.
        let arrival_orders: [&[u32]; 2] = [&[7, 1, 4], &[1, 4, 7]];
        let mut name_sets = Vec::new();
        for order in arrival_orders {
            let tel = Telemetry::new();
            let pt = ProgTel::register(&tel, PROG);
            for &proc in order {
                pt.proc_hist(&tel, proc).record(SimDuration::from_millis(1));
            }
            let before = tel.debug_resolutions();
            for &proc in order {
                pt.proc_hist(&tel, proc).record(SimDuration::from_millis(2));
            }
            assert_eq!(
                tel.debug_resolutions() - before,
                0,
                "second pass must be served from the sorted-vec cache"
            );
            let mut names: Vec<String> = tel
                .snapshot()
                .histograms
                .iter()
                .map(|h| h.name.clone())
                .collect();
            names.sort();
            name_sets.push(names);
        }
        assert_eq!(name_sets[0], name_sets[1]);
    }
}
