//! Simulated RPC transport over [`simnet`] links.
//!
//! An [`Endpoint`] pairs a client-side [`RpcChannel`] with a server-side
//! [`Listener`]. Requests pay the uplink's latency + shared-bandwidth
//! serialization, optionally plus an SSH-tunnel-style cost ([`WireSpec`]):
//! per-message byte overhead and a cipher-throughput time cost, modelling
//! the paper's SSH-tunnelled private data channels. Replies pay the same
//! on the downlink, charged to the server worker that produced them.
//!
//! A GVFS proxy is an RPC *handler* that owns an `RpcChannel` to the next
//! hop, so arbitrary proxy chains (client proxy → LAN cache proxy →
//! server proxy → kernel server) compose from these endpoints.

use std::rc::Rc;

use simnet::{
    channel, Env, Link, Receiver, RecvTimeoutError, Sender, SimDuration, SimHandle, SimTime,
};
use xdr::Bytes;

use crate::record;

/// Cost model for one hop's wire encapsulation.
#[derive(Debug, Clone, Copy)]
pub struct WireSpec {
    /// Extra bytes added to every message (framing, tunnel headers, MACs).
    pub per_message_overhead: u64,
    /// Multiplicative byte overhead (1.0 = none); SSH adds a few percent.
    pub byte_overhead_factor: f64,
    /// Cipher throughput in bytes/second; `None` for an unencrypted hop.
    /// The sending side pays `bytes / throughput` of CPU time, which
    /// covers both ends' cipher work in one charge.
    pub cipher_bytes_per_sec: Option<f64>,
}

impl WireSpec {
    /// A plain TCP hop: only record-marking framing.
    pub fn plain() -> Self {
        WireSpec {
            per_message_overhead: record::HEADER_LEN as u64,
            byte_overhead_factor: 1.0,
            cipher_bytes_per_sec: None,
        }
    }

    /// An SSH-tunnelled hop as used by GVFS private data channels:
    /// per-packet MAC/padding overhead and a cipher-throughput charge.
    pub fn ssh_tunnel(cipher_bytes_per_sec: f64) -> Self {
        WireSpec {
            per_message_overhead: record::HEADER_LEN as u64 + 48,
            byte_overhead_factor: 1.02,
            cipher_bytes_per_sec: Some(cipher_bytes_per_sec),
        }
    }

    /// Wire bytes for a `payload_len`-byte message under this spec.
    pub fn wire_bytes(&self, payload_len: usize) -> u64 {
        (payload_len as f64 * self.byte_overhead_factor) as u64 + self.per_message_overhead
    }

    /// CPU time charged for ciphering a `payload_len`-byte message.
    pub fn cipher_time(&self, payload_len: usize) -> SimDuration {
        match self.cipher_bytes_per_sec {
            Some(tp) => SimDuration::from_secs_f64(payload_len as f64 / tp),
            None => SimDuration::ZERO,
        }
    }
}

struct Envelope {
    bytes: Bytes,
    reply_tx: Sender<Bytes>,
}

/// Client-side handle: sends a request message and blocks (in virtual
/// time) for the matching reply. Cloneable; concurrent callers interleave
/// on the shared links.
#[derive(Clone)]
pub struct RpcChannel {
    handle: SimHandle,
    up: Link,
    wire: WireSpec,
    tx: Sender<Envelope>,
}

/// A request handed to the wire: the handle on which its reply — or
/// silence — arrives. Every request gets a private reply queue, so a
/// reply to an abandoned (retransmitted-over) attempt lands on a dropped
/// receiver and is discarded by construction.
pub struct PendingCall {
    reply_rx: Receiver<Bytes>,
}

impl PendingCall {
    /// Wait indefinitely for the reply. `None` means the listener is gone
    /// or the message was lost to a link fault (legacy semantics: loss
    /// surfaces immediately as a transport failure).
    pub fn recv(&self, env: &Env) -> Option<Bytes> {
        self.reply_rx.recv(env).ok()
    }

    /// Wait until `deadline` for the reply. Lost messages are surfaced
    /// the way a real client sees them: by silence. If the request was
    /// dropped by the uplink's fault plan, the reply by the downlink's,
    /// or the listener is gone, the caller waits out its deadline and
    /// gets `None` — it cannot tell which of the three happened, which
    /// is exactly why retransmission and the server's duplicate-request
    /// cache exist.
    pub fn recv_deadline(&self, env: &Env, deadline: SimTime) -> Option<Bytes> {
        match self.reply_rx.recv_deadline(env, deadline) {
            Ok(bytes) => Some(bytes),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => {
                // The request or reply was lost (or the server is down).
                // A real client learns nothing until its timer fires.
                let now = env.now();
                if now < deadline {
                    env.sleep(deadline - now);
                }
                None
            }
        }
    }
}

impl RpcChannel {
    /// Pay the request's cipher and uplink costs and enqueue it at the
    /// listener, returning the [`PendingCall`] its reply will arrive on.
    /// If the uplink's fault plan drops or severs the message the server
    /// never sees it and the pending call resolves only by silence.
    pub fn send_request(&self, env: &Env, request: impl Into<Bytes>) -> PendingCall {
        let request = request.into();
        env.sleep(self.wire.cipher_time(request.len()));
        let delivered = self
            .up
            .transfer_checked(env, self.wire.wire_bytes(request.len()))
            .delivered();
        let (reply_tx, reply_rx) = channel::<Bytes>(&self.handle);
        if delivered {
            self.tx.send(Envelope {
                bytes: request,
                reply_tx,
            });
        }
        // Not delivered: reply_tx drops here, so the pending call sees a
        // disconnect (legacy recv) or waits out its deadline.
        PendingCall { reply_rx }
    }

    /// Transmit `request` and wait for the reply bytes.
    ///
    /// Returns `None` if the listener was dropped (connection refused /
    /// reset), which callers surface as an RPC transport error.
    pub fn call_raw(&self, env: &Env, request: impl Into<Bytes>) -> Option<Bytes> {
        self.send_request(env, request).recv(env)
    }

    /// [`RpcChannel::send_request`] followed by
    /// [`PendingCall::recv_deadline`]: give up once virtual time reaches
    /// `deadline`.
    pub fn call_raw_deadline(
        &self,
        env: &Env,
        request: impl Into<Bytes>,
        deadline: SimTime,
    ) -> Option<Bytes> {
        self.send_request(env, request).recv_deadline(env, deadline)
    }

    /// The wire spec for this hop (used by servers replying).
    pub fn wire(&self) -> WireSpec {
        self.wire
    }

    /// The simulation handle this channel was built on (lets components
    /// layered over a channel reach the telemetry registry).
    pub fn handle(&self) -> &SimHandle {
        &self.handle
    }
}

/// Server-side handle: holds the request queue plus the reply path. Call
/// [`Listener::serve`] to start worker processes.
pub struct Listener {
    handle: SimHandle,
    rx: Rc<Receiver<Envelope>>,
    down: Link,
    wire: WireSpec,
}

/// Something that services raw RPC request bytes. Handlers run inside a
/// simulated worker process and may block in virtual time (disk access,
/// upstream RPC calls, cache operations).
pub trait RpcHandler: 'static {
    /// Service one request, returning the reply message bytes. The
    /// request is a shared view of the envelope the client sent; replies
    /// served from a cache can hand back a clone without copying.
    fn handle(&self, env: &Env, request: &Bytes) -> Bytes;
}

impl<F> RpcHandler for F
where
    F: Fn(&Env, &[u8]) -> Vec<u8> + 'static,
{
    fn handle(&self, env: &Env, request: &Bytes) -> Bytes {
        self(env, request).into()
    }
}

impl Listener {
    /// Spawn `workers` service processes, each looping: receive a request,
    /// run the handler, pay the reply's cipher + downlink cost, respond.
    /// Worker count bounds server-side concurrency the way `nfsd` thread
    /// count does on a real server.
    pub fn serve(self, name: &str, handler: Rc<dyn RpcHandler>, workers: usize) {
        assert!(workers > 0);
        for w in 0..workers {
            let rx = self.rx.clone();
            let down = self.down.clone();
            let wire = self.wire;
            let handler = handler.clone();
            self.handle
                .spawn(format!("{name}-worker{w}"), move |env| loop {
                    let envelope = match rx.recv(&env) {
                        Ok(e) => e,
                        Err(_) => return, // all clients gone
                    };
                    let reply = handler.handle(&env, &envelope.bytes);
                    env.sleep(wire.cipher_time(reply.len()));
                    let delivered = down
                        .transfer_checked(&env, wire.wire_bytes(reply.len()))
                        .delivered();
                    if delivered {
                        envelope.reply_tx.send(reply);
                    }
                    // A lost reply: the side effect happened on the server
                    // but the client never hears back — the case the
                    // duplicate-request cache must make idempotent.
                });
        }
    }
}

/// A connected client/server endpoint pair over a pair of links.
pub struct Endpoint {
    /// Client half.
    pub channel: RpcChannel,
    /// Server half.
    pub listener: Listener,
}

/// Create a transport endpoint: requests traverse `up`, replies traverse
/// `down`, both under `wire` encapsulation.
pub fn endpoint(handle: &SimHandle, up: Link, down: Link, wire: WireSpec) -> Endpoint {
    let (tx, rx) = channel::<Envelope>(handle);
    Endpoint {
        channel: RpcChannel {
            handle: handle.clone(),
            up,
            wire,
            tx,
        },
        listener: Listener {
            handle: handle.clone(),
            rx: Rc::new(rx),
            down,
            wire,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimTime, Simulation};
    use std::cell::Cell;

    fn fast_link(h: &SimHandle, name: &str) -> Link {
        Link::new(h, name, 1e9, SimDuration::from_millis(1))
    }

    #[test]
    fn echo_server_round_trips_bytes() {
        let sim = Simulation::new();
        let h = sim.handle();
        let ep = endpoint(
            &h,
            fast_link(&h, "up"),
            fast_link(&h, "down"),
            WireSpec::plain(),
        );
        ep.listener
            .serve("echo", Rc::new(|_env: &Env, req: &[u8]| req.to_vec()), 1);
        let chan = ep.channel;
        sim.spawn("client", move |env| {
            let reply = chan.call_raw(&env, b"ping".to_vec()).unwrap();
            assert_eq!(reply, b"ping");
            // Two 1 ms latencies round trip.
            assert!(env.now() >= SimTime::ZERO + SimDuration::from_millis(2));
        });
        sim.run();
    }

    #[test]
    fn call_costs_reflect_latency_both_ways() {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = Link::new(&h, "up", 1e12, SimDuration::from_millis(17));
        let down = Link::new(&h, "down", 1e12, SimDuration::from_millis(17));
        let ep = endpoint(&h, up, down, WireSpec::plain());
        ep.listener
            .serve("null", Rc::new(|_: &Env, _: &[u8]| vec![0u8; 4]), 1);
        let chan = ep.channel;
        let rtt_ns = Rc::new(Cell::new(0));
        let r2 = rtt_ns.clone();
        sim.spawn("client", move |env| {
            let t0 = env.now();
            chan.call_raw(&env, vec![0u8; 4]).unwrap();
            r2.set((env.now() - t0).as_nanos());
        });
        sim.run();
        let rtt_ms = rtt_ns.get() as f64 / 1e6;
        assert!(
            (rtt_ms - 34.0).abs() < 0.1,
            "expected ~34 ms RTT, got {rtt_ms} ms"
        );
    }

    #[test]
    fn ssh_tunnel_costs_more_than_plain() {
        let run = |wire: WireSpec| -> u64 {
            let sim = Simulation::new();
            let h = sim.handle();
            let up = Link::from_mbps(&h, "up", 100.0, SimDuration::from_micros(100));
            let down = Link::from_mbps(&h, "down", 100.0, SimDuration::from_micros(100));
            let ep = endpoint(&h, up, down, wire);
            ep.listener
                .serve("srv", Rc::new(|_: &Env, _: &[u8]| vec![0u8; 32768]), 1);
            let chan = ep.channel;
            let done = Rc::new(Cell::new(0));
            let d2 = done.clone();
            sim.spawn("client", move |env| {
                for _ in 0..10 {
                    chan.call_raw(&env, vec![0u8; 128]).unwrap();
                }
                d2.set(env.now().as_nanos());
            });
            sim.run();
            done.get()
        };
        let plain = run(WireSpec::plain());
        let tunneled = run(WireSpec::ssh_tunnel(50e6));
        assert!(
            tunneled > plain,
            "tunnel {tunneled} should exceed plain {plain}"
        );
    }

    #[test]
    fn multiple_workers_overlap_service_time() {
        // Two requests whose handler sleeps 1 s each: with one worker they
        // serialize (~2 s); with two workers they overlap (~1 s).
        let run = |workers: usize| -> f64 {
            let sim = Simulation::new();
            let h = sim.handle();
            let ep = endpoint(
                &h,
                fast_link(&h, "up"),
                fast_link(&h, "down"),
                WireSpec::plain(),
            );
            ep.listener.serve(
                "slow",
                Rc::new(|env: &Env, _: &[u8]| {
                    env.sleep(SimDuration::from_secs(1));
                    vec![0u8; 4]
                }),
                workers,
            );
            let chan = ep.channel;
            for i in 0..2 {
                let c = chan.clone();
                sim.spawn(format!("c{i}"), move |env| {
                    c.call_raw(&env, vec![0u8; 4]).unwrap();
                });
            }
            sim.run().as_secs_f64()
        };
        let serial = run(1);
        let parallel = run(2);
        assert!(serial > 1.9, "serial took {serial}");
        assert!(parallel < 1.1, "parallel took {parallel}");
    }

    #[test]
    fn deadline_call_round_trips_when_healthy() {
        let sim = Simulation::new();
        let h = sim.handle();
        let ep = endpoint(
            &h,
            fast_link(&h, "up"),
            fast_link(&h, "down"),
            WireSpec::plain(),
        );
        ep.listener
            .serve("echo", Rc::new(|_env: &Env, req: &[u8]| req.to_vec()), 1);
        let chan = ep.channel;
        sim.spawn("client", move |env| {
            let deadline = env.now() + SimDuration::from_secs(5);
            let reply = chan.call_raw_deadline(&env, b"ping".to_vec(), deadline);
            assert_eq!(reply.as_deref(), Some(b"ping".as_slice()));
            // Healthy path: well under the deadline, and the unfired
            // timer must not stretch the timeline (checked via sim end).
        });
        let end = sim.run();
        assert!(end < SimTime::ZERO + SimDuration::from_secs(1), "{end:?}");
    }

    #[test]
    fn lost_request_resolves_at_the_deadline() {
        let sim = Simulation::new();
        let h = sim.handle();
        let up = fast_link(&h, "up");
        // Drop every request.
        up.install_faults(simnet::LinkFaultPlan::new(3).drop_prob(1.0));
        let ep = endpoint(&h, up, fast_link(&h, "down"), WireSpec::plain());
        ep.listener
            .serve("echo", Rc::new(|_env: &Env, req: &[u8]| req.to_vec()), 1);
        let chan = ep.channel;
        sim.spawn("client", move |env| {
            let deadline = env.now() + SimDuration::from_secs(2);
            assert!(chan
                .call_raw_deadline(&env, b"hi".to_vec(), deadline)
                .is_none());
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(2));
        });
        sim.run();
    }

    #[test]
    fn lost_reply_resolves_at_the_deadline() {
        let sim = Simulation::new();
        let h = sim.handle();
        let down = fast_link(&h, "down");
        down.install_faults(simnet::LinkFaultPlan::new(4).drop_prob(1.0));
        let ep = endpoint(&h, fast_link(&h, "up"), down, WireSpec::plain());
        let served = Rc::new(Cell::new(0));
        let s2 = served.clone();
        ep.listener.serve(
            "echo",
            Rc::new(move |_env: &Env, req: &[u8]| {
                s2.set(s2.get() + 1);
                req.to_vec()
            }),
            1,
        );
        let chan = ep.channel;
        sim.spawn("client", move |env| {
            let deadline = env.now() + SimDuration::from_secs(2);
            assert!(chan
                .call_raw_deadline(&env, b"hi".to_vec(), deadline)
                .is_none());
            assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(2));
        });
        sim.run();
        // The server DID execute the request — only the reply vanished.
        assert_eq!(served.get(), 1);
    }

    #[test]
    fn dropped_listener_yields_none() {
        let sim = Simulation::new();
        let h = sim.handle();
        let ep = endpoint(
            &h,
            fast_link(&h, "up"),
            fast_link(&h, "down"),
            WireSpec::plain(),
        );
        drop(ep.listener); // server never starts
        let chan = ep.channel;
        sim.spawn("client", move |env| {
            assert!(chan.call_raw(&env, b"hi".to_vec()).is_none());
        });
        sim.run();
    }
}
