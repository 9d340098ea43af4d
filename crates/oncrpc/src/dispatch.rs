//! Server-side call dispatch.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use simnet::{Counter, Env};
use xdr::Bytes;

use crate::auth::OpaqueAuth;
use crate::msg::{AcceptStat, RejectStat, RpcMessage};
use crate::transport::RpcHandler;

/// Error an [`RpcProgram`] may raise while servicing a call; mapped onto
/// the corresponding RPC accept/reject status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgramError {
    /// Unknown procedure number.
    ProcUnavail,
    /// Arguments failed to decode.
    GarbageArgs,
    /// Internal failure.
    SystemErr,
    /// Authentication failure with an `auth_stat` code.
    AuthError(u32),
}

/// A versioned RPC program (NFS, MOUNT, the GVFS control program, ...).
pub trait RpcProgram: Send + Sync + 'static {
    /// Program number (e.g. 100003 for NFS).
    fn program(&self) -> u32;
    /// Supported version.
    fn version(&self) -> u32;
    /// Execute a procedure: decode `args`, do the work (may block in
    /// virtual time), return encoded results. Results encoded behind
    /// [`crate::msg::REPLY_HEADROOM`] spare bytes go out without being
    /// copied into a reply message.
    fn call(
        &self,
        env: &Env,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, ProgramError>;

    /// Like [`RpcProgram::call`], but with the transaction id of the
    /// request. Programs that maintain a duplicate-request cache (the
    /// NFSv3 server) override this — a retransmitted call arrives with
    /// the same xid, which is what lets the server recognise it and
    /// replay the cached reply instead of re-executing a non-idempotent
    /// operation. The default ignores the xid.
    fn call_with_xid(
        &self,
        env: &Env,
        _xid: u32,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, ProgramError> {
        self.call(env, cred, proc, args)
    }
}

/// Routes raw RPC messages to registered programs and builds protocol-
/// correct replies for every failure mode (unknown program, version
/// mismatch, bad procedure, garbage args, auth errors).
pub struct Dispatcher {
    programs: HashMap<u32, Arc<dyn RpcProgram>>,
    /// `served.calls` / `served.garbage_requests`, resolved against the
    /// registry on the first request and shared cells thereafter: a
    /// dispatcher is built without a registry (`Dispatcher::new()` takes
    /// none), so the request's [`Env`] is the first place one exists.
    /// These are the only counters that register after construction.
    served: OnceLock<Counter>,
    garbage: OnceLock<Counter>,
}

impl Dispatcher {
    /// Empty dispatcher.
    pub fn new() -> Self {
        Dispatcher {
            programs: HashMap::new(),
            served: OnceLock::new(),
            garbage: OnceLock::new(),
        }
    }

    /// Register a program; replaces any prior registration of the same
    /// program number.
    pub fn register(mut self, prog: Arc<dyn RpcProgram>) -> Self {
        self.programs.insert(prog.program(), prog);
        self
    }

    /// Finish construction.
    pub fn into_handler(self) -> Arc<dyn RpcHandler> {
        Arc::new(self)
    }
}

impl Default for Dispatcher {
    fn default() -> Self {
        Self::new()
    }
}

impl RpcHandler for Dispatcher {
    fn handle(&self, env: &Env, request: &Bytes) -> Bytes {
        let msg = match RpcMessage::decode_shared(request) {
            Ok(m) => m,
            // Unparsable request: RFC behaviour is to drop it, but the
            // simulated transport expects a reply; answer GARBAGE_ARGS
            // with xid 0 so the caller fails fast instead of hanging.
            Err(_) => {
                self.garbage
                    .get_or_init(|| env.telemetry().counter("rpc", "served.garbage_requests"))
                    .inc();
                return xdr::to_bytes(&RpcMessage::accept_error(0, AcceptStat::GarbageArgs)).into();
            }
        };
        self.served
            .get_or_init(|| env.telemetry().counter("rpc", "served.calls"))
            .inc();
        let (header, args) = match msg {
            RpcMessage::Call { header, args } => (header, args),
            RpcMessage::Reply { xid, .. } => {
                return xdr::to_bytes(&RpcMessage::accept_error(xid, AcceptStat::GarbageArgs))
                    .into()
            }
        };
        let xid = header.xid;
        let reply = match self.programs.get(&header.prog) {
            None => RpcMessage::accept_error(xid, AcceptStat::ProgUnavail),
            Some(prog) if prog.version() != header.vers => RpcMessage::accept_error(
                xid,
                AcceptStat::ProgMismatch {
                    low: prog.version(),
                    high: prog.version(),
                },
            ),
            Some(prog) => match prog.call_with_xid(env, xid, &header.cred, header.proc, &args) {
                Ok(results) => RpcMessage::success(xid, results),
                Err(ProgramError::ProcUnavail) => {
                    RpcMessage::accept_error(xid, AcceptStat::ProcUnavail)
                }
                Err(ProgramError::GarbageArgs) => {
                    RpcMessage::accept_error(xid, AcceptStat::GarbageArgs)
                }
                Err(ProgramError::SystemErr) => {
                    RpcMessage::accept_error(xid, AcceptStat::SystemErr)
                }
                Err(ProgramError::AuthError(code)) => {
                    RpcMessage::denied(xid, RejectStat::AuthError(code))
                }
            },
        };
        reply.into_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::AuthSys;
    use crate::client::{RpcClient, RpcError};
    use crate::msg::ReplyBody;
    use crate::transport::{endpoint, WireSpec};
    use simnet::{Link, SimDuration, Simulation};

    /// Toy program: proc 1 doubles a u32; proc 2 echoes a string.
    struct Doubler;

    impl RpcProgram for Doubler {
        fn program(&self) -> u32 {
            200_000
        }
        fn version(&self) -> u32 {
            1
        }
        fn call(
            &self,
            _env: &Env,
            _cred: &OpaqueAuth,
            proc: u32,
            args: &[u8],
        ) -> Result<Bytes, ProgramError> {
            match proc {
                0 => Ok(Bytes::new()), // NULL
                1 => {
                    let v: u32 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
                    Ok(xdr::to_bytes(&(v * 2)).into())
                }
                2 => {
                    let s: String = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
                    Ok(xdr::to_bytes(&s).into())
                }
                _ => Err(ProgramError::ProcUnavail),
            }
        }
    }

    fn setup(sim: &Simulation) -> RpcClient {
        let h = sim.handle();
        let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
        let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, up, down, WireSpec::plain());
        let handler = Dispatcher::new().register(Arc::new(Doubler)).into_handler();
        ep.listener.serve("doubler", handler, 2);
        RpcClient::new(
            ep.channel,
            OpaqueAuth::sys(&AuthSys::new("client", 1000, 1000)),
        )
    }

    #[test]
    fn successful_call_round_trips() {
        let sim = Simulation::new();
        let client = setup(&sim);
        sim.spawn("c", move |env| {
            let res = client
                .call(&env, 200_000, 1, 1, &xdr::to_bytes(&21u32))
                .unwrap();
            let v: u32 = xdr::from_bytes(&res).unwrap();
            assert_eq!(v, 42);
        });
        sim.run();
    }

    #[test]
    fn unknown_program_reports_prog_unavail() {
        let sim = Simulation::new();
        let client = setup(&sim);
        sim.spawn("c", move |env| {
            let err = client.call(&env, 999, 1, 0, &[]).unwrap_err();
            assert_eq!(err, RpcError::Accept(AcceptStat::ProgUnavail));
        });
        sim.run();
    }

    #[test]
    fn wrong_version_reports_mismatch_with_range() {
        let sim = Simulation::new();
        let client = setup(&sim);
        sim.spawn("c", move |env| {
            let err = client.call(&env, 200_000, 9, 0, &[]).unwrap_err();
            assert_eq!(
                err,
                RpcError::Accept(AcceptStat::ProgMismatch { low: 1, high: 1 })
            );
        });
        sim.run();
    }

    #[test]
    fn unknown_procedure_reports_proc_unavail() {
        let sim = Simulation::new();
        let client = setup(&sim);
        sim.spawn("c", move |env| {
            let err = client.call(&env, 200_000, 1, 77, &[]).unwrap_err();
            assert_eq!(err, RpcError::Accept(AcceptStat::ProcUnavail));
        });
        sim.run();
    }

    #[test]
    fn bad_args_report_garbage_args() {
        let sim = Simulation::new();
        let client = setup(&sim);
        sim.spawn("c", move |env| {
            // proc 1 expects a u32; send two bytes.
            let err = client
                .call(&env, 200_000, 1, 1, &[0, 0, 0, 0, 0, 0, 0, 0])
                .unwrap_err();
            // Eight bytes decode as u32 + trailing => GarbageArgs.
            assert_eq!(err, RpcError::Accept(AcceptStat::GarbageArgs));
        });
        sim.run();
    }

    #[test]
    fn unparsable_request_bytes_get_garbage_args_reply() {
        // A blob that is not an RPC message at all must come back as a
        // decodable GARBAGE_ARGS error (xid 0), never hang or panic the
        // server worker — and must be counted as a garbage request.
        let sim = Simulation::new();
        let h = sim.handle();
        let up = Link::new(&h, "up", 1e9, SimDuration::from_micros(50));
        let down = Link::new(&h, "down", 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, up, down, WireSpec::plain());
        let handler = Dispatcher::new().register(Arc::new(Doubler)).into_handler();
        ep.listener.serve("doubler", handler, 1);
        let tel = h.telemetry().clone();
        sim.spawn("c", move |env| {
            let reply = ep
                .channel
                .call_raw(&env, b"definitely not XDR".to_vec())
                .expect("transport alive");
            let msg: RpcMessage = xdr::from_bytes(&reply).unwrap();
            match msg {
                RpcMessage::Reply { xid, body } => {
                    assert_eq!(xid, 0);
                    assert!(matches!(
                        body,
                        ReplyBody::Accepted {
                            stat: AcceptStat::GarbageArgs,
                            ..
                        }
                    ));
                }
                _ => panic!("expected a reply"),
            }
        });
        sim.run();
        assert_eq!(tel.counter("rpc", "served.garbage_requests").get(), 1);
    }

    #[test]
    fn served_counters_stay_out_of_snapshots_until_first_request() {
        // Both dispatcher counters resolve lazily (OnceLock): a server
        // that never saw traffic must not add `served.*` lines to the
        // report snapshot, and a server that saw only well-formed calls
        // must not register the garbage counter.
        let sim = Simulation::new();
        let client = setup(&sim);
        let tel = sim.handle().telemetry().clone();
        let has = |t: &simnet::Telemetry, name: &str| {
            let name = name.to_string();
            t.snapshot()
                .counters
                .iter()
                .any(|c| c.layer == "rpc" && c.name == name)
        };
        assert!(!has(&tel, "served.calls"), "registered before any call");
        sim.spawn("c", move |env| {
            client
                .call(&env, 200_000, 1, 1, &xdr::to_bytes(&21u32))
                .unwrap();
        });
        sim.run();
        assert!(has(&tel, "served.calls"));
        assert!(
            !has(&tel, "served.garbage_requests"),
            "well-formed traffic registered the garbage counter"
        );
        assert_eq!(tel.counter("rpc", "served.calls").get(), 1);
    }

    #[test]
    fn concurrent_clients_get_matching_replies() {
        let sim = Simulation::new();
        let client = setup(&sim);
        for i in 0..8u32 {
            let c = client.clone();
            sim.spawn(format!("c{i}"), move |env| {
                let res = c
                    .call(&env, 200_000, 1, 1, &xdr::to_bytes(&(i * 10)))
                    .unwrap();
                let v: u32 = xdr::from_bytes(&res).unwrap();
                assert_eq!(v, i * 20);
            });
        }
        sim.run();
    }
}
