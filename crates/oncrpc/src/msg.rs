//! RPC message wire format (RFC 5531 §9).

use crate::auth::OpaqueAuth;
use xdr::{Bytes, Decode, Decoder, Encode, Encoder, Error, Result};

/// The RPC protocol version this implementation speaks.
pub const RPC_VERSION: u32 = 2;

const MSG_CALL: u32 = 0;
const MSG_REPLY: u32 = 1;

const REPLY_ACCEPTED: u32 = 0;
const REPLY_DENIED: u32 = 1;

/// `accept_stat`: outcome of an accepted call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptStat {
    /// RPC executed successfully; results follow.
    Success,
    /// Program not exported on this server.
    ProgUnavail,
    /// Program version out of the supported range.
    ProgMismatch {
        /// Lowest supported version.
        low: u32,
        /// Highest supported version.
        high: u32,
    },
    /// Unsupported procedure number.
    ProcUnavail,
    /// Arguments could not be decoded.
    GarbageArgs,
    /// Server-side internal error.
    SystemErr,
}

/// `reject_stat`: why a call was denied outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectStat {
    /// RPC version mismatch.
    RpcMismatch {
        /// Lowest supported RPC version.
        low: u32,
        /// Highest supported RPC version.
        high: u32,
    },
    /// Authentication failure, with the `auth_stat` code.
    AuthError(u32),
}

/// Authentication status codes used with [`RejectStat::AuthError`].
pub mod auth_stat {
    /// Bad credential (seal broken or unparsable).
    pub const BADCRED: u32 = 1;
    /// Credential expired — GVFS short-lived identities time out.
    pub const REJECTEDCRED: u32 = 2;
    /// Unsupported flavor.
    pub const TOOWEAK: u32 = 5;
}

/// Body of a call message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallHeader {
    /// Transaction id, echoed in the reply.
    pub xid: u32,
    /// Program number (e.g. 100003 for NFS, 100005 for MOUNT).
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Procedure number.
    pub proc: u32,
    /// Caller credential.
    pub cred: OpaqueAuth,
    /// Caller verifier.
    pub verf: OpaqueAuth,
}

/// Body of a reply message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyBody {
    /// The call was accepted; `stat` describes the outcome and, on
    /// success, `results` holds procedure-specific XDR data.
    Accepted {
        /// Server verifier.
        verf: OpaqueAuth,
        /// Acceptance status.
        stat: AcceptStat,
        /// Procedure results (only meaningful for [`AcceptStat::Success`]).
        results: Bytes,
    },
    /// The call was rejected before execution.
    Denied(RejectStat),
}

/// A complete RPC message: either a call (with procedure arguments) or a
/// reply keyed to a call's xid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcMessage {
    /// Call message with argument bytes.
    Call {
        /// Call header.
        header: CallHeader,
        /// Procedure arguments, XDR-encoded.
        args: Bytes,
    },
    /// Reply message.
    Reply {
        /// Transaction id of the call being answered.
        xid: u32,
        /// Reply body.
        body: ReplyBody,
    },
}

impl RpcMessage {
    /// Build a successful reply carrying `results`.
    pub fn success(xid: u32, results: impl Into<Bytes>) -> Self {
        RpcMessage::Reply {
            xid,
            body: ReplyBody::Accepted {
                verf: OpaqueAuth::none(),
                stat: AcceptStat::Success,
                results: results.into(),
            },
        }
    }

    /// Build an accepted-but-failed reply.
    pub fn accept_error(xid: u32, stat: AcceptStat) -> Self {
        debug_assert!(stat != AcceptStat::Success);
        RpcMessage::Reply {
            xid,
            body: ReplyBody::Accepted {
                verf: OpaqueAuth::none(),
                stat,
                results: Bytes::new(),
            },
        }
    }

    /// Build a denial reply.
    pub fn denied(xid: u32, stat: RejectStat) -> Self {
        RpcMessage::Reply {
            xid,
            body: ReplyBody::Denied(stat),
        }
    }

    /// The message's transaction id.
    pub fn xid(&self) -> u32 {
        match self {
            RpcMessage::Call { header, .. } => header.xid,
            RpcMessage::Reply { xid, .. } => *xid,
        }
    }

    /// The wire form of a message a server is about to send. A
    /// successful reply goes through [`encode_success`], so its results
    /// are not copied when they came with room for the header; anything
    /// else is small and encoded afresh.
    pub fn into_wire(self) -> Bytes {
        match self {
            RpcMessage::Reply {
                xid,
                body:
                    ReplyBody::Accepted {
                        verf,
                        stat: AcceptStat::Success,
                        results,
                    },
            } if verf == OpaqueAuth::none() => encode_success(xid, results),
            other => xdr::to_bytes(&other).into(),
        }
    }
}

/// Length of the header of an accepted, successful reply with an
/// `AUTH_NONE` verifier — everything in front of its results.
pub const REPLY_HEADROOM: usize = 24;

/// The wire form of [`RpcMessage::success`]`(xid, results)`: the fixed
/// header, then `results`. Results encoded behind [`REPLY_HEADROOM`]
/// spare bytes — or sliced out of an upstream reply, whose own header
/// is that room — get the header written in front of them in place
/// while nothing else holds their buffer ([`Bytes::prepend`]); a clone
/// kept in a reply cache makes this a copy instead.
pub fn encode_success(xid: u32, results: Bytes) -> Bytes {
    debug_assert_eq!(results.len() % 4, 0, "RPC payload must be word-aligned");
    // xid, then five words: REPLY, MSG_ACCEPTED, AUTH_NONE with an empty
    // body, SUCCESS.
    let mut head = [0u8; REPLY_HEADROOM];
    head[..4].copy_from_slice(&xid.to_be_bytes());
    head[4..8].copy_from_slice(&MSG_REPLY.to_be_bytes());
    results.prepend(&head)
}

/// Encode a call message: the header, then `args` appended once. The one
/// call encoder — [`RpcMessage::Call`]'s [`Encode`] impl goes through it,
/// and a client holding its arguments as a slice calls it directly
/// instead of first copying them into a message.
pub fn encode_call(enc: &mut Encoder, header: &CallHeader, args: &[u8]) {
    enc.put_u32(header.xid);
    enc.put_u32(MSG_CALL);
    enc.put_u32(RPC_VERSION);
    enc.put_u32(header.prog);
    enc.put_u32(header.vers);
    enc.put_u32(header.proc);
    header.cred.encode(enc);
    header.verf.encode(enc);
    // Args are raw XDR already; append without a length prefix, exactly
    // as on the wire.
    enc.put_opaque_fixed_unpadded(args);
}

impl Encode for RpcMessage {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            RpcMessage::Call { header, args } => encode_call(enc, header, args),
            RpcMessage::Reply { xid, body } => {
                enc.put_u32(*xid);
                enc.put_u32(MSG_REPLY);
                match body {
                    ReplyBody::Accepted {
                        verf,
                        stat,
                        results,
                    } => {
                        enc.put_u32(REPLY_ACCEPTED);
                        verf.encode(enc);
                        match stat {
                            AcceptStat::Success => {
                                enc.put_u32(0);
                                enc.put_opaque_fixed_unpadded(results);
                            }
                            AcceptStat::ProgUnavail => enc.put_u32(1),
                            AcceptStat::ProgMismatch { low, high } => {
                                enc.put_u32(2);
                                enc.put_u32(*low);
                                enc.put_u32(*high);
                            }
                            AcceptStat::ProcUnavail => enc.put_u32(3),
                            AcceptStat::GarbageArgs => enc.put_u32(4),
                            AcceptStat::SystemErr => enc.put_u32(5),
                        }
                    }
                    ReplyBody::Denied(stat) => {
                        enc.put_u32(REPLY_DENIED);
                        match stat {
                            RejectStat::RpcMismatch { low, high } => {
                                enc.put_u32(0);
                                enc.put_u32(*low);
                                enc.put_u32(*high);
                            }
                            RejectStat::AuthError(code) => {
                                enc.put_u32(1);
                                enc.put_u32(*code);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Raw-append helper: RPC args/results are a tail of pre-encoded XDR; they
/// are appended verbatim (already word-aligned by construction).
trait PutRaw {
    fn put_opaque_fixed_unpadded(&mut self, data: &[u8]);
}

impl PutRaw for Encoder {
    fn put_opaque_fixed_unpadded(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 4, 0, "RPC payload must be word-aligned");
        // Fixed opaque of word-aligned length adds no padding.
        self.put_opaque_fixed(data);
    }
}

impl RpcMessage {
    /// Decode from a shared buffer without copying the body: the returned
    /// message's `args`/`results` are O(1) views into `bytes`' backing
    /// allocation. This is the transport hot path; the by-slice
    /// [`Decode`] impl below copies instead.
    pub fn decode_shared(bytes: &Bytes) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let msg = decode_inner(&mut dec, &|s| bytes.slice_ref(s))?;
        dec.finish()?;
        Ok(msg)
    }
}

impl Decode for RpcMessage {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        decode_inner(dec, &|s| Bytes::from(s))
    }
}

/// Shared decode body: `promote` turns a borrowed payload slice into a
/// [`Bytes`] (zero-copy from [`RpcMessage::decode_shared`], copying from
/// the generic [`Decode`] impl).
fn decode_inner(dec: &mut Decoder<'_>, promote: &dyn Fn(&[u8]) -> Bytes) -> Result<RpcMessage> {
    {
        let xid = dec.get_u32()?;
        match dec.get_u32()? {
            MSG_CALL => {
                let rpcvers = dec.get_u32()?;
                if rpcvers != RPC_VERSION {
                    return Err(Error::InvalidDiscriminant(rpcvers));
                }
                let prog = dec.get_u32()?;
                let vers = dec.get_u32()?;
                let proc = dec.get_u32()?;
                let cred = OpaqueAuth::decode(dec)?;
                let verf = OpaqueAuth::decode(dec)?;
                let args = promote(dec.get_opaque_fixed(dec.remaining())?);
                Ok(RpcMessage::Call {
                    header: CallHeader {
                        xid,
                        prog,
                        vers,
                        proc,
                        cred,
                        verf,
                    },
                    args,
                })
            }
            MSG_REPLY => {
                let body = match dec.get_u32()? {
                    REPLY_ACCEPTED => {
                        let verf = OpaqueAuth::decode(dec)?;
                        let stat = match dec.get_u32()? {
                            0 => AcceptStat::Success,
                            1 => AcceptStat::ProgUnavail,
                            2 => AcceptStat::ProgMismatch {
                                low: dec.get_u32()?,
                                high: dec.get_u32()?,
                            },
                            3 => AcceptStat::ProcUnavail,
                            4 => AcceptStat::GarbageArgs,
                            5 => AcceptStat::SystemErr,
                            other => return Err(Error::InvalidDiscriminant(other)),
                        };
                        let results = if stat == AcceptStat::Success {
                            promote(dec.get_opaque_fixed(dec.remaining())?)
                        } else {
                            Bytes::new()
                        };
                        ReplyBody::Accepted {
                            verf,
                            stat,
                            results,
                        }
                    }
                    REPLY_DENIED => {
                        let stat = match dec.get_u32()? {
                            0 => RejectStat::RpcMismatch {
                                low: dec.get_u32()?,
                                high: dec.get_u32()?,
                            },
                            1 => RejectStat::AuthError(dec.get_u32()?),
                            other => return Err(Error::InvalidDiscriminant(other)),
                        };
                        ReplyBody::Denied(stat)
                    }
                    other => return Err(Error::InvalidDiscriminant(other)),
                };
                Ok(RpcMessage::Reply { xid, body })
            }
            other => Err(Error::InvalidDiscriminant(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::{AuthSys, OpaqueAuth};

    fn sample_call() -> RpcMessage {
        RpcMessage::Call {
            header: CallHeader {
                xid: 99,
                prog: 100_003,
                vers: 3,
                proc: 6, // READ
                cred: OpaqueAuth::sys(&AuthSys::new("client", 500, 500)),
                verf: OpaqueAuth::none(),
            },
            args: xdr::to_bytes(&42u32).into(),
        }
    }

    #[test]
    fn call_round_trips() {
        let m = sample_call();
        let bytes = xdr::to_bytes(&m);
        let back: RpcMessage = xdr::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn success_reply_round_trips_with_results() {
        let m = RpcMessage::success(99, xdr::to_bytes(&7u64));
        let bytes = xdr::to_bytes(&m);
        let back: RpcMessage = xdr::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.xid(), 99);
    }

    #[test]
    fn into_wire_is_the_generic_encoding_whoever_else_holds_the_results() {
        // Results behind headroom and owned by nobody else: the header
        // lands in front of them, and they do not move.
        let mut enc = Encoder::with_headroom(REPLY_HEADROOM, 8);
        enc.put_u64(7);
        let results = enc.into_shared();
        let at = results.as_slice().as_ptr();
        let generic = xdr::to_bytes(&RpcMessage::success(99, results.clone()));
        let wire = RpcMessage::success(99, results).into_wire();
        assert_eq!(wire, generic);
        assert_eq!(wire[REPLY_HEADROOM..].as_ptr(), at);
        // That wire is an upstream reply to whoever receives it: its own
        // header is the room for the next hop's, so a forwarded reply is
        // the same allocation with the xid rewritten …
        let RpcMessage::Reply { body, .. } = RpcMessage::decode_shared(&wire).unwrap() else {
            panic!("a reply");
        };
        let ReplyBody::Accepted { results, .. } = body else {
            panic!("accepted");
        };
        let held = results.clone();
        drop(wire);
        // … unless a clone is still held (a reply cache, the DRC): then
        // it is an equal-bytes copy and the held bytes stay as they were.
        let copied = encode_success(5, results);
        assert_eq!(copied, xdr::to_bytes(&RpcMessage::success(5, held.clone())));
        assert_ne!(copied[REPLY_HEADROOM..].as_ptr(), at);
        let forwarded = encode_success(6, held);
        assert_eq!(forwarded[REPLY_HEADROOM..].as_ptr(), at);
        assert_eq!(&forwarded[..4], &6u32.to_be_bytes());
        assert_eq!(forwarded[4..], generic[4..]);
        // Anything but a plain success is encoded afresh.
        for m in [
            RpcMessage::accept_error(5, AcceptStat::GarbageArgs),
            RpcMessage::denied(1, RejectStat::AuthError(auth_stat::BADCRED)),
            sample_call(),
        ] {
            assert_eq!(m.clone().into_wire(), xdr::to_bytes(&m));
        }
    }

    #[test]
    fn all_accept_errors_round_trip() {
        for stat in [
            AcceptStat::ProgUnavail,
            AcceptStat::ProgMismatch { low: 2, high: 3 },
            AcceptStat::ProcUnavail,
            AcceptStat::GarbageArgs,
            AcceptStat::SystemErr,
        ] {
            let m = RpcMessage::accept_error(5, stat);
            let back: RpcMessage = xdr::from_bytes(&xdr::to_bytes(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn denials_round_trip() {
        for stat in [
            RejectStat::RpcMismatch { low: 2, high: 2 },
            RejectStat::AuthError(auth_stat::REJECTEDCRED),
        ] {
            let m = RpcMessage::denied(1, stat);
            let back: RpcMessage = xdr::from_bytes(&xdr::to_bytes(&m)).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn wrong_rpc_version_is_rejected() {
        let m = sample_call();
        let mut bytes = xdr::to_bytes(&m);
        // Word 2 (offset 8..12) is the RPC version; corrupt it.
        bytes[8..12].copy_from_slice(&9u32.to_be_bytes());
        assert!(xdr::from_bytes::<RpcMessage>(&bytes).is_err());
    }
}
