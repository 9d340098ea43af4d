//! # oncrpc — ONC Remote Procedure Call (RFC 1831 / RFC 5531)
//!
//! The RPC substrate under the NFSv3 implementation and the GVFS proxies.
//! Provides:
//!
//! * wire-format types: call/reply message headers, authentication
//!   flavors (`AUTH_NONE`, `AUTH_SYS`, and the middleware-issued
//!   `AUTH_GVFS` short-lived identity credential used by the Grid virtual
//!   file system),
//! * the size of record marking, the framing used by RPC over stream
//!   transports,
//! * a simulated transport ([`transport`]) that carries RPC messages over
//!   [`simnet::Link`]s with optional SSH-tunnel-style per-byte costs, and
//! * a server-side dispatcher routing calls to registered programs.
//!
//! GVFS proxies are simultaneously RPC *servers* (they accept the kernel
//! client's calls) and RPC *clients* (they forward misses upstream); both
//! roles are built from these pieces.

#![warn(missing_docs)]

pub mod auth;
pub mod batch;
pub mod client;
pub mod dispatch;
pub mod msg;
pub mod record;
pub mod transport;

pub use auth::{AuthFlavor, AuthGvfs, AuthSys, OpaqueAuth};
pub use batch::{BatchItem, BatchReplyItem, BATCH_ITEM_FAILED, BATCH_OK, MAX_BATCH_ITEMS};
pub use client::{prog_label, RetryPolicy, RpcClient, RpcError};
pub use dispatch::{Dispatcher, ProgramError, RpcProgram};
pub use msg::{AcceptStat, CallHeader, RejectStat, ReplyBody, RpcMessage, RPC_VERSION};
pub use transport::{endpoint, Endpoint, Listener, PendingCall, RpcChannel, WireSpec};
