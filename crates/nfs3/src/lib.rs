//! # nfs3 — NFSv3 and MOUNT over simulated ONC-RPC
//!
//! The distributed-file-system substrate of the GVFS reproduction:
//!
//! * [`proto`]/[`args`]/[`results`] — RFC 1813 wire types: arguments
//!   and, written once for server, client and proxy, the result bodies,
//! * [`Nfs3Server`]/[`MountServer`] — a simulated kernel NFS server
//!   exporting a [`vfs::Fs`] with disk and buffer-cache timing,
//! * [`Nfs3Client`] — a typed client stub,
//! * [`KernelClient`] — the compute server's kernel NFS client model
//!   (buffer/attribute/dentry caches, write staging, read gathering),
//!   implementing [`vfs::FileIo`].
//!
//! GVFS (crate `gvfs`) interposes user-level proxies between
//! [`KernelClient`] and [`Nfs3Server`] without either of them changing —
//! which is the paper's core claim.

#![warn(missing_docs)]

pub mod args;
pub mod client;
pub mod kernel;
pub mod proto;
pub mod results;
pub mod server;

pub use client::{Nfs3Client, NfsError, NfsResult};
pub use kernel::{KernelClient, KernelConfig, KernelStats};
pub use proto::{proc3_name, Fh3, Status, MAX_BLOCK, MOUNT_PROGRAM, MOUNT_V3, NFS_PROGRAM, NFS_V3};
pub use server::{MountServer, Nfs3Server, ServerConfig, ServerStats};
