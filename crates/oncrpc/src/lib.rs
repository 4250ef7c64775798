//! ONC RPC v2 (RFC 5531) — the remote procedure call layer under NFS.
//!
//! This is the Rust equivalent of the paper's TI-RPC: transport-independent
//! call/reply messaging with pluggable authentication flavors, written
//! against the [`sgfs_net::Stream`] abstraction so the same client and
//! server code runs over in-memory pipes, emulated WAN links, GTLS secure
//! channels, or real TCP sockets.
//!
//! Layout:
//! * [`msg`] — call/reply message headers, `AUTH_NONE` / `AUTH_SYS`
//!   credentials, accept/reject status codes.
//! * [`record`] — RFC 5531 §11 record marking for stream transports.
//! * [`client`] — a blocking RPC client (`call` = one round trip).
//! * [`server`] — a per-connection dispatch loop over an [`RpcService`].
//! * [`shard`] — the sharded event-driven server core: a fixed pool of
//!   per-core event loops serving thousands of pinned sessions.
//! * [`client_pool`] — the client-side mirror: a fixed pool of event
//!   loops multiplexing many pipelined upstream connections.
//! * [`loopback`] — synchronous in-process dispatch, so a proxy can call
//!   a same-process backend without a thread or a pipe.
//!
//! The SGFS proxies additionally use the header types directly to inspect
//! and rewrite credentials in-flight, which is the core of the paper's
//! user-level virtualization technique.

pub mod client;
pub mod client_pool;
pub mod error;
pub mod loopback;
pub mod msg;
pub mod record;
pub mod server;
pub mod shard;

pub use client::RpcClient;
pub use client_pool::{ClientIoPool, ConnPump, PoolConn};
pub use error::RpcError;
pub use loopback::LoopbackStream;
pub use msg::{AcceptStat, AuthFlavor, AuthSysParams, CallHeader, OpaqueAuth, ReplyHeader};
pub use server::{serve_connection, spawn_connection, RpcService};
pub use shard::{
    process_thread_count, AdmissionPolicy, RecordService, RpcRecordService, ShardServer,
    ShardStats,
};

/// The fixed RPC protocol version this crate speaks.
pub const RPC_VERSION: u32 = 2;

/// The process thread count is global: tests that assert on it run
/// alone, while every test here that starts threads holds this lock
/// shared, and they measure from a quiesced baseline.
#[cfg(test)]
pub(crate) mod test_threads {
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
    use std::time::Duration;

    static PROCESS: RwLock<()> = RwLock::new(());

    /// Held by every test that starts threads.
    pub fn shared() -> RwLockReadGuard<'static, ()> {
        PROCESS.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Held by a test that reads the process thread count.
    pub fn alone() -> RwLockWriteGuard<'static, ()> {
        PROCESS.write().unwrap_or_else(|e| e.into_inner())
    }

    /// The thread count once it has held still for 10 ms (threads of
    /// finished tests may still be exiting).
    pub fn quiesced() -> Option<usize> {
        let mut last = crate::process_thread_count()?;
        for _ in 0..200 {
            std::thread::sleep(Duration::from_millis(10));
            let now = crate::process_thread_count()?;
            if now == last {
                break;
            }
            last = now;
        }
        Some(last)
    }
}
