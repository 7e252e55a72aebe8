//! The live driver: the same daemon state machine over real TCP sockets.
//!
//! The simulator ([`crate::sim`]) executes [`Daemon`](crate::daemon::Daemon)
//! inside a virtual world; this module executes the *identical* state
//! machine against real sockets, proving the sans-IO design is not
//! simulator-bound. One driver does it, configured by [`LiveConfig`] and
//! speaking one wire protocol ([`wire`]):
//!
//! * [`LiveServer`] — the reactor: sharded non-blocking accept loops,
//!   dialing, bounded per-connection write queues with explicit
//!   backpressure shedding, idle and handshake deadlines, and optional
//!   store persistence via [`LivePersist`]. Standalone, it serves
//!   thousands of concurrent thin clients.
//! * [`LiveNet`] — an in-process directory that makes several servers a
//!   neighborhood of full peers: they discover each other through it and
//!   dial each other over TCP.
//!
//! See `examples/live_tcp_demo.rs` for a two-member `LiveNet` run and
//! `repro live` (the harness load generator) for driving a standalone
//! `LiveServer`.

mod config;
mod net;
mod reactor;
pub mod wire;

pub use config::LiveConfig;
pub use net::LiveNet;
pub use reactor::{LivePersist, LiveServer, LiveStats};
