//! `ipass-serve` — the `ipassd` serving layer for compiled flows.
//!
//! The paper's cost methodology is compile-once / query-many: a flow
//! compiles to a routing program once, and every scenario question is
//! a cheap patched re-evaluation. This crate puts that model behind a
//! long-running TCP server so many clients share one compiled design
//! space: a newline-delimited JSON protocol (verbs `list`, `analyze`,
//! `patch`, `mc`, `stats`, `shutdown`) over `std::net`, with
//!
//! * a compiled-program cache keyed by flow hash
//!   ([`registry::FlowRegistry`], backed by `ipass_sim::Memo`, hit/miss
//!   counted on the probe plane),
//! * request evaluation on each connection's own thread, at most
//!   [`ServerConfig::threads`] at once (a counting gate),
//! * per-request derived seeds ([`protocol::derived_seed`]) so
//!   concurrent clients get bit-identical answers regardless of
//!   interleaving, and
//! * robustness plumbing: bounded request size, per-connection idle
//!   timeouts, typed error responses for every failure, graceful
//!   shutdown that drains in-flight work.
//!
//! DESIGN.md's serving-layer section documents the protocol grammar
//! and the invariants the test battery enforces; the golden wire
//! transcripts under `tests/golden/` pin the encoding byte-for-byte.
//!
//! # Examples
//!
//! ```
//! use ipass_serve::{Client, FlowRegistry, Server, ServerConfig};
//!
//! let mut registry = FlowRegistry::new();
//! registry.register("demo", ipass_serve::testflow::demo_flow());
//! let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let listing = client.request(r#"{"verb":"list"}"#)?;
//! assert_eq!(listing, r#"{"ok":true,"verb":"list","flows":["demo"]}"#);
//! client.request(r#"{"verb":"shutdown"}"#)?;
//! server.wait();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod engine;
pub mod protocol;
mod registry;
mod server;
pub mod testflow;

pub use client::Client;
pub use engine::Engine;
pub use protocol::{
    derived_seed, parse_request, ErrorCode, Request, ServeError, MAX_MC_UNITS, MAX_REQUEST_BYTES,
};
pub use registry::FlowRegistry;
pub use server::{Server, ServerConfig};
