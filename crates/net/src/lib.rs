//! # seabed-net
//!
//! The wire protocol and concurrent TCP service layer of the Seabed
//! reproduction: the trusted-proxy ↔ untrusted-server boundary of Figure 5 as
//! a real socket instead of an in-process call.
//!
//! The paper's deployment model always had this link — §6.6 even degrades it
//! with `tc` to 100 Mbps and 10 Mbps to show that compressed ID lists keep
//! the WAN penalty small. This crate makes the link concrete:
//!
//! * [`wire`] — a versioned, length-prefixed binary frame format for
//!   requests (`TranslatedQuery` + encrypted filters), responses
//!   (`ServerResponse`), typed errors and the schema handshake; every type's
//!   layout is one `impl Wire`, and a decoder never reserves more bytes than
//!   remain unread in the frame (forged-count hardening);
//! * [`conn`] — [`FrameConn`]: the one framed connection every socket in the
//!   system goes through — one receive rule (a started frame must arrive
//!   whole within one total budget), one poison flag, one byte counter, one
//!   connect;
//! * [`server`] — [`NetServer`]: a `TcpListener` + worker-thread-pool
//!   service hosting a [`seabed_core::SeabedServer`], with a max-frame-size
//!   limit, typed error frames for malformed input, graceful shutdown, and
//!   byte accounting in its metrics registry. The same service speaks the
//!   `seabed-dist` worker protocol: it accepts shard assignments under a
//!   coordinator's epoch and answers shard queries with *mergeable* partial
//!   results;
//! * [`client`] — [`RemoteSeabedClient`]: a [`seabed_core::QueryTarget`]
//!   spoken over the socket, so every existing workload runs unchanged
//!   against the service.
//!
//! Nothing about the trust model changes: only ciphertexts, deterministic
//! tags and ORE symbols cross the wire, in both directions.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod conn;
pub mod server;
pub mod wire;

pub use client::{scrape_metrics, RemoteSeabedClient};
pub use conn::{FrameConn, Received, Wait, WireStats};
pub use server::{NetServer, ServiceConfig};
pub use wire::{Frame, FrameKind, ShardExecConfig, DEFAULT_MAX_FRAME_LEN, PROTOCOL_VERSION};
