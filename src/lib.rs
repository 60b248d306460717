//! # seabed
//!
//! Umbrella crate of the Seabed reproduction (Papadimitriou et al., OSDI
//! 2016): re-exports every layer under one roof and hosts the workspace-level
//! integration tests (`tests/`) and runnable walkthroughs (`examples/`).
//!
//! The layers, bottom to top:
//!
//! * [`error`] — the unified [`error::SeabedError`] spine;
//! * [`crypto`] — AES, SHA-256/HMAC, DET, ORE and the PRFs;
//! * [`encoding`] — ID-list encodings, bitmaps, DEFLATE;
//! * [`ashe`] — the additively symmetric homomorphic encryption scheme;
//! * [`splashe`] — splayed aggregation over low-cardinality dimensions;
//! * [`engine`] — the partitioned columnar engine and cluster cost model;
//! * [`query`] — SQL dialect, data planner, query translator;
//! * [`core`] — client proxy, untrusted server, sessions;
//! * [`obs`] — unified metrics registry (counters, gauges, log-bucket
//!   latency histograms) and end-to-end query tracing;
//! * [`net`] — wire protocol + concurrent TCP service layer (the proxy ↔
//!   server boundary as a real socket);
//! * [`dist`] — sharded scatter/gather execution: a coordinator fanning
//!   encrypted queries out across networked workers and merging their
//!   partial results;
//! * [`workloads`] — synthetic, BDB and Ad-Analytics workload generators.
//!
//! The paper's baselines — the NoEnc and Paillier pipelines, Paillier's
//! big-integer arithmetic and the §6.6 link model — are not a layer: no
//! proxy, server or worker runs them, so they live in the harness crate,
//! `seabed-bench`, which the tests reach as a dev-dependency.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use seabed_ashe as ashe;
pub use seabed_core as core;
pub use seabed_crypto as crypto;
pub use seabed_dist as dist;
pub use seabed_encoding as encoding;
pub use seabed_engine as engine;
pub use seabed_error as error;
pub use seabed_net as net;
pub use seabed_obs as obs;
pub use seabed_query as query;
pub use seabed_splashe as splashe;
pub use seabed_workloads as workloads;

pub use seabed_error::SeabedError;
