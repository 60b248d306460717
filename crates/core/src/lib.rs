//! # seabed-core
//!
//! Seabed: efficient analytics over large encrypted datasets
//! (Papadimitriou et al., OSDI 2016).
//!
//! This crate ties the substrates together into the system of Figure 5:
//!
//! * [`keys`] — the proxy's key store (one derived key per column);
//! * [`dataset`] — plaintext datasets as uploaded by the data collector;
//! * [`encrypt`] — the encryption module turning plaintext uploads into the
//!   encrypted physical schema (ASHE, SPLASHE, DET, OPE columns);
//! * [`server`] — the untrusted Seabed server executing translated queries
//!   over the partitioned encrypted table;
//! * [`client`] — the trusted client proxy of one table: its plan, its keys
//!   (every column's scheme, built once), literal encryption and result
//!   decryption;
//! * [`session`] — the one way from SQL text to decrypted rows: a catalog of
//!   proxies over one execution target, with a statement cache, traces and
//!   metrics.
//!
//! The NoEnc and Paillier pipelines the paper compares against are not part
//! of the system; they live with the experiments in `seabed-bench`.
//!
//! ```
//! use seabed_core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
//! use seabed_core::ResultValue;
//! use seabed_query::{parse, ColumnSpec, PlannerConfig};
//! use seabed_engine::{Cluster, ClusterConfig};
//!
//! // 1. Plaintext data at the collector.
//! let data = PlainDataset::new("sales")
//!     .with_text_column("country", vec!["US".into(), "US".into(), "IN".into()])
//!     .with_uint_column("revenue", vec![10, 20, 30]);
//!
//! // 2. Plan the encrypted schema from sample queries.
//! let columns = vec![
//!     ColumnSpec::sensitive_with_distribution("country", data.distribution("country").unwrap()),
//!     ColumnSpec::sensitive("revenue"),
//! ];
//! let samples = vec![parse("SELECT SUM(revenue) FROM sales WHERE country = 'US'").unwrap()];
//! let mut client = SeabedClient::create_plan(b"master-secret", &columns, &samples, &PlannerConfig::default());
//!
//! // 3. Encrypt and "upload" the data, then stand up a server over it.
//! let encrypted = client.encrypt_dataset(&data, 2, &mut rand::rng());
//! let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
//!
//! // 4. Query through a session over the proxy; results come back decrypted.
//! let session = SeabedSession::single("sales", client, &server);
//! let result = session.query("SELECT SUM(revenue) FROM sales WHERE country = 'US'", &[]).unwrap();
//! assert_eq!(result.rows[0][0], ResultValue::UInt(30));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod dataset;
pub mod encrypt;
pub mod fifo;
pub mod keys;
pub mod server;
pub mod session;

pub use client::{QueryResult, ResultValue, SeabedClient};
pub use dataset::{PlainColumn, PlainDataset};
pub use encrypt::{encrypt_dataset, EncryptedTable};
pub use fifo::FifoMap;
pub use keys::KeyStore;
pub use server::{
    finalize_partials, EncryptedAggregate, ExecOutcome, ExecRequest, GroupIds, GroupResult, PartialResponse,
    PhysicalFilter, QueryTarget, SeabedServer, ServerResponse,
};
pub use session::{
    event_operators, fnv1a64, outcome_tag, plan_profile, validate_against_schema, Catalog, Explanation, PreparedQuery,
    SeabedSession, SessionStats,
};
