//! # seabed-error
//!
//! The workspace-wide typed error spine.
//!
//! Seabed's trust model (§4.1) splits the system into a trusted client proxy
//! and an untrusted server. Before this crate existed, the query path crossed
//! that boundary on `unwrap()`/`panic!`: a malformed response or an unknown
//! physical column could crash the *trusted* proxy from *untrusted* input.
//! Every layer now reports failures through one enum, [`SeabedError`], with a
//! variant per layer, so fallibility is visible in every signature along the
//! client→server query path and callers can match on the layer that failed.
//!
//! Layer-specific error types that existed before the refactor
//! ([`ParseError`], [`TranslateError`]) live here too and convert into
//! [`SeabedError`] via `From`, so `?` propagates them across layers without
//! ceremony.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// A parse error with a human-readable message and the offending position.
///
/// Returned by `seabed_query::parse`; absorbed into [`SeabedError::Parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub position: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Errors the query translator can report.
///
/// `UnknownColumn` is a schema-level failure and maps to
/// [`SeabedError::Schema`]; `Unsupported` maps to [`SeabedError::Translate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// The query references a column the plan does not know about.
    UnknownColumn(String),
    /// An operation is not supported under the column's encryption scheme
    /// (e.g. a range predicate over a SPLASHE dimension).
    Unsupported(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            TranslateError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Schema-level failures: references to columns that do not exist or whose
/// physical representation does not support the requested operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchemaError {
    /// A table name no catalog entry (or hosted table) matches. Raised at
    /// *prepare* time by `seabed_core::SeabedSession` / multi-table targets,
    /// so an unknown `FROM` never reaches a server.
    UnknownTable(String),
    /// A prepared statement was executed with the wrong number of bound
    /// parameters (`?` placeholders). Raised at *bind* time, before anything
    /// ships to a server.
    ParamCount {
        /// Placeholders the statement declares.
        expected: usize,
        /// Parameters the caller supplied.
        actual: usize,
    },
    /// A logical column the schema plan does not know about.
    UnknownColumn(String),
    /// A physical column missing from the encrypted table.
    UnknownPhysicalColumn(String),
    /// A column exists but has the wrong physical type for the operation.
    TypeMismatch {
        /// The column name.
        column: String,
        /// What the operation needed.
        expected: String,
        /// What the schema actually holds.
        actual: String,
    },
    /// A partition's physical layout contradicts the table schema (missing,
    /// mistyped or short column data). Scans validate the layout up front and
    /// report this instead of silently mis-reading cells (e.g. grouping every
    /// row of a corrupt partition under key 0).
    CorruptPartition {
        /// Index of the offending partition.
        partition: usize,
        /// What was inconsistent.
        detail: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            SchemaError::ParamCount { expected, actual } => {
                write!(f, "statement takes {expected} parameter(s), {actual} bound")
            }
            SchemaError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            SchemaError::UnknownPhysicalColumn(c) => write!(f, "unknown physical column: {c}"),
            SchemaError::TypeMismatch {
                column,
                expected,
                actual,
            } => {
                write!(f, "column {column} is {actual}, expected {expected}")
            }
            SchemaError::CorruptPartition { partition, detail } => {
                write!(f, "partition {partition} does not match the schema: {detail}")
            }
        }
    }
}

impl std::error::Error for SchemaError {}

/// The unified error type of the Seabed workspace, one variant per layer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SeabedError {
    /// SQL could not be parsed.
    Parse(ParseError),
    /// The query parsed but cannot be rewritten for the encrypted schema.
    Translate(String),
    /// The data planner could not produce a usable schema plan.
    Plan(String),
    /// A cryptographic operation failed (bad key material, ciphertext
    /// corruption, modulus constraints).
    Crypto(String),
    /// An encoded payload (ID list, compressed block, serialized table) could
    /// not be decoded.
    Encoding(String),
    /// The execution engine failed (malformed partition, task breakdown,
    /// response/plan shape mismatch).
    Engine(String),
    /// A schema-level failure: unknown or wrongly-typed column.
    Schema(SchemaError),
    /// A network/transport failure on the client↔server link (connect,
    /// timeout, unexpected disconnect, I/O error on the socket).
    Net(String),
    /// A wire-protocol failure: a frame or payload received over the network
    /// could not be decoded (bad magic, unsupported version, forged length
    /// prefix, truncated or malformed payload). Distinct from
    /// [`SeabedError::Encoding`], which covers application-level payloads
    /// such as ID lists.
    Wire(String),
    /// A distributed-execution failure in the coordinator/worker layer,
    /// carrying the identity of the worker involved (its address, or a
    /// coordinator-assigned label) so operators can tell *which* node
    /// misbehaved. Used for shard-assignment failures, exhausted re-dispatch
    /// attempts, and protocol violations such as a partial response whose
    /// epoch or sequence number does not match the in-flight request.
    Dist {
        /// Identity of the worker (address or label) the failure concerns;
        /// the coordinator itself reports as `"coordinator"`.
        worker: String,
        /// What went wrong.
        message: String,
    },
    /// A prepared-statement handle the server no longer recognizes (evicted
    /// from its statement cache, or the server restarted). Carries the stale
    /// handle; clients recover by re-preparing the statement — the
    /// `seabed-net` remote client does so transparently, once.
    StaleStatement(u64),
}

impl fmt::Display for SeabedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeabedError::Parse(e) => write!(f, "parse: {e}"),
            SeabedError::Translate(msg) => write!(f, "translate: {msg}"),
            SeabedError::Plan(msg) => write!(f, "plan: {msg}"),
            SeabedError::Crypto(msg) => write!(f, "crypto: {msg}"),
            SeabedError::Encoding(msg) => write!(f, "encoding: {msg}"),
            SeabedError::Engine(msg) => write!(f, "engine: {msg}"),
            SeabedError::Schema(e) => write!(f, "schema: {e}"),
            SeabedError::Net(msg) => write!(f, "net: {msg}"),
            SeabedError::Wire(msg) => write!(f, "wire: {msg}"),
            SeabedError::Dist { worker, message } => write!(f, "dist: worker {worker}: {message}"),
            SeabedError::StaleStatement(handle) => {
                write!(f, "stale statement handle {handle:#x}: re-prepare the statement")
            }
        }
    }
}

impl std::error::Error for SeabedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeabedError::Parse(e) => Some(e),
            SeabedError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for SeabedError {
    fn from(e: ParseError) -> SeabedError {
        SeabedError::Parse(e)
    }
}

impl From<TranslateError> for SeabedError {
    fn from(e: TranslateError) -> SeabedError {
        match e {
            // An unknown column is a property of the schema, not of the
            // translation pass that happened to discover it.
            TranslateError::UnknownColumn(c) => SeabedError::Schema(SchemaError::UnknownColumn(c)),
            TranslateError::Unsupported(msg) => SeabedError::Translate(msg),
        }
    }
}

impl From<SchemaError> for SeabedError {
    fn from(e: SchemaError) -> SeabedError {
        SeabedError::Schema(e)
    }
}

impl SeabedError {
    /// Shorthand constructor for [`SeabedError::Engine`].
    pub fn engine(msg: impl Into<String>) -> SeabedError {
        SeabedError::Engine(msg.into())
    }

    /// Shorthand constructor for [`SeabedError::Encoding`].
    pub fn encoding(msg: impl Into<String>) -> SeabedError {
        SeabedError::Encoding(msg.into())
    }

    /// Shorthand constructor for [`SeabedError::Crypto`].
    pub fn crypto(msg: impl Into<String>) -> SeabedError {
        SeabedError::Crypto(msg.into())
    }

    /// Shorthand constructor for an unknown-physical-column schema error.
    pub fn unknown_physical_column(name: impl Into<String>) -> SeabedError {
        SeabedError::Schema(SchemaError::UnknownPhysicalColumn(name.into()))
    }

    /// Shorthand constructor for [`SeabedError::Net`].
    pub fn net(msg: impl Into<String>) -> SeabedError {
        SeabedError::Net(msg.into())
    }

    /// Shorthand constructor for [`SeabedError::Wire`].
    pub fn wire(msg: impl Into<String>) -> SeabedError {
        SeabedError::Wire(msg.into())
    }

    /// Shorthand constructor for [`SeabedError::Dist`].
    pub fn dist(worker: impl Into<String>, message: impl Into<String>) -> SeabedError {
        SeabedError::Dist {
            worker: worker.into(),
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_unknown_column_maps_to_schema() {
        let e: SeabedError = TranslateError::UnknownColumn("x".to_string()).into();
        assert_eq!(e, SeabedError::Schema(SchemaError::UnknownColumn("x".to_string())));
        let e: SeabedError = TranslateError::Unsupported("nope".to_string()).into();
        assert_eq!(e, SeabedError::Translate("nope".to_string()));
    }

    #[test]
    fn display_prefixes_layer() {
        let e = SeabedError::from(ParseError {
            message: "bad token".to_string(),
            position: 7,
        });
        assert_eq!(e.to_string(), "parse: parse error at byte 7: bad token");
        assert_eq!(
            SeabedError::unknown_physical_column("m__ashe").to_string(),
            "schema: unknown physical column: m__ashe"
        );
        let e = SeabedError::from(SchemaError::CorruptPartition {
            partition: 3,
            detail: "column g is Utf8, schema says UInt64".to_string(),
        });
        assert_eq!(
            e.to_string(),
            "schema: partition 3 does not match the schema: column g is Utf8, schema says UInt64"
        );
        assert_eq!(
            SeabedError::net("connection reset").to_string(),
            "net: connection reset"
        );
        assert_eq!(SeabedError::wire("bad magic").to_string(), "wire: bad magic");
        assert_eq!(
            SeabedError::dist("127.0.0.1:7070", "stalled mid-query").to_string(),
            "dist: worker 127.0.0.1:7070: stalled mid-query"
        );
        assert_eq!(
            SeabedError::Schema(SchemaError::UnknownTable("ghosts".to_string())).to_string(),
            "schema: unknown table: ghosts"
        );
        assert_eq!(
            SeabedError::Schema(SchemaError::ParamCount { expected: 2, actual: 3 }).to_string(),
            "schema: statement takes 2 parameter(s), 3 bound"
        );
        assert_eq!(
            SeabedError::StaleStatement(0xbeef).to_string(),
            "stale statement handle 0xbeef: re-prepare the statement"
        );
    }

    #[test]
    fn source_chain_exposes_layer_errors() {
        use std::error::Error;
        let e = SeabedError::from(ParseError {
            message: "m".to_string(),
            position: 0,
        });
        assert!(e.source().is_some());
        assert!(SeabedError::Translate("t".to_string()).source().is_none());
    }
}
