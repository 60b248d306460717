//! The remote Seabed client proxy: a [`QueryTarget`] spoken over the wire
//! protocol, so a [`seabed_core::SeabedSession`] — and with it every
//! workload — runs unchanged against a socket.
//!
//! On connect, the client performs the schema handshake (one
//! `SchemaRequest`/`Schema` round trip); a session over it validates and
//! binds every statement against that schema — exactly what the in-process
//! path does with `server.table().schema`, minus the shared address space.
//! All cryptography stays with the session's [`SeabedClient`]: literals are
//! encrypted before a request frame is built, responses are decrypted after
//! the frame is decoded, and the server side of the socket only ever sees
//! ciphertexts.
//!
//! The connection counts the bytes it really puts on / takes off the wire
//! ([`RemoteSeabedClient::wire_stats`]); time on the link is what the
//! session's `dispatch` span measured, never a model's prediction.

use crate::conn::{FrameConn, WireStats};
use crate::wire::{self, Frame};
use seabed_core::{ExecOutcome, ExecRequest, FifoMap, PhysicalFilter, QueryTarget, SeabedClient, ServerResponse};
use seabed_engine::Schema;
use seabed_error::SeabedError;
use seabed_obs::{MetricsSnapshot, QueryEvent};
use seabed_query::TranslatedQuery;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// What a reply of the wrong kind means: a typed error frame from the server
/// is the [`SeabedError`] it carries; anything else is a protocol violation.
fn unexpected(reply: Frame, expected: &str) -> SeabedError {
    match reply {
        Frame::Error(err) => err,
        other => SeabedError::wire(format!("expected {expected}, got {:?}", other.kind())),
    }
}

/// A Seabed client proxy talking to a remote [`seabed_core::SeabedServer`]
/// over TCP.
pub struct RemoteSeabedClient {
    inner: SeabedClient,
    schema: Schema,
    peer: SocketAddr,
    max_frame_len: u32,
    read_timeout: Duration,
    conn: Mutex<FrameConn>,
    /// Server-side statement handles, keyed by the statement's *plan
    /// content* hash (the same bytes the server hashes into the handle) —
    /// never by the caller's statement id alone, so a statement whose plan
    /// changed under the same SQL text (re-planned catalog entry, or an SQL
    /// hash collision) can never be paired with a stale registration. A
    /// handle the server reports stale is dropped, the statement re-prepared
    /// once, and the execution retried — transparently to the caller. The
    /// cache is capacity-bounded (FIFO), mirroring the server store, so a
    /// long-lived client with many distinct statements cannot grow it
    /// without limit.
    handles: Mutex<FifoMap<u64, u64>>,
}

/// Capacity of the client-side handle cache; matches the server statement
/// store's default so the two stay roughly in step.
const HANDLE_CACHE_CAPACITY: usize = 1024;

impl RemoteSeabedClient {
    /// Connects to a Seabed service, performs the schema handshake, and wraps
    /// `client` (which holds the keys, plan and DET dictionaries) into a
    /// remote execution target.
    pub fn connect(addr: impl ToSocketAddrs, client: SeabedClient) -> Result<RemoteSeabedClient, SeabedError> {
        RemoteSeabedClient::connect_with(addr, client, wire::DEFAULT_MAX_FRAME_LEN, Duration::from_secs(30))
    }

    /// [`RemoteSeabedClient::connect`] with an explicit frame limit and read
    /// timeout: every reply must arrive, whole, within `read_timeout` of its
    /// request being written.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        client: SeabedClient,
        max_frame_len: u32,
        read_timeout: Duration,
    ) -> Result<RemoteSeabedClient, SeabedError> {
        let mut conn = FrameConn::connect(addr, read_timeout)?;
        let peer = conn.peer_addr()?;
        let schema = match conn.round_trip(&Frame::SchemaRequest, max_frame_len, read_timeout)? {
            Frame::Schema(schema) => schema,
            other => return Err(unexpected(other, "a schema frame during the handshake")),
        };
        Ok(RemoteSeabedClient {
            inner: client,
            schema,
            peer,
            max_frame_len,
            read_timeout,
            conn: Mutex::new(conn),
            handles: Mutex::new(FifoMap::new(HANDLE_CACHE_CAPACITY)),
        })
    }

    /// The proxy this client was connected for (keys, plan, dictionaries).
    pub fn client(&self) -> &SeabedClient {
        &self.inner
    }

    /// The server's table schema as fetched during the handshake.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The address of the connected service.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// A snapshot of the connection's byte accounting.
    pub fn wire_stats(&self) -> WireStats {
        self.conn.lock().unwrap_or_else(|p| p.into_inner()).stats()
    }

    /// One round trip on the shared connection under the [`FrameConn`] rules
    /// (any transport or framing failure poisons it).
    fn round_trip(&self, frame: &Frame) -> Result<Frame, SeabedError> {
        let mut conn = self.conn.lock().unwrap_or_else(|p| p.into_inner());
        conn.round_trip(frame, self.max_frame_len, self.read_timeout)
    }

    /// A round trip whose reply must be a `Response` frame.
    fn round_trip_response(&self, frame: &Frame) -> Result<ServerResponse, SeabedError> {
        match self.round_trip(frame)? {
            Frame::Response(response) => Ok(response),
            other => Err(unexpected(other, "a response frame")),
        }
    }

    /// Registers a statement's (unbound) plan on the server, returning the
    /// server-side handle. Identical plans map to identical handles.
    fn prepare_remote_statement(&self, statement: &TranslatedQuery) -> Result<u64, SeabedError> {
        let frame = Frame::PrepareStatement {
            query: statement.clone(),
        };
        match self.round_trip(&frame)? {
            Frame::StatementPrepared { handle } => Ok(handle),
            other => Err(unexpected(other, "a statement handle")),
        }
    }

    /// One execution over the wire: the (still encrypted) response. A typed
    /// error frame from the server is surfaced as the [`SeabedError`] it
    /// carries. A non-zero `trace_id` travels in the frame, so the server
    /// records its execute span under the id the session uses.
    ///
    /// A request without a statement id, or an analyzed one, ships the whole
    /// plan in a `Request` frame (the only frame with an `analyze` flag). A
    /// prepared one registers the plan once and thereafter ships only the
    /// handle (a 64-bit hash sent as 8 fixed bytes) plus the bound
    /// filters — no SQL, no translated plan; a
    /// [`SeabedError::StaleStatement`] from the server (evicted handle,
    /// server restart) is recovered from by re-preparing once, and a second
    /// staleness in a row surfaces to the caller.
    fn exchange(&self, request: &ExecRequest<'_>) -> Result<ServerResponse, SeabedError> {
        let (statement, trace_id) = (request.plan, request.trace_id);
        if request.statement_id.is_none() || request.analyze {
            return self.round_trip_response(&Frame::Request {
                query: statement.clone(),
                filters: request.filters.to_vec(),
                trace_id,
                analyze: request.analyze,
            });
        }
        let execute_handle = |handle: u64| {
            self.round_trip_response(&Frame::ExecuteStatement {
                handle,
                trace_id,
                filters: request.filters.to_vec(),
            })
        };
        // The handle cache is keyed by the statement's plan *content* (the
        // exact bytes the server hashes into the handle), not by
        // `statement_id`: a caller that re-prepares the same SQL text under
        // a new plan gets a fresh registration instead of the old plan's
        // handle.
        let content_key = wire::statement_hash(statement);
        let register = || -> Result<u64, SeabedError> {
            let handle = self.prepare_remote_statement(statement)?;
            self.handles
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .insert(content_key, handle);
            Ok(handle)
        };
        let cached = self
            .handles
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&content_key)
            .copied();
        let handle = match cached {
            Some(handle) => handle,
            None => register()?,
        };
        match execute_handle(handle) {
            // The server forgot the statement (eviction or restart):
            // re-prepare once and retry. A repeat staleness is surfaced.
            Err(SeabedError::StaleStatement(_)) => execute_handle(register()?),
            outcome => outcome,
        }
    }
}

/// Scrapes a live Seabed service's metrics snapshot (and, when
/// `include_events` is set, its ring of recent query events — one per
/// execution) over a fresh connection. No schema handshake and no keys: the
/// telemetry surface never carries plaintext (metric names are static
/// identifiers, events carry stage names, durations, statement hashes,
/// structural plan strings and outcome tags), so an operator's scraper does
/// not need a [`SeabedClient`].
pub fn scrape_metrics(
    addr: impl ToSocketAddrs,
    include_events: bool,
    read_timeout: Duration,
) -> Result<(MetricsSnapshot, Vec<QueryEvent>), SeabedError> {
    let mut conn = FrameConn::connect(addr, read_timeout)?;
    let request = Frame::MetricsRequest { include_events };
    match conn.round_trip(&request, wire::DEFAULT_MAX_FRAME_LEN, read_timeout)? {
        Frame::MetricsSnapshot { metrics, events } => Ok((metrics, events)),
        other => Err(unexpected(other, "a metrics snapshot")),
    }
}

/// What a [`seabed_core::SeabedSession`] sits on: an execution without a
/// statement id (or an analyzed one) goes out as a full request frame, a
/// prepared one as a statement handle plus bound filters.
impl QueryTarget for RemoteSeabedClient {
    fn schema_of(&self, _table: &str) -> Result<&Schema, SeabedError> {
        // The remote service hosts one (anonymous) table; the session's
        // catalog is the authority on table names.
        Ok(&self.schema)
    }

    fn execute_query(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        self.exchange(&ExecRequest::new(query, filters))
    }

    fn run(&self, request: &ExecRequest<'_>) -> Result<ExecOutcome, SeabedError> {
        Ok(self.exchange(request)?.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A round trip that fails mid-stream poisons the connection: a retry
    /// must not be allowed to pair a fresh request with a stale or partial
    /// response left in the socket.
    #[test]
    fn failed_round_trip_poisons_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let fake_server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Read whatever the client sent, then answer with a valid header
            // whose payload is garbage — a decode failure after a complete
            // frame read.
            let mut buf = [0u8; 256];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            let mut reply = Vec::new();
            reply.extend_from_slice(&wire::MAGIC);
            reply.extend_from_slice(&wire::PROTOCOL_VERSION.to_le_bytes());
            reply.push(2); // response kind
            reply.extend_from_slice(&4u32.to_le_bytes());
            reply.extend_from_slice(&[0xff, 0xff, 0xff, 0xff]);
            std::io::Write::write_all(&mut stream, &reply).expect("reply");
            // Keep the stream open so a (buggy) retry would not just see EOF.
            std::thread::sleep(Duration::from_millis(300));
        });

        let timeout = Duration::from_secs(5);
        let mut conn = FrameConn::connect(addr, timeout).expect("connect");
        let first = conn.round_trip(&Frame::SchemaRequest, wire::DEFAULT_MAX_FRAME_LEN, timeout);
        assert!(matches!(first, Err(SeabedError::Wire(_))), "{first:?}");
        // The retry is refused up front instead of desynchronizing.
        let second = conn.round_trip(&Frame::SchemaRequest, wire::DEFAULT_MAX_FRAME_LEN, timeout);
        match second {
            Err(SeabedError::Net(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
            other => panic!("expected a poisoned-connection error, got {other:?}"),
        }
        fake_server.join().expect("fake server");
    }
}
