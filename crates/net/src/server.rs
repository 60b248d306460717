//! The concurrent TCP service hosting a [`SeabedServer`].
//!
//! An acceptor thread listens on a [`std::net::TcpListener`] and hands
//! accepted connections to connection threads over a channel; a thread owns
//! its connection until the peer disconnects, then waits for the next one. A
//! thread is spawned when a connection arrives and none is idle, up to
//! [`ServiceConfig::worker_threads`] — the cap on simultaneously served
//! connections; past it, queued connections wait for a free thread, they are
//! never dropped. A worker that one coordinator link talks to runs one
//! connection thread, however many cores the host has; the
//! `net_connection_threads` gauge counts them. Each thread serves its
//! connection through a [`FrameConn`] (the one framing rule, stated in
//! [`crate::conn`]):
//!
//! * request frames are executed against the shared [`SeabedServer`]; the
//!   result (or the typed [`SeabedError`] the engine reported) goes back as
//!   one frame;
//! * malformed payloads, unknown frame kinds and protocol misuse are answered
//!   with a typed error frame and the connection *survives* — only a broken
//!   stream closes it, and even that closes one connection, never the
//!   process;
//! * an idle connection may wait forever (until [`NetServer::shutdown`],
//!   noticed within a poll tick), but a frame must arrive whole within
//!   [`ServiceConfig::read_timeout`] of its first byte — stalled or trickled.
//!
//! The service's lifetime counters (connections, requests, error frames,
//! bytes in/out, statements) live in its [`Registry`] and nowhere else:
//! [`NetServer::registry`] reads them live, a metrics scrape reads them
//! remotely, and [`NetServer::shutdown`] returns their final snapshot — so
//! benches and tests account for every byte that really crossed the wire
//! under the names a scrape shows (`net_bytes_in`, `net_requests_served`, …).

use crate::conn::{FrameConn, Received, Wait, WireStats};
use crate::wire::{self, Frame, FrameKind};
use seabed_core::{FifoMap, SeabedServer};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_error::SeabedError;
use seabed_obs::{Counter, Gauge, Histogram, MetricsSnapshot, ObsConfig, Registry};
use seabed_query::TranslatedQuery;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the TCP service.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// The most connection threads the service runs. A thread is spawned
    /// when a connection arrives and none is idle, and owns its connection
    /// until the peer disconnects, so this caps the number of
    /// *simultaneously served* connections; further accepted connections
    /// queue until a thread frees up.
    pub worker_threads: usize,
    /// Total time a frame may take from its first byte to its last before
    /// the connection is closed. Idle connections (no frame started) are not
    /// subject to it.
    pub read_timeout: Duration,
    /// Socket write timeout for response frames.
    pub write_timeout: Duration,
    /// Upper bound on a frame payload; larger length prefixes are rejected
    /// before any allocation.
    pub max_frame_len: u32,
    /// Capacity of the prepared-statement store. When full, the oldest
    /// registration is evicted; clients executing an evicted handle receive
    /// a typed [`SeabedError::StaleStatement`] frame and re-prepare.
    pub statement_capacity: usize,
    /// Observability configuration for the service's [`Registry`]
    /// (histogram timers and trace recording; counters always count).
    pub obs: ObsConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            worker_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(4),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_frame_len: wire::DEFAULT_MAX_FRAME_LEN,
            statement_capacity: 1024,
            obs: ObsConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Returns the configuration with the connection-thread cap replaced.
    pub fn worker_threads(mut self, workers: usize) -> ServiceConfig {
        self.worker_threads = workers.max(1);
        self
    }

    /// Returns the configuration with the frame limit replaced.
    pub fn max_frame_len(mut self, limit: u32) -> ServiceConfig {
        self.max_frame_len = limit;
        self
    }

    /// Returns the configuration with the statement-store capacity replaced.
    pub fn statement_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.statement_capacity = capacity.max(1);
        self
    }

    /// Returns the configuration with the observability config replaced.
    pub fn obs(mut self, obs: ObsConfig) -> ServiceConfig {
        self.obs = obs;
        self
    }
}

/// The service's instrument handles, registered once at serve time so
/// recording never touches the registry's maps. The counters are the
/// service's lifetime totals; they have no other home.
struct NetMetrics {
    /// Connections accepted.
    connections: Counter,
    /// Request frames answered with a response frame.
    requests_served: Counter,
    /// Error frames sent (malformed input, failed queries, protocol misuse).
    error_frames: Counter,
    /// Bytes read off all sockets.
    bytes_in: Counter,
    /// Bytes written to all sockets.
    bytes_out: Counter,
    /// Statements registered through `PrepareStatement` frames (re-preparing
    /// an identical statement counts again but reuses the handle).
    statements_prepared: Counter,
    /// Statements evicted from the store to make room (executions of their
    /// handles come back as typed `StaleStatement` frames).
    statements_evicted: Counter,
    /// Wall time from a complete frame payload to its computed reply.
    request_ns: Histogram,
    /// Shard-scan execute time on this worker (successful scans only).
    shard_execute_ns: Histogram,
    /// Shards currently resident in the shard store.
    shard_store_size: Gauge,
    /// Connection threads spawned so far (they live until shutdown).
    connection_threads: Gauge,
    /// Ingress frame counters indexed by the wire kind byte
    /// (`net_frames_<kind>`); index 0 is never hit (kind bytes start at 1).
    frames_by_kind: Vec<Counter>,
}

impl NetMetrics {
    fn new(obs: &Registry) -> NetMetrics {
        let frames_by_kind = (0..=FrameKind::ALL.iter().map(|&kind| kind as u8).max().unwrap_or(0))
            .map(|byte| match FrameKind::from_u8(byte) {
                Some(kind) => obs.counter(&format!("net_frames_{}", kind_slug(kind))),
                None => obs.counter("net_frames_unknown"),
            })
            .collect();
        NetMetrics {
            connections: obs.counter("net_connections"),
            requests_served: obs.counter("net_requests_served"),
            error_frames: obs.counter("net_error_frames"),
            bytes_in: obs.counter("net_bytes_in"),
            bytes_out: obs.counter("net_bytes_out"),
            statements_prepared: obs.counter("net_statements_prepared"),
            statements_evicted: obs.counter("net_statements_evicted"),
            request_ns: obs.histogram("net_request_ns"),
            shard_execute_ns: obs.histogram("shard_execute_ns"),
            shard_store_size: obs.gauge("shard_store_size"),
            connection_threads: obs.gauge("net_connection_threads"),
            frames_by_kind,
        }
    }

    fn count_frame(&self, kind_byte: u8) {
        if let Some(counter) = self.frames_by_kind.get(kind_byte as usize) {
            counter.incr();
        }
    }
}

/// `ShardQuery` → `shard_query`: the metric-name slug of a frame kind.
fn kind_slug(kind: FrameKind) -> String {
    let mut slug = String::new();
    for c in format!("{kind:?}").chars() {
        if c.is_ascii_uppercase() {
            if !slug.is_empty() {
                slug.push('_');
            }
            slug.push(c.to_ascii_lowercase());
        } else {
            slug.push(c);
        }
    }
    slug
}

/// Shards resident on this service for the `seabed-dist` scatter/gather
/// protocol, keyed by coordinator-assigned **(table id, shard id)** under one
/// epoch — one worker pool hosts shards of many encrypted tables.
///
/// A coordinator announces its epoch with a `WorkerHandshake`; seeing a *new*
/// epoch drops every shard of the old one, so a restarted coordinator can
/// never query stale assignments. Shards are wrapped in `Arc` so a shard
/// query executes outside the store lock — a long scan on one connection
/// cannot block shard loads or queries on another.
#[derive(Default)]
struct ShardStore {
    inner: Mutex<ShardEpoch>,
}

#[derive(Default)]
struct ShardEpoch {
    epoch: u64,
    shards: HashMap<(u32, u32), Arc<SeabedServer>>,
}

impl ShardStore {
    /// Applies a handshake: a new epoch evicts all resident shards.
    fn handshake(&self, epoch: u64) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.epoch != epoch {
            inner.epoch = epoch;
            inner.shards.clear();
        }
        inner.shards.len() as u64
    }

    /// Installs a shard under `epoch`; fails when the epoch is not current.
    fn load(
        &self,
        identity: &str,
        epoch: u64,
        table_id: u32,
        shard: u32,
        server: SeabedServer,
    ) -> Result<u64, SeabedError> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.epoch != epoch {
            return Err(SeabedError::dist(
                identity,
                format!(
                    "shard {table_id}/{shard} arrived for epoch {epoch} but epoch {} is in force",
                    inner.epoch
                ),
            ));
        }
        let rows = server.table().num_rows() as u64;
        inner.shards.insert((table_id, shard), Arc::new(server));
        Ok(rows)
    }

    /// Drops a shard (replica rebalance moved it off this worker); returns
    /// the number of shards still resident. Unloading a shard that is not
    /// resident succeeds too — the coordinator's unload is idempotent — but
    /// an epoch mismatch is a typed error like every other stale-epoch frame.
    fn unload(&self, identity: &str, epoch: u64, table_id: u32, shard: u32) -> Result<u64, SeabedError> {
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.epoch != epoch {
            return Err(SeabedError::dist(
                identity,
                format!(
                    "unload of shard {table_id}/{shard} names epoch {epoch} but epoch {} is in force",
                    inner.epoch
                ),
            ));
        }
        inner.shards.remove(&(table_id, shard));
        Ok(inner.shards.len() as u64)
    }

    /// Number of shards currently resident (for the store-size gauge).
    fn resident(&self) -> u64 {
        self.inner.lock().unwrap_or_else(|p| p.into_inner()).shards.len() as u64
    }

    /// Fetches a shard for querying; fails on epoch mismatch or unknown id.
    fn get(&self, identity: &str, epoch: u64, table_id: u32, shard: u32) -> Result<Arc<SeabedServer>, SeabedError> {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        if inner.epoch != epoch {
            return Err(SeabedError::dist(
                identity,
                format!("query for epoch {epoch} but epoch {} is in force", inner.epoch),
            ));
        }
        inner.shards.get(&(table_id, shard)).cloned().ok_or_else(|| {
            SeabedError::dist(
                identity,
                format!("shard {table_id}/{shard} is not resident on this worker"),
            )
        })
    }
}

/// Prepared statements registered by clients, keyed by a content-derived
/// handle (FNV-1a of the statement's encoded payload, so identical plans map
/// to identical handles across clients and reconnects).
///
/// The store is capacity-bounded: registrations beyond
/// [`ServiceConfig::statement_capacity`] evict the oldest handle (FIFO —
/// re-preparing refreshes a statement's position). Executing an evicted or
/// never-registered handle yields a typed [`SeabedError::StaleStatement`]
/// frame, which clients recover from by re-preparing; the `seabed-net`
/// client does so transparently, once.
struct StatementStore(Mutex<FifoMap<u64, Arc<TranslatedQuery>>>);

impl StatementStore {
    fn new(capacity: usize) -> StatementStore {
        StatementStore(Mutex::new(FifoMap::new(capacity)))
    }

    /// Registers `query`, returning its handle and how many statements were
    /// evicted to make room.
    fn prepare(&self, query: TranslatedQuery) -> (u64, u64) {
        let handle = wire::statement_hash(&query);
        let mut statements = self.0.lock().unwrap_or_else(|p| p.into_inner());
        (handle, statements.insert(handle, Arc::new(query)))
    }

    fn get(&self, handle: u64) -> Result<Arc<TranslatedQuery>, SeabedError> {
        let statements = self.0.lock().unwrap_or_else(|p| p.into_inner());
        statements
            .get(&handle)
            .cloned()
            .ok_or(SeabedError::StaleStatement(handle))
    }
}

/// A running Seabed TCP service.
///
/// Created by [`NetServer::serve`]; stopped by [`NetServer::shutdown`] (or on
/// drop, which performs the same graceful stop).
pub struct NetServer {
    local_addr: SocketAddr,
    service: Arc<Service>,
    /// Returns the connection threads it spawned when it stops.
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port), spawns the acceptor,
    /// and starts serving `server` — which only ever sees ciphertexts, so
    /// hosting it on a socket does not change the trust boundary, it just
    /// makes it real. Connection threads start as connections arrive.
    pub fn serve(server: SeabedServer, addr: &str, config: ServiceConfig) -> Result<NetServer, SeabedError> {
        let listener = TcpListener::bind(addr).map_err(|e| SeabedError::net(format!("bind {addr}: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| SeabedError::net(format!("local_addr: {e}")))?;
        let obs = Registry::new(config.obs);
        let service = Arc::new(Service {
            server,
            shards: ShardStore::default(),
            statements: StatementStore::new(config.statement_capacity),
            identity: local_addr.to_string(),
            metrics: NetMetrics::new(&obs),
            obs,
            config,
            shutdown: AtomicBool::new(false),
            spare_threads: AtomicIsize::new(0),
        });
        let acceptor = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || accept_connections(&listener, &service))
        };
        Ok(NetServer {
            local_addr,
            service,
            acceptor: Some(acceptor),
        })
    }

    /// The address the service is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The service's metrics registry (shared interior — a clone sees every
    /// later update). The same snapshot is served remotely to
    /// [`Frame::MetricsRequest`] scrapes.
    pub fn registry(&self) -> Registry {
        self.service.obs.clone()
    }

    /// Gracefully stops the service: stops accepting, lets every worker
    /// finish its in-flight request, closes the connections, joins all
    /// threads, and returns the registry's final snapshot (`net_requests_served`,
    /// `net_bytes_in` and the other `net_*` counters).
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.service.obs.snapshot()
    }

    fn stop_and_join(&mut self) {
        if self.service.shutdown.swap(true, Ordering::SeqCst) {
            return; // already stopped
        }
        // Unblock the acceptor's blocking accept() with a throwaway
        // connection to ourselves; it observes the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(Ok(threads)) = self.acceptor.take().map(JoinHandle::join) {
            for thread in threads {
                let _ = thread.join();
            }
        }
    }
}

/// The acceptor: counts each connection and queues it for a connection
/// thread, spawning one first when none is spare and the cap allows. Returns
/// the threads it spawned once the service stops; dropping the queue's sender
/// on the way out lets each of them finish its connection and exit.
fn accept_connections(listener: &TcpListener, service: &Arc<Service>) -> Vec<JoinHandle<()>> {
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let mut threads = Vec::new();
    for stream in listener.incoming() {
        if service.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Transient accept errors (e.g. aborted handshakes) must not kill the
        // service.
        let Ok(stream) = stream else { continue };
        service.metrics.connections.incr();
        // This connection takes a spare thread if there is one; otherwise a
        // new thread is its spare, or — at the cap — it waits in the queue.
        let cap = service.config.worker_threads.max(1);
        if service.spare_threads.fetch_sub(1, Ordering::SeqCst) <= 0 && threads.len() < cap {
            let (rx, shared) = (Arc::clone(&rx), Arc::clone(service));
            // A thread that cannot be spawned leaves the connection queued for
            // the threads there are.
            if let Ok(thread) = std::thread::Builder::new().spawn(move || serve_connections(&rx, &shared)) {
                service.spare_threads.fetch_add(1, Ordering::SeqCst);
                threads.push(thread);
                service.metrics.connection_threads.set(threads.len() as u64);
            }
        }
        if tx.send(stream).is_err() {
            break;
        }
    }
    threads
}

/// A connection thread: serves one queued connection after another, then
/// counts itself spare again, until the acceptor stops.
fn serve_connections(queue: &Mutex<mpsc::Receiver<TcpStream>>, service: &Service) {
    loop {
        // Holding the lock only for the recv: one queued connection wakes
        // exactly one thread.
        let next = queue.lock().unwrap_or_else(|p| p.into_inner()).recv();
        let Ok(stream) = next else {
            break; // acceptor gone: the service is shutting down
        };
        let served = handle_connection(stream, service);
        // Spare again before the peer sees its connection close, so a peer
        // that reconnects once it has finds this thread free.
        service.spare_threads.fetch_add(1, Ordering::SeqCst);
        drop(served);
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Everything the service's threads share: the hosted base server, the
/// shard and statement stores, the configuration and the instruments.
struct Service {
    server: SeabedServer,
    shards: ShardStore,
    statements: StatementStore,
    /// Worker identity carried in `SeabedError::Dist` reports, so a
    /// coordinator log names the node that failed.
    identity: String,
    config: ServiceConfig,
    obs: Registry,
    metrics: NetMetrics,
    shutdown: AtomicBool,
    /// Connection threads free for a connection, less connections queued
    /// for one: the acceptor spawns a thread when a connection would take
    /// this below zero.
    spare_threads: AtomicIsize,
}

/// Serves one connection to its end and hands it back still open, for the
/// caller to close.
fn handle_connection(stream: TcpStream, ctx: &Service) -> Option<FrameConn> {
    // A socket whose timeouts cannot be set is dropped unserved: without
    // them a stalled peer would pin this thread and hang shutdown.
    let mut conn = FrameConn::from_stream(stream, ctx.config.write_timeout).ok()?;
    let mut flushed = WireStats::default();
    serve_frames(&mut conn, ctx, &mut flushed);
    // Pick up whatever the last partial frame accumulated after the final
    // per-frame flush (e.g. bytes read before an EOF).
    flush_bytes(&ctx.metrics, &conn, &mut flushed);
    Some(conn)
}

/// Pushes what the connection's byte counter gained since the last call into
/// the shared registry (`flushed` holds the totals already pushed). Called
/// after every frame, not only at connection close, so a live scrape of a
/// worker with long-lived coordinator connections sees its traffic, not zeros.
fn flush_bytes(metrics: &NetMetrics, conn: &FrameConn, flushed: &mut WireStats) {
    let wire = conn.stats();
    metrics.bytes_in.add(wire.bytes_received - flushed.bytes_received);
    metrics.bytes_out.add(wire.bytes_sent - flushed.bytes_sent);
    *flushed = wire;
}

/// Serves frames until the peer closes, the stream breaks, or the service
/// shuts down with this connection idle.
fn serve_frames(conn: &mut FrameConn, ctx: &Service, flushed: &mut WireStats) {
    let config = &ctx.config;
    let wait = Wait::Serve {
        stop: &ctx.shutdown,
        budget: config.read_timeout,
    };
    loop {
        let (kind, payload) = match conn.recv_raw(config.max_frame_len, wait) {
            Ok(Received::Frame(raw)) => raw,
            Ok(Received::Idle | Received::Closed) => return,
            Err(err) => {
                // A header that does not parse (bad magic / version /
                // oversized length) was answered with a typed error frame by
                // the connection itself before it closed — this connection
                // only, never the process.
                if matches!(err, SeabedError::Wire(_)) {
                    ctx.metrics.error_frames.incr();
                }
                return;
            }
        };

        // The frame boundary is intact from here on, so every failure below
        // is answered with a typed error frame and the connection survives.
        ctx.metrics.count_frame(kind);
        let request_timer = ctx.metrics.request_ns.start();
        let reply = match wire::decode_payload(kind, &payload) {
            Err(err) => Frame::Error(err),
            Ok(frame) => dispatch_frame(frame, ctx),
        };
        ctx.metrics.request_ns.stop(request_timer);
        let sent = match conn.send(&reply, config.max_frame_len) {
            // The response outgrew the frame limit: an encode failure (the
            // only `Wire` error a send has), local, the connection is fine.
            // Tell the client why with a (small) typed error instead of
            // silently dropping the frame.
            Err(SeabedError::Wire(_)) => {
                let err = Frame::Error(SeabedError::wire("response exceeds the connection's frame limit"));
                conn.send(&err, config.max_frame_len).map(|()| FrameKind::Error)
            }
            sent => sent.map(|()| reply.kind()),
        };
        match sent {
            Err(_) => return,
            // Counted off the frame that actually went out: a substituted
            // error frame must not count as served.
            Ok(FrameKind::Response | FrameKind::ShardPartial) => ctx.metrics.requests_served.incr(),
            Ok(FrameKind::Error) => ctx.metrics.error_frames.incr(),
            Ok(_) => {}
        }
        flush_bytes(&ctx.metrics, conn, flushed);
    }
}

/// Runs one query execution under the service's telemetry: a
/// `server-execute` span in this service's trace ring under the propagated
/// `trace_id` (scrapeable by the client, or a coordinator on its behalf) and,
/// with observability on, one redacted [`seabed_obs::QueryEvent`] describing
/// `plan` (`None` when a stale handle left nothing to describe). A prepared
/// `handle` is stamped on the trace and identifies the event; a one-shot
/// request is identified by its plan's wire-content hash — the same identity
/// a handle is, never SQL text.
fn execute_observed(
    ctx: &Service,
    handle: Option<u64>,
    plan: Option<&TranslatedQuery>,
    trace_id: u64,
    run: impl FnOnce() -> Result<seabed_core::ServerResponse, SeabedError>,
) -> Frame {
    let started = ctx.obs.enabled().then(Instant::now);
    let outcome = run();
    // One measurement of the execution feeds its span and its event.
    if let Some(total_ns) = started.map(|started| started.elapsed().as_nanos() as u64) {
        let mut tb = ctx.obs.trace_builder(trace_id, &ctx.identity);
        if let Some(handle) = handle {
            tb.set_statement_id(handle);
        }
        tb.add_span_ns("server-execute", total_ns);
        if let Some(trace) = tb.finish() {
            ctx.obs.record_trace(trace);
        }
        let statement_id = handle.or_else(|| plan.map(wire::statement_hash)).unwrap_or_default();
        ctx.obs.record_event(seabed_obs::QueryEvent {
            trace_id,
            statement_id,
            node: ctx.identity.clone(),
            plan: plan.map(TranslatedQuery::describe).unwrap_or_default(),
            operators: seabed_core::event_operators(
                outcome.as_ref().map(|r| r.stats.operators.as_slice()).unwrap_or(&[]),
            ),
            total_ns,
            slow: false,
            outcome: seabed_core::outcome_tag(&outcome).to_string(),
        });
    }
    match outcome {
        Ok(response) => Frame::Response(response),
        Err(err) => Frame::Error(err),
    }
}

/// Computes the reply to one well-framed request. Service-level failures come
/// back as typed error frames; the connection framing above is unaffected.
fn dispatch_frame(frame: Frame, ctx: &Service) -> Frame {
    match frame {
        Frame::Request {
            query,
            filters,
            trace_id,
            analyze,
        } => execute_observed(ctx, None, Some(&query), trace_id, || {
            ctx.server.execute_analyzed(&query, &filters, analyze)
        }),
        Frame::SchemaRequest => Frame::Schema(ctx.server.table().schema.clone()),
        Frame::WorkerHandshake { epoch } => {
            let shards = ctx.shards.handshake(epoch);
            ctx.metrics.shard_store_size.set(shards);
            Frame::WorkerReady { epoch, shards }
        }
        Frame::LoadShard {
            epoch,
            table_id,
            shard,
            exec,
            table,
        } => {
            // Validate the shard's cluster configuration and physical layout
            // *now*, so a bad assignment fails its load instead of every
            // later query.
            let config = ClusterConfig {
                local_threads: exec.local_threads as usize,
                exec_mode: exec.exec_mode,
            };
            let loaded = Cluster::try_new(config)
                .and_then(|cluster| table.validate_layout().map(|()| cluster))
                .and_then(|cluster| {
                    ctx.shards
                        .load(&ctx.identity, epoch, table_id, shard, SeabedServer::new(table, cluster))
                });
            match loaded {
                Ok(rows) => {
                    ctx.metrics.shard_store_size.set(ctx.shards.resident());
                    Frame::ShardLoaded {
                        epoch,
                        table_id,
                        shard,
                        rows,
                    }
                }
                Err(err) => Frame::Error(err),
            }
        }
        Frame::ShardQuery {
            epoch,
            table_id,
            shard,
            seq,
            trace_id,
            query,
            filters,
            analyze,
        } => {
            match ctx
                .shards
                .get(&ctx.identity, epoch, table_id, shard)
                // The Arc clone lets the scan run outside the store lock.
                .and_then(|server| server.execute_partial_analyzed(&query, &filters, analyze))
            {
                Ok(partial) => {
                    // Only successful scans feed the execute histogram and
                    // the trace — a stale-epoch rejection is not a scan —
                    // and both take the scan's own measured wall time.
                    let scan_ns = u64::try_from(partial.stats.wall_time.as_nanos()).unwrap_or(u64::MAX);
                    ctx.metrics.shard_execute_ns.record_ns(scan_ns);
                    let tb = ctx.obs.trace_builder(trace_id, &ctx.identity);
                    tb.add_span_ns("shard-execute", scan_ns);
                    if let Some(trace) = tb.finish() {
                        ctx.obs.record_trace(trace);
                    }
                    Frame::ShardPartial {
                        epoch,
                        table_id,
                        shard,
                        seq,
                        partial,
                    }
                }
                Err(err) => Frame::Error(err),
            }
        }
        Frame::UnloadShard { epoch, table_id, shard } => {
            match ctx.shards.unload(&ctx.identity, epoch, table_id, shard) {
                Ok(remaining) => {
                    ctx.metrics.shard_store_size.set(remaining);
                    Frame::ShardUnloaded {
                        epoch,
                        table_id,
                        shard,
                        remaining,
                    }
                }
                Err(err) => Frame::Error(err),
            }
        }
        Frame::PrepareStatement { query } => {
            // Resolve the plan against the hosted table *now*: a statement
            // whose columns don't exist (or carry the wrong physical type)
            // fails at PREPARE with a typed schema error, never at first
            // EXECUTE. Placeholders are validated too — translation leaves
            // typed placeholder filters in the plan, so the columns a later
            // bind will touch are already visible here.
            if let Err(err) = seabed_core::validate_against_schema(ctx.server.schema(), &query) {
                return Frame::Error(err);
            }
            let (handle, evicted) = ctx.statements.prepare(query);
            ctx.metrics.statements_prepared.incr();
            ctx.metrics.statements_evicted.add(evicted);
            Frame::StatementPrepared { handle }
        }
        Frame::ExecuteStatement {
            handle,
            trace_id,
            filters,
        } => {
            let statement = ctx.statements.get(handle);
            execute_observed(ctx, Some(handle), statement.as_deref().ok(), trace_id, || {
                ctx.server
                    .execute(statement.as_deref().map_err(Clone::clone)?, &filters)
            })
        }
        Frame::MetricsRequest {
            include_traces,
            include_events,
        } => Frame::MetricsSnapshot {
            metrics: ctx.obs.snapshot(),
            traces: if include_traces {
                ctx.obs.recent_traces()
            } else {
                Vec::new()
            },
            events: if include_events {
                ctx.obs.recent_events()
            } else {
                Vec::new()
            },
        },
        other => Frame::Error(SeabedError::wire(format!(
            "unexpected {:?} frame from a client",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::DEFAULT_MAX_FRAME_LEN;
    use seabed_engine::{Cluster, ClusterConfig, ColumnData, ColumnType, Schema, Table};
    use seabed_query::{ServerAggregate, SupportCategory, TranslatedQuery};

    fn test_server() -> SeabedServer {
        let schema = Schema::new([
            ("flag".to_string(), ColumnType::UInt64),
            ("m__ashe".to_string(), ColumnType::UInt64),
        ]);
        let table = Table::from_columns(
            schema,
            vec![
                ColumnData::UInt64((0..100u64).map(|i| i % 2).collect()),
                ColumnData::UInt64((0..100u64).map(|i| i + 1).collect()),
            ],
            4,
        );
        SeabedServer::new(table, Cluster::new(ClusterConfig::default().local_threads(1)))
    }

    fn sum_query() -> TranslatedQuery {
        TranslatedQuery {
            base_table: "t".to_string(),
            filters: vec![],
            aggregates: vec![ServerAggregate::CountRows],
            group_by: vec![],
            group_inflation: 1,
            client_post: vec![],
            preserve_row_ids: true,
            category: SupportCategory::ServerOnly,
            params: vec![],
        }
    }

    const TIMEOUT: Duration = Duration::from_secs(10);

    fn connect(net: &NetServer) -> FrameConn {
        FrameConn::connect(net.local_addr(), TIMEOUT).expect("connect")
    }

    fn round_trip(conn: &mut FrameConn, frame: &Frame) -> Frame {
        conn.round_trip(frame, DEFAULT_MAX_FRAME_LEN, TIMEOUT)
            .expect("round trip")
    }

    #[test]
    fn serves_schema_requests_and_errors_on_one_connection() {
        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        let mut stream = connect(&net);

        // Schema handshake.
        let Frame::Schema(schema) = round_trip(&mut stream, &Frame::SchemaRequest) else {
            panic!("expected a schema frame");
        };
        assert_eq!(schema.fields.len(), 2);

        // A valid request.
        let reply = round_trip(
            &mut stream,
            &Frame::Request {
                query: sum_query(),
                filters: vec![],
                trace_id: 0,
                analyze: false,
            },
        );
        let Frame::Response(response) = reply else {
            panic!("expected a response frame, got {reply:?}");
        };
        assert_eq!(
            response.groups[0].aggregates[0],
            seabed_core::EncryptedAggregate::Count { rows: 100 }
        );

        // A malformed request (unknown column): typed error, connection lives.
        let mut bad = sum_query();
        bad.aggregates = vec![ServerAggregate::AsheSum {
            column: "missing".to_string(),
        }];
        let reply = round_trip(
            &mut stream,
            &Frame::Request {
                query: bad,
                filters: vec![],
                trace_id: 0,
                analyze: false,
            },
        );
        assert!(matches!(reply, Frame::Error(SeabedError::Schema(_))), "{reply:?}");

        // The same connection still serves valid requests afterwards.
        let reply = round_trip(
            &mut stream,
            &Frame::Request {
                query: sum_query(),
                filters: vec![],
                trace_id: 0,
                analyze: false,
            },
        );
        assert!(matches!(reply, Frame::Response(_)));

        let counters = net.shutdown();
        assert_eq!(counters.counter("net_connections"), Some(1));
        assert_eq!(counters.counter("net_requests_served"), Some(2));
        assert_eq!(counters.counter("net_error_frames"), Some(1));
        assert!(counters.counter("net_bytes_in") > Some(0) && counters.counter("net_bytes_out") > Some(0));
    }

    #[test]
    fn garbage_header_gets_typed_error_then_close_but_service_survives() {
        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        {
            let mut raw = TcpStream::connect(net.local_addr()).expect("connect");
            std::io::Write::write_all(&mut raw, b"GET / HTTP/1.1\r\n\r\n\0\0\0\0\0\0").expect("send garbage");
            let mut stream = FrameConn::from_stream(raw, TIMEOUT).expect("wrap");
            let deadline = Wait::Until(Instant::now() + TIMEOUT);
            let reply = stream.recv(DEFAULT_MAX_FRAME_LEN, deadline);
            assert!(
                matches!(reply, Ok(Received::Frame(Frame::Error(SeabedError::Wire(_))))),
                "{reply:?}"
            );
            // The stream is desynchronized; the server closes it (a reset,
            // if garbage was left unread, counts as closed too).
            let after = stream.recv(DEFAULT_MAX_FRAME_LEN, deadline);
            assert!(
                matches!(after, Ok(Received::Closed) | Err(_)),
                "connection should be closed: {after:?}"
            );
        }
        // A fresh connection is served normally: the process survived.
        let mut stream = connect(&net);
        assert!(matches!(
            round_trip(&mut stream, &Frame::SchemaRequest),
            Frame::Schema(_)
        ));
        net.shutdown();
    }

    /// A response that outgrows the connection's frame limit fails to
    /// *encode* — a local error that must not poison the connection: the
    /// client gets a typed error frame instead, and the connection survives.
    #[test]
    fn oversized_response_becomes_a_typed_error_and_the_connection_survives() {
        let columns = 24;
        let wide = Table::from_columns(
            Schema::new((0..columns).map(|c| (format!("a_rather_long_column_name_{c}"), ColumnType::UInt64))),
            (0..columns).map(|_| ColumnData::UInt64(vec![1, 2, 3])).collect(),
            1,
        );
        let server = SeabedServer::new(wide, Cluster::new(ClusterConfig::default().local_threads(1)));
        let net = NetServer::serve(server, "127.0.0.1:0", ServiceConfig::default().max_frame_len(128)).expect("serve");
        let mut stream = connect(&net);
        for _ in 0..2 {
            let reply = stream
                .round_trip(&Frame::SchemaRequest, 128, TIMEOUT)
                .expect("round trip");
            match reply {
                Frame::Error(SeabedError::Wire(msg)) => assert!(msg.contains("frame limit"), "{msg}"),
                other => panic!("expected the typed substitute, got {other:?}"),
            }
        }
        let counters = net.shutdown();
        assert_eq!(counters.counter("net_error_frames"), Some(2));
        assert_eq!(counters.counter("net_requests_served"), Some(0));
    }

    /// The worker side of the seabed-dist protocol on one connection:
    /// handshake fixes the epoch, shards load under it, shard queries return
    /// mergeable partials echoing (epoch, shard, seq), a new epoch evicts,
    /// and wrong-epoch / unknown-shard traffic gets typed Dist errors.
    #[test]
    fn worker_protocol_loads_and_queries_shards() {
        use crate::wire::ShardExecConfig;
        use seabed_engine::{ColumnData, Schema, Table};

        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        let mut stream = connect(&net);

        let reply = round_trip(&mut stream, &Frame::WorkerHandshake { epoch: 42 });
        assert_eq!(reply, Frame::WorkerReady { epoch: 42, shards: 0 });

        let shard_table = Table::from_columns(
            Schema::new([("m__ashe".to_string(), seabed_engine::ColumnType::UInt64)]),
            vec![ColumnData::UInt64((1..=10u64).collect())],
            2,
        );
        let exec = ShardExecConfig {
            local_threads: 1,
            exec_mode: seabed_engine::ExecMode::Vectorized,
        };
        let reply = round_trip(
            &mut stream,
            &Frame::LoadShard {
                epoch: 42,
                table_id: 5,
                shard: 3,
                exec,
                table: shard_table.clone(),
            },
        );
        assert_eq!(
            reply,
            Frame::ShardLoaded {
                epoch: 42,
                table_id: 5,
                shard: 3,
                rows: 10
            }
        );

        // Loading under a stale epoch is refused with a Dist error.
        let reply = round_trip(
            &mut stream,
            &Frame::LoadShard {
                epoch: 41,
                table_id: 5,
                shard: 9,
                exec,
                table: shard_table,
            },
        );
        assert!(matches!(reply, Frame::Error(SeabedError::Dist { .. })), "{reply:?}");

        // A shard query returns the mergeable partial, echoing the tuple.
        let mut query = sum_query();
        query.aggregates = vec![seabed_query::ServerAggregate::AsheSum {
            column: "m__ashe".to_string(),
        }];
        let reply = round_trip(
            &mut stream,
            &Frame::ShardQuery {
                epoch: 42,
                table_id: 5,
                shard: 3,
                seq: 7,
                trace_id: 0,
                analyze: false,
                query: query.clone(),
                filters: vec![],
            },
        );
        let Frame::ShardPartial {
            epoch: 42,
            table_id: 5,
            shard: 3,
            seq: 7,
            partial,
        } = reply
        else {
            panic!("expected the echoed shard partial, got {reply:?}");
        };
        let group = &partial.groups[&vec![]];
        assert_eq!(group.aggregates, [seabed_engine::PartialAggregate::Sum { value: 55 }]);
        assert_eq!(group.ids.count(), 10);

        // The same (shard) id under another table id is not resident: shard
        // identity includes the table.
        let reply = round_trip(
            &mut stream,
            &Frame::ShardQuery {
                epoch: 42,
                table_id: 6,
                shard: 3,
                seq: 11,
                trace_id: 0,
                analyze: false,
                query: query.clone(),
                filters: vec![],
            },
        );
        assert!(matches!(reply, Frame::Error(SeabedError::Dist { .. })), "{reply:?}");

        // Unknown shard → Dist error; new epoch evicts shard (5, 3).
        let reply = round_trip(
            &mut stream,
            &Frame::ShardQuery {
                epoch: 42,
                table_id: 5,
                shard: 8,
                seq: 8,
                trace_id: 0,
                analyze: false,
                query: query.clone(),
                filters: vec![],
            },
        );
        assert!(matches!(reply, Frame::Error(SeabedError::Dist { .. })), "{reply:?}");
        let reply = round_trip(&mut stream, &Frame::WorkerHandshake { epoch: 43 });
        assert_eq!(reply, Frame::WorkerReady { epoch: 43, shards: 0 });
        let reply = round_trip(
            &mut stream,
            &Frame::ShardQuery {
                epoch: 43,
                table_id: 5,
                shard: 3,
                seq: 9,
                trace_id: 0,
                analyze: false,
                query,
                filters: vec![],
            },
        );
        assert!(matches!(reply, Frame::Error(SeabedError::Dist { .. })), "{reply:?}");

        net.shutdown();
    }

    /// The prepared-statement sub-protocol on one connection: PREPARE yields
    /// a stable handle, EXECUTE ships only the handle plus bound filters and
    /// returns a response identical to the one-shot Request path, an unknown
    /// handle is a typed StaleStatement error (connection survives), and
    /// eviction under a capacity-1 store makes older handles stale.
    #[test]
    fn prepared_statement_protocol() {
        let net = NetServer::serve(
            test_server(),
            "127.0.0.1:0",
            ServiceConfig::default().statement_capacity(1),
        )
        .expect("serve");
        let mut stream = connect(&net);

        // One-shot reference.
        let reply = round_trip(
            &mut stream,
            &Frame::Request {
                query: sum_query(),
                filters: vec![],
                trace_id: 0,
                analyze: false,
            },
        );
        let Frame::Response(one_shot) = reply else {
            panic!("expected a response, got {reply:?}");
        };

        // PREPARE is idempotent: the same plan maps to the same handle.
        let Frame::StatementPrepared { handle } =
            round_trip(&mut stream, &Frame::PrepareStatement { query: sum_query() })
        else {
            panic!("expected a statement handle");
        };
        let Frame::StatementPrepared { handle: again } =
            round_trip(&mut stream, &Frame::PrepareStatement { query: sum_query() })
        else {
            panic!("expected a statement handle");
        };
        assert_eq!(handle, again, "identical plans must share a handle");

        // EXECUTE returns a payload byte-identical to the one-shot path.
        let reply = round_trip(
            &mut stream,
            &Frame::ExecuteStatement {
                handle,
                trace_id: 0,
                filters: vec![],
            },
        );
        let Frame::Response(prepared) = reply else {
            panic!("expected a response, got {reply:?}");
        };
        assert_eq!(prepared.groups, one_shot.groups);
        assert_eq!(prepared.result_bytes(), one_shot.result_bytes());

        // An unknown handle is a typed StaleStatement error and the
        // connection survives.
        let reply = round_trip(
            &mut stream,
            &Frame::ExecuteStatement {
                handle: handle ^ 0xffff,
                trace_id: 0,
                filters: vec![],
            },
        );
        assert!(
            matches!(reply, Frame::Error(SeabedError::StaleStatement(h)) if h == handle ^ 0xffff),
            "{reply:?}"
        );

        // Capacity 1: preparing a different statement evicts the first.
        let mut other = sum_query();
        other.aggregates = vec![ServerAggregate::AsheSum {
            column: "m__ashe".to_string(),
        }];
        let Frame::StatementPrepared { handle: other_handle } =
            round_trip(&mut stream, &Frame::PrepareStatement { query: other })
        else {
            panic!("expected a statement handle");
        };
        assert_ne!(other_handle, handle);
        let reply = round_trip(
            &mut stream,
            &Frame::ExecuteStatement {
                handle,
                trace_id: 0,
                filters: vec![],
            },
        );
        assert!(
            matches!(reply, Frame::Error(SeabedError::StaleStatement(h)) if h == handle),
            "{reply:?}"
        );

        let counters = net.shutdown();
        assert_eq!(counters.counter("net_statements_prepared"), Some(3));
        assert!(counters.counter("net_statements_evicted") >= Some(1));
    }

    /// PREPARE resolves the plan against the hosted table: a statement whose
    /// columns don't exist fails at registration with a typed schema error —
    /// never at first EXECUTE — nothing is registered, and the connection
    /// survives to prepare a corrected plan.
    #[test]
    fn prepare_validates_the_plan_against_the_hosted_schema() {
        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        let mut stream = connect(&net);

        let mut bad = sum_query();
        bad.aggregates = vec![ServerAggregate::AsheSum {
            column: "no_such__ashe".to_string(),
        }];
        let bad_handle = wire::statement_hash(&bad);
        let reply = round_trip(&mut stream, &Frame::PrepareStatement { query: bad });
        assert!(
            matches!(reply, Frame::Error(SeabedError::Schema(_))),
            "expected a typed schema error at PREPARE, got {reply:?}"
        );

        // Nothing was registered under the rejected plan's content handle.
        let reply = round_trip(
            &mut stream,
            &Frame::ExecuteStatement {
                handle: bad_handle,
                trace_id: 0,
                filters: vec![],
            },
        );
        assert!(
            matches!(reply, Frame::Error(SeabedError::StaleStatement(h)) if h == bad_handle),
            "{reply:?}"
        );

        // The connection is healthy: a corrected plan registers and runs.
        let Frame::StatementPrepared { handle } =
            round_trip(&mut stream, &Frame::PrepareStatement { query: sum_query() })
        else {
            panic!("expected a statement handle");
        };
        let reply = round_trip(
            &mut stream,
            &Frame::ExecuteStatement {
                handle,
                trace_id: 0,
                filters: vec![],
            },
        );
        assert!(matches!(reply, Frame::Response(_)), "{reply:?}");

        let counters = net.shutdown();
        assert_eq!(
            counters.counter("net_statements_prepared"),
            Some(1),
            "the rejected plan must not count"
        );
    }

    #[test]
    fn metrics_scrape_returns_counters_histograms_and_traces() {
        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        let mut stream = connect(&net);

        // One untraced and one traced request.
        assert!(matches!(
            round_trip(
                &mut stream,
                &Frame::Request {
                    query: sum_query(),
                    filters: vec![],
                    trace_id: 0,
                    analyze: false,
                }
            ),
            Frame::Response(_)
        ));
        assert!(matches!(
            round_trip(
                &mut stream,
                &Frame::Request {
                    query: sum_query(),
                    filters: vec![],
                    trace_id: 0xdead_beef,
                    analyze: false,
                }
            ),
            Frame::Response(_)
        ));

        let reply = round_trip(
            &mut stream,
            &Frame::MetricsRequest {
                include_traces: true,
                include_events: false,
            },
        );
        let Frame::MetricsSnapshot { metrics, traces, .. } = reply else {
            panic!("expected a metrics snapshot, got {reply:?}");
        };
        assert_eq!(metrics.counter("net_frames_request"), Some(2));
        assert_eq!(metrics.counter("net_connections"), Some(1));
        let request_ns = metrics.histogram("net_request_ns").expect("request histogram");
        assert!(request_ns.count >= 2, "{request_ns:?}");
        assert!(request_ns.sum > 0);
        // Exactly the traced request left a trace, under its id.
        assert_eq!(traces.len(), 1, "{traces:?}");
        assert_eq!(traces[0].trace_id, 0xdead_beef);
        assert_eq!(traces[0].spans[0].name, "server-execute");

        // include_traces: false omits the ring.
        let reply = round_trip(
            &mut stream,
            &Frame::MetricsRequest {
                include_traces: false,
                include_events: false,
            },
        );
        let Frame::MetricsSnapshot { traces, .. } = reply else {
            panic!("expected a metrics snapshot, got {reply:?}");
        };
        assert!(traces.is_empty());

        // The in-process registry view sees the same numbers.
        assert_eq!(net.registry().snapshot().counter("net_frames_metrics_request"), Some(2));
        net.shutdown();
    }

    #[test]
    fn graceful_shutdown_joins_with_idle_connections_open() {
        let net = NetServer::serve(test_server(), "127.0.0.1:0", ServiceConfig::default()).expect("serve");
        let _idle1 = TcpStream::connect(net.local_addr()).expect("connect");
        let _idle2 = TcpStream::connect(net.local_addr()).expect("connect");
        std::thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        net.shutdown();
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "shutdown must not hang on idle connections"
        );
    }
}
