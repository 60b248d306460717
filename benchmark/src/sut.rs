//! The adapter: the one file that names items of the system under test.
//!
//! Everything else in `seabench` speaks in the benchmark's own types
//! (`PlainTable`, `Shape`, `Rows`, byte counts, durations); this module turns
//! them into calls on Seabed's public surface and back. When that surface
//! changes (ROADMAP item 3 collapses it), this is the file to edit. It
//! deliberately avoids what that item retires: `SeabedClient::query` /
//! `prepare`, the anonymous `DistCoordinator::connect`, `analyzed_plan()` and
//! `execute_encrypted`.
//!
//! Surface used: `Catalog`, `SeabedSession::{new, single, with_obs, prepare,
//! execute, query, stats}`, `SeabedClient::{create_plan, encrypt_dataset,
//! encrypt_filters, decrypt_response, plan, translate_options}`,
//! `SeabedServer::{new, execute, execute_analyzed, execute_partial}`,
//! `QueryTarget::{schema_of, execute_prepared}`, `validate_against_schema`,
//! `NetServer::{serve, local_addr, registry, shutdown}`,
//! `RemoteSeabedClient::{connect, wire_stats}`, `spawn_worker`,
//! `DistCoordinator::{connect_tables, last_report, cache_stats,
//! worker_summaries}`, `wire::{encode_frame, decode_frame, decode_header}`,
//! `seabed_query::{parse, translate}`, `TranslatedQuery::bind`,
//! `Registry::snapshot` + `to_prometheus`, and the kernel entry points under
//! "Kernel probes" below.

use crate::gen::{tag_name, Col, PlainTable, Shape};
use crate::reference::{Cell, Rows};
use rand::SeedableRng;
use seabed_ashe::{encrypt_column, AsheCiphertext, AsheScheme, IdSet};
use seabed_core::{
    validate_against_schema, Catalog, PhysicalFilter, PlainDataset, PreparedQuery, QueryResult, QueryTarget,
    ResultValue, SeabedClient, SeabedServer, SeabedSession, ServerResponse,
};
use seabed_crypto::{Aes128, AesPrf, DetScheme, OreScheme, Prf};
use seabed_dist::{spawn_worker, DistConfig, DistCoordinator};
use seabed_encoding::{decode_runs, encode_runs, ids_to_runs, IdListEncoding};
use seabed_engine::{
    merge_partial_groups, table_disk_size, Cluster, ClusterConfig, ExecMode, PartialGroups, Schema, Table,
};
use seabed_error::SeabedError;
use seabed_net::{wire, Frame, NetServer, RemoteSeabedClient, ServiceConfig, ShardExecConfig};
use seabed_obs::{ObsConfig, Registry};
use seabed_query::{parse, translate, ColumnSpec, Literal, PlannerConfig, Query, TranslatedQuery};
use seabed_splashe::{plan_enhanced, EnhancedSplashe};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Errors cross the adapter as their display text: the benchmark only counts
/// and prints them.
pub type Failure = String;

fn fail(err: impl std::fmt::Display) -> Failure {
    err.to_string()
}

// ---------------------------------------------------------------------------
// Planning and encryption
// ---------------------------------------------------------------------------

/// The trusted proxy state of one table: schema plan, keys and (after
/// [`encrypt`]) the DET dictionaries.
#[derive(Clone)]
pub struct Proxy {
    table: String,
    client: SeabedClient,
}

/// An encrypted table as the untrusted server stores it.
#[derive(Clone)]
pub struct Stored {
    table: Table,
    /// Serialized size of the encrypted table in bytes.
    pub stored_bytes: u64,
}

fn dataset_of(plain: &PlainTable) -> PlainDataset {
    PlainDataset::new(&plain.name)
        .with_uint_column("hour", plain.hour.clone())
        .with_text_column("tag", plain.tag.iter().map(|t| tag_name(*t)).collect())
        .with_uint_column("ts", plain.ts.clone())
        .with_uint_column("m0", plain.m0.clone())
        .with_uint_column("m1", plain.m1.clone())
}

/// Plans the shared schema (`hour` public, `tag` DET, `ts` ORE, `m0`/`m1`
/// ASHE) and encrypts `plain` into `partitions` partitions. `seed` only
/// feeds the generator `encrypt_dataset` asks for.
pub fn encrypt(plain: &PlainTable, partitions: usize, seed: u64) -> Result<(Proxy, Stored), Failure> {
    let name = &plain.name;
    let specs = [
        ColumnSpec::public("hour"),
        ColumnSpec::sensitive("tag"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("m0"),
        ColumnSpec::sensitive("m1"),
    ];
    // The sample queries fix each column's role: equality on `tag` (DET),
    // ranges on `ts` (ORE), sums over the measures (ASHE).
    let samples = [
        format!("SELECT SUM(m0), SUM(m1) FROM {name} WHERE tag = 't00' AND ts >= 1 AND ts < 2"),
        format!("SELECT hour, SUM(m0), COUNT(*) FROM {name} GROUP BY hour"),
        format!("SELECT tag, SUM(m1) FROM {name} GROUP BY tag"),
    ]
    .iter()
    .map(|sql| parse(sql).map_err(fail))
    .collect::<Result<Vec<Query>, Failure>>()?;
    let mut client = SeabedClient::create_plan(b"seabench-master-key", &specs, &samples, &PlannerConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let encrypted = client.encrypt_dataset(&dataset_of(plain), partitions, &mut rng);
    let stored_bytes = table_disk_size(&encrypted.table) as u64;
    Ok((
        Proxy {
            table: name.clone(),
            client,
        },
        Stored {
            table: encrypted.table,
            stored_bytes,
        },
    ))
}

// ---------------------------------------------------------------------------
// Execution targets
// ---------------------------------------------------------------------------

/// An execution target a session can point at, plus the one number the
/// benchmark reads off it between segments.
pub trait Target: QueryTarget {
    /// Bytes this target has (sent, received) over its sockets so far —
    /// request and response frames; zeros for an in-process target.
    fn wire_bytes(&self) -> (u64, u64);
}

/// The in-process server (the "twin" a remote execution is replayed on).
pub type Local = SeabedServer;
/// A proxy-side connection to a [`Service`].
pub type Remote = RemoteSeabedClient;
/// The scatter/gather coordinator.
pub type Coordinator = DistCoordinator;

impl Target for Local {
    fn wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl Target for Remote {
    fn wire_bytes(&self) -> (u64, u64) {
        let stats = self.wire_stats();
        (stats.bytes_sent, stats.bytes_received)
    }
}

impl Target for Coordinator {
    fn wire_bytes(&self) -> (u64, u64) {
        self.worker_summaries().iter().fold((0, 0), |(sent, received), w| {
            (sent + w.bytes_sent, received + w.bytes_received)
        })
    }
}

/// An in-process server over `stored`, scanning on one thread — the same
/// engine configuration [`serve`] hosts, so a replay on it costs what the
/// remote server's execute costs.
pub fn local(stored: &Stored) -> Local {
    SeabedServer::new(
        stored.table.clone(),
        Cluster::new(ClusterConfig::default().local_threads(1)),
    )
}

/// A TCP service (a hosted server, or an empty `seabed-dist` worker).
pub struct Service(NetServer);

impl Service {
    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Time of one metrics scrape of the live service: registry snapshot
    /// plus its Prometheus rendering. Returns the rendered length so the
    /// work cannot be optimized away.
    pub fn scrape_len(&self) -> usize {
        self.0.registry().snapshot().to_prometheus().len()
    }

    /// Stops the service and joins its threads.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

fn service_config(obs: bool) -> ServiceConfig {
    if obs {
        ServiceConfig::default()
    } else {
        ServiceConfig::default().obs(ObsConfig::disabled())
    }
}

/// Hosts `stored` on a loopback socket with the product-default
/// `ServiceConfig` (`obs = false` swaps in `ObsConfig::disabled()`, used only
/// by the obs on/off probe).
pub fn serve(stored: &Stored, obs: bool) -> Result<Service, Failure> {
    NetServer::serve(local(stored), "127.0.0.1:0", service_config(obs))
        .map(Service)
        .map_err(fail)
}

/// Connects a proxy to a hosted server (TCP connect + schema handshake).
pub fn connect(service: &Service, proxy: &Proxy) -> Result<Remote, Failure> {
    RemoteSeabedClient::connect(service.addr(), proxy.client.clone()).map_err(fail)
}

/// Starts `n` empty cluster workers on loopback sockets.
pub fn spawn_workers(n: usize) -> Result<Vec<Service>, Failure> {
    (0..n)
        .map(|_| {
            spawn_worker("127.0.0.1:0", ServiceConfig::default())
                .map(Service)
                .map_err(fail)
        })
        .collect()
}

/// Connects a coordinator with the default `DistConfig` (R = 2, 1024-entry
/// partial cache) and loads every named table onto the workers.
pub fn connect_cluster(workers: &[Service], tables: &[(&Proxy, &Stored)]) -> Result<Coordinator, Failure> {
    let addrs: Vec<SocketAddr> = workers.iter().map(Service::addr).collect();
    let tables = tables
        .iter()
        .map(|(proxy, stored)| (proxy.table.clone(), stored.table.clone()))
        .collect();
    DistCoordinator::connect_tables(&addrs, tables, DistConfig::default()).map_err(fail)
}

/// What the coordinator did for its most recent execute.
#[derive(Clone, Debug, Default)]
pub struct ClusterReport {
    /// Per scattered shard: (coordinator-observed round trip, worker-measured
    /// scan wall time).
    pub shard_runs: Vec<(Duration, Duration)>,
    /// Merge + finalize time at the coordinator.
    pub gather: Duration,
    /// Shards answered from the partial cache.
    pub cache_hits: u64,
    /// Shards that missed it and were scattered.
    pub cache_misses: u64,
    /// Hedged reads launched.
    pub hedged_reads: u64,
    /// Shards that had to move to another worker.
    pub redispatches: u64,
}

/// The coordinator's report for the last execute on it (single-client use
/// only: it is one shared slot).
pub fn last_report(coordinator: &Coordinator) -> ClusterReport {
    let report = coordinator.last_report();
    ClusterReport {
        shard_runs: report
            .runs
            .iter()
            .map(|run| (run.round_trip, run.stats.wall_time))
            .collect(),
        gather: report.gather_time,
        cache_hits: report.cache_hits,
        cache_misses: report.cache_misses,
        hedged_reads: report.hedged_reads,
        redispatches: report.runs.iter().filter(|run| run.redispatched).count() as u64,
    }
}

/// Cumulative (hits, misses) of the coordinator's partial cache.
pub fn cache_counters(coordinator: &Coordinator) -> (u64, u64) {
    let stats = coordinator.cache_stats();
    (stats.hits, stats.misses)
}

// ---------------------------------------------------------------------------
// Sessions (the timed path)
// ---------------------------------------------------------------------------

/// Bound literals of one execution, converted ahead of the timed region.
pub struct Params(Vec<Literal>);

/// Converts an operation's literals for `shape` (tag numbers become tag
/// names).
pub fn params(shape: &Shape, literals: &[u64]) -> Params {
    Params(
        shape
            .preds
            .iter()
            .zip(literals)
            .map(|((col, _), value)| match col {
                Col::Tag => Literal::Text(tag_name(*value)),
                Col::Hour | Col::Ts => Literal::Integer(*value),
            })
            .collect(),
    )
}

/// The (empty) parameter list of a statement whose literals are inline.
pub fn no_params() -> Params {
    Params(Vec::new())
}

/// A prepared statement handle.
pub struct Statement(Arc<PreparedQuery>);

/// A decrypted answer, kept opaque until the checker looks at it outside the
/// timed region.
pub struct Answer(QueryResult);

impl Answer {
    /// The rows in the checker's terms.
    pub fn rows(&self) -> Rows {
        self.0
            .rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|value| match value {
                        ResultValue::UInt(v) => Cell::U(*v),
                        ResultValue::Text(s) => Cell::T(s.clone()),
                        ResultValue::Float(f) => Cell::Other(f.to_string()),
                    })
                    .collect()
            })
            .collect()
    }

    /// PRF evaluations the proxy spent decrypting this answer.
    pub fn prf_evals(&self) -> u64 {
        self.0.client_prf_evals as u64
    }
}

/// A query session of one client over one target.
pub struct Session<'t, T: Target> {
    inner: SeabedSession<'t, T>,
}

impl<'t, T: Target> Session<'t, T> {
    /// Opens a session over `target` for the given tables. One table uses
    /// `SeabedSession::single`, several a `Catalog`. `obs = false` swaps in a
    /// disabled registry (only the obs on/off probe does that).
    pub fn open(proxies: &[&Proxy], target: &'t T, obs: bool) -> Session<'t, T> {
        let inner = match proxies {
            [one] => SeabedSession::single(one.table.clone(), one.client.clone(), target),
            many => {
                let catalog = many.iter().fold(Catalog::new(), |catalog, proxy| {
                    catalog.with_table(proxy.table.clone(), proxy.client.clone())
                });
                SeabedSession::new(catalog, target)
            }
        };
        Session {
            inner: if obs {
                inner
            } else {
                inner.with_obs(Registry::disabled())
            },
        }
    }

    /// Prepares a statement (`?` placeholders allowed).
    pub fn prepare(&self, sql: &str) -> Result<Statement, Failure> {
        self.inner.prepare(sql).map(Statement).map_err(fail)
    }

    /// Executes a prepared statement with bound literals.
    pub fn execute(&self, statement: &Statement, params: &Params) -> Result<Answer, Failure> {
        self.inner.execute(&statement.0, &params.0).map(Answer).map_err(fail)
    }

    /// One-shot SQL text with inline literals, through the session.
    pub fn query(&self, sql: &str) -> Result<Answer, Failure> {
        self.inner.query(sql, &[]).map(Answer).map_err(fail)
    }

    /// Cumulative (statement-cache hits, statements prepared) of the session.
    pub fn statement_counters(&self) -> (u64, u64) {
        let stats = self.inner.stats();
        (stats.cache_hits, stats.statements_prepared)
    }
}

// ---------------------------------------------------------------------------
// The stage-by-stage pipeline (the traced path)
// ---------------------------------------------------------------------------

/// A parsed statement.
pub struct Parsed(Query);

/// A translated (still unbound) statement plus what decryption needs.
pub struct Planned {
    table: String,
    query: Query,
    plan: TranslatedQuery,
    statement_id: u64,
}

/// One execution's bound plan and proxy-encrypted filters.
pub struct Bound {
    filters: Vec<PhysicalFilter>,
}

/// A still-encrypted response.
pub struct Reply(ServerResponse);

impl Reply {
    /// A copy to replay the codec on after the original has been decrypted.
    pub fn duplicate(&self) -> Reply {
        Reply(self.0.clone())
    }
}

/// The public pieces `SeabedSession::execute` is made of, callable one at a
/// time so the benchmark can put a span around each.
pub struct Stages<'t, T: Target> {
    proxies: Vec<Proxy>,
    target: &'t T,
}

impl<'t, T: Target> Stages<'t, T> {
    /// A pipeline over `target` for the given tables.
    pub fn new(proxies: &[&Proxy], target: &'t T) -> Stages<'t, T> {
        Stages {
            proxies: proxies.iter().map(|p| (*p).clone()).collect(),
            target,
        }
    }

    fn client(&self, table: &str) -> Result<&SeabedClient, Failure> {
        self.proxies
            .iter()
            .find(|p| p.table == table)
            .map(|p| &p.client)
            .ok_or_else(|| format!("no proxy for table {table}"))
    }

    /// `query`: SQL text to AST.
    pub fn parse(&self, sql: &str) -> Result<Parsed, Failure> {
        parse(sql).map(Parsed).map_err(fail)
    }

    /// `query`: AST to encrypted-schema plan, validated against the target's
    /// schema (what a cold `session.prepare` does after parsing).
    pub fn translate(&self, parsed: Parsed, statement_id: u64) -> Result<Planned, Failure> {
        let table = parsed.0.from.base_table().to_string();
        let client = self.client(&table)?;
        let plan = translate(&parsed.0, client.plan(), &client.translate_options).map_err(fail)?;
        validate_against_schema(self.target.schema_of(&table).map_err(fail)?, &plan).map_err(fail)?;
        Ok(Planned {
            table,
            query: parsed.0,
            plan,
            statement_id,
        })
    }

    /// `core`: bind the literals and encrypt every filter (no bind memo: this
    /// is the memo-miss cost).
    pub fn bind(&self, planned: &Planned, params: &Params) -> Result<Bound, Failure> {
        let bound = planned.plan.bind(&params.0).map_err(fail)?;
        let schema = self.target.schema_of(&planned.table).map_err(fail)?;
        let filters = self
            .client(&planned.table)?
            .encrypt_filters(schema, &bound)
            .map_err(fail)?;
        Ok(Bound { filters })
    }

    /// The target's prepared-execute entry, exactly as the session calls it.
    pub fn execute(&self, planned: &Planned, bound: &Bound) -> Result<Reply, Failure> {
        self.target
            .execute_prepared(&planned.plan, planned.statement_id, &bound.filters)
            .map(Reply)
            .map_err(fail)
    }

    /// `core`: decrypt and post-process.
    pub fn decrypt(&self, planned: &Planned, reply: Reply) -> Result<Answer, Failure> {
        self.client(&planned.table)?
            .decrypt_response(&planned.query, &planned.plan, reply.0)
            .map(Answer)
            .map_err(fail)
    }
}

/// Replays an execution on an in-process twin server. Returns nothing: the
/// caller times it.
pub fn replay(twin: &Local, planned: &Planned, bound: &Bound) -> Result<(), Failure> {
    twin.execute(&planned.plan, &bound.filters).map(|_| ()).map_err(fail)
}

/// An analyzed replay on the twin (untimed): the rows the first operator of
/// the execution looks at, and the time the operators (filters, aggregation)
/// measured for themselves, summed over partitions.
pub fn analyze(twin: &Local, planned: &Planned, bound: &Bound) -> Result<(u64, Duration), Failure> {
    let response = twin
        .execute_analyzed(&planned.plan, &bound.filters, true)
        .map_err(fail)?;
    let operators = &response.stats.operators;
    Ok((
        operators.first().map_or(0, |op| op.rows_in),
        Duration::from_nanos(operators.iter().map(|op| op.nanos).sum()),
    ))
}

/// A target that answers every execute at once with a canned response, so a
/// session over it costs exactly what the session itself does per execute:
/// bind, literal encryption (or the bind memo), decryption of the canned
/// response, and its own bookkeeping.
pub struct NullTarget {
    schema: Schema,
    canned: ServerResponse,
}

impl QueryTarget for NullTarget {
    fn schema_of(&self, _table: &str) -> Result<&Schema, SeabedError> {
        Ok(&self.schema)
    }

    fn execute_query(
        &self,
        _query: &TranslatedQuery,
        _filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        Ok(self.canned.clone())
    }
}

impl Target for NullTarget {
    fn wire_bytes(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A [`NullTarget`] with `twin`'s schema, canning `twin`'s answer to one
/// execution.
pub fn null_target(twin: &Local, planned: &Planned, bound: &Bound) -> Result<NullTarget, Failure> {
    Ok(NullTarget {
        schema: twin.schema().clone(),
        canned: twin.execute(&planned.plan, &bound.filters).map_err(fail)?,
    })
}

const MAX_FRAME: u32 = wire::DEFAULT_MAX_FRAME_LEN;

/// `net`: the request frame a prepared execute ships, encoded.
pub fn encode_request(bound: &Bound) -> Result<Vec<u8>, Failure> {
    let frame = Frame::ExecuteStatement {
        handle: 0x5eab_ed00_0000_0001,
        filters: bound.filters.clone(),
        trace_id: 0,
    };
    wire::encode_frame(&frame, MAX_FRAME).map_err(fail)
}

/// The response frame the server would ship for `reply` (built untimed, fed
/// to [`decode`]).
pub fn response_frame(reply: &Reply) -> Result<Vec<u8>, Failure> {
    wire::encode_frame(&Frame::Response(reply.0.clone()), MAX_FRAME).map_err(fail)
}

/// `net`: decode one complete frame.
pub fn decode(frame: &[u8]) -> Result<(), Failure> {
    wire::decode_frame(frame, MAX_FRAME).map(|_| ()).map_err(fail)
}

// ---------------------------------------------------------------------------
// Kernel probes: each does a fixed amount of work; `probes.rs` times it.
// ---------------------------------------------------------------------------

const PROBE_KEY: [u8; 16] = [0x5e; 16];
const PROBE_KEY_32: [u8; 32] = [0x5e; 32];

/// A fixed pseudo-random word per index (the SplitMix64 finalizer).
fn spread_value(i: u64) -> u64 {
    let mut z = i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `crypto`: `Aes128::encrypt_blocks` over `blocks` blocks.
pub fn kernel_aes(blocks: usize) -> impl FnMut() {
    let aes = Aes128::new(&PROBE_KEY);
    let mut data = vec![[0x11u8; 16]; blocks];
    move || {
        aes.encrypt_blocks(&mut data);
        std::hint::black_box(&data);
    }
}

/// `crypto`: `AesPrf::eval_run` over `n` consecutive identifiers.
pub fn kernel_prf(n: usize) -> impl FnMut() {
    let prf = AesPrf::new(&PROBE_KEY);
    let mut out = vec![0u64; n];
    move || {
        prf.eval_run(1, 0, &mut out);
        std::hint::black_box(&out);
    }
}

/// `crypto`: `OreScheme::encrypt` of `n` values.
pub fn kernel_ore_encrypt(n: usize) -> impl FnMut() {
    let ore = OreScheme::new(&PROBE_KEY);
    move || {
        for i in 0..n as u64 {
            std::hint::black_box(ore.encrypt(spread_value(i)));
        }
    }
}

/// `crypto`: `DetScheme::tag64_of` of `n` tag names.
pub fn kernel_det(n: usize) -> impl FnMut() {
    let det = DetScheme::new(&PROBE_KEY_32);
    let names: Vec<String> = (0..crate::gen::TAGS).map(tag_name).collect();
    move || {
        for i in 0..n {
            std::hint::black_box(det.tag64_of(names[i % names.len()].as_bytes()));
        }
    }
}

/// `crypto`: `OreCiphertext::compare` of `stored` ciphertexts against one
/// bound, `sweeps` times over (the server-side range kernel).
pub fn kernel_ore_compare(stored: usize, sweeps: usize) -> impl FnMut() {
    let ore = OreScheme::new(&PROBE_KEY);
    let stored: Vec<_> = (0..stored as u64).map(|i| ore.encrypt(spread_value(i))).collect();
    let bound = ore.encrypt(u64::MAX / 2);
    move || {
        for _ in 0..sweeps {
            let below = stored
                .iter()
                .filter(|c| c.compare(&bound) == std::cmp::Ordering::Less)
                .count();
            std::hint::black_box(below);
        }
    }
}

/// `ashe`: `encrypt_column` of `n` values.
pub fn kernel_ashe_encrypt(n: usize) -> impl FnMut() {
    let scheme = AsheScheme::new(&PROBE_KEY);
    let values: Vec<u64> = (0..n as u64).map(spread_value).collect();
    move || {
        std::hint::black_box(encrypt_column(&scheme, &values, 0));
    }
}

/// `ashe`: `AsheScheme::decrypt` of one ciphertext whose ID set is `runs`
/// separate runs (every other block of 8 identifiers).
pub fn kernel_ashe_decrypt(runs: usize) -> impl FnMut() {
    let scheme = AsheScheme::new(&PROBE_KEY);
    let ids: Vec<u64> = (0..runs as u64).flat_map(|r| r * 16..r * 16 + 8).collect();
    let ciphertext = AsheCiphertext {
        value: 0x1234_5678,
        ids: IdSet::from_sorted_ids(&ids),
    };
    move || {
        std::hint::black_box(scheme.decrypt(&ciphertext));
    }
}

/// Standalone cost of encrypting `plain`'s columns the way [`encrypt`] does,
/// per scheme: `[ORE over ts, DET over tag, ASHE over m0, m1 and the ts
/// companion]`. The keys differ from the proxy's; the work does not.
pub fn column_costs(plain: &PlainTable) -> [Duration; 3] {
    let started = std::time::Instant::now();
    let ore = OreScheme::new(&PROBE_KEY);
    std::hint::black_box(plain.ts.iter().map(|v| ore.encrypt(*v).symbols).collect::<Vec<_>>());
    let ore_done = std::time::Instant::now();
    let det = DetScheme::new(&PROBE_KEY_32);
    std::hint::black_box(
        plain
            .tag
            .iter()
            .map(|t| det.tag64_of(tag_name(*t).as_bytes()))
            .collect::<Vec<_>>(),
    );
    let det_done = std::time::Instant::now();
    let ashe = AsheScheme::new(&PROBE_KEY);
    for column in [&plain.m0, &plain.m1, &plain.ts] {
        std::hint::black_box(encrypt_column(&ashe, column, 0));
    }
    [ore_done - started, det_done - ore_done, det_done.elapsed()]
}

fn splashe_scheme() -> EnhancedSplashe {
    // A skewed 16-value dimension: enhanced SPLASHE splays the frequent
    // values and balances the rest behind DET.
    let distribution: Vec<(String, u64)> = (0..crate::gen::TAGS).map(|i| (tag_name(i), 1_000 >> (i / 2))).collect();
    let plan = plan_enhanced(&distribution);
    // One key per splayed measure column: the k frequent values and "others".
    let keys = vec![PROBE_KEY; plan.k() + 1];
    EnhancedSplashe::new(plan, &PROBE_KEY_32, keys)
}

/// `splashe`: `EnhancedSplashe::encode_rows` of `n` (dimension, measure)
/// rows drawn to the planned distribution's skew.
pub fn kernel_splashe_encode(n: usize) -> impl FnMut() {
    let splashe = splashe_scheme();
    let rows: Vec<(String, u64)> = (0..n as u64)
        .map(|i| {
            // Halving frequencies per tag pair, like the planned distribution.
            let tag = (spread_value(i) >> 48).leading_zeros().min(7) as u64 * 2 + (i & 1);
            (tag_name(tag), i % 1_000)
        })
        .collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    move || {
        std::hint::black_box(splashe.encode_rows(&rows, 0, &mut rng));
    }
}

/// `splashe`: storage expansion of that plan with one co-queried measure.
pub fn splashe_storage_factor() -> f64 {
    splashe_scheme().plan().storage_factor(1)
}

/// A fragmented ID list of `n` identifiers (runs of 1–4 with gaps), the
/// shape a random-`ts` selection produces.
fn fragmented_ids(n: usize) -> Vec<u64> {
    let mut ids = Vec::with_capacity(n);
    let mut next = 0u64;
    while ids.len() < n {
        let run = 1 + (spread_value(next) >> 62);
        for _ in 0..run {
            ids.push(next);
            next += 1;
        }
        next += 1 + (spread_value(next) >> 60);
    }
    ids.truncate(n);
    ids
}

/// `encoding`: the default aggregation encoding of an `n`-identifier list.
/// Returns the closure and the encoded size in bytes.
pub fn kernel_idlist_encode(n: usize) -> (impl FnMut(), usize) {
    let runs = ids_to_runs(&fragmented_ids(n));
    let encoding = IdListEncoding::seabed_default();
    let bytes = encode_runs(&runs, encoding).len();
    (
        move || {
            std::hint::black_box(encode_runs(&runs, encoding));
        },
        bytes,
    )
}

/// `encoding`: decoding of that list.
pub fn kernel_idlist_decode(n: usize) -> impl FnMut() {
    let encoding = IdListEncoding::seabed_default();
    let encoded = encode_runs(&ids_to_runs(&fragmented_ids(n)), encoding);
    move || {
        std::hint::black_box(decode_runs(&encoded, encoding));
    }
}

/// `engine`: `merge_partial_groups` of two partials of `planned` executed on
/// `twin`. Each call of the closure merges `copies` fresh pairs; merging
/// consumes its input, so `calls × copies` pairs are cloned up front.
pub fn kernel_merge(
    twin: &Local,
    planned: &Planned,
    bound: &Bound,
    copies: usize,
    calls: usize,
) -> Result<(impl FnMut(), usize), Failure> {
    let partial = twin
        .execute_partial(&planned.plan, &bound.filters)
        .map_err(fail)?
        .groups;
    let groups = partial.len();
    let mut pairs: Vec<(PartialGroups, PartialGroups)> = (0..copies * calls)
        .map(|_| (partial.clone(), partial.clone()))
        .collect();
    Ok((
        move || {
            let keep = pairs.len().saturating_sub(copies);
            for (mut into, from) in pairs.drain(keep..) {
                merge_partial_groups(&mut into, from);
                std::hint::black_box(&into);
            }
        },
        groups,
    ))
}

/// `net`: one `SchemaRequest` round trip on an open loopback connection,
/// through `encode_frame` / `decode_frame` on a raw `TcpStream`.
pub struct RawConnection {
    stream: TcpStream,
    request: Vec<u8>,
}

impl RawConnection {
    /// Opens a connection to `service`.
    pub fn open(service: &Service) -> Result<RawConnection, Failure> {
        let stream = TcpStream::connect(service.addr()).map_err(fail)?;
        stream.set_nodelay(true).map_err(fail)?;
        stream.set_read_timeout(Some(Duration::from_secs(10))).map_err(fail)?;
        Ok(RawConnection {
            stream,
            request: wire::encode_frame(&Frame::SchemaRequest, MAX_FRAME).map_err(fail)?,
        })
    }

    /// Sends the request, reads and decodes the reply frame.
    pub fn round_trip(&mut self) -> Result<(), Failure> {
        self.stream.write_all(&self.request).map_err(fail)?;
        let mut frame = vec![0u8; wire::HEADER_LEN];
        self.stream.read_exact(&mut frame).map_err(fail)?;
        let header: &[u8; wire::HEADER_LEN] = frame[..].try_into().map_err(fail)?;
        let payload_len = wire::decode_header(header, MAX_FRAME).map_err(fail)?.payload_len as usize;
        frame.resize(wire::HEADER_LEN + payload_len, 0);
        self.stream.read_exact(&mut frame[wire::HEADER_LEN..]).map_err(fail)?;
        decode(&frame)
    }
}

/// `net`: encode + decode of a `LoadShard` frame carrying all of `stored`.
/// Returns the closure and the frame size in bytes.
pub fn kernel_codec_big(stored: &Stored) -> Result<(impl FnMut(), usize), Failure> {
    let frame = Frame::LoadShard {
        epoch: 1,
        table_id: 0,
        shard: 0,
        exec: ShardExecConfig {
            local_threads: 1,
            exec_mode: ExecMode::Vectorized,
        },
        table: stored.table.clone(),
    };
    let bytes = wire::encode_frame(&frame, MAX_FRAME).map_err(fail)?.len();
    Ok((
        move || {
            let encoded = wire::encode_frame(&frame, MAX_FRAME).expect("frame encoded once already");
            std::hint::black_box(wire::decode_frame(&encoded, MAX_FRAME).expect("own frame decodes"));
        },
        bytes,
    ))
}
