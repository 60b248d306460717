//! The session-oriented query surface: [`Catalog`], [`SeabedSession`] and
//! [`PreparedQuery`].
//!
//! A [`SeabedSession`] is the one way from SQL text to decrypted rows: a
//! [`SeabedClient`] holds one table's keys and plan and never sees SQL; the
//! session parses, translates, binds, dispatches and decrypts, and amortizes
//! all of it across executions and across tables
//! ([`SeabedSession::single`] is the one-table form):
//!
//! ```text
//!   Catalog ──────────── N × (table name → SeabedClient: plan + keys + dicts)
//!      │
//!   SeabedSession ─────── statement cache (SQL hash → Arc<PreparedQuery>)
//!      │  prepare(sql)        parse → resolve FROM against the catalog →
//!      │                      translate → validate against the target schema
//!      │  execute(p, params)  bind `?` literals → encrypt ONLY bound literals
//!      ▼                      → dispatch → decrypt
//!   QueryTarget ────────── SeabedServer | RemoteSeabedClient | DistCoordinator
//! ```
//!
//! Every failure mode of the lifecycle is typed and raised on the client
//! side, before anything ships: an unknown `FROM` table is
//! [`SchemaError::UnknownTable`] at prepare, wrong parameter arity is
//! [`SchemaError::ParamCount`] at bind, a mistyped literal is
//! [`SchemaError::TypeMismatch`] at bind, and a placeholder in a position
//! whose plan shape depends on the value (SPLASHE dimensions, `LIMIT`) is
//! rejected at parse/translate time. The server never sees any of them.
//!
//! A statement with bound `?` literals executes byte-identically to the same
//! statement with the literals inline, by construction: the server side of a
//! plan only reads its *shape* (aggregates and grouping), which binding
//! never changes, and filter encryption is deterministic —
//! `tests/prepared_equivalence.rs` pins this across all three execution
//! targets.

use crate::client::{require_filter_column, QueryResult, SeabedClient};
use crate::fifo::FifoMap;
use crate::server::{resolve_columns, ExecOutcome, ExecRequest, PhysicalFilter, QueryTarget, ServerResponse};
use seabed_engine::{OperatorProfile, Schema};
use seabed_error::{SchemaError, SeabedError};
use seabed_obs::{Counter, EventOperator, Histogram, Registry, TraceBuilder, TraceId, UNTRACED};
use seabed_query::{
    parse, parse_statement, translate, ExplainMode, Literal, PlanNode, PlanProfile, Query, ServerFilter,
    TranslatedQuery,
};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

/// 64-bit FNV-1a, the statement-cache hash. Stable across processes (the
/// `seabed-net` statement handles reuse it on the server side), no
/// dependencies, and good enough dispersion for a cache keyed by SQL text.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hasher = Fnv1a::default();
    hasher.write(bytes);
    hasher.finish()
}

/// [`fnv1a64`] as a [`Hasher`]: the hash of every byte written to it, in
/// order. Unkeyed, so only for maps whose keys no one else chooses.
pub(crate) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The static outcome tag a [`QueryEvent`](seabed_obs::QueryEvent) records
/// for a query execution.
/// Deliberately a classification, never an error *message*: messages can echo
/// caller-supplied text (SQL fragments, table names), and the event log is
/// redacted by construction.
pub fn outcome_tag<T>(outcome: &Result<T, SeabedError>) -> &'static str {
    match outcome {
        Ok(_) => "ok",
        Err(SeabedError::Parse(_)) => "parse-error",
        Err(SeabedError::Translate(_)) | Err(SeabedError::Plan(_)) => "plan-error",
        Err(SeabedError::Schema(_)) => "schema-error",
        Err(SeabedError::Net(_)) | Err(SeabedError::Wire(_)) => "net-error",
        Err(SeabedError::Dist { .. }) => "dist-error",
        Err(_) => "error",
    }
}

/// Converts the engine's measured per-operator counters into the event-log
/// representation ([`QueryEvent::operators`](seabed_obs::QueryEvent::operators)).
pub fn event_operators(operators: &[OperatorProfile]) -> Vec<EventOperator> {
    operators
        .iter()
        .map(|op| EventOperator {
            label: op.label.clone(),
            rows_in: op.rows_in,
            rows_out: op.rows_out,
            batches: op.batches,
            nanos: op.nanos,
        })
        .collect()
}

/// Converts one measured operator into the profile a [`PlanNode`] carries.
pub fn plan_profile(op: &OperatorProfile) -> PlanProfile {
    PlanProfile {
        rows_in: op.rows_in,
        rows_out: op.rows_out,
        batches: op.batches,
        nanos: op.nanos,
    }
}

/// The outcome of [`SeabedSession::explain`]: the structural plan tree (with
/// measured per-operator profiles when analyzed) and — for `EXPLAIN ANALYZE`
/// only — the decrypted query result the profiled execution produced.
#[derive(Clone, Debug)]
pub struct Explanation {
    /// The plan tree. Redacted by construction: operator classes and physical
    /// column names only, never predicate literals or SQL text.
    pub plan: PlanNode,
    /// True when the plan was produced by `EXPLAIN ANALYZE` (the query ran
    /// and the tree carries measured profiles); false for plain `EXPLAIN`
    /// (nothing executed).
    pub analyzed: bool,
    /// The decrypted result of the analyzed execution; `None` for plain
    /// `EXPLAIN`.
    pub result: Option<QueryResult>,
}

impl Explanation {
    /// The indented text rendering of the plan tree
    /// (see [`PlanNode::render`]).
    pub fn render(&self) -> String {
        self.plan.render()
    }
}

/// A registry of encrypted tables: one [`SeabedClient`] — schema plan, keys,
/// DET dictionaries — per table name. The catalog is the client-side
/// authority on which table names exist; sessions resolve every query's
/// `FROM` against it before anything else happens.
#[derive(Clone, Default)]
pub struct Catalog {
    entries: Vec<(String, SeabedClient)>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Registers (or replaces) a table's proxy state under `name`. Builder
    /// form so multi-table catalogs read declaratively.
    pub fn with_table(mut self, name: impl Into<String>, client: SeabedClient) -> Catalog {
        self.register(name, client);
        self
    }

    /// Registers (or replaces) a table's proxy state under `name`.
    pub fn register(&mut self, name: impl Into<String>, client: SeabedClient) {
        let name = name.into();
        match self.entries.iter_mut().find(|(n, _)| *n == name) {
            Some((_, slot)) => *slot = client,
            None => self.entries.push((name, client)),
        }
    }

    /// The proxy state of a registered table.
    pub fn client(&self, name: &str) -> Option<&SeabedClient> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Registered table names, in registration order.
    pub fn tables(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A statement prepared once — parsed, resolved against the catalog,
/// translated, schema-validated — and executable many times with different
/// bound parameters. Obtained from [`SeabedSession::prepare`]; immutable and
/// shareable (`Arc`) across threads.
#[derive(Debug)]
pub struct PreparedQuery {
    table: String,
    sql: String,
    statement_id: u64,
    query: Query,
    translated: TranslatedQuery,
    filters: PreparedFilters,
    /// Bound-literal ciphertext memo, one slot per placeholder position.
    /// DET tags and ORE ciphertexts are deterministic per key, so re-binding
    /// a literal this statement has seen before reuses the ciphertext byte
    /// for byte instead of re-paying its AES work — the common shape of a
    /// hot prepared statement is a small set of recurring bindings.
    bind_memo: Mutex<HashMap<usize, Vec<(ServerFilter, PhysicalFilter)>>>,
}

/// Distinct bindings remembered per placeholder slot; a slot that sees more
/// evicts its oldest entry (recurring literals re-enter on next use).
const BIND_MEMO_PER_SLOT: usize = 32;

/// The physical filters of a prepared statement, encrypted as far as prepare
/// time allows: every literal that is inline in the SQL is encrypted exactly
/// once, and only placeholder positions pay crypto per execution.
#[derive(Debug)]
enum PreparedFilters {
    /// No placeholders: the complete filter list, borrowed per execute
    /// (zero per-execute allocation or crypto).
    Fixed(Vec<PhysicalFilter>),
    /// Placeholders present: `Some` at inline-literal positions (encrypted
    /// at prepare), `None` at placeholder positions (encrypted from the
    /// bound literal on first use, then served from the bind memo).
    Template(Vec<Option<PhysicalFilter>>),
}

impl PreparedQuery {
    /// The catalog table this statement reads.
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Returns the memoized ciphertext for `filter` at placeholder slot
    /// `slot`, if this statement has encrypted that binding before.
    fn memoized_bound_filter(&self, slot: usize, filter: &ServerFilter) -> Option<PhysicalFilter> {
        let memo = self.bind_memo.lock().unwrap_or_else(|p| p.into_inner());
        memo.get(&slot)?
            .iter()
            .find(|(bound, _)| bound == filter)
            .map(|(_, encrypted)| encrypted.clone())
    }

    /// Remembers the ciphertext for `filter` at placeholder slot `slot`,
    /// evicting the slot's oldest binding past [`BIND_MEMO_PER_SLOT`].
    fn memoize_bound_filter(&self, slot: usize, filter: &ServerFilter, encrypted: &PhysicalFilter) {
        let mut memo = self.bind_memo.lock().unwrap_or_else(|p| p.into_inner());
        let entries = memo.entry(slot).or_default();
        if entries.len() >= BIND_MEMO_PER_SLOT {
            entries.remove(0);
        }
        entries.push((filter.clone(), encrypted.clone()));
    }

    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Stable identifier of this statement: the FNV-1a hash of its SQL text,
    /// which is also the session's cache key. Passed to
    /// [`QueryTarget::execute_prepared`] for observability; note that remote
    /// targets deliberately identify server-side statements by *plan
    /// content*, not by this id, so a re-planned statement under the same
    /// SQL text can never pair with a stale server registration.
    pub fn statement_id(&self) -> u64 {
        self.statement_id
    }

    /// Number of `?` placeholders to bind at execute time.
    pub fn param_count(&self) -> usize {
        self.translated.params.len()
    }

    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The unbound translated plan.
    pub fn translated(&self) -> &TranslatedQuery {
        &self.translated
    }
}

/// Counters of one session's lifecycle activity — a thin snapshot view over
/// the session registry's `session_*` counters (see
/// [`SeabedSession::registry`] for the full instrument set, including the
/// prepare/execute latency histograms).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// `prepare` calls that built a new statement (cache misses).
    pub statements_prepared: u64,
    /// `prepare` calls answered from the statement cache.
    pub cache_hits: u64,
    /// Successful `execute` calls.
    pub executes: u64,
}

/// The session's pre-registered instrument handles, looked up once so the
/// per-query paths never touch the registry's maps.
struct SessionMetrics {
    /// Cache-miss prepares (statements actually built).
    statements_prepared: Counter,
    /// Prepares answered from the statement cache.
    cache_hits: Counter,
    /// Successful executes.
    executes: Counter,
    /// Wall time of a cache-miss prepare (parse → translate → validate →
    /// encrypt inline literals).
    prepare_ns: Histogram,
    /// Wall time of an execute (bind → dispatch → decrypt).
    execute_ns: Histogram,
}

impl SessionMetrics {
    fn new(obs: &Registry) -> SessionMetrics {
        SessionMetrics {
            statements_prepared: obs.counter("session_prepares"),
            cache_hits: obs.counter("session_cache_hits"),
            executes: obs.counter("session_executes"),
            prepare_ns: obs.histogram("session_prepare_ns"),
            execute_ns: obs.histogram("session_execute_ns"),
        }
    }
}

/// A multi-table, prepared-statement query session over one execution target.
///
/// See the [module docs](self) for the lifecycle. The session is `Sync`: the
/// statement cache is internally locked, prepared statements are shared via
/// `Arc`, and `execute` takes `&self`, so concurrent workloads can hammer one
/// session from many threads.
pub struct SeabedSession<'t, T: QueryTarget + ?Sized> {
    catalog: Catalog,
    target: &'t T,
    /// SQL hash → statement, bounded (FIFO; re-preparing refreshes), so
    /// workloads that interpolate literals into distinct SQL strings cannot
    /// grow it without limit.
    cache: Mutex<FifoMap<u64, Arc<PreparedQuery>>>,
    obs: Registry,
    metrics: SessionMetrics,
}

/// Default capacity of a session's statement cache.
pub const DEFAULT_STATEMENT_CAPACITY: usize = 256;

impl<'t, T: QueryTarget + ?Sized> SeabedSession<'t, T> {
    /// Opens a session over `target` with the given catalog, with a fresh
    /// (enabled) metrics registry.
    pub fn new(catalog: Catalog, target: &'t T) -> SeabedSession<'t, T> {
        let obs = Registry::default();
        let metrics = SessionMetrics::new(&obs);
        SeabedSession {
            catalog,
            target,
            cache: Mutex::new(FifoMap::new(DEFAULT_STATEMENT_CAPACITY)),
            obs,
            metrics,
        }
    }

    /// Replaces the statement-cache capacity (FIFO eviction beyond it).
    pub fn with_statement_capacity(mut self, capacity: usize) -> SeabedSession<'t, T> {
        self.cache = Mutex::new(FifoMap::new(capacity));
        self
    }

    /// Replaces the session's metrics registry. Pass a clone of the
    /// execution target's registry (e.g. a coordinator's) to collect the
    /// session's spans and the target's into one timeline, stitchable with
    /// [`Registry::merged_trace`]; pass [`Registry::disabled`] to turn
    /// histogram timers and tracing off entirely.
    pub fn with_obs(mut self, obs: Registry) -> SeabedSession<'t, T> {
        self.metrics = SessionMetrics::new(&obs);
        self.obs = obs;
        self
    }

    /// The session's metrics registry (shared interior — a clone sees every
    /// later update).
    pub fn registry(&self) -> Registry {
        self.obs.clone()
    }

    /// A session over one table: `client`'s plan and keys under the name
    /// queries put in `FROM`.
    pub fn single(table: impl Into<String>, client: SeabedClient, target: &'t T) -> SeabedSession<'t, T> {
        SeabedSession::new(Catalog::new().with_table(table, client), target)
    }

    /// The session's catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The execution target.
    pub fn target(&self) -> &T {
        self.target
    }

    /// A snapshot of the session counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            statements_prepared: self.metrics.statements_prepared.get(),
            cache_hits: self.metrics.cache_hits.get(),
            executes: self.metrics.executes.get(),
        }
    }

    /// Drops every cached statement. Call after a schema change (re-planned
    /// catalog entry, re-encrypted table) so stale plans cannot be executed;
    /// remote targets additionally surface server-side staleness as
    /// [`SeabedError::StaleStatement`], which their transport layer recovers
    /// from by re-preparing.
    pub fn invalidate_statements(&self) {
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Prepares `sql`: parse, resolve the `FROM` table against the catalog,
    /// translate under that table's plan, and validate every referenced
    /// physical column against the target's schema — once. Repeated calls
    /// with the same SQL return the cached statement.
    ///
    /// Every failure is typed and client-side: [`SeabedError::Parse`] for
    /// malformed SQL (including placeholders in unsupported positions),
    /// [`SchemaError::UnknownTable`] for a `FROM` no catalog entry matches,
    /// [`SeabedError::Translate`] / [`SeabedError::Schema`] for plans the
    /// encrypted schema cannot run.
    pub fn prepare(&self, sql: &str) -> Result<Arc<PreparedQuery>, SeabedError> {
        self.prepare_traced(sql, &mut TraceBuilder::noop())
    }

    /// [`SeabedSession::prepare`] recording its stages (`parse`,
    /// `translate`, `encrypt-filters`) into `tb`. A cache hit records no
    /// spans — nothing was parsed or encrypted.
    fn prepare_traced(&self, sql: &str, tb: &mut TraceBuilder) -> Result<Arc<PreparedQuery>, SeabedError> {
        let statement_id = fnv1a64(sql.as_bytes());
        if let Some(cached) = self.cache.lock().unwrap_or_else(|p| p.into_inner()).get(&statement_id) {
            // Guard against (astronomically unlikely) hash collisions: a hit
            // only counts when the SQL text matches.
            if cached.sql == sql {
                self.metrics.cache_hits.incr();
                return Ok(Arc::clone(cached));
            }
        }
        let prepare_timer = self.metrics.prepare_ns.start();

        // A multi-table catalog needs a target that routes by table name; an
        // anonymous single-table target would silently run every statement
        // against its one table regardless of the FROM.
        if self.catalog.len() > 1 && !self.target.routes_by_table() {
            return Err(SeabedError::Plan(format!(
                "the catalog registers {} tables but the execution target hosts a single anonymous table; \
                 use a multi-table target (e.g. DistCoordinator::connect_tables) or a single-table catalog",
                self.catalog.len()
            )));
        }

        let span = tb.start();
        let query = parse(sql)?;
        tb.end("parse", span);
        let table = query.from.base_table().to_string();
        let client = self
            .catalog
            .client(&table)
            .ok_or_else(|| SchemaError::UnknownTable(table.clone()))?;
        let schema = self.target.schema_of(&table)?;
        let span = tb.start();
        let translated = translate(&query, client.plan(), &client.translate_options)?;
        validate_against_schema(schema, &translated)?;
        tb.end("translate", span);
        let span = tb.start();
        // Encrypt every inline literal now; placeholder positions stay open
        // until bind time.
        let filters = if translated.is_bound() {
            PreparedFilters::Fixed(client.encrypt_filters(schema, &translated)?)
        } else {
            let param_positions: std::collections::HashSet<usize> =
                translated.params.iter().map(|slot| slot.filter_index).collect();
            let template = translated
                .filters
                .iter()
                .enumerate()
                .map(|(i, filter)| {
                    if param_positions.contains(&i) {
                        Ok(None)
                    } else {
                        client.encrypt_filter(schema, filter).map(Some)
                    }
                })
                .collect::<Result<Vec<_>, SeabedError>>()?;
            PreparedFilters::Template(template)
        };
        tb.end("encrypt-filters", span);

        let prepared = Arc::new(PreparedQuery {
            table,
            sql: sql.to_string(),
            statement_id,
            query,
            translated,
            filters,
            bind_memo: Mutex::new(HashMap::new()),
        });
        self.metrics.statements_prepared.incr();
        self.metrics.prepare_ns.stop(prepare_timer);
        self.cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .insert(statement_id, Arc::clone(&prepared));
        Ok(prepared)
    }

    /// Number of statements currently held by the cache.
    pub fn cached_statements(&self) -> usize {
        self.cache.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// Executes a prepared statement with `params` bound to its `?`
    /// placeholders (in left-to-right order; empty for fully-bound
    /// statements), returning the decrypted result.
    ///
    /// Decryption runs against the statement's stored plan: binding never
    /// changes the plan *shape* (aggregates, grouping, post steps), which is
    /// all decryption reads, so fully-bound statements pay no per-execute
    /// allocation or crypto at all.
    ///
    /// Every execution runs under a freshly minted [`TraceId`], returned as
    /// `result.trace_id` ([`UNTRACED`] when the registry is disabled): the
    /// session's one [`QueryEvent`](seabed_obs::QueryEvent) — its `bind` /
    /// `dispatch` / `decrypt` spans among it — lands in its registry under
    /// it, and it travels to the target (a coordinator's event carries its
    /// scatter/gather/merge spans, a remote worker's its execute span).
    pub fn execute(&self, prepared: &PreparedQuery, params: &[Literal]) -> Result<QueryResult, SeabedError> {
        let (result, _) = self.execute_traced(prepared, params, false)?;
        Ok(result)
    }

    /// A builder for one session call under a fresh trace id ([`UNTRACED`]
    /// when the registry is disabled, so disabled sessions also skip the
    /// propagation work downstream). Every call finishes it once, whatever
    /// the outcome: the record of a query that failed is the one an operator
    /// goes looking for.
    fn trace(&self, statement_id: u64) -> TraceBuilder {
        let trace_id = if self.obs.enabled() {
            TraceId::mint().as_u64()
        } else {
            UNTRACED
        };
        let mut tb = self.obs.trace_builder(trace_id, "session");
        tb.set_statement_id(statement_id);
        tb
    }

    /// [`SeabedSession::execute_with`] as one traced call: its own builder,
    /// finished into the session's event for this execution.
    fn execute_traced(
        &self,
        prepared: &PreparedQuery,
        params: &[Literal],
        analyze: bool,
    ) -> Result<(QueryResult, Option<PlanNode>), SeabedError> {
        let mut tb = self.trace(prepared.statement_id);
        let outcome = self.execute_with(prepared, params, analyze, &mut tb);
        tb.finish(outcome_tag(&outcome));
        outcome
    }

    /// The proxy state of the table `prepared` reads.
    fn client_of(&self, prepared: &PreparedQuery) -> Result<&SeabedClient, SeabedError> {
        self.catalog
            .client(&prepared.table)
            .ok_or_else(|| SchemaError::UnknownTable(prepared.table.clone()).into())
    }

    /// The shared execute body of `execute`, `query` and `EXPLAIN ANALYZE`:
    /// dispatch, decrypt (as a span on `tb`), count, and describe the plan
    /// on `tb`. With `analyze`, also returns the structural plan annotated
    /// with the measured operators, the target's own subtree of this
    /// execution hung under it.
    fn execute_with(
        &self,
        prepared: &PreparedQuery,
        params: &[Literal],
        analyze: bool,
        tb: &mut TraceBuilder,
    ) -> Result<(QueryResult, Option<PlanNode>), SeabedError> {
        let timer = self.metrics.execute_ns.start();
        let trace_id = tb.trace_id();
        let outcome = self.client_of(prepared).and_then(|client| {
            let (bound, executed) = self.dispatch(client, prepared, params, analyze, tb)?;
            let mut result = client.decrypt_response(&prepared.query, &prepared.translated, executed.response)?;
            tb.add_span_ns("decrypt", result.client_time.as_nanos() as u64);
            result.trace_id = trace_id;
            let plan = analyze.then(|| {
                // The plan *that ran*: a filter's class — its place in the
                // execution order and the label its measurements carry — is
                // only a fact once its literal is bound.
                let mut plan = PlanNode::from_translated(bound.as_ref().unwrap_or(&prepared.translated));
                let operators = &result.server_stats.operators;
                let profiles: Vec<_> = operators
                    .iter()
                    .map(|op| (op.label.clone(), plan_profile(op)))
                    .collect();
                plan.annotate(&profiles);
                plan.children.extend(executed.plan);
                plan
            });
            Ok((result, plan))
        });
        // The event's plan is the analyzed tree, or the translated plan's
        // structural description; nothing in it carries SQL text or literals.
        tb.describe(|| match &outcome {
            Ok((result, Some(plan))) => (plan.render(), event_operators(&result.server_stats.operators)),
            _ => (prepared.translated.describe(), Vec::new()),
        });
        let executed = outcome?;
        self.metrics.execute_ns.stop(timer);
        self.metrics.executes.incr();
        Ok(executed)
    }

    /// The one path to the target: binds, builds the [`ExecRequest`] and
    /// runs it. Returns the bound plan when the statement has placeholders
    /// (`None` for fully-bound statements, whose plan *is*
    /// `prepared.translated`).
    fn dispatch(
        &self,
        client: &SeabedClient,
        prepared: &PreparedQuery,
        params: &[Literal],
        analyze: bool,
        tb: &mut TraceBuilder,
    ) -> Result<(Option<TranslatedQuery>, ExecOutcome), SeabedError> {
        let (bound, filters) = self.bind(client, prepared, params, tb)?;
        let span = tb.start();
        let executed = self.target.run(&ExecRequest {
            plan: &prepared.translated,
            filters: &filters,
            statement_id: Some(prepared.statement_id),
            trace_id: tb.trace_id(),
            analyze,
        });
        tb.end("dispatch", span);
        Ok((bound, executed?))
    }

    /// The one bind step: checks arity and types, and encrypts **only** the
    /// placeholder positions (inline literals were encrypted at prepare). A
    /// fully-bound statement borrows its fixed filters — no per-execute
    /// crypto, allocation or `bind` span.
    fn bind<'p>(
        &self,
        client: &SeabedClient,
        prepared: &'p PreparedQuery,
        params: &[Literal],
        tb: &mut TraceBuilder,
    ) -> Result<(Option<TranslatedQuery>, Cow<'p, [PhysicalFilter]>), SeabedError> {
        let template = match &prepared.filters {
            // Arity is still checked: a fully-bound statement takes no
            // parameters.
            PreparedFilters::Fixed(_) if !params.is_empty() => {
                return Err(SchemaError::ParamCount {
                    expected: 0,
                    actual: params.len(),
                }
                .into());
            }
            PreparedFilters::Fixed(fixed) => return Ok((None, Cow::Borrowed(fixed))),
            PreparedFilters::Template(template) => template,
        };
        let span = tb.start();
        let bound = prepared.translated.bind(params)?;
        let schema = self.target.schema_of(&prepared.table)?;
        let mut filters = Vec::with_capacity(template.len());
        for (i, slot) in template.iter().enumerate() {
            filters.push(match slot {
                Some(fixed) => fixed.clone(),
                None => {
                    let filter = bound.filters.get(i).ok_or_else(|| {
                        SeabedError::engine(format!("filter template position {i} exceeds the bound plan"))
                    })?;
                    // Deterministic encryption makes the memo sound: a
                    // repeated binding reuses its ciphertext byte for byte,
                    // so only first-seen literals pay AES.
                    match prepared.memoized_bound_filter(i, filter) {
                        Some(encrypted) => encrypted,
                        None => {
                            let encrypted = client.encrypt_filter(schema, filter)?;
                            prepared.memoize_bound_filter(i, filter, &encrypted);
                            encrypted
                        }
                    }
                }
            });
        }
        tb.end("bind", span);
        Ok((Some(bound), Cow::Owned(filters)))
    }

    /// [`SeabedSession::execute`] up to (and including) server execution,
    /// without decryption: returns the bound plan and the still-encrypted
    /// response. The equivalence suites use this to compare executions byte
    /// for byte: bound against inline literals, one target against another.
    pub fn execute_encrypted(
        &self,
        prepared: &PreparedQuery,
        params: &[Literal],
    ) -> Result<(TranslatedQuery, ServerResponse), SeabedError> {
        let client = self.client_of(prepared)?;
        let (bound, executed) = self.dispatch(client, prepared, params, false, &mut TraceBuilder::noop())?;
        // Fully-bound statements' plan is already the bound plan.
        Ok((bound.unwrap_or_else(|| prepared.translated.clone()), executed.response))
    }

    /// `EXPLAIN` / `EXPLAIN ANALYZE`: returns the structural plan tree of
    /// `sql`, optionally annotated with a measured per-operator profile.
    ///
    /// The SQL may carry the `EXPLAIN [ANALYZE]` prefix or be a bare query
    /// (treated as plain `EXPLAIN`). Plain `EXPLAIN` never touches the
    /// execution target beyond schema validation at prepare time — the plan
    /// is derived entirely from the client-side translated query, so nothing
    /// is dispatched, no shard traffic happens, and the call works even when
    /// every worker is down. `EXPLAIN ANALYZE` *is* an execute — same bind,
    /// same dispatch, same counters and event as
    /// [`SeabedSession::execute`] — with `analyze` set on its
    /// [`ExecRequest`]: each plan node is annotated with the measured
    /// rows/batches/nanos (merged across partitions and shards), the subtree
    /// the target returned for this very execution is appended (a
    /// distributed coordinator contributes its scatter/gather/merge stages
    /// and per-shard runs), and the decrypted result comes back alongside the
    /// tree.
    ///
    /// The returned plan is redacted by construction: operator classes and
    /// physical column names only — never predicate literals, parameter
    /// values, or SQL text. See [`PlanNode`].
    pub fn explain(&self, sql: &str, params: &[Literal]) -> Result<Explanation, SeabedError> {
        let statement = parse_statement(sql)?;
        // Prepare the *inner* query under its canonical rendering so an
        // explained statement shares its cache slot (and bind memo) with
        // plain executions of the same query.
        let prepared = self.prepare(&statement.query.to_sql())?;
        if statement.explain != ExplainMode::Analyze {
            return Ok(Explanation {
                plan: PlanNode::from_translated(&prepared.translated),
                analyzed: false,
                result: None,
            });
        }
        let (result, plan) = self.execute_traced(&prepared, params, true)?;
        Ok(Explanation {
            plan: plan.expect("an analyzed execution returns its plan"),
            analyzed: true,
            result: Some(result),
        })
    }

    /// Prepare-and-execute in one call. The statement cache makes repeated
    /// calls with the same SQL skip parse/translate/validate entirely; on a
    /// miss the prepare spans (`parse`, `translate`, `encrypt-filters`) join
    /// the execution's event, so with a registry shared with the target (see
    /// [`SeabedSession::with_obs`]) [`Registry::merged_trace`] of
    /// `result.trace_id` stitches the whole timeline, parse to merge. A
    /// statement that fails to prepare leaves its event too, with its
    /// outcome tag and an empty plan.
    pub fn query(&self, sql: &str, params: &[Literal]) -> Result<QueryResult, SeabedError> {
        let mut tb = self.trace(fnv1a64(sql.as_bytes()));
        let outcome = self
            .prepare_traced(sql, &mut tb)
            .and_then(|prepared| self.execute_with(&prepared, params, false, &mut tb));
        tb.finish(outcome_tag(&outcome));
        outcome.map(|(result, _)| result)
    }
}

/// Prepare-time validation of a translated plan against the target table's
/// physical schema: every column the plan will touch — filters (including
/// the ones placeholders will bind), aggregates, group keys — must exist
/// with the physical type the operation reads. This is what makes "fails at
/// prepare or bind time, never at execute time on the server" true for
/// schema errors.
///
/// Public because the `seabed-net` statement store runs the same check when
/// a remote PREPARE registers a plan against the hosted table, so a bad plan
/// fails at registration with a typed error instead of at first EXECUTE.
pub fn validate_against_schema(schema: &Schema, translated: &TranslatedQuery) -> Result<(), SeabedError> {
    for filter in &translated.filters {
        // Same rule set as bind-time encryption (an unbound placeholder only
        // needs existence here; its type is checked against the bound
        // literal at bind time).
        require_filter_column(schema, filter)?;
    }
    // The server's own column resolution, run early and discarded.
    resolve_columns(schema, translated)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ResultValue;
    use crate::dataset::PlainDataset;
    use crate::server::SeabedServer;
    use seabed_engine::{Cluster, ClusterConfig};
    use seabed_query::{ColumnSpec, PlannerConfig};

    fn fixture(name: &str, seed: &[u8]) -> (SeabedClient, SeabedServer, PlainDataset) {
        let n = 240usize;
        let dataset = PlainDataset::new(name)
            .with_text_column("dept", (0..n).map(|i| format!("d{}", i % 4)).collect())
            .with_uint_column("revenue", (0..n as u64).map(|i| (i * 7) % 1000).collect())
            .with_uint_column("ts", (0..n as u64).map(|i| (i * 13) % 500).collect());
        let columns = vec![
            ColumnSpec::sensitive("dept"),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
        ];
        let samples = vec![
            parse(&format!("SELECT SUM(revenue) FROM {name} WHERE dept = 'd1'")).expect("sample"),
            parse(&format!("SELECT SUM(revenue) FROM {name} WHERE ts >= 100")).expect("sample"),
            parse(&format!("SELECT dept, SUM(revenue) FROM {name} GROUP BY dept")).expect("sample"),
        ];
        let mut client = SeabedClient::create_plan(seed, &columns, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(&dataset, 4, &mut rand::rng());
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
        (client, server, dataset)
    }

    fn expected_sum(dataset: &PlainDataset, dept: &str, min_ts: u64) -> u64 {
        let d = dataset.column("dept").expect("dept");
        let r = dataset.column("revenue").expect("revenue");
        let t = dataset.column("ts").expect("ts");
        (0..dataset.num_rows())
            .filter(|&i| d.text_at(i) == dept && t.u64_at(i).unwrap_or_default() >= min_ts)
            .map(|i| r.u64_at(i).unwrap_or_default())
            .sum()
    }

    #[test]
    fn prepared_execution_binds_parameters() -> Result<(), SeabedError> {
        let (client, server, dataset) = fixture("sales", b"session-1");
        let session = SeabedSession::single("sales", client, &server);
        let prepared = session.prepare("SELECT SUM(revenue) FROM sales WHERE dept = ? AND ts >= ?")?;
        assert_eq!(prepared.param_count(), 2);
        for (dept, min_ts) in [("d0", 0u64), ("d1", 100), ("d3", 444)] {
            let result = session.execute(&prepared, &[Literal::Text(dept.to_string()), Literal::Integer(min_ts)])?;
            assert_eq!(
                result.rows,
                vec![vec![ResultValue::UInt(expected_sum(&dataset, dept, min_ts))]],
                "dept={dept} min_ts={min_ts}"
            );
        }
        Ok(())
    }

    #[test]
    fn statement_cache_hits_on_repeat_prepare() -> Result<(), SeabedError> {
        let (client, server, _) = fixture("sales", b"session-2");
        let session = SeabedSession::single("sales", client, &server);
        let sql = "SELECT SUM(revenue) FROM sales WHERE ts >= ?";
        let a = session.prepare(sql)?;
        let b = session.prepare(sql)?;
        assert!(Arc::ptr_eq(&a, &b), "second prepare must hit the cache");
        let stats = session.stats();
        assert_eq!(stats.statements_prepared, 1);
        assert_eq!(stats.cache_hits, 1);
        session.invalidate_statements();
        let c = session.prepare(sql)?;
        assert!(!Arc::ptr_eq(&a, &c), "invalidation must drop the cached statement");
        Ok(())
    }

    /// A multi-table catalog over an anonymous single-table target is
    /// refused up front: the target cannot route by name, so a query against
    /// the second table would silently scan the wrong data and decrypt it
    /// with the wrong keys. (Multi-table sessions over a routing target are
    /// exercised in `tests/multi_table_dist.rs`.)
    #[test]
    fn multi_table_catalog_requires_a_routing_target() {
        let (sales_client, sales_server, _) = fixture("sales", b"session-3a");
        let (ads_client, _ads_server, _) = fixture("ads", b"session-3b");
        let catalog = Catalog::new()
            .with_table("sales", sales_client)
            .with_table("ads", ads_client);
        let session = SeabedSession::new(catalog, &sales_server);
        assert_eq!(session.catalog().len(), 2);
        let outcome = session.prepare("SELECT SUM(revenue) FROM sales");
        assert!(
            matches!(&outcome, Err(SeabedError::Plan(msg)) if msg.contains("anonymous")),
            "{outcome:?}"
        );
    }

    #[test]
    fn statement_cache_is_bounded_with_fifo_eviction() -> Result<(), SeabedError> {
        let (client, server, _) = fixture("sales", b"session-8");
        let session = SeabedSession::single("sales", client, &server).with_statement_capacity(2);
        let a = session.prepare("SELECT SUM(revenue) FROM sales WHERE ts >= 1")?;
        session.prepare("SELECT SUM(revenue) FROM sales WHERE ts >= 2")?;
        session.prepare("SELECT SUM(revenue) FROM sales WHERE ts >= 3")?; // evicts the first
        assert_eq!(session.cached_statements(), 2);
        // The evicted statement re-prepares (a fresh Arc), the newest hits.
        let a2 = session.prepare("SELECT SUM(revenue) FROM sales WHERE ts >= 1")?;
        assert!(!Arc::ptr_eq(&a, &a2), "evicted statement must be re-prepared");
        let stats = session.stats();
        assert_eq!(stats.statements_prepared, 4);
        assert_eq!(stats.cache_hits, 0);
        Ok(())
    }

    #[test]
    fn unknown_table_fails_at_prepare_not_execute() {
        let (client, server, _) = fixture("sales", b"session-4");
        let session = SeabedSession::single("sales", client, &server);
        let outcome = session.prepare("SELECT SUM(revenue) FROM ghosts");
        assert!(
            matches!(outcome, Err(SeabedError::Schema(SchemaError::UnknownTable(ref t))) if t == "ghosts"),
            "{outcome:?}"
        );
    }

    #[test]
    fn bind_errors_are_typed_and_client_side() -> Result<(), SeabedError> {
        let (client, server, _) = fixture("sales", b"session-5");
        let session = SeabedSession::single("sales", client, &server);
        let prepared = session.prepare("SELECT SUM(revenue) FROM sales WHERE ts >= ?")?;
        assert!(matches!(
            session.execute(&prepared, &[]),
            Err(SeabedError::Schema(SchemaError::ParamCount { expected: 1, actual: 0 }))
        ));
        assert!(matches!(
            session.execute(&prepared, &[Literal::Integer(1), Literal::Integer(2)]),
            Err(SeabedError::Schema(SchemaError::ParamCount { .. }))
        ));
        assert!(matches!(
            session.execute(&prepared, &[Literal::Text("later".to_string())]),
            Err(SeabedError::Schema(SchemaError::TypeMismatch { .. }))
        ));
        Ok(())
    }

    #[test]
    fn bound_equals_inline_in_process() -> Result<(), SeabedError> {
        let (client, server, _) = fixture("sales", b"session-7");
        let session = SeabedSession::single("sales", client, &server);
        for (parameterized, params, inline) in [
            (
                "SELECT SUM(revenue) FROM sales WHERE dept = ? AND ts >= ?",
                vec![Literal::Text("d2".to_string()), Literal::Integer(50)],
                "SELECT SUM(revenue) FROM sales WHERE dept = 'd2' AND ts >= 50",
            ),
            (
                "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
                vec![],
                "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            ),
        ] {
            let prepared = session.prepare(parameterized)?;
            let (_, bound_response) = session.execute_encrypted(&prepared, &params)?;
            let inline = session.prepare(inline)?;
            let (_, inline_response) = session.execute_encrypted(&inline, &[])?;
            // Byte-identical payload; stats carry measured wall times and are
            // expected to differ run to run.
            assert_eq!(bound_response.groups, inline_response.groups, "{parameterized}");
            assert_eq!(bound_response.result_bytes(), inline_response.result_bytes());
        }
        Ok(())
    }

    /// One traced query records the whole session-side lifecycle under one
    /// minted id — and a disabled registry runs the same query untraced,
    /// with the session counters still live.
    #[test]
    fn traced_query_records_session_spans_and_metrics() -> Result<(), SeabedError> {
        let (client, server, _) = fixture("sales", b"session-9");
        let session = SeabedSession::single("sales", client, &server);
        let sql = "SELECT SUM(revenue) FROM sales WHERE ts >= 100";
        let trace_id = session.query(sql, &[])?.trace_id;
        assert_ne!(trace_id, UNTRACED);
        let trace = session.registry().merged_trace(trace_id).expect("trace recorded");
        assert_eq!(trace.statement_id, fnv1a64(sql.as_bytes()));
        let names: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["parse", "translate", "encrypt-filters", "dispatch", "decrypt"],
            "cold prepare + fully-bound execute"
        );
        let snap = session.registry().snapshot();
        assert_eq!(snap.counter("session_prepares"), Some(1));
        assert_eq!(snap.counter("session_executes"), Some(1));
        assert!(snap.histogram("session_prepare_ns").unwrap().count == 1);
        assert!(snap.histogram("session_execute_ns").unwrap().count == 1);

        // A cache-hit execution has no prepare spans.
        let second_id = session.query(sql, &[])?.trace_id;
        let second = session.registry().merged_trace(second_id).expect("trace recorded");
        let names: Vec<&str> = second.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["dispatch", "decrypt"]);
        assert_eq!(session.registry().snapshot().counter("session_cache_hits"), Some(1));

        // Disabled registry: untraced, timerless, but counters stay live.
        let (client, server, _) = fixture("sales", b"session-9");
        let session = SeabedSession::single("sales", client, &server).with_obs(Registry::disabled());
        let trace_id = session.query(sql, &[])?.trace_id;
        assert_eq!(trace_id, UNTRACED);
        assert!(session.registry().recent_events().is_empty());
        assert_eq!(session.stats().executes, 1);
        assert_eq!(
            session
                .registry()
                .snapshot()
                .histogram("session_execute_ns")
                .unwrap()
                .count,
            0
        );
        Ok(())
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned so the net layer's statement handles stay compatible with
        // values computed elsewhere.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"SELECT 1"), fnv1a64(b"SELECT 2"));
    }
}
