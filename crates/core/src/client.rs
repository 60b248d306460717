//! The Seabed client proxy: planning, encryption, query translation, literal
//! encryption, and decryption / post-processing of results.
//!
//! The proxy is the only trusted component besides the data source (Figure 5).
//! It hides every cryptographic operation from the analyst: queries go in as
//! plain SQL and come back as plaintext rows, with timing broken down into
//! server, network and client-side decryption components so the experiments of
//! §6 can be reproduced.
//!
//! Every fallible step returns [`SeabedError`] and the response-decryption
//! path is panic-free: the server is untrusted, so a response whose shape
//! does not match the translated plan (missing aggregates, undecodable ID
//! lists) is reported as an error instead of crashing the trusted proxy.

use crate::dataset::PlainDataset;
use crate::encrypt::{encrypt_dataset, physical_ashe_keys, EncryptedTable};
use crate::keys::KeyStore;
use crate::server::{EncryptedAggregate, PhysicalFilter, QueryTarget, ServerResponse};
use seabed_ashe::{AsheCiphertext, AsheScheme, IdSet};
use seabed_crypto::{DetScheme, OreScheme};
use seabed_engine::{ColumnType, ExecStats, NetworkModel, Schema};
use seabed_error::SeabedError;
use seabed_query::planner::{plan_schema, ColumnSpec, PlannerConfig, SchemaPlan};
use seabed_query::{
    parse, translate, AggregateFunction, ClientPostStep, Query, SelectItem, ServerFilter, TranslateOptions,
    TranslatedQuery,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// A single output value of a query.
#[derive(Clone, Debug, PartialEq)]
pub enum ResultValue {
    /// An integer result (sums, counts, min/max).
    UInt(u64),
    /// A fractional result (averages, variances).
    Float(f64),
    /// A decrypted group key.
    Text(String),
}

impl ResultValue {
    /// Numeric view of the value (texts map to NaN).
    pub fn as_f64(&self) -> f64 {
        match self {
            ResultValue::UInt(v) => *v as f64,
            ResultValue::Float(f) => *f,
            ResultValue::Text(_) => f64::NAN,
        }
    }

    /// Integer view of the value if it is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            ResultValue::UInt(v) => Some(*v),
            _ => None,
        }
    }
}

/// Latency breakdown of one query, mirroring the decomposition reported in
/// §6.2 (server compute, network transfer, client decryption).
#[derive(Clone, Debug, Default)]
pub struct QueryTimings {
    /// Simulated server-side latency.
    pub server: Duration,
    /// Modeled network transfer time of the result.
    pub network: Duration,
    /// Measured client-side decryption / post-processing time.
    pub client: Duration,
}

impl QueryTimings {
    /// End-to-end latency.
    pub fn total(&self) -> Duration {
        self.server + self.network + self.client
    }
}

/// The plaintext result of a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// One row per group: group-key values followed by aggregate values, in
    /// the order of the original `SELECT` list.
    pub rows: Vec<Vec<ResultValue>>,
    /// Latency breakdown.
    pub timings: QueryTimings,
    /// Raw server statistics.
    pub server_stats: ExecStats,
    /// Size of the encrypted result shipped from server to client.
    pub result_bytes: usize,
    /// Number of PRF (AES) evaluations the client performed during decryption.
    pub client_prf_evals: usize,
    /// The trace id the execution ran under: a [`crate::SeabedSession`] mints
    /// one per execution and records its spans (and the target's) under it;
    /// [`seabed_obs::UNTRACED`] when its registry is disabled, or when no
    /// session was involved.
    pub trace_id: u64,
}

/// Pre-instantiated per-column filter-encryption schemes for one statement.
///
/// Constructing a [`DetScheme`] or [`OreScheme`] pays an AES key schedule
/// (DET also splits an HMAC key); on the prepared hot path that cost used to
/// be paid once per execute per bound literal. A `FilterEncryptor` is built
/// once — by [`SeabedClient::filter_encryptor`] at statement-prepare time —
/// and shared by every subsequent execute, so binding K literals performs
/// zero key schedules. The schemes are deterministic per key, making
/// encryptor-based and from-scratch encryption byte-identical.
#[derive(Clone, Default)]
pub struct FilterEncryptor {
    /// DET schemes keyed by *physical* column name (e.g. `dept__det`).
    det: HashMap<String, DetScheme>,
    /// ORE schemes keyed by physical column name (e.g. `ts__ope`).
    ore: HashMap<String, OreScheme>,
}

impl FilterEncryptor {
    /// Number of cached per-column schemes (DET + ORE).
    pub fn len(&self) -> usize {
        self.det.len() + self.ore.len()
    }

    /// True when no scheme is cached (every filter falls back to a fresh
    /// key schedule).
    pub fn is_empty(&self) -> bool {
        self.det.is_empty() && self.ore.is_empty()
    }
}

impl std::fmt::Debug for FilterEncryptor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilterEncryptor")
            .field("det_columns", &self.det.keys().collect::<Vec<_>>())
            .field("ore_columns", &self.ore.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// The Seabed client proxy.
///
/// `Clone` is cheap relative to the data it manages (keys, plan, DET
/// dictionaries) and lets concurrent workloads — many simultaneous remote
/// clients — hand each connection its own proxy without re-planning.
#[derive(Clone)]
pub struct SeabedClient {
    keys: KeyStore,
    plan: SchemaPlan,
    det_dictionary: HashMap<String, HashMap<u64, String>>,
    ashe_keys: HashMap<String, [u8; 16]>,
    /// Network link between server and proxy.
    pub network: NetworkModel,
    /// Translation options (worker count for group inflation, expected groups).
    pub translate_options: TranslateOptions,
}

impl SeabedClient {
    /// Runs the planner over the plaintext schema and sample queries and
    /// builds a proxy around the resulting plan ("Create Plan" in §4.1).
    pub fn create_plan(
        master_key: &[u8],
        columns: &[ColumnSpec],
        sample_queries: &[Query],
        config: &PlannerConfig,
    ) -> SeabedClient {
        let plan = plan_schema(columns, sample_queries, config);
        let keys = KeyStore::new(master_key);
        let ashe_keys = physical_ashe_keys(&plan, &keys);
        SeabedClient {
            keys,
            plan,
            det_dictionary: HashMap::new(),
            ashe_keys,
            network: NetworkModel::datacenter(),
            translate_options: TranslateOptions::default(),
        }
    }

    /// The schema plan in force.
    pub fn plan(&self) -> &SchemaPlan {
        &self.plan
    }

    /// Encrypts a dataset for upload ("Upload Data" in §4.1), retaining the
    /// DET dictionaries needed to decrypt group keys later.
    pub fn encrypt_dataset<R: rand::Rng + ?Sized>(
        &mut self,
        dataset: &PlainDataset,
        num_partitions: usize,
        rng: &mut R,
    ) -> EncryptedTable {
        let encrypted = encrypt_dataset(dataset, &self.plan, &self.keys, num_partitions, rng);
        for (col, dict) in &encrypted.det_dictionary {
            self.det_dictionary
                .entry(col.clone())
                .or_default()
                .extend(dict.iter().map(|(k, v)| (*k, v.clone())));
        }
        encrypted
    }

    /// Translates a SQL string and encrypts its literals against a target's
    /// schema, producing everything needed to execute the query remotely.
    /// Exposed so benchmarks can time translation, execution and decryption
    /// separately.
    ///
    /// This is the *one-shot* path: every literal must be inline in the SQL
    /// (a `?` placeholder is a typed error — prepare parameterized statements
    /// through [`crate::SeabedSession`] instead, which binds and encrypts
    /// only the bound literals per execution).
    ///
    /// `target` is anything implementing [`QueryTarget`]: the in-process
    /// [`crate::SeabedServer`], a `seabed-net` remote proxy, or a
    /// `seabed-dist` coordinator fanning the query out across sharded
    /// workers — the proxy surface is identical.
    pub fn prepare(
        &self,
        target: &impl QueryTarget,
        sql: &str,
    ) -> Result<(Query, TranslatedQuery, Vec<PhysicalFilter>), SeabedError> {
        let query = parse(sql)?;
        let schema = target.schema_of(query.from.base_table())?;
        self.prepare_parsed(schema, query)
    }

    /// Like [`SeabedClient::prepare`], but resolves filter columns against a
    /// bare [`Schema`] instead of an in-process server. This is the entry
    /// point remote deployments use: `seabed_net::RemoteSeabedClient` fetches
    /// the schema over the wire at connect time and prepares every query
    /// against it, so the proxy never needs a reference to the server object.
    pub fn prepare_with_schema(
        &self,
        schema: &Schema,
        sql: &str,
    ) -> Result<(Query, TranslatedQuery, Vec<PhysicalFilter>), SeabedError> {
        self.prepare_parsed(schema, parse(sql)?)
    }

    fn prepare_parsed(
        &self,
        schema: &Schema,
        query: Query,
    ) -> Result<(Query, TranslatedQuery, Vec<PhysicalFilter>), SeabedError> {
        let translated = translate(&query, &self.plan, &self.translate_options)?;
        if !translated.is_bound() {
            return Err(SeabedError::Translate(format!(
                "query has {} unbound placeholder(s): prepare it through a SeabedSession and bind parameters at \
                 execute time",
                translated.params.len()
            )));
        }
        let filters = self.encrypt_filters(schema, &translated)?;
        Ok((query, translated, filters))
    }

    /// Encrypts the literals of a fully-bound translated query into the
    /// [`PhysicalFilter`]s the server evaluates: DET literals become tags,
    /// OPE literals become ORE ciphertexts, plaintext literals pass through.
    /// Every filter column is resolved against `schema` and type-checked
    /// *here*, at the proxy — a mismatch is a typed [`SeabedError::Schema`]
    /// at bind time, never a server-side execution failure.
    ///
    /// One [`FilterEncryptor`] is built for the whole call, so repeated
    /// filters on the same column share a single key schedule.
    pub fn encrypt_filters(
        &self,
        schema: &Schema,
        translated: &TranslatedQuery,
    ) -> Result<Vec<PhysicalFilter>, SeabedError> {
        let encryptor = self.filter_encryptor(translated);
        translated
            .filters
            .iter()
            .map(|filter| self.encrypt_filter_with(&encryptor, schema, filter))
            .collect()
    }

    /// Builds the per-statement [`FilterEncryptor`]: one DET/ORE scheme
    /// instance per distinct filter column of `translated`, each paying its
    /// AES key schedule exactly once. Placeholder positions carry their
    /// column name even before binding, so the encryptor built at prepare
    /// time covers every literal a later bind can produce.
    pub fn filter_encryptor(&self, translated: &TranslatedQuery) -> FilterEncryptor {
        let mut encryptor = FilterEncryptor::default();
        for filter in &translated.filters {
            match filter {
                ServerFilter::Plain(_) => {}
                ServerFilter::DetEquals { column, .. } => {
                    encryptor
                        .det
                        .entry(column.clone())
                        .or_insert_with(|| self.det_scheme_for(column));
                }
                ServerFilter::OpeCompare { column, .. } => {
                    encryptor
                        .ore
                        .entry(column.clone())
                        .or_insert_with(|| self.ore_scheme_for(column));
                }
            }
        }
        encryptor
    }

    fn det_scheme_for(&self, column: &str) -> DetScheme {
        let logical = column.strip_suffix("__det").unwrap_or(column);
        DetScheme::new(&self.keys.det_key(logical))
    }

    fn ore_scheme_for(&self, column: &str) -> OreScheme {
        let logical = column.strip_suffix("__ope").unwrap_or(column);
        OreScheme::new(&self.keys.ope_key(logical))
    }

    /// Encrypts one fully-bound server filter into its physical form — the
    /// unit the session uses to re-encrypt *only* the placeholder positions
    /// of a partially-bound statement per execution — using `encryptor`'s
    /// cached per-column schemes, falling back to a freshly-built scheme for a
    /// column the encryptor does not cover (the schemes are deterministic
    /// per key, so the output is identical either way).
    pub fn encrypt_filter_with(
        &self,
        encryptor: &FilterEncryptor,
        schema: &Schema,
        filter: &ServerFilter,
    ) -> Result<PhysicalFilter, SeabedError> {
        // One shared rule set (`filter_column_expectation`) decides which
        // physical type each filter reads, so prepare-time validation and
        // bind-time encryption cannot diverge.
        let idx = require_filter_column(schema, filter)?;
        Ok(match filter {
            ServerFilter::Plain(pred) => match &pred.value {
                seabed_query::Literal::Integer(v) => PhysicalFilter::PlainU64 {
                    column: idx,
                    op: pred.op,
                    value: *v,
                },
                seabed_query::Literal::Text(s) => PhysicalFilter::PlainText {
                    column: idx,
                    value: s.clone(),
                },
                seabed_query::Literal::Param(_) => {
                    return Err(SeabedError::Translate(format!(
                        "filter on {} still carries an unbound placeholder; bind parameters first",
                        pred.column
                    )))
                }
            },
            ServerFilter::DetEquals { column, value } => {
                let tag = match encryptor.det.get(column) {
                    Some(det) => det.tag64_of(value.as_bytes()),
                    None => self.det_scheme_for(column).tag64_of(value.as_bytes()),
                };
                PhysicalFilter::DetTag { column: idx, tag }
            }
            ServerFilter::OpeCompare { column, op, value } => {
                let ciphertext = match encryptor.ore.get(column) {
                    Some(ore) => ore.encrypt(*value),
                    None => self.ore_scheme_for(column).encrypt(*value),
                };
                PhysicalFilter::Ope {
                    column: idx,
                    op: *op,
                    ciphertext,
                }
            }
        })
    }

    /// Runs a SQL query end-to-end against a query target ("Query Data" in
    /// §4.1): translate, encrypt literals, execute remotely, decrypt and
    /// post-process. The target may be the in-process [`crate::SeabedServer`]
    /// or a `seabed-dist` coordinator — same surface either way.
    ///
    /// Every layer reports through [`SeabedError`]: malformed SQL surfaces as
    /// [`SeabedError::Parse`], references to unknown columns as
    /// [`SeabedError::Schema`], unsupported operations as
    /// [`SeabedError::Translate`], and a server response that does not match
    /// the plan as [`SeabedError::Engine`] / [`SeabedError::Encoding`].
    pub fn query(&self, target: &impl QueryTarget, sql: &str) -> Result<QueryResult, SeabedError> {
        let (query, translated, filters) = self.prepare(target, sql)?;
        let response = target.execute_query(&translated, &filters)?;
        self.decrypt_response(&query, &translated, response)
    }

    /// Decrypts a server response and applies the client-side post-processing
    /// steps. Public so benchmarks can time it separately from execution.
    ///
    /// The response comes from the untrusted server, so shape mismatches
    /// (fewer aggregates than the plan requested, undecodable ID lists) are
    /// reported as errors rather than panicking the trusted proxy.
    pub fn decrypt_response(
        &self,
        query: &Query,
        translated: &TranslatedQuery,
        response: ServerResponse,
    ) -> Result<QueryResult, SeabedError> {
        let started = Instant::now();
        let mut prf_evals = 0usize;

        // Merge inflated groups back together first (strip the suffix key).
        let merge_groups = translated
            .client_post
            .iter()
            .any(|s| matches!(s, ClientPostStep::MergeInflatedGroups));
        let mut groups: Vec<(Vec<u64>, Vec<EncryptedAggregate>)> = Vec::new();
        if merge_groups && translated.group_inflation > 1 {
            let mut merged: HashMap<Vec<u64>, Vec<EncryptedAggregate>> = HashMap::new();
            for group in response.groups {
                let mut key = group.key.clone();
                key.pop(); // drop the inflation suffix
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(group.aggregates);
                    }
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        let existing = slot.get_mut();
                        if existing.len() != group.aggregates.len() {
                            return Err(SeabedError::engine(format!(
                                "server returned {} aggregates for an inflated group that previously had {}",
                                group.aggregates.len(),
                                existing.len()
                            )));
                        }
                        for (a, b) in existing.iter_mut().zip(group.aggregates) {
                            merge_encrypted(a, b)?;
                        }
                    }
                }
            }
            groups = merged.into_iter().collect();
            groups.sort_by(|a, b| a.0.cmp(&b.0));
        } else {
            for group in response.groups {
                groups.push((group.key, group.aggregates));
            }
        }

        // Decrypt each group's aggregates and map them back onto the original
        // SELECT list.
        let mut rows = Vec::with_capacity(groups.len());
        for (key, aggregates) in &groups {
            let mut row: Vec<ResultValue> = Vec::new();
            // Group keys first (decrypted via the DET dictionary when needed).
            for (i, group_col) in translated.group_by.iter().enumerate() {
                let raw = key.get(i).copied().unwrap_or(0);
                if group_col.encrypted {
                    let text = self
                        .det_dictionary
                        .get(&group_col.physical_column)
                        .and_then(|d| d.get(&raw))
                        .cloned()
                        .unwrap_or_else(|| format!("<tag:{raw}>"));
                    row.push(ResultValue::Text(text));
                } else {
                    row.push(ResultValue::UInt(raw));
                }
            }
            // Aggregates: walk the original select list, consuming server
            // aggregates in the same order the translator emitted them.
            let mut cursor = 0usize;
            for item in &query.select {
                let SelectItem::Aggregate { func, .. } = item else {
                    continue;
                };
                match func {
                    AggregateFunction::Sum | AggregateFunction::Count => {
                        let value =
                            self.decrypt_aggregate(translated, cursor, fetch(aggregates, cursor)?, &mut prf_evals)?;
                        cursor += 1;
                        row.push(ResultValue::UInt(value));
                    }
                    AggregateFunction::Avg => {
                        let sum =
                            self.decrypt_aggregate(translated, cursor, fetch(aggregates, cursor)?, &mut prf_evals)?;
                        let count = self.decrypt_aggregate(
                            translated,
                            cursor + 1,
                            fetch(aggregates, cursor + 1)?,
                            &mut prf_evals,
                        )?;
                        cursor += 2;
                        row.push(ResultValue::Float(if count == 0 {
                            0.0
                        } else {
                            sum as f64 / count as f64
                        }));
                    }
                    AggregateFunction::Min | AggregateFunction::Max => {
                        let value =
                            self.decrypt_aggregate(translated, cursor, fetch(aggregates, cursor)?, &mut prf_evals)?;
                        cursor += 1;
                        row.push(ResultValue::UInt(value));
                    }
                    AggregateFunction::Variance | AggregateFunction::Stddev => {
                        let sum_sq =
                            self.decrypt_aggregate(translated, cursor, fetch(aggregates, cursor)?, &mut prf_evals)?;
                        let sum = self.decrypt_aggregate(
                            translated,
                            cursor + 1,
                            fetch(aggregates, cursor + 1)?,
                            &mut prf_evals,
                        )?;
                        let count = self.decrypt_aggregate(
                            translated,
                            cursor + 2,
                            fetch(aggregates, cursor + 2)?,
                            &mut prf_evals,
                        )?;
                        cursor += 3;
                        let variance = if count == 0 {
                            0.0
                        } else {
                            let mean = sum as f64 / count as f64;
                            (sum_sq as f64 / count as f64) - mean * mean
                        };
                        row.push(ResultValue::Float(if *func == AggregateFunction::Stddev {
                            variance.max(0.0).sqrt()
                        } else {
                            variance
                        }));
                    }
                }
            }
            rows.push(row);
        }

        let client = started.elapsed();
        let network = self.network.transfer_time(response.result_bytes);
        Ok(QueryResult {
            rows,
            timings: QueryTimings {
                server: response.stats.simulated_server_time,
                network,
                client,
            },
            server_stats: response.stats,
            result_bytes: response.result_bytes,
            client_prf_evals: prf_evals,
            trace_id: seabed_obs::UNTRACED,
        })
    }

    fn decrypt_aggregate(
        &self,
        translated: &TranslatedQuery,
        aggregate_index: usize,
        aggregate: &EncryptedAggregate,
        prf_evals: &mut usize,
    ) -> Result<u64, SeabedError> {
        Ok(match aggregate {
            EncryptedAggregate::Count { rows } => match translated.aggregates.get(aggregate_index) {
                Some(seabed_query::ServerAggregate::CountRows) => *rows,
                other => {
                    return Err(SeabedError::engine(format!(
                        "server returned a row count at index {aggregate_index} but the plan requested {other:?}"
                    )))
                }
            },
            EncryptedAggregate::AsheSum {
                value,
                id_list,
                encoding,
            } => {
                // The server returns aggregates in the order the translator
                // emitted them, so the physical column (and thus the key) is
                // read off the translated plan at the same index. A response
                // whose kind diverges from the plan at this index is
                // malformed.
                let column = match translated.aggregates.get(aggregate_index) {
                    Some(seabed_query::ServerAggregate::AsheSum { column }) => column.clone(),
                    other => {
                        return Err(SeabedError::engine(format!(
                            "server returned an ASHE sum at index {aggregate_index} but the plan requested {other:?}"
                        )))
                    }
                };
                self.decrypt_named_sum(&column, *value, id_list, *encoding, prf_evals)?
            }
            EncryptedAggregate::Extreme { value_word, row_id } => {
                // Validate the response kind against the plan even for the
                // empty-selection (row_id: None) case: an untrusted server
                // must not be able to satisfy a SUM plan with an Extreme.
                let column = match translated.aggregates.get(aggregate_index) {
                    Some(seabed_query::ServerAggregate::OpeMin { column })
                    | Some(seabed_query::ServerAggregate::OpeMax { column }) => column.clone(),
                    other => {
                        return Err(SeabedError::engine(format!(
                        "server returned a MIN/MAX result at index {aggregate_index} but the plan requested {other:?}"
                    )))
                    }
                };
                match row_id {
                    None => 0,
                    Some(id) => {
                        // The companion column is ASHE-encrypted under the
                        // base column's key.
                        let base = column.strip_suffix("__ope").unwrap_or(&column);
                        let key = self
                            .ashe_keys
                            .get(&format!("{base}__ope_val"))
                            .copied()
                            .unwrap_or_else(|| self.keys.ashe_key(base));
                        let scheme = AsheScheme::new(&key);
                        *prf_evals += 2;
                        scheme.decrypt(&AsheCiphertext {
                            value: *value_word,
                            ids: IdSet::single(*id),
                        })
                    }
                }
            }
        })
    }

    /// Decrypts one ASHE aggregate given its physical column name.
    fn decrypt_named_sum(
        &self,
        column: &str,
        value: u64,
        id_list: &[u8],
        encoding: seabed_encoding::IdListEncoding,
        prf_evals: &mut usize,
    ) -> Result<u64, SeabedError> {
        let Some(key) = self.ashe_keys.get(column) else {
            // Plaintext column summed on the server (NoEnc-style pass-through).
            return Ok(value);
        };
        let scheme = AsheScheme::new(key);
        let ids = IdSet::decode(id_list, encoding)
            .ok_or_else(|| SeabedError::encoding(format!("undecodable ID list for column {column}")))?;
        *prf_evals += scheme.decrypt_prf_evals(&AsheCiphertext {
            value,
            ids: ids.clone(),
        });
        Ok(scheme.decrypt(&AsheCiphertext { value, ids }))
    }
}

/// The physical column a server filter reads and the type it must have —
/// `None` for a plaintext filter whose literal is still an unbound
/// placeholder (the column must exist, but its type is only checkable once a
/// literal is bound). This is the single source of truth shared by
/// prepare-time validation (`crate::session`) and bind-time encryption
/// ([`SeabedClient::encrypt_filters`]), so the two can never disagree on the
/// rules.
pub(crate) fn filter_column_expectation(filter: &ServerFilter) -> (&str, Option<ColumnType>) {
    match filter {
        ServerFilter::Plain(pred) => (
            &pred.column,
            match &pred.value {
                seabed_query::Literal::Integer(_) => Some(ColumnType::UInt64),
                seabed_query::Literal::Text(_) => Some(ColumnType::Utf8),
                seabed_query::Literal::Param(_) => None,
            },
        ),
        ServerFilter::DetEquals { column, .. } => (column, Some(ColumnType::UInt64)),
        ServerFilter::OpeCompare { column, .. } => (column, Some(ColumnType::Bytes)),
    }
}

/// Resolves a filter's column against `schema` and type-checks it per
/// [`filter_column_expectation`]: unknown columns and physical-type
/// mismatches are typed [`SeabedError::Schema`] errors at the proxy, never
/// server-side failures.
pub(crate) fn require_filter_column(schema: &Schema, filter: &ServerFilter) -> Result<usize, SeabedError> {
    let (name, expected) = filter_column_expectation(filter);
    let idx = schema
        .index_of(name)
        .ok_or_else(|| SeabedError::unknown_physical_column(name))?;
    if let Some(expected) = expected {
        let actual = schema.fields[idx].ty;
        if actual != expected {
            return Err(seabed_error::SchemaError::TypeMismatch {
                column: name.to_string(),
                expected: format!("{expected:?}"),
                actual: format!("{actual:?}"),
            }
            .into());
        }
    }
    Ok(idx)
}

/// Returns the aggregate at `index` or a [`SeabedError::Engine`] when the
/// (untrusted) server shipped fewer aggregates than the plan requested.
fn fetch(aggregates: &[EncryptedAggregate], index: usize) -> Result<&EncryptedAggregate, SeabedError> {
    aggregates.get(index).ok_or_else(|| {
        SeabedError::engine(format!(
            "server response is missing aggregate {index}: response does not match the plan"
        ))
    })
}

/// Merges two encrypted aggregates of the same kind at the proxy (used when
/// collapsing inflated group-by groups). Mismatched kinds mean the untrusted
/// server shipped inconsistent groups and are reported as an error.
fn merge_encrypted(a: &mut EncryptedAggregate, b: EncryptedAggregate) -> Result<(), SeabedError> {
    match (a, b) {
        (
            EncryptedAggregate::AsheSum {
                value,
                id_list,
                encoding,
            },
            EncryptedAggregate::AsheSum {
                value: v2,
                id_list: l2,
                encoding: e2,
            },
        ) => {
            let ids_a = IdSet::decode(id_list, *encoding)
                .ok_or_else(|| SeabedError::encoding("undecodable ID list in group merge"))?;
            let ids_b =
                IdSet::decode(&l2, e2).ok_or_else(|| SeabedError::encoding("undecodable ID list in group merge"))?;
            let merged = ids_a.union(&ids_b);
            *value = value.wrapping_add(v2);
            *id_list = merged.encode(*encoding);
        }
        (EncryptedAggregate::Count { rows }, EncryptedAggregate::Count { rows: r2 }) => {
            *rows += r2;
        }
        (EncryptedAggregate::Extreme { .. }, EncryptedAggregate::Extreme { .. }) => {
            // MIN/MAX never combines with group inflation in this dialect.
        }
        _ => {
            return Err(SeabedError::engine(
                "server returned aggregates of different kinds for the same group",
            ))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SeabedServer;
    use seabed_engine::{Cluster, ClusterConfig};

    fn build_system() -> Result<(SeabedClient, SeabedServer, PlainDataset), SeabedError> {
        let countries = [
            "USA", "USA", "Canada", "USA", "Canada", "India", "Chile", "India", "USA", "Canada",
        ];
        let dataset = PlainDataset::new("sales")
            .with_text_column("country", countries.iter().map(|s| s.to_string()).collect())
            .with_uint_column("revenue", vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100])
            .with_uint_column("ts", vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
            .with_text_column(
                "dept",
                ["a", "b", "a", "b", "a", "b", "a", "b", "a", "b"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
        let distribution = dataset
            .distribution("country")
            .ok_or_else(|| SeabedError::engine("fixture is missing the country column"))?;
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", distribution),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::sensitive("dept"),
        ];
        let mut queries: Vec<Query> = Vec::new();
        for sql in [
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            "SELECT VARIANCE(revenue) FROM sales",
        ] {
            queries.push(parse(sql)?);
        }
        let mut client = SeabedClient::create_plan(b"master", &columns, &queries, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(&dataset, 3, &mut rand::rng());
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::with_workers(4)));
        Ok((client, server, dataset))
    }

    #[test]
    fn end_to_end_global_sum() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = client.query(&server, "SELECT SUM(revenue) FROM sales")?;
        assert_eq!(result.rows, vec![vec![ResultValue::UInt(550)]]);
        assert!(result.timings.total() > Duration::ZERO);
        Ok(())
    }

    #[test]
    fn end_to_end_splashe_filter() -> Result<(), SeabedError> {
        let (client, server, dataset) = build_system()?;
        // USA is frequent -> dedicated splayed column.
        let result = client.query(&server, "SELECT SUM(revenue) FROM sales WHERE country = 'USA'")?;
        let country = dataset
            .column("country")
            .ok_or_else(|| SeabedError::engine("missing country column"))?;
        let revenue = dataset
            .column("revenue")
            .ok_or_else(|| SeabedError::engine("missing revenue column"))?;
        let expected: u64 = (0..dataset.num_rows())
            .filter(|&i| country.text_at(i) == "USA")
            .map(|i| revenue.u64_at(i).unwrap_or_default())
            .sum();
        assert_eq!(result.rows[0][0], ResultValue::UInt(expected));
        // India is infrequent -> others column + DET-filtered rows.
        let result = client.query(&server, "SELECT SUM(revenue) FROM sales WHERE country = 'India'")?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(60 + 80));
        Ok(())
    }

    #[test]
    fn end_to_end_ope_range_filter() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = client.query(&server, "SELECT SUM(revenue) FROM sales WHERE ts >= 6")?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(60 + 70 + 80 + 90 + 100));
        let result = client.query(&server, "SELECT COUNT(*) FROM sales WHERE ts < 4")?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(3));
        Ok(())
    }

    #[test]
    fn end_to_end_group_by_with_key_decryption() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = client.query(&server, "SELECT dept, SUM(revenue) FROM sales GROUP BY dept")?;
        assert_eq!(result.rows.len(), 2);
        let mut by_key: HashMap<String, u64> = HashMap::new();
        for row in &result.rows {
            let ResultValue::Text(key) = &row[0] else {
                return Err(SeabedError::engine(format!("expected decrypted key, got {:?}", row[0])));
            };
            by_key.insert(key.clone(), row[1].as_u64().unwrap_or_default());
        }
        assert_eq!(by_key.get("a").copied(), Some(10 + 30 + 50 + 70 + 90));
        assert_eq!(by_key.get("b").copied(), Some(20 + 40 + 60 + 80 + 100));
        Ok(())
    }

    #[test]
    fn end_to_end_avg_and_variance() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let avg = client.query(&server, "SELECT AVG(revenue) FROM sales")?;
        assert_eq!(avg.rows[0][0], ResultValue::Float(55.0));
        let var = client.query(&server, "SELECT VARIANCE(revenue) FROM sales")?;
        // Population variance of 10..100 step 10 is 825.
        assert!(
            matches!(var.rows[0][0], ResultValue::Float(v) if (v - 825.0).abs() < 1e-9),
            "unexpected variance {:?}",
            var.rows[0][0]
        );
        Ok(())
    }

    #[test]
    fn unsupported_query_reports_error() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        assert!(client
            .query(&server, "SELECT SUM(revenue) FROM sales WHERE revenue = 10")
            .is_err());
        assert!(client.query(&server, "not sql at all").is_err());
        Ok(())
    }

    #[test]
    fn forged_response_kind_is_rejected() -> Result<(), SeabedError> {
        use crate::server::GroupResult;
        let (client, server, _) = build_system()?;
        let (query, translated, _) = client.prepare(&server, "SELECT SUM(revenue) FROM sales")?;
        let forge = |aggregates: Vec<EncryptedAggregate>| ServerResponse {
            groups: vec![GroupResult {
                key: vec![],
                aggregates,
            }],
            stats: ExecStats::default(),
            result_bytes: 8,
        };
        // A row count answering an ASHE-sum plan must not decrypt to Ok.
        let outcome = client.decrypt_response(&query, &translated, forge(vec![EncryptedAggregate::Count { rows: 7 }]));
        assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        // Same for a MIN/MAX result, even the empty-selection form.
        let outcome = client.decrypt_response(
            &query,
            &translated,
            forge(vec![EncryptedAggregate::Extreme {
                value_word: 0,
                row_id: None,
            }]),
        );
        assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        // And for a response that ships fewer aggregates than the plan asked.
        let outcome = client.decrypt_response(&query, &translated, forge(vec![]));
        assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        Ok(())
    }

    #[test]
    fn inflated_groups_with_mismatched_aggregate_counts_are_rejected() -> Result<(), SeabedError> {
        use crate::server::GroupResult;
        let (mut client, server, _) = build_system()?;
        client.translate_options.expected_groups = Some(1);
        let (query, translated, _) = client.prepare(&server, "SELECT dept, SUM(revenue) FROM sales GROUP BY dept")?;
        assert!(translated.group_inflation > 1, "fixture should inflate groups");
        let encoding = seabed_encoding::IdListEncoding::seabed_group_by();
        let sum = |value: u64| EncryptedAggregate::AsheSum {
            value,
            id_list: Vec::new(),
            encoding,
        };
        // Two inflated shards of the same logical group, one shipping a
        // truncated aggregate list: must error, not silently drop data.
        let forged = ServerResponse {
            groups: vec![
                GroupResult {
                    key: vec![5, 0],
                    aggregates: vec![sum(1)],
                },
                GroupResult {
                    key: vec![5, 1],
                    aggregates: vec![],
                },
            ],
            stats: ExecStats::default(),
            result_bytes: 16,
        };
        let outcome = client.decrypt_response(&query, &translated, forged);
        assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        Ok(())
    }

    #[test]
    fn error_variants_name_the_failing_layer() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        // Malformed SQL -> Parse.
        assert!(matches!(
            client.query(&server, "SELECT FROM WHERE"),
            Err(SeabedError::Parse(_))
        ));
        // Unknown column -> Schema.
        assert!(matches!(
            client.query(&server, "SELECT SUM(no_such_column) FROM sales"),
            Err(SeabedError::Schema(_))
        ));
        // Unsupported operation (filter on an ASHE measure) -> Translate.
        assert!(matches!(
            client.query(&server, "SELECT COUNT(*) FROM sales WHERE revenue = 10"),
            Err(SeabedError::Translate(_))
        ));
        Ok(())
    }
}
