//! The Seabed client proxy: planning, encryption, query translation, literal
//! encryption, and decryption of results.
//!
//! The proxy is the only trusted component besides the data source (Figure 5).
//! It hides every cryptographic operation from the analyst: queries go in as
//! plain SQL and come back as plaintext rows. A [`SeabedClient`] is the keys'
//! half of that — plan, dataset encryption, literal encryption, decryption —
//! and nothing else: SQL is turned into rows by a [`crate::SeabedSession`]
//! over it, the one path that is cached, traced and measured.
//!
//! **Key material exists once per proxy.** "A different secret key for each
//! column" (§4.2) is a per-column cost paid before the data flows:
//! [`SeabedClient::create_plan`] derives every column key and expands it into
//! its scheme (AES round keys, HMAC midstates) once, into one value that
//! clones of the client share. Literal encryption and decryption borrow from
//! it; a literal for a column it holds no scheme for is a typed error, never
//! a ciphertext under a key made up on the spot.
//!
//! This is the file that holds the keys, so it only *decrypts*: how a `SELECT`
//! list expands into server aggregates and collapses back into a result row is
//! `seabed_query::translate`'s business, in both directions.
//! [`SeabedClient::decrypt_response`] is three passes over a response:
//!
//! 1. **resolve** — each plan aggregate once per response: the kind of answer
//!    the plan asked for and, borrowed from the schemes the proxy built with
//!    its plan, the ASHE scheme that opens it;
//! 2. **decode + fold** — each group's aggregates are checked against the
//!    plan and its ID list — one per group, whatever the number of sums over
//!    it — decoded exactly once; under group inflation the sub-groups of a
//!    group are folded here, before anything is decrypted: their ID sets
//!    united (which restores the runs telescoping needs), ASHE sums by adding
//!    words, counts by adding, MIN/MAX by decrypting each candidate and
//!    comparing plaintexts;
//! 3. **finish** — one decryption per folded sum (all the sums of a group
//!    over its one ID set), DET group keys through the dictionary, the
//!    decrypted words through [`TranslatedQuery::finish_aggregates`].
//!
//! Every fallible step returns [`SeabedError`] and the path is panic-free:
//! the server is untrusted, so the second pass refuses — as a typed error,
//! never a crash of the trusted proxy — a group whose key has the wrong
//! number of words (one per group-by column, plus the inflation suffix), a
//! group with more or fewer aggregates than the plan, an aggregate of another
//! kind than the plan asked for at that position, a masked sum in a group
//! without an ID list, and an undecodable ID list.

use crate::dataset::PlainDataset;
use crate::encrypt::{encrypt_dataset, physical_ashe_keys, EncryptedTable};
use crate::keys::KeyStore;
use crate::server::{filter_column_type, require_column, EncryptedAggregate, PhysicalFilter, ServerResponse};
use seabed_ashe::{AsheCiphertext, AsheScheme, IdSet};
use seabed_crypto::{DetScheme, OreScheme};
use seabed_engine::{ExecStats, Schema};
use seabed_error::SeabedError;
use seabed_query::planner::{plan_schema, ColumnSpec, EncryptionChoice, PlannerConfig, SchemaPlan};
pub use seabed_query::ResultValue;
use seabed_query::{encnames, AggregateInput, Query, ServerAggregate, ServerFilter, TranslateOptions, TranslatedQuery};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The plaintext result of a query.
///
/// Its two compute times are §6.2's decomposition: the server's is
/// `server_stats.wall_time`, as the server measured it (the coordinator's
/// whole scatter and gather, for a distributed table), and the proxy's is
/// `client_time`. Time on the link is measured by the spans of the
/// execution's trace; the paper harness models a link from
/// [`QueryResult::result_bytes`] where it reproduces §6.6.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// One row per group: group-key values followed by aggregate values, in
    /// the order of the original `SELECT` list.
    pub rows: Vec<Vec<ResultValue>>,
    /// Measured client-side decryption / post-processing time.
    pub client_time: Duration,
    /// What the server measured: its `wall_time` and, for an analyzed
    /// execution, its per-operator profiles.
    pub server_stats: ExecStats,
    /// Size of the encrypted result groups the proxy received and decoded
    /// ([`ServerResponse::result_bytes`]), counted by the proxy.
    pub result_bytes: usize,
    /// Number of PRF (AES) evaluations the client performed during decryption.
    pub client_prf_evals: usize,
    /// The trace id the execution ran under: a [`crate::SeabedSession`] mints
    /// one per execution and records its spans (and the target's) under it;
    /// [`seabed_obs::UNTRACED`] when its registry is disabled, or when no
    /// session was involved.
    pub trace_id: u64,
}

/// Every scheme this proxy's keys open, each keyed by the *physical* column it
/// reads or writes: an [`AsheScheme`] per ASHE-masked column (measures, their
/// squares, OPE companions, every splayed SPLASHE column), a [`DetScheme`]
/// per DET-tagged column and an [`OreScheme`] per order-encrypted one. Built
/// once, by [`SeabedClient::create_plan`]; nothing else in the query path
/// derives a key or expands one.
struct ColumnSchemes {
    ashe: HashMap<String, AsheScheme>,
    det: HashMap<String, DetScheme>,
    ore: HashMap<String, OreScheme>,
}

impl ColumnSchemes {
    fn build(plan: &SchemaPlan, keys: &KeyStore) -> ColumnSchemes {
        let ashe = physical_ashe_keys(plan, keys)
            .into_iter()
            .map(|(column, key)| (column, AsheScheme::new(&key)))
            .collect();
        let (mut det, mut ore) = (HashMap::new(), HashMap::new());
        for column in &plan.columns {
            match column.encryption {
                EncryptionChoice::Det | EncryptionChoice::SplasheEnhanced { .. } => {
                    det.insert(encnames::det(&column.name), DetScheme::new(&keys.det_key(&column.name)));
                }
                EncryptionChoice::Ope => {
                    ore.insert(encnames::ope(&column.name), OreScheme::new(&keys.ope_key(&column.name)));
                }
                _ => {}
            }
        }
        ColumnSchemes { ashe, det, ore }
    }
}

/// The error of a literal for a column this proxy holds no scheme for: the
/// plan was translated under another proxy's schema plan.
fn no_scheme(kind: &str, column: &str) -> SeabedError {
    SeabedError::Translate(format!(
        "this proxy holds no {kind} key for the physical column {column}: it is not a {kind} column of its schema plan"
    ))
}

/// The Seabed client proxy.
///
/// `Clone` copies the plan and *shares* the schemes (no round key is copied)
/// and the DET dictionaries, so concurrent workloads — many simultaneous
/// sessions or remote clients — hand each its own proxy without re-planning,
/// re-deriving a key or copying a dictionary.
#[derive(Clone)]
pub struct SeabedClient {
    keys: KeyStore,
    plan: SchemaPlan,
    det_dictionary: Arc<HashMap<String, HashMap<u64, String>>>,
    schemes: Arc<ColumnSchemes>,
    /// Translation options (worker count for group inflation, expected groups).
    pub translate_options: TranslateOptions,
}

impl SeabedClient {
    /// Runs the planner over the plaintext schema and sample queries and
    /// builds a proxy around the resulting plan ("Create Plan" in §4.1),
    /// deriving and expanding every column key the plan calls for.
    pub fn create_plan(
        master_key: &[u8],
        columns: &[ColumnSpec],
        sample_queries: &[Query],
        config: &PlannerConfig,
    ) -> SeabedClient {
        let plan = plan_schema(columns, sample_queries, config);
        let keys = KeyStore::new(master_key);
        let schemes = Arc::new(ColumnSchemes::build(&plan, &keys));
        SeabedClient {
            keys,
            plan,
            det_dictionary: Arc::default(),
            schemes,
            translate_options: TranslateOptions::default(),
        }
    }

    /// The schema plan in force.
    pub fn plan(&self) -> &SchemaPlan {
        &self.plan
    }

    /// Encrypts a dataset for upload ("Upload Data" in §4.1), retaining the
    /// DET dictionaries needed to decrypt group keys later. Clones made before
    /// keep the dictionaries they shared.
    pub fn encrypt_dataset<R: rand::Rng + ?Sized>(
        &mut self,
        dataset: &PlainDataset,
        num_partitions: usize,
        rng: &mut R,
    ) -> EncryptedTable {
        let encrypted = encrypt_dataset(dataset, &self.plan, &self.keys, num_partitions, rng);
        let dictionaries = Arc::make_mut(&mut self.det_dictionary);
        for (col, dict) in &encrypted.det_dictionary {
            dictionaries
                .entry(col.clone())
                .or_default()
                .extend(dict.iter().map(|(k, v)| (*k, v.clone())));
        }
        encrypted
    }

    /// Encrypts the literals of a fully-bound translated query into the
    /// [`PhysicalFilter`]s the server evaluates: DET literals become tags,
    /// OPE literals become ORE ciphertexts, plaintext literals pass through.
    /// Every filter column is resolved against `schema` and type-checked
    /// *here*, at the proxy — a mismatch is a typed [`SeabedError::Schema`]
    /// at bind time, never a server-side execution failure — and a DET or OPE
    /// literal for a column this proxy holds no scheme for (a plan translated
    /// under another proxy's schema plan) is a typed
    /// [`SeabedError::Translate`], not a filter that can match nothing.
    pub fn encrypt_filters(
        &self,
        schema: &Schema,
        translated: &TranslatedQuery,
    ) -> Result<Vec<PhysicalFilter>, SeabedError> {
        translated
            .filters
            .iter()
            .map(|filter| self.encrypt_filter(schema, filter))
            .collect()
    }

    /// Encrypts one fully-bound server filter into its physical form — the
    /// unit the session uses to re-encrypt *only* the placeholder positions
    /// of a partially-bound statement per execution.
    pub(crate) fn encrypt_filter(&self, schema: &Schema, filter: &ServerFilter) -> Result<PhysicalFilter, SeabedError> {
        // One shared rule (`require_filter_column`) decides which physical
        // type each filter reads, so prepare-time validation and bind-time
        // encryption cannot diverge.
        let idx = require_filter_column(schema, filter)?;
        Ok(match filter {
            ServerFilter::Plain(pred) => match &pred.value {
                seabed_query::Literal::Integer(v) => PhysicalFilter::PlainU64 {
                    column: idx,
                    op: pred.op,
                    value: *v,
                },
                // The text class is string *equality*: any other operator
                // would silently run as one.
                seabed_query::Literal::Text(_) if pred.op != seabed_query::CompareOp::Eq => {
                    return Err(SeabedError::Translate(format!(
                        "only equality predicates are supported on the text column {}",
                        pred.column
                    )))
                }
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
                let det = self.schemes.det.get(column).ok_or_else(|| no_scheme("DET", column))?;
                PhysicalFilter::DetTag {
                    column: idx,
                    tag: det.tag64_of(value.as_bytes()),
                }
            }
            ServerFilter::OpeCompare { column, op, value } => {
                let ore = self.schemes.ore.get(column).ok_or_else(|| no_scheme("OPE", column))?;
                PhysicalFilter::Ope {
                    column: idx,
                    op: *op,
                    ciphertext: ore.encrypt(*value),
                }
            }
        })
    }

    /// Decrypts a server response into the rows of the original `SELECT` —
    /// the three passes of the [module docs](self). Public so benchmarks can
    /// time it separately from execution.
    ///
    /// `translated` alone says how: its aggregates name what to decrypt, its
    /// post steps how the decrypted words become result values (`_query` is
    /// unused — kept for the callers that pass it until ROADMAP item C(a)
    /// retires this signature).
    ///
    /// The response comes from the untrusted server, so shape mismatches
    /// (fewer aggregates than the plan requested, undecodable ID lists) are
    /// reported as errors rather than panicking the trusted proxy.
    pub fn decrypt_response(
        &self,
        _query: &Query,
        translated: &TranslatedQuery,
        response: ServerResponse,
    ) -> Result<QueryResult, SeabedError> {
        let result_bytes = response.result_bytes();
        let started = Instant::now();
        let mut prf_evals = 0usize;

        // Pass 1 — resolve: each plan aggregate to the scheme that opens it.
        let plan: Vec<Opener<'_>> = translated.aggregates.iter().map(|agg| self.opener(agg)).collect();

        // Pass 2 — decode + fold. Inflation is decided here and only here:
        // the server appended a suffix word to every group key, and the
        // sub-groups that agree on the rest of the key are one group.
        let inflated = translated.group_inflation > 1;
        let key_words = translated.group_by.len() + usize::from(inflated);
        let unmasks = plan
            .iter()
            .any(|opener| matches!(opener.answer, Answer::Sum) && opener.scheme.is_some());
        let mut groups: Vec<(Vec<u64>, AsheCiphertext, Vec<Folded>)> = Vec::with_capacity(response.groups.len());
        let mut slot_of: HashMap<Vec<u64>, usize> = HashMap::new();
        for group in response.groups {
            let mut key = group.key;
            if key.len() != key_words || group.aggregates.len() != plan.len() {
                return Err(SeabedError::engine(format!(
                    "server returned a group with {} key words and {} aggregates where the plan has {key_words} and \
                     {}: response does not match the plan",
                    key.len(),
                    group.aggregates.len(),
                    plan.len()
                )));
            }
            let slot = if inflated {
                key.pop();
                *slot_of.entry(key.clone()).or_insert(groups.len())
            } else {
                groups.len()
            };
            if slot == groups.len() {
                groups.push((
                    key,
                    AsheCiphertext::zero(),
                    plan.iter().map(Opener::nothing_yet).collect(),
                ));
            }
            let (_, selected, folded) = &mut groups[slot];
            // The group's ID list, decoded once for all the sums over it — and
            // not at all when no sum of the plan has a mask to remove.
            if unmasks {
                let ids = group.ids.ok_or_else(|| {
                    SeabedError::engine("server returned a group without the ID list its sums are masked under")
                })?;
                let decoded = IdSet::decode(&ids.id_list, ids.encoding)
                    .ok_or_else(|| SeabedError::encoding("undecodable ID list in a response group"))?;
                selected.ids.merge(decoded);
            }
            let asked = translated.aggregates.iter().zip(&plan);
            for (((asked, opener), into), aggregate) in asked.zip(folded).zip(group.aggregates) {
                opener.fold(asked, into, aggregate, &mut prf_evals)?;
            }
        }
        if inflated {
            groups.sort_by(|a, b| a.0.cmp(&b.0));
        }

        // Pass 3 — finish: group keys, then the SELECT list's values.
        let mut rows = Vec::with_capacity(groups.len());
        let mut words = Vec::with_capacity(plan.len());
        for (key, mut selected, folded) in groups {
            let mut row: Vec<ResultValue> = Vec::with_capacity(key.len() + folded.len());
            for (group_col, raw) in translated.group_by.iter().zip(key) {
                // Encrypted keys are decrypted via the DET dictionary.
                row.push(if group_col.encrypted {
                    let text = self
                        .det_dictionary
                        .get(&group_col.physical_column)
                        .and_then(|d| d.get(&raw))
                        .cloned()
                        .unwrap_or_else(|| format!("<tag:{raw}>"));
                    ResultValue::Text(text)
                } else {
                    ResultValue::UInt(raw)
                });
            }
            words.clear();
            words.extend(
                plan.iter()
                    .zip(folded)
                    .map(|(opener, folded)| opener.open(folded, &mut selected, &mut prf_evals)),
            );
            translated.finish_aggregates(&words, &mut row)?;
            rows.push(row);
        }

        Ok(QueryResult {
            rows,
            client_time: started.elapsed(),
            server_stats: response.stats,
            result_bytes,
            client_prf_evals: prf_evals,
            trace_id: seabed_obs::UNTRACED,
        })
    }

    /// Resolves one plan aggregate: the kind of answer it expects and, looked
    /// up under the name of the physical column the words come from
    /// ([`ServerAggregate::input`]), the ASHE scheme that unmasks them.
    fn opener(&self, aggregate: &ServerAggregate) -> Opener<'_> {
        let scheme = |words_of: &str| self.schemes.ashe.get(words_of);
        let (answer, scheme) = match aggregate.input() {
            AggregateInput::Words(column) => (Answer::Sum, scheme(column)),
            AggregateInput::RowIds => (Answer::Count, None),
            AggregateInput::Extreme { value, want_max, .. } => (Answer::Extreme { want_max }, scheme(&value)),
        };
        Opener { answer, scheme }
    }
}

/// One plan aggregate, resolved for one response: which kind of
/// [`EncryptedAggregate`] answers it and how its words are unmasked.
struct Opener<'a> {
    answer: Answer,
    /// `None` for a column the proxy holds no key for — a public column the
    /// server read in the clear, whose words pass through — and for a count.
    scheme: Option<&'a AsheScheme>,
}

enum Answer {
    Sum,
    Count,
    Extreme { want_max: bool },
}

/// One aggregate of one result group while its (sub-)groups are folded.
enum Folded {
    /// Still masked: the words added up (the rows whose masks they carry are
    /// the group's).
    Sum(u64),
    /// Rows counted so far.
    Count(u64),
    /// The best plaintext candidate so far; `None` while no row matched.
    Extreme(Option<u64>),
}

/// Removes from `masked.value` the masks of the rows in `masked.ids`,
/// telescoped per run.
fn unmask(scheme: Option<&AsheScheme>, masked: &AsheCiphertext, prf_evals: &mut usize) -> u64 {
    let Some(scheme) = scheme else {
        return masked.value;
    };
    *prf_evals += scheme.decrypt_prf_evals(masked);
    scheme.decrypt(masked)
}

impl Opener<'_> {
    /// The fold's identity: a group no sub-group has contributed to yet.
    fn nothing_yet(&self) -> Folded {
        match self.answer {
            Answer::Sum => Folded::Sum(0),
            Answer::Count => Folded::Count(0),
            Answer::Extreme { .. } => Folded::Extreme(None),
        }
    }

    /// Folds one aggregate of the response — the server's answer to the plan
    /// aggregate `asked` — into `into`: the only place an answer's kind is held
    /// against the plan's.
    fn fold(
        &self,
        asked: &ServerAggregate,
        into: &mut Folded,
        aggregate: EncryptedAggregate,
        prf_evals: &mut usize,
    ) -> Result<(), SeabedError> {
        match (&self.answer, into, aggregate) {
            (Answer::Sum, Folded::Sum(value), EncryptedAggregate::AsheSum { value: word }) => {
                *value = value.wrapping_add(word);
            }
            (Answer::Count, Folded::Count(rows), EncryptedAggregate::Count { rows: more }) => {
                *rows = rows.wrapping_add(more);
            }
            (
                Answer::Extreme { want_max },
                Folded::Extreme(best),
                EncryptedAggregate::Extreme { value_word, row_id },
            ) => {
                // An ORE ciphertext only compares, so the server cannot rank
                // winners of different sub-groups for us: each candidate is
                // decrypted and the plaintexts compared.
                if let Some(id) = row_id {
                    let row = AsheCiphertext {
                        value: value_word,
                        ids: IdSet::single(id),
                    };
                    let candidate = unmask(self.scheme, &row, prf_evals);
                    *best = Some(match *best {
                        Some(best) if *want_max => best.max(candidate),
                        Some(best) => best.min(candidate),
                        None => candidate,
                    });
                }
            }
            _ => {
                return Err(SeabedError::engine(format!(
                    "the server answered {asked:?} with an aggregate of another kind: response does not match the plan"
                )))
            }
        }
        Ok(())
    }

    /// The decrypted word of a completely folded aggregate (zero over an
    /// empty selection). `selected` holds the group's ID set, as a ciphertext
    /// whose word is swapped in per sum: the sums of a group share the set
    /// without copying it.
    fn open(&self, folded: Folded, selected: &mut AsheCiphertext, prf_evals: &mut usize) -> u64 {
        match folded {
            Folded::Sum(value) => {
                selected.value = value;
                unmask(self.scheme, selected, prf_evals)
            }
            Folded::Count(rows) => rows,
            Folded::Extreme(best) => best.unwrap_or(0),
        }
    }
}

/// Resolves a filter's column against `schema` and type-checks it: the column
/// must exist, and have the physical type its [`seabed_query::FilterClass`]
/// reads ([`filter_column_type`]) — unless the filter is a plaintext predicate
/// whose literal is still an unbound placeholder, whose class is only known
/// once a literal is bound. Shared by prepare-time validation
/// (`crate::session`) and bind-time encryption
/// ([`SeabedClient::encrypt_filters`]), so the two can never disagree; unknown
/// columns and mismatches are typed [`SeabedError::Schema`] errors at the
/// proxy, never server-side failures.
pub(crate) fn require_filter_column(schema: &Schema, filter: &ServerFilter) -> Result<usize, SeabedError> {
    require_column(schema, filter.column(), filter.class().map(filter_column_type))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SeabedServer;
    use crate::session::SeabedSession;
    use seabed_engine::{Cluster, ClusterConfig};
    use seabed_query::parse;

    /// SQL in, rows out: the one path, over a fresh single-table session.
    fn run(client: &SeabedClient, server: &SeabedServer, sql: &str) -> Result<QueryResult, SeabedError> {
        SeabedSession::single("sales", client.clone(), server).query(sql, &[])
    }

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
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
        Ok((client, server, dataset))
    }

    #[test]
    fn end_to_end_global_sum() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = run(&client, &server, "SELECT SUM(revenue) FROM sales")?;
        assert_eq!(result.rows, vec![vec![ResultValue::UInt(550)]]);
        assert!(result.server_stats.wall_time + result.client_time > Duration::ZERO);
        Ok(())
    }

    #[test]
    fn end_to_end_splashe_filter() -> Result<(), SeabedError> {
        let (client, server, dataset) = build_system()?;
        // USA is frequent -> dedicated splayed column.
        let result = run(&client, &server, "SELECT SUM(revenue) FROM sales WHERE country = 'USA'")?;
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
        let result = run(
            &client,
            &server,
            "SELECT SUM(revenue) FROM sales WHERE country = 'India'",
        )?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(60 + 80));
        Ok(())
    }

    #[test]
    fn end_to_end_ope_range_filter() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = run(&client, &server, "SELECT SUM(revenue) FROM sales WHERE ts >= 6")?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(60 + 70 + 80 + 90 + 100));
        let result = run(&client, &server, "SELECT COUNT(*) FROM sales WHERE ts < 4")?;
        assert_eq!(result.rows[0][0], ResultValue::UInt(3));
        Ok(())
    }

    #[test]
    fn end_to_end_group_by_with_key_decryption() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        let result = run(&client, &server, "SELECT dept, SUM(revenue) FROM sales GROUP BY dept")?;
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
        let avg = run(&client, &server, "SELECT AVG(revenue) FROM sales")?;
        assert_eq!(avg.rows[0][0], ResultValue::Float(55.0));
        let var = run(&client, &server, "SELECT VARIANCE(revenue) FROM sales")?;
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
        assert!(run(&client, &server, "SELECT SUM(revenue) FROM sales WHERE revenue = 10").is_err());
        assert!(run(&client, &server, "not sql at all").is_err());
        Ok(())
    }

    #[test]
    fn forged_response_kind_is_rejected() -> Result<(), SeabedError> {
        use crate::server::{GroupIds, GroupResult};
        let (client, server, _) = build_system()?;
        let prepared =
            SeabedSession::single("sales", client.clone(), &server).prepare("SELECT SUM(revenue) FROM sales")?;
        let (query, translated) = (prepared.query(), prepared.translated());
        let no_rows = || {
            Some(GroupIds {
                id_list: Vec::new(),
                encoding: seabed_encoding::IdListEncoding::RangesVbDiff,
            })
        };
        // Each forgery must fail at the check it is written for, so each names
        // that check's message: two of them are `Engine` errors a few lines apart.
        let refused = |ids: Option<GroupIds>, aggregates: Vec<EncryptedAggregate>, check: &str| {
            let forged = ServerResponse {
                groups: vec![GroupResult {
                    key: vec![],
                    ids,
                    aggregates,
                }],
                stats: ExecStats::default(),
            };
            let outcome = client.decrypt_response(query, translated, forged);
            assert!(
                matches!(&outcome, Err(SeabedError::Engine(msg)) if msg.contains(check)),
                "expected the {check:?} check, got {outcome:?}"
            );
        };
        // A row count answering an ASHE-sum plan must not decrypt to Ok.
        refused(no_rows(), vec![EncryptedAggregate::Count { rows: 7 }], "another kind");
        // Same for a MIN/MAX result, even the empty-selection form.
        let extreme = EncryptedAggregate::Extreme {
            value_word: 0,
            row_id: None,
        };
        refused(no_rows(), vec![extreme], "another kind");
        // And for a response that ships fewer aggregates than the plan asked.
        refused(no_rows(), vec![], "0 aggregates");
        // And for a sum whose group ships no ID list: with no rows to unmask
        // the masked word itself would come back as the answer.
        refused(
            None,
            vec![EncryptedAggregate::AsheSum { value: 7 }],
            "without the ID list",
        );
        Ok(())
    }

    #[test]
    fn inflated_groups_with_mismatched_aggregate_counts_are_rejected() -> Result<(), SeabedError> {
        use crate::server::{GroupIds, GroupResult};
        let (mut client, server, _) = build_system()?;
        client.translate_options.expected_groups = Some(1);
        let prepared = SeabedSession::single("sales", client.clone(), &server)
            .prepare("SELECT dept, SUM(revenue) FROM sales GROUP BY dept")?;
        let (query, translated) = (prepared.query(), prepared.translated());
        assert!(translated.group_inflation > 1, "fixture should inflate groups");
        let no_rows = || {
            Some(GroupIds {
                id_list: Vec::new(),
                encoding: seabed_encoding::IdListEncoding::RangesVbDiff,
            })
        };
        // Two inflated shards of the same logical group, one shipping a
        // truncated aggregate list: must error, not silently drop data.
        let forged = ServerResponse {
            groups: vec![
                GroupResult {
                    key: vec![5, 0],
                    ids: no_rows(),
                    aggregates: vec![EncryptedAggregate::AsheSum { value: 1 }],
                },
                GroupResult {
                    key: vec![5, 1],
                    ids: no_rows(),
                    aggregates: vec![],
                },
            ],
            stats: ExecStats::default(),
        };
        let outcome = client.decrypt_response(query, translated, forged);
        assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        Ok(())
    }

    /// The two forged shapes only the fold can meet: sub-groups of one group
    /// that disagree on an aggregate's kind, and an inflated group key too
    /// short to carry the suffix (popping it used to strip a *group* word and
    /// silently merge unrelated groups). Each is a typed error, and the proxy
    /// answers the next honest query.
    #[test]
    fn inflated_groups_that_disagree_or_lack_the_suffix_are_rejected() -> Result<(), SeabedError> {
        use crate::server::{GroupIds, GroupResult};
        let (mut client, server, _) = build_system()?;
        client.translate_options.expected_groups = Some(1);
        let sql = "SELECT dept, SUM(revenue) FROM sales GROUP BY dept";
        let prepared = SeabedSession::single("sales", client.clone(), &server).prepare(sql)?;
        let (query, translated) = (prepared.query(), prepared.translated());
        assert!(translated.group_inflation > 1, "fixture should inflate groups");
        let sum = |value: u64| EncryptedAggregate::AsheSum { value };
        let forge = |groups: Vec<(Vec<u64>, EncryptedAggregate)>| ServerResponse {
            groups: groups
                .into_iter()
                .map(|(key, aggregate)| GroupResult {
                    key,
                    ids: Some(GroupIds {
                        id_list: Vec::new(),
                        encoding: seabed_encoding::IdListEncoding::RangesVbDiff,
                    }),
                    aggregates: vec![aggregate],
                })
                .collect(),
            stats: ExecStats::default(),
        };
        for forged in [
            // Same group, second sub-group answers the SUM with a row count.
            forge(vec![
                (vec![5, 0], sum(1)),
                (vec![5, 1], EncryptedAggregate::Count { rows: 3 }),
            ]),
            // Two different groups, neither key carries the inflation suffix.
            forge(vec![(vec![5], sum(1)), (vec![6], sum(2))]),
        ] {
            let outcome = client.decrypt_response(query, translated, forged);
            assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        }
        let honest = run(&client, &server, sql)?;
        assert_eq!(honest.rows.len(), 2);
        Ok(())
    }

    /// The schemes are built once and shared: a clone of the proxy holds the
    /// same value, not a copy of its round keys.
    #[test]
    fn cloning_the_proxy_shares_its_schemes() -> Result<(), SeabedError> {
        let (client, _, _) = build_system()?;
        assert_eq!(Arc::strong_count(&client.schemes), 1);
        let clone = client.clone();
        assert_eq!(Arc::strong_count(&client.schemes), 2);
        assert!(Arc::ptr_eq(&client.schemes, &clone.schemes));
        // One scheme per physical column of the plan, whatever a query names.
        assert!(client.schemes.det.contains_key("dept__det") && client.schemes.det.contains_key("country__det"));
        assert_eq!(client.schemes.ore.keys().collect::<Vec<_>>(), ["ts__ope"]);
        assert!(["revenue__ashe", "revenue__ashe_sq", "ts__ope_val"]
            .iter()
            .all(|column| client.schemes.ashe.contains_key(*column)));
        Ok(())
    }

    /// A clone shares the DET dictionaries too, and encrypting another dataset
    /// on one side leaves the other side's dictionaries as they were.
    #[test]
    fn clones_share_the_det_dictionaries_until_one_encrypts() -> Result<(), SeabedError> {
        let (mut client, _, _) = build_system()?;
        let clone = client.clone();
        assert!(Arc::ptr_eq(&client.det_dictionary, &clone.det_dictionary));
        let before = clone.det_dictionary["dept__det"].clone();
        let more = PlainDataset::new("sales")
            .with_text_column("country", vec!["India".to_string()])
            .with_uint_column("revenue", vec![5])
            .with_uint_column("ts", vec![11])
            .with_text_column("dept", vec!["c".to_string()]);
        client.encrypt_dataset(&more, 1, &mut rand::rng());
        assert!(!Arc::ptr_eq(&client.det_dictionary, &clone.det_dictionary));
        assert_eq!(clone.det_dictionary["dept__det"], before);
        assert_eq!(client.det_dictionary["dept__det"].len(), before.len() + 1);
        Ok(())
    }

    /// A literal for a column this proxy holds no key for is a typed error.
    /// `encrypt_filters` used to derive a key for it on the spot — from this
    /// proxy's master and the column's name — tag the literal under it and
    /// ship a filter that can match nothing: a silently empty answer.
    #[test]
    fn a_plan_translated_under_another_proxys_schema_plan_is_refused() -> Result<(), SeabedError> {
        let (owner, server, _) = build_system()?;
        let sql = "SELECT SUM(revenue) FROM sales WHERE dept = 'b' AND ts >= 6";
        let plan = seabed_query::translate(&parse(sql)?, owner.plan(), &owner.translate_options)?;

        // Another tenant's proxy over the same stored schema: its plan keeps
        // `dept` and `ts` in the clear, so it holds no DET or OPE key at all.
        let columns = ["country", "dept", "ts"]
            .map(ColumnSpec::public)
            .into_iter()
            .chain([ColumnSpec::sensitive("revenue")])
            .collect::<Vec<_>>();
        let stranger = SeabedClient::create_plan(b"other-master", &columns, &[parse(sql)?], &PlannerConfig::default());
        let outcome = stranger.encrypt_filters(server.schema(), &plan);
        assert!(
            matches!(&outcome, Err(SeabedError::Translate(msg)) if msg.contains("dept__det")),
            "{outcome:?}"
        );

        // Through its own proxy the same plan encrypts to the bytes it always did.
        let filters = owner.encrypt_filters(server.schema(), &plan)?;
        let [PhysicalFilter::DetTag { tag, .. }, PhysicalFilter::Ope { ciphertext, .. }] = &filters[..] else {
            return Err(SeabedError::engine(format!("unexpected filters {filters:?}")));
        };
        // Recorded at the parent of the change that built the schemes once.
        assert_eq!(*tag, 0xda2f_7c1d_9e69_bc4b);
        assert_eq!(
            ciphertext.symbols,
            [6, 132, 84, 137, 164, 170, 8, 133, 166, 69, 34, 22, 40, 96, 166, 152]
        );
        Ok(())
    }

    #[test]
    fn error_variants_name_the_failing_layer() -> Result<(), SeabedError> {
        let (client, server, _) = build_system()?;
        // Malformed SQL -> Parse.
        assert!(matches!(
            run(&client, &server, "SELECT FROM WHERE"),
            Err(SeabedError::Parse(_))
        ));
        // Unknown column -> Schema.
        assert!(matches!(
            run(&client, &server, "SELECT SUM(no_such_column) FROM sales"),
            Err(SeabedError::Schema(_))
        ));
        // Unsupported operation (filter on an ASHE measure) -> Translate.
        assert!(matches!(
            run(&client, &server, "SELECT COUNT(*) FROM sales WHERE revenue = 10"),
            Err(SeabedError::Translate(_))
        ));
        Ok(())
    }
}
