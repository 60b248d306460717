//! The query translator (§4.4, Table 2) — both directions of the rewrite.
//!
//! **Forward** ([`translate`]): the client's unmodified query is rewritten for
//! the encrypted schema. Constants are marked for encryption under the
//! appropriate scheme, aggregation operators become ASHE folds (`AVG` becomes
//! a sum and a count, `VARIANCE` becomes Σx², Σx and n), equality filters on
//! splayed dimensions are absorbed into the choice of splayed column, the
//! implicit row-ID column is preserved through subqueries, and group-by
//! queries may have their group count artificially inflated to use more
//! reducers (§4.5).
//!
//! **Inverse** ([`TranslatedQuery::finish_aggregates`]): the decrypted server
//! aggregates of one group become the values of the original `SELECT` list.
//! The plan's own [`ClientPostStep`]s are the program it runs, so `translate`
//! is the only code that knows how an aggregate function expands and the
//! inverse is the only code that knows how an expansion collapses — the proxy
//! in `seabed-core` decrypts words and calls it.
//!
//! The vocabularies the two sides of the wire must agree on are stated here
//! once as well: the physical column names ([`encnames`]), the filter classes
//! with their cost ranks and label tags ([`FilterClass`]) and the physical
//! columns an aggregate reads ([`ServerAggregate::input`]).
//!
//! Nothing in this crate touches a key: literals stay in plaintext inside the
//! [`TranslatedQuery`] and are encrypted by the proxy (which owns the keys)
//! just before the query ships to the server, and the inverse starts from
//! words the proxy has already decrypted.

use crate::ast::{AggregateFunction, CompareOp, Literal, Predicate, Query, SelectItem, TableRef};
use crate::planner::{EncryptionChoice, SchemaPlan};
use serde::{Deserialize, Serialize};

/// Naming scheme of the encrypted physical columns, in both directions
/// (logical → physical and back). Core's encryption module, server and proxy
/// use these helpers so that the translator and the data layout always agree.
pub mod encnames {
    /// The implicit row-identifier column every encrypted table carries.
    pub const ROW_ID: &str = "__rid";

    const DET_SUFFIX: &str = "__det";
    const OPE_SUFFIX: &str = "__ope";

    /// ASHE ciphertext column for a measure.
    pub fn ashe(column: &str) -> String {
        format!("{column}__ashe")
    }

    /// ASHE ciphertext column holding the client-side squared values.
    pub fn ashe_squares(column: &str) -> String {
        format!("{column}__ashe_sq")
    }

    /// Deterministic-encryption tag column for a dimension.
    pub fn det(column: &str) -> String {
        format!("{column}{DET_SUFFIX}")
    }

    /// The logical column a DET tag column encrypts — the name its key is
    /// derived under. A name without the suffix stands for itself.
    pub fn det_logical(physical: &str) -> &str {
        physical.strip_suffix(DET_SUFFIX).unwrap_or(physical)
    }

    /// Order-revealing-encryption column.
    pub fn ope(column: &str) -> String {
        format!("{column}{OPE_SUFFIX}")
    }

    /// The logical column an ORE column encrypts — the name its key is
    /// derived under. A name without the suffix stands for itself.
    pub fn ope_logical(physical: &str) -> &str {
        physical.strip_suffix(OPE_SUFFIX).unwrap_or(physical)
    }

    /// ASHE companion of an ORE column: row by row the same values, so the
    /// word at the row a MIN/MAX picks can be decrypted (an ORE ciphertext
    /// only compares).
    pub fn ope_value(column: &str) -> String {
        format!("{column}__ope_val")
    }

    /// Splayed measure column for a (dimension, frequent-value index) pair.
    pub fn splashe_measure(dimension: &str, measure: &str, value_index: usize) -> String {
        format!("{measure}__spl_{dimension}_{value_index}")
    }

    /// Splayed measure "others" column.
    pub fn splashe_measure_others(dimension: &str, measure: &str) -> String {
        format!("{measure}__spl_{dimension}_others")
    }

    /// Splayed count-indicator column for a (dimension, frequent-value index).
    pub fn splashe_indicator(dimension: &str, value_index: usize) -> String {
        format!("{dimension}__ind_{value_index}")
    }

    /// Splayed count-indicator "others" column.
    pub fn splashe_indicator_others(dimension: &str) -> String {
        format!("{dimension}__ind_others")
    }

    /// True for a splayed measure or indicator column.
    pub fn is_splayed(physical: &str) -> bool {
        physical.contains("__spl_") || physical.contains("__ind_")
    }
}

/// A filter the server evaluates per row.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServerFilter {
    /// Filter over a plaintext column.
    Plain(Predicate),
    /// Equality against a deterministic tag; the proxy substitutes
    /// `DET_k(value)` for `value` before sending.
    DetEquals {
        /// The encrypted column name (`*__det`).
        column: String,
        /// Plaintext literal, encrypted by the proxy.
        value: String,
    },
    /// Order comparison via ORE; the proxy substitutes `ORE_k(value)`.
    OpeCompare {
        /// The encrypted column name (`*__ope`).
        column: String,
        /// Comparison operator.
        op: CompareOp,
        /// Plaintext literal, encrypted by the proxy.
        value: u64,
    },
}

/// What kind of comparison a filter makes the server run per row. The one
/// table of the filter classes: class → evaluation-cost rank → label tag.
/// [`ServerFilter`] (the plan side) and `seabed-core`'s `PhysicalFilter` (the
/// execution side) each map onto it, so the order `EXPLAIN` shows is the order
/// the scan runs and a measured operator finds its plan node by label.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterClass {
    /// `u64` comparison against a plaintext integer column.
    PlainU64,
    /// String equality against a plaintext text column.
    PlainText,
    /// `u64` equality against a deterministic tag column.
    DetTag,
    /// ORE comparison against an order-encrypted column.
    Ore,
}

impl FilterClass {
    /// Relative evaluation cost. The vectorized scan evaluates cheap classes
    /// first so the shrinking selection spares the expensive ones most of
    /// their work: `u64` compares (plain and DET tags) are a load and a
    /// branch, string equality touches heap data, and an ORE comparison walks
    /// up to 64 PRF symbols per row.
    pub fn cost_rank(self) -> u8 {
        match self {
            FilterClass::PlainU64 | FilterClass::DetTag => 0,
            FilterClass::PlainText => 1,
            FilterClass::Ore => 2,
        }
    }

    /// The class tag operator labels and plan nodes carry.
    pub fn tag(self) -> &'static str {
        match self {
            FilterClass::PlainU64 => "plain",
            FilterClass::PlainText => "text",
            FilterClass::DetTag => "det",
            FilterClass::Ore => "ore",
        }
    }

    /// The operator label of a filter of this class over the *physical*
    /// column `column`: what a profiled scan records and what
    /// [`crate::PlanNode::operator_label`] matches. Never a literal, so
    /// labels cross the redacted observability surface unmodified.
    pub fn label(self, column: &str) -> String {
        format!("filter:{}:{column}", self.tag())
    }
}

impl ServerFilter {
    /// The filter's class — `None` for a plaintext predicate whose literal is
    /// still an unbound `?`: whether it compares integers or strings is only
    /// known once a literal is bound.
    pub fn class(&self) -> Option<FilterClass> {
        match self {
            ServerFilter::Plain(pred) => match pred.value {
                Literal::Integer(_) => Some(FilterClass::PlainU64),
                Literal::Text(_) => Some(FilterClass::PlainText),
                Literal::Param(_) => None,
            },
            ServerFilter::DetEquals { .. } => Some(FilterClass::DetTag),
            ServerFilter::OpeCompare { .. } => Some(FilterClass::Ore),
        }
    }

    /// The physical column the filter reads.
    pub fn column(&self) -> &str {
        match self {
            ServerFilter::Plain(pred) => &pred.column,
            ServerFilter::DetEquals { column, .. } | ServerFilter::OpeCompare { column, .. } => column,
        }
    }
}

/// An aggregate the server computes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServerAggregate {
    /// ASHE sum over an encrypted measure column.
    AsheSum {
        /// The encrypted column name (`*__ashe` or a splayed column).
        column: String,
    },
    /// Row count of the selection (derived from the ASHE ID list, so it is
    /// free once any ASHE aggregate runs; the server also supports it alone).
    CountRows,
    /// Minimum of an OPE column (server compares ciphertexts).
    OpeMin {
        /// The encrypted column name (`*__ope`).
        column: String,
    },
    /// Maximum of an OPE column.
    OpeMax {
        /// The encrypted column name (`*__ope`).
        column: String,
    },
}

/// The physical columns one [`ServerAggregate`] reads. Stated once: the
/// server resolves them against its table, prepare-time validation checks them
/// against the target's schema, and the proxy looks its decryption keys up
/// under the same names.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggregateInput<'a> {
    /// One `u64` word per selected row, added up: an ASHE (or splayed)
    /// ciphertext column — or a public integer column, whose sum needs no key.
    Words(&'a str),
    /// Nothing but the row identifiers of the selection.
    RowIds,
    /// MIN/MAX: the ORE column the server orders the rows by, and the ASHE
    /// companion column whose word at the winning row it returns.
    Extreme {
        /// The ORE ciphertext column (bytes).
        order: &'a str,
        /// The ASHE companion column ([`encnames::ope_value`], `u64` words).
        value: String,
        /// True for MAX, false for MIN.
        want_max: bool,
    },
}

impl ServerAggregate {
    /// The physical columns this aggregate reads.
    pub fn input(&self) -> AggregateInput<'_> {
        match self {
            ServerAggregate::AsheSum { column } => AggregateInput::Words(column),
            ServerAggregate::CountRows => AggregateInput::RowIds,
            ServerAggregate::OpeMin { column } | ServerAggregate::OpeMax { column } => AggregateInput::Extreme {
                order: column,
                value: encnames::ope_value(encnames::ope_logical(column)),
                want_max: matches!(self, ServerAggregate::OpeMax { .. }),
            },
        }
    }
}

/// Work the proxy performs on the decrypted partial results before returning
/// the final answer to the analyst. [`translate`] emits the steps,
/// [`TranslatedQuery::finish_aggregates`] executes them — once per result
/// group, on the group's decrypted server aggregates — and nothing else
/// interprets them (they travel in every plan frame, but the server side only
/// reads a plan's shape).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ClientPostStep {
    /// `result = aggregate[numerator] / aggregate[denominator]` (AVG; `0.0`
    /// over an empty selection).
    Divide {
        /// Index of the numerator in the server-aggregate list.
        numerator: usize,
        /// Index of the denominator in the server-aggregate list.
        denominator: usize,
    },
    /// Population variance from Σx², Σx and n (`0.0` over an empty selection).
    Variance {
        /// Index of Σx² in the server-aggregate list.
        sum_squares: usize,
        /// Index of Σx in the server-aggregate list.
        sum: usize,
        /// Index of the row count in the server-aggregate list.
        count: usize,
    },
    /// Square root of a previously computed variance (STDDEV): replaces that
    /// step's value in the result row.
    SqrtOfVariance {
        /// Index of the variance step in the client-post list.
        variance_step: usize,
    },
    /// Merge inflated group-by groups back together (strip the appended
    /// random suffix and re-aggregate at the proxy). A marker, not a per-group
    /// computation: the proxy folds the sub-groups *before* it decrypts,
    /// whenever [`TranslatedQuery::group_inflation`] is above one.
    MergeInflatedGroups,
}

/// Which of the paper's four support categories the query falls into
/// (Table 4 / Table 6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupportCategory {
    /// Fully evaluated on the server.
    #[default]
    ServerOnly,
    /// Needs client pre-processing at upload time (e.g. squared columns).
    ClientPreProcessing,
    /// Needs client post-processing of results.
    ClientPostProcessing,
    /// Needs an intermediate round-trip through the client.
    TwoRoundTrips,
}

/// How the group-by column is represented on the server.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GroupByColumn {
    /// Plaintext column name.
    pub column: String,
    /// Encrypted (or plaintext) physical column the server groups on.
    pub physical_column: String,
    /// Whether group keys arrive at the proxy deterministically encrypted and
    /// must be decrypted before being shown to the analyst.
    pub encrypted: bool,
}

pub use seabed_error::TranslateError;
use seabed_error::{SchemaError, SeabedError};

/// How a `?` placeholder's literal is consumed when it is bound: which
/// encryption the proxy applies before the filter ships to the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Binds the literal of a plaintext predicate verbatim (integer or text).
    Plain,
    /// Binds a DET equality: the proxy tags the literal under the column key.
    Det,
    /// Binds an ORE comparison: the literal must be an integer; the proxy
    /// encrypts it under the column's OPE key.
    Ope,
}

/// One `?` placeholder of a prepared statement: where it lands in the
/// translated filter list and how its literal is consumed at bind time.
/// `TranslatedQuery::params[i]` describes placeholder ordinal `i`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ParamSlot {
    /// Index into [`TranslatedQuery::filters`] this placeholder binds.
    pub filter_index: usize,
    /// The logical (plaintext) column name, for error messages.
    pub column: String,
    /// How the bound literal is consumed.
    pub kind: ParamKind,
}

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

/// The rewritten query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TranslatedQuery {
    /// The base table the server scans.
    pub base_table: String,
    /// Row filters evaluated on the server.
    pub filters: Vec<ServerFilter>,
    /// Aggregates computed on the server, in output order.
    pub aggregates: Vec<ServerAggregate>,
    /// Group-by columns (empty for global aggregates).
    pub group_by: Vec<GroupByColumn>,
    /// Group-inflation factor (`1` = disabled); when `> 1` the server appends
    /// `row_id % factor` to the group key and the proxy merges groups back.
    pub group_inflation: u32,
    /// Client-side post-processing steps, executed per result group by
    /// [`TranslatedQuery::finish_aggregates`]. A server aggregate no step
    /// reads is a result value as it stands; a step's value takes the place
    /// of the first aggregate it reads.
    pub client_post: Vec<ClientPostStep>,
    /// Always true when any ASHE aggregate is present: the physical plan must
    /// carry the row-ID column through subqueries (Table 2, row 1).
    pub preserve_row_ids: bool,
    /// The support category of the original query.
    pub category: SupportCategory,
    /// Unbound `?` placeholders, indexed by ordinal. Empty for fully-bound
    /// queries; non-empty queries must go through [`TranslatedQuery::bind`]
    /// before literals can be encrypted and the query executed.
    pub params: Vec<ParamSlot>,
}

impl TranslatedQuery {
    /// True when every placeholder has been bound (or none existed).
    pub fn is_bound(&self) -> bool {
        self.params.is_empty()
    }

    /// Binds `?` placeholders with literals, by ordinal, returning the bound
    /// plan. Fails with a typed [`SeabedError::Schema`] — never a server-side
    /// error — when the arity is wrong ([`SchemaError::ParamCount`]) or a
    /// literal's type does not fit its slot
    /// ([`SchemaError::TypeMismatch`], e.g. a text literal bound to an ORE
    /// comparison). The receiver is unchanged, so one prepared plan can be
    /// bound many times.
    pub fn bind(&self, params: &[Literal]) -> Result<TranslatedQuery, SeabedError> {
        if params.len() != self.params.len() {
            return Err(SchemaError::ParamCount {
                expected: self.params.len(),
                actual: params.len(),
            }
            .into());
        }
        let mut bound = self.clone();
        for (slot, literal) in self.params.iter().zip(params) {
            if literal.is_param() {
                return Err(SchemaError::TypeMismatch {
                    column: slot.column.clone(),
                    expected: "a literal".to_string(),
                    actual: "an unbound placeholder".to_string(),
                }
                .into());
            }
            let filter = bound.filters.get_mut(slot.filter_index).ok_or_else(|| {
                SeabedError::engine(format!(
                    "param slot for {} points at filter {} of {}",
                    slot.column,
                    slot.filter_index,
                    self.filters.len()
                ))
            })?;
            match (filter, slot.kind) {
                (ServerFilter::Plain(pred), ParamKind::Plain) => pred.value = literal.clone(),
                (ServerFilter::DetEquals { value, .. }, ParamKind::Det) => {
                    *value = match literal {
                        Literal::Text(s) => s.clone(),
                        Literal::Integer(v) => v.to_string(),
                        Literal::Param(_) => unreachable!("rejected above"),
                    };
                }
                (ServerFilter::OpeCompare { value, .. }, ParamKind::Ope) => {
                    *value = literal.as_u64().ok_or_else(|| SchemaError::TypeMismatch {
                        column: slot.column.clone(),
                        expected: "an integer literal".to_string(),
                        actual: "a text literal".to_string(),
                    })?;
                }
                (filter, kind) => {
                    return Err(SeabedError::engine(format!(
                        "param slot kind {kind:?} does not match filter {filter:?}"
                    )))
                }
            }
        }
        bound.params.clear();
        Ok(bound)
    }

    /// The inverse of the `SELECT`-list expansion: turns one group's
    /// decrypted server aggregates (`decrypted[i]` answers
    /// `self.aggregates[i]`) into the aggregate values of the original
    /// `SELECT` list, in `SELECT` order, appended to `row`.
    ///
    /// The plan is the program: every [`ClientPostStep`] is interpreted here
    /// and nowhere else. An aggregate no step reads passes through as an
    /// integer; a step's value takes the place of the first aggregate it
    /// reads and the other aggregates it reads yield nothing. A value list
    /// or a step that does not fit the plan is a typed
    /// [`SeabedError::Engine`], never a panic.
    pub fn finish_aggregates(&self, decrypted: &[u64], row: &mut Vec<ResultValue>) -> Result<(), SeabedError> {
        if decrypted.len() != self.aggregates.len() {
            return Err(SeabedError::engine(format!(
                "{} decrypted values for a plan of {} server aggregates",
                decrypted.len(),
                self.aggregates.len()
            )));
        }
        let malformed = |step: &ClientPostStep| SeabedError::engine(format!("{step:?} does not fit the plan"));
        // slots[i]: what server aggregate i contributes to the row.
        let mut slots: Vec<Option<ResultValue>> = decrypted.iter().map(|v| Some(ResultValue::UInt(*v))).collect();
        // A step's value takes the place of the first aggregate it read.
        fn place(slots: &mut [Option<ResultValue>], reads: &[usize], value: f64) -> Option<usize> {
            let first = reads.iter().copied().min()?;
            for &index in reads {
                slots[index] = None;
            }
            slots[first] = Some(ResultValue::Float(value));
            Some(first)
        }
        // placed[s]: the slot holding step s's value.
        let mut placed: Vec<Option<usize>> = Vec::with_capacity(self.client_post.len());
        for step in &self.client_post {
            let read = |index: &usize| decrypted.get(*index).map(|v| *v as f64).ok_or_else(|| malformed(step));
            placed.push(match step {
                ClientPostStep::Divide { numerator, denominator } => {
                    let (sum, n) = (read(numerator)?, read(denominator)?);
                    place(
                        &mut slots,
                        &[*numerator, *denominator],
                        if n == 0.0 { 0.0 } else { sum / n },
                    )
                }
                ClientPostStep::Variance {
                    sum_squares,
                    sum,
                    count,
                } => {
                    let (sum_sq, total, n) = (read(sum_squares)?, read(sum)?, read(count)?);
                    let variance = if n == 0.0 {
                        0.0
                    } else {
                        let mean = total / n;
                        sum_sq / n - mean * mean
                    };
                    place(&mut slots, &[*sum_squares, *sum, *count], variance)
                }
                ClientPostStep::SqrtOfVariance { variance_step } => {
                    let slot = placed.get(*variance_step).copied().flatten();
                    match slot.and_then(|slot| slots[slot].as_mut()) {
                        Some(ResultValue::Float(variance)) => *variance = variance.max(0.0).sqrt(),
                        _ => return Err(malformed(step)),
                    }
                    None
                }
                // The sub-groups were folded before decryption.
                ClientPostStep::MergeInflatedGroups => None,
            });
        }
        row.extend(slots.into_iter().flatten());
        Ok(())
    }

    /// Renders a human-readable description of the server-side plan, in the
    /// spirit of the "Seabed" rows of Table 2.
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("scan {}", self.base_table)];
        for f in &self.filters {
            match f {
                ServerFilter::Plain(p) => parts.push(format!("filter {} {} <plain>", p.column, p.op.symbol())),
                ServerFilter::DetEquals { column, .. } => parts.push(format!("filter {column} == DET(<const>)")),
                ServerFilter::OpeCompare { column, op, .. } => {
                    parts.push(format!("filter OPE.cmp({column}, EncOPE(<const>)) {}", op.symbol()))
                }
            }
        }
        if !self.group_by.is_empty() {
            let keys: Vec<&str> = self.group_by.iter().map(|g| g.physical_column.as_str()).collect();
            if self.group_inflation > 1 {
                parts.push(format!("groupBy({} + rid%{})", keys.join(", "), self.group_inflation));
            } else {
                parts.push(format!("groupBy({})", keys.join(", ")));
            }
        }
        for agg in &self.aggregates {
            match agg {
                ServerAggregate::AsheSum { column } => parts.push(format!("reduce ASHE({column})")),
                ServerAggregate::CountRows => parts.push("count ids".to_string()),
                ServerAggregate::OpeMin { column } => parts.push(format!("min OPE({column})")),
                ServerAggregate::OpeMax { column } => parts.push(format!("max OPE({column})")),
            }
        }
        parts.join(" -> ")
    }
}

/// Options influencing translation.
#[derive(Clone, Debug)]
pub struct TranslateOptions {
    /// Number of workers on the server, used by the group-inflation heuristic.
    pub workers: usize,
    /// Expected number of groups the query will produce (client-maintained
    /// state, §4.4); `None` disables group inflation.
    pub expected_groups: Option<usize>,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        TranslateOptions {
            workers: 100,
            expected_groups: None,
        }
    }
}

/// Translates a plaintext query against a schema plan.
pub fn translate(
    query: &Query,
    plan: &SchemaPlan,
    options: &TranslateOptions,
) -> Result<TranslatedQuery, TranslateError> {
    // Flatten a FROM-subquery: its predicates are merged into the outer
    // query's predicate list (the subquery projection is only narrowing
    // columns, which the encrypted plan does not care about; the row-ID column
    // is preserved implicitly).
    let mut predicates: Vec<Predicate> = Vec::new();
    let mut select = query.select.clone();
    let base_table = query.from.base_table().to_string();
    collect_predicates(query, &mut predicates);
    if let TableRef::Subquery(_, _) = &query.from {
        // Outer aggregates over subquery columns keep their names; nothing
        // else to do beyond predicate flattening.
        select = query.select.clone();
    }

    let mut filters = Vec::new();
    let mut splashe_filters: Vec<(String, String)> = Vec::new();
    // `?` placeholders, keyed by ordinal; sorted into `params` once the
    // filter list is final (subquery flattening visits predicates out of
    // source order, ordinals restore it).
    let mut param_slots: Vec<(usize, ParamSlot)> = Vec::new();
    let mut note_param =
        |predicates_value: &crate::ast::Literal, filter_index: usize, column: &str, kind: ParamKind| {
            if let crate::ast::Literal::Param(ordinal) = predicates_value {
                param_slots.push((
                    *ordinal,
                    ParamSlot {
                        filter_index,
                        column: column.to_string(),
                        kind,
                    },
                ));
            }
        };
    for pred in &predicates {
        let col_plan = plan
            .column(&pred.column)
            .ok_or_else(|| TranslateError::UnknownColumn(pred.column.clone()))?;
        match &col_plan.encryption {
            EncryptionChoice::Plaintext => {
                note_param(&pred.value, filters.len(), &pred.column, ParamKind::Plain);
                filters.push(ServerFilter::Plain(pred.clone()));
            }
            EncryptionChoice::Det => {
                if pred.op != CompareOp::Eq {
                    return Err(TranslateError::Unsupported(format!(
                        "only equality predicates are supported on DET column {}",
                        pred.column
                    )));
                }
                note_param(&pred.value, filters.len(), &pred.column, ParamKind::Det);
                filters.push(ServerFilter::DetEquals {
                    column: encnames::det(&pred.column),
                    // Placeholder predicates leave the literal empty until
                    // `TranslatedQuery::bind` fills it in.
                    value: if pred.value.is_param() {
                        String::new()
                    } else {
                        literal_text(pred)
                    },
                });
            }
            EncryptionChoice::Ope => {
                let value = if pred.value.is_param() {
                    note_param(&pred.value, filters.len(), &pred.column, ParamKind::Ope);
                    0
                } else {
                    pred.value.as_u64().ok_or_else(|| {
                        TranslateError::Unsupported(format!("OPE predicates need integer literals ({})", pred.column))
                    })?
                };
                filters.push(ServerFilter::OpeCompare {
                    column: encnames::ope(&pred.column),
                    op: pred.op,
                    value,
                });
            }
            EncryptionChoice::SplasheBasic { .. } => {
                if pred.op != CompareOp::Eq {
                    return Err(TranslateError::Unsupported(format!(
                        "SPLASHE column {} only supports equality predicates",
                        pred.column
                    )));
                }
                if pred.value.is_param() {
                    return Err(splashe_param_error(&pred.column));
                }
                // Basic SPLASHE absorbs the predicate entirely: the aggregate
                // reads the per-value splayed column.
                splashe_filters.push((pred.column.clone(), literal_text(pred)));
            }
            EncryptionChoice::SplasheEnhanced { plan: eplan } => {
                if pred.op != CompareOp::Eq {
                    return Err(TranslateError::Unsupported(format!(
                        "SPLASHE column {} only supports equality predicates",
                        pred.column
                    )));
                }
                if pred.value.is_param() {
                    return Err(splashe_param_error(&pred.column));
                }
                let value = literal_text(pred);
                // Frequent values read their dedicated column; infrequent
                // values aggregate the "others" column restricted to the rows
                // whose balanced DET tag matches (§3.4).
                if !eplan.frequent.contains(&value) {
                    filters.push(ServerFilter::DetEquals {
                        column: encnames::det(&pred.column),
                        value: value.clone(),
                    });
                }
                splashe_filters.push((pred.column.clone(), value));
            }
            EncryptionChoice::Ashe { .. } => {
                return Err(TranslateError::Unsupported(format!(
                    "column {} is ASHE-encrypted and cannot be filtered on",
                    pred.column
                )));
            }
        }
    }

    // A SPLASHE equality is answered by *which column* the server sums, and
    // only sums and counts have splayed columns: any other aggregate — and
    // any equality past the first, which `splashe_filters.first()` below
    // never reads — would silently cover rows the predicate excludes.
    if let Some((dimension, _)) = splashe_filters.get(1) {
        return Err(TranslateError::Unsupported(format!(
            "a second equality filter on a splayed column ({dimension}): one SPLASHE equality per query"
        )));
    }
    let reject_under_splashe = |func: &AggregateFunction, column: &str| match splashe_filters.first() {
        Some((dimension, _)) => Err(TranslateError::Unsupported(format!(
            "{}({column}) under an equality filter on the splayed column {dimension}: only SUM, COUNT and AVG \
             have splayed columns",
            func.name()
        ))),
        None => Ok(()),
    };

    // Aggregates.
    let mut aggregates = Vec::new();
    let mut client_post = Vec::new();
    let mut category = SupportCategory::ServerOnly;
    for item in &select {
        let SelectItem::Aggregate { func, column } = item else {
            continue;
        };
        match func {
            AggregateFunction::Sum => {
                aggregates.push(sum_aggregate(column, plan, &splashe_filters)?);
            }
            AggregateFunction::Count => {
                aggregates.push(count_aggregate(column, plan, &splashe_filters)?);
            }
            AggregateFunction::Avg => {
                let numerator = aggregates.len();
                aggregates.push(sum_aggregate(column, plan, &splashe_filters)?);
                let denominator = aggregates.len();
                aggregates.push(count_aggregate("*", plan, &splashe_filters)?);
                client_post.push(ClientPostStep::Divide { numerator, denominator });
                category = category.max_with(SupportCategory::ClientPostProcessing);
            }
            AggregateFunction::Min | AggregateFunction::Max => {
                let col_plan = plan
                    .column(column)
                    .ok_or_else(|| TranslateError::UnknownColumn(column.clone()))?;
                // The server picks the winning row by comparing ORE
                // ciphertexts and answers with the ASHE companion's word, so
                // nothing but an OPE column has the two physical columns a
                // MIN/MAX reads — not even a public one.
                if col_plan.encryption != EncryptionChoice::Ope {
                    return Err(TranslateError::Unsupported(format!(
                        "{}({column}): only OPE columns support MIN/MAX",
                        func.name()
                    )));
                }
                reject_under_splashe(func, column)?;
                let physical = encnames::ope(column);
                aggregates.push(if *func == AggregateFunction::Min {
                    ServerAggregate::OpeMin { column: physical }
                } else {
                    ServerAggregate::OpeMax { column: physical }
                });
            }
            AggregateFunction::Variance | AggregateFunction::Stddev => {
                let col_plan = plan
                    .column(column)
                    .ok_or_else(|| TranslateError::UnknownColumn(column.clone()))?;
                if !matches!(col_plan.encryption, EncryptionChoice::Ashe { with_squares: true }) {
                    return Err(TranslateError::Unsupported(format!(
                        "variance over {column} requires an ASHE column with client-side squares"
                    )));
                }
                reject_under_splashe(func, column)?;
                let sum_squares = aggregates.len();
                aggregates.push(ServerAggregate::AsheSum {
                    column: encnames::ashe_squares(column),
                });
                let sum = aggregates.len();
                aggregates.push(ServerAggregate::AsheSum {
                    column: encnames::ashe(column),
                });
                let count = aggregates.len();
                aggregates.push(ServerAggregate::CountRows);
                let variance_step = client_post.len();
                client_post.push(ClientPostStep::Variance {
                    sum_squares,
                    sum,
                    count,
                });
                if *func == AggregateFunction::Stddev {
                    client_post.push(ClientPostStep::SqrtOfVariance { variance_step });
                }
                category = category.max_with(SupportCategory::ClientPreProcessing);
            }
        }
    }

    // Group-by columns.
    let mut group_by = Vec::new();
    for column in &query.group_by {
        let col_plan = plan
            .column(column)
            .ok_or_else(|| TranslateError::UnknownColumn(column.clone()))?;
        let (physical, encrypted) = match &col_plan.encryption {
            EncryptionChoice::Plaintext => (column.clone(), false),
            EncryptionChoice::Det => (encnames::det(column), true),
            EncryptionChoice::Ope => {
                return Err(TranslateError::Unsupported(format!(
                    "GROUP BY over the OPE column {column} is not supported; the planner assigns DET to group-by dimensions"
                )));
            }
            EncryptionChoice::SplasheBasic { .. } | EncryptionChoice::SplasheEnhanced { .. } => {
                return Err(TranslateError::Unsupported(format!(
                    "GROUP BY over splayed column {column} must be expressed as one query per value"
                )));
            }
            EncryptionChoice::Ashe { .. } => {
                return Err(TranslateError::Unsupported(format!(
                    "cannot GROUP BY the ASHE-encrypted column {column}"
                )));
            }
        };
        group_by.push(GroupByColumn {
            column: column.clone(),
            physical_column: physical,
            encrypted,
        });
    }

    // Group-inflation heuristic (§4.5): inflate when fewer groups than workers
    // are expected.
    let mut group_inflation = 1u32;
    if !group_by.is_empty() {
        if let Some(expected) = options.expected_groups {
            if expected > 0 && expected < options.workers {
                group_inflation = (options.workers / expected).max(1) as u32;
                client_post.push(ClientPostStep::MergeInflatedGroups);
            }
        }
    }

    let preserve_row_ids = aggregates
        .iter()
        .any(|a| matches!(a, ServerAggregate::AsheSum { .. } | ServerAggregate::CountRows));

    // Order placeholder slots by source ordinal so `bind(&[p0, p1, ...])`
    // matches the `?`s left to right, and reject a malformed AST whose
    // ordinals are not exactly 0..n (hand-built queries; the parser always
    // numbers them correctly).
    param_slots.sort_by_key(|(ordinal, _)| *ordinal);
    for (expected, (ordinal, slot)) in param_slots.iter().enumerate() {
        if *ordinal != expected {
            return Err(TranslateError::Unsupported(format!(
                "placeholder ordinals are not contiguous: expected ?{expected}, found ?{ordinal} on column {}",
                slot.column
            )));
        }
    }
    let params = param_slots.into_iter().map(|(_, slot)| slot).collect();

    Ok(TranslatedQuery {
        base_table,
        filters,
        aggregates,
        group_by,
        group_inflation,
        client_post,
        preserve_row_ids,
        category,
        params,
    })
}

/// The typed rejection for a `?` on a splayed (SPLASHE) dimension: the bound
/// value decides *which physical column* the plan reads, so the plan shape
/// cannot be fixed at prepare time. Reported at prepare, never server-side.
fn splashe_param_error(column: &str) -> TranslateError {
    TranslateError::Unsupported(format!(
        "placeholder on SPLASHE column {column}: the bound value selects the splayed \
         physical column, so the literal must be inline in the SQL"
    ))
}

impl SupportCategory {
    fn rank(&self) -> u8 {
        match self {
            SupportCategory::ServerOnly => 0,
            SupportCategory::ClientPreProcessing => 1,
            SupportCategory::ClientPostProcessing => 2,
            SupportCategory::TwoRoundTrips => 3,
        }
    }

    /// Returns the "harder" of two categories.
    pub fn max_with(self, other: SupportCategory) -> SupportCategory {
        if other.rank() > self.rank() {
            other
        } else {
            self
        }
    }
}

fn literal_text(pred: &Predicate) -> String {
    match &pred.value {
        crate::ast::Literal::Text(s) => s.clone(),
        crate::ast::Literal::Integer(v) => v.to_string(),
        // Callers check `is_param()` first; an unbound placeholder has no
        // text image.
        crate::ast::Literal::Param(_) => String::new(),
    }
}

fn collect_predicates(query: &Query, out: &mut Vec<Predicate>) {
    out.extend(query.predicates.iter().cloned());
    if let TableRef::Subquery(inner, _) = &query.from {
        collect_predicates(inner, out);
    }
}

fn sum_aggregate(
    column: &str,
    plan: &SchemaPlan,
    splashe_filters: &[(String, String)],
) -> Result<ServerAggregate, TranslateError> {
    let col_plan = plan
        .column(column)
        .ok_or_else(|| TranslateError::UnknownColumn(column.to_string()))?;
    match &col_plan.encryption {
        // A public column has no splayed copies.
        EncryptionChoice::Plaintext => match splashe_filters.first() {
            Some((dimension, _)) => Err(TranslateError::Unsupported(format!(
                "SUM({column}) over a public column under an equality filter on the splayed column {dimension}"
            ))),
            None => Ok(ServerAggregate::AsheSum {
                column: column.to_string(),
            }),
        },
        EncryptionChoice::Ashe { .. } => {
            // If a SPLASHE filter is active, the measure must be read from the
            // splayed column for the filtered value.
            if let Some((dimension, value)) = splashe_filters.first() {
                if let Some(dim_plan) = plan.column(dimension) {
                    return Ok(ServerAggregate::AsheSum {
                        column: splayed_measure_column(dim_plan, dimension, column, value)?,
                    });
                }
            }
            Ok(ServerAggregate::AsheSum {
                column: encnames::ashe(column),
            })
        }
        other => Err(TranslateError::Unsupported(format!(
            "SUM({column}) over a column encrypted with {other:?}"
        ))),
    }
}

fn count_aggregate(
    column: &str,
    plan: &SchemaPlan,
    splashe_filters: &[(String, String)],
) -> Result<ServerAggregate, TranslateError> {
    // COUNT with a SPLASHE equality filter sums the indicator column so that
    // nothing about the predicate value leaks; otherwise it is a row count of
    // the selection.
    if let Some((dimension, value)) = splashe_filters.first() {
        if let Some(dim_plan) = plan.column(dimension) {
            return Ok(ServerAggregate::AsheSum {
                column: splayed_indicator_column(dim_plan, dimension, value)?,
            });
        }
    }
    let _ = column;
    Ok(ServerAggregate::CountRows)
}

fn splayed_measure_column(
    dim_plan: &crate::planner::ColumnPlan,
    dimension: &str,
    measure: &str,
    value: &str,
) -> Result<String, TranslateError> {
    match &dim_plan.encryption {
        EncryptionChoice::SplasheBasic { domain } => {
            let idx = domain
                .iter()
                .position(|v| v == value)
                .ok_or_else(|| TranslateError::Unsupported(format!("value {value} not in domain of {dimension}")))?;
            Ok(encnames::splashe_measure(dimension, measure, idx))
        }
        EncryptionChoice::SplasheEnhanced { plan } => {
            if let Some(idx) = plan.frequent.iter().position(|v| v == value) {
                Ok(encnames::splashe_measure(dimension, measure, idx))
            } else {
                Ok(encnames::splashe_measure_others(dimension, measure))
            }
        }
        other => Err(TranslateError::Unsupported(format!(
            "column {dimension} is not splayed ({other:?})"
        ))),
    }
}

fn splayed_indicator_column(
    dim_plan: &crate::planner::ColumnPlan,
    dimension: &str,
    value: &str,
) -> Result<String, TranslateError> {
    match &dim_plan.encryption {
        EncryptionChoice::SplasheBasic { domain } => {
            let idx = domain
                .iter()
                .position(|v| v == value)
                .ok_or_else(|| TranslateError::Unsupported(format!("value {value} not in domain of {dimension}")))?;
            Ok(encnames::splashe_indicator(dimension, idx))
        }
        EncryptionChoice::SplasheEnhanced { plan } => {
            if let Some(idx) = plan.frequent.iter().position(|v| v == value) {
                Ok(encnames::splashe_indicator(dimension, idx))
            } else {
                Ok(encnames::splashe_indicator_others(dimension))
            }
        }
        other => Err(TranslateError::Unsupported(format!(
            "column {dimension} is not splayed ({other:?})"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::planner::{plan_schema, ColumnSpec, PlannerConfig};
    use seabed_error::SeabedError;

    fn sample_plan() -> Result<SchemaPlan, SeabedError> {
        let columns = vec![
            ColumnSpec::sensitive_with_distribution(
                "country",
                vec![
                    ("USA".to_string(), 900),
                    ("Canada".to_string(), 800),
                    ("India".to_string(), 20),
                    ("Chile".to_string(), 10),
                ],
            ),
            ColumnSpec::sensitive("salary"),
            ColumnSpec::sensitive("bonus"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::sensitive("dept"),
            ColumnSpec::public("public_flag"),
        ];
        let mut queries = Vec::new();
        for sql in [
            "SELECT SUM(salary) FROM emp WHERE country = 'USA'",
            "SELECT COUNT(*) FROM emp WHERE country = 'India'",
            "SELECT dept, SUM(salary) FROM emp GROUP BY dept",
            "SELECT AVG(salary) FROM emp WHERE ts >= 100",
            "SELECT VARIANCE(bonus) FROM emp",
            "SELECT SUM(salary) FROM emp WHERE public_flag = 1",
        ] {
            queries.push(parse(sql)?);
        }
        // dept has no distribution -> DET; country -> enhanced SPLASHE; ts -> OPE.
        Ok(plan_schema(&columns, &queries, &PlannerConfig::default()))
    }

    #[test]
    fn ashe_sum_with_ope_filter() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(salary) FROM emp WHERE ts >= 100")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(
            t.aggregates,
            vec![ServerAggregate::AsheSum {
                column: "salary__ashe".into()
            }]
        );
        assert_eq!(
            t.filters,
            vec![ServerFilter::OpeCompare {
                column: "ts__ope".into(),
                op: CompareOp::GtEq,
                value: 100
            }]
        );
        assert!(t.preserve_row_ids);
        assert_eq!(t.category, SupportCategory::ServerOnly);
        Ok(())
    }

    #[test]
    fn splashe_filter_selects_splayed_column() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        // Frequent value -> dedicated column.
        let q = parse("SELECT SUM(salary) FROM emp WHERE country = 'USA'")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.filters, vec![], "SPLASHE absorbs the equality filter");
        assert_eq!(
            t.aggregates,
            vec![ServerAggregate::AsheSum {
                column: "salary__spl_country_0".into()
            }]
        );
        // Infrequent value -> others column plus a DET filter is NOT used for
        // the sum (it reads the others column); counts use the indicator.
        let q2 = parse("SELECT SUM(salary) FROM emp WHERE country = 'India'")?;
        let t2 = translate(&q2, &plan, &TranslateOptions::default())?;
        assert_eq!(
            t2.aggregates,
            vec![ServerAggregate::AsheSum {
                column: "salary__spl_country_others".into()
            }]
        );
        Ok(())
    }

    #[test]
    fn table2_splashe_count_example() -> Result<(), SeabedError> {
        // SELECT count(*) FROM table WHERE a = 10 -> sum of the splayed
        // indicator column (Table 2, second row).
        let columns = vec![
            ColumnSpec::sensitive_with_distribution(
                "a",
                vec![("10".to_string(), 100), ("20".to_string(), 5), ("30".to_string(), 5)],
            ),
            ColumnSpec::sensitive("b"),
        ];
        let queries = vec![parse("SELECT COUNT(*) FROM t WHERE a = 10")?];
        let plan = plan_schema(&columns, &queries, &PlannerConfig::default());
        let t = translate(&queries[0], &plan, &TranslateOptions::default())?;
        assert!(t.filters.is_empty());
        assert_eq!(t.aggregates.len(), 1);
        assert!(
            matches!(&t.aggregates[0], ServerAggregate::AsheSum { column } if column.starts_with("a__ind_")),
            "expected indicator sum, got {:?}",
            t.aggregates[0]
        );
        Ok(())
    }

    #[test]
    fn subquery_predicates_are_flattened_and_ids_preserved() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(tmp.salary) FROM (SELECT salary FROM emp WHERE ts > 10) tmp")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.base_table, "emp");
        assert_eq!(t.filters.len(), 1);
        assert!(
            t.preserve_row_ids,
            "Table 2 row 1: the ID column must survive the subquery"
        );
        Ok(())
    }

    #[test]
    fn avg_splits_into_sum_count_and_division() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT AVG(salary) FROM emp")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.aggregates.len(), 2);
        assert_eq!(
            t.client_post,
            vec![ClientPostStep::Divide {
                numerator: 0,
                denominator: 1
            }]
        );
        Ok(())
    }

    #[test]
    fn variance_uses_precomputed_squares() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT VARIANCE(bonus) FROM emp")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.aggregates.len(), 3);
        assert!(matches!(t.aggregates[0], ServerAggregate::AsheSum { ref column } if column == "bonus__ashe_sq"));
        assert_eq!(t.category, SupportCategory::ClientPreProcessing);
        // Variance over a column without squares is rejected.
        let bad = parse("SELECT VARIANCE(salary) FROM emp")?;
        assert!(translate(&bad, &plan, &TranslateOptions::default()).is_err());
        Ok(())
    }

    #[test]
    fn group_by_on_det_column_with_inflation() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT dept, SUM(salary) FROM emp GROUP BY dept")?;
        let opts = TranslateOptions {
            workers: 100,
            expected_groups: Some(10),
        };
        let t = translate(&q, &plan, &opts)?;
        assert_eq!(t.group_by.len(), 1);
        assert_eq!(t.group_by[0].physical_column, "dept__det");
        assert!(t.group_by[0].encrypted);
        assert_eq!(t.group_inflation, 10, "10 groups on 100 workers -> 10x inflation");
        assert!(t.client_post.contains(&ClientPostStep::MergeInflatedGroups));
        assert!(t.describe().contains("rid%10"));

        // Without the expected-group hint inflation is off.
        let t2 = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t2.group_inflation, 1);
        Ok(())
    }

    #[test]
    fn plaintext_columns_pass_through() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(salary) FROM emp WHERE public_flag = 1")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert!(matches!(t.filters[0], ServerFilter::Plain(_)));
        Ok(())
    }

    #[test]
    fn unsupported_operations_are_rejected() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        // Range predicate over a SPLASHE column.
        let q = parse("SELECT SUM(salary) FROM emp WHERE country > 'USA'")?;
        assert!(translate(&q, &plan, &TranslateOptions::default()).is_err());
        // Filtering on an ASHE measure.
        let q2 = parse("SELECT COUNT(*) FROM emp WHERE salary = 100")?;
        assert!(translate(&q2, &plan, &TranslateOptions::default()).is_err());
        // Unknown column.
        let q3 = parse("SELECT SUM(unknown_col) FROM emp")?;
        assert!(matches!(
            translate(&q3, &plan, &TranslateOptions::default()),
            Err(TranslateError::UnknownColumn(_))
        ));
        // Group-by over an ASHE measure.
        let q4 = parse("SELECT salary, COUNT(*) FROM emp GROUP BY salary")?;
        assert!(translate(&q4, &plan, &TranslateOptions::default()).is_err());
        Ok(())
    }

    #[test]
    fn min_max_require_ope_or_plaintext() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT MIN(ts) FROM emp")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(
            t.aggregates,
            vec![ServerAggregate::OpeMin {
                column: "ts__ope".into()
            }]
        );
        let q2 = parse("SELECT MAX(salary) FROM emp")?;
        assert!(translate(&q2, &plan, &TranslateOptions::default()).is_err());
        Ok(())
    }

    #[test]
    fn placeholders_translate_to_param_slots() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        // dept is DET, ts is OPE, public_flag is plaintext.
        let q = parse("SELECT SUM(salary) FROM emp WHERE dept = ? AND ts >= ? AND public_flag = ?")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.params.len(), 3);
        assert!(!t.is_bound());
        assert_eq!(t.params[0].kind, ParamKind::Det);
        assert_eq!(t.params[0].column, "dept");
        assert_eq!(t.params[1].kind, ParamKind::Ope);
        assert_eq!(t.params[2].kind, ParamKind::Plain);
        // Unbound image: DET literal empty, OPE literal zero, Plain keeps the
        // placeholder.
        assert!(matches!(&t.filters[t.params[0].filter_index],
            ServerFilter::DetEquals { value, .. } if value.is_empty()));
        assert!(matches!(
            &t.filters[t.params[1].filter_index],
            ServerFilter::OpeCompare { value: 0, .. }
        ));
        assert!(matches!(&t.filters[t.params[2].filter_index],
            ServerFilter::Plain(p) if p.value.is_param()));
        Ok(())
    }

    #[test]
    fn bind_substitutes_literals_by_ordinal() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(salary) FROM emp WHERE dept = ? AND ts >= ?")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        let bound = t.bind(&[Literal::Text("eng".to_string()), Literal::Integer(100)])?;
        assert!(bound.is_bound());
        // The bound image is identical to translating the literal SQL.
        let inline = parse("SELECT SUM(salary) FROM emp WHERE dept = 'eng' AND ts >= 100")?;
        let expected = translate(&inline, &plan, &TranslateOptions::default())?;
        assert_eq!(bound, expected);
        // The prepared plan is reusable: a second bind sees clean slots.
        let again = t.bind(&[Literal::Text("ops".to_string()), Literal::Integer(7)])?;
        assert!(matches!(&again.filters[0], ServerFilter::DetEquals { value, .. } if value == "ops"));
        Ok(())
    }

    #[test]
    fn bind_rejects_wrong_arity_and_types() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(salary) FROM emp WHERE ts >= ?")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        // Unbound and over-bound are typed Schema errors at bind time.
        assert!(matches!(
            t.bind(&[]),
            Err(SeabedError::Schema(seabed_error::SchemaError::ParamCount {
                expected: 1,
                actual: 0
            }))
        ));
        assert!(matches!(
            t.bind(&[Literal::Integer(1), Literal::Integer(2)]),
            Err(SeabedError::Schema(seabed_error::SchemaError::ParamCount { .. }))
        ));
        // A text literal cannot bind an ORE comparison.
        assert!(matches!(
            t.bind(&[Literal::Text("ten".to_string())]),
            Err(SeabedError::Schema(seabed_error::SchemaError::TypeMismatch { .. }))
        ));
        // Binding a placeholder with a placeholder is rejected.
        assert!(t.bind(&[Literal::Param(0)]).is_err());
        Ok(())
    }

    #[test]
    fn placeholder_on_splashe_column_is_rejected_at_prepare() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        // country is enhanced SPLASHE: the bound value selects the physical
        // column, so a placeholder cannot be planned.
        let q = parse("SELECT SUM(salary) FROM emp WHERE country = ?")?;
        let outcome = translate(&q, &plan, &TranslateOptions::default());
        assert!(
            matches!(&outcome, Err(TranslateError::Unsupported(msg)) if msg.contains("SPLASHE")),
            "{outcome:?}"
        );
        Ok(())
    }

    #[test]
    fn non_contiguous_hand_built_ordinals_are_rejected() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let mut q = parse("SELECT SUM(salary) FROM emp WHERE ts >= ?")?;
        // Hand-corrupt the ordinal; the parser never produces this.
        q.predicates[0].value = Literal::Param(3);
        assert!(translate(&q, &plan, &TranslateOptions::default()).is_err());
        Ok(())
    }

    fn finished(t: &TranslatedQuery, decrypted: &[u64]) -> Result<Vec<ResultValue>, SeabedError> {
        let mut row = Vec::new();
        t.finish_aggregates(decrypted, &mut row)?;
        Ok(row)
    }

    #[test]
    fn the_inverse_rebuilds_the_select_list_from_decrypted_aggregates() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse(
            "SELECT SUM(salary), AVG(salary), MIN(ts), VARIANCE(bonus), STDDEV(bonus), COUNT(*), STDDEV(bonus) FROM emp",
        )?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(t.aggregates.len(), 1 + 2 + 1 + 3 + 3 + 1 + 3);
        // bonus = {1, 2, 3, 6}: Σx² = 50, Σx = 12, n = 4, variance 3.5.
        let decrypted = [100, 90, 4, 7, 50, 12, 4, 50, 12, 4, 4, 50, 12, 4];
        assert_eq!(
            finished(&t, &decrypted)?,
            vec![
                ResultValue::UInt(100),
                ResultValue::Float(22.5),
                ResultValue::UInt(7),
                ResultValue::Float(3.5),
                ResultValue::Float(3.5f64.sqrt()),
                ResultValue::UInt(4),
                ResultValue::Float(3.5f64.sqrt()),
            ]
        );
        // Over an empty selection every value is zero, whatever its type.
        let empty = finished(&t, &[0; 14])?;
        assert_eq!(empty.len(), 7);
        assert!(empty.iter().all(|v| v.as_f64() == 0.0), "{empty:?}");
        // An existing row is appended to, not replaced.
        let mut row = vec![ResultValue::Text("eng".into())];
        t.finish_aggregates(&decrypted, &mut row)?;
        assert_eq!(row.len(), 8);
        assert_eq!(row[0], ResultValue::Text("eng".into()));
        Ok(())
    }

    /// The plan is the program: the inverse reads the indices the steps
    /// carry, so a plan that lists AVG's count before its sum finishes to the
    /// same row — nothing is paired up by position or by convention.
    #[test]
    fn the_inverse_follows_the_plans_indices() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT COUNT(*), AVG(salary), SUM(salary) FROM emp")?;
        let mut t = translate(&q, &plan, &TranslateOptions::default())?;
        assert_eq!(
            finished(&t, &[4, 90, 6, 100])?,
            vec![ResultValue::UInt(4), ResultValue::Float(15.0), ResultValue::UInt(100)]
        );
        t.aggregates.swap(1, 2);
        t.client_post = vec![ClientPostStep::Divide {
            numerator: 2,
            denominator: 1,
        }];
        assert_eq!(
            finished(&t, &[4, 6, 90, 100])?,
            vec![ResultValue::UInt(4), ResultValue::Float(15.0), ResultValue::UInt(100)]
        );
        Ok(())
    }

    #[test]
    fn values_or_steps_that_do_not_fit_the_plan_are_typed_errors() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT STDDEV(bonus) FROM emp")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        // Too few and too many values.
        for decrypted in [&[50, 12][..], &[50, 12, 4, 9][..]] {
            assert!(matches!(finished(&t, decrypted), Err(SeabedError::Engine(_))));
        }
        // A step reading past the aggregate list, and a square root of a
        // step that is not a variance.
        for bad in [
            ClientPostStep::Divide {
                numerator: 0,
                denominator: 3,
            },
            ClientPostStep::SqrtOfVariance { variance_step: 1 },
            ClientPostStep::SqrtOfVariance { variance_step: 7 },
        ] {
            let mut forged = t.clone();
            forged.client_post.push(bad);
            let outcome = finished(&forged, &[50, 12, 4]);
            assert!(matches!(outcome, Err(SeabedError::Engine(_))), "{outcome:?}");
        }
        Ok(())
    }

    #[test]
    fn filter_classes_and_aggregate_inputs_follow_the_physical_names() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q =
            parse("SELECT MAX(ts) FROM emp WHERE dept = 'eng' AND ts >= 7 AND public_flag = ? AND public_flag = 1")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        let classes: Vec<_> = t.filters.iter().map(|f| (f.class(), f.column())).collect();
        assert_eq!(
            classes,
            vec![
                (Some(FilterClass::DetTag), "dept__det"),
                (Some(FilterClass::Ore), "ts__ope"),
                // An unbound plain `?` compares integers or strings depending
                // on the literal: no class yet.
                (None, "public_flag"),
                (Some(FilterClass::PlainU64), "public_flag"),
            ]
        );
        let bound = t.bind(&[Literal::Text("yes".into())])?;
        assert_eq!(bound.filters[2].class(), Some(FilterClass::PlainText));
        assert_eq!(FilterClass::Ore.label("ts__ope"), "filter:ore:ts__ope");
        assert!(FilterClass::DetTag.cost_rank() < FilterClass::PlainText.cost_rank());
        assert!(FilterClass::PlainText.cost_rank() < FilterClass::Ore.cost_rank());

        assert_eq!(
            t.aggregates[0].input(),
            AggregateInput::Extreme {
                order: "ts__ope",
                value: "ts__ope_val".to_string(),
                want_max: true
            }
        );
        assert_eq!(ServerAggregate::CountRows.input(), AggregateInput::RowIds);
        // Logical → physical → logical.
        assert_eq!(encnames::det_logical(&encnames::det("dept")), "dept");
        assert_eq!(encnames::ope_logical(&encnames::ope("ts")), "ts");
        assert_eq!(encnames::ope_logical("ts"), "ts");
        assert!(encnames::is_splayed(&encnames::splashe_measure("country", "salary", 0)));
        assert!(encnames::is_splayed(&encnames::splashe_indicator_others("country")));
        assert!(!encnames::is_splayed(&encnames::ashe("salary")));
        Ok(())
    }

    /// An equality on a splayed column is answered by *which column* the
    /// server sums; an aggregate without a splayed column would silently cover
    /// rows the predicate excludes, so it is refused.
    #[test]
    fn aggregates_without_splayed_columns_are_refused_under_a_splashe_equality() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        for sql in [
            "SELECT VARIANCE(bonus) FROM emp WHERE country = 'USA'",
            "SELECT STDDEV(bonus) FROM emp WHERE country = 'India'",
            "SELECT MIN(ts) FROM emp WHERE country = 'USA'",
            "SELECT SUM(public_flag) FROM emp WHERE country = 'USA'",
            "SELECT SUM(salary) FROM emp WHERE country = 'USA' AND country = 'India'",
        ] {
            let outcome = translate(&parse(sql)?, &plan, &TranslateOptions::default());
            assert!(
                matches!(&outcome, Err(TranslateError::Unsupported(msg)) if msg.contains("country")),
                "{sql}: {outcome:?}"
            );
        }
        // SUM, COUNT and AVG have splayed columns.
        let q = parse("SELECT SUM(salary), COUNT(*), AVG(salary) FROM emp WHERE country = 'USA' AND ts >= 3")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        assert!(t
            .aggregates
            .iter()
            .all(|a| matches!(a, ServerAggregate::AsheSum { column } if encnames::is_splayed(column))));
        Ok(())
    }

    #[test]
    fn describe_mentions_encrypted_operators() -> Result<(), SeabedError> {
        let plan = sample_plan()?;
        let q = parse("SELECT SUM(salary) FROM emp WHERE ts >= 100")?;
        let t = translate(&q, &plan, &TranslateOptions::default())?;
        let desc = t.describe();
        assert!(desc.contains("OPE.cmp"));
        assert!(desc.contains("reduce ASHE"));
        Ok(())
    }
}
