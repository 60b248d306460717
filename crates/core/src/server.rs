//! The Seabed server: executes translated (encrypted) queries over the
//! partitioned encrypted table.
//!
//! The server is untrusted: it only ever sees ciphertexts, deterministic tags,
//! ORE ciphertexts and plaintext non-sensitive columns. Its job per query is
//! the map/reduce pipeline of Table 2: scan partitions in parallel, apply the
//! encrypted filters, fold ASHE words and the selected rows' ID list
//! (optionally per group; one list per group, however many sums share it),
//! send each ID list in its smallest closed-form container (§4.5), and
//! concatenate partials at the driver.
//!
//! # What a partition returns and where it is folded
//!
//! Each partition scan narrows a [`SelectionVector`] with the filters, column
//! at a time ([`PhysicalFilter::refine`], cheapest class first:
//! [`FilterClass::cost_rank`]), then folds the selected rows into one *flat*
//! partial ([`FlatPartial`]): [`group_rows`] numbers the distinct group keys
//! it meets (any number of `UInt64` group columns) through a small
//! open-addressed index and counting-sorts the rows by that number, and from
//! each group's ascending slice come its maximal ID runs, its words and its
//! MIN/MAX candidates — four vectors per partition, however many groups, at
//! work proportional to rows and runs. A global aggregate is
//! the one-group case and builds its runs straight off the selection. The
//! driver folds the flat partials **in partition order** into the one
//! [`PartialGroups`] a query returns ([`fold_flat_partials`]): one key lookup
//! per (partition, group), runs appended in place into lists reserved once,
//! words added. [`PartialGroups`] stays the exchange type — what
//! [`SeabedServer::execute_partial`] answers, a `seabed-dist` worker ships
//! and the coordinator merges.
//!
//! [`seabed_engine::ExecMode::Scalar`] selects the reference scan instead:
//! per row, every filter is re-evaluated through [`PhysicalFilter::matches`]
//! and the row is pushed into a per-partition `HashMap` of groups, which then
//! feeds the same driver fold. The two are differentially tested against each
//! other and against a plaintext evaluation (`tests/differential_exec.rs`),
//! and must stay result-identical — including ID-list bytes and the
//! shuffle-byte accounting; the structural claim (a `GROUP BY` allocates per
//! partition and per result group, never per (partition, group)) is held by
//! `tests/wire_alloc_bound.rs`.
//!
//! Execution is panic-free by construction: every column reference in the
//! plan and in the filters is resolved and type-checked against the schema
//! *before* the scan starts, the physical partition layout is validated
//! against the schema once up front ([`Table::validate_layout`]), and the
//! scan loops use only total accessors. A malformed plan or a corrupt
//! partition therefore yields a [`SeabedError`] instead of taking the server
//! (or, via a poisoned response, the proxy) down.

use seabed_crypto::ore::{accepted_pairs, cell_words, first_difference, OreCiphertext, ORE_CELL_BYTES};
use seabed_encoding::{append_offset_runs, IdListEncoding, Run};
use seabed_engine::exec::{self, group_rows, GroupedRows, SelectionVector};
use seabed_engine::merge::{
    extreme_replaces, fold_flat_partials, ExtremeCandidate, FlatPartial, PartialAggregate, PartialGroup, PartialGroups,
};
use seabed_engine::{
    merge_operator_profiles, Cluster, ColumnType, ExecMode, ExecStats, OperatorProfile, Partition, ProfileSink, Schema,
    Table,
};
use seabed_error::{SchemaError, SeabedError};
use seabed_obs::UNTRACED;
use seabed_query::{AggregateInput, CompareOp, FilterClass, GroupByColumn, PlanNode, ServerAggregate, TranslatedQuery};
use std::collections::HashMap;
use std::time::Instant;

/// A filter with its literal already encrypted by the proxy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhysicalFilter {
    /// Comparison against a plaintext numeric column.
    PlainU64 {
        /// Column index in the encrypted schema.
        column: usize,
        /// Comparison operator.
        op: CompareOp,
        /// Literal value.
        value: u64,
    },
    /// Equality against a plaintext string column.
    PlainText {
        /// Column index in the encrypted schema.
        column: usize,
        /// Literal value.
        value: String,
    },
    /// Equality against a deterministic tag column.
    DetTag {
        /// Column index in the encrypted schema.
        column: usize,
        /// `DET_k(value)` tag computed by the proxy.
        tag: u64,
    },
    /// ORE comparison against an order-encrypted column.
    Ope {
        /// Column index in the encrypted schema.
        column: usize,
        /// Comparison operator.
        op: CompareOp,
        /// `ORE_k(value)` ciphertext computed by the proxy.
        ciphertext: OreCiphertext,
    },
}

/// Borrows a partition column as a typed slice, reporting a corrupt layout
/// (validated away before the scan, so effectively unreachable) as an engine
/// error instead of panicking.
macro_rules! typed_slice {
    ($partition:expr, $column:expr, $accessor:ident, $what:literal) => {
        $partition
            .column_get($column)
            .and_then(|c| c.$accessor())
            .ok_or_else(|| {
                SeabedError::engine(format!(
                    concat!("partition column {} is missing or not ", $what),
                    $column
                ))
            })
    };
}

/// An ORE filter resolved for a scan: the literal decoded to its two words
/// once, and the operator folded into the table of the first-difference
/// symbol pairs it accepts ([`accepted_pairs`]). A literal that is not one
/// cell wide accepts nothing — `PhysicalFilter::validate` refuses it before a
/// scan.
#[derive(Clone, Copy)]
struct OreTest {
    literal: [u64; 2],
    pairs: u16,
}

impl OreTest {
    fn new(op: CompareOp, ciphertext: &OreCiphertext) -> OreTest {
        match <&[u8; ORE_CELL_BYTES]>::try_from(ciphertext.symbols.as_slice()) {
            Ok(literal) => OreTest {
                literal: cell_words(literal),
                pairs: accepted_pairs(|ord| op.eval_ordering(ord)),
            },
            Err(_) => OreTest {
                literal: [0; 2],
                pairs: 0,
            },
        }
    }

    /// Whether a 16-byte cell satisfies the filter.
    #[inline]
    fn accepts(self, cell: &[u8; ORE_CELL_BYTES]) -> bool {
        self.pairs >> first_difference(cell_words(cell), self.literal) & 1 != 0
    }

    /// Whether a cell of any width satisfies the filter: one of another width
    /// (a corrupt cell) has no ordering against the literal and never does.
    #[inline]
    fn accepts_bytes(self, cell: &[u8]) -> bool {
        cell.try_into().is_ok_and(|cell| self.accepts(cell))
    }
}

/// Single source of truth for the per-variant filter predicates of the
/// vectorized kernels. The caller supplies two kernel templates — one driven
/// by a `u64` cell predicate (`pred`), one by a row-offset predicate
/// (`rpred`) — and the macro expands the variant/operator dispatch once, so
/// the dense-select and refine paths cannot diverge. Each expansion site
/// still monomorphizes every predicate into its own tight loop.
macro_rules! dispatch_filter {
    ($filter:expr, $partition:expr, |$col:ident, $pred:ident| $u64_kernel:expr, |$rpred:ident| $row_kernel:expr) => {
        match $filter {
            PhysicalFilter::PlainU64 { column, op, value } => {
                let $col = typed_slice!($partition, *column, u64_slice, "UInt64")?;
                let v = *value;
                match op {
                    CompareOp::Eq => {
                        let $pred = |cell: u64| cell == v;
                        $u64_kernel
                    }
                    CompareOp::NotEq => {
                        let $pred = |cell: u64| cell != v;
                        $u64_kernel
                    }
                    CompareOp::Lt => {
                        let $pred = |cell: u64| cell < v;
                        $u64_kernel
                    }
                    CompareOp::LtEq => {
                        let $pred = |cell: u64| cell <= v;
                        $u64_kernel
                    }
                    CompareOp::Gt => {
                        let $pred = |cell: u64| cell > v;
                        $u64_kernel
                    }
                    CompareOp::GtEq => {
                        let $pred = |cell: u64| cell >= v;
                        $u64_kernel
                    }
                }
            }
            PhysicalFilter::DetTag { column, tag } => {
                let $col = typed_slice!($partition, *column, u64_slice, "UInt64")?;
                let t = *tag;
                let $pred = |cell: u64| cell == t;
                $u64_kernel
            }
            PhysicalFilter::PlainText { column, value } => {
                let col = typed_slice!($partition, *column, str_slice, "Utf8")?;
                let $rpred = |row: usize| col.get(row).is_some_and(|cell| cell == value);
                $row_kernel
            }
            PhysicalFilter::Ope { column, op, ciphertext } => {
                let col = typed_slice!($partition, *column, bytes_column, "Bytes")?;
                let test = OreTest::new(*op, ciphertext);
                // The column's layout picks the cell accessor: a column of
                // 16-byte cells is read as arrays, a ragged one (forged
                // widths) cell by cell; both feed the same compare.
                match col.fixed_cells::<ORE_CELL_BYTES>() {
                    Some(cells) => {
                        let $rpred = |row: usize| cells.get(row).is_some_and(|cell| test.accepts(cell));
                        $row_kernel
                    }
                    None => {
                        let $rpred = |row: usize| col.get(row).is_some_and(|cell| test.accepts_bytes(cell));
                        $row_kernel
                    }
                }
            }
        }
    };
}

/// The physical type of the column a filter of `class` reads: the one rule
/// behind execute-time [`PhysicalFilter`] validation, prepare-time plan
/// validation and bind-time literal encryption, so the three cannot disagree.
pub(crate) fn filter_column_type(class: FilterClass) -> ColumnType {
    match class {
        FilterClass::PlainU64 | FilterClass::DetTag => ColumnType::UInt64,
        FilterClass::PlainText => ColumnType::Utf8,
        FilterClass::Ore => ColumnType::Bytes,
    }
}

/// Index of the schema column `name`, which must have the physical type
/// `expected` when one is given: an unknown column or a mismatch is a typed
/// [`SeabedError::Schema`].
pub(crate) fn require_column(schema: &Schema, name: &str, expected: Option<ColumnType>) -> Result<usize, SeabedError> {
    let index = schema
        .index_of(name)
        .ok_or_else(|| SeabedError::unknown_physical_column(name))?;
    let actual = schema.fields[index].ty;
    match expected {
        Some(expected) if actual != expected => Err(SchemaError::TypeMismatch {
            column: name.to_string(),
            expected: format!("{expected:?}"),
            actual: format!("{actual:?}"),
        }
        .into()),
        _ => Ok(index),
    }
}

/// The columns a plan's scan reads, resolved against `schema`: its group
/// keys, which must be u64-backed (a plaintext or DET-tag column), and its
/// aggregates' inputs. Execution and prepare-time validation both run this,
/// so a plan that prepares is a plan whose columns resolve at execute.
pub(crate) fn resolve_columns(
    schema: &Schema,
    query: &TranslatedQuery,
) -> Result<(Vec<usize>, Vec<ResolvedAggregate>), SeabedError> {
    let group_key = |g: &GroupByColumn| require_column(schema, &g.physical_column, Some(ColumnType::UInt64));
    let group_columns = query.group_by.iter().map(group_key).collect::<Result<_, _>>()?;
    let resolve = |agg| ResolvedAggregate::resolve(agg, schema);
    let aggregates = query.aggregates.iter().map(resolve).collect::<Result<_, _>>()?;
    Ok((group_columns, aggregates))
}

impl PhysicalFilter {
    /// The filter's class (cost rank, label tag, column type — see
    /// [`FilterClass`]) and the index of the column it reads.
    pub fn class_and_column(&self) -> (FilterClass, usize) {
        match self {
            PhysicalFilter::PlainU64 { column, .. } => (FilterClass::PlainU64, *column),
            PhysicalFilter::PlainText { column, .. } => (FilterClass::PlainText, *column),
            PhysicalFilter::DetTag { column, .. } => (FilterClass::DetTag, *column),
            PhysicalFilter::Ope { column, .. } => (FilterClass::Ore, *column),
        }
    }

    /// Checks that the filter's column exists with the physical type the
    /// filter reads, so the scan loop cannot fail, and that an ORE literal is
    /// one cell wide: a literal of any other width compares with no stored
    /// cell, and the query would answer "no rows" instead of failing.
    fn validate(&self, table: &Table) -> Result<(), SeabedError> {
        let (class, index) = self.class_and_column();
        let expected = filter_column_type(class);
        let field = table
            .schema
            .fields
            .get(index)
            .ok_or_else(|| SeabedError::engine(format!("filter column index {index} out of range")))?;
        if field.ty != expected {
            return Err(SeabedError::engine(format!(
                "filter column {} is {:?}, expected {expected:?}",
                field.name, field.ty
            )));
        }
        match self {
            PhysicalFilter::Ope { ciphertext, .. } if ciphertext.symbols.len() != ORE_CELL_BYTES => {
                Err(SeabedError::engine(format!(
                    "ORE literal for column {} is {} bytes wide, a cell is {ORE_CELL_BYTES}",
                    field.name,
                    ciphertext.symbols.len()
                )))
            }
            _ => Ok(()),
        }
    }

    /// Row predicate of the scalar path. Types were checked by
    /// `PhysicalFilter::validate`; a (structurally impossible) mismatch
    /// deselects the row instead of panicking.
    pub fn matches(&self, partition: &Partition, row: usize) -> bool {
        match self {
            PhysicalFilter::PlainU64 { column, op, value } => partition
                .column_get(*column)
                .and_then(|c| c.u64_get(row))
                .is_some_and(|cell| op.eval_u64(cell, *value)),
            PhysicalFilter::PlainText { column, value } => partition
                .column_get(*column)
                .and_then(|c| c.str_get(row))
                .is_some_and(|cell| cell == value),
            PhysicalFilter::DetTag { column, tag } => partition
                .column_get(*column)
                .and_then(|c| c.u64_get(row))
                .is_some_and(|cell| cell == *tag),
            PhysicalFilter::Ope { column, op, ciphertext } => partition
                .column_get(*column)
                .and_then(|c| c.bytes_get(row))
                .is_some_and(|cell| OreTest::new(*op, ciphertext).accepts_bytes(cell)),
        }
    }

    /// Vectorized filter kernel: shrinks `sel` to the selected rows that also
    /// satisfy this filter, reading the column as one contiguous slice. The
    /// comparison-operator dispatch happens once per partition, outside the
    /// row loop, so each arm monomorphizes into a tight scan.
    ///
    /// Equivalent to retaining the rows where [`PhysicalFilter::matches`]
    /// holds — `tests/filter_kernels.rs` pins that property per variant.
    pub fn refine(&self, partition: &Partition, sel: &mut SelectionVector) -> Result<(), SeabedError> {
        dispatch_filter!(self, partition, |col, pred| exec::refine_u64(sel, col, pred), |rpred| {
            exec::refine_rows(sel, rpred)
        });
        Ok(())
    }

    /// Dense first-filter kernel: builds the selection of an entire partition
    /// in one pass, without materialising an all-rows selection first. The
    /// vectorized scan uses this for the cheapest filter and
    /// [`PhysicalFilter::refine`] for the rest.
    pub fn select_dense(&self, partition: &Partition) -> Result<SelectionVector, SeabedError> {
        let n = partition.num_rows();
        Ok(dispatch_filter!(
            self,
            partition,
            |col, pred| exec::select_u64(col, pred),
            |rpred| exec::select_rows(n, rpred)
        ))
    }
}

/// What the server computes for one aggregate of one group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncryptedAggregate {
    /// An ASHE partial sum: the masked group element. The rows whose masks it
    /// carries are the group's ([`GroupResult::ids`]).
    AsheSum {
        /// Masked (wrapping) sum of the selected rows' ciphertext words.
        value: u64,
    },
    /// A row count (derived from the ID list; returned explicitly so count-only
    /// queries need no ASHE column).
    Count {
        /// Number of selected rows.
        rows: u64,
    },
    /// MIN/MAX result: the ASHE word of the winning row plus its identifier so
    /// the proxy can decrypt it.
    Extreme {
        /// ASHE ciphertext word of the companion value column at the winning row.
        value_word: u64,
        /// Row identifier of the winning row (`None` when no row matched).
        row_id: Option<u64>,
    },
}

impl EncryptedAggregate {
    /// Serialized size in bytes (what travels from driver to client), beside
    /// the group's ID list.
    pub fn byte_len(&self) -> usize {
        match self {
            EncryptedAggregate::AsheSum { .. } | EncryptedAggregate::Count { .. } => 8,
            EncryptedAggregate::Extreme { .. } => 16,
        }
    }
}

/// The identifiers of a result group's rows, as they travel to the proxy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupIds {
    /// Encoded ID list of the group's selected rows.
    pub id_list: Vec<u8>,
    /// The container of the ID list: the smallest for this list
    /// ([`seabed_encoding::smallest_encoding`]).
    pub encoding: IdListEncoding,
}

/// One group of the result (global aggregates use a single group with an empty
/// key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupResult {
    /// The group key as stored on the server (plaintext values or DET tags),
    /// one word per group-by column.
    pub key: Vec<u64>,
    /// The group's selected rows — once, whatever the number of ASHE sums
    /// over them: an ID list is a property of the row set, not of the column
    /// summed. `None` when no aggregate is an ASHE sum.
    pub ids: Option<GroupIds>,
    /// One aggregate per requested server aggregate.
    pub aggregates: Vec<EncryptedAggregate>,
}

impl GroupResult {
    /// Serialized size in bytes: the key words, the ID list once, and each
    /// aggregate's [`EncryptedAggregate::byte_len`].
    pub fn byte_len(&self) -> usize {
        self.key.len() * 8
            + self.ids.as_ref().map_or(0, |ids| ids.id_list.len())
            + self.aggregates.iter().map(EncryptedAggregate::byte_len).sum::<usize>()
    }
}

/// The server's response to one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerResponse {
    /// Result groups.
    pub groups: Vec<GroupResult>,
    /// What the server measured: its wall time and, when analyzed, its
    /// per-operator profiles.
    pub stats: ExecStats,
}

impl ServerResponse {
    /// Serialized size of the result groups: the sum of
    /// [`GroupResult::byte_len`], counted by whoever holds the groups.
    pub fn result_bytes(&self) -> usize {
        self.groups.iter().map(GroupResult::byte_len).sum()
    }
}

/// The Seabed server: an encrypted table plus a cluster to scan it with.
pub struct SeabedServer {
    table: Table,
    cluster: Cluster,
}

/// A logical aggregate with its physical column indices already resolved and
/// type-checked against the table schema. Building one is the only fallible
/// step; everything downstream (accumulate, merge, finish) is total.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ResolvedAggregate {
    Sum {
        column: usize,
    },
    Count,
    /// MIN or MAX: which one is the state's to know
    /// ([`PartialAggregate::Extreme`]).
    Extreme {
        ore_column: usize,
        value_column: usize,
    },
}

impl ResolvedAggregate {
    /// Resolves the columns `agg` reads ([`ServerAggregate::input`]) against
    /// `schema`, each with the physical type the scan reads it as. Prepare-time
    /// validation runs this very function, so a plan that prepares is a plan
    /// whose aggregates resolve at execute.
    pub(crate) fn resolve(agg: &ServerAggregate, schema: &Schema) -> Result<ResolvedAggregate, SeabedError> {
        Ok(match agg.input() {
            AggregateInput::Words(column) => ResolvedAggregate::Sum {
                column: require_column(schema, column, Some(ColumnType::UInt64))?,
            },
            AggregateInput::RowIds => ResolvedAggregate::Count,
            AggregateInput::Extreme { order, value, .. } => ResolvedAggregate::Extreme {
                ore_column: require_column(schema, order, Some(ColumnType::Bytes))?,
                value_column: require_column(schema, &value, Some(ColumnType::UInt64))?,
            },
        })
    }

    /// Folds one selected row into `state` (the row's identifier goes to the
    /// group, once: [`Fold::observe`]). The state vectors are always
    /// built from the same resolved-aggregate list this spec came from, so
    /// the kinds line up; a (structurally impossible) mismatch leaves the
    /// state unchanged rather than panicking.
    fn observe(&self, state: &mut PartialAggregate, partition: &Partition, row: usize) {
        match (*self, state) {
            (ResolvedAggregate::Sum { column }, PartialAggregate::Sum { value }) => {
                let cell = partition
                    .column_get(column)
                    .and_then(|c| c.u64_get(row))
                    .unwrap_or_default();
                *value = value.wrapping_add(cell);
            }
            (
                ResolvedAggregate::Extreme {
                    ore_column,
                    value_column,
                },
                PartialAggregate::Extreme { best, want_max },
            ) => {
                let Some(symbols) = partition.column_get(ore_column).and_then(|c| c.bytes_get(row)) else {
                    return;
                };
                // `extreme_replaces` is total and rejects corrupt-width cells
                // outright (exactly as the filter path treats such rows as
                // non-matching), so a corrupt cell can neither win nor become
                // an undisplaceable `best`. The candidate's symbols are only
                // cloned when it actually wins.
                if extreme_replaces(best.as_ref(), symbols, *want_max) {
                    let word = partition
                        .column_get(value_column)
                        .and_then(|c| c.u64_get(row))
                        .unwrap_or_default();
                    *best = Some(ExtremeCandidate {
                        ciphertext: OreCiphertext {
                            symbols: symbols.to_vec(),
                        },
                        value_word: word,
                        row_id: partition.row_id(row),
                    });
                }
            }
            _ => {}
        }
    }
}

/// What a partition scan folds its selected rows by and into: the query's
/// grouping and its aggregates, resolved once per query.
struct Fold<'a> {
    /// Group column indices (`UInt64`: plaintext values or DET tags) in the
    /// encrypted schema; none for a global aggregate.
    group_columns: &'a [usize],
    resolved: &'a [ResolvedAggregate],
    /// The group no row has been folded into yet.
    empty: PartialGroup,
    /// Whether any aggregate reads the group's ID set (a MIN/MAX-only scan
    /// collects no identifiers).
    collect_ids: bool,
}

impl Fold<'_> {
    /// Folds one selected row into `group`, the scalar path's way: its
    /// identifier once, then every aggregate. Rows arrive in ascending order
    /// on both scan paths, so the ID lists come out identical.
    fn observe(&self, group: &mut PartialGroup, partition: &Partition, row: usize) {
        if self.collect_ids {
            group.ids.push_ordered(partition.row_id(row));
        }
        for (spec, state) in self.resolved.iter().zip(group.aggregates.iter_mut()) {
            spec.observe(state, partition, row);
        }
    }
}

/// Finalizes one merged group into the client-facing one: the IDs are encoded
/// once, in their smallest container, if an ASHE sum needs them and counted
/// for the counts, and MIN/MAX candidates drop their ORE ciphertext, keeping
/// only the winning value word and row identifier.
fn finish_group(key: Vec<u64>, group: PartialGroup) -> GroupResult {
    let summed = group
        .aggregates
        .iter()
        .any(|state| matches!(state, PartialAggregate::Sum { .. }));
    let rows = group.ids.count();
    GroupResult {
        key,
        ids: summed.then(|| {
            let (encoding, size) = group.ids.smallest_encoding();
            let mut id_list = Vec::with_capacity(size);
            group.ids.append_encoded(encoding, size, &mut id_list);
            GroupIds { id_list, encoding }
        }),
        aggregates: group
            .aggregates
            .into_iter()
            .map(|state| match state {
                PartialAggregate::Sum { value } => EncryptedAggregate::AsheSum { value },
                PartialAggregate::Count => EncryptedAggregate::Count { rows },
                PartialAggregate::Extreme { best, .. } => EncryptedAggregate::Extreme {
                    value_word: best.as_ref().map_or(0, |candidate| candidate.value_word),
                    row_id: best.map(|candidate| candidate.row_id),
                },
            })
            .collect(),
    }
}

impl SeabedServer {
    /// Creates a server over an encrypted table.
    pub fn new(table: Table, cluster: Cluster) -> SeabedServer {
        SeabedServer { table, cluster }
    }

    /// The encrypted table (for storage accounting).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// The encrypted table's schema.
    pub fn schema(&self) -> &Schema {
        &self.table.schema
    }

    /// Executes a translated query whose literals have been encrypted into
    /// `filters` by the proxy.
    ///
    /// `query.aggregates` provides the logical aggregate list; `filters` must
    /// have one entry per `query.filters` entry. Every column reference is
    /// validated before the scan starts, so a plan that does not fit this
    /// table's schema yields `Err(SeabedError::Schema(..))` (or
    /// `Err(SeabedError::Engine(..))` for malformed filter indices) instead
    /// of a panic; a table whose partitions physically contradict the schema
    /// yields `Err(SeabedError::Schema(SchemaError::CorruptPartition { .. }))`
    /// instead of silently mis-grouping rows.
    pub fn execute(&self, query: &TranslatedQuery, filters: &[PhysicalFilter]) -> Result<ServerResponse, SeabedError> {
        self.execute_analyzed(query, filters, false)
    }

    /// [`SeabedServer::execute`] with per-operator profiling. With `analyze`
    /// set, every filter kernel and the aggregation pass record rows in,
    /// selection survivors, batches and nanoseconds into
    /// `response.stats.operators` (merged across partitions); with it unset
    /// this *is* `execute` — the scan threads a disabled [`ProfileSink`]
    /// through, which never reads the clock and never allocates.
    pub fn execute_analyzed(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
        analyze: bool,
    ) -> Result<ServerResponse, SeabedError> {
        let partial = self.execute_partial_analyzed(query, filters, analyze)?;
        let finalizing = Instant::now();
        let mut response = finalize_partials(query, partial.groups, partial.stats);
        response.stats.wall_time += finalizing.elapsed();
        Ok(response)
    }

    /// Executes a translated query but stops before finalization, returning
    /// the still-mergeable per-group partial states. This is the map side of
    /// the distributed pipeline: a `seabed-dist` worker answers shard queries
    /// with exactly this, the coordinator folds the shards' partials with
    /// [`seabed_engine::merge`], and [`finalize_partials`] turns the fold
    /// into a [`ServerResponse`] — the same two steps `execute` performs
    /// in-process, so distributed and single-server results are identical by
    /// construction.
    pub fn execute_partial(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
    ) -> Result<PartialResponse, SeabedError> {
        self.execute_partial_analyzed(query, filters, false)
    }

    /// [`SeabedServer::execute_partial`] with per-operator profiling: the map
    /// side of `EXPLAIN ANALYZE`. Each partition scan carries a
    /// [`ProfileSink`] (enabled only when `analyze` is set); the per-partition
    /// breakdowns are merged element-wise into
    /// `PartialResponse.stats.operators`, which then merges shard-wise at the
    /// coordinator through [`ExecStats::merge`].
    pub fn execute_partial_analyzed(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
        analyze: bool,
    ) -> Result<PartialResponse, SeabedError> {
        // The wall time runs from here through the driver's fold, not only
        // over the partition scans `Cluster::run` times.
        let started = Instant::now();
        // A degenerate cluster configuration (zero local threads) is rejected
        // before any scan starts.
        self.cluster.config.validate()?;

        self.table.validate_layout()?;
        for filter in filters {
            filter.validate(&self.table)?;
        }
        let (group_columns, resolved) = resolve_columns(&self.table.schema, query)?;

        let mode = self.cluster.config.exec_mode;
        let table = &self.table;

        // The vectorized path evaluates cheap filter classes first so the
        // shrinking selection spares the expensive ones; the sort is stable,
        // and conjunction order cannot change the result either way.
        let mut ordered: Vec<&PhysicalFilter> = filters.iter().collect();
        ordered.sort_by_key(|f| f.class_and_column().0.cost_rank());
        // Operator labels — a filter class plus the *physical* column name,
        // never a literal; `query::plan_node` matches measured operators back
        // onto structural plan nodes by them — are built once, outside the
        // per-partition closure, and only for an analyzed request: a disabled
        // `ProfileSink` never reads one.
        let filter_labels: Vec<String> = if analyze {
            ordered.iter().map(|f| filter_label(f, &self.table.schema)).collect()
        } else {
            Vec::new()
        };

        let empty = PartialGroup::new(query.aggregates.iter().map(empty_state_of).collect());
        let fold = Fold {
            group_columns: &group_columns,
            resolved: &resolved,
            collect_ids: empty.aggregates.iter().any(PartialAggregate::reads_ids),
            empty,
        };
        let (partials, mut stats) = self.cluster.run(table, |partition| {
            let mut sink = if analyze {
                ProfileSink::enabled()
            } else {
                ProfileSink::disabled()
            };
            let scanned = match mode {
                ExecMode::Scalar => scan_scalar(partition, filters, &fold, &mut sink),
                ExecMode::Vectorized => scan_vectorized(partition, &ordered, &filter_labels, &fold, &mut sink),
            };
            scanned.map(|partial| (partial, sink.into_operators()))
        });

        // Driver: fold the partitions' partials (propagating any partition
        // failure); per-partition operator profiles merge element-wise —
        // every partition records the same operator sequence, including
        // zeroed slots past an empty selection.
        let mut flats: Vec<FlatPartial> = Vec::with_capacity(partials.len());
        let mut operators: Vec<OperatorProfile> = Vec::new();
        for partial in partials {
            let (flat, partition_ops) = partial?;
            flats.push(flat);
            operators = merge_operator_profiles(&operators, &partition_ops);
        }
        stats.operators = operators;
        let groups = fold_flat_partials(flats, fold.group_columns.len(), resolved.len());
        stats.wall_time = started.elapsed();
        Ok(PartialResponse { groups, stats })
    }
}

/// The structural operator label of a physical filter: its class plus the
/// *physical* column name it reads ([`FilterClass::label`], the format
/// `seabed_query::plan_node` matches analyzed profiles back onto the plan by).
fn filter_label(filter: &PhysicalFilter, schema: &Schema) -> String {
    let (class, column) = filter.class_and_column();
    class.label(schema.fields.get(column).map_or("?", |f| f.name.as_str()))
}

/// The empty (identity) merge state for a logical server aggregate: what a
/// scan's groups start from and — no table needed to resolve columns against
/// — what a gather point that never saw one (the `seabed-dist` coordinator)
/// synthesizes the empty global group from.
fn empty_state_of(agg: &ServerAggregate) -> PartialAggregate {
    match agg.input() {
        AggregateInput::Words(_) => PartialAggregate::Sum { value: 0 },
        AggregateInput::RowIds => PartialAggregate::Count,
        AggregateInput::Extreme { want_max, .. } => PartialAggregate::Extreme { best: None, want_max },
    }
}

/// Turns fully-merged partial groups into the client-facing response: the
/// reduce tail shared by in-process execution and the `seabed-dist`
/// coordinator. Inserts the empty global group for aggregates with no
/// matching rows, finalizes every partial and sorts groups by key.
pub fn finalize_partials(query: &TranslatedQuery, mut merged: PartialGroups, stats: ExecStats) -> ServerResponse {
    // Global aggregates with no matching rows still return one empty group.
    if merged.is_empty() && query.group_by.is_empty() {
        let empty = PartialGroup::new(query.aggregates.iter().map(empty_state_of).collect());
        merged.insert(Vec::new(), empty);
    }
    let mut groups: Vec<GroupResult> = merged
        .into_iter()
        .map(|(key, group)| finish_group(key, group))
        .collect();
    groups.sort_by(|a, b| a.key.cmp(&b.key));
    ServerResponse { groups, stats }
}

/// A still-mergeable query result: per group key, one [`PartialGroup`] — the
/// group's ID set and one [`PartialAggregate`] per requested aggregate — plus
/// the execution statistics of the scan that produced it. What a
/// `seabed-dist` worker ships to the coordinator.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialResponse {
    /// Mergeable per-group partial states.
    pub groups: PartialGroups,
    /// Statistics of the scan.
    pub stats: ExecStats,
}

/// One execution, as a [`QueryTarget`] sees it: the plan, this execution's
/// literal-encrypted filters, and what the caller wants done with them.
#[derive(Clone, Copy, Debug)]
pub struct ExecRequest<'a> {
    /// The translated plan. For a prepared statement this is the *unbound*
    /// plan, stable across executions — the server side only reads its shape
    /// (aggregates and grouping).
    pub plan: &'a TranslatedQuery,
    /// The bound, literal-encrypted filters of this execution.
    pub filters: &'a [PhysicalFilter],
    /// `Some` for an execution of a prepared statement: the target may keep
    /// per-statement state for `plan` (a server-side handle, a cached
    /// answer) and reuse it. `None` is a one-shot execution.
    pub statement_id: Option<u64>,
    /// Propagated trace id ([`UNTRACED`] for none): a target that crosses a
    /// process boundary ships it with the query and records its event under it.
    pub trace_id: u64,
    /// `EXPLAIN ANALYZE`: profile every operator into
    /// `response.stats.operators` and return the target-side plan subtree.
    pub analyze: bool,
}

impl<'a> ExecRequest<'a> {
    /// A one-shot, untraced, unprofiled execution of `plan`.
    pub fn new(plan: &'a TranslatedQuery, filters: &'a [PhysicalFilter]) -> ExecRequest<'a> {
        ExecRequest {
            plan,
            filters,
            statement_id: None,
            trace_id: UNTRACED,
            analyze: false,
        }
    }
}

/// What one [`QueryTarget::run`] produced.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The still-encrypted response.
    pub response: ServerResponse,
    /// The target-side plan subtree of *this* execution, when it was analyzed
    /// and the target has stages of its own (a distributed coordinator's
    /// scatter, per-shard runs, gather and merge). `None` for a target whose
    /// whole execution the client-side plan already describes.
    pub plan: Option<PlanNode>,
}

impl From<ServerResponse> for ExecOutcome {
    fn from(response: ServerResponse) -> ExecOutcome {
        ExecOutcome { response, plan: None }
    }
}

/// Anything a [`crate::SeabedSession`] can point a query at: the in-process [`SeabedServer`], a `seabed-net` remote proxy, or
/// a `seabed-dist` coordinator fanning the query out over sharded workers.
/// The proxy only needs a schema to prepare against and an execution entry
/// point; planning, literal encryption and response decryption stay in the
/// client regardless of the target's topology.
///
/// Targets are addressed by *table*: `schema_of` resolves the table named in
/// a query's `FROM`, so one target can host many encrypted tables (the
/// `seabed-dist` coordinator does). A single-table target that is never told
/// its table's name accepts any name — the catalog on the session side is
/// then the authority on which names exist.
pub trait QueryTarget {
    /// The schema of the named table, or a typed
    /// [`seabed_error::SchemaError::UnknownTable`] when this target does not
    /// host it. Anonymous single-table targets accept every name.
    fn schema_of(&self, table: &str) -> Result<&Schema, SeabedError>;

    /// True when this target resolves table names strictly (multi-table
    /// hosts); false for anonymous single-table targets, which accept any
    /// name. A `SeabedSession` refuses to pair a multi-table catalog with a
    /// non-routing target: the target would silently run every query against
    /// its one table regardless of the `FROM` name.
    fn routes_by_table(&self) -> bool {
        false
    }

    /// One-shot execution of a translated, literal-encrypted query — all a
    /// minimal target has to provide. Multi-table targets route by
    /// `query.base_table`.
    fn execute_query(&self, query: &TranslatedQuery, filters: &[PhysicalFilter])
        -> Result<ServerResponse, SeabedError>;

    /// The dispatch entry every session execution goes through. The default
    /// answers with [`QueryTarget::execute_query`] and drops the extras — no
    /// statement reuse, no spans, no operator rows; the three shipped targets
    /// override it and honour the whole request.
    fn run(&self, request: &ExecRequest<'_>) -> Result<ExecOutcome, SeabedError> {
        self.execute_query(request.plan, request.filters).map(ExecOutcome::from)
    }

    /// [`QueryTarget::run`] of a prepared statement, untraced: `statement`
    /// is the unbound plan, `statement_id` a caller-stable key for it.
    fn execute_prepared(
        &self,
        statement: &TranslatedQuery,
        statement_id: u64,
        filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        let request = ExecRequest {
            statement_id: Some(statement_id),
            ..ExecRequest::new(statement, filters)
        };
        Ok(self.run(&request)?.response)
    }
}

impl QueryTarget for SeabedServer {
    fn schema_of(&self, _table: &str) -> Result<&Schema, SeabedError> {
        // A `SeabedServer` hosts exactly one (anonymous) table; name
        // resolution is the catalog's job on the session side.
        Ok(&self.table.schema)
    }

    fn execute_query(
        &self,
        query: &TranslatedQuery,
        filters: &[PhysicalFilter],
    ) -> Result<ServerResponse, SeabedError> {
        self.execute(query, filters)
    }

    fn run(&self, request: &ExecRequest<'_>) -> Result<ExecOutcome, SeabedError> {
        self.execute_analyzed(request.plan, request.filters, request.analyze)
            .map(ExecOutcome::from)
    }
}

/// Reference row-at-a-time partition scan: the oracle the vectorized scan is
/// held against (`tests/differential_exec.rs`). It probes a `HashMap` with a
/// freshly built key and pushes one identifier per row, shares none of the
/// flat scan's machinery, and hands its groups to the same driver fold. The
/// loop interleaves filtering and accumulation per row, so it profiles as one
/// fused `scan:scalar` operator rather than a per-filter breakdown (which is
/// a vectorized concept).
fn scan_scalar(
    partition: &Partition,
    filters: &[PhysicalFilter],
    fold: &Fold<'_>,
    sink: &mut ProfileSink,
) -> Result<FlatPartial, SeabedError> {
    let started = sink.begin();
    let mut groups: PartialGroups = HashMap::new();
    let n = partition.num_rows();
    let mut matched = 0u64;
    for row in 0..n {
        if !filters.iter().all(|f| f.matches(partition, row)) {
            continue;
        }
        matched += 1;
        let mut key: Vec<u64> = Vec::with_capacity(fold.group_columns.len());
        for &c in fold.group_columns {
            // A missing or mistyped group column must fail loudly: defaulting
            // here would silently fold the row into group key 0.
            let cell = partition
                .column_get(c)
                .and_then(|col| col.u64_get(row))
                .ok_or_else(|| {
                    SeabedError::engine(format!("group column {c} is missing or not UInt64 in partition"))
                })?;
            key.push(cell);
        }
        let group = groups.entry(key).or_insert_with(|| fold.empty.clone());
        fold.observe(group, partition, row);
    }
    sink.finish(started, "scan:scalar", n as u64, matched, 1);
    Ok(FlatPartial::from_groups(groups, fold.group_columns.len()))
}

/// Vectorized partition scan: filters narrow a selection vector column at a
/// time, then [`aggregate`] folds the selection (or, with no filter, the
/// whole partition) into a flat partial.
fn scan_vectorized(
    partition: &Partition,
    ordered_filters: &[&PhysicalFilter],
    filter_labels: &[String],
    fold: &Fold<'_>,
    sink: &mut ProfileSink,
) -> Result<FlatPartial, SeabedError> {
    let n = partition.num_rows();
    if n > exec::MAX_PARTITION_ROWS {
        return Err(SeabedError::engine(format!(
            "partition of {n} rows exceeds the vectorized row limit; repartition the table"
        )));
    }

    // The cheapest filter dense-selects in one pass; the rest refine the
    // shrinking selection. An unfiltered scan builds no selection at all —
    // the aggregation below then streams the partition densely.
    //
    // Every filter slot is recorded even when the selection empties early:
    // the skipped filters get zeroed entries, so every partition reports the
    // same operator sequence and profiles merge element-wise.
    let sel: Option<SelectionVector> = match ordered_filters.split_first() {
        None => None,
        Some((first, rest)) => {
            let t0 = sink.begin();
            let mut sel = first.select_dense(partition)?;
            sink.finish(
                t0,
                filter_labels.first().map(String::as_str).unwrap_or("filter:?"),
                n as u64,
                sel.len() as u64,
                1,
            );
            for (i, filter) in rest.iter().enumerate() {
                if sel.is_empty() {
                    if sink.is_enabled() {
                        for label in &filter_labels[i + 1..] {
                            sink.record(OperatorProfile {
                                label: label.clone(),
                                ..OperatorProfile::default()
                            });
                        }
                    }
                    break;
                }
                let rows_in = sel.len() as u64;
                let t = sink.begin();
                filter.refine(partition, &mut sel)?;
                sink.finish(
                    t,
                    filter_labels.get(i + 1).map(String::as_str).unwrap_or("filter:?"),
                    rows_in,
                    sel.len() as u64,
                    1,
                );
            }
            Some(sel)
        }
    };

    // A partition that selects nothing returns no group; its aggregate slot
    // stays in the sequence so shapes stay stable.
    let selected_rows = sel.as_ref().map_or(n, |s| s.len());
    let agg_started = sink.begin();
    let partial = match selected_rows {
        0 => FlatPartial::default(),
        _ => aggregate(partition, sel.as_ref().map(SelectionVector::rows), fold)?,
    };
    let passes = u64::from(selected_rows > 0);
    sink.finish(
        agg_started,
        "aggregate",
        selected_rows as u64,
        partial.groups() as u64,
        passes,
    );
    Ok(partial)
}

/// Folds the selected rows of a partition — `rows` ascending, `None` for
/// every row; at least one — into a flat partial, at work proportional to
/// rows and runs.
///
/// [`group_rows`] numbers each row's group key (any number of `UInt64` group
/// columns, resolved to slices once) and lays the rows out group after group,
/// ascending within each, so a group's ID runs, words and MIN/MAX candidates
/// are each one pass over its slice. A global aggregate is the one-group case
/// and skips the sort: its slice is the selection itself.
fn aggregate(partition: &Partition, rows: Option<&[u32]>, fold: &Fold<'_>) -> Result<FlatPartial, SeabedError> {
    let n = partition.num_rows();
    let key_width = fold.group_columns.len();
    let grouped = if key_width == 0 {
        None
    } else {
        let key_cols: Vec<&[u64]> = fold
            .group_columns
            .iter()
            .map(|&c| match typed_slice!(partition, c, u64_slice, "UInt64") {
                Ok(col) if col.len() < n => {
                    Err(SeabedError::engine(format!("group column {c} shorter than partition")))
                }
                other => other,
            })
            .collect::<Result<_, _>>()?;
        Some(group_rows(rows, n, key_width, |row, key| {
            for (word, col) in key.iter_mut().zip(&key_cols) {
                *word = col[row];
            }
        }))
    };
    let groups = grouped.as_ref().map_or(1, GroupedRows::groups);
    // `None`: the whole partition, densely (the unfiltered global aggregate).
    let slice_of = |group: usize| match &grouped {
        None => rows,
        Some(grouped) => Some(grouped.rows_of(group)),
    };

    let mut runs: Vec<Run> = Vec::new();
    let mut run_ends: Vec<usize> = Vec::with_capacity(groups);
    for group in 0..groups {
        match slice_of(group) {
            _ if !fold.collect_ids => {}
            None => runs.push(Run::new(partition.row_id(0), partition.row_id(n - 1))),
            Some(slice) => append_offset_runs(slice, partition.start_row, &mut runs),
        }
        run_ends.push(runs.len());
    }

    // Aggregate by aggregate, so each column is resolved to a slice once and
    // streamed group after group, every group's rows ascending as the scalar
    // path sees them.
    let aggs = fold.resolved.len();
    let mut states: Vec<PartialAggregate> = Vec::with_capacity(groups * aggs);
    for _ in 0..groups {
        states.extend_from_slice(&fold.empty.aggregates);
    }
    for (a, spec) in fold.resolved.iter().enumerate() {
        match *spec {
            ResolvedAggregate::Sum { column } => {
                let col = typed_slice!(partition, column, u64_slice, "UInt64")?;
                let cell = |&row: &u32| col.get(row as usize).copied().unwrap_or_default();
                for group in 0..groups {
                    let value = match slice_of(group) {
                        None => col.iter().copied().fold(0, u64::wrapping_add),
                        Some(slice) => slice.iter().map(cell).fold(0, u64::wrapping_add),
                    };
                    states[group * aggs + a] = PartialAggregate::Sum { value };
                }
            }
            ResolvedAggregate::Count => {}
            ResolvedAggregate::Extreme { .. } => {
                for group in 0..groups {
                    let state = &mut states[group * aggs + a];
                    match slice_of(group) {
                        None => (0..n).for_each(|row| spec.observe(state, partition, row)),
                        Some(slice) => slice
                            .iter()
                            .for_each(|&row| spec.observe(state, partition, row as usize)),
                    }
                }
            }
        }
    }
    Ok(FlatPartial {
        key_width,
        keys: grouped.map(|grouped| grouped.keys).unwrap_or_default(),
        states,
        runs,
        run_ends,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_ashe::IdSet;
    use seabed_engine::{ClusterConfig, ColumnData, Schema};
    use seabed_error::SchemaError;
    use seabed_query::{GroupByColumn, SupportCategory};

    /// Builds a tiny "encrypted" table by hand: one plaintext filter column,
    /// one pseudo-ASHE column (plain values work fine for server-side logic —
    /// the server never interprets the words).
    fn test_table(rows: u64) -> Table {
        let schema = Schema::new([
            ("flag".to_string(), ColumnType::UInt64),
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("g__det".to_string(), ColumnType::UInt64),
        ]);
        Table::from_columns(
            schema,
            vec![
                ColumnData::UInt64((0..rows).map(|i| i % 2).collect()),
                ColumnData::UInt64((0..rows).map(|i| i + 1).collect()),
                ColumnData::UInt64((0..rows).map(|i| i % 5 + 100).collect()),
            ],
            4,
        )
    }

    fn server_with_mode(rows: u64, mode: ExecMode) -> SeabedServer {
        let config = ClusterConfig::default().exec_mode(mode);
        SeabedServer::new(test_table(rows), Cluster::new(config))
    }

    fn server(rows: u64) -> SeabedServer {
        server_with_mode(rows, ExecMode::Vectorized)
    }

    fn sum_query(group_by: Vec<GroupByColumn>) -> TranslatedQuery {
        TranslatedQuery {
            base_table: "t".to_string(),
            filters: vec![],
            aggregates: vec![
                ServerAggregate::AsheSum {
                    column: "m__ashe".to_string(),
                },
                ServerAggregate::CountRows,
            ],
            group_by,
            client_post: vec![],
            preserve_row_ids: true,
            category: SupportCategory::ServerOnly,
            params: vec![],
        }
    }

    fn group_by_g() -> Vec<GroupByColumn> {
        vec![GroupByColumn {
            column: "g".to_string(),
            physical_column: "g__det".to_string(),
            encrypted: true,
        }]
    }

    #[test]
    fn global_sum_over_all_rows() -> Result<(), SeabedError> {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server_with_mode(1000, mode);
            let resp = s.execute(&sum_query(vec![]), &[])?;
            assert_eq!(resp.groups.len(), 1);
            let (EncryptedAggregate::AsheSum { value }, Some(ids)) =
                (&resp.groups[0].aggregates[0], &resp.groups[0].ids)
            else {
                return Err(SeabedError::engine(format!("unexpected group {:?}", resp.groups[0])));
            };
            assert_eq!(*value, (1..=1000u64).sum::<u64>());
            let ids = IdSet::decode(&ids.id_list, ids.encoding).unwrap_or_default();
            assert_eq!(ids.count(), 1000);
            assert_eq!(ids.run_count(), 1, "contiguous selection is one run");
            assert!(
                matches!(&resp.groups[0].aggregates[1], EncryptedAggregate::Count { rows } if *rows == 1000),
                "unexpected aggregate {:?}",
                resp.groups[0].aggregates[1]
            );
            assert!(resp.result_bytes() > 0);
        }
        Ok(())
    }

    #[test]
    fn filtered_sum_respects_predicates() -> Result<(), SeabedError> {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server_with_mode(1000, mode);
            let filters = vec![PhysicalFilter::PlainU64 {
                column: 0,
                op: CompareOp::Eq,
                value: 1,
            }];
            let resp = s.execute(&sum_query(vec![]), &filters)?;
            let expected: u64 = (0..1000u64).filter(|i| i % 2 == 1).map(|i| i + 1).sum();
            assert!(
                matches!(&resp.groups[0].aggregates[0], EncryptedAggregate::AsheSum { value, .. } if *value == expected),
                "unexpected aggregate {:?}",
                resp.groups[0].aggregates[0]
            );
        }
        Ok(())
    }

    #[test]
    fn det_tag_filter() -> Result<(), SeabedError> {
        let s = server(100);
        let filters = vec![PhysicalFilter::DetTag { column: 2, tag: 103 }];
        let resp = s.execute(&sum_query(vec![]), &filters)?;
        assert!(
            matches!(&resp.groups[0].aggregates[1], EncryptedAggregate::Count { rows } if *rows == 20),
            "unexpected aggregate {:?}",
            resp.groups[0].aggregates[1]
        );
        Ok(())
    }

    #[test]
    fn group_by_sums_add_up_to_the_global_sum() -> Result<(), SeabedError> {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server_with_mode(1000, mode);
            let grouped = s.execute(&sum_query(group_by_g()), &[])?;
            assert_eq!(grouped.groups.len(), 5);
            assert!(
                grouped.groups.iter().all(|g| g.key.len() == 1),
                "one key word per group-by column"
            );
            let global = s.execute(&sum_query(vec![]), &[])?;
            let total = |resp: &ServerResponse| -> u64 {
                resp.groups
                    .iter()
                    .map(|g| match &g.aggregates[0] {
                        EncryptedAggregate::AsheSum { value, .. } => *value,
                        _ => 0,
                    })
                    .fold(0u64, |a, b| a.wrapping_add(b))
            };
            assert_eq!(total(&grouped), total(&global));
        }
        Ok(())
    }

    #[test]
    fn scalar_and_vectorized_responses_are_identical() -> Result<(), SeabedError> {
        // The full differential suite lives in tests/differential_exec.rs;
        // this is the fast in-crate smoke version over a mixed query.
        let filters = vec![
            PhysicalFilter::PlainU64 {
                column: 0,
                op: CompareOp::Eq,
                value: 0,
            },
            PhysicalFilter::DetTag { column: 2, tag: 102 },
        ];
        for group_by in [vec![], group_by_g()] {
            let query = sum_query(group_by);
            let scalar = server_with_mode(997, ExecMode::Scalar).execute(&query, &filters)?;
            let vectorized = server_with_mode(997, ExecMode::Vectorized).execute(&query, &filters)?;
            assert_eq!(scalar.groups, vectorized.groups);
            assert_eq!(scalar.result_bytes(), vectorized.result_bytes());
        }
        Ok(())
    }

    #[test]
    fn filter_cost_ordering_runs_cheap_filters_first() {
        let ope = PhysicalFilter::Ope {
            column: 0,
            op: CompareOp::Lt,
            ciphertext: OreCiphertext {
                symbols: vec![0; ORE_CELL_BYTES],
            },
        };
        let text = PhysicalFilter::PlainText {
            column: 0,
            value: "x".into(),
        };
        let plain = PhysicalFilter::PlainU64 {
            column: 0,
            op: CompareOp::Eq,
            value: 1,
        };
        let mut ordered = [&ope, &text, &plain];
        ordered.sort_by_key(|f| f.class_and_column().0.cost_rank());
        assert!(matches!(ordered[0], PhysicalFilter::PlainU64 { .. }));
        assert!(matches!(ordered[2], PhysicalFilter::Ope { .. }));
    }

    #[test]
    fn empty_selection_returns_zero_group() -> Result<(), SeabedError> {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server_with_mode(50, mode);
            let filters = vec![PhysicalFilter::PlainU64 {
                column: 0,
                op: CompareOp::Gt,
                value: 100,
            }];
            let resp = s.execute(&sum_query(vec![]), &filters)?;
            assert_eq!(resp.groups.len(), 1);
            assert!(
                matches!(&resp.groups[0].aggregates[1], EncryptedAggregate::Count { rows } if *rows == 0),
                "unexpected aggregate {:?}",
                resp.groups[0].aggregates[1]
            );
        }
        Ok(())
    }

    /// `execute` is by construction `execute_partial` + `finalize_partials`;
    /// pin that the seam really is byte-identical so the `seabed-dist`
    /// coordinator (which reassembles the same two halves across a network)
    /// cannot diverge from single-server execution.
    #[test]
    fn execute_equals_partial_plus_finalize() -> Result<(), SeabedError> {
        let s = server(500);
        for group_by in [vec![], group_by_g()] {
            let query = sum_query(group_by);
            let direct = s.execute(&query, &[])?;
            let partial = s.execute_partial(&query, &[])?;
            let reassembled = finalize_partials(&query, partial.groups, partial.stats);
            assert_eq!(direct.groups, reassembled.groups);
            assert_eq!(direct.result_bytes(), reassembled.result_bytes());
        }
        Ok(())
    }

    /// A degenerate cluster configuration (zero local threads) used to reach
    /// the execution path unchecked; it is now rejected with a typed error
    /// before any scan starts.
    #[test]
    fn degenerate_cluster_config_is_rejected_at_execution() {
        let config = ClusterConfig::default().local_threads(0);
        let s = SeabedServer::new(test_table(10), Cluster::new(config));
        assert!(matches!(
            s.execute(&sum_query(vec![]), &[]),
            Err(SeabedError::Engine(_))
        ));
    }

    #[test]
    fn unknown_column_is_a_schema_error() {
        let s = server(10);
        let mut q = sum_query(vec![]);
        q.aggregates = vec![ServerAggregate::AsheSum {
            column: "missing".to_string(),
        }];
        assert!(matches!(s.execute(&q, &[]), Err(SeabedError::Schema(_))));
    }

    #[test]
    fn malformed_filter_index_is_an_engine_error() {
        let s = server(10);
        let filters = vec![PhysicalFilter::PlainU64 {
            column: 99,
            op: CompareOp::Eq,
            value: 1,
        }];
        assert!(matches!(
            s.execute(&sum_query(vec![]), &filters),
            Err(SeabedError::Engine(_))
        ));
    }

    /// Regression test for the silent-default bug: a partition whose group
    /// column is physically mistyped used to fold every row into group key 0
    /// (`unwrap_or_default`); it must instead fail as a corrupt partition —
    /// in both execution modes.
    #[test]
    fn mistyped_group_column_is_an_error_not_key_zero() {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let mut table = test_table(100);
            let n = table.partitions[1].num_rows();
            table.partitions[1].columns[2] = ColumnData::Utf8(vec!["oops".to_string(); n]);
            let s = SeabedServer::new(table, Cluster::new(ClusterConfig::default().exec_mode(mode)));
            let outcome = s.execute(&sum_query(group_by_g()), &[]);
            assert!(
                matches!(
                    outcome,
                    Err(SeabedError::Schema(SchemaError::CorruptPartition { partition: 1, .. }))
                ),
                "{mode:?}: expected corrupt-partition error, got {outcome:?}"
            );
        }
    }

    /// A corrupt-width ORE cell must neither panic the driver merge nor win a
    /// MIN/MAX aggregate: it is incomparable, so it is skipped — in both
    /// modes. (Table::validate_layout cannot catch this: the column type and
    /// length are fine, only the symbol width inside one cell is wrong.)
    #[test]
    fn corrupt_ore_cell_is_skipped_by_min_max() -> Result<(), SeabedError> {
        use seabed_crypto::OreScheme;
        let ore = OreScheme::new(&[3u8; 16]);
        let plain: Vec<u64> = (0..40).map(|i| (i * 13 + 7) % 100).collect();
        let mut cells: Vec<Vec<u8>> = plain.iter().map(|&v| ore.encrypt(v).symbols).collect();
        // Row 0 would otherwise be scanned first and become the initial
        // `best`; truncate it to a corrupt width.
        cells[0].truncate(10);
        let schema = Schema::new([
            ("o__ope".to_string(), ColumnType::Bytes),
            ("o__ope_val".to_string(), ColumnType::UInt64),
        ]);
        let table = Table::from_columns(
            schema,
            vec![
                ColumnData::Bytes(cells.iter().collect()),
                ColumnData::UInt64((1000..1040u64).collect()),
            ],
            4,
        );
        let expected_min_row = (1..40).min_by_key(|&i| plain[i]).expect("non-empty") as u64;
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = SeabedServer::new(table.clone(), Cluster::new(ClusterConfig::default().exec_mode(mode)));
            let mut q = sum_query(vec![]);
            q.aggregates = vec![ServerAggregate::OpeMin {
                column: "o__ope".to_string(),
            }];
            let resp = s.execute(&q, &[])?;
            assert!(
                matches!(
                    &resp.groups[0].aggregates[0],
                    EncryptedAggregate::Extreme { value_word, row_id: Some(id) }
                        if *id == expected_min_row && *value_word == 1000 + expected_min_row
                ),
                "{mode:?}: corrupt cell must not win: {:?}",
                resp.groups[0].aggregates[0]
            );
        }
        Ok(())
    }

    /// An ORE literal that is not one cell wide compares with no stored cell:
    /// every row would be "non-matching" and the query would answer an empty
    /// selection. It is refused before the scan instead, in both modes — while
    /// a corrupt-width *stored* cell stays a non-matching row
    /// (`tests/filter_kernels.rs`).
    #[test]
    fn malformed_ore_literal_is_an_error_not_an_empty_answer() -> Result<(), SeabedError> {
        use seabed_crypto::OreScheme;
        let ore = OreScheme::new(&[3u8; 16]);
        let schema = Schema::new([
            ("o__ope".to_string(), ColumnType::Bytes),
            ("m__ashe".to_string(), ColumnType::UInt64),
        ]);
        let table = Table::from_columns(
            schema,
            vec![
                ColumnData::Bytes((0..40u64).map(|v| ore.encrypt(v).symbols).collect()),
                ColumnData::UInt64((0..40u64).collect()),
            ],
            4,
        );
        let filter = |symbols: Vec<u8>| PhysicalFilter::Ope {
            column: 0,
            op: CompareOp::Lt,
            ciphertext: OreCiphertext { symbols },
        };
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = SeabedServer::new(table.clone(), Cluster::new(ClusterConfig::default().exec_mode(mode)));
            let honest = s.execute(&sum_query(vec![]), &[filter(ore.encrypt(10).symbols)])?;
            assert!(
                matches!(&honest.groups[0].aggregates[1], EncryptedAggregate::Count { rows: 10 }),
                "{mode:?}: {:?}",
                honest.groups[0]
            );
            // Empty, truncated, one byte over, and the one-byte-per-symbol width.
            for width in [0, ORE_CELL_BYTES - 1, ORE_CELL_BYTES + 1, 4 * ORE_CELL_BYTES] {
                let outcome = s.execute(&sum_query(vec![]), &[filter(vec![0; width])]);
                assert!(
                    matches!(&outcome, Err(SeabedError::Engine(message)) if message.contains("ORE literal")),
                    "{mode:?}, width {width}: {outcome:?}"
                );
            }
        }
        Ok(())
    }

    /// A group's ID list is built, shipped and charged once: adding a second
    /// sum and a count over the same selection adds one word each, not a
    /// second and third copy of the list.
    #[test]
    fn a_group_charges_its_id_list_once() -> Result<(), SeabedError> {
        let filters = vec![PhysicalFilter::PlainU64 {
            column: 0,
            op: CompareOp::Eq,
            value: 1,
        }];
        let sum = |column: &str| ServerAggregate::AsheSum {
            column: column.to_string(),
        };
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            for group_by in [vec![], group_by_g()] {
                let s = server_with_mode(1000, mode);
                let mut one = sum_query(group_by);
                one.aggregates = vec![sum("m__ashe")];
                let mut three = one.clone();
                three.aggregates = vec![sum("m__ashe"), sum("g__det"), ServerAggregate::CountRows];

                let (one_resp, three_resp) = (s.execute(&one, &filters)?, s.execute(&three, &filters)?);
                let groups = one_resp.groups.len();
                assert_eq!(three_resp.result_bytes(), one_resp.result_bytes() + 16 * groups);
                for (a, b) in one_resp.groups.iter().zip(&three_resp.groups) {
                    assert!(a.ids.is_some() && a.ids == b.ids, "the same list, once");
                    assert_eq!(b.byte_len(), a.byte_len() + 16);
                }

                // A partial group, too, holds one ID set beside its states.
                let (one_part, three_part) = (s.execute_partial(&one, &filters)?, s.execute_partial(&three, &filters)?);
                assert_eq!(three_part.groups.len(), groups);
                for (key, a) in &one_part.groups {
                    let b = &three_part.groups[key];
                    assert!(!a.ids.is_empty() && a.ids == b.ids, "the same set, once");
                    assert_eq!((a.aggregates.len(), b.aggregates.len()), (1, 3));
                }
            }
        }
        Ok(())
    }

    /// A MIN/MAX-only scan collects no identifiers and its response carries
    /// no ID list.
    #[test]
    fn extreme_only_groups_carry_no_id_list() -> Result<(), SeabedError> {
        use seabed_crypto::OreScheme;
        let ore = OreScheme::new(&[3u8; 16]);
        let table = Table::from_columns(
            Schema::new([
                ("o__ope".to_string(), ColumnType::Bytes),
                ("o__ope_val".to_string(), ColumnType::UInt64),
            ]),
            vec![
                ColumnData::Bytes((0..40u64).map(|v| ore.encrypt(v * 7 % 40).symbols).collect()),
                ColumnData::UInt64((0..40u64).collect()),
            ],
            4,
        );
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = SeabedServer::new(table.clone(), Cluster::new(ClusterConfig::default().exec_mode(mode)));
            let mut q = sum_query(vec![]);
            q.aggregates = vec![ServerAggregate::OpeMax {
                column: "o__ope".to_string(),
            }];
            let partial = s.execute_partial(&q, &[])?;
            assert!(partial.groups.values().all(|group| group.ids.is_empty()), "{mode:?}");
            let resp = s.execute(&q, &[])?;
            assert_eq!(resp.groups[0].ids, None);
            assert_eq!(resp.result_bytes(), 16);
        }
        Ok(())
    }

    /// Same for a group column that is shorter than its partition.
    #[test]
    fn short_group_column_is_an_error() {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let mut table = test_table(100);
            table.partitions[0].columns[2] = ColumnData::UInt64(vec![5]);
            let s = SeabedServer::new(table, Cluster::new(ClusterConfig::default().exec_mode(mode)));
            assert!(
                matches!(
                    s.execute(&sum_query(group_by_g()), &[]),
                    Err(SeabedError::Schema(SchemaError::CorruptPartition { .. }))
                ),
                "{mode:?}"
            );
        }
    }

    /// `ExecStats::wall_time` runs from the start of the execution through
    /// the driver's fold and the finalize step, not only over the partition
    /// scans: with 40 000 groups spread over 64 partitions, the fold and the
    /// encoding of each group's ID list are a large share of the call, and
    /// the measured time still accounts for nine tenths of it.
    #[test]
    fn wall_time_covers_the_fold_and_the_finalize() -> Result<(), SeabedError> {
        let rows = 160_000u64;
        let schema = Schema::new([
            ("m__ashe".to_string(), ColumnType::UInt64),
            ("g__det".to_string(), ColumnType::UInt64),
        ]);
        let columns = vec![
            ColumnData::UInt64((0..rows).collect()),
            ColumnData::UInt64((0..rows).map(|i| i % 40_000).collect()),
        ];
        let table = Table::from_columns(schema, columns, 64);
        let s = SeabedServer::new(table, Cluster::new(ClusterConfig::default().local_threads(1)));
        let started = Instant::now();
        let resp = s.execute(&sum_query(group_by_g()), &[])?;
        let call = started.elapsed();
        assert_eq!(resp.groups.len(), 40_000);
        assert!(
            resp.stats.wall_time >= call.mul_f64(0.9),
            "wall_time {:?} of a {call:?} call",
            resp.stats.wall_time
        );
        Ok(())
    }
}
