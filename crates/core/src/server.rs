//! The Seabed server: executes translated (encrypted) queries over the
//! partitioned encrypted table.
//!
//! The server is untrusted: it only ever sees ciphertexts, deterministic tags,
//! ORE ciphertexts and plaintext non-sensitive columns. Its job per query is
//! the map/reduce pipeline of Table 2: scan partitions in parallel, apply the
//! encrypted filters, fold ASHE words and the selected rows' ID list
//! (optionally per group; one list per group, however many sums share it),
//! compress the ID lists at the workers (§4.5), and concatenate partials at
//! the driver.
//!
//! # Scalar and vectorized scans
//!
//! Each partition scan runs in one of two modes, selected by
//! [`seabed_engine::ExecMode`] on the cluster configuration:
//!
//! * **Scalar** — the reference path: per row, every filter is re-evaluated
//!   through [`PhysicalFilter::matches`] and matching rows are pushed through
//!   the accumulators one at a time.
//! * **Vectorized** (default) — filters are evaluated *column at a time* via
//!   [`PhysicalFilter::refine`], cheapest filter class first
//!   ([`FilterClass::cost_rank`]), each narrowing a shared
//!   [`SelectionVector`] so more expensive filters (string equality, ORE
//!   comparison) only touch surviving rows. Aggregation is then driven off
//!   the final selection in batches; a single-`u64`-key group-by fast path
//!   avoids the per-row `Vec<u64>` key allocation of the general composite
//!   path.
//!
//! The two paths are differentially tested against each other and against the
//! plaintext baseline (`tests/differential_exec.rs`), and must stay
//! result-identical — including group-inflation suffixes and ID-list order.
//!
//! Execution is panic-free by construction: every column reference in the
//! plan and in the filters is resolved and type-checked against the schema
//! *before* the scan starts, the physical partition layout is validated
//! against the schema once up front ([`Table::validate_layout`]), and the
//! scan loops use only total accessors. A malformed plan or a corrupt
//! partition therefore yields a [`SeabedError`] instead of taking the server
//! (or, via a poisoned response, the proxy) down.

use seabed_ashe::IdSet;
use seabed_crypto::ore::{try_compare_symbols, OreCiphertext, ORE_CELL_BYTES};
use seabed_encoding::IdListEncoding;
use seabed_engine::exec::{self, SelectionVector};
use seabed_engine::merge::{
    extreme_replaces, merge_partial_groups, ExtremeCandidate, PartialAggregate, PartialGroup, PartialGroups,
};
use seabed_engine::{
    merge_operator_profiles, Cluster, ColumnType, ExecMode, ExecStats, OperatorProfile, Partition, ProfileSink, Schema,
    Table, TaskOutput,
};
use seabed_error::{SchemaError, SeabedError};
use seabed_obs::UNTRACED;
use seabed_query::{AggregateInput, CompareOp, FilterClass, PlanNode, ServerAggregate, TranslatedQuery};
use std::cmp::Ordering;
use std::collections::HashMap;

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
                let literal = ciphertext.symbols.as_slice();
                // The operator, resolved once: what it says to each of the
                // three orderings, indexed by `Ordering as i8 + 1`.
                let accepts = [Ordering::Less, Ordering::Equal, Ordering::Greater].map(|ord| op.eval_ordering(ord));
                let $rpred = |row: usize| {
                    col.get(row)
                        .and_then(|cell| try_compare_symbols(cell, literal))
                        .is_some_and(|ord| accepts[(ord as i8 + 1) as usize])
                };
                $row_kernel
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
                .and_then(|cell| try_compare_symbols(cell, &ciphertext.symbols))
                .is_some_and(|ord| op.eval_ordering(ord)),
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
    /// Encoding used for the ID list.
    pub encoding: IdListEncoding,
}

/// One group of the result (global aggregates use a single group with an empty
/// key).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupResult {
    /// The group key as stored on the server (plaintext values or DET tags),
    /// including the inflation suffix when group inflation is active.
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
    /// Execution statistics (simulated server latency, bytes, tasks).
    pub stats: ExecStats,
    /// Total serialized size of the result shipped to the client.
    pub result_bytes: usize,
}

/// SplitMix64 finalizer, used to spread rows across inflated group suffixes.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
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
    Extreme {
        ore_column: usize,
        value_column: usize,
        want_max: bool,
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
            AggregateInput::Extreme { order, value, want_max } => ResolvedAggregate::Extreme {
                ore_column: require_column(schema, order, Some(ColumnType::Bytes))?,
                value_column: require_column(schema, &value, Some(ColumnType::UInt64))?,
                want_max,
            },
        })
    }

    /// The empty (identity) merge state for this aggregate. The mergeable
    /// state type lives in [`seabed_engine::merge`], so the driver merge and
    /// the `seabed-dist` coordinator gather share one implementation.
    fn empty_state(&self) -> PartialAggregate {
        match *self {
            ResolvedAggregate::Sum { .. } => PartialAggregate::Sum { value: 0 },
            ResolvedAggregate::Count => PartialAggregate::Count,
            ResolvedAggregate::Extreme { want_max, .. } => PartialAggregate::Extreme { best: None, want_max },
        }
    }

    /// Folds one selected row into `state` (the row's identifier goes to the
    /// group, once: [`Accumulator::observe`]). The state vectors are always
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
                    ..
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

    /// Column-at-a-time accumulation (the vectorized path's global group): the
    /// needed column is resolved to a slice once, then streamed — the whole of
    /// it when no filter narrowed the partition (`sel` is `None`; no selection
    /// vector is materialised at all), else the selected rows in
    /// [`exec::BATCH_ROWS`]-row batches, in ascending row order like the
    /// scalar path.
    fn accumulate(
        &self,
        state: &mut PartialAggregate,
        partition: &Partition,
        sel: Option<&SelectionVector>,
    ) -> Result<(), SeabedError> {
        match (*self, state) {
            (ResolvedAggregate::Sum { column }, PartialAggregate::Sum { value }) => {
                let col = typed_slice!(partition, column, u64_slice, "UInt64")?;
                let mut acc = 0u64;
                match sel {
                    None => col.iter().for_each(|&cell| acc = acc.wrapping_add(cell)),
                    Some(sel) => sel.batches().flatten().for_each(|&row| {
                        acc = acc.wrapping_add(col.get(row as usize).copied().unwrap_or_default());
                    }),
                }
                *value = value.wrapping_add(acc);
            }
            (ResolvedAggregate::Count, PartialAggregate::Count) => {}
            (_, state) => for_each_selected(sel, partition.num_rows(), |row| {
                self.observe(state, partition, row);
                Ok(())
            })?,
        }
        Ok(())
    }
}

/// What one partition scan folds its selected rows with: the resolved
/// aggregates, the empty group they start from, and whether any of them reads
/// the group's ID set (a MIN/MAX-only scan collects no identifiers).
struct Accumulator<'a> {
    resolved: &'a [ResolvedAggregate],
    empty: PartialGroup,
    collect_ids: bool,
}

impl<'a> Accumulator<'a> {
    fn new(resolved: &'a [ResolvedAggregate]) -> Accumulator<'a> {
        let empty = PartialGroup::new(resolved.iter().map(|r| r.empty_state()).collect());
        let collect_ids = empty.aggregates.iter().any(PartialAggregate::reads_ids);
        Accumulator {
            resolved,
            empty,
            collect_ids,
        }
    }

    /// Folds one selected row into `group`: its identifier once, then every
    /// aggregate. Rows arrive in ascending order on both scan paths, so the
    /// ID lists come out identical.
    fn observe(&self, group: &mut PartialGroup, partition: &Partition, row: usize) {
        if self.collect_ids {
            group.ids.push_ordered(partition.row_id(row));
        }
        for (spec, state) in self.resolved.iter().zip(group.aggregates.iter_mut()) {
            spec.observe(state, partition, row);
        }
    }

    /// The one group of a global aggregation, column at a time: the whole
    /// partition when `sel` is `None` (its identifiers are one run), else the
    /// selected rows.
    fn global(&self, partition: &Partition, sel: Option<&SelectionVector>) -> Result<PartialGroup, SeabedError> {
        let mut group = self.empty.clone();
        let rows = partition.num_rows();
        if self.collect_ids && rows > 0 {
            match sel {
                None => group.ids = IdSet::range(partition.row_id(0), partition.row_id(rows - 1)),
                Some(sel) => sel
                    .batches()
                    .flatten()
                    .for_each(|&row| group.ids.push_ordered(partition.row_id(row as usize))),
            }
        }
        for (spec, state) in self.resolved.iter().zip(group.aggregates.iter_mut()) {
            spec.accumulate(state, partition, sel)?;
        }
        Ok(group)
    }
}

/// Finalizes one merged group into the client-facing one: the IDs are encoded
/// once if an ASHE sum needs them and counted for the counts, and MIN/MAX
/// candidates drop their ORE ciphertext, keeping only the winning value word
/// and row identifier.
fn finish_group(key: Vec<u64>, group: PartialGroup, encoding: IdListEncoding) -> GroupResult {
    let summed = group
        .aggregates
        .iter()
        .any(|state| matches!(state, PartialAggregate::Sum { .. }));
    let rows = group.ids.count();
    GroupResult {
        key,
        ids: summed.then(|| GroupIds {
            id_list: group.ids.encode(encoding),
            encoding,
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

/// The encoding ID lists inside partial results travel under — range bounds
/// in variable-byte form, whatever the query. A gather point (the
/// `seabed-dist` coordinator) decodes them back into [`IdSet`]s for merging
/// and re-encodes at finalization under the query's own encoding, so the
/// final response is byte-identical to single-server execution. The scan's
/// [`ExecStats::bytes_to_driver`] is accounted in it too: it has a closed
/// form, so the scan measures its partials without encoding them.
pub const PARTIAL_ID_ENCODING: IdListEncoding = IdListEncoding::RangesVb;

/// Partial-result size in bytes with ID lists under `encoding`: what this
/// partition's worker would ship to the driver. Shared by both execution
/// paths so the reported shuffle bytes cannot diverge between them.
///
/// A group's ID list is charged once, however many aggregates read it; a
/// count adds nothing of its own (it is the size of that list).
fn partial_bytes(groups: &PartialGroups, encoding: IdListEncoding, group_columns: usize) -> usize {
    groups
        .values()
        .map(|group| {
            let ids = if group.aggregates.iter().any(PartialAggregate::reads_ids) {
                group.ids.encoded_size(encoding)
            } else {
                0
            };
            let words = group.aggregates.iter().map(|partial| match partial {
                PartialAggregate::Sum { .. } => 8,
                PartialAggregate::Count => 0,
                PartialAggregate::Extreme { .. } => 16,
            });
            ids + words.sum::<usize>()
        })
        .sum::<usize>()
        + groups.len() * 8 * group_columns.max(1)
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

    /// The execution mode partition scans run under.
    pub fn exec_mode(&self) -> ExecMode {
        self.cluster.config.exec_mode
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
        Ok(finalize_partials(query, partial.groups, partial.stats))
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
        // Degenerate cluster configurations (zero workers / zero local
        // threads) are rejected before any scan starts.
        self.cluster.config.validate()?;

        self.table.validate_layout()?;
        for filter in filters {
            filter.validate(&self.table)?;
        }
        let group_columns: Vec<usize> = query
            .group_by
            .iter()
            .map(|g| {
                // Group keys must be u64-backed (plaintext or DET tag).
                self.table.require_typed_column(&g.physical_column, ColumnType::UInt64)
            })
            .collect::<Result<_, _>>()?;
        let resolved: Vec<ResolvedAggregate> = query
            .aggregates
            .iter()
            .map(|agg| ResolvedAggregate::resolve(agg, &self.table.schema))
            .collect::<Result<_, _>>()?;

        let inflation = query.group_inflation.max(1) as u64;
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

        let (partials, mut stats) = self.cluster.run(table, |partition| {
            let mut sink = if analyze {
                ProfileSink::enabled()
            } else {
                ProfileSink::disabled()
            };
            let scanned = match mode {
                ExecMode::Scalar => scan_scalar(partition, filters, &group_columns, &resolved, inflation, &mut sink),
                ExecMode::Vectorized => scan_vectorized(
                    partition,
                    &ordered,
                    &filter_labels,
                    &group_columns,
                    &resolved,
                    inflation,
                    &mut sink,
                ),
            };
            match scanned {
                Ok(groups) => {
                    let bytes = partial_bytes(&groups, PARTIAL_ID_ENCODING, group_columns.len());
                    TaskOutput::new(Ok((groups, sink.into_operators())), bytes)
                }
                Err(err) => TaskOutput::new(Err(err), 0),
            }
        });

        // Driver: merge partial groups (propagating any partition failure)
        // through the shared merge implementation; per-partition operator
        // profiles merge element-wise — every partition records the same
        // operator sequence, including zeroed slots past an empty selection.
        let mut merged: PartialGroups = HashMap::new();
        let mut operators: Vec<OperatorProfile> = Vec::new();
        for partial in partials {
            let (groups, partition_ops) = partial?;
            merge_partial_groups(&mut merged, groups);
            operators = merge_operator_profiles(&operators, &partition_ops);
        }
        stats.operators = operators;
        Ok(PartialResponse { groups: merged, stats })
    }
}

/// The structural operator label of a physical filter: its class plus the
/// *physical* column name it reads ([`FilterClass::label`], the format
/// `seabed_query::plan_node` matches analyzed profiles back onto the plan by).
fn filter_label(filter: &PhysicalFilter, schema: &Schema) -> String {
    let (class, column) = filter.class_and_column();
    class.label(schema.fields.get(column).map_or("?", |f| f.name.as_str()))
}

/// The ID-list encoding a query's response uses: aggregation queries use the
/// range-friendly encoding; group-by queries use per-ID diff encoding (§4.5).
fn response_encoding(query: &TranslatedQuery) -> IdListEncoding {
    if query.group_by.is_empty() {
        IdListEncoding::seabed_default()
    } else {
        IdListEncoding::seabed_group_by()
    }
}

/// The empty (identity) merge state for a logical server aggregate, without
/// needing a table to resolve columns against. Matches
/// `ResolvedAggregate::empty_state` for every resolvable aggregate, so a
/// gather point that never saw the table (the `seabed-dist` coordinator) can
/// still synthesize the empty global group.
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
/// matching rows, finalizes every partial, sorts groups by key, and accounts
/// the serialized result size.
pub fn finalize_partials(query: &TranslatedQuery, mut merged: PartialGroups, stats: ExecStats) -> ServerResponse {
    let encoding = response_encoding(query);
    // Global aggregates with no matching rows still return one empty group.
    if merged.is_empty() && query.group_by.is_empty() {
        let empty = PartialGroup::new(query.aggregates.iter().map(empty_state_of).collect());
        merged.insert(Vec::new(), empty);
    }
    let mut groups: Vec<GroupResult> = merged
        .into_iter()
        .map(|(key, group)| finish_group(key, group, encoding))
        .collect();
    groups.sort_by(|a, b| a.key.cmp(&b.key));
    let result_bytes: usize = groups.iter().map(GroupResult::byte_len).sum();
    ServerResponse {
        groups,
        stats,
        result_bytes,
    }
}

/// A still-mergeable query result: per (possibly inflated) group key, one
/// [`PartialGroup`] — the group's ID set and one [`PartialAggregate`] per
/// requested aggregate — plus the execution statistics of the scan that
/// produced it. What a `seabed-dist` worker ships
/// to the coordinator.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialResponse {
    /// Mergeable per-group partial states.
    pub groups: PartialGroups,
    /// Statistics of the scan.
    pub stats: ExecStats,
}

impl PartialResponse {
    /// Compressed size in bytes of these partials under the encoding `query`
    /// answers with — entropy coding included, so this encodes every ID list
    /// to measure it. The scan's own `stats.bytes_to_driver` is the cheap
    /// figure (same partials under [`PARTIAL_ID_ENCODING`], sized
    /// arithmetically); this is the exact one, computed on demand.
    pub fn shuffle_bytes(&self, query: &TranslatedQuery) -> usize {
        partial_bytes(&self.groups, response_encoding(query), query.group_by.len())
    }
}

/// One execution, as a [`QueryTarget`] sees it: the plan, this execution's
/// literal-encrypted filters, and what the caller wants done with them.
#[derive(Clone, Copy, Debug)]
pub struct ExecRequest<'a> {
    /// The translated plan. For a prepared statement this is the *unbound*
    /// plan, stable across executions — the server side only reads its shape
    /// (aggregates, grouping, inflation).
    pub plan: &'a TranslatedQuery,
    /// The bound, literal-encrypted filters of this execution.
    pub filters: &'a [PhysicalFilter],
    /// `Some` for an execution of a prepared statement: the target may keep
    /// per-statement state for `plan` (a server-side handle, cached shard
    /// partials) and reuse it. `None` is a one-shot execution.
    pub statement_id: Option<u64>,
    /// Propagated trace id ([`UNTRACED`] for none): a target that crosses a
    /// process boundary ships it with the query and records its spans under it.
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

/// Anything a [`crate::SeabedClient`] or [`crate::SeabedSession`] can point a
/// query at: the in-process [`SeabedServer`], a `seabed-net` remote proxy, or
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

/// Reference row-at-a-time partition scan. The scalar loop interleaves
/// filtering and accumulation per row, so it profiles as one fused
/// `scan:scalar` operator rather than a per-filter breakdown (which is a
/// vectorized concept).
fn scan_scalar(
    partition: &Partition,
    filters: &[PhysicalFilter],
    group_columns: &[usize],
    resolved: &[ResolvedAggregate],
    inflation: u64,
    sink: &mut ProfileSink,
) -> Result<PartialGroups, SeabedError> {
    let started = sink.begin();
    let accumulator = Accumulator::new(resolved);
    let mut groups: PartialGroups = HashMap::new();
    let n = partition.num_rows();
    let mut matched = 0u64;
    for row in 0..n {
        if !filters.iter().all(|f| f.matches(partition, row)) {
            continue;
        }
        matched += 1;
        let mut key: Vec<u64> = Vec::with_capacity(group_columns.len() + usize::from(inflation > 1));
        for &c in group_columns {
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
        if !group_columns.is_empty() && inflation > 1 {
            // The paper appends a pseudo-random identifier in [0, factor)
            // to the group key (§4.5); hashing the row id keeps the
            // assignment deterministic without correlating with the
            // group value.
            key.push(splitmix64(partition.row_id(row)) % inflation);
        }
        let group = groups.entry(key).or_insert_with(|| accumulator.empty.clone());
        accumulator.observe(group, partition, row);
    }
    sink.finish(started, "scan:scalar", n as u64, matched, 1);
    Ok(groups)
}

/// Drives `body` once per selected row, in ascending order: densely over the
/// whole partition when no filter narrowed it (`sel` is `None` — no all-rows
/// selection is ever materialised), otherwise off the selection vector in
/// batches. Monomorphizes per call site, so the grouped hot loops stay tight.
fn for_each_selected(
    sel: Option<&SelectionVector>,
    n: usize,
    mut body: impl FnMut(usize) -> Result<(), SeabedError>,
) -> Result<(), SeabedError> {
    match sel {
        None => {
            for row in 0..n {
                body(row)?;
            }
        }
        Some(sel) => {
            for batch in sel.batches() {
                for &row in batch {
                    body(row as usize)?;
                }
            }
        }
    }
    Ok(())
}

/// Vectorized partition scan: filters narrow a selection vector column at a
/// time, then aggregation runs off the selection in batches (or streams the
/// partition densely when there are no filters).
fn scan_vectorized(
    partition: &Partition,
    ordered_filters: &[&PhysicalFilter],
    filter_labels: &[String],
    group_columns: &[usize],
    resolved: &[ResolvedAggregate],
    inflation: u64,
    sink: &mut ProfileSink,
) -> Result<PartialGroups, SeabedError> {
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

    let mut groups: PartialGroups = HashMap::new();
    let selected_rows = sel.as_ref().map_or(n, |s| s.len());
    let agg_batches = (selected_rows as u64).div_ceil(exec::BATCH_ROWS as u64);
    if selected_rows == 0 {
        // Keep the aggregate slot in the sequence so shapes stay stable.
        sink.record(OperatorProfile {
            label: "aggregate".to_string(),
            batches: agg_batches,
            ..OperatorProfile::default()
        });
        return Ok(groups);
    }
    let agg_started = sink.begin();
    let accumulator = Accumulator::new(resolved);

    if group_columns.is_empty() {
        // Global aggregation: one group, no per-row key hashing at all; the
        // unfiltered case collapses the ID list into one run.
        groups.insert(Vec::new(), accumulator.global(partition, sel.as_ref())?);
    } else if group_columns.len() == 1 && inflation == 1 {
        // Single-u64-key fast path: hash a bare u64 per row instead of
        // allocating and hashing a Vec<u64> key.
        let keys = typed_slice!(partition, group_columns[0], u64_slice, "UInt64")?;
        let mut fast: HashMap<u64, PartialGroup> = HashMap::new();
        for_each_selected(sel.as_ref(), n, |row| {
            let Some(&key) = keys.get(row) else {
                return Err(SeabedError::engine(format!(
                    "group column {} shorter than partition",
                    group_columns[0]
                )));
            };
            let group = fast.entry(key).or_insert_with(|| accumulator.empty.clone());
            accumulator.observe(group, partition, row);
            Ok(())
        })?;
        groups.extend(fast.into_iter().map(|(k, group)| (vec![k], group)));
    } else {
        // General composite-key path (multiple group columns and/or an
        // inflation suffix): key columns are resolved to slices once, the
        // per-row Vec<u64> key remains inherent to composite keys.
        let key_cols: Vec<&[u64]> = group_columns
            .iter()
            .map(|&c| typed_slice!(partition, c, u64_slice, "UInt64"))
            .collect::<Result<_, _>>()?;
        for_each_selected(sel.as_ref(), n, |row| {
            let mut key: Vec<u64> = Vec::with_capacity(key_cols.len() + usize::from(inflation > 1));
            for col in &key_cols {
                let Some(&cell) = col.get(row) else {
                    return Err(SeabedError::engine("group column shorter than partition"));
                };
                key.push(cell);
            }
            if inflation > 1 {
                key.push(splitmix64(partition.row_id(row)) % inflation);
            }
            let group = groups.entry(key).or_insert_with(|| accumulator.empty.clone());
            accumulator.observe(group, partition, row);
            Ok(())
        })?;
    }
    sink.finish(
        agg_started,
        "aggregate",
        selected_rows as u64,
        groups.len() as u64,
        agg_batches,
    );
    Ok(groups)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let config = ClusterConfig::with_workers(8).exec_mode(mode);
        SeabedServer::new(test_table(rows), Cluster::new(config))
    }

    fn server(rows: u64) -> SeabedServer {
        server_with_mode(rows, ExecMode::Vectorized)
    }

    fn sum_query(group_by: Vec<GroupByColumn>, inflation: u32) -> TranslatedQuery {
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
            group_inflation: inflation,
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
            let resp = s.execute(&sum_query(vec![], 1), &[])?;
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
            assert!(resp.result_bytes > 0);
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
            let resp = s.execute(&sum_query(vec![], 1), &filters)?;
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
        let resp = s.execute(&sum_query(vec![], 1), &filters)?;
        assert!(
            matches!(&resp.groups[0].aggregates[1], EncryptedAggregate::Count { rows } if *rows == 20),
            "unexpected aggregate {:?}",
            resp.groups[0].aggregates[1]
        );
        Ok(())
    }

    #[test]
    fn group_by_with_and_without_inflation() -> Result<(), SeabedError> {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let s = server_with_mode(1000, mode);
            let plain = s.execute(&sum_query(group_by_g(), 1), &[])?;
            assert_eq!(plain.groups.len(), 5);
            let inflated = s.execute(&sum_query(group_by_g(), 10), &[])?;
            assert_eq!(inflated.groups.len(), 50, "5 groups × 10-way inflation");
            // Sum across inflated groups equals the plain total.
            let total = |resp: &ServerResponse| -> u64 {
                resp.groups
                    .iter()
                    .map(|g| match &g.aggregates[0] {
                        EncryptedAggregate::AsheSum { value, .. } => *value,
                        _ => 0,
                    })
                    .fold(0u64, |a, b| a.wrapping_add(b))
            };
            assert_eq!(total(&plain), total(&inflated));
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
        for (group_by, inflation) in [(vec![], 1u32), (group_by_g(), 1), (group_by_g(), 7)] {
            let query = sum_query(group_by, inflation);
            let scalar = server_with_mode(997, ExecMode::Scalar).execute(&query, &filters)?;
            let vectorized = server_with_mode(997, ExecMode::Vectorized).execute(&query, &filters)?;
            assert_eq!(scalar.groups, vectorized.groups);
            assert_eq!(scalar.result_bytes, vectorized.result_bytes);
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
            let resp = s.execute(&sum_query(vec![], 1), &filters)?;
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
        for (group_by, inflation) in [(vec![], 1u32), (group_by_g(), 1), (group_by_g(), 4)] {
            let query = sum_query(group_by, inflation);
            let direct = s.execute(&query, &[])?;
            let partial = s.execute_partial(&query, &[])?;
            assert!(partial.shuffle_bytes(&query) > 0);
            let reassembled = finalize_partials(&query, partial.groups, partial.stats);
            assert_eq!(direct.groups, reassembled.groups);
            assert_eq!(direct.result_bytes, reassembled.result_bytes);
        }
        Ok(())
    }

    /// Degenerate cluster configurations (zero workers / zero local threads)
    /// used to reach the execution path unchecked; they are now rejected with
    /// a typed error before any scan starts.
    #[test]
    fn degenerate_cluster_config_is_rejected_at_execution() {
        for config in [
            ClusterConfig::with_workers(0),
            ClusterConfig::with_workers(8).local_threads(0),
        ] {
            let s = SeabedServer::new(test_table(10), Cluster::new(config));
            assert!(matches!(
                s.execute(&sum_query(vec![], 1), &[]),
                Err(SeabedError::Engine(_))
            ));
        }
    }

    #[test]
    fn unknown_column_is_a_schema_error() {
        let s = server(10);
        let mut q = sum_query(vec![], 1);
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
            s.execute(&sum_query(vec![], 1), &filters),
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
            let s = SeabedServer::new(table, Cluster::new(ClusterConfig::with_workers(4).exec_mode(mode)));
            let outcome = s.execute(&sum_query(group_by_g(), 1), &[]);
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
            let s = SeabedServer::new(
                table.clone(),
                Cluster::new(ClusterConfig::with_workers(4).exec_mode(mode)),
            );
            let mut q = sum_query(vec![], 1);
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
            let s = SeabedServer::new(
                table.clone(),
                Cluster::new(ClusterConfig::with_workers(4).exec_mode(mode)),
            );
            let honest = s.execute(&sum_query(vec![], 1), &[filter(ore.encrypt(10).symbols)])?;
            assert!(
                matches!(&honest.groups[0].aggregates[1], EncryptedAggregate::Count { rows: 10 }),
                "{mode:?}: {:?}",
                honest.groups[0]
            );
            // Empty, truncated, one byte over, and the one-byte-per-symbol width.
            for width in [0, ORE_CELL_BYTES - 1, ORE_CELL_BYTES + 1, 4 * ORE_CELL_BYTES] {
                let outcome = s.execute(&sum_query(vec![], 1), &[filter(vec![0; width])]);
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
                let mut one = sum_query(group_by, 1);
                one.aggregates = vec![sum("m__ashe")];
                let mut three = one.clone();
                three.aggregates = vec![sum("m__ashe"), sum("g__det"), ServerAggregate::CountRows];

                let (one_resp, three_resp) = (s.execute(&one, &filters)?, s.execute(&three, &filters)?);
                let groups = one_resp.groups.len();
                assert_eq!(three_resp.result_bytes, one_resp.result_bytes + 16 * groups);
                for (a, b) in one_resp.groups.iter().zip(&three_resp.groups) {
                    assert!(a.ids.is_some() && a.ids == b.ids, "the same list, once");
                    assert_eq!(b.byte_len(), a.byte_len() + 16);
                }

                let (one_part, three_part) = (s.execute_partial(&one, &filters)?, s.execute_partial(&three, &filters)?);
                assert_eq!(
                    three_part.shuffle_bytes(&three),
                    one_part.shuffle_bytes(&one) + 8 * groups
                );
                // One more word per (partition, group) — every group has rows
                // in each of the four partitions; a count adds none.
                assert_eq!(
                    three_part.stats.bytes_to_driver,
                    one_part.stats.bytes_to_driver + 8 * 4 * groups
                );
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
            let s = SeabedServer::new(
                table.clone(),
                Cluster::new(ClusterConfig::with_workers(4).exec_mode(mode)),
            );
            let mut q = sum_query(vec![], 1);
            q.aggregates = vec![ServerAggregate::OpeMax {
                column: "o__ope".to_string(),
            }];
            let partial = s.execute_partial(&q, &[])?;
            assert!(partial.groups.values().all(|group| group.ids.is_empty()), "{mode:?}");
            assert_eq!(partial.shuffle_bytes(&q), 16 + 8);
            let resp = s.execute(&q, &[])?;
            assert_eq!(resp.groups[0].ids, None);
            assert_eq!(resp.result_bytes, 16);
        }
        Ok(())
    }

    /// Same for a group column that is shorter than its partition.
    #[test]
    fn short_group_column_is_an_error() {
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let mut table = test_table(100);
            table.partitions[0].columns[2] = ColumnData::UInt64(vec![5]);
            let s = SeabedServer::new(table, Cluster::new(ClusterConfig::with_workers(4).exec_mode(mode)));
            assert!(
                matches!(
                    s.execute(&sum_query(group_by_g(), 1), &[]),
                    Err(SeabedError::Schema(SchemaError::CorruptPartition { .. }))
                ),
                "{mode:?}"
            );
        }
    }
}
