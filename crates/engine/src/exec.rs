//! Vectorized execution primitives: selection vectors and batched kernels.
//!
//! # Scalar vs vectorized execution
//!
//! The engine supports two per-partition scan disciplines, selected by
//! [`ExecMode`] on the cluster configuration:
//!
//! * **Scalar** — the reference path: every filter is re-evaluated for every
//!   row, and each matching row is pushed through the aggregation state one
//!   at a time. Simple, obviously correct, and the baseline the differential
//!   test suite pins the fast path against.
//! * **Vectorized** — the fast path: filters run *column at a time* over a
//!   shrinking [`SelectionVector`], cheapest filter first, so each subsequent
//!   (more expensive) filter only touches the rows that survived the earlier
//!   ones. Aggregation is then driven off the final selection vector in
//!   batches of [`BATCH_ROWS`] rows, reading each needed column as a
//!   contiguous slice instead of through per-row dynamic accessors.
//!
//! # Selection-vector representation
//!
//! A [`SelectionVector`] is a sorted list of `u32` row offsets into one
//! partition (partitions are capped at [`MAX_PARTITION_ROWS`] rows, which a
//! horizontal partition of a sharded table never approaches). A sorted index
//! list was chosen over a bitmap because Seabed's filters are usually
//! selective and its aggregates must visit selected rows in ascending order
//! anyway — ASHE ID lists are run-length encoded, so ordered iteration keeps
//! `IdSet::push_ordered` O(1) per row. All kernels preserve the ordering
//! invariant: refinement only removes elements.
//!
//! The kernels themselves are deliberately tiny and generic over a predicate:
//! callers hoist the per-filter dispatch (which comparison operator, which
//! literal) *out* of the loop so each call monomorphizes into a tight scan
//! over one column. There are two loops, [`select_rows`] (dense: every row of
//! the partition into a fresh selection) and [`refine_rows`] (compact an
//! existing selection in place); the `u64` forms are the same loops with the
//! cell read folded into the predicate. Neither branches on the predicate:
//! a range filter keeps about half its rows in no pattern a predictor can
//! learn, so a conditional `push` would mispredict on every other row. Each
//! row is instead written at the cursor unconditionally and the cursor
//! advances by `usize::from(pred)`.

use std::time::Instant;

/// How the server executes the per-partition scan of a query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Row-at-a-time reference execution (the original Seabed scan loop).
    Scalar,
    /// Column-at-a-time execution over selection vectors (the default).
    #[default]
    Vectorized,
}

/// Rows per aggregation batch on the vectorized path. One batch of `u32`
/// offsets (4 KiB) plus the touched column stripe stays comfortably inside L1.
pub const BATCH_ROWS: usize = 1024;

/// Maximum number of rows a single partition may hold for vectorized
/// execution (`u32` row offsets).
pub const MAX_PARTITION_ROWS: usize = u32::MAX as usize;

/// A sorted set of selected row offsets within one partition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionVector {
    rows: Vec<u32>,
}

impl SelectionVector {
    /// An empty selection.
    pub fn new() -> SelectionVector {
        SelectionVector { rows: Vec::new() }
    }

    /// Selects every row of an `n`-row partition.
    ///
    /// `n` must not exceed [`MAX_PARTITION_ROWS`]; callers validate partition
    /// sizes before building selections.
    pub fn all(n: usize) -> SelectionVector {
        debug_assert!(n <= MAX_PARTITION_ROWS);
        SelectionVector {
            rows: (0..n as u32).collect(),
        }
    }

    /// Builds a selection from sorted row offsets (test/bench helper; the
    /// ordering invariant is the caller's responsibility).
    pub fn from_sorted_rows(rows: Vec<u32>) -> SelectionVector {
        debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "selection must be sorted");
        SelectionVector { rows }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The selected row offsets, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The selection in batches of at most [`BATCH_ROWS`] rows, for
    /// cache-friendly aggregation loops.
    pub fn batches(&self) -> impl Iterator<Item = &[u32]> {
        self.rows.chunks(BATCH_ROWS)
    }
}

/// Measured execution profile of one plan operator (one filter kernel, one
/// aggregation pass, or one coordinator stage).
///
/// Labels are structural identifiers — a filter class plus a *physical*
/// column name (`"filter:det:dept"`), an aggregation slot (`"aggregate"`),
/// or a stage name (`"gather"`). They never carry predicate literals or SQL
/// text, so a profile can cross the redacted observability surface
/// unmodified.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OperatorProfile {
    /// Structural operator label (class + physical column, never a literal).
    pub label: String,
    /// Rows the operator looked at (partition rows for a dense select, the
    /// surviving selection for a refinement).
    pub rows_in: u64,
    /// Rows that survived the operator (selection survivors; groups for the
    /// aggregation slot).
    pub rows_out: u64,
    /// Number of batches / passes the operator ran.
    pub batches: u64,
    /// Wall-clock nanoseconds spent inside the operator.
    pub nanos: u64,
}

impl OperatorProfile {
    /// Adds another measurement of the *same* operator (another partition or
    /// shard) into this one. Counters sum; the label is kept.
    pub fn absorb(&mut self, other: &OperatorProfile) {
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.batches += other.batches;
        self.nanos += other.nanos;
    }
}

/// Merges two per-operator breakdowns shard-wise.
///
/// * one side empty → the other side, unchanged (plain executions carry no
///   profiles, so merging them is free);
/// * same operator sequence (equal length, matching labels) → element-wise
///   [`OperatorProfile::absorb`] — partitions and shards of the same plan sum
///   into one breakdown;
/// * different shapes → concatenation, so nothing measured is ever dropped
///   (heterogeneous stages keep their own entries).
pub fn merge_operator_profiles(a: &[OperatorProfile], b: &[OperatorProfile]) -> Vec<OperatorProfile> {
    if a.is_empty() {
        return b.to_vec();
    }
    if b.is_empty() {
        return a.to_vec();
    }
    if a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.label == y.label) {
        return a
            .iter()
            .zip(b)
            .map(|(x, y)| {
                let mut merged = x.clone();
                merged.absorb(y);
                merged
            })
            .collect();
    }
    let mut out = a.to_vec();
    out.extend_from_slice(b);
    out
}

/// A per-operator profile collector threaded through the scan kernels.
///
/// Zero-cost when disabled: [`ProfileSink::begin`] returns `None` without
/// touching the clock, [`ProfileSink::finish`] on a `None` start is a single
/// branch, and no allocation happens until the first recorded operator. The
/// instrumented-off scan therefore executes the exact same instruction
/// sequence as an uninstrumented one, which is what keeps plain execution
/// byte-identical and inside the profiling-overhead budget.
#[derive(Debug, Default)]
pub struct ProfileSink {
    enabled: bool,
    operators: Vec<OperatorProfile>,
}

impl ProfileSink {
    /// A sink that records nothing (the plain-execution default).
    pub fn disabled() -> ProfileSink {
        ProfileSink {
            enabled: false,
            operators: Vec::new(),
        }
    }

    /// A sink that records every operator (the `EXPLAIN ANALYZE` path).
    pub fn enabled() -> ProfileSink {
        ProfileSink {
            enabled: true,
            operators: Vec::new(),
        }
    }

    /// Whether this sink records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Starts timing one operator. `None` when disabled — the clock is never
    /// read on the plain path.
    pub fn begin(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Finishes the operator started by [`ProfileSink::begin`], recording its
    /// measurements. A `None` start (disabled sink) records nothing.
    pub fn finish(&mut self, started: Option<Instant>, label: &str, rows_in: u64, rows_out: u64, batches: u64) {
        if let Some(t0) = started {
            self.operators.push(OperatorProfile {
                label: label.to_string(),
                rows_in,
                rows_out,
                batches,
                nanos: t0.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Records a fully measured operator (for stages timed externally).
    pub fn record(&mut self, profile: OperatorProfile) {
        if self.enabled {
            self.operators.push(profile);
        }
    }

    /// The recorded operators, in execution order.
    pub fn into_operators(self) -> Vec<OperatorProfile> {
        self.operators
    }
}

/// Dense first-filter kernel: selects the rows of an `n`-row partition whose
/// offset satisfies `pred`, without materialising an all-rows selection.
///
/// The append is branch-free: every row is written at the cursor and the
/// cursor advances only when it matched, so a predicate that holds for half
/// the rows costs no mispredicted branch. The price is one `n`-sized buffer
/// per call, whatever the selectivity.
pub fn select_rows(n: usize, mut pred: impl FnMut(usize) -> bool) -> SelectionVector {
    debug_assert!(n <= MAX_PARTITION_ROWS);
    let mut rows = vec![0u32; n];
    let mut kept = 0usize;
    for row in 0..n {
        rows[kept] = row as u32;
        kept += usize::from(pred(row));
    }
    rows.truncate(kept);
    SelectionVector { rows }
}

/// Dense first-filter kernel over a `u64` column: one tight pass, no per-row
/// accessor indirection. The predicate sees the cell value.
pub fn select_u64(col: &[u64], mut pred: impl FnMut(u64) -> bool) -> SelectionVector {
    select_rows(col.len(), |row| pred(col[row]))
}

/// Refinement kernel over a `u64` column: keeps the already-selected rows
/// whose cell satisfies `pred`. Rows past the end of `col` (corrupt
/// partitions; callers validate lengths up front) are deselected.
pub fn refine_u64(sel: &mut SelectionVector, col: &[u64], mut pred: impl FnMut(u64) -> bool) {
    refine_rows(sel, |row| col.get(row).is_some_and(|&v| pred(v)));
}

/// Refinement kernel with a row-offset predicate, for columns whose cells are
/// not plain `u64`s (strings, ORE ciphertext bytes). Compacts the selection in
/// place, branch-free like [`select_rows`]: the write cursor never passes the
/// read cursor, so survivors keep their ascending order.
pub fn refine_rows(sel: &mut SelectionVector, mut pred: impl FnMut(usize) -> bool) {
    let mut kept = 0usize;
    for at in 0..sel.rows.len() {
        let row = sel.rows[at];
        sel.rows[kept] = row;
        kept += usize::from(pred(row as usize));
    }
    sel.rows.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_and_len() {
        let sel = SelectionVector::all(5);
        assert_eq!(sel.rows(), &[0, 1, 2, 3, 4]);
        assert_eq!(sel.len(), 5);
        assert!(!sel.is_empty());
        assert!(SelectionVector::all(0).is_empty());
        assert!(SelectionVector::new().is_empty());
    }

    #[test]
    fn select_and_refine_u64() {
        let col: Vec<u64> = (0..100).collect();
        let mut sel = select_u64(&col, |v| v % 2 == 0);
        assert_eq!(sel.len(), 50);
        refine_u64(&mut sel, &col, |v| v < 10);
        assert_eq!(sel.rows(), &[0, 2, 4, 6, 8]);
        refine_u64(&mut sel, &col, |_| false);
        assert!(sel.is_empty());
    }

    #[test]
    fn refine_preserves_order_and_is_intersection() {
        let col: Vec<u64> = (0..1000).map(|i| i * 7 % 13).collect();
        let mut a = SelectionVector::all(col.len());
        refine_u64(&mut a, &col, |v| v > 6);
        let b = select_u64(&col, |v| v > 6);
        assert_eq!(a, b);
        assert!(a.rows().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn refine_deselects_out_of_range_rows() {
        let mut sel = SelectionVector::from_sorted_rows(vec![0, 5, 9]);
        let short_col = vec![1u64; 6];
        refine_u64(&mut sel, &short_col, |_| true);
        assert_eq!(sel.rows(), &[0, 5], "row 9 is past the column end");
    }

    /// The branch-free kernels against `Vec::retain`, the obvious way to
    /// write them: same survivors, same order, at every selectivity.
    #[test]
    fn kernels_match_retain_at_every_selectivity() {
        let mut state = 7u64;
        let mut coin = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 63 == 1
        };
        let n = 2 * BATCH_ROWS + 3;
        let patterns: Vec<(&str, Vec<bool>)> = vec![
            ("none", vec![false; n]),
            ("all", vec![true; n]),
            ("alternating", (0..n).map(|i| i % 2 == 0).collect()),
            ("random", (0..n).map(|_| coin()).collect()),
            ("first only", (0..n).map(|i| i == 0).collect()),
            ("last only", (0..n).map(|i| i == n - 1).collect()),
            ("empty input", Vec::new()),
        ];
        for (name, keep) in &patterns {
            let n = keep.len();
            let col: Vec<u64> = keep.iter().map(|&k| u64::from(k)).collect();
            let mut expected: Vec<u32> = (0..n as u32).collect();
            expected.retain(|&row| keep[row as usize]);

            assert_eq!(select_rows(n, |row| keep[row]).rows(), expected, "select_rows, {name}");
            assert_eq!(select_u64(&col, |v| v == 1).rows(), expected, "select_u64, {name}");

            // Refine a selection that already skips every third row.
            let start: Vec<u32> = (0..n as u32).filter(|row| row % 3 != 0).collect();
            let mut expected = start.clone();
            expected.retain(|&row| keep[row as usize]);
            let mut sel = SelectionVector::from_sorted_rows(start.clone());
            refine_rows(&mut sel, |row| keep[row]);
            assert_eq!(sel.rows(), expected, "refine_rows, {name}");
            let mut sel = SelectionVector::from_sorted_rows(start);
            refine_u64(&mut sel, &col, |v| v == 1);
            assert_eq!(sel.rows(), expected, "refine_u64, {name}");
        }
    }

    #[test]
    fn batches_cover_everything_once() {
        let sel = SelectionVector::all(BATCH_ROWS * 2 + 17);
        let mut seen = 0usize;
        for batch in sel.batches() {
            assert!(batch.len() <= BATCH_ROWS);
            seen += batch.len();
        }
        assert_eq!(seen, sel.len());
    }

    #[test]
    fn select_rows_generic() {
        let names = ["a", "b", "a", "c", "a"];
        let sel = select_rows(names.len(), |row| names[row] == "a");
        assert_eq!(sel.rows(), &[0, 2, 4]);
    }

    #[test]
    fn exec_mode_defaults_to_vectorized() {
        assert_eq!(ExecMode::default(), ExecMode::Vectorized);
    }

    #[test]
    fn disabled_sink_records_nothing_and_never_reads_the_clock() {
        let mut sink = ProfileSink::disabled();
        assert!(!sink.is_enabled());
        let t0 = sink.begin();
        assert!(t0.is_none(), "disabled sink must not touch the clock");
        sink.finish(t0, "filter:plain:v", 100, 50, 1);
        sink.record(OperatorProfile {
            label: "aggregate".into(),
            rows_in: 50,
            rows_out: 3,
            batches: 1,
            nanos: 1,
        });
        assert!(sink.into_operators().is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let mut sink = ProfileSink::enabled();
        let t0 = sink.begin();
        assert!(t0.is_some());
        sink.finish(t0, "filter:plain:v", 100, 50, 1);
        let t1 = sink.begin();
        sink.finish(t1, "aggregate", 50, 3, 1);
        let ops = sink.into_operators();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].label, "filter:plain:v");
        assert_eq!((ops[0].rows_in, ops[0].rows_out, ops[0].batches), (100, 50, 1));
        assert_eq!(ops[1].label, "aggregate");
    }

    #[test]
    fn profile_merge_sums_matching_shapes_and_keeps_mismatches() {
        let op = |label: &str, rows_in: u64| OperatorProfile {
            label: label.to_string(),
            rows_in,
            rows_out: rows_in / 2,
            batches: 1,
            nanos: 10,
        };
        let a = vec![op("filter:det:dept", 100), op("aggregate", 50)];
        let b = vec![op("filter:det:dept", 60), op("aggregate", 30)];
        let merged = merge_operator_profiles(&a, &b);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].rows_in, 160);
        assert_eq!(merged[0].rows_out, 80);
        assert_eq!(merged[0].batches, 2);
        assert_eq!(merged[0].nanos, 20);

        // One side empty: the other passes through unchanged.
        assert_eq!(merge_operator_profiles(&a, &[]), a);
        assert_eq!(merge_operator_profiles(&[], &b), b);

        // Shape mismatch: concatenate, never drop measurements.
        let c = vec![op("scan:scalar", 10)];
        let cat = merge_operator_profiles(&a, &c);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat[2].label, "scan:scalar");
    }
}
