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
//!   ones. Aggregation is then driven off the final selection vector,
//!   reading each needed column as a contiguous slice instead of through
//!   per-row dynamic accessors.
//!
//! # Selection-vector representation
//!
//! A [`SelectionVector`] is a sorted list of `u32` row offsets into one
//! partition (partitions are capped at [`MAX_PARTITION_ROWS`] rows, which a
//! horizontal partition of a sharded table never approaches). A sorted index
//! list was chosen over a bitmap because Seabed's filters are usually
//! selective and its aggregates must visit selected rows in ascending order
//! anyway — ASHE ID lists are run-length encoded, and an ascending selection
//! is one pass away from its maximal runs (consecutive offsets extend a run),
//! for the whole selection or, after a stable counting sort, for each
//! group's slice of it. All kernels preserve the ordering invariant:
//! refinement only removes elements.
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

/// Maps distinct group keys — `width` words each — to small integers, first
/// seen first: open addressing over a power-of-two table at most half full, a
/// multiply-shift hash of the key words. A partition scan numbers its rows'
/// groups with one ([`group_rows`]), the driver the partitions' groups. The
/// keys are a stored column's cells (DET tags, public values), not something
/// a peer sends with a query, so the hash is not keyed; the data's owner
/// could at worst slow down scans of their own table.
#[derive(Clone, Debug)]
pub struct GroupIndex {
    width: usize,
    /// The distinct keys, `width` words each, in first-seen order.
    keys: Vec<u64>,
    /// How many keys there are (`keys.len() / width`, but for `width` 0).
    groups: usize,
    /// Group number plus one; zero marks an empty slot.
    slots: Vec<u32>,
}

impl GroupIndex {
    /// An empty index over keys of `width` words (none for the one group of
    /// a global aggregate).
    pub fn new(width: usize) -> GroupIndex {
        GroupIndex {
            width,
            keys: Vec::new(),
            groups: 0,
            slots: vec![0; 64],
        }
    }

    /// Number of distinct keys seen.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// The key of group `group`.
    pub fn key(&self, group: usize) -> &[u64] {
        &self.keys[group * self.width..][..self.width]
    }

    /// The slot `key` starts probing at: the top bits of a multiply-shift
    /// hash, which every bit of every word reaches.
    fn home(&self, key: &[u64]) -> usize {
        let hash = key.iter().fold(0u64, |h, &word| {
            (h.rotate_left(29) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        });
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The number of `key`'s group, a new one if it has not been seen.
    pub fn group_of(&mut self, key: &[u64]) -> u32 {
        debug_assert_eq!(key.len(), self.width);
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        while let Some(group) = self.slots[at].checked_sub(1) {
            if self.key(group as usize) == key {
                return group;
            }
            at = (at + 1) & mask;
        }
        let group = self.groups as u32;
        self.keys.extend_from_slice(key);
        self.groups += 1;
        self.slots[at] = group + 1;
        if self.groups * 2 > self.slots.len() {
            self.grow();
        }
        group
    }

    /// Doubles the table and re-seats every group.
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        self.slots.clear();
        self.slots.resize(doubled, 0);
        for group in 0..self.groups {
            let mut at = self.home(self.key(group));
            while self.slots[at] != 0 {
                at = (at + 1) & (doubled - 1);
            }
            self.slots[at] = group as u32 + 1;
        }
    }
}

/// The selected rows of a partition laid out group after group
/// ([`group_rows`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupedRows {
    /// The distinct group keys in first-seen order, `key_width` words each.
    pub keys: Vec<u64>,
    /// The selected row offsets, sorted by group and ascending within each.
    pub rows: Vec<u32>,
    /// Group `g`'s rows are `rows[starts[g]..starts[g + 1]]`: one entry more
    /// than there are groups.
    pub starts: Vec<usize>,
}

impl GroupedRows {
    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The rows of group `group`, ascending.
    pub fn rows_of(&self, group: usize) -> &[u32] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
    }
}

/// Group-by kernel: numbers the group of every selected row — `rows`
/// ascending, `None` for all `n` rows of the partition — through a
/// [`GroupIndex`], then lays the rows out group after group with a stable
/// counting sort, so each group's slice stays ascending. `key_of` writes the
/// `key_width`-word group key of a row offset into the buffer it is handed;
/// no key is allocated per row and nothing is hashed twice.
pub fn group_rows(
    rows: Option<&[u32]>,
    n: usize,
    key_width: usize,
    mut key_of: impl FnMut(usize, &mut [u64]),
) -> GroupedRows {
    debug_assert!(n <= MAX_PARTITION_ROWS);
    let mut index = GroupIndex::new(key_width);
    let mut key = vec![0u64; key_width];
    let mut group_of = |row: u32| {
        key_of(row as usize, &mut key);
        index.group_of(&key)
    };
    let groups_of_rows: Vec<u32> = match rows {
        None => (0..n as u32).map(&mut group_of).collect(),
        Some(rows) => rows.iter().map(|&row| group_of(row)).collect(),
    };
    let mut starts = vec![0usize; index.groups + 1];
    for &group in &groups_of_rows {
        starts[group as usize + 1] += 1;
    }
    for group in 0..index.groups {
        starts[group + 1] += starts[group];
    }
    let mut cursors = starts.clone();
    let mut sorted = vec![0u32; groups_of_rows.len()];
    for (at, &group) in groups_of_rows.iter().enumerate() {
        sorted[cursors[group as usize]] = rows.map_or(at as u32, |rows| rows[at]);
        cursors[group as usize] += 1;
    }
    GroupedRows {
        keys: index.keys,
        rows: sorted,
        starts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The index numbers keys in first-seen order through every growth step,
    /// whatever half of the word they differ in, at any width.
    #[test]
    fn group_index_numbers_keys_in_first_seen_order() {
        type KeyFamily = (&'static str, fn(u64) -> u64);
        let families: [KeyFamily; 4] = [
            ("dense", |i| i),
            ("high half", |i| i << 32 | 0xdead_beef),
            ("low half", |i| 0xabcd_0000_0000_0000 | i),
            ("multiples of 2^40", |i| i << 40),
        ];
        for (name, key) in families {
            for width in [1usize, 2] {
                let mut index = GroupIndex::new(width);
                let full = |i: u64| if width == 1 { vec![key(i)] } else { vec![7, key(i)] };
                for round in 0..2 {
                    for i in 0..1_000u64 {
                        assert_eq!(
                            index.group_of(&full(i)),
                            i as u32,
                            "{name}, width {width}, round {round}"
                        );
                    }
                }
                assert_eq!(index.groups(), 1_000);
                assert_eq!(index.key(999), &full(999)[..]);
                assert!(index.slots.len() >= 2_000, "at most half full");
            }
        }
        // No key words: the one group of a global aggregate.
        let mut global = GroupIndex::new(0);
        assert_eq!((global.group_of(&[]), global.group_of(&[])), (0, 0));
        assert_eq!((global.groups(), global.key(0)), (1, &[][..]));
    }

    /// `group_rows` ≡ the obvious stable grouping, over a selection and over
    /// the whole partition.
    #[test]
    fn group_rows_is_a_stable_grouping_by_key() {
        let n = 5_000usize;
        let col: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55)
            .collect();
        let selection: Vec<u32> = (0..n as u32).filter(|row| row % 3 != 1).collect();
        for rows in [None, Some(&selection[..])] {
            let grouped = group_rows(rows, n, 1, |row, key| key[0] = col[row]);
            let all: Vec<u32> = (0..n as u32).collect();
            let mut expected: Vec<(u64, Vec<u32>)> = Vec::new();
            for &row in rows.unwrap_or(&all) {
                match expected.iter_mut().find(|(key, _)| *key == col[row as usize]) {
                    Some((_, members)) => members.push(row),
                    None => expected.push((col[row as usize], vec![row])),
                }
            }
            assert_eq!(grouped.groups(), expected.len());
            assert!(grouped.groups() > 300, "the index grew: {} groups", grouped.groups());
            for (group, (key, members)) in expected.iter().enumerate() {
                assert_eq!(grouped.keys[group], *key);
                assert_eq!(grouped.rows_of(group), &members[..], "group {group}");
            }
        }
        assert_eq!(group_rows(Some(&[]), n, 1, |_, _| unreachable!()).groups(), 0);
    }

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
        let n = 2 * 1024 + 3;
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
