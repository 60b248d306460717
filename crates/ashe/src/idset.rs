//! Sets of row identifiers attached to ASHE ciphertexts.
//!
//! Every homomorphic addition in ASHE unions the identifier multisets of its
//! operands (§3.1). Seabed keeps each set as a list of maximal runs, which is
//! what makes the scheme practical: when the aggregated rows are contiguous,
//! the whole set collapses to a single run and decryption costs two PRF
//! evaluations regardless of how many rows were summed (§3.2).
//!
//! Identifier *multisets* degenerate to sets in Seabed because the planner
//! assigns every row a unique identifier and a query folds each row at most
//! once; [`IdSet::union`] is nonetheless a *total* set union — overlapping
//! operands (possible only with forged or duplicated partial results from an
//! untrusted worker) coalesce canonically instead of panicking the merge.

use seabed_encoding::{
    append_encoded, decode_runs, encode_runs, encoded_size, ids_to_runs, smallest_encoding, IdListEncoding, Run,
};

/// A set of row identifiers stored as sorted, non-overlapping, maximal runs.
#[derive(Clone, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IdSet {
    runs: Vec<Run>,
}

impl IdSet {
    /// The empty set.
    pub fn new() -> IdSet {
        IdSet::default()
    }

    /// A set holding a single identifier.
    pub fn single(id: u64) -> IdSet {
        IdSet {
            runs: vec![Run::new(id, id)],
        }
    }

    /// A set holding the contiguous range `[start, end]` (inclusive).
    pub fn range(start: u64, end: u64) -> IdSet {
        IdSet {
            runs: vec![Run::new(start, end)],
        }
    }

    /// Builds a set from a sorted list of identifiers (duplicates are ignored).
    pub fn from_sorted_ids(ids: &[u64]) -> IdSet {
        IdSet { runs: ids_to_runs(ids) }
    }

    /// Builds a set from pre-computed runs (must be sorted, non-overlapping,
    /// maximal — checked in debug builds).
    pub fn from_runs(runs: Vec<Run>) -> IdSet {
        debug_assert!(
            runs.windows(2).all(|w| w[0].end + 1 < w[1].start),
            "runs must be sorted, disjoint and non-adjacent"
        );
        IdSet { runs }
    }

    /// The runs of this set.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Number of identifiers in the set.
    pub fn count(&self) -> u64 {
        self.runs.iter().map(|r| r.len()).sum()
    }

    /// Number of runs; this — not [`IdSet::count`] — is what decryption cost
    /// scales with.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True if the set holds no identifiers.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// True if `id` is a member.
    pub fn contains(&self, id: u64) -> bool {
        self.runs
            .binary_search_by(|r| {
                if id < r.start {
                    std::cmp::Ordering::Greater
                } else if id > r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Appends an identifier that is strictly greater than every current
    /// member — the common case when a worker scans its partition in order.
    pub fn push_ordered(&mut self, id: u64) {
        match self.runs.last_mut() {
            Some(run) if id == run.end + 1 => run.end = id,
            Some(run) => {
                assert!(
                    id > run.end,
                    "push_ordered requires increasing ids (got {id} after {})",
                    run.end
                );
                self.runs.push(Run::new(id, id));
            }
            None => self.runs.push(Run::new(id, id)),
        }
    }

    /// Unions two sets, keeping the result in canonical maximal-run form.
    ///
    /// In the query pipeline the operands are always disjoint (the ⊕ of two
    /// ciphertexts that each cover different rows), but the operation is
    /// total: overlapping or adjacent runs coalesce instead of panicking or
    /// producing a non-canonical set, so a forged or duplicated partial
    /// result gathered from an untrusted worker can never take down the
    /// merging side.
    pub fn union(&self, other: &IdSet) -> IdSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        IdSet {
            runs: union_runs(&self.runs, &other.runs),
        }
    }

    /// Folds `other` into `self`: [`IdSet::union`], consuming the operand —
    /// see [`IdSet::merge_runs`].
    pub fn merge(&mut self, other: IdSet) {
        if self.runs.is_empty() {
            self.runs = other.runs;
        } else {
            self.merge_runs(&other.runs);
        }
    }

    /// Folds the set `runs` spells (sorted, non-overlapping, maximal —
    /// checked in debug builds, as for [`IdSet::from_runs`]) into `self`.
    ///
    /// Partitions and shards are merged in row order, so the operand nearly
    /// always lies wholly above `self`: its runs are then appended in place,
    /// the first coalescing with `self`'s last when the two are adjacent,
    /// instead of both operands being copied into a third list. Any other
    /// operand — interleaved, overlapping, below — takes the total union.
    pub fn merge_runs(&mut self, runs: &[Run]) {
        debug_assert!(
            runs.windows(2)
                .all(|w| w[0].end < w[1].start && w[1].start - w[0].end > 1),
            "runs must be sorted, disjoint and non-adjacent"
        );
        let (Some(last), Some(first)) = (self.runs.last_mut(), runs.first()) else {
            self.runs.extend_from_slice(runs);
            return;
        };
        if first.start <= last.end {
            self.runs = union_runs(&self.runs, runs);
            return;
        }
        let seam = usize::from(first.start - 1 == last.end);
        if seam == 1 {
            last.end = first.end;
        }
        self.runs.extend_from_slice(&runs[seam..]);
    }

    /// Makes room for exactly `additional` more runs.
    pub fn reserve(&mut self, additional: usize) {
        self.runs.reserve_exact(additional);
    }

    /// Iterates over every identifier (use sparingly; the whole point of runs
    /// is to avoid materialising these).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.runs.iter().flat_map(|r| r.start..=r.end)
    }

    /// The PRF boundary pairs needed for decryption: for each run `[a, b]`,
    /// decryption adds `F(b) - F(a-1)` (identifiers saturate at 0 - 1 =
    /// `u64::MAX`, which the PRF treats as the "before the first row" marker).
    pub fn boundary_pairs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.runs.iter().map(|r| (r.end, r.start.wrapping_sub(1)))
    }

    /// Serializes the set with the given encoding.
    pub fn encode(&self, encoding: IdListEncoding) -> Vec<u8> {
        encode_runs(&self.runs, encoding)
    }

    /// Appends the set to `out` in `encoding`, whose size the caller already
    /// holds from [`IdSet::smallest_encoding`] (see
    /// [`seabed_encoding::append_encoded`]).
    pub fn append_encoded(&self, encoding: IdListEncoding, size: usize, out: &mut Vec<u8>) {
        append_encoded(&self.runs, encoding, size, out);
    }

    /// Deserializes a set; `None` on malformed input.
    pub fn decode(data: &[u8], encoding: IdListEncoding) -> Option<IdSet> {
        Some(IdSet {
            runs: decode_runs(data, encoding)?,
        })
    }

    /// Size of the serialized representation, in bytes: exactly
    /// `self.encode(encoding).len()`, in closed form (see
    /// [`seabed_encoding::encoded_size`]).
    pub fn encoded_size(&self, encoding: IdListEncoding) -> usize {
        encoded_size(&self.runs, encoding)
    }

    /// The container this set travels in — the smallest, see
    /// [`seabed_encoding::smallest_encoding`] — and its size in bytes.
    pub fn smallest_encoding(&self) -> (IdListEncoding, usize) {
        smallest_encoding(&self.runs)
    }
}

/// The union of two canonical run lists, canonical: a two-way merge in which
/// overlapping or adjacent runs coalesce (watch the `u64::MAX` edge).
fn union_runs(a: &[Run], b: &[Run]) -> Vec<Run> {
    let mut merged: Vec<Run> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    let push = |run: Run, merged: &mut Vec<Run>| match merged.last_mut() {
        Some(last) if run.start <= last.end.saturating_add(1) => {
            last.end = last.end.max(run.end);
        }
        _ => merged.push(run),
    };
    while i < a.len() && j < b.len() {
        if a[i].start <= b[j].start {
            push(a[i], &mut merged);
            i += 1;
        } else {
            push(b[j], &mut merged);
            j += 1;
        }
    }
    for &run in &a[i..] {
        push(run, &mut merged);
    }
    for &run in &b[j..] {
        push(run, &mut merged);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_count() {
        assert_eq!(IdSet::new().count(), 0);
        assert_eq!(IdSet::single(7).count(), 1);
        assert_eq!(IdSet::range(10, 19).count(), 10);
        assert_eq!(IdSet::from_sorted_ids(&[1, 2, 3, 7, 8]).run_count(), 2);
    }

    #[test]
    fn contains_checks_membership() {
        let s = IdSet::from_sorted_ids(&[1, 2, 3, 10, 20, 21]);
        for id in [1, 2, 3, 10, 20, 21] {
            assert!(s.contains(id));
        }
        for id in [0, 4, 9, 11, 19, 22, 1000] {
            assert!(!s.contains(id));
        }
    }

    #[test]
    fn push_ordered_extends_runs() {
        let mut s = IdSet::new();
        for id in [5u64, 6, 7, 10, 11, 100] {
            s.push_ordered(id);
        }
        assert_eq!(s.runs(), &[Run::new(5, 7), Run::new(10, 11), Run::new(100, 100)]);
    }

    #[test]
    #[should_panic]
    fn push_ordered_rejects_out_of_order() {
        let mut s = IdSet::single(10);
        s.push_ordered(3);
    }

    #[test]
    fn union_of_disjoint_sets() {
        let a = IdSet::from_sorted_ids(&[1, 2, 3, 100]);
        let b = IdSet::from_sorted_ids(&[4, 5, 50]);
        let u = a.union(&b);
        assert_eq!(u.runs(), &[Run::new(1, 5), Run::new(50, 50), Run::new(100, 100)]);
        assert_eq!(u.count(), 7);
        // union with the empty set is the identity
        assert_eq!(a.union(&IdSet::new()), a);
        assert_eq!(IdSet::new().union(&a), a);
    }

    #[test]
    fn union_merges_adjacent_runs_from_partitions() {
        // Two workers covering adjacent row ranges produce one run when merged
        // at the driver — the key property that keeps ID lists constant-size
        // for full scans.
        let a = IdSet::range(0, 499);
        let b = IdSet::range(500, 999);
        let u = a.union(&b);
        assert_eq!(u.run_count(), 1);
        assert_eq!(u.count(), 1000);
    }

    #[test]
    fn union_is_total_over_overlapping_operands() {
        // Overlap never arises from honest disjoint partitions, but a forged
        // or duplicated partial gathered from an untrusted worker can ship
        // one; the union must stay canonical (sorted maximal runs, each id
        // counted once) instead of panicking or double-counting.
        let a = IdSet::from_runs(vec![Run::new(1, 5), Run::new(10, 12)]);
        let b = IdSet::from_runs(vec![Run::new(4, 10), Run::new(20, 20)]);
        let u = a.union(&b);
        assert_eq!(u.runs(), &[Run::new(1, 12), Run::new(20, 20)]);
        assert_eq!(u.count(), 13);
        // Identical operands are idempotent, and the u64::MAX edge is safe.
        assert_eq!(a.union(&a), a);
        let top = IdSet::range(u64::MAX - 1, u64::MAX);
        assert_eq!(top.union(&top), top);
    }

    /// Consuming merge ≡ `union`, whatever the operands: above, adjacent,
    /// interleaved, overlapping, below, empty on either side, and up against
    /// `u64::MAX`.
    #[test]
    fn merge_equals_union_over_seeded_operand_pairs() {
        // SplitMix64: a stream of operand shapes from one seed.
        let mut state = 0x5eab_ed00_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        // A canonical set of up to `runs` runs starting at or after `from`.
        let set_from = |from: u64, runs: u64, next: &mut dyn FnMut() -> u64| {
            let mut out = Vec::new();
            let mut at = from;
            for _ in 0..runs {
                let Some(start) = at.checked_add(next() % 5) else { break };
                let end = start.saturating_add(next() % 4);
                out.push(Run::new(start, end));
                let Some(after) = end.checked_add(2) else { break };
                at = after;
            }
            IdSet::from_runs(out)
        };
        let mut shapes = [0usize; 6];
        for round in 0..6_000u64 {
            let base = if round % 3 == 0 { u64::MAX - 60 } else { next() % 100 };
            let a = set_from(base, next() % 6, &mut next);
            let shape = (round % 6) as usize;
            let b = match (shape, a.runs().last()) {
                // Wholly above, at a gap.
                (0, Some(last)) if last.end < u64::MAX - 3 => {
                    set_from(last.end + 2 + next() % 3, 1 + next() % 5, &mut next)
                }
                // Adjacent: starts right after `a` ends.
                (1, Some(last)) if last.end < u64::MAX => {
                    set_from(last.end + 1, 1 + next() % 5, &mut next).union(&IdSet::single(last.end + 1))
                }
                // Interleaved or overlapping: drawn from the same range.
                (2 | 3, _) => set_from(base, next() % 6, &mut next),
                // Below.
                (4, _) => set_from(base.saturating_sub(30), next() % 4, &mut next),
                // Empty (and whatever the guards above let through).
                _ => IdSet::new(),
            };
            shapes[shape] += usize::from(!b.is_empty());
            for (x, y) in [(&a, &b), (&b, &a)] {
                let mut merged = x.clone();
                merged.merge(y.clone());
                assert_eq!(merged, x.union(y), "{x:?} merge {y:?}");
                assert!(
                    merged
                        .runs()
                        .windows(2)
                        .all(|w| w[0].end < w[1].start && w[1].start - w[0].end > 1),
                    "not canonical: {merged:?}"
                );
            }
        }
        assert!(shapes[..5].iter().all(|&n| n > 300), "{shapes:?}");

        // The seam coalesces, and only the seam.
        let mut seam = IdSet::from_runs(vec![Run::new(1, 3), Run::new(7, 9)]);
        seam.merge(IdSet::from_runs(vec![Run::new(10, 12), Run::new(20, 20)]));
        assert_eq!(seam.runs(), &[Run::new(1, 3), Run::new(7, 12), Run::new(20, 20)]);
        let mut top = IdSet::range(5, u64::MAX - 1);
        top.merge(IdSet::single(u64::MAX));
        assert_eq!(top, IdSet::range(5, u64::MAX));
        top.merge(IdSet::single(u64::MAX));
        assert_eq!(top, IdSet::range(5, u64::MAX));
    }

    #[test]
    fn boundary_pairs_telescoping() {
        let s = IdSet::from_runs(vec![Run::new(3, 9), Run::new(20, 25)]);
        let pairs: Vec<(u64, u64)> = s.boundary_pairs().collect();
        assert_eq!(pairs, vec![(9, 2), (25, 19)]);
        // id 0 wraps to u64::MAX as "before the table" marker
        let z = IdSet::range(0, 5);
        assert_eq!(z.boundary_pairs().next().unwrap(), (5, u64::MAX));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let s = IdSet::from_sorted_ids(&(0..1000u64).filter(|i| i % 3 != 0).collect::<Vec<_>>());
        for enc in IdListEncoding::ALL {
            let data = s.encode(enc);
            assert_eq!(IdSet::decode(&data, enc).unwrap(), s, "{enc:?}");
        }
    }

    #[test]
    fn iter_yields_all_ids_in_order() {
        let ids = vec![2u64, 3, 4, 9, 23];
        let s = IdSet::from_sorted_ids(&ids);
        assert_eq!(s.iter().collect::<Vec<_>>(), ids);
    }
}
