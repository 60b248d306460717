//! The partial-aggregate merge algebra shared by every gather point.
//!
//! Seabed's reduce step is *additive*: each partition task produces, per
//! group key, one [`PartialGroup`] — the identifiers of the rows it selected,
//! held **once**, plus one partial state per requested aggregate: an ASHE
//! partial sum, a count, or a MIN/MAX ORE candidate — and the driver folds
//! groups pairwise. With `seabed-dist`, the exact same fold
//! happens one level up: workers fold their partitions' partials locally, and
//! the coordinator folds the per-worker partials it gathered over the
//! network. Both folds MUST be the same implementation, or a distributed
//! query could silently diverge from the single-server answer; this module is
//! that single implementation. Below a server, partitions hand their groups
//! over *flat* ([`FlatPartial`]) and the driver folds them in partition order
//! ([`fold_flat_partials`]) — the same algebra at a cost per row and run
//! rather than per (partition, group), held to the keyed merge by this
//! module's tests.
//!
//! The ID set belongs to the group, not to an aggregate: ASHE's ID list names
//! the rows whose masks a sum carries, and every aggregate of one group was
//! folded over the same selected rows — `SUM(a), SUM(b), COUNT(*)` build,
//! union, ship and decode one set, not three.
//!
//! The algebra is **associative**, **commutative**, and **order-invariant**:
//! any bracketing of any permutation of the same set of partials folds to the
//! same state (`tests/merge_properties.rs` pins this through real
//! ASHE/SPLASHE pipelines), so shard gather order, straggler arrival order
//! and re-dispatch cannot change results.
//!
//! * the group's IDs — set union, a commutative monoid;
//! * `Sum` — ASHE words add with wrapping arithmetic (the masked group is
//!   `(Z/2^64, +)`), a commutative monoid;
//! * `Count` — nothing of its own (the count is the size of the group's ID
//!   set, derived at finalization);
//! * `Extreme` — the ORE-greater (or -smaller) candidate wins; ORE exposes a
//!   total order over well-formed ciphertexts, and corrupt-width candidates
//!   are incomparable, never displace a well-formed one, and never panic the
//!   fold.

use crate::exec::GroupIndex;
use seabed_ashe::{IdSet, Run};
use seabed_crypto::ore::{try_compare_symbols, OreCiphertext, ORE_CELL_BYTES};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A MIN/MAX candidate: the winning row's ORE ciphertext (needed so candidates
/// from different partitions/workers stay comparable), its companion ASHE
/// value word, and its row identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExtremeCandidate {
    /// ORE ciphertext of the candidate row's ordering column.
    pub ciphertext: OreCiphertext,
    /// ASHE word of the companion value column at the candidate row.
    pub value_word: u64,
    /// Global row identifier of the candidate row.
    pub row_id: u64,
}

/// The mergeable state of one aggregate of one group, beside the group's ID
/// set ([`PartialGroup::ids`]).
///
/// This is what partition scans accumulate into, what crosses the wire from
/// `seabed-dist` workers to the coordinator, and what both the driver and the
/// coordinator fold with [`PartialAggregate::merge`]. Finalization into the
/// client-facing `EncryptedAggregate` (counting the IDs, dropping the ORE
/// ciphertext) happens once, at whichever node answers the query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PartialAggregate {
    /// An ASHE partial sum over the group's rows.
    Sum {
        /// Wrapping sum of the selected rows' ASHE ciphertext words.
        value: u64,
    },
    /// A row count: the size of the group's ID set.
    Count,
    /// A MIN/MAX candidate under the ORE order.
    Extreme {
        /// Best candidate seen so far (`None` when no row matched).
        best: Option<ExtremeCandidate>,
        /// True for MAX, false for MIN.
        want_max: bool,
    },
}

impl PartialAggregate {
    /// Whether this aggregate reads the group's ID set: a scan whose
    /// aggregates are all MIN/MAX collects no identifiers.
    pub fn reads_ids(&self) -> bool {
        !matches!(self, PartialAggregate::Extreme { .. })
    }

    /// Folds `other` into `self`.
    ///
    /// All partial vectors for one query are built from the same aggregate
    /// list, so the kinds always line up; a mismatched pair (possible only
    /// with a forged distributed partial — which the `seabed-dist`
    /// coordinator shape-checks against the query and rejects before
    /// anything reaches this fold) leaves `self` unchanged rather than
    /// panicking.
    pub fn merge(&mut self, other: PartialAggregate) {
        match (self, other) {
            (PartialAggregate::Sum { value }, PartialAggregate::Sum { value: v2 }) => {
                *value = value.wrapping_add(v2);
            }
            (
                PartialAggregate::Extreme { best, want_max },
                PartialAggregate::Extreme {
                    best: Some(candidate), ..
                },
            ) if extreme_replaces(best.as_ref(), &candidate.ciphertext.symbols, *want_max) => {
                *best = Some(candidate);
            }
            _ => {}
        }
    }
}

/// Whether a candidate with the given ORE symbols displaces `best` under the
/// MIN/MAX order. Takes the symbols as a borrowed slice so scan loops can
/// test before allocating a candidate. Total, and corrupt-width symbols never
/// replace anything — not even an empty `best`, where an incomparable
/// squatter would otherwise block every honest later candidate.
pub fn extreme_replaces(best: Option<&ExtremeCandidate>, candidate_symbols: &[u8], want_max: bool) -> bool {
    if candidate_symbols.len() != ORE_CELL_BYTES {
        return false;
    }
    match best {
        None => true,
        Some(current) => try_compare_symbols(candidate_symbols, &current.ciphertext.symbols).is_some_and(|ord| {
            if want_max {
                ord == Ordering::Greater
            } else {
                ord == Ordering::Less
            }
        }),
    }
}

/// One group of one scan unit: the identifiers of the rows the scan selected
/// into it and, folded over exactly those rows, one partial per aggregate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialGroup {
    /// Selected row identifiers (left empty when no aggregate reads them).
    pub ids: IdSet,
    /// One partial per requested aggregate, in plan order.
    pub aggregates: Vec<PartialAggregate>,
}

impl PartialGroup {
    /// A group no row has been folded into yet.
    pub fn new(aggregates: Vec<PartialAggregate>) -> PartialGroup {
        PartialGroup {
            ids: IdSet::new(),
            aggregates,
        }
    }

    /// Folds `other` into `self`: the ID sets union once ([`IdSet::merge`]:
    /// appended in place when `other` covers later rows, as every in-order
    /// partition and shard merge does), the aggregates merge pairwise.
    pub fn merge(&mut self, other: PartialGroup) {
        self.ids.merge(other.ids);
        for (a, b) in self.aggregates.iter_mut().zip(other.aggregates) {
            a.merge(b);
        }
    }
}

/// Partial results of one scan unit (a partition, a worker shard, or a whole
/// server), by group key.
pub type PartialGroups = HashMap<Vec<u64>, PartialGroup>;

/// Folds `from` into `into`, group by group. Vacant keys move over wholesale;
/// occupied keys merge via [`PartialGroup::merge`]. This is the single gather
/// implementation shared by the in-process driver merge and the `seabed-dist`
/// coordinator merge.
pub fn merge_partial_groups(into: &mut PartialGroups, from: PartialGroups) {
    for (key, group) in from {
        match into.entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(group);
            }
            std::collections::hash_map::Entry::Occupied(mut slot) => slot.get_mut().merge(group),
        }
    }
}

/// Partial results of one partition scan, flat: every group it met in four
/// vectors, however many groups. Group `g`'s key is `keys[g·key_width..]`,
/// its state for aggregate `a` is `states[g·aggs + a]`, and its ID runs are
/// `runs[run_ends[g-1]..run_ends[g]]`. The driver folds these, in partition
/// order, into the one [`PartialGroups`] a query returns
/// ([`fold_flat_partials`]); a scan builds one at work proportional to rows
/// and runs, with no key, aggregate vector or run list of its own per group.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FlatPartial {
    /// Words per group key (none for the one group of a global aggregate).
    pub key_width: usize,
    /// The groups' keys, `key_width` words each; distinct.
    pub keys: Vec<u64>,
    /// The groups' aggregate states, in plan order within each group.
    pub states: Vec<PartialAggregate>,
    /// The groups' ID runs, group after group, canonical within each.
    pub runs: Vec<Run>,
    /// Where each group's runs end in `runs`; one entry per group.
    pub run_ends: Vec<usize>,
}

impl FlatPartial {
    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.run_ends.len()
    }

    /// The key of group `group`.
    pub fn key_of(&self, group: usize) -> &[u64] {
        &self.keys[group * self.key_width..][..self.key_width]
    }

    /// The ID runs of group `group`.
    pub fn runs_of(&self, group: usize) -> &[Run] {
        let start = group.checked_sub(1).map_or(0, |before| self.run_ends[before]);
        &self.runs[start..self.run_ends[group]]
    }

    /// The flat form of keyed groups: how a row-at-a-time scan (the scalar
    /// oracle) feeds the same fold as a flat one.
    pub fn from_groups(groups: PartialGroups, key_width: usize) -> FlatPartial {
        let mut flat = FlatPartial {
            key_width,
            ..FlatPartial::default()
        };
        for (key, group) in groups {
            flat.keys.extend_from_slice(&key);
            flat.runs.extend_from_slice(group.ids.runs());
            flat.run_ends.push(flat.runs.len());
            flat.states.extend(group.aggregates);
        }
        flat
    }
}

/// The driver's fold: the partitions' flat partials (keys `key_width` words,
/// `aggs` states a group), in partition order, into the one [`PartialGroups`]
/// a query returns — what folding each partition's groups with
/// [`merge_partial_groups`] gives, at one key lookup per (partition, group)
/// through a [`GroupIndex`] and one ID list, one aggregate vector and one key
/// allocated per *result* group. A first pass numbers each (partition,
/// group)'s result group and adds up the runs bound for it, so the second
/// appends into lists reserved once ([`IdSet::merge_runs`]: in place when
/// partitions come in row order, the total union otherwise) and merges the
/// states.
pub fn fold_flat_partials(partials: Vec<FlatPartial>, key_width: usize, aggs: usize) -> PartialGroups {
    let mut index = GroupIndex::new(key_width);
    let mut slots: Vec<usize> = Vec::with_capacity(partials.iter().map(FlatPartial::groups).sum());
    let mut run_totals: Vec<usize> = Vec::new();
    for partial in &partials {
        for group in 0..partial.groups() {
            let slot = index.group_of(partial.key_of(group)) as usize;
            if slot == run_totals.len() {
                run_totals.push(0);
            }
            run_totals[slot] += partial.runs_of(group).len();
            slots.push(slot);
        }
    }

    let mut merged = vec![PartialGroup::new(Vec::new()); run_totals.len()];
    let mut slots = slots.into_iter();
    for mut partial in partials {
        let mut states = std::mem::take(&mut partial.states).into_iter();
        for (group, slot) in (0..partial.groups()).zip(&mut slots) {
            let into = &mut merged[slot];
            let of_group = states.by_ref().take(aggs);
            if into.aggregates.is_empty() {
                into.ids.reserve(run_totals[slot]);
                into.aggregates.extend(of_group);
            } else {
                into.aggregates
                    .iter_mut()
                    .zip(of_group)
                    .for_each(|(state, other)| state.merge(other));
            }
            into.ids.merge_runs(partial.runs_of(group));
        }
    }
    merged
        .into_iter()
        .enumerate()
        .map(|(slot, group)| (index.key(slot).to_vec(), group))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat fold ≡ [`merge_partial_groups`] of the same partials, in
    /// partition order and out of it (where ID runs interleave and the
    /// append gives way to the union), for global and keyed groups.
    #[test]
    fn flat_fold_equals_the_keyed_merge() {
        // Partition `p` selects every third of its 40 rows starting at
        // `p % 3`, keyed by row % 4 (or not at all), summing the row ids.
        let partial = |p: u64, keyed: bool| {
            let mut groups = PartialGroups::new();
            for id in (p * 40..p * 40 + 40).filter(|id| id % 3 == p % 3) {
                let key = if keyed { vec![id % 4, 9] } else { Vec::new() };
                let group = groups.entry(key).or_insert_with(|| sum(0, &[]));
                group.merge(sum(id, &[id]));
            }
            groups
        };
        for keyed in [false, true] {
            for order in [[0u64, 1, 2, 3], [2, 0, 3, 1]] {
                let mut expected = PartialGroups::new();
                for p in order {
                    merge_partial_groups(&mut expected, partial(p, keyed));
                }
                let key_width = if keyed { 2 } else { 0 };
                let flats = order
                    .iter()
                    .map(|&p| FlatPartial::from_groups(partial(p, keyed), key_width))
                    .collect();
                assert_eq!(
                    fold_flat_partials(flats, key_width, 1),
                    expected,
                    "keyed {keyed}, {order:?}"
                );
                assert_eq!(expected.len(), if keyed { 4 } else { 1 });
            }
        }
        assert_eq!(fold_flat_partials(Vec::new(), 1, 1), PartialGroups::new());
        assert_eq!(
            fold_flat_partials(vec![FlatPartial::default()], 0, 2),
            PartialGroups::new()
        );
    }

    /// A one-aggregate group: an ASHE partial sum over `ids`.
    fn sum(value: u64, ids: &[u64]) -> PartialGroup {
        PartialGroup {
            ids: IdSet::from_sorted_ids(ids),
            aggregates: vec![PartialAggregate::Sum { value }],
        }
    }

    fn extreme(lanes: u8, value_word: u64, row_id: u64, want_max: bool) -> PartialAggregate {
        PartialAggregate::Extreme {
            best: Some(ExtremeCandidate {
                ciphertext: OreCiphertext {
                    symbols: vec![lanes; ORE_CELL_BYTES],
                },
                value_word,
                row_id,
            }),
            want_max,
        }
    }

    #[test]
    fn sums_add_and_ids_union() {
        let mut a = sum(10, &[1, 2]);
        a.merge(sum(u64::MAX, &[2, 7]));
        assert_eq!(a.aggregates, vec![PartialAggregate::Sum { value: 9 }], "wrapping add");
        assert_eq!(a.ids.iter().collect::<Vec<_>>(), vec![1, 2, 7]);
    }

    /// The ID set is the group's: every aggregate of a group merges beside
    /// one union, and the count is that set's size.
    #[test]
    fn a_group_unions_its_ids_once_for_all_its_aggregates() {
        let group = |a: u64, b: u64, ids: &[u64]| PartialGroup {
            ids: IdSet::from_sorted_ids(ids),
            aggregates: vec![
                PartialAggregate::Sum { value: a },
                PartialAggregate::Sum { value: b },
                PartialAggregate::Count,
            ],
        };
        let mut merged = group(1, 10, &[0, 1]);
        merged.merge(group(2, 20, &[1, 5]));
        assert_eq!(merged, group(3, 30, &[0, 1, 5]));
        assert_eq!(merged.ids.count(), 3);
        assert!(merged.aggregates.iter().all(PartialAggregate::reads_ids));
        assert!(!extreme(0, 0, 0, true).reads_ids());
    }

    #[test]
    fn merge_is_commutative_and_associative_for_sums() {
        let parts = [sum(3, &[0, 5]), sum(9, &[1]), sum(u64::MAX - 1, &[5, 9])];
        let fold = |order: &[usize]| {
            let mut acc = sum(0, &[]);
            for &i in order {
                acc.merge(parts[i].clone());
            }
            acc
        };
        let reference = fold(&[0, 1, 2]);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            assert_eq!(fold(&order), reference, "order {order:?}");
        }
    }

    #[test]
    fn extreme_picks_ore_winner_regardless_of_order() {
        // All-zero lanes < all-one lanes under the prefix compare.
        let lo = extreme(0b00_00_00_00, 100, 1, true);
        let hi = extreme(0b01_01_01_01, 200, 2, true);
        let mut a = lo.clone();
        a.merge(hi.clone());
        let mut b = hi.clone();
        b.merge(lo.clone());
        assert_eq!(a, b);
        assert!(matches!(
            a,
            PartialAggregate::Extreme {
                best: Some(ExtremeCandidate { value_word: 200, .. }),
                ..
            }
        ));
        // MIN flips the winner.
        let mut c = PartialAggregate::Extreme {
            best: None,
            want_max: false,
        };
        c.merge(extreme(0b01_01_01_01, 200, 2, false));
        c.merge(extreme(0b00_00_00_00, 100, 1, false));
        assert!(matches!(
            c,
            PartialAggregate::Extreme {
                best: Some(ExtremeCandidate { value_word: 100, .. }),
                ..
            }
        ));
    }

    #[test]
    fn corrupt_width_candidate_never_wins_or_panics() {
        // Neither a short cell nor one of the old one-byte-per-symbol width.
        for width in [3, 4 * ORE_CELL_BYTES] {
            let corrupt = PartialAggregate::Extreme {
                best: Some(ExtremeCandidate {
                    ciphertext: OreCiphertext {
                        symbols: vec![9; width],
                    },
                    value_word: 999,
                    row_id: 99,
                }),
                want_max: true,
            };
            let mut a = extreme(1, 200, 2, true);
            a.merge(corrupt.clone());
            assert!(matches!(
                &a,
                PartialAggregate::Extreme {
                    best: Some(ExtremeCandidate { value_word: 200, .. }),
                    ..
                }
            ));
            // Nor may it squat on an empty best, where it would be incomparable
            // with (and thus block) every honest later candidate.
            let mut b = PartialAggregate::Extreme {
                best: None,
                want_max: true,
            };
            b.merge(corrupt);
            b.merge(extreme(1, 200, 2, true));
            assert!(matches!(
                &b,
                PartialAggregate::Extreme {
                    best: Some(ExtremeCandidate { value_word: 200, .. }),
                    ..
                }
            ));
        }
    }

    #[test]
    fn mismatched_kinds_leave_self_unchanged() {
        let mut a = PartialAggregate::Sum { value: 5 };
        a.merge(PartialAggregate::Count);
        assert_eq!(a, PartialAggregate::Sum { value: 5 });
        a.merge(extreme(1, 200, 2, true));
        assert_eq!(a, PartialAggregate::Sum { value: 5 });
    }

    #[test]
    fn group_maps_merge_by_key() {
        let mut into: PartialGroups = HashMap::new();
        into.insert(vec![1], sum(10, &[0]));
        let mut from: PartialGroups = HashMap::new();
        from.insert(vec![1], sum(5, &[3]));
        from.insert(vec![2], sum(7, &[4]));
        merge_partial_groups(&mut into, from);
        assert_eq!(into.len(), 2);
        assert_eq!(into[&vec![1u64]], sum(15, &[0, 3]));
        assert_eq!(into[&vec![2u64]], sum(7, &[4]));
    }

    /// The algebra is deliberately NOT idempotent: folding the same Sum
    /// partial twice double-counts its masked value, while the ID union
    /// absorbs the duplicate IDs — so the corrupted state still *looks*
    /// plausible and nothing downstream can detect it. This is exactly why
    /// the `seabed-dist` coordinator discards duplicate and hedge-loser
    /// partials by sequence number *before* the fold: dedup-by-seq is the
    /// only line of defense against merging twice.
    #[test]
    fn double_merging_the_same_partial_double_counts_undetectably() {
        let part = sum(21, &[1, 4]);
        let mut once = sum(0, &[]);
        once.merge(part.clone());
        let mut twice = once.clone();
        twice.merge(part);
        assert_eq!(once.aggregates, vec![PartialAggregate::Sum { value: 21 }]);
        assert_eq!(
            twice.aggregates,
            vec![PartialAggregate::Sum { value: 42 }],
            "the masked sum silently double-counts"
        );
        assert_eq!(
            once.ids, twice.ids,
            "the ID union hides the duplication — the state stays plausible"
        );
    }

    /// Same at the group-map level: replaying a whole shard partial (a hedge
    /// loser folded alongside the winner) corrupts every group's sum while
    /// every group key and ID set still validates.
    #[test]
    fn replaying_a_shard_partial_corrupts_group_sums() {
        let shard = || {
            let mut groups: PartialGroups = HashMap::new();
            groups.insert(vec![1], sum(10, &[0, 2]));
            groups.insert(vec![2], sum(7, &[5]));
            groups
        };
        let mut merged: PartialGroups = HashMap::new();
        merge_partial_groups(&mut merged, shard());
        let mut replayed = merged.clone();
        merge_partial_groups(&mut replayed, shard());
        assert_eq!(replayed[&vec![1u64]], sum(20, &[0, 2]));
        assert_eq!(replayed[&vec![2u64]], sum(14, &[5]));
        assert_ne!(
            merged, replayed,
            "a replayed partial must change the fold — it can only be stopped by seq"
        );
    }

    #[test]
    fn empty_identity() {
        let mut a = sum(42, &[1, 2]);
        a.merge(sum(0, &[]));
        assert_eq!(a, sum(42, &[1, 2]), "empty partial is the identity");
        let mut b = sum(0, &[]);
        b.merge(sum(42, &[1, 2]));
        assert_eq!(b, sum(42, &[1, 2]));
        let mut none = PartialAggregate::Extreme {
            best: None,
            want_max: true,
        };
        none.merge(PartialAggregate::Extreme {
            best: None,
            want_max: true,
        });
        assert!(matches!(none, PartialAggregate::Extreme { best: None, .. }));
    }
}
