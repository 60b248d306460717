//! ID-list encodings (Table 3 of the paper).
//!
//! Every ASHE aggregate carries the multiset of row identifiers that were
//! folded into it. Seabed keeps these lists compact by combining
//!
//! 1. **range encoding** — contiguous identifiers `[a … b]` become the pair
//!    `(a, b)`, which is extremely effective because Seabed uploads rows with
//!    consecutive IDs;
//! 2. **differential encoding** — values are replaced by deltas to their
//!    predecessor;
//! 3. **variable-byte encoding** — small numbers use few bytes;
//! 4. an optional DEFLATE pass (fast or compact profile).
//!
//! Encoded lists come back from an untrusted server (and, between a worker
//! and its coordinator, from an untrusted peer), so [`decode_runs`] answers
//! with a *canonical* run list — strictly ascending, disjoint, maximal — or
//! not at all: every consumer may rely on that form without re-checking it.
//!
//! The paper also evaluates bitmap encodings and finds them unattractive for
//! this workload; [`IdListEncoding::Bitmap`] is kept so the Figure 8 ablation
//! can reproduce that comparison.

use crate::bitmap::Bitmap;
use crate::deflate::{self, Level};
use crate::varint;

/// An inclusive run of row identifiers `[start, end]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub struct Run {
    /// First identifier in the run.
    pub start: u64,
    /// Last identifier in the run (inclusive, `>= start`).
    pub end: u64,
}

impl Run {
    /// Creates a run; panics if `end < start`.
    pub fn new(start: u64, end: u64) -> Run {
        assert!(end >= start, "invalid run [{start}, {end}]");
        Run { start, end }
    }

    /// Number of identifiers in the run.
    pub fn len(&self) -> u64 {
        self.end - self.start + 1
    }

    /// Always false: a run contains at least one identifier.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Converts a sorted, deduplicated list of IDs into maximal runs.
pub fn ids_to_runs(ids: &[u64]) -> Vec<Run> {
    let mut runs: Vec<Run> = Vec::new();
    for &id in ids {
        match runs.last_mut() {
            Some(run) if id == run.end + 1 => run.end = id,
            Some(run) if id <= run.end => {} // duplicate, ignore
            _ => runs.push(Run::new(id, id)),
        }
    }
    runs
}

/// Appends to `runs` the maximal runs of the identifiers `base + offset`
/// for ascending, deduplicated `offsets` — a selection vector's rows, with
/// `base` the partition's first row identifier: one pass to count the runs
/// (no branch per offset) and make room, one to write them.
pub fn append_offset_runs(offsets: &[u32], base: u64, runs: &mut Vec<Run>) {
    let Some((&first, rest)) = offsets.split_first() else {
        return;
    };
    let breaks: usize = offsets.windows(2).map(|w| usize::from(w[1] != w[0] + 1)).sum();
    runs.reserve(breaks + 1);
    let (mut start, mut end) = (first, first);
    for &offset in rest {
        if offset != end + 1 {
            runs.push(Run::new(base + start as u64, base + end as u64));
            start = offset;
        }
        end = offset;
    }
    runs.push(Run::new(base + start as u64, base + end as u64));
}

/// Expands runs back into the individual identifiers.
pub fn runs_to_ids(runs: &[Run]) -> Vec<u64> {
    let mut ids = Vec::with_capacity(runs.iter().map(|r| r.len() as usize).sum());
    for run in runs {
        ids.extend(run.start..=run.end);
    }
    ids
}

/// The encodings compared in Figure 8 (plus the group-by variant of §4.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IdListEncoding {
    /// Range bounds, variable-byte encoded ("Ranges & VB").
    RangesVb,
    /// Range bounds with differential encoding, variable-byte encoded ("+Diff").
    RangesVbDiff,
    /// `RangesVbDiff` followed by the compact DEFLATE profile ("+Deflate(Compact)").
    RangesVbDiffDeflateCompact,
    /// `RangesVbDiff` followed by the fast DEFLATE profile ("+Deflate(Fast)").
    ///
    /// This is the combination Seabed selects for aggregation queries.
    RangesVbDiffDeflateFast,
    /// Plain per-ID differential + variable-byte encoding, no ranges — the
    /// configuration Seabed uses for group-by queries, whose per-group lists
    /// are sparse (§4.5).
    VbDiff,
    /// Chunked bitmap encoding; evaluated and rejected by the paper.
    Bitmap,
}

impl IdListEncoding {
    /// All encodings, in the order Figure 8 plots them.
    pub const ALL: [IdListEncoding; 6] = [
        IdListEncoding::RangesVb,
        IdListEncoding::RangesVbDiff,
        IdListEncoding::RangesVbDiffDeflateCompact,
        IdListEncoding::RangesVbDiffDeflateFast,
        IdListEncoding::VbDiff,
        IdListEncoding::Bitmap,
    ];

    /// Human-readable label matching the figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            IdListEncoding::RangesVb => "Ranges & VB",
            IdListEncoding::RangesVbDiff => "+Diff",
            IdListEncoding::RangesVbDiffDeflateCompact => "+Deflate(Compact)",
            IdListEncoding::RangesVbDiffDeflateFast => "+Deflate(Fast)",
            IdListEncoding::VbDiff => "VB & Diff (group-by)",
            IdListEncoding::Bitmap => "Bitmap",
        }
    }

    /// The encoding Seabed uses for plain aggregation queries.
    pub fn seabed_default() -> IdListEncoding {
        IdListEncoding::RangesVbDiffDeflateFast
    }

    /// The encoding Seabed uses for group-by queries.
    pub fn seabed_group_by() -> IdListEncoding {
        IdListEncoding::VbDiff
    }
}

fn encode_ranges_vb(runs: &[Run]) -> Vec<u8> {
    // Raw bounds: start_1, end_1, start_2, end_2, ...
    let mut out = Vec::with_capacity(runs.len() * 4);
    for run in runs {
        varint::encode_u64(run.start, &mut out);
        varint::encode_u64(run.end, &mut out);
    }
    out
}

/// Appends `[start, end]` to a canonical run list being decoded: `None`
/// unless it lies wholly above the last run. A run that begins right after
/// the last one ends extends it — the two name each identifier once, so the
/// set is not in doubt, only its spelling, and the result is the maximal-run
/// form either way.
fn push_decoded(runs: &mut Vec<Run>, start: u64, end: u64) -> Option<()> {
    if end < start {
        return None;
    }
    match runs.last_mut() {
        Some(last) if start <= last.end => return None,
        Some(last) if start - 1 == last.end => last.end = end,
        _ => runs.push(Run { start, end }),
    }
    Some(())
}

/// Reads `data` as pairs of variable-byte integers, handing each to `pair`;
/// `None` on a malformed integer, an odd count or a pair `pair` refuses.
fn decode_pairs(data: &[u8], mut pair: impl FnMut(u64, u64) -> Option<()>) -> Option<()> {
    let mut pos = 0;
    while pos < data.len() {
        let (first, next) = varint::decode_u64(data, pos)?;
        let (second, next) = varint::decode_u64(data, next)?;
        pair(first, second)?;
        pos = next;
    }
    Some(())
}

fn decode_ranges_vb(data: &[u8]) -> Option<Vec<Run>> {
    // Two bounds of at least a byte each per run.
    let mut runs = Vec::with_capacity(data.len() / 2);
    decode_pairs(data, |start, end| push_decoded(&mut runs, start, end))?;
    Some(runs)
}

fn encode_ranges_vb_diff(runs: &[Run]) -> Vec<u8> {
    // Differential bounds: start_1, end_1 - start_1, start_2 - end_1, ...
    // This is the "Combination" row of Table 3.
    let mut out = Vec::with_capacity(runs.len() * 4);
    let mut prev = 0u64;
    for run in runs {
        varint::encode_u64(run.start - prev, &mut out);
        varint::encode_u64(run.end - run.start, &mut out);
        prev = run.end;
    }
    out
}

fn decode_ranges_vb_diff(data: &[u8]) -> Option<Vec<Run>> {
    let mut runs = Vec::with_capacity(data.len() / 2);
    let mut prev = 0u64;
    decode_pairs(data, |gap, span| {
        let start = prev.checked_add(gap)?;
        prev = start.checked_add(span)?;
        push_decoded(&mut runs, start, prev)
    })?;
    Some(runs)
}

fn encode_vb_diff(runs: &[Run]) -> Vec<u8> {
    // Per-ID deltas (no range structure), as used for group-by results,
    // whose runs are mostly single rows a one- or two-byte gap apart.
    let mut out = Vec::with_capacity(runs.len() * 2);
    let mut prev = 0u64;
    for run in runs {
        for id in run.start..=run.end {
            varint::encode_u64(id - prev, &mut out);
            prev = id;
        }
    }
    out
}

fn decode_vb_diff(data: &[u8]) -> Option<Vec<Run>> {
    let mut runs = Vec::new();
    let (mut prev, mut pos) = (0u64, 0);
    while pos < data.len() {
        let (delta, next) = varint::decode_u64(data, pos)?;
        prev = prev.checked_add(delta)?;
        push_decoded(&mut runs, prev, prev)?;
        pos = next;
    }
    Some(runs)
}

/// Encodes a run list with the chosen encoding.
pub fn encode_runs(runs: &[Run], encoding: IdListEncoding) -> Vec<u8> {
    match encoding {
        IdListEncoding::RangesVb => encode_ranges_vb(runs),
        IdListEncoding::RangesVbDiff => encode_ranges_vb_diff(runs),
        IdListEncoding::RangesVbDiffDeflateCompact => deflate::compress(&encode_ranges_vb_diff(runs), Level::Compact),
        IdListEncoding::RangesVbDiffDeflateFast => deflate::compress(&encode_ranges_vb_diff(runs), Level::Fast),
        IdListEncoding::VbDiff => encode_vb_diff(runs),
        IdListEncoding::Bitmap => Bitmap::from_runs(runs).serialize(),
    }
}

/// Decodes a run list. Returns `None` on malformed input.
///
/// What comes back is always *canonical* — runs strictly ascending, disjoint
/// and maximal, the form [`ids_to_runs`] builds and every consumer (set
/// union, `run.start - prev` in the encoders, one PRF boundary pair per run)
/// takes for granted — whatever the bytes say, since they may come from an
/// untrusted peer. A list that names an identifier twice or out of order is
/// refused: runs that overlap or step backwards, a repeated identifier in
/// the per-ID form. Two *adjacent* runs (`[1, 3], [4, 6]`) name each
/// identifier once and are coalesced into one, as a set union would.
pub fn decode_runs(data: &[u8], encoding: IdListEncoding) -> Option<Vec<Run>> {
    match encoding {
        IdListEncoding::RangesVb => decode_ranges_vb(data),
        IdListEncoding::RangesVbDiff => decode_ranges_vb_diff(data),
        IdListEncoding::RangesVbDiffDeflateCompact | IdListEncoding::RangesVbDiffDeflateFast => {
            decode_ranges_vb_diff(&deflate::decompress(data)?)
        }
        IdListEncoding::VbDiff => decode_vb_diff(data),
        IdListEncoding::Bitmap => Bitmap::deserialize(data).map(|b| b.to_runs()),
    }
}

/// Encoded size in bytes for a run list under a given encoding: always
/// exactly `encode_runs(runs, encoding).len()`.
///
/// The variable-byte encodings are sized arithmetically, without allocating;
/// the DEFLATE and bitmap encodings have no closed form and are encoded to be
/// measured.
pub fn encoded_size(runs: &[Run], encoding: IdListEncoding) -> usize {
    let vb = varint::encoded_len;
    match encoding {
        IdListEncoding::RangesVb => runs.iter().map(|r| vb(r.start) + vb(r.end)).sum(),
        IdListEncoding::RangesVbDiff | IdListEncoding::VbDiff => {
            // Both open a run with its distance from the previous run's end.
            // The range form then stores the run's span; the per-ID form
            // spends one byte — a delta of one — on every further ID.
            let ranges = encoding == IdListEncoding::RangesVbDiff;
            let mut prev = 0u64;
            let mut size = 0;
            for run in runs {
                let span = run.end - run.start;
                size += vb(run.start - prev) + if ranges { vb(span) } else { span as usize };
                prev = run.end;
            }
            size
        }
        IdListEncoding::RangesVbDiffDeflateCompact
        | IdListEncoding::RangesVbDiffDeflateFast
        | IdListEncoding::Bitmap => encode_runs(runs, encoding).len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_runs() -> Vec<Run> {
        vec![Run::new(2, 14), Run::new(19, 23), Run::new(40, 40), Run::new(100, 1000)]
    }

    #[test]
    fn table3_example_range_encoding() {
        // [2..14, 19..23] -> [2-14, 19-23]: four VB integers.
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = encode_runs(&runs, IdListEncoding::RangesVb);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 14, 19, 23]);
        assert_eq!(decode_runs(&data, IdListEncoding::RangesVb).unwrap(), runs);
    }

    #[test]
    fn table3_example_combination_encoding() {
        // [2..14, 19..23] -> Combination [2-12, 5-4].
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = encode_runs(&runs, IdListEncoding::RangesVbDiff);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 12, 5, 4]);
        assert_eq!(decode_runs(&data, IdListEncoding::RangesVbDiff).unwrap(), runs);
    }

    #[test]
    fn table3_example_diff_encoding_of_ids() {
        // [2,3,4,9,23] -> diffs [2,1,1,5,14].
        let ids = vec![2u64, 3, 4, 9, 23];
        let runs = ids_to_runs(&ids);
        let data = encode_runs(&runs, IdListEncoding::VbDiff);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 1, 1, 5, 14]);
        assert_eq!(runs_to_ids(&decode_runs(&data, IdListEncoding::VbDiff).unwrap()), ids);
    }

    #[test]
    fn all_encodings_roundtrip() {
        let runs = sample_runs();
        for enc in IdListEncoding::ALL {
            let data = encode_runs(&runs, enc);
            assert_eq!(decode_runs(&data, enc).unwrap(), runs, "{enc:?}");
        }
    }

    #[test]
    fn empty_list_roundtrips() {
        for enc in IdListEncoding::ALL {
            let data = encode_runs(&[], enc);
            assert_eq!(decode_runs(&data, enc).unwrap(), vec![], "{enc:?}");
        }
    }

    #[test]
    fn ids_to_runs_merges_and_dedups() {
        assert_eq!(
            ids_to_runs(&[1, 2, 3, 3, 5, 6, 10]),
            vec![Run::new(1, 3), Run::new(5, 6), Run::new(10, 10)]
        );
        assert_eq!(ids_to_runs(&[]), vec![]);
    }

    #[test]
    fn offset_runs_are_the_runs_of_the_identifiers() {
        let selections: [&[u32]; 6] = [&[], &[0], &[5], &[0, 1, 2, 3], &[0, 2, 3, 4, 9, 10, 12], &[7, 9, 11]];
        for offsets in selections {
            for base in [0u64, 1_000, u64::MAX - 12] {
                let ids: Vec<u64> = offsets.iter().map(|&o| base + o as u64).collect();
                let mut runs = vec![Run::new(0, 0)];
                append_offset_runs(offsets, base, &mut runs);
                assert_eq!(runs[0], Run::new(0, 0), "appends, does not overwrite");
                assert_eq!(&runs[1..], &ids_to_runs(&ids)[..], "{offsets:?} at {base}");
            }
        }
    }

    #[test]
    fn contiguous_selection_is_constant_size() {
        // Selectivity 100%: one run regardless of how many rows — range
        // encoding keeps the list tiny (the paper's best case).
        let small = vec![Run::new(0, 999)];
        let large = vec![Run::new(0, 999_999)];
        let enc = IdListEncoding::RangesVbDiff;
        assert!(encoded_size(&large, enc) <= encoded_size(&small, enc) + 2);
    }

    #[test]
    fn sparse_lists_favor_vbdiff_over_ranges() {
        // 50% selectivity worst case: every other ID. Range encoding doubles
        // the entries; per-ID diff encoding stays at one small delta per ID.
        let ids: Vec<u64> = (0..10_000u64).map(|i| i * 2).collect();
        let runs = ids_to_runs(&ids);
        let ranges = encoded_size(&runs, IdListEncoding::RangesVb);
        let vbdiff = encoded_size(&runs, IdListEncoding::VbDiff);
        assert!(vbdiff < ranges);
    }

    #[test]
    fn deflate_helps_on_regular_gaps() {
        // Alternating IDs produce highly regular diff streams that deflate
        // compresses well — the observation at the end of §6.1.
        let ids: Vec<u64> = (0..50_000u64).map(|i| i * 2).collect();
        let runs = ids_to_runs(&ids);
        let plain = encoded_size(&runs, IdListEncoding::RangesVbDiff);
        let deflated = encoded_size(&runs, IdListEncoding::RangesVbDiffDeflateFast);
        assert!(deflated < plain / 2, "deflated {deflated} vs plain {plain}");
    }

    #[test]
    fn encoded_size_is_the_encoded_length_at_the_edges() {
        let max = u64::MAX;
        let short_lists: [&[Run]; 6] = [
            &[],
            &[Run::new(0, 0)],
            &[Run::new(max, max)],
            &[Run::new(0, 0), Run::new(max, max)],
            &[Run::new(0, 127), Run::new(129, 16_383), Run::new(max - 5, max)],
            &[Run::new(max - 300, max - 200), Run::new(max - 1, max)],
        ];
        for runs in short_lists {
            for enc in IdListEncoding::ALL {
                assert_eq!(
                    encoded_size(runs, enc),
                    encode_runs(runs, enc).len(),
                    "{enc:?} of {runs:?}"
                );
            }
        }
        // Runs too long to walk ID by ID: the encodings that store bounds.
        let wide_lists: [&[Run]; 3] = [
            &[Run::new(0, max)],
            &[Run::new(1, max - 1)],
            &[Run::new(0, 1 << 40), Run::new(1 << 41, max)],
        ];
        for runs in wide_lists {
            for enc in [
                IdListEncoding::RangesVb,
                IdListEncoding::RangesVbDiff,
                IdListEncoding::RangesVbDiffDeflateCompact,
                IdListEncoding::RangesVbDiffDeflateFast,
            ] {
                assert_eq!(
                    encoded_size(runs, enc),
                    encode_runs(runs, enc).len(),
                    "{enc:?} of {runs:?}"
                );
            }
        }
    }

    /// Only canonical run lists come out of `decode_runs`. Each forged list
    /// here used to decode: the first into an unsorted set whose union with
    /// anything dropped `1–3` and whose `RangesVbDiff` encoding underflowed,
    /// the second into overlapping runs counting sixteen IDs for fifteen.
    #[test]
    fn decode_runs_refuses_lists_that_are_not_ascending_and_disjoint() {
        use IdListEncoding::*;
        let vb = |values: &[u64]| varint::encode_all(values);
        let deflated = |body: &[u8]| deflate::compress(body, Level::Fast);

        assert_eq!(decode_runs(&vb(&[10, 12, 1, 3]), RangesVb), None, "descending runs");
        assert_eq!(decode_runs(&vb(&[1, 9, 0, 5]), RangesVbDiff), None, "overlapping runs");
        assert_eq!(
            decode_runs(&deflated(&vb(&[1, 9, 0, 5])), RangesVbDiffDeflateFast),
            None
        );
        assert_eq!(
            decode_runs(&deflated(&vb(&[1, 9, 0, 5])), RangesVbDiffDeflateCompact),
            None
        );
        assert_eq!(decode_runs(&vb(&[1, 5, 5, 9]), RangesVb), None, "a shared bound");
        assert_eq!(decode_runs(&vb(&[1, 5, 3, 4]), RangesVb), None, "a run inside another");
        assert_eq!(
            decode_runs(&vb(&[4, 2]), RangesVb),
            None,
            "a run that ends before it starts"
        );
        assert_eq!(decode_runs(&vb(&[5, 0]), VbDiff), None, "an identifier twice");
        assert_eq!(
            decode_runs(&vb(&[7, u64::MAX]), VbDiff),
            None,
            "past the last identifier"
        );

        // Adjacent runs name each identifier once: coalesced, not refused.
        let joined = Some(vec![Run::new(1, 6)]);
        assert_eq!(decode_runs(&vb(&[1, 3, 4, 6]), RangesVb), joined);
        assert_eq!(decode_runs(&vb(&[1, 2, 1, 2]), RangesVbDiff), joined);
        assert_eq!(
            decode_runs(&deflated(&vb(&[1, 2, 1, 2])), RangesVbDiffDeflateFast),
            joined
        );
        // A first run may start at zero, and the last identifier is one.
        assert_eq!(
            decode_runs(&vb(&[0, 0, 2, 0]), RangesVbDiff),
            Some(vec![Run::new(0, 0), Run::new(2, 2)])
        );
        let top = Some(vec![Run::new(u64::MAX - 1, u64::MAX)]);
        assert_eq!(decode_runs(&vb(&[u64::MAX - 1, u64::MAX]), RangesVb), top);
        assert_eq!(decode_runs(&vb(&[u64::MAX - 1, 1]), VbDiff), top);
    }

    /// Whatever bytes arrive, a list that decodes is canonical and encodes
    /// back (the subtraction in the differential encoders cannot underflow).
    #[test]
    fn whatever_decodes_is_canonical() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x1d5e7);
        let (mut accepted, mut refused) = (0, 0);
        for round in 0..4_000u32 {
            // Small values, so that a good share of the streams is ascending.
            let values: Vec<u64> = (0..rng.random_range(0..12u32))
                .map(|_| rng.random_range(0..1 + (round as u64 % 40)))
                .collect();
            let mut body = varint::encode_all(&values);
            if round % 5 == 0 {
                body.push(0x80 | rng.random::<u8>());
            }
            for enc in IdListEncoding::ALL {
                let data = match enc {
                    IdListEncoding::RangesVbDiffDeflateFast => deflate::compress(&body, Level::Fast),
                    IdListEncoding::RangesVbDiffDeflateCompact => deflate::compress(&body, Level::Compact),
                    _ => body.clone(),
                };
                let Some(runs) = decode_runs(&data, enc) else {
                    refused += 1;
                    continue;
                };
                accepted += 1;
                assert!(
                    runs.windows(2)
                        .all(|w| w[0].end < w[1].start && w[1].start - w[0].end > 1),
                    "{enc:?} of {values:?}: {runs:?}"
                );
                assert_eq!(decode_runs(&encode_runs(&runs, enc), enc), Some(runs));
            }
        }
        assert!(
            accepted > 2_000 && refused > 2_000,
            "{accepted} accepted, {refused} refused"
        );
    }

    #[test]
    fn forged_deflate_lists_are_rejected_not_panicking() {
        // A compressed block whose first token copies from before the start
        // of the output: `decode_runs` used to panic inside `decompress`.
        let block = deflate::tests::match_before_start();
        for enc in [
            IdListEncoding::RangesVbDiffDeflateFast,
            IdListEncoding::RangesVbDiffDeflateCompact,
        ] {
            assert_eq!(decode_runs(&block, enc), None);
        }
    }

    #[test]
    fn malformed_inputs_do_not_panic() {
        for enc in IdListEncoding::ALL {
            // Arbitrary garbage either fails cleanly or decodes to something.
            let _ = decode_runs(&[0xff, 0xff, 0xff], enc);
        }
        assert!(decode_runs(&[0x01], IdListEncoding::RangesVb).is_none());
    }

    #[test]
    fn run_len_and_validation() {
        assert_eq!(Run::new(5, 9).len(), 5);
        assert_eq!(Run::new(7, 7).len(), 1);
        assert!(!Run::new(7, 7).is_empty());
    }

    #[test]
    #[should_panic]
    fn invalid_run_panics() {
        let _ = Run::new(10, 9);
    }
}
