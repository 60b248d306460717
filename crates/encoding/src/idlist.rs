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
    let mut values = Vec::with_capacity(runs.len() * 2);
    for run in runs {
        values.push(run.start);
        values.push(run.end);
    }
    varint::encode_all(&values)
}

fn decode_ranges_vb(data: &[u8]) -> Option<Vec<Run>> {
    let values = varint::decode_all(data)?;
    if values.len() % 2 != 0 {
        return None;
    }
    let mut runs = Vec::with_capacity(values.len() / 2);
    for pair in values.chunks(2) {
        if pair[1] < pair[0] {
            return None;
        }
        runs.push(Run::new(pair[0], pair[1]));
    }
    Some(runs)
}

fn encode_ranges_vb_diff(runs: &[Run]) -> Vec<u8> {
    // Differential bounds: start_1, end_1 - start_1, start_2 - end_1, ...
    // This is the "Combination" row of Table 3.
    let mut values = Vec::with_capacity(runs.len() * 2);
    let mut prev = 0u64;
    for run in runs {
        values.push(run.start - prev);
        values.push(run.end - run.start);
        prev = run.end;
    }
    varint::encode_all(&values)
}

fn decode_ranges_vb_diff(data: &[u8]) -> Option<Vec<Run>> {
    let values = varint::decode_all(data)?;
    if values.len() % 2 != 0 {
        return None;
    }
    let mut runs = Vec::with_capacity(values.len() / 2);
    let mut prev = 0u64;
    for pair in values.chunks(2) {
        let start = prev.checked_add(pair[0])?;
        let end = start.checked_add(pair[1])?;
        runs.push(Run::new(start, end));
        prev = end;
    }
    Some(runs)
}

fn encode_vb_diff(runs: &[Run]) -> Vec<u8> {
    // Per-ID deltas (no range structure), as used for group-by results.
    let mut out = Vec::new();
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
    let deltas = varint::decode_all(data)?;
    let mut ids = Vec::with_capacity(deltas.len());
    let mut prev = 0u64;
    for (i, &d) in deltas.iter().enumerate() {
        let id = if i == 0 { d } else { prev.checked_add(d)? };
        ids.push(id);
        prev = id;
    }
    Some(ids_to_runs(&ids))
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
