//! ID-list containers (Table 3 of the paper), and the rule that picks one.
//!
//! Every ASHE aggregate carries the set of row identifiers that were folded
//! into it. Seabed keeps these lists compact by combining range encoding
//! (contiguous identifiers `[a … b]` become one pair, which is what Seabed's
//! consecutive row IDs make effective), differential encoding (values become
//! deltas to their predecessor) and variable-byte encoding (small numbers take
//! few bytes). Three containers come out of those pieces:
//!
//! * [`IdListEncoding::RangesVbDiff`] — one `(gap, span)` pair per run, the
//!   "Combination" row of Table 3;
//! * [`IdListEncoding::VbDiff`] — one delta per identifier, which wins when
//!   runs are single rows a byte's gap apart;
//! * [`IdListEncoding::SpanBitmap`] — a bit per identifier between the first
//!   and the last, which wins when about half of a span is selected: such a
//!   list is already at its entropy as a bitmap.
//!
//! The paper picks one encoding per query class and adds a DEFLATE pass; here
//! each list is sent in the smallest of the three ([`smallest_encoding`]),
//! sized in closed form, so nothing is encoded to be measured and no entropy
//! coder sits on the answer path. On the paper's consecutive-ID workload the
//! rule picks ranges, the paper's own choice.
//!
//! Encoded lists come back from an untrusted server (and, between a worker
//! and its coordinator, from an untrusted peer), so [`decode_runs`] answers
//! with a *canonical* run list — strictly ascending, disjoint, maximal — or
//! not at all: every consumer may rely on that form without re-checking it.

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

/// The containers an ID list travels in. The discriminant is the container's
/// index in [`IdListEncoding::ALL`], which is also the tie order of
/// [`smallest_encoding`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum IdListEncoding {
    /// Run bounds, differential and variable-byte: the gap from the previous
    /// run's end to this run's start, then the run's span (Table 3's
    /// "Combination" row).
    RangesVbDiff,
    /// One variable-byte delta per identifier, no run structure.
    VbDiff,
    /// A variable-byte first identifier, a variable-byte span (the number of
    /// bits), then ⌈span/8⌉ bytes in which bit `i` (least significant first)
    /// stands for identifier `first + i`.
    SpanBitmap,
}

impl IdListEncoding {
    /// Every container, in tie order.
    pub const ALL: [IdListEncoding; 3] = [
        IdListEncoding::RangesVbDiff,
        IdListEncoding::VbDiff,
        IdListEncoding::SpanBitmap,
    ];

    /// The container the paper's consecutive-ID aggregation lists take: one
    /// run is two small varints, which no other container beats.
    pub fn seabed_default() -> IdListEncoding {
        IdListEncoding::RangesVbDiff
    }
}

/// The container [`encode_runs`] would write smallest for `runs`, and that
/// size in bytes — ties go to the earlier container of
/// [`IdListEncoding::ALL`]. Computed in one pass over the runs, without
/// encoding anything.
pub fn smallest_encoding(runs: &[Run]) -> (IdListEncoding, usize) {
    let sizes = encoded_sizes(runs);
    let best = (1..sizes.len()).fold(0, |best, i| if sizes[i] < sizes[best] { i } else { best });
    (IdListEncoding::ALL[best], sizes[best])
}

/// Encoded size in bytes for a run list under a given encoding: exactly
/// `encode_runs(runs, encoding).len()`, in closed form. A size past
/// `usize::MAX` (a per-ID list or a bitmap over most of the identifier space)
/// saturates there, so [`smallest_encoding`] never picks it.
pub fn encoded_size(runs: &[Run], encoding: IdListEncoding) -> usize {
    encoded_sizes(runs)[encoding as usize]
}

/// The three closed forms, in the order of [`IdListEncoding::ALL`]. The two
/// differential forms open a run with its distance from the previous run's
/// end; the range form then stores the run's span, the per-ID form one byte —
/// a delta of one — per further identifier.
fn encoded_sizes(runs: &[Run]) -> [usize; 3] {
    let vb = varint::encoded_len;
    let (mut ranges, mut per_id, mut prev) = (0usize, 0usize, 0u64);
    for run in runs {
        let (gap, span) = (vb(run.start - prev), run.end - run.start);
        ranges += gap + vb(span);
        per_id = per_id.saturating_add(gap).saturating_add(saturate(span));
        prev = run.end;
    }
    let bitmap = match bitmap_span(runs) {
        Some((first, bits)) => saturate(bits.div_ceil(8)).saturating_add(vb(first) + vb(bits)),
        None => usize::MAX,
    };
    [ranges, per_id, bitmap]
}

fn saturate(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

/// A bitmap's first identifier and its number of bits — `(0, 0)` for the
/// empty set — or `None` when the span is the whole identifier space and its
/// bit count does not fit a `u64`.
fn bitmap_span(runs: &[Run]) -> Option<(u64, u64)> {
    match (runs.first(), runs.last()) {
        (Some(first), Some(last)) => Some((first.start, (last.end - first.start).checked_add(1)?)),
        _ => Some((0, 0)),
    }
}

/// Encodes a run list in the chosen container.
///
/// Panics on a [`IdListEncoding::SpanBitmap`] of a set holding both `0` and
/// `u64::MAX`, whose span has no `u64` bit count; [`smallest_encoding`]
/// never picks it.
pub fn encode_runs(runs: &[Run], encoding: IdListEncoding) -> Vec<u8> {
    let mut out = Vec::with_capacity(runs.len() * 2);
    let mut prev = 0u64;
    match encoding {
        IdListEncoding::RangesVbDiff => {
            for run in runs {
                varint::encode_u64(run.start - prev, &mut out);
                varint::encode_u64(run.end - run.start, &mut out);
                prev = run.end;
            }
        }
        IdListEncoding::VbDiff => {
            for run in runs {
                varint::encode_u64(run.start - prev, &mut out);
                out.resize(out.len() + saturate(run.end - run.start), 1);
                prev = run.end;
            }
        }
        IdListEncoding::SpanBitmap => {
            let (first, bits) = bitmap_span(runs).expect("a bitmap's span fits a u64");
            varint::encode_u64(first, &mut out);
            varint::encode_u64(bits, &mut out);
            let at = out.len();
            out.resize(at + saturate(bits.div_ceil(8)), 0);
            for id in runs.iter().flat_map(|run| run.start - first..=run.end - first) {
                out[at + (id / 8) as usize] |= 1 << (id % 8);
            }
        }
    }
    out
}

/// Appends `[start, end]` to a canonical run list being decoded: `None`
/// unless it lies wholly above the last run. A run that begins right after
/// the last one ends extends it — the two name each identifier once, so the
/// set is not in doubt, only its spelling, and the result is the maximal-run
/// form either way.
fn push_decoded(runs: &mut Vec<Run>, start: u64, end: u64) -> Option<()> {
    match runs.last_mut() {
        Some(last) if start <= last.end => return None,
        Some(last) if start - 1 == last.end => last.end = end,
        _ => runs.push(Run { start, end }),
    }
    Some(())
}

/// Decodes a run list. Returns `None` on malformed input.
///
/// What comes back is always *canonical* — runs strictly ascending, disjoint
/// and maximal, the form [`ids_to_runs`] builds and every consumer (set
/// union, `run.start - prev` in the encoders, one PRF boundary pair per run)
/// takes for granted — whatever the bytes say, since they may come from an
/// untrusted peer. A list that names an identifier twice or out of order is
/// refused: runs that overlap, a repeated identifier in the per-ID form.
/// Two *adjacent* runs (`[1, 3], [4, 6]`) name each identifier once and are
/// coalesced into one, as a set union would. A bitmap is refused, before
/// anything is allocated, unless its body is exactly ⌈span/8⌉ bytes, its last
/// identifier fits a `u64` and the padding bits past the span are clear.
pub fn decode_runs(data: &[u8], encoding: IdListEncoding) -> Option<Vec<Run>> {
    match encoding {
        IdListEncoding::RangesVbDiff => {
            // Two bounds of at least a byte each per run.
            let mut runs = Vec::with_capacity(data.len() / 2);
            let (mut prev, mut pos) = (0u64, 0);
            while pos < data.len() {
                let (gap, next) = varint::decode_u64(data, pos)?;
                let (span, next) = varint::decode_u64(data, next)?;
                let start = prev.checked_add(gap)?;
                prev = start.checked_add(span)?;
                push_decoded(&mut runs, start, prev)?;
                pos = next;
            }
            Some(runs)
        }
        IdListEncoding::VbDiff => {
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
        IdListEncoding::SpanBitmap => decode_span_bitmap(data),
    }
}

fn decode_span_bitmap(data: &[u8]) -> Option<Vec<Run>> {
    let (first, pos) = varint::decode_u64(data, 0)?;
    let (bits, pos) = varint::decode_u64(data, pos)?;
    let body = &data[pos..];
    if body.len() as u64 != bits.div_ceil(8) || (bits > 0 && first.checked_add(bits - 1).is_none()) {
        return None;
    }
    if bits % 8 != 0 && body.last().is_some_and(|&last| last >> (bits % 8) != 0) {
        return None;
    }
    // Offsets from `first`: every set bit lies below `bits`, so each run's
    // bounds, shifted by `first`, stay within the checked last identifier.
    let mut runs = Vec::new();
    let mut open: Option<u64> = None;
    for (i, &byte) in body.iter().enumerate() {
        if (byte == 0 && open.is_none()) || (byte == 0xff && open.is_some()) {
            continue;
        }
        let at = 8 * i as u64;
        for bit in 0..8 {
            match (byte >> bit & 1 == 1, open) {
                (true, None) => open = Some(at + bit),
                (false, Some(start)) => {
                    runs.push(Run::new(first + start, first + (at + bit - 1)));
                    open = None;
                }
                _ => {}
            }
        }
    }
    if let Some(start) = open {
        runs.push(Run::new(first + start, first + (bits - 1)));
    }
    Some(runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use IdListEncoding::*;

    fn sample_runs() -> Vec<Run> {
        vec![Run::new(2, 14), Run::new(19, 23), Run::new(40, 40), Run::new(100, 1000)]
    }

    #[test]
    fn table3_example_combination_encoding() {
        // [2..14, 19..23] -> Combination [2-12, 5-4].
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = encode_runs(&runs, RangesVbDiff);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 12, 5, 4]);
        assert_eq!(decode_runs(&data, RangesVbDiff).unwrap(), runs);
    }

    #[test]
    fn table3_example_diff_encoding_of_ids() {
        // [2,3,4,9,23] -> diffs [2,1,1,5,14].
        let ids = vec![2u64, 3, 4, 9, 23];
        let runs = ids_to_runs(&ids);
        let data = encode_runs(&runs, VbDiff);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 1, 1, 5, 14]);
        assert_eq!(runs_to_ids(&decode_runs(&data, VbDiff).unwrap()), ids);
    }

    #[test]
    fn span_bitmap_layout() {
        // First 2, 22 bits, bit i for identifier 2 + i: 2–14 and 19–23 set.
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = encode_runs(&runs, SpanBitmap);
        assert_eq!(data, vec![2, 22, 0xff, 0x1f, 0x3e]);
        assert_eq!(decode_runs(&data, SpanBitmap).unwrap(), runs);
        assert_eq!(encode_runs(&[], SpanBitmap), vec![0, 0]);
    }

    #[test]
    fn all_encodings_roundtrip() {
        for runs in [sample_runs(), Vec::new(), vec![Run::new(u64::MAX - 9, u64::MAX)]] {
            for enc in IdListEncoding::ALL {
                let data = encode_runs(&runs, enc);
                assert_eq!(decode_runs(&data, enc).unwrap(), runs, "{enc:?}");
                assert_eq!(encoded_size(&runs, enc), data.len(), "{enc:?}");
            }
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
    fn each_container_wins_its_shape() {
        // Selectivity 100%: one run regardless of how many rows.
        let contiguous = vec![Run::new(0, 999_999)];
        assert_eq!(smallest_encoding(&contiguous), (RangesVbDiff, 1 + 3));
        // Single rows a byte's gap apart: a delta each.
        let sparse = ids_to_runs(&(0..1_000u64).map(|i| i * 20).collect::<Vec<_>>());
        assert_eq!(smallest_encoding(&sparse), (VbDiff, 1_000));
        // Every other row: a bit each.
        let alternating = ids_to_runs(&(0..1_000u64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(smallest_encoding(&alternating), (SpanBitmap, 1 + 2 + 250));
        // The whole identifier space: a bitmap would need 2^64 bits.
        let everything = vec![Run::new(0, u64::MAX)];
        assert_eq!(encoded_size(&everything, SpanBitmap), usize::MAX);
        assert_eq!(encoded_size(&everything, VbDiff), usize::MAX);
        assert_eq!(smallest_encoding(&everything), (RangesVbDiff, 1 + 10));
        // The empty set: nothing beats zero bytes.
        assert_eq!(smallest_encoding(&[]), (RangesVbDiff, 0));
    }

    /// Only canonical run lists come out of `decode_runs`. Each forged list
    /// here used to decode into a set whose `RangesVbDiff` encoding
    /// underflowed or that counted an identifier twice.
    #[test]
    fn decode_runs_refuses_lists_that_are_not_ascending_and_disjoint() {
        let vb = |values: &[u64]| varint::encode_all(values);
        assert_eq!(decode_runs(&vb(&[1, 9, 0, 5]), RangesVbDiff), None, "overlapping runs");
        assert_eq!(
            decode_runs(&vb(&[u64::MAX, 1]), RangesVbDiff),
            None,
            "past the last identifier"
        );
        assert_eq!(decode_runs(&vb(&[5, 0]), VbDiff), None, "an identifier twice");
        assert_eq!(
            decode_runs(&vb(&[7, u64::MAX]), VbDiff),
            None,
            "past the last identifier"
        );

        // Adjacent runs name each identifier once: coalesced, not refused.
        assert_eq!(
            decode_runs(&vb(&[1, 2, 1, 2]), RangesVbDiff),
            Some(vec![Run::new(1, 6)])
        );
        // A first run may start at zero, and the last identifier is one.
        assert_eq!(
            decode_runs(&vb(&[0, 0, 2, 0]), RangesVbDiff),
            Some(vec![Run::new(0, 0), Run::new(2, 2)])
        );
        let top = Some(vec![Run::new(u64::MAX - 1, u64::MAX)]);
        assert_eq!(decode_runs(&vb(&[u64::MAX - 1, 1]), RangesVbDiff), top);
        assert_eq!(decode_runs(&vb(&[u64::MAX - 1, 1]), VbDiff), top);
    }

    #[test]
    fn forged_bitmaps_are_refused() {
        let bitmap = |first: u64, bits: u64, body: &[u8]| {
            let mut data = varint::encode_all(&[first, bits]);
            data.extend_from_slice(body);
            decode_runs(&data, SpanBitmap)
        };
        assert_eq!(bitmap(0, 1 << 40, &[0xff]), None, "a span longer than the body");
        assert_eq!(
            bitmap(u64::MAX - 2, 16, &[0xff, 0xff]),
            None,
            "a last identifier past u64::MAX"
        );
        assert_eq!(bitmap(5, 17, &[0xff, 0xff]), None, "a body one byte short");
        assert_eq!(bitmap(5, 8, &[0xff, 0xff]), None, "a body one byte long");
        assert_eq!(bitmap(5, 4, &[0x10]), None, "a padding bit set");
        assert_eq!(decode_runs(&[0x80], SpanBitmap), None, "a truncated header");
        // The top of the identifier space is reachable, exactly.
        assert_eq!(
            bitmap(u64::MAX - 2, 3, &[0x05]),
            Some(vec![Run::new(u64::MAX - 2, u64::MAX - 2), Run::new(u64::MAX, u64::MAX)])
        );
        assert_eq!(bitmap(9, 0, &[]), Some(vec![]));
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
                let Some(runs) = decode_runs(&body, enc) else {
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
