//! ID-list containers (Table 3 of the paper), and the rule that picks one.
//!
//! Every ASHE aggregate carries the set of row identifiers that were folded
//! into it. Seabed keeps these lists compact by combining range encoding
//! (contiguous identifiers `[a … b]` become one pair, which is what Seabed's
//! consecutive row IDs make effective), differential encoding (values become
//! deltas to their predecessor) and variable-byte encoding (small numbers take
//! few bytes). Four containers come out of those pieces and one classic
//! succinct code:
//!
//! * [`IdListEncoding::RangesVbDiff`] — one `(gap, span)` pair per run, the
//!   "Combination" row of Table 3;
//! * [`IdListEncoding::VbDiff`] — one delta per identifier, which wins when a
//!   list is a few single rows a byte's gap apart;
//! * [`IdListEncoding::SpanBitmap`] — a bit per identifier between the first
//!   and the last, which wins when more than about a quarter of a span is
//!   selected: such a list is already near its entropy as a bitmap;
//! * [`IdListEncoding::EliasFano`] — the first identifier, the count `k` and
//!   the span `u` as varints, then each identifier's offset from the first
//!   split into `L = ⌊log₂(u/k)⌋` low bits, stored as they are, and high bits,
//!   stored in unary (Elias 1974, Fano 1971; Vigna, "Quasi-succinct indices",
//!   WSDM 2013): `2 + L` bits an identifier, which wins on the sparse
//!   selections and group-by lists below a quarter of their span.
//!
//! Each container's size is a closed form over the runs ([`encoded_size`]):
//! a range list is the varints of its gaps and spans, a per-ID list its gaps
//! plus one byte per further identifier, a bitmap its header and ⌈u/8⌉
//! bytes, an Elias–Fano list its header and ⌈(k·L + k + ⌊(u − 1)/2^L⌋)/8⌉
//! bytes. So [`smallest_encoding`] is an argmin over four numbers and encodes
//! nothing to measure it.
//!
//! The paper picks one encoding per query class and adds a DEFLATE pass; here
//! each list is sent in the smallest of the four ([`smallest_encoding`]),
//! and no entropy coder sits on the answer path. On the paper's
//! consecutive-ID workload the rule picks ranges, the paper's own choice.
//!
//! Encoded lists come back from an untrusted server (and, between a worker
//! and its coordinator, from an untrusted peer), so [`decode_runs`] answers
//! with a *canonical* run list — strictly ascending, disjoint, maximal — or
//! not at all: every consumer may rely on that form without re-checking it.
//! Besides the refusals every container shares (a truncated varint, an
//! identifier past `u64::MAX`, one named twice or out of order), a bitmap and
//! an Elias–Fano list are refused, before anything is allocated, unless
//! their body is exactly its closed-form length and their last possible
//! identifier fits a `u64`; and then unless their padding bits are clear.
//! An Elias–Fano list is also refused unless its count and span agree (no
//! span without identifiers, no more identifiers than the span holds), its
//! unary part holds exactly `k` ones, and its last identifier lies at most at
//! `first + u − 1`.
//!
//! The bitmap is written by filling each run's bytes and read a 64-bit word
//! at a time, one run per pair of bit transitions; an Elias–Fano list's low
//! fields are written a word at a time and its unary field read so. No
//! container is sized, written or read bit by bit.

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
/// and make room, one to write them (none for a single run). Neither pass
/// branches on the data: the second ends the open run at every offset and
/// starts the next one at the offset after it, moving to that next run only
/// where the offsets break.
pub fn append_offset_runs(offsets: &[u32], base: u64, runs: &mut Vec<Run>) {
    let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) else {
        return;
    };
    let breaks: usize = offsets.windows(2).map(|w| usize::from(w[1] != w[0] + 1)).sum();
    if breaks == 0 {
        runs.push(Run::new(base + first as u64, base + last as u64));
        return;
    }
    let at = runs.len();
    // One slot past the last run, for the start written after every offset.
    runs.resize(at + breaks + 2, Run { start: 0, end: 0 });
    let slots = &mut runs[at..];
    slots[0].start = base + first as u64;
    let mut slot = 0;
    for w in offsets.windows(2) {
        slots[slot].end = base + w[0] as u64;
        slots[slot + 1].start = base + w[1] as u64;
        slot += usize::from(w[1] != w[0] + 1);
    }
    slots[slot].end = base + last as u64;
    runs.truncate(at + breaks + 1);
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
    /// A variable-byte first identifier, count `k` and span `u`, then one
    /// bit string, least significant bit first: the low `L = ⌊log₂(u/k)⌋`
    /// bits of each identifier's offset from the first, `k·L` bits in
    /// identifier order, then the high bits in unary — the `i`-th identifier
    /// sets bit `(offset >> L) + i` of a field of `k + ⌊(u − 1)/2^L⌋` bits —
    /// and zero padding to a whole byte. Both sides compute `L`; it is not
    /// sent. The empty list is `k = u = 0` and no body.
    EliasFano,
}

impl IdListEncoding {
    /// Every container, in tie order.
    pub const ALL: [IdListEncoding; 4] = [
        IdListEncoding::RangesVbDiff,
        IdListEncoding::VbDiff,
        IdListEncoding::SpanBitmap,
        IdListEncoding::EliasFano,
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
/// `usize::MAX` (a per-ID list, a bitmap or an Elias–Fano list over most of
/// the identifier space) saturates there, so [`smallest_encoding`] never
/// picks it.
pub fn encoded_size(runs: &[Run], encoding: IdListEncoding) -> usize {
    encoded_sizes(runs)[encoding as usize]
}

/// The four closed forms, in the order of [`IdListEncoding::ALL`]. The two
/// differential forms open a run with its distance from the previous run's
/// end; the range form then stores the run's span, the per-ID form one byte —
/// a delta of one — per further identifier. The two span forms are a header
/// and a body that the first identifier, the span and the count fix.
fn encoded_sizes(runs: &[Run]) -> [usize; 4] {
    let vb = varint::encoded_len;
    let (mut ranges, mut per_id, mut prev, mut count) = (0usize, 0usize, 0u64, 0u64);
    for run in runs {
        let (gap, span) = (vb(run.start - prev), run.end - run.start);
        ranges += gap + vb(span);
        per_id = per_id.saturating_add(gap).saturating_add(saturate(span));
        count = count.saturating_add(span).saturating_add(1);
        prev = run.end;
    }
    let (bitmap, elias_fano) = match bitmap_span(runs) {
        Some((first, bits)) => (
            saturate(bits.div_ceil(8)).saturating_add(vb(first) + vb(bits)),
            saturate(elias_fano_body_len(count, bits)).saturating_add(vb(first) + vb(count) + vb(bits)),
        ),
        None => (usize::MAX, usize::MAX),
    };
    [ranges, per_id, bitmap, elias_fano]
}

fn saturate(value: u64) -> usize {
    usize::try_from(value).unwrap_or(usize::MAX)
}

/// A bitmap's first identifier and its number of bits — `(0, 0)` for the
/// empty set — or `None` when the span is the whole identifier space and its
/// bit count does not fit a `u64`. An Elias–Fano list has the same span.
fn bitmap_span(runs: &[Run]) -> Option<(u64, u64)> {
    match (runs.first(), runs.last()) {
        (Some(first), Some(last)) => Some((first.start, (last.end - first.start).checked_add(1)?)),
        _ => Some((0, 0)),
    }
}

/// `L = ⌊log₂(span/count)⌋` for `count ≥ 1`, and 0 where the span holds
/// fewer slots than identifiers (a forged header, refused later).
fn elias_fano_low_bits(count: u64, span: u64) -> u32 {
    match span / count {
        0 => 0,
        ratio => ratio.ilog2(),
    }
}

/// Bits of an Elias–Fano body before padding: `k·L` low bits and a unary
/// field of `k + ⌊(u − 1)/2^L⌋` bits; 0 for the empty list. Exact in `u128`.
fn elias_fano_bits(count: u64, span: u64) -> u128 {
    if count == 0 || span == 0 {
        return 0;
    }
    let low = elias_fano_low_bits(count, span);
    count as u128 * (low as u128 + 1) + ((span - 1) >> low) as u128
}

/// Bytes of an Elias–Fano body, saturating at `u64::MAX`.
fn elias_fano_body_len(count: u64, span: u64) -> u64 {
    u64::try_from(elias_fano_bits(count, span).div_ceil(8)).unwrap_or(u64::MAX)
}

/// Encodes a run list in the chosen container.
///
/// Panics on a [`IdListEncoding::SpanBitmap`] or an
/// [`IdListEncoding::EliasFano`] list of a set holding both `0` and
/// `u64::MAX`, whose span has no `u64` bit count; [`smallest_encoding`]
/// never picks either.
pub fn encode_runs(runs: &[Run], encoding: IdListEncoding) -> Vec<u8> {
    let mut out = Vec::with_capacity(runs.len() * 2);
    write_runs(runs, encoding, &mut out);
    out
}

/// Appends `runs` to `out` in `encoding`: exactly `size` bytes, where `size`
/// is [`encoded_size`]`(runs, encoding)` — the size [`smallest_encoding`]
/// returns beside its choice, so a caller that chose the container has
/// already sized it, and the list is written into room claimed once.
/// Panics when `size` is not that size.
pub fn append_encoded(runs: &[Run], encoding: IdListEncoding, size: usize, out: &mut Vec<u8>) {
    let at = out.len();
    out.reserve(size);
    write_runs(runs, encoding, out);
    assert_eq!(out.len() - at, size, "{encoding:?} is not the size given");
}

/// Appends `runs` in `encoding`; the one writer of every container.
fn write_runs(runs: &[Run], encoding: IdListEncoding, out: &mut Vec<u8>) {
    let mut prev = 0u64;
    match encoding {
        IdListEncoding::RangesVbDiff => {
            for run in runs {
                varint::encode_u64(run.start - prev, out);
                varint::encode_u64(run.end - run.start, out);
                prev = run.end;
            }
        }
        IdListEncoding::VbDiff => {
            for run in runs {
                varint::encode_u64(run.start - prev, out);
                out.resize(out.len() + saturate(run.end - run.start), 1);
                prev = run.end;
            }
        }
        IdListEncoding::SpanBitmap => {
            let (first, bits) = bitmap_span(runs).expect("a bitmap's span fits a u64");
            varint::encode_u64(first, out);
            varint::encode_u64(bits, out);
            let body = claim_body(out, bits.div_ceil(8));
            for run in runs {
                fill_bits(body, run.start - first, run.end - first);
            }
        }
        IdListEncoding::EliasFano => {
            let (first, span) = bitmap_span(runs).expect("an Elias–Fano span fits a u64");
            let count: u64 = runs.iter().map(Run::len).sum();
            varint::encode_u64(first, out);
            varint::encode_u64(count, out);
            varint::encode_u64(span, out);
            let body = claim_body(out, elias_fano_body_len(count, span));
            if count == 0 {
                return;
            }
            let low = elias_fano_low_bits(count, span);
            // Half-open, which iterates faster: `span` fits a u64, so no
            // offset is u64::MAX.
            let offsets = || runs.iter().flat_map(|run| run.start - first..run.end - first + 1);
            // The low fields in order, gathered in a 128-bit accumulator
            // that stores whole words.
            if low > 0 {
                let mask = (1u64 << low) - 1;
                let (mut acc, mut filled, mut at) = (0u128, 0u32, 0usize);
                for offset in offsets() {
                    acc |= ((offset & mask) as u128) << filled;
                    filled += low;
                    if filled >= 64 {
                        body[at..at + 8].copy_from_slice(&(acc as u64).to_le_bytes());
                        (acc, filled, at) = (acc >> 64, filled - 64, at + 8);
                    }
                }
                let tail = filled.div_ceil(8) as usize;
                body[at..at + tail].copy_from_slice(&(acc as u64).to_le_bytes()[..tail]);
            }
            // Then the high parts in unary: the i-th sets bit `high + i`.
            for (bit, offset) in (count * low as u64..).zip(offsets()) {
                let at = bit + (offset >> low);
                body[(at / 8) as usize] |= 1 << (at % 8);
            }
        }
    }
}

/// Appends `len` zero bytes to `out` and returns them.
fn claim_body(out: &mut Vec<u8>, len: u64) -> &mut [u8] {
    let at = out.len();
    out.resize(at + saturate(len), 0);
    &mut out[at..]
}

/// Sets bits `from..=to` of a little-endian bit string: the bytes between
/// the two ends in one fill.
fn fill_bits(body: &mut [u8], from: u64, to: u64) {
    let (first, last) = ((from / 8) as usize, (to / 8) as usize);
    let (head, tail) = (0xffu8 << (from % 8), 0xffu8 >> (7 - to % 8));
    if first == last {
        body[first] |= head & tail;
    } else {
        body[first] |= head;
        body[first + 1..last].fill(0xff);
        body[last] |= tail;
    }
}

/// Bits that [`bits_at`] always returns.
const WINDOW: u32 = 56;

/// The bits of a little-endian bit string from bit `at` on — at least
/// [`WINDOW`] of them, zeros past the string's end.
fn bits_at(body: &[u8], at: u64) -> u64 {
    let byte = (at / 8) as usize;
    let word = match body.get(byte..byte + 8) {
        Some(chunk) => u64::from_le_bytes(chunk.try_into().expect("eight bytes")),
        None => {
            let tail = body.get(byte..).unwrap_or_default();
            let mut chunk = [0u8; 8];
            chunk[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(chunk)
        }
    };
    word >> (at % 8)
}

/// The `width`-bit field (at most 63 bits) at bit `at`.
fn field_at(body: &[u8], at: u64, width: u32) -> u64 {
    let mask = (1u64 << width) - 1;
    if width <= WINDOW {
        bits_at(body, at) & mask
    } else {
        (bits_at(body, at) & ((1 << WINDOW) - 1) | bits_at(body, at + WINDOW as u64) << WINDOW) & mask
    }
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
/// refused: runs that overlap, a repeated identifier in the per-ID or the
/// Elias–Fano form. Two *adjacent* runs (`[1, 3], [4, 6]`) name each
/// identifier once and are coalesced into one, as a set union would. A
/// bitmap or an Elias–Fano list is refused, before anything is allocated,
/// unless its body is exactly its closed-form length and its last possible
/// identifier fits a `u64`, and then unless the padding bits past its body
/// are clear. An Elias–Fano list is also refused when its count and span
/// disagree (one zero and not the other), when its unary field holds other
/// than `count` ones, and when its last identifier lies past
/// `first + span − 1`.
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
        IdListEncoding::EliasFano => decode_elias_fano(data),
    }
}

/// The body after a span header whose last identifier, `first + span − 1`,
/// fits a `u64`, if it is exactly `len` bytes long and its bits from `bits`
/// on are clear.
fn checked_body(data: &[u8], pos: usize, first: u64, span: u64, len: u64, bits: u128) -> Option<&[u8]> {
    let body = &data[pos..];
    if body.len() as u64 != len || (span > 0 && first.checked_add(span - 1).is_none()) {
        return None;
    }
    let used = (bits % 8) as u32;
    if used != 0 && body.last().is_some_and(|&last| last >> used != 0) {
        return None;
    }
    Some(body)
}

/// A bitmap, read a 64-bit word at a time: each set bit of `word ^ (word <<
/// 1 | carry)` is a transition, and transitions alternate between a run's
/// first identifier and the one after its last.
fn decode_span_bitmap(data: &[u8]) -> Option<Vec<Run>> {
    let (first, pos) = varint::decode_u64(data, 0)?;
    let (bits, pos) = varint::decode_u64(data, pos)?;
    let body = checked_body(data, pos, first, bits, bits.div_ceil(8), bits as u128)?;
    // Offsets from `first`: every set bit lies below `bits`, so each run's
    // bounds, shifted by `first`, stay within the checked last identifier.
    let mut runs = Vec::new();
    let (mut open, mut carry) = (None, 0u64);
    for (i, chunk) in body.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(word);
        let mut edges = word ^ (word << 1 | carry);
        carry = word >> 63;
        while edges != 0 {
            let at = 64 * i as u64 + edges.trailing_zeros() as u64;
            edges &= edges - 1;
            open = match open {
                None => Some(at),
                Some(start) => {
                    runs.push(Run::new(first + start, first + (at - 1)));
                    None
                }
            };
        }
    }
    if let Some(start) = open {
        runs.push(Run::new(first + start, first + (bits - 1)));
    }
    Some(runs)
}

/// An Elias–Fano list, its unary field read a word ([`WINDOW`] bits) at a
/// time: the `i`-th one at bit `p` of the field is the identifier whose high
/// bits are `p − i`, and whose low bits are the `i`-th `L`-bit field before
/// it.
fn decode_elias_fano(data: &[u8]) -> Option<Vec<Run>> {
    let (first, pos) = varint::decode_u64(data, 0)?;
    let (count, pos) = varint::decode_u64(data, pos)?;
    let (span, pos) = varint::decode_u64(data, pos)?;
    if (count == 0) != (span == 0) {
        return None;
    }
    let bits = elias_fano_bits(count, span);
    let body = checked_body(data, pos, first, span, elias_fano_body_len(count, span), bits)?;
    let mut runs = Vec::new();
    if count == 0 {
        return Some(runs);
    }
    // The body holds all `bits`, so `count` and every position below fit it.
    let low = elias_fano_low_bits(count, span);
    let unary_at = count * low as u64;
    let unary_end = bits as u64;
    let mut seen = 0u64;
    let mut word_at = unary_at;
    while word_at < unary_end {
        let width = (unary_end - word_at).min(WINDOW as u64);
        let mut ones = bits_at(body, word_at) & ((1 << width) - 1);
        while ones != 0 {
            let high = word_at - unary_at + ones.trailing_zeros() as u64 - seen;
            ones &= ones - 1;
            // A forged field may hold fewer ones than `count`, so `high` is
            // bounded by the field, not by the span, until checked here.
            let offset = (high as u128) << low | field_at(body, seen * low as u64, low) as u128;
            if offset >= span as u128 {
                return None;
            }
            let id = first + offset as u64;
            push_decoded(&mut runs, id, id)?;
            seen += 1;
        }
        word_at += width;
    }
    (seen == count).then_some(runs)
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
    fn elias_fano_layout() {
        // First 2, 18 identifiers, span 22: L = ⌊log₂(22/18)⌋ = 0, so no low
        // bits, and identifier i (offset o) sets unary bit o + i of 18 + 21.
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = encode_runs(&runs, EliasFano);
        assert_eq!(data, vec![2, 18, 22, 0x55, 0x55, 0x55, 0x41, 0x55]);
        assert_eq!(decode_runs(&data, EliasFano).unwrap(), runs);
        // {3, 40, 41, 99}: span 97, L = 4; low nibbles 0, 5, 6, 0, then the
        // unary field 0b1_0000_1101_1 (high bits 0, 2, 2, 6 plus 0, 1, 2, 3).
        let runs = ids_to_runs(&[3, 40, 41, 99]);
        let data = encode_runs(&runs, EliasFano);
        assert_eq!(data, vec![3, 4, 97, 0x50, 0x06, 0x19, 0x02]);
        assert_eq!(decode_runs(&data, EliasFano).unwrap(), runs);
        assert_eq!(encode_runs(&[], EliasFano), vec![0, 0, 0]);
    }

    #[test]
    fn each_container_wins_its_shape() {
        // Selectivity 100%: one run regardless of how many rows.
        let contiguous = vec![Run::new(0, 999_999)];
        assert_eq!(smallest_encoding(&contiguous), (RangesVbDiff, 1 + 3));
        // A few single rows a byte's gap apart: a delta each.
        let few = ids_to_runs(&[20, 40, 60]);
        assert_eq!(smallest_encoding(&few), (VbDiff, 3));
        // Many: 2 + ⌊log₂(19 981/1 000)⌋ bits each, 6 248 bits in all.
        let sparse = ids_to_runs(&(0..1_000u64).map(|i| i * 20).collect::<Vec<_>>());
        assert_eq!(encoded_size(&sparse, VbDiff), 1_000);
        assert_eq!(smallest_encoding(&sparse), (EliasFano, 1 + 2 + 3 + 781));
        // Every other row: a bit each.
        let alternating = ids_to_runs(&(0..1_000u64).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(smallest_encoding(&alternating), (SpanBitmap, 1 + 2 + 250));
        // The whole identifier space: a bitmap would need 2^64 bits.
        let everything = vec![Run::new(0, u64::MAX)];
        assert_eq!(encoded_size(&everything, SpanBitmap), usize::MAX);
        assert_eq!(encoded_size(&everything, EliasFano), usize::MAX);
        assert_eq!(encoded_size(&everything, VbDiff), usize::MAX);
        assert_eq!(smallest_encoding(&everything), (RangesVbDiff, 1 + 10));
        // The empty set: nothing beats zero bytes.
        assert_eq!(smallest_encoding(&[]), (RangesVbDiff, 0));
    }

    /// The closed forms agree with what is written on lists that reach the
    /// top of the identifier space and on one-identifier lists, where
    /// `L = ⌊log₂(u/k)⌋` is 0.
    #[test]
    fn elias_fano_sizes_are_exact_at_the_edges() {
        for ids in [
            vec![u64::MAX],
            vec![0],
            vec![7],
            vec![0, u64::MAX - 1],
            vec![1, u64::MAX],
        ] {
            let runs = ids_to_runs(&ids);
            let data = encode_runs(&runs, EliasFano);
            assert_eq!(encoded_size(&runs, EliasFano), data.len(), "{ids:?}");
            assert_eq!(decode_runs(&data, EliasFano), Some(runs), "{ids:?}");
        }
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

    /// Each refusal of an Elias–Fano list, on a list one change away from
    /// the honest `{3, 40, 41, 99}` (`3 4 97 | 50 06 19 02`).
    #[test]
    fn forged_elias_fano_lists_are_refused() {
        let list = |header: &[u64], body: &[u8]| {
            let mut data = varint::encode_all(header);
            data.extend_from_slice(body);
            decode_runs(&data, EliasFano)
        };
        let body = [0x50, 0x06, 0x19, 0x02];
        assert_eq!(list(&[3, 4, 97], &body), Some(ids_to_runs(&[3, 40, 41, 99])));
        assert_eq!(list(&[3, 4, 97], &body[..3]), None, "a body one byte short");
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0x06, 0x19, 0x02, 0]),
            None,
            "a body one byte long"
        );
        assert_eq!(list(&[3, 4, 1 << 40], &body), None, "a span longer than the body");
        assert_eq!(list(&[3, 4, 97], &[0x50, 0x06, 0x19, 0x06]), None, "a padding bit set");
        // {3, 40, 41} and {3, 40, 41, 83, 92}: ascending and within the span.
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0x06, 0x19, 0x00]),
            None,
            "three ones for four identifiers"
        );
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0x06, 0x19, 0x03]),
            None,
            "five ones for four identifiers"
        );
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0x05, 0x19, 0x02]),
            None,
            "an identifier twice"
        );
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0x04, 0x19, 0x02]),
            None,
            "an identifier below the last"
        );
        assert_eq!(
            list(&[3, 4, 97], &[0x50, 0xf6, 0x19, 0x02]),
            None,
            "the last past first + span − 1"
        );
        assert_eq!(
            list(&[u64::MAX - 90, 4, 97], &body),
            None,
            "a last identifier past u64::MAX"
        );
        assert_eq!(list(&[3, 0, 97], &[]), None, "a span without identifiers");
        assert_eq!(list(&[3, 4, 0], &[]), None, "identifiers without a span");
        assert_eq!(list(&[3, 4], &[]), None, "a truncated header");
        // More identifiers than the span has slots: L = 0 and a repeat.
        assert_eq!(list(&[3, 3, 2], &[0x0d]), None, "three identifiers in two slots");
        // The top of the identifier space is reachable, exactly.
        assert_eq!(
            list(&[u64::MAX - 2, 2, 3], &[0x09]),
            Some(vec![Run::new(u64::MAX - 2, u64::MAX - 2), Run::new(u64::MAX, u64::MAX)])
        );
        assert_eq!(list(&[0, 0, 0], &[]), Some(vec![]));
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
