//! Order-revealing encryption (ORE) after Chenette, Lewi, Weis and Wu (FSE'16).
//!
//! Seabed needs range predicates over encrypted dimensions (e.g. timestamps).
//! CryptDB's mutable OPE needs all plaintexts up front, which does not fit a
//! continuously-growing dataset, so Seabed adopts the practical ORE of
//! Chenette et al. (§4.2, Appendix A.3): each of the `n` plaintext bits is
//! blinded by a PRF of the bit's *prefix*, reduced modulo 3.
//!
//! For an `n`-bit message `m = b_1 b_2 … b_n` (most-significant first) the
//! ciphertext is `(u_1, …, u_n)` with
//!
//! ```text
//! u_i = ( F(k, (i, b_1 … b_{i-1} ‖ 0^{n-i})) + b_i ) mod 3
//! ```
//!
//! Comparison finds the first index where two ciphertexts differ; whether the
//! difference is `+1` or `+2` (mod 3) reveals which plaintext is larger. The
//! leakage is exactly the order plus the index of the most significant
//! differing bit — nothing else.
//!
//! # What is stored
//!
//! A symbol is one of `0, 1, 2`, so it is stored, shipped and compared in
//! **two bits**, four symbols to a byte, the most significant symbol in the
//! top two bits of the first byte: [`ORE_CELL_BYTES`] = 16 bytes per cell,
//! behind a 4-byte length in a serialized table — 20 of the 60 stored bytes of
//! a row with one ORE column, and what `engine::storage::column_disk_size`
//! charges. The paper's ciphertext is `n · log₂ 3 ≈ 1.6 n` bits; two bits a
//! symbol is its byte-aligned form (the lane value `3` is never written), and
//! the form a word compare can read without decoding.
//!
//! # Comparison
//!
//! [`first_difference`] is the one body that compares two 16-byte cells, each
//! as two big-endian words ([`cell_words`]): it picks the first word pair that
//! differs with a select, not a loop, finds the first differing two-bit lane
//! with `leading_zeros`, and returns that lane's symbol pair `(x, y)` as a
//! four-bit index `4x + y`. What a pair says is one 16-entry bit table,
//! `GREATER`. The server's range filters fold their operator into the table of
//! the pairs it accepts ([`accepted_pairs`]) once and read one bit of it per
//! cell; [`try_compare_symbols`] — and through it [`OreCiphertext::compare`]
//! and the MIN/MAX fold — turns the pair into an [`Ordering`]. The order is
//! never branched on: a scan that keeps about half its rows, in no pattern a
//! predictor learns, pays no misprediction, where the `if x == (y + 1) % 3`
//! this replaced mispredicted on about every other row. (LLVM may still lower
//! the word select to a branch — it does in the dense select kernel — but which
//! word differs follows a cell's top 32 plaintext bits against the literal's,
//! not its order, and the cells of one column mostly agree on them.) The table
//! has an entry for lane value `3`, which only a corrupt cell holds, so every
//! input is ordered as the lanewise oracle orders it. Real dimension values
//! (timestamps) are small, so two ciphertexts of one column agree on most of
//! their leading symbols and the first difference usually sits in the second
//! word.
//!
//! # Encryption
//!
//! [`OreCursor::encrypt_run`] is the one body that encrypts cells;
//! [`OreCursor::encrypt`] is a run of one, [`OreScheme::encrypt`],
//! [`OreScheme::encrypt_into`] and [`OreScheme::encrypt_i64`] are a fresh
//! cursor's first step, and a bulk load drives one cursor down its column as
//! one run. The PRF input of level `i` is `(i, prefix_i(m))`, so two values
//! whose top `k` bits agree share the PRF outputs of levels `0..=k` — and
//! those do not depend on anything else. The cursor keeps the previous value
//! and its 64 `F mod 3` outputs (two bits a level, laid out like a cell),
//! takes `lcp = (m ^ prev).leading_zeros()`, evaluates only levels `lcp + 1 ..`
//! and patches them in; the cell is then `F + bit (mod 3)` on all 64 lanes at
//! once. Every output is the function of `(key, m)` the formula above states —
//! a kept output is the output that would have been recomputed — so the
//! ciphertext is [`OreScheme::encrypt_scalar`]'s bit for bit, whatever came
//! before.
//!
//! A row costs `63 - lcp` PRF blocks: 64 for a cursor's first value, 0 for a
//! repeat of the value before it, about 15 for shuffled seconds-of-a-day
//! (`< 86 400`: 47 leading zero bits in common, then one more shared level per
//! coin flip) and about 5 for the same values time-ordered (5 000 a day, ≈ 17 s
//! apart: only the low bits move). [`OreCursor::prf_blocks`] counts them. A
//! row's handful of blocks would pay an AES dispatch's latency floor — a call
//! of one to eight blocks costs about what eight do — so a run gathers the new
//! levels of up to [`OreCursor::RUN_ROWS`] rows, encrypts them in one
//! dispatch, and then patches them in row by row.
//!
//! **What timing reveals.** The time to encrypt a column varies with the
//! first differing bit of *adjacent* rows. That index is the scheme's defined
//! leakage (`inddiff`, [`OreCiphertext::diff_index`]), and the server that
//! receives the cells computes it for any pair it likes: an observer of the
//! proxy's timing learns nothing the stored column does not already disclose.
//! The cursor's state is another matter — `prev` is a plaintext, the PRF
//! words subtracted from a cell give back its bits, and the dispatch buffer
//! holds plaintext prefixes and PRF outputs — so all three are wiped when the
//! cursor is dropped, like the round keys beside them. A dispatch of at most
//! one value's 64 blocks (a bind-time literal's, a fresh cursor's first
//! value) runs on the stack instead, and is wiped as soon as it is patched in.

use crate::aes::{hw, Aes128};
use std::cmp::Ordering;

/// Number of plaintext bits handled by [`OreScheme`]; Seabed's dimensions are
/// at most 64-bit integers.
pub const ORE_BITS: usize = 64;

/// Bytes of one stored ciphertext: [`ORE_BITS`] symbols, four to a byte.
pub const ORE_CELL_BYTES: usize = ORE_BITS / 4;

/// An ORE ciphertext: one mod-3 symbol per plaintext bit, packed four to a
/// byte (see the module docs).
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct OreCiphertext {
    /// The `u_i` symbols, two bits each, most-significant bit's symbol first.
    pub symbols: Vec<u8>,
}

impl OreCiphertext {
    /// Compares two ciphertexts, returning the ordering of the underlying
    /// plaintexts. Panics if the ciphertexts have different lengths (they were
    /// produced by different schemes).
    pub fn compare(&self, other: &Self) -> Ordering {
        try_compare_symbols(&self.symbols, &other.symbols).expect("cannot compare ORE ciphertexts of different widths")
    }

    /// Returns the index of the most significant differing bit between the two
    /// underlying plaintexts, or `None` if they are equal. This is exactly the
    /// scheme's defined leakage (`inddiff` in the paper's Appendix A.3).
    pub fn diff_index(&self, other: &Self) -> Option<usize> {
        let differing = self.symbols.iter().zip(&other.symbols).map(|(a, b)| a ^ b);
        differing
            .enumerate()
            .find(|(_, diff)| *diff != 0)
            .map(|(byte, diff)| byte * 4 + diff.leading_zeros() as usize / 2)
    }
}

/// The order rule, stated once: bit `4x + y` is set when `x == (y + 1) % 3` —
/// the first differing symbol pair `(x, y)` has `x` one ahead of `y` (mod 3),
/// so `x`'s plaintext has the 1 bit there and is the greater. It has an entry
/// for every pair of two-bit lanes because a corrupt cell's lane may hold `3`:
/// built over honest symbols only it would be `0x214`, which orders the pair
/// `(1, 3)` unlike the lanewise rule. Equal symbols have a clear bit.
const GREATER: u16 = 0x294;

/// The first differing two-bit lane of words `x` and `y` (32 lanes each, the
/// first symbol in the top bits), as the index `4x + y` of its symbol pair in
/// [`GREATER`]. Branch-free: the XOR of the words is zero while they agree and
/// its highest set bit lies in the first differing lane, which a shift brings
/// to the top; equal words shift by nothing and give a pair of equal symbols,
/// which unequal words never do.
#[inline]
fn word_pair(x: u64, y: u64) -> usize {
    let lane = (x ^ y).leading_zeros() & !1;
    (x.wrapping_shl(lane) >> 60 & 0b1100 | y.wrapping_shl(lane) >> 62) as usize
}

/// What each first-difference pair ([`first_difference`]) says about the first
/// cell's plaintext against the second's: [`GREATER`] read at every pair, and
/// a pair of equal symbols — which only equal cells give — is `Equal`.
const PAIR_ORDERINGS: [Ordering; 16] = {
    let mut orderings = [Ordering::Less; 16];
    let mut pair = 0;
    while pair < 16 {
        if pair >> 2 == pair & 3 {
            orderings[pair] = Ordering::Equal;
        } else if GREATER >> pair & 1 == 1 {
            orderings[pair] = Ordering::Greater;
        }
        pair += 1;
    }
    orderings
};

/// The 16-entry bit table of the first-difference pairs
/// ([`first_difference`]) whose ordering `accepts`: a filter folds its
/// operator into one once and reads one bit of it per cell.
pub fn accepted_pairs(accepts: impl Fn(Ordering) -> bool) -> u16 {
    (0..16)
        .filter(|&pair| accepts(PAIR_ORDERINGS[pair]))
        .fold(0, |table, pair| table | 1 << pair)
}

/// A 16-byte cell as the two big-endian words [`first_difference`] compares
/// (`from_be_bytes` puts byte 0 highest on every host).
#[inline]
pub fn cell_words(cell: &[u8; ORE_CELL_BYTES]) -> [u64; 2] {
    let (words, _) = cell.as_chunks::<8>();
    [u64::from_be_bytes(words[0]), u64::from_be_bytes(words[1])]
}

/// The symbol pair `(x, y)` of the first lane where cells `a` and `b` (as
/// [`cell_words`]) differ, as the index `4x + y` of a 16-entry table — a pair
/// of equal symbols when the cells are equal. The word is picked by a select,
/// not a loop, and the lane is found without a branch.
#[inline]
pub fn first_difference(a: [u64; 2], b: [u64; 2]) -> usize {
    let word = usize::from(a[0] == b[0]);
    word_pair(a[word], b[word])
}

/// Total, allocation-free comparison of two packed ORE cells (the stored form
/// of [`OreCiphertext`]). Returns `None` when the widths differ — a corrupt
/// cell or a ciphertext from a different scheme — so scan loops can treat such
/// rows as non-matching instead of panicking or cloning each cell into an
/// [`OreCiphertext`] first.
///
/// A 16-byte cell is [`first_difference`]'s two words. Other widths are
/// compared thirty-two symbols at a time up to the first differing word — a
/// width that is not a multiple of eight bytes ends in a zero-padded word —
/// whose first differing lane is then read the same way.
pub fn try_compare_symbols(a: &[u8], b: &[u8]) -> Option<Ordering> {
    if a.len() != b.len() {
        return None;
    }
    if let (Ok(a), Ok(b)) = (a.try_into(), b.try_into()) {
        return Some(PAIR_ORDERINGS[first_difference(cell_words(a), cell_words(b))]);
    }
    let padded = |tail: &[u8]| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_be_bytes(word)
    };
    let (a_words, a_tail) = a.as_chunks::<8>();
    let (b_words, b_tail) = b.as_chunks::<8>();
    let (x, y) = a_words
        .iter()
        .zip(b_words)
        .map(|(x, y)| (u64::from_be_bytes(*x), u64::from_be_bytes(*y)))
        .chain([(padded(a_tail), padded(b_tail))])
        .find(|(x, y)| x != y)
        .unwrap_or_default();
    Some(PAIR_ORDERINGS[word_pair(x, y)])
}

/// The lane-at-a-time comparison, kept as the oracle the word-at-a-time one is
/// pinned against.
#[cfg(test)]
fn compare_symbols_bytewise(a: &[u8], b: &[u8]) -> Option<Ordering> {
    if a.len() != b.len() {
        return None;
    }
    for (x, y) in a.iter().zip(b.iter()) {
        for lane in 0..4 {
            let (x, y) = ((x >> (6 - 2 * lane)) & 3, (y >> (6 - 2 * lane)) & 3);
            if x != y {
                return Some(if x == (y + 1) % 3 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                });
            }
        }
    }
    Some(Ordering::Equal)
}

/// The ORE scheme instance (one per order-encrypted column).
#[derive(Clone)]
pub struct OreScheme {
    cipher: Aes128,
}

impl OreScheme {
    /// Creates the scheme from a 16-byte PRF key.
    pub fn new(key: &[u8; 16]) -> Self {
        OreScheme {
            cipher: Aes128::new(key),
        }
    }

    /// PRF over (bit index, prefix) producing a value mod 3.
    fn prf_mod3(&self, index: usize, prefix: u64) -> u8 {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&(index as u64).to_be_bytes());
        block[8..].copy_from_slice(&prefix.to_be_bytes());
        let out = self.cipher.encrypt_block(&block);
        // Use 64 bits of the output; the bias of reducing a uniform 64-bit
        // value mod 3 is negligible (< 2^-62).
        (u64::from_be_bytes(out[..8].try_into().unwrap()) % 3) as u8
    }

    /// Encrypts a 64-bit value: the first step of a fresh [`OreCursor`].
    ///
    /// Output is identical to [`OreScheme::encrypt_scalar`], the per-bit
    /// reference path.
    pub fn encrypt(&self, m: u64) -> OreCiphertext {
        OreCiphertext {
            symbols: self.cursor().encrypt(m).to_vec(),
        }
    }

    /// Encrypts a 64-bit value into a caller-provided cell, without
    /// allocating: one value's dispatch runs on the stack. A column of values
    /// goes through one [`OreScheme::cursor`] instead, which pays only for
    /// what a value does not share with the one before it.
    pub fn encrypt_into(&self, m: u64, cell: &mut [u8; ORE_CELL_BYTES]) {
        *cell = self.cursor().encrypt(m);
    }

    /// A cursor for encrypting a sequence of values — a column, in row order —
    /// under this scheme (see the module docs, "Encryption").
    pub fn cursor(&self) -> OreCursor<'_> {
        OreCursor {
            cipher: &self.cipher,
            prev: 0,
            primed: false,
            prf: [0; 2],
            blocks: Vec::new(),
            prf_blocks: 0,
        }
    }

    /// Per-bit scalar reference implementation of [`OreScheme::encrypt`]:
    /// one PRF call (and one AES dispatch) per plaintext bit. Kept as the
    /// differential oracle the batched path is pinned against.
    pub fn encrypt_scalar(&self, m: u64) -> OreCiphertext {
        let mut symbols = vec![0u8; ORE_CELL_BYTES];
        let mut prefix: u64 = 0;
        for i in 0..ORE_BITS {
            let bit = ((m >> (ORE_BITS - 1 - i)) & 1) as u8;
            let u = (self.prf_mod3(i, prefix) + bit) % 3;
            symbols[i / 4] |= u << (6 - 2 * (i % 4));
            prefix |= (bit as u64) << (ORE_BITS - 1 - i);
        }
        OreCiphertext { symbols }
    }

    /// Encrypts a signed value by mapping it to an order-preserving unsigned
    /// representation (offset by 2^63).
    pub fn encrypt_i64(&self, m: i64) -> OreCiphertext {
        self.encrypt((m as u64) ^ (1u64 << 63))
    }

    /// Convenience comparison of two plaintexts through their encryptions.
    pub fn compare_plain(&self, a: u64, b: u64) -> Ordering {
        self.encrypt(a).compare(&self.encrypt(b))
    }
}

/// Encrypts a sequence of values under one [`OreScheme`], reusing the PRF
/// outputs each value shares with the one before it (module docs,
/// "Encryption"). The ciphertexts do not depend on the sequence; the work does.
pub struct OreCursor<'a> {
    cipher: &'a Aes128,
    /// The value encrypted last, once `primed` by a first one.
    prev: u64,
    primed: bool,
    /// `F(k, (i, prefix_i(prev))) mod 3` for all 64 levels, two bits a level,
    /// laid out like the cell: level 0 in the top bits of word 0.
    prf: [u64; 2],
    /// One dispatch's PRF inputs, encrypted in place into its outputs, once
    /// they outgrow one value's 64. It grows to the most blocks a dispatch
    /// has needed and is overwritten, not cleared, so everything ever written
    /// to it lies within its length.
    blocks: Vec<[u8; 16]>,
    /// PRF blocks evaluated so far: `63 - lcp` a value, 64 for the first.
    pub prf_blocks: u64,
}

/// The low bit of every two-bit lane of a word.
const LANE_LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Spreads the 32 bits of `half` to the even bit positions of a word: bit `k`
/// lands on bit `2k`, the low bit of the lane that holds its level's symbol.
#[inline]
fn spread_bits(half: u32) -> u64 {
    let mut x = u64::from(half);
    x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    x = (x | x << 8) & 0x00FF_00FF_00FF_00FF;
    x = (x | x << 4) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & LANE_LOW_BITS
}

/// `(F + bit) mod 3` on all 64 lanes: `prf` holds `F mod 3` per level and `m`
/// the plaintext bits. A lane sum is at most 3, so no lane carries into its
/// neighbour, and the lanes that reached 3 (both bits set) are cleared to 0.
#[inline]
fn assemble_cell(prf: [u64; 2], m: u64) -> [u8; ORE_CELL_BYTES] {
    let mut cell = [0u8; ORE_CELL_BYTES];
    let halves = [(m >> 32) as u32, m as u32];
    for ((out, prf), half) in cell.chunks_exact_mut(8).zip(prf).zip(halves) {
        let sum = prf + spread_bits(half);
        let threes = sum & (sum >> 1) & LANE_LOW_BITS;
        out.copy_from_slice(&(sum ^ (threes * 3)).to_be_bytes());
    }
    cell
}

/// The lane-at-a-time assembly, kept as the oracle [`assemble_cell`] is pinned
/// against.
#[cfg(test)]
fn assemble_cell_lanewise(prf: [u64; 2], m: u64) -> [u8; ORE_CELL_BYTES] {
    let mut cell = [0u8; ORE_CELL_BYTES];
    for level in 0..ORE_BITS {
        let f = (prf[level / 32] >> (62 - 2 * (level % 32))) as u8 & 3;
        let bit = ((m >> (ORE_BITS - 1 - level)) & 1) as u8;
        cell[level / 4] |= ((f + bit) % 3) << (6 - 2 * (level % 4));
    }
    cell
}

/// Patches the PRF outputs of levels `first_new..` — one output block per
/// level, in level order — into `prf` as `F mod 3`. Inline, word read and all:
/// [`OreCursor::encrypt_run`] is compiled in its caller's crate, and a call
/// per row or per block there costs more than the patch.
#[inline]
fn patch_levels(prf: &mut [u64; 2], first_new: usize, outputs: &[[u8; 16]]) {
    for (word, prf) in prf.iter_mut().enumerate() {
        // The new levels of this word run to its end, so shifting them in one
        // lane at a time leaves each in its place.
        let (first, end) = (first_new.max(32 * word), 32 * (word + 1));
        if first < end {
            let mut fresh = 0u64;
            for block in &outputs[first - first_new..end - first_new] {
                // Use the output's first 64 bits, big-endian; the bias of
                // reducing a uniform 64-bit value mod 3 is negligible (< 2^-62).
                let high = block.first_chunk::<8>().expect("a block is 16 bytes");
                fresh = fresh << 2 | (u64::from_be_bytes(*high) % 3);
            }
            *prf = *prf & !(u64::MAX >> (2 * (first % 32))) | fresh;
        }
    }
}

impl OreCursor<'_> {
    /// Rows whose new PRF levels share one AES dispatch in
    /// [`OreCursor::encrypt_run`]. A constant: it bounds the dispatch buffer
    /// (64 blocks a row at most) and is enough rows for a time-ordered column's
    /// ≈ 5 blocks a row to fill the kernel's wide path several times over.
    pub const RUN_ROWS: usize = 32;

    /// Encrypts the next value of the sequence; returns its cell. A run of one.
    pub fn encrypt(&mut self, m: u64) -> [u8; ORE_CELL_BYTES] {
        let mut cell = [0; ORE_CELL_BYTES];
        self.encrypt_run(&[m], |out| cell = out);
        cell
    }

    /// Encrypts the next `values` of the sequence, handing each one's cell to
    /// `cell` in order. The new levels of up to [`OreCursor::RUN_ROWS`] rows
    /// are gathered and encrypted in one dispatch, then patched in row by row;
    /// the cells and [`OreCursor::prf_blocks`] are what one value at a time
    /// gives.
    pub fn encrypt_run(&mut self, values: &[u64], mut cell: impl FnMut([u8; ORE_CELL_BYTES])) {
        for rows in values.chunks(Self::RUN_ROWS) {
            // Levels `0..=lcp` read only bits a row shares with the one before.
            let mut first_new = [0usize; Self::RUN_ROWS];
            let mut prev = self.primed.then_some(self.prev);
            for (first, &m) in first_new.iter_mut().zip(rows) {
                *first = prev.map_or(0, |prev| ((m ^ prev).leading_zeros() as usize + 1).min(ORE_BITS));
                prev = Some(m);
            }
            let first_new = &first_new[..rows.len()];
            let total: usize = first_new.iter().map(|first| ORE_BITS - first).sum();
            // One value's levels — all a bind-time literal ever needs — fit on
            // the stack, wiped below; larger dispatches use the cursor's
            // buffer, wiped on drop.
            let mut one_value: [[u8; 16]; ORE_BITS];
            let blocks = if total <= ORE_BITS {
                one_value = [[0; 16]; ORE_BITS];
                &mut one_value[..total]
            } else {
                if self.blocks.len() < total {
                    self.blocks.resize(total, [0; 16]);
                }
                &mut self.blocks[..total]
            };
            let mut unfilled = &mut blocks[..];
            for (&first, &m) in first_new.iter().zip(rows) {
                let (row, rest) = unfilled.split_at_mut(ORE_BITS - first);
                for (level, block) in (first..ORE_BITS).zip(row) {
                    // The prefix holds bits b_1..b_{level-1} left-aligned, the
                    // rest zero.
                    block[..8].copy_from_slice(&(level as u64).to_be_bytes());
                    block[8..].copy_from_slice(&(m & !(u64::MAX >> level)).to_be_bytes());
                }
                unfilled = rest;
            }
            self.cipher.encrypt_blocks(blocks);
            let mut outputs = &blocks[..];
            for (&first, &m) in first_new.iter().zip(rows) {
                let (row, rest) = outputs.split_at(ORE_BITS - first);
                patch_levels(&mut self.prf, first, row);
                outputs = rest;
                (self.prev, self.primed) = (m, true);
                cell(assemble_cell(self.prf, m));
            }
            if total <= ORE_BITS {
                hw::wipe(blocks);
            }
            self.prf_blocks += total as u64;
        }
    }
}

impl Drop for OreCursor<'_> {
    fn drop(&mut self) {
        hw::wipe(std::slice::from_mut(&mut self.prev));
        hw::wipe(&mut self.prf);
        hw::wipe(&mut self.blocks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> OreScheme {
        OreScheme::new(&[77u8; 16])
    }

    #[test]
    fn order_is_revealed_correctly() {
        let s = scheme();
        let pairs = [
            (0u64, 1u64),
            (1, 2),
            (5, 500),
            (999, 1000),
            (u64::MAX - 1, u64::MAX),
            (0, u64::MAX),
            (1 << 40, (1 << 40) + 1),
        ];
        for (lo, hi) in pairs {
            assert_eq!(s.encrypt(lo).compare(&s.encrypt(hi)), Ordering::Less);
            assert_eq!(s.encrypt(hi).compare(&s.encrypt(lo)), Ordering::Greater);
        }
    }

    #[test]
    fn symbol_slice_comparison_is_total() {
        let s = scheme();
        let a = s.encrypt(10);
        let b = s.encrypt(20);
        assert_eq!(a.symbols.len(), ORE_CELL_BYTES);
        assert_eq!(try_compare_symbols(&a.symbols, &b.symbols), Some(Ordering::Less));
        assert_eq!(try_compare_symbols(&a.symbols, &a.symbols), Some(Ordering::Equal));
        // Width mismatch (corrupt cell) is None, not a panic.
        assert_eq!(try_compare_symbols(&a.symbols, &a.symbols[..10]), None);
        assert_eq!(try_compare_symbols(&[], &a.symbols), None);
        // Out-of-domain lanes (corrupt cells) must not panic either, even
        // with overflow checks on; the ordering itself is arbitrary.
        let mut forged = a.symbols.clone();
        forged[0] = 255;
        assert!(try_compare_symbols(&forged, &a.symbols).is_some());
        assert!(try_compare_symbols(&a.symbols, &forged).is_some());
    }

    /// Packs one-symbol-per-byte test input the way a cell stores it: four
    /// symbols to a byte, first symbol highest, a short last byte zero-padded.
    fn pack(symbols: &[u8]) -> Vec<u8> {
        symbols
            .chunks(4)
            .map(|quad| {
                let byte = quad.iter().fold(0u8, |byte, symbol| byte << 2 | (symbol & 3));
                byte << (2 * (4 - quad.len()))
            })
            .collect()
    }

    /// The symbol at `index` of a packed cell.
    fn symbol_at(cell: &[u8], index: usize) -> u8 {
        (cell[index / 4] >> (6 - 2 * (index % 4))) & 3
    }

    #[test]
    fn stored_symbols_are_mod_three_and_most_significant_first() {
        let s = scheme();
        assert_eq!(pack(&[1, 2, 0, 1, 2]), vec![0b01_10_00_01, 0b10_00_00_00]);
        for m in [0u64, 1, 0xDEAD_BEEF, 1 << 63, u64::MAX] {
            let cell = s.encrypt(m).symbols;
            let mut prefix = 0u64;
            for i in 0..ORE_BITS {
                let bit = (m >> (ORE_BITS - 1 - i)) & 1;
                assert_eq!(
                    symbol_at(&cell, i),
                    (s.prf_mod3(i, prefix) + bit as u8) % 3,
                    "m={m} symbol {i}"
                );
                prefix |= bit << (ORE_BITS - 1 - i);
            }
        }
    }

    /// Both directions of the oracle check, so a test names each pair once.
    fn assert_matches_oracle(a: &[u8], b: &[u8]) {
        assert_eq!(
            try_compare_symbols(a, b),
            compare_symbols_bytewise(a, b),
            "{a:02x?} vs {b:02x?}"
        );
        assert_eq!(
            try_compare_symbols(b, a),
            compare_symbols_bytewise(b, a),
            "{b:02x?} vs {a:02x?}"
        );
    }

    #[test]
    fn word_compare_matches_lanewise_at_every_bit_position() {
        let s = scheme();
        let mut state = 0x5EED_u64;
        for bit in 0..ORE_BITS {
            // Two plaintexts that agree above `bit`, differ at it, and are
            // unrelated below: the first differing symbol is 63 - bit.
            let base = splitmix(&mut state);
            let below = (1u64 << bit) - 1;
            let lo = (base & !(1 << bit) & !below) | (splitmix(&mut state) & below);
            let hi = (base | (1 << bit)) & !below | (splitmix(&mut state) & below);
            let (a, b) = (s.encrypt(lo), s.encrypt(hi));
            assert_eq!(
                a.diff_index(&b),
                Some(ORE_BITS - 1 - bit),
                "the symbol index, not the byte"
            );
            assert_eq!(b.diff_index(&a), Some(ORE_BITS - 1 - bit));
            assert_matches_oracle(&a.symbols, &b.symbols);
            assert_eq!(
                try_compare_symbols(&a.symbols, &b.symbols),
                Some(Ordering::Less),
                "bit {bit}"
            );
            assert_eq!(
                try_compare_symbols(&b.symbols, &a.symbols),
                Some(Ordering::Greater),
                "bit {bit}"
            );
            assert_matches_oracle(&a.symbols, &a.symbols);
            assert_eq!(try_compare_symbols(&b.symbols, &b.symbols), Some(Ordering::Equal));
        }
    }

    /// Every pair of two-bit lanes, `3` included, at every lane of either
    /// word: the table is the mod-3 rule, and a pair's ordering is the oracle's.
    #[test]
    fn order_table_is_the_mod_three_rule_on_every_lane_pair() {
        for x in 0..4u16 {
            for y in 0..4u16 {
                assert_eq!(GREATER >> (4 * x + y) & 1 == 1, x == (y + 1) % 3, "({x}, {y})");
                for lane in 0..ORE_BITS {
                    let (word, shift) = (lane / 32, 62 - 2 * (lane % 32));
                    let (mut a, mut b) = ([0x1B1B_1B1B_1B1B_1B1B_u64; 2], [0x1B1B_1B1B_1B1B_1B1B_u64; 2]);
                    a[word] = a[word] & !(3 << shift) | u64::from(x) << shift;
                    b[word] = b[word] & !(3 << shift) | u64::from(y) << shift;
                    let cells = [a, b].map(|words| [words[0].to_be_bytes(), words[1].to_be_bytes()].concat());
                    assert_eq!(cell_words(cells[0].as_slice().try_into().unwrap()), a);
                    let pair = first_difference(a, b);
                    let oracle = compare_symbols_bytewise(&cells[0], &cells[1]).unwrap();
                    assert_eq!(PAIR_ORDERINGS[pair], oracle, "({x}, {y}) at lane {lane}");
                    for ord in [Ordering::Less, Ordering::Equal, Ordering::Greater] {
                        assert_eq!(accepted_pairs(|o| o == ord) >> pair & 1 == 1, ord == oracle);
                    }
                }
            }
        }
    }

    #[test]
    fn word_compare_matches_lanewise_at_every_length() {
        // Packed strings that differ only in one lane of their last byte, so
        // every whole-word prefix and every 1..=7-byte tail has to be walked.
        for len_a in 0..=20usize {
            for len_b in 0..=20usize {
                let a: Vec<u8> = pack(&(0..4 * len_a).map(|i| (i % 3) as u8).collect::<Vec<u8>>());
                let b: Vec<u8> = pack(&(0..4 * len_b).map(|i| (i % 3) as u8).collect::<Vec<u8>>());
                assert_eq!((a.len(), b.len()), (len_a, len_b));
                assert_matches_oracle(&a, &b);
                assert_eq!(try_compare_symbols(&a, &b).is_none(), len_a != len_b);
                let Some(last) = len_b.checked_sub(1) else { continue };
                for lane in 0..4 {
                    for bump in 1..=2u8 {
                        let mut b = b.clone();
                        let shift = 6 - 2 * lane;
                        let symbol = (((b[last] >> shift) & 3) + bump) % 3;
                        b[last] = b[last] & !(3 << shift) | symbol << shift;
                        assert_matches_oracle(&a, &b);
                        if len_a == len_b {
                            assert!(try_compare_symbols(&a, &b).is_some_and(|ord| ord != Ordering::Equal));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn word_compare_matches_lanewise_on_out_of_domain_lanes() {
        let s = scheme();
        let (a, b) = (s.encrypt(0x1234_5678_9ABC), s.encrypt(0x1234_5678_9ABD));
        for width in [ORE_BITS, 67] {
            // 64 symbols is two whole words; 67 adds a byte-wise tail whose
            // last byte is one padding lane short of full.
            let pad = |ct: &OreCiphertext| {
                let symbols = (0..ORE_BITS).map(|i| symbol_at(&ct.symbols, i));
                pack(&symbols.chain([1, 2, 0]).take(width).collect::<Vec<u8>>())
            };
            let (a, b) = (pad(&a), pad(&b));
            for at in 0..width {
                let shift = 6 - 2 * (at % 4);
                // The lane value a well-formed cell never holds, alone...
                let mut lane3 = a.clone();
                lane3[at / 4] |= 3 << shift;
                assert_matches_oracle(&lane3, &a);
                assert_matches_oracle(&lane3, &b);
                let mut both = b.clone();
                both[at / 4] |= 3 << shift;
                assert_matches_oracle(&lane3, &both);
                // ...and whole corrupt bytes around it.
                for byte in [0x80u8, 0xFF] {
                    let mut forged = a.clone();
                    forged[at / 4] = byte;
                    assert_matches_oracle(&forged, &a);
                    assert_matches_oracle(&forged, &b);
                    assert_matches_oracle(&forged, &lane3);
                    // Corrupt on both sides, at the same and at another position.
                    let mut other = b.clone();
                    other[at / 4] = byte.wrapping_add(1);
                    assert_matches_oracle(&forged, &other);
                    other[(width - 1 - at) / 4] = byte;
                    assert_matches_oracle(&forged, &other);
                }
            }
        }
    }

    #[test]
    fn word_compare_matches_lanewise_on_a_random_sweep() {
        let s = scheme();
        let mut state = 20u64;
        for i in 0..10_000 {
            let x = splitmix(&mut state);
            // Half the pairs share their first 44 symbols or more, as one
            // column's values (timestamps below 2^20) do: the difference is
            // then in the second word.
            let y = if i % 2 == 0 {
                splitmix(&mut state)
            } else {
                x ^ (splitmix(&mut state) >> (44 + i % 20))
            };
            let (a, b) = (s.encrypt(x), s.encrypt(y));
            assert!(i % 2 == 0 || a.diff_index(&b).is_none_or(|at| at >= 44));
            assert_matches_oracle(&a.symbols, &b.symbols);
            assert_eq!(
                try_compare_symbols(&a.symbols, &b.symbols),
                Some(x.cmp(&y)),
                "{x} vs {y}"
            );
        }
    }

    /// SplitMix64: a seeded stream for the sweeps above.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn equal_plaintexts_compare_equal() {
        let s = scheme();
        for v in [0u64, 7, 1 << 33, u64::MAX] {
            assert_eq!(s.encrypt(v).compare(&s.encrypt(v)), Ordering::Equal);
        }
    }

    #[test]
    fn batched_encrypt_matches_scalar_reference() {
        let s = scheme();
        let other = OreScheme::new(&[0xC3u8; 16]);
        // A dirty buffer: `encrypt_into` must overwrite every lane.
        let mut into = [0xAAu8; ORE_CELL_BYTES];
        for m in [0u64, 1, 2, 0b1011, 12345, 1 << 40, u64::MAX - 1, u64::MAX] {
            assert_eq!(s.encrypt(m), s.encrypt_scalar(m), "m={m}");
            assert_eq!(other.encrypt(m), other.encrypt_scalar(m), "m={m}");
            s.encrypt_into(m, &mut into);
            assert_eq!(into.as_slice(), s.encrypt_scalar(m).symbols, "m={m}");
        }
    }

    /// Drives one cursor down `values` and holds every cell against the
    /// per-bit oracle; returns the PRF blocks each value cost.
    fn cursor_costs(s: &OreScheme, values: &[u64]) -> Vec<u64> {
        let mut cursor = s.cursor();
        let mut costs = Vec::with_capacity(values.len());
        for (row, &m) in values.iter().enumerate() {
            let before = cursor.prf_blocks;
            let cell = cursor.encrypt(m);
            assert_eq!(cell.as_slice(), s.encrypt_scalar(m).symbols, "row {row}, m={m:#x}");
            costs.push(cursor.prf_blocks - before);
        }
        costs
    }

    #[test]
    fn cursor_matches_scalar_at_every_first_differing_bit() {
        let s = scheme();
        let mut state = 0xC0FFEE_u64;
        for bit in 0..ORE_BITS {
            // Neighbours that agree above `bit`, differ at it, and are
            // unrelated below — in both orders, then the first one again.
            let below = (1u64 << bit) - 1;
            let base = splitmix(&mut state) & !below;
            let lo = base & !(1 << bit) | splitmix(&mut state) & below;
            let hi = base | 1 << bit | splitmix(&mut state) & below;
            // Levels 0..=lcp are shared, lcp = 63 - bit: `bit` new blocks.
            assert_eq!(cursor_costs(&s, &[lo, hi, lo]), [64, bit as u64, bit as u64]);
            assert_eq!(cursor_costs(&s, &[hi, lo]), [64, bit as u64]);
        }
    }

    #[test]
    fn cursor_pays_nothing_for_a_repeat_and_everything_for_a_first_value() {
        let s = scheme();
        for m in [0u64, 1, 86_399, 1 << 63, u64::MAX] {
            assert_eq!(cursor_costs(&s, &[m, m, m]), [64, 0, 0], "m={m}");
            // A fresh cursor's first cell is `encrypt`.
            assert_eq!(s.cursor().encrypt(m).as_slice(), s.encrypt(m).symbols);
        }
        assert_eq!(cursor_costs(&s, &[u64::MAX, 0, u64::MAX]), [64, 63, 63]);
    }

    #[test]
    fn cursor_matches_scalar_over_runs_and_random_sequences() {
        let s = scheme();
        let ascending: Vec<u64> = (0..300u64).map(|i| i * i * 7).collect();
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        cursor_costs(&s, &ascending);
        cursor_costs(&s, &descending);
        // `encrypt_i64`'s mapping, walked across the sign boundary.
        let signed: Vec<u64> = [-3i64, -2, -1, 0, 1, 2, i64::MIN, i64::MAX, -1, 0]
            .iter()
            .map(|&v| (v as u64) ^ (1 << 63))
            .collect();
        cursor_costs(&s, &signed);
        for (&v, plain) in signed.iter().zip([-3i64, -2, -1, 0, 1, 2, i64::MIN, i64::MAX, -1, 0]) {
            assert_eq!(s.encrypt_i64(plain), s.encrypt_scalar(v));
        }
        let mut state = 7u64;
        let full_width: Vec<u64> = (0..2_000).map(|_| splitmix(&mut state)).collect();
        let costs = cursor_costs(&s, &full_width);
        assert!(costs[1..].iter().all(|&c| c <= 63));
        assert!(
            costs.iter().sum::<u64>() > 61 * 2_000,
            "unrelated values share a level or two"
        );
    }

    /// The structural claim: a column of small values (the benchmark's
    /// seconds-of-a-day and seconds-of-a-week timestamps, shuffled) costs a
    /// fraction of 64 blocks a row, and exactly what the common prefixes say.
    #[test]
    fn cursor_counts_prf_blocks_by_common_prefix() {
        let s = scheme();
        for (below, at_most_per_row) in [(86_400u64, 20), (604_800, 20)] {
            let mut state = below;
            let values: Vec<u64> = (0..5_000).map(|_| splitmix(&mut state) % below).collect();
            let costs = cursor_costs(&s, &values);
            assert_eq!(costs[0], 64);
            for (pair, &cost) in values.windows(2).zip(&costs[1..]) {
                assert_eq!(
                    cost,
                    63u64.saturating_sub(u64::from((pair[0] ^ pair[1]).leading_zeros()))
                );
            }
            let total: u64 = costs.iter().sum();
            assert!(
                total <= at_most_per_row * 5_000,
                "{total} blocks for 5 000 values below {below}"
            );
        }
    }

    /// The PRF blocks a cursor owes `values`: 64 for the first, `63 - lcp`
    /// with its predecessor for each after.
    fn owed_blocks(values: &[u64]) -> u64 {
        let later = values
            .windows(2)
            .map(|pair| 63u64.saturating_sub(u64::from((pair[0] ^ pair[1]).leading_zeros())));
        values.first().map_or(0, |_| 64 + later.sum::<u64>())
    }

    /// One fresh cursor's run over `values`, every cell held against the
    /// per-bit oracle and the blocks against the common prefixes; returns the
    /// cells.
    fn run_matches_oracle(s: &OreScheme, values: &[u64]) -> Vec<[u8; ORE_CELL_BYTES]> {
        let mut cursor = s.cursor();
        let mut cells = Vec::new();
        cursor.encrypt_run(values, |cell| cells.push(cell));
        assert_eq!(cells.len(), values.len());
        for (row, (cell, &m)) in cells.iter().zip(values).enumerate() {
            assert_eq!(cell.as_slice(), s.encrypt_scalar(m).symbols, "row {row}, m={m:#x}");
        }
        assert_eq!(cursor.prf_blocks, owed_blocks(values), "{} values", values.len());
        cells
    }

    #[test]
    fn encrypt_run_matches_scalar_at_every_batch_boundary() {
        let s = scheme();
        let b = OreCursor::RUN_ROWS;
        let mut state = 0xBA7C4_u64;
        for len in [0, 1, b - 1, b, b + 1, 2 * b + 1, 5_000] {
            let signed: Vec<i64> = (0..len as i64).map(|i| i - len as i64 / 2).collect();
            let sequences: [Vec<u64>; 5] = [
                // Repeats: each value three times over.
                (0..len as u64).map(|i| i / 3 * 977).collect(),
                // One value all along: 64 blocks, then none.
                vec![86_399; len],
                // Full-width values share a level or two.
                (0..len).map(|_| splitmix(&mut state)).collect(),
                // The top bit flips on every row: 63 blocks a row.
                (0..len as u64).map(|i| ((i % 2) << 63) | i).collect(),
                // `encrypt_i64`'s image, walked across the sign boundary.
                signed.iter().map(|&v| (v as u64) ^ (1 << 63)).collect(),
            ];
            for values in &sequences {
                let cells = run_matches_oracle(&s, values);
                // Split into runs of every boundary length on one cursor, the
                // sequence comes out the same.
                let mut cursor = s.cursor();
                let mut split = Vec::new();
                let mut rest = values.as_slice();
                for take in [0, 1, b - 1, b, b + 1, 2 * b + 1].iter().cycle().take(64) {
                    let (run, tail) = rest.split_at((*take).min(rest.len()));
                    cursor.encrypt_run(run, |cell| split.push(cell));
                    rest = tail;
                }
                cursor.encrypt_run(rest, |cell| split.push(cell));
                assert_eq!(split, cells);
                assert_eq!(cursor.prf_blocks, owed_blocks(values));
            }
            let image_cells = run_matches_oracle(&s, &sequences[4]);
            for (&v, cell) in signed.iter().zip(&image_cells) {
                assert_eq!(s.encrypt_i64(v).symbols, cell.as_slice(), "{v}");
            }
        }
    }

    /// The benchmark's ingest batches are time-ordered: 5 000 ascending
    /// seconds-of-a-day about 17 apart share all but their low levels with the
    /// row before, so the column costs at most 6 blocks a row.
    #[test]
    fn a_time_ordered_column_costs_at_most_six_blocks_a_row() {
        let s = scheme();
        let mut state = 17u64;
        let values: Vec<u64> = (0..5_000u64).map(|i| i * 17 + splitmix(&mut state) % 17).collect();
        assert!(values.windows(2).all(|pair| pair[0] <= pair[1]));
        run_matches_oracle(&s, &values);
        let blocks = owed_blocks(&values);
        assert!(blocks <= 6 * 5_000, "{blocks} blocks for 5 000 time-ordered values");
    }

    #[test]
    fn swar_assembly_matches_the_lane_loop_for_every_lane_pair_at_every_lane() {
        for level in 0..ORE_BITS {
            let shift = 62 - 2 * (level % 32);
            for f in 0..3u64 {
                for bit in 0..2u64 {
                    // The lane under test on a background of every other
                    // (f, bit) pair, so a carry out of a neighbour shows.
                    for (background_f, background_m) in
                        [(0u64, 0u64), (LANE_LOW_BITS * 2, u64::MAX), (LANE_LOW_BITS, 0)]
                    {
                        let mut prf = [background_f; 2];
                        prf[level / 32] = prf[level / 32] & !(3 << shift) | f << shift;
                        let at = ORE_BITS - 1 - level;
                        let m = background_m & !(1 << at) | bit << at;
                        let cell = assemble_cell(prf, m);
                        assert_eq!(cell, assemble_cell_lanewise(prf, m), "level {level} f={f} bit={bit}");
                        assert_eq!(symbol_at(&cell, level), ((f + bit) % 3) as u8);
                    }
                }
            }
        }
        let mut state = 99u64;
        for _ in 0..5_000 {
            // Random in-domain PRF words: clear the lanes that drew a 3.
            let prf = [splitmix(&mut state), splitmix(&mut state)].map(|w| w & !((w & w >> 1 & LANE_LOW_BITS) * 3));
            let m = splitmix(&mut state);
            assert_eq!(assemble_cell(prf, m), assemble_cell_lanewise(prf, m));
        }
    }

    #[test]
    fn encryption_is_deterministic_per_key() {
        let s = scheme();
        assert_eq!(s.encrypt(12345), s.encrypt(12345));
        let other = OreScheme::new(&[78u8; 16]);
        assert_ne!(s.encrypt(12345), other.encrypt(12345));
    }

    #[test]
    fn leakage_is_first_differing_bit() {
        let s = scheme();
        // 0b1000 and 0b1011 first differ at bit position 64-4+1 = index 61 (0-based
        // from the most significant bit: 62).
        let a = s.encrypt(0b1000);
        let b = s.encrypt(0b1011);
        let idx = a.diff_index(&b).unwrap();
        assert_eq!(idx, 62, "first differing bit of 8 vs 11 is bit value 2");
        assert_eq!(a.diff_index(&a), None);
    }

    #[test]
    fn signed_encoding_preserves_order() {
        let s = scheme();
        let values = [-100i64, -1, 0, 1, 100, i64::MAX, i64::MIN];
        for &a in &values {
            for &b in &values {
                let expected = a.cmp(&b);
                assert_eq!(
                    s.encrypt_i64(a).compare(&s.encrypt_i64(b)),
                    expected,
                    "comparing {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_small_range_total_order() {
        let s = scheme();
        let cts: Vec<OreCiphertext> = (0..64u64).map(|v| s.encrypt(v)).collect();
        for i in 0..64usize {
            for j in 0..64usize {
                assert_eq!(cts[i].compare(&cts[j]), i.cmp(&j), "{i} vs {j}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_widths_panic() {
        let s = scheme();
        let mut a = s.encrypt(1);
        let b = s.encrypt(2);
        a.symbols.pop();
        let _ = a.compare(&b);
    }
}
