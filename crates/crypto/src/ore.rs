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
//! [`try_compare_symbols`] is the one body that compares two packed cells;
//! [`OreCiphertext::compare`], the server's range filters and the MIN/MAX fold
//! all reach it. It compares thirty-two symbols at a time: real dimension
//! values (timestamps) are small, so two ciphertexts of one column agree on
//! most of their leading symbols and the first difference sits in the last
//! word.

use crate::aes::Aes128;
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

/// What the first differing symbol pair says about the plaintexts: `x` is one
/// ahead of `y` (mod 3) exactly when `x`'s plaintext has the 1 bit there.
/// A two-bit lane of a corrupt cell may hold `3`; the ordering of such a pair
/// is arbitrary but fixed.
#[inline]
fn symbol_order(x: u8, y: u8) -> Ordering {
    if x == (y + 1) % 3 {
        Ordering::Greater
    } else {
        Ordering::Less
    }
}

/// Total, allocation-free comparison of two packed ORE cells (the stored form
/// of [`OreCiphertext`]). Returns `None` when the widths differ — a corrupt
/// cell or a ciphertext from a different scheme — so scan loops can treat such
/// rows as non-matching instead of panicking or cloning each cell into an
/// [`OreCiphertext`] first.
///
/// Thirty-two symbols are compared per step: the XOR of two big-endian words
/// is zero while they agree, and its highest set bit lies in the first
/// differing two-bit lane (`from_be_bytes` puts byte 0 highest on every host).
/// A 64-symbol cell is two words; a width that is not a multiple of eight
/// bytes ends in a zero-padded word.
pub fn try_compare_symbols(a: &[u8], b: &[u8]) -> Option<Ordering> {
    if a.len() != b.len() {
        return None;
    }
    // `x != y`: the symbols of their first differing lane, ordered.
    let first_difference = |x: u64, y: u64| {
        let shift = 62 - (x ^ y).leading_zeros() / 2 * 2;
        symbol_order((x >> shift) as u8 & 3, (y >> shift) as u8 & 3)
    };
    let (a_words, a_tail) = a.as_chunks::<8>();
    let (b_words, b_tail) = b.as_chunks::<8>();
    for (x, y) in a_words.iter().zip(b_words) {
        let (x, y) = (u64::from_be_bytes(*x), u64::from_be_bytes(*y));
        if x != y {
            return Some(first_difference(x, y));
        }
    }
    let padded = |tail: &[u8]| {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        u64::from_be_bytes(word)
    };
    let (x, y) = (padded(a_tail), padded(b_tail));
    Some(if x == y {
        Ordering::Equal
    } else {
        first_difference(x, y)
    })
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

    /// Encrypts a 64-bit value.
    ///
    /// Output is identical to [`OreScheme::encrypt_scalar`], the per-bit
    /// reference path.
    pub fn encrypt(&self, m: u64) -> OreCiphertext {
        let mut cell = [0u8; ORE_CELL_BYTES];
        self.encrypt_into(m, &mut cell);
        OreCiphertext { symbols: cell.to_vec() }
    }

    /// Encrypts a 64-bit value into a caller-provided cell, without
    /// allocating — what a bulk load appends to its column per row.
    ///
    /// Every bit's PRF input depends only on `m` itself (`prefix_i` is `m`
    /// with all bits below position `i` zeroed), so all [`ORE_BITS`] AES
    /// blocks are materialised up front and encrypted in a single batched
    /// kernel dispatch instead of one [`Aes128::encrypt_block`] call per bit.
    pub fn encrypt_into(&self, m: u64, cell: &mut [u8; ORE_CELL_BYTES]) {
        let mut blocks = [[0u8; 16]; ORE_BITS];
        for (i, block) in blocks.iter_mut().enumerate() {
            // prefix holds bits b_1..b_{i-1} left-aligned, remaining bits zero.
            let prefix = if i == 0 { 0 } else { m & !(u64::MAX >> i) };
            block[..8].copy_from_slice(&(i as u64).to_be_bytes());
            block[8..].copy_from_slice(&prefix.to_be_bytes());
        }
        self.cipher.encrypt_blocks(&mut blocks);
        for (byte, (packed, quad)) in cell.iter_mut().zip(blocks.chunks_exact(4)).enumerate() {
            *packed = 0;
            for (lane, block) in quad.iter().enumerate() {
                let bit = ((m >> (ORE_BITS - 1 - (4 * byte + lane))) & 1) as u8;
                let prf = (u64::from_be_bytes(block[..8].try_into().unwrap()) % 3) as u8;
                *packed = (*packed << 2) | ((prf + bit) % 3);
            }
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
