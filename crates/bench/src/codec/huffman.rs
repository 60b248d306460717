//! Canonical Huffman coding with a bounded maximum code length.
//!
//! The DEFLATE-style compressor Seabed applies to ASHE ID lists (§4.5,
//! Figure 8) entropy-codes LZ77 output symbols with canonical Huffman codes.
//! This module builds length-limited codes from symbol frequencies, serializes
//! the code-length table, and provides encode/decode over the bit stream.

use crate::codec::bitio::{BitReader, BitWriter};

/// Maximum code length; 15 matches DEFLATE and keeps the decode table small.
pub const MAX_CODE_LEN: u8 = 15;

/// A canonical Huffman code book.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodeBook {
    /// Code length per symbol (0 means the symbol does not occur).
    pub lengths: Vec<u8>,
    /// Canonical code per symbol (valid where `lengths[s] > 0`).
    pub codes: Vec<u32>,
}

impl CodeBook {
    /// Builds a code book from symbol frequencies: [`code_lengths`], then the
    /// canonical codes of those lengths.
    pub fn from_frequencies(freqs: &[u64]) -> CodeBook {
        let lengths = code_lengths(freqs);
        let codes = canonical_codes(&lengths).unwrap_or_else(|| vec![0; freqs.len()]);
        CodeBook { lengths, codes }
    }

    /// Rebuilds a code book from a serialized length table.
    pub fn from_lengths(lengths: Vec<u8>) -> Option<CodeBook> {
        let codes = canonical_codes(&lengths)?;
        Some(CodeBook { lengths, codes })
    }

    /// Writes `symbol` to the bit stream.
    pub fn encode_symbol(&self, symbol: usize, writer: &mut BitWriter) {
        let len = self.lengths[symbol];
        debug_assert!(len > 0, "encoding a symbol with no code: {symbol}");
        writer.write_code(self.codes[symbol], len);
    }

    /// Expected encoded size in bits for the given frequencies.
    pub fn encoded_bits(&self, freqs: &[u64]) -> u64 {
        encoded_bits(&self.lengths, freqs)
    }
}

/// Huffman code lengths, at most [`MAX_CODE_LEN`], for symbol frequencies —
/// all a compressor needs to know how long its output will be; the codes
/// themselves ([`CodeBook::from_lengths`]) follow from them.
///
/// Symbols with zero frequency get length 0. If only one distinct symbol
/// occurs, it is assigned a 1-bit code so the stream remains decodable.
pub fn code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut lengths = compute_code_lengths(freqs);
    // Enforce the length cap by flattening any over-long code; with the
    // package-merge-free construction below this is rare and handled by
    // recomputing with scaled frequencies.
    let mut scale = 1u64;
    while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
        scale *= 2;
        let scaled: Vec<u64> = freqs.iter().map(|&f| if f == 0 { 0 } else { f / scale + 1 }).collect();
        lengths = compute_code_lengths(&scaled);
    }
    lengths
}

/// Bits symbols of the given frequencies take under codes of the given
/// lengths (a symbol past the end of `lengths` has no code and counts zero).
pub fn encoded_bits(lengths: &[u8], freqs: &[u64]) -> u64 {
    freqs.iter().zip(lengths).map(|(&f, &len)| f * len as u64).sum()
}

/// A decoder for a canonical code, built from the code-length table alone.
///
/// Canonical codes of one length are consecutive integers, so the table is
/// three numbers per length — the first code, how many there are, and where
/// their symbols start in the list of symbols sorted by (length, symbol) —
/// and decoding walks the lengths with one subtraction and one comparison
/// per bit. An incomplete code simply has bit patterns no length claims.
pub struct Decoder {
    /// First canonical code of each length (index 0 unused).
    first: [u32; MAX_CODE_LEN as usize + 1],
    /// Number of codes of each length.
    count: [u32; MAX_CODE_LEN as usize + 1],
    /// Index into `symbols` of each length's first code.
    offset: [u32; MAX_CODE_LEN as usize + 1],
    /// Symbols that have a code, sorted by (length, symbol).
    symbols: Vec<u16>,
    /// Longest code length in use (0 when no symbol has a code).
    max_len: u8,
}

impl Decoder {
    /// Builds a decoder from per-symbol code lengths (0 = no code). Returns
    /// `None` exactly when [`CodeBook::from_lengths`] does: a length above
    /// [`MAX_CODE_LEN`] aside, when the lengths over-subscribe the code space.
    pub fn from_lengths(lengths: &[u8]) -> Option<Decoder> {
        let mut count = [0u32; MAX_CODE_LEN as usize + 1];
        for &len in lengths {
            *count.get_mut(len as usize)? += 1;
        }
        count[0] = 0;
        let max_len = (1..=MAX_CODE_LEN)
            .rev()
            .find(|&len| count[len as usize] > 0)
            .unwrap_or(0);
        // Kraft inequality, in units of the longest code.
        let kraft: u64 = (1..=max_len)
            .map(|len| (count[len as usize] as u64) << (max_len - len))
            .sum();
        if kraft > 1u64 << max_len {
            return None;
        }
        let mut first = [0u32; MAX_CODE_LEN as usize + 1];
        let mut offset = [0u32; MAX_CODE_LEN as usize + 1];
        for len in 1..=max_len as usize {
            first[len] = (first[len - 1] + count[len - 1]) << 1;
            offset[len] = offset[len - 1] + count[len - 1];
        }
        let mut next = offset;
        let mut symbols = vec![0u16; (offset[max_len as usize] + count[max_len as usize]) as usize];
        for (symbol, &len) in lengths.iter().enumerate() {
            if len > 0 {
                symbols[next[len as usize] as usize] = symbol as u16;
                next[len as usize] += 1;
            }
        }
        Some(Decoder {
            first,
            count,
            offset,
            symbols,
            max_len,
        })
    }

    /// Reads one symbol from the bit stream; `None` when the input ends
    /// inside a code or the next bits are a pattern the code does not use.
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Option<u16> {
        let bits = reader.peek_bits(MAX_CODE_LEN);
        let mut code = 0u32;
        for len in 1..=self.max_len as usize {
            // Codes are written most-significant bit first.
            code = (code << 1) | ((bits >> (len - 1)) & 1);
            // No shorter length claimed the prefix, so `code >= first[len]`.
            let index = code - self.first[len];
            if index < self.count[len] {
                reader.consume(len as u8)?;
                return Some(self.symbols[(self.offset[len] + index) as usize]);
            }
        }
        None
    }
}

/// Computes Huffman code lengths from frequencies: the leaves sorted by
/// weight, then the classic two-queue merge — the next lightest node is at
/// the head of either the sorted leaves or the internal nodes made so far,
/// whose weights come out non-decreasing.
///
/// Which tree comes out of equal weights is part of the compressed format
/// (the lengths are written into every block): at equal weight a leaf goes
/// before an internal node, a leaf of a smaller symbol before a larger one,
/// an earlier internal node before a later one — the order a min-heap keyed
/// by (weight, node number) pops them in, leaves numbered first.
fn compute_code_lengths(freqs: &[u64]) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    // (weight, symbol), ascending; the sort is by the pair, so equal weights
    // stay in symbol order.
    let mut leaves: Vec<(u64, u32)> = freqs
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0)
        .map(|(s, &f)| (f, s as u32))
        .collect();
    leaves.sort_unstable();
    let n = leaves.len();
    if n < 2 {
        if let Some(&(_, s)) = leaves.first() {
            lengths[s as usize] = 1;
        }
        return lengths;
    }
    // Nodes are numbered leaves first (in sorted order), then internal nodes
    // in the order they are made; the root is the last.
    let mut weight: Vec<u64> = leaves.iter().map(|&(f, _)| f).collect();
    weight.reserve(n - 1);
    // Each node's parent, then — once the tree is whole — its depth.
    let mut link = vec![0u32; 2 * n - 1];
    let (mut next_leaf, mut next_internal) = (0usize, n);
    for made in n..2 * n - 1 {
        let mut take = || {
            let leaf = next_leaf < n && (next_internal >= made || weight[next_leaf] <= weight[next_internal]);
            let node = if leaf { &mut next_leaf } else { &mut next_internal };
            *node += 1;
            *node - 1
        };
        let (a, b) = (take(), take());
        link[a] = made as u32;
        link[b] = made as u32;
        weight.push(weight[a] + weight[b]);
    }
    // A parent is made after its children, so walking the numbers downwards
    // meets every node after its parent's link has become a depth.
    link[2 * n - 2] = 0;
    for node in (0..2 * n - 2).rev() {
        link[node] = link[link[node] as usize] + 1;
    }
    for (node, &(_, s)) in leaves.iter().enumerate() {
        lengths[s as usize] = link[node].min(u8::MAX as u32) as u8;
    }
    lengths
}

/// Assigns canonical codes given per-symbol lengths. Returns `None` if the
/// lengths do not describe a prefix-free code (over-subscribed Kraft sum).
fn canonical_codes(lengths: &[u8]) -> Option<Vec<u32>> {
    let max_len = *lengths.iter().max().unwrap_or(&0);
    if max_len == 0 {
        return Some(vec![0; lengths.len()]);
    }
    let mut bl_count = vec![0u32; max_len as usize + 1];
    for &l in lengths {
        if l > 0 {
            bl_count[l as usize] += 1;
        }
    }
    // Kraft inequality check.
    let mut kraft: u64 = 0;
    for (len, &count) in bl_count.iter().enumerate().skip(1) {
        kraft += (count as u64) << (max_len as usize - len);
    }
    if kraft > 1u64 << max_len {
        return None;
    }
    let mut next_code = vec![0u32; max_len as usize + 2];
    let mut code = 0u32;
    for bits in 1..=max_len as usize {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
    }
    // Codes of one length are handed out in symbol order.
    let mut codes = vec![0u32; lengths.len()];
    for (s, &l) in lengths.iter().enumerate() {
        if l > 0 {
            codes[s] = next_code[l as usize];
            next_code[l as usize] += 1;
        }
    }
    Some(codes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The construction this module shipped before the two-queue merge — a
    /// binary heap of (weight, node number) and a depth-first walk — kept as
    /// the oracle for [`compute_code_lengths`]: the tie order it happens to
    /// have is the format's.
    fn heap_code_lengths(freqs: &[u64]) -> Vec<u8> {
        use std::cmp::Reverse;
        // (left, right) children; `None` for a leaf, whose symbol is kept.
        let mut nodes: Vec<(Option<(usize, usize)>, usize)> = Vec::new();
        let mut heap = std::collections::BinaryHeap::new();
        for (s, &f) in freqs.iter().enumerate() {
            if f > 0 {
                nodes.push((None, s));
                heap.push(Reverse((f, nodes.len() - 1)));
            }
        }
        let mut lengths = vec![0u8; freqs.len()];
        if heap.len() == 1 {
            lengths[nodes[0].1] = 1;
            return lengths;
        }
        while heap.len() > 1 {
            let Reverse((f1, n1)) = heap.pop().unwrap();
            let Reverse((f2, n2)) = heap.pop().unwrap();
            nodes.push((Some((n1, n2)), 0));
            heap.push(Reverse((f1 + f2, nodes.len() - 1)));
        }
        let mut stack: Vec<(usize, u8)> = heap.pop().map(|Reverse((_, root))| (root, 0)).into_iter().collect();
        while let Some((idx, depth)) = stack.pop() {
            match nodes[idx] {
                (None, s) => lengths[s] = depth.max(1),
                (Some((l, r)), _) => stack.extend([(l, depth + 1), (r, depth + 1)]),
            }
        }
        lengths
    }

    /// The scaling loop of [`CodeBook::from_frequencies`] over the oracle.
    fn heap_book_lengths(freqs: &[u64]) -> Vec<u8> {
        let mut lengths = heap_code_lengths(freqs);
        let mut scale = 1u64;
        while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            scale *= 2;
            let scaled: Vec<u64> = freqs.iter().map(|&f| if f == 0 { 0 } else { f / scale + 1 }).collect();
            lengths = heap_code_lengths(&scaled);
        }
        lengths
    }

    /// Two-queue code lengths ≡ heap code lengths, ties included: no, one,
    /// two and many symbols, all-equal weights, few distinct weights (ties
    /// between leaves and internal nodes at every level), and Fibonacci
    /// weights deep enough that [`MAX_CODE_LEN`] forces the rescaling loop.
    #[test]
    fn two_queue_code_lengths_match_the_heap_oracle() {
        let check = |freqs: &[u64]| {
            assert_eq!(compute_code_lengths(freqs), heap_code_lengths(freqs), "{freqs:?}");
            let book = CodeBook::from_frequencies(freqs);
            assert_eq!(book.lengths, heap_book_lengths(freqs), "{freqs:?}");
            assert!(book.lengths.iter().all(|&l| l <= MAX_CODE_LEN));
        };
        check(&[]);
        check(&[0, 0, 0]);
        check(&[0, 7, 0]);
        check(&[3, 0, 3]);
        check(&[1, 2]);
        for n in [3, 4, 5, 7, 8, 9, 30, 64, 285] {
            check(&vec![1; n]);
            check(&vec![1 << 40; n]);
        }
        let mut fib = vec![1u64, 1];
        while fib.len() < 40 {
            fib.push(fib[fib.len() - 1] + fib[fib.len() - 2]);
        }
        for take in [3, 10, 16, 17, 18, 25, 40] {
            check(&fib[..take]);
            let reversed: Vec<u64> = fib[..take].iter().rev().copied().collect();
            check(&reversed);
        }
        assert!(
            compute_code_lengths(&fib).iter().any(|&l| l > MAX_CODE_LEN),
            "the Fibonacci table must reach the rescaling loop"
        );

        let mut rng = rand::rngs::StdRng::seed_from_u64(0x4c454e);
        for round in 0..3_000u32 {
            let symbols = [2usize, 3, 30, 285][round as usize % 4];
            let used = rng.random_range(0..symbols + 1);
            // Weights from a few values (ties everywhere) up to wide ones.
            let spread = [1u64, 2, 4, 50, 1 << 20][rng.random_range(0..5usize)];
            let freqs: Vec<u64> = (0..symbols)
                .map(|_| {
                    if rng.random_range(0..symbols) < used {
                        1 + rng.random_range(0..spread)
                    } else {
                        0
                    }
                })
                .collect();
            check(&freqs);
        }
    }

    /// Canonical codes by counting ≡ the definition: the symbols sorted by
    /// (length, symbol) take consecutive codes, shifted left at each longer
    /// length.
    #[test]
    fn canonical_codes_follow_length_then_symbol_order() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xc0de5);
        for _ in 0..300 {
            let freqs: Vec<u64> = (0..rng.random_range(1..80usize))
                .map(|_| rng.random_range(0..20u64))
                .collect();
            let book = CodeBook::from_frequencies(&freqs);
            let mut ordered: Vec<usize> = (0..freqs.len()).filter(|&s| book.lengths[s] > 0).collect();
            ordered.sort_by_key(|&s| (book.lengths[s], s));
            let (mut code, mut len) = (0u32, 0u8);
            for (i, &s) in ordered.iter().enumerate() {
                code = (code + u32::from(i > 0)) << (book.lengths[s] - len);
                len = book.lengths[s];
                assert_eq!(book.codes[s], code, "symbol {s} of {:?}", book.lengths);
            }
        }
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let book = CodeBook::from_frequencies(&[0, 10, 0]);
        assert_eq!(book.lengths, vec![0, 1, 0]);
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = vec![100u64, 50, 10, 1];
        let book = CodeBook::from_frequencies(&freqs);
        assert!(book.lengths[0] <= book.lengths[2]);
        assert!(book.lengths[1] <= book.lengths[3]);
    }

    #[test]
    fn codes_are_prefix_free() {
        let freqs: Vec<u64> = (1..=16).map(|i| i * i).collect();
        let book = CodeBook::from_frequencies(&freqs);
        for a in 0..freqs.len() {
            for b in 0..freqs.len() {
                if a == b {
                    continue;
                }
                let (la, lb) = (book.lengths[a], book.lengths[b]);
                if la == 0 || lb == 0 || la > lb {
                    continue;
                }
                // code a must not be a prefix of code b
                let prefix = book.codes[b] >> (lb - la);
                assert!(prefix != book.codes[a], "code {a} is a prefix of code {b}");
            }
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let symbols: Vec<usize> = (0..2000).map(|i| (i * 7 + i / 13) % 37).collect();
        let mut freqs = vec![0u64; 37];
        for &s in &symbols {
            freqs[s] += 1;
        }
        let book = CodeBook::from_frequencies(&freqs);
        let mut w = BitWriter::new();
        for &s in &symbols {
            book.encode_symbol(s, &mut w);
        }
        let bytes = w.finish();
        let decoder = Decoder::from_lengths(&book.lengths).unwrap();
        let mut r = BitReader::new(&bytes);
        let decoded: Vec<usize> = (0..symbols.len())
            .map(|_| decoder.decode_symbol(&mut r).unwrap() as usize)
            .collect();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn codebook_lengths_roundtrip() {
        let freqs = vec![5u64, 9, 12, 13, 16, 45, 0, 3];
        let book = CodeBook::from_frequencies(&freqs);
        let rebuilt = CodeBook::from_lengths(book.lengths.clone()).unwrap();
        assert_eq!(rebuilt.codes, book.codes);
    }

    #[test]
    fn invalid_lengths_rejected() {
        // Three symbols of length 1 violate Kraft.
        assert!(CodeBook::from_lengths(vec![1, 1, 1]).is_none());
    }

    #[test]
    fn skewed_distribution_compresses_below_fixed_width() {
        // 1000 symbols, 95% are symbol 0 -> average code length must be well
        // under the 5 bits a fixed-width code for 32 symbols would need.
        let mut freqs = vec![1u64; 32];
        freqs[0] = 950;
        let book = CodeBook::from_frequencies(&freqs);
        let bits = book.encoded_bits(&freqs);
        let total: u64 = freqs.iter().sum();
        assert!(bits < total * 3, "expected < 3 bits/symbol, got {bits} for {total}");
    }
}
