//! Canonical Huffman coding with a bounded maximum code length.
//!
//! The DEFLATE-style compressor Seabed applies to ASHE ID lists (§4.5,
//! Figure 8) entropy-codes LZ77 output symbols with canonical Huffman codes.
//! This module builds length-limited codes from symbol frequencies, serializes
//! the code-length table, and provides encode/decode over the bit stream.

use crate::bitio::{BitReader, BitWriter};

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
    /// Builds a code book from symbol frequencies.
    ///
    /// Symbols with zero frequency get length 0. If only one distinct symbol
    /// occurs, it is assigned a 1-bit code so the stream remains decodable.
    pub fn from_frequencies(freqs: &[u64]) -> CodeBook {
        let n = freqs.len();
        let mut lengths = compute_code_lengths(freqs);
        // Enforce the length cap by flattening any over-long code; with the
        // package-merge-free heuristic below this is rare and handled by
        // recomputing with scaled frequencies.
        let mut scale = 1u64;
        while lengths.iter().any(|&l| l > MAX_CODE_LEN) {
            scale *= 2;
            let scaled: Vec<u64> = freqs.iter().map(|&f| if f == 0 { 0 } else { f / scale + 1 }).collect();
            lengths = compute_code_lengths(&scaled);
        }
        let codes = canonical_codes(&lengths);
        CodeBook {
            lengths,
            codes: codes.unwrap_or_else(|| vec![0; n]),
        }
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
        freqs
            .iter()
            .enumerate()
            .map(|(s, &f)| f * self.lengths.get(s).copied().unwrap_or(0) as u64)
            .sum()
    }
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

/// Computes Huffman code lengths from frequencies using the classic two-queue
/// tree construction.
fn compute_code_lengths(freqs: &[u64]) -> Vec<u8> {
    #[derive(Clone)]
    struct Node {
        freq: u64,
        left: Option<usize>,
        right: Option<usize>,
        symbol: Option<usize>,
    }

    let mut nodes: Vec<Node> = Vec::new();
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> = std::collections::BinaryHeap::new();
    for (s, &f) in freqs.iter().enumerate() {
        if f > 0 {
            nodes.push(Node {
                freq: f,
                left: None,
                right: None,
                symbol: Some(s),
            });
            heap.push(std::cmp::Reverse((f, nodes.len() - 1)));
        }
    }
    let mut lengths = vec![0u8; freqs.len()];
    match heap.len() {
        0 => return lengths,
        1 => {
            let std::cmp::Reverse((_, idx)) = heap.pop().unwrap();
            lengths[nodes[idx].symbol.unwrap()] = 1;
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let std::cmp::Reverse((f1, n1)) = heap.pop().unwrap();
        let std::cmp::Reverse((f2, n2)) = heap.pop().unwrap();
        nodes.push(Node {
            freq: f1 + f2,
            left: Some(n1),
            right: Some(n2),
            symbol: None,
        });
        heap.push(std::cmp::Reverse((f1 + f2, nodes.len() - 1)));
    }
    // Walk the tree assigning depths.
    let root = heap.pop().unwrap().0 .1;
    let mut stack = vec![(root, 0u8)];
    while let Some((idx, depth)) = stack.pop() {
        let node = nodes[idx].clone();
        if let Some(s) = node.symbol {
            lengths[s] = depth.max(1);
        } else {
            if let Some(l) = node.left {
                stack.push((l, depth + 1));
            }
            if let Some(r) = node.right {
                stack.push((r, depth + 1));
            }
        }
    }
    let _ = nodes.last().map(|n| n.freq); // silence dead-field lint paths
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
    let mut codes = vec![0u32; lengths.len()];
    let mut ordered: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    ordered.sort_by_key(|&s| (lengths[s], s));
    for s in ordered {
        let l = lengths[s] as usize;
        codes[s] = next_code[l];
        next_code[l] += 1;
    }
    Some(codes)
}

#[cfg(test)]
mod tests {
    use super::*;

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
