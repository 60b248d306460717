//! DEFLATE-style compression: LZ77 tokens entropy-coded with canonical
//! Huffman codes.
//!
//! Seabed applies standard compression on top of its range/diff/variable-byte
//! ID-list encoding before results travel from workers to the driver and on to
//! the client (§4.5). The paper compares a compact profile (better ratio,
//! slower) against a fast profile and selects "Deflate optimised for speed";
//! both are reproduced here as [`Level::Compact`] and [`Level::Fast`].
//!
//! The container format is self-describing but deliberately simple (it is not
//! bit-compatible with RFC 1951): a one-byte header selects a stored or
//! compressed block, compressed blocks carry the two Huffman code-length
//! tables followed by the token bit stream, and a stored block falls back to
//! the raw bytes whenever compression would not help.

use crate::codec::bitio::{BitReader, BitWriter};
use crate::codec::huffman::{self, CodeBook, Decoder};
use crate::codec::lz77::{copy_match, tokenize, Profile, Token, MAX_MATCH, MIN_MATCH};

/// Compression level, mirroring the two configurations in Figure 8.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    /// Shallow LZ77 search ("Deflate (fast)").
    Fast,
    /// Deep LZ77 search with lazy matching ("Deflate (compact)").
    Compact,
}

impl Level {
    fn profile(&self) -> Profile {
        match self {
            Level::Fast => Profile::FAST,
            Level::Compact => Profile::COMPACT,
        }
    }
}

const BLOCK_STORED: u8 = 0;
const BLOCK_COMPRESSED: u8 = 1;

/// Length-code table: (symbol base length, extra bits), DEFLATE-compatible.
const LENGTH_CODES: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// Distance-code table: (base distance, extra bits), DEFLATE-compatible.
const DIST_CODES: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Number of literal/length symbols: 256 literals + 29 length codes.
const LITLEN_SYMBOLS: usize = 256 + LENGTH_CODES.len();

/// Bytes of a compressed block before its bit stream: the kind, the two
/// counts and the two packed code-length tables.
const COMPRESSED_HEADER_LEN: usize = 9 + LITLEN_SYMBOLS.div_ceil(2) + DIST_CODES.len().div_ceil(2);

/// Index into [`LENGTH_CODES`] of every match length, by `length - MIN_MATCH`.
const LENGTH_SYMBOLS: [u8; MAX_MATCH - MIN_MATCH + 1] = {
    let mut table = [0u8; MAX_MATCH - MIN_MATCH + 1];
    let mut code = 0;
    let mut at = 0;
    while at < table.len() {
        if code + 1 < LENGTH_CODES.len() && LENGTH_CODES[code + 1].0 as usize <= at + MIN_MATCH {
            code += 1;
        }
        table[at] = code as u8;
        at += 1;
    }
    table
};

/// The literal/length symbol of a match length, the number of extra bits
/// after its code and their value.
fn length_to_symbol(len: u16) -> (usize, u8, u32) {
    let code = LENGTH_SYMBOLS[len as usize - MIN_MATCH] as usize;
    let (base, extra) = LENGTH_CODES[code];
    (256 + code, extra, (len - base) as u32)
}

/// The distance symbol of a match distance, the number of extra bits after
/// its code and their value. Past the first four, every power of two starts
/// two symbols: the symbol is the position of `distance - 1`'s top bit,
/// doubled, plus the bit below it.
fn dist_to_symbol(dist: u16) -> (usize, u8, u32) {
    let below = dist as u32 - 1;
    let code = if below < 4 {
        below as usize
    } else {
        let top = 31 - below.leading_zeros();
        (2 * top + ((below >> (top - 1)) & 1)) as usize
    };
    let (base, extra) = DIST_CODES[code];
    (code, extra, (dist - base) as u32)
}

fn pack_lengths(lengths: &[u8], out: &mut Vec<u8>) {
    // Two 4-bit lengths per byte; MAX_CODE_LEN is 15 so they fit.
    let mut iter = lengths.chunks(2);
    for chunk in &mut iter {
        let lo = chunk[0] & 0x0f;
        let hi = chunk.get(1).copied().unwrap_or(0) & 0x0f;
        out.push(lo | (hi << 4));
    }
}

fn unpack_lengths(data: &[u8], count: usize) -> Option<(Vec<u8>, usize)> {
    let bytes_needed = count.div_ceil(2);
    if data.len() < bytes_needed {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let byte = data[i / 2];
        out.push(if i % 2 == 0 { byte & 0x0f } else { byte >> 4 });
    }
    Some((out, bytes_needed))
}

fn stored_block(data: &[u8]) -> Vec<u8> {
    let mut stored = Vec::with_capacity(data.len() + 5);
    stored.push(BLOCK_STORED);
    stored.extend_from_slice(&(data.len() as u32).to_le_bytes());
    stored.extend_from_slice(data);
    stored
}

/// Compresses `data` at the given level.
///
/// A compressed block is kept only when it is no longer than the input, and
/// its length is known before it is written — the header's fixed size plus
/// each symbol's frequency times its code length and extra bits — so an
/// input that ends up stored costs the match search and the two tables of
/// code lengths, never the codes or a bit stream.
pub fn compress(data: &[u8], level: Level) -> Vec<u8> {
    if data.len() <= COMPRESSED_HEADER_LEN {
        // The header alone is as long, and any token adds to it.
        return stored_block(data);
    }
    let tokens = tokenize(data, &level.profile());

    // Gather symbol frequencies.
    let mut litlen_freq = [0u64; LITLEN_SYMBOLS];
    let mut dist_freq = [0u64; DIST_CODES.len()];
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen_freq[b as usize] += 1,
            Token::Match { length, distance } => {
                litlen_freq[length_to_symbol(length).0] += 1;
                dist_freq[dist_to_symbol(distance).0] += 1;
            }
        }
    }
    let litlen_lengths = huffman::code_lengths(&litlen_freq);
    let dist_lengths = huffman::code_lengths(&dist_freq);

    let extra_bits_of = |freqs: &[u64], codes: &[(u16, u8)]| -> u64 {
        freqs.iter().zip(codes).map(|(&f, &(_, extra))| f * extra as u64).sum()
    };
    let stream_bits = huffman::encoded_bits(&litlen_lengths, &litlen_freq)
        + huffman::encoded_bits(&dist_lengths, &dist_freq)
        + extra_bits_of(&litlen_freq[256..], &LENGTH_CODES)
        + extra_bits_of(&dist_freq, &DIST_CODES);
    let stream_len = stream_bits.div_ceil(8) as usize;
    if COMPRESSED_HEADER_LEN + stream_len > data.len() {
        // Compression did not pay off; emit a stored block.
        return stored_block(data);
    }
    let prefix_code = "Huffman code lengths describe a prefix code";
    let litlen_book = CodeBook::from_lengths(litlen_lengths).expect(prefix_code);
    let dist_book = CodeBook::from_lengths(dist_lengths).expect(prefix_code);

    let mut out = Vec::with_capacity(COMPRESSED_HEADER_LEN + stream_len);
    out.push(BLOCK_COMPRESSED);
    // Original length and token count as little-endian u32 (ID lists and
    // serialized results are far below 4 GiB per block).
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(&(tokens.len() as u32).to_le_bytes());
    pack_lengths(&litlen_book.lengths, &mut out);
    pack_lengths(&dist_book.lengths, &mut out);

    let mut writer = BitWriter::with_capacity(stream_len);
    for t in &tokens {
        match *t {
            Token::Literal(b) => litlen_book.encode_symbol(b as usize, &mut writer),
            Token::Match { length, distance } => {
                let (sym, extra, extra_bits) = length_to_symbol(length);
                litlen_book.encode_symbol(sym, &mut writer);
                writer.write_bits(extra_bits, extra);
                let (dsym, dextra, dextra_bits) = dist_to_symbol(distance);
                dist_book.encode_symbol(dsym, &mut writer);
                writer.write_bits(dextra_bits, dextra);
            }
        }
    }
    debug_assert_eq!(writer.bit_len() as u64, stream_bits);
    out.extend_from_slice(&writer.finish());
    out
}

/// Decompresses data produced by [`compress`]. Returns `None` on malformed
/// input — the bytes may come from an untrusted server, so nothing in them
/// is believed before it is checked: a match may not reach back past the
/// start of the output, the output may not outgrow the declared length, and
/// the declared lengths are held against what the block could possibly carry
/// before anything is allocated for them.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    let (&kind, rest) = data.split_first()?;
    match kind {
        BLOCK_STORED => {
            if rest.len() < 4 {
                return None;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let body = &rest[4..];
            if body.len() != len {
                return None;
            }
            Some(body.to_vec())
        }
        BLOCK_COMPRESSED => {
            if rest.len() < 8 {
                return None;
            }
            let orig_len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
            let n_tokens = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
            let mut pos = 8;
            let (litlen_lengths, used) = unpack_lengths(&rest[pos..], LITLEN_SYMBOLS)?;
            pos += used;
            let (dist_lengths, used) = unpack_lengths(&rest[pos..], DIST_CODES.len())?;
            pos += used;
            let litlen = Decoder::from_lengths(&litlen_lengths)?;
            let dist = Decoder::from_lengths(&dist_lengths)?;

            // Every token spends at least one bit of the stream and yields at
            // most MAX_MATCH bytes: counts beyond that cannot be honest.
            let stream = &rest[pos..];
            if n_tokens > stream.len().saturating_mul(8) || orig_len > n_tokens.saturating_mul(MAX_MATCH) {
                return None;
            }
            let mut reader = BitReader::new(stream);
            let mut out = Vec::with_capacity(orig_len);
            for _ in 0..n_tokens {
                let room = orig_len - out.len();
                let sym = litlen.decode_symbol(&mut reader)? as usize;
                if sym < 256 {
                    if room == 0 {
                        return None;
                    }
                    out.push(sym as u8);
                } else {
                    let (base, extra) = LENGTH_CODES[sym - 256];
                    let length = base as usize + reader.read_bits(extra)? as usize;
                    let dsym = dist.decode_symbol(&mut reader)? as usize;
                    let (dbase, dextra) = DIST_CODES[dsym];
                    let distance = dbase as usize + reader.read_bits(dextra)? as usize;
                    if length > room {
                        return None;
                    }
                    copy_match(&mut out, length, distance)?;
                }
            }
            (out.len() == orig_len).then_some(out)
        }
        _ => None,
    }
}

/// Convenience: compressed size of `data` at `level` without keeping the
/// output (used by the Figure 8 harness to report result sizes).
pub fn compressed_len(data: &[u8], level: Level) -> usize {
    compress(data, level).len()
}

/// The decoder this module shipped before it decoded canonically, kept as the
/// oracle the differential tests hold the new one against: a reader that
/// moves one bit at a time, a Huffman decoder that binary-searches its
/// (length, code) table after every bit, and tokens collected into a `Vec`
/// before any output byte exists, then expanded byte by byte. It shares
/// nothing with [`decompress`] but the block layout and the symbol tables.
/// The one change: where the original panicked on a match reaching before
/// the output, this one returns `None`.
#[cfg(test)]
pub(crate) mod oracle {
    use super::{unpack_lengths, BLOCK_COMPRESSED, BLOCK_STORED, DIST_CODES, LENGTH_CODES, LITLEN_SYMBOLS};
    use crate::codec::huffman::{CodeBook, MAX_CODE_LEN};
    use crate::codec::lz77::Token;

    pub(crate) struct BitReader<'a> {
        data: &'a [u8],
        byte_pos: usize,
        bit_pos: u8,
    }

    impl<'a> BitReader<'a> {
        pub(crate) fn new(data: &'a [u8]) -> Self {
            BitReader {
                data,
                byte_pos: 0,
                bit_pos: 0,
            }
        }

        pub(crate) fn read_bit(&mut self) -> Option<u8> {
            let byte = *self.data.get(self.byte_pos)?;
            let bit = (byte >> self.bit_pos) & 1;
            self.bit_pos += 1;
            if self.bit_pos == 8 {
                self.bit_pos = 0;
                self.byte_pos += 1;
            }
            Some(bit)
        }

        pub(crate) fn read_bits(&mut self, count: u8) -> Option<u32> {
            let mut out = 0u32;
            for i in 0..count {
                out |= (self.read_bit()? as u32) << i;
            }
            Some(out)
        }
    }

    pub(crate) struct Decoder {
        /// (length, code) -> symbol, stored sparsely sorted by (length, code).
        entries: Vec<(u8, u32, u16)>,
    }

    impl Decoder {
        pub(crate) fn new(book: &CodeBook) -> Decoder {
            let mut entries: Vec<(u8, u32, u16)> = book
                .lengths
                .iter()
                .enumerate()
                .filter(|(_, &l)| l > 0)
                .map(|(s, &l)| (l, book.codes[s], s as u16))
                .collect();
            entries.sort();
            Decoder { entries }
        }

        pub(crate) fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Option<u16> {
            let mut code: u32 = 0;
            let mut len: u8 = 0;
            loop {
                code = (code << 1) | reader.read_bit()? as u32;
                len += 1;
                if len > MAX_CODE_LEN {
                    return None;
                }
                if let Ok(idx) = self.entries.binary_search_by(|&(l, c, _)| (l, c).cmp(&(len, code))) {
                    return Some(self.entries[idx].2);
                }
            }
        }
    }

    pub(crate) fn decompress(data: &[u8]) -> Option<Vec<u8>> {
        let (declared, out) = inflate(data)?;
        (out.len() == declared).then_some(out)
    }

    /// The length a block declares and the bytes it really holds.
    pub(crate) fn inflate(data: &[u8]) -> Option<(usize, Vec<u8>)> {
        let (&kind, rest) = data.split_first()?;
        match kind {
            BLOCK_STORED => {
                if rest.len() < 4 {
                    return None;
                }
                let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                Some((len, rest[4..].to_vec()))
            }
            BLOCK_COMPRESSED => {
                if rest.len() < 8 {
                    return None;
                }
                let orig_len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
                let n_tokens = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
                let mut pos = 8;
                let (litlen_lengths, used) = unpack_lengths(&rest[pos..], LITLEN_SYMBOLS)?;
                pos += used;
                let (dist_lengths, used) = unpack_lengths(&rest[pos..], DIST_CODES.len())?;
                pos += used;
                let litlen_dec = Decoder::new(&CodeBook::from_lengths(litlen_lengths)?);
                let dist_dec = Decoder::new(&CodeBook::from_lengths(dist_lengths)?);

                let mut reader = BitReader::new(&rest[pos..]);
                // (The original reserved `n_tokens` slots up front.)
                let mut tokens = Vec::new();
                for _ in 0..n_tokens {
                    let sym = litlen_dec.decode_symbol(&mut reader)? as usize;
                    if sym < 256 {
                        tokens.push(Token::Literal(sym as u8));
                    } else {
                        let (base, extra) = LENGTH_CODES[sym - 256];
                        let length = base + reader.read_bits(extra)? as u16;
                        let dsym = dist_dec.decode_symbol(&mut reader)? as usize;
                        let (dbase, dextra) = *DIST_CODES.get(dsym)?;
                        let distance = dbase + reader.read_bits(dextra)? as u16;
                        tokens.push(Token::Match { length, distance });
                    }
                }
                let mut out: Vec<u8> = Vec::new();
                for token in tokens {
                    match token {
                        Token::Literal(b) => out.push(b),
                        Token::Match { length, distance } => {
                            let start = out.len().checked_sub(distance as usize)?;
                            for i in 0..length as usize {
                                let b = out[start + i];
                                out.push(b);
                            }
                        }
                    }
                }
                Some((orig_len, out))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A compressed block from its parts, with whatever counts the caller
    /// claims — the forger's view of the format.
    fn forge(orig_len: u32, n_tokens: u32, litlen: &[u8], dist: &[u8], stream: &[u8]) -> Vec<u8> {
        assert_eq!((litlen.len(), dist.len()), (LITLEN_SYMBOLS, DIST_CODES.len()));
        let mut block = vec![BLOCK_COMPRESSED];
        block.extend_from_slice(&orig_len.to_le_bytes());
        block.extend_from_slice(&n_tokens.to_le_bytes());
        pack_lengths(litlen, &mut block);
        pack_lengths(dist, &mut block);
        block.extend_from_slice(stream);
        block
    }

    /// The smallest forged block the original decoder died on: one token, a
    /// match (length symbol 256, distance symbol 0, both 1-bit codes), with
    /// no output yet to copy from. It panicked in `detokenize`.
    pub(crate) fn match_before_start() -> Vec<u8> {
        let mut litlen = vec![0u8; LITLEN_SYMBOLS];
        litlen[256] = 1;
        let mut dist = vec![0u8; DIST_CODES.len()];
        dist[0] = 1;
        forge(3, 1, &litlen, &dist, &[0])
    }

    /// Table and `leading_zeros` symbols ≡ the backwards scan of the code
    /// tables they replaced, for every match length and every distance.
    #[test]
    fn length_and_distance_symbols_match_the_table_scan() {
        let scan = |codes: &[(u16, u8)], value: u16| {
            let (i, &(base, extra)) = codes
                .iter()
                .enumerate()
                .rev()
                .find(|(_, &(base, _))| value >= base)
                .expect("value below the first base");
            (i, extra, (value - base) as u32)
        };
        for len in MIN_MATCH as u16..=MAX_MATCH as u16 {
            let (i, extra, bits) = scan(&LENGTH_CODES, len);
            assert_eq!(length_to_symbol(len), (256 + i, extra, bits), "length {len}");
            assert!(bits < 1 << extra || extra == 0 && bits == 0);
        }
        for dist in 1..=crate::codec::lz77::WINDOW_SIZE as u16 {
            let (i, extra, bits) = scan(&DIST_CODES, dist);
            assert_eq!(dist_to_symbol(dist), (i, extra, bits), "distance {dist}");
            assert!(bits < 1 << extra || extra == 0 && bits == 0);
        }
    }

    /// A block is stored exactly when the compressed one would be longer —
    /// decided from the frequencies, so pinned here around the boundary: the
    /// shortest inputs that can compress at all, and bodies that do by a
    /// byte or fail to by a byte.
    #[test]
    fn the_stored_or_compressed_decision_is_the_written_size() {
        assert_eq!(COMPRESSED_HEADER_LEN, 167);
        for level in [Level::Fast, Level::Compact] {
            // One symbol repeated: a literal and one match, a bit for each
            // code and five of length — a one-byte stream, a 168-byte block.
            for len in [0usize, 1, 166, 167] {
                assert_eq!(compress(&vec![7u8; len], level)[0], BLOCK_STORED, "{len} bytes");
            }
            for len in [168usize, 169, 200] {
                let block = compress(&vec![7u8; len], level);
                assert_eq!((block[0], block.len()), (BLOCK_COMPRESSED, 168), "{len} bytes");
                assert_eq!(decompress(&block), Some(vec![7u8; len]));
            }
            // Eight-bit noise never compresses; two-symbol noise always does
            // once the header is paid for; in between the decision flips,
            // and the output is never longer than the stored form.
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x570aed);
            let (mut stored, mut compressed) = (0, 0);
            for round in 0..400u32 {
                let len = rng.random_range(160..700usize);
                let alphabet = 2 + round % 60;
                let data: Vec<u8> = (0..len).map(|_| rng.random_range(0..alphabet) as u8).collect();
                let block = compress(&data, level);
                assert!(block.len() <= data.len() + 5);
                match block[0] {
                    BLOCK_STORED => stored += 1,
                    _ => {
                        assert!(block.len() <= data.len(), "kept a block longer than its input");
                        compressed += 1;
                    }
                }
                assert_eq!(decompress(&block), Some(data));
            }
            assert!(
                stored > 50 && compressed > 50,
                "{stored} stored, {compressed} compressed"
            );
        }
    }

    #[test]
    fn a_match_reaching_before_the_output_is_rejected() {
        let block = match_before_start();
        assert!(block.len() < 180, "a small forged block: {} bytes", block.len());
        assert_eq!(decompress(&block), None);

        // The same with real output in front of it: two literals, then a
        // match at distance 3.
        let mut litlen = vec![0u8; LITLEN_SYMBOLS];
        litlen[b'a' as usize] = 1;
        litlen[256] = 1;
        let mut dist = vec![0u8; DIST_CODES.len()];
        dist[2] = 1;
        // 'a' = code 0, length-3 = code 1, distance-3 = code 0: bits 0,0,1,0.
        assert_eq!(decompress(&forge(5, 3, &litlen, &dist, &[0b0100])), None);
        // Distance 2 (symbol 1) is inside the output and decodes: "aa" + "aaa".
        dist[2] = 0;
        dist[1] = 1;
        assert_eq!(
            decompress(&forge(5, 3, &litlen, &dist, &[0b0100])).as_deref(),
            Some(&b"aaaaa"[..])
        );
    }

    #[test]
    fn forged_counts_are_rejected_before_anything_is_allocated() {
        let mut litlen = vec![0u8; LITLEN_SYMBOLS];
        litlen[0] = 1;
        let dist = vec![0u8; DIST_CODES.len()];
        // 2^32 - 1 tokens and bytes claimed over a one-byte stream. The
        // original reserved ~24 GiB for the tokens before reading one.
        assert_eq!(decompress(&forge(u32::MAX, u32::MAX, &litlen, &dist, &[0])), None);
        // More tokens than the stream has bits, by one.
        assert_eq!(decompress(&forge(9, 9, &litlen, &dist, &[0])), None);
        assert_eq!(decompress(&forge(8, 8, &litlen, &dist, &[0])), Some(vec![0; 8]));
        // More bytes than that many tokens could produce.
        assert_eq!(
            decompress(&forge(8 * MAX_MATCH as u32 + 1, 8, &litlen, &dist, &[0])),
            None
        );
        // Output running past the declared length, by literal and by match.
        assert_eq!(decompress(&forge(7, 8, &litlen, &dist, &[0])), None);
        litlen[256] = 1;
        let mut dist = dist;
        dist[0] = 1;
        // literal 0, then a length-3 match at distance 1: four bytes.
        assert_eq!(decompress(&forge(4, 2, &litlen, &dist, &[0b010])), Some(vec![0; 4]));
        assert_eq!(decompress(&forge(3, 2, &litlen, &dist, &[0b010])), None);
    }

    /// Code lengths of a random shape: from a frequency table (complete),
    /// with symbols knocked out (incomplete), or with codes shortened
    /// (usually over-subscribed).
    fn random_lengths(rng: &mut impl Rng, symbols: usize) -> Vec<u8> {
        let used = rng.random_range(0..symbols + 1);
        let freqs: Vec<u64> = (0..symbols)
            .map(|s| {
                if s < used {
                    1 + (rng.random::<u64>() >> rng.random_range(40..64u32))
                } else {
                    0
                }
            })
            .collect();
        let mut lengths = CodeBook::from_frequencies(&freqs).lengths;
        match rng.random_range(0..4u32) {
            0 => {}
            1 => {
                for len in lengths.iter_mut() {
                    if rng.random_range(0..4u32) == 0 {
                        *len = 0;
                    }
                }
            }
            2 => {
                for _ in 0..rng.random_range(1..4u32) {
                    let s = rng.random_range(0..symbols);
                    lengths[s] = rng.random_range(0..16u8);
                }
            }
            _ => {
                for len in lengths.iter_mut() {
                    *len = rng.random_range(0..16u8);
                }
            }
        }
        lengths
    }

    /// New Huffman decoder ≡ the oracle's on random code-length tables:
    /// the same tables are refused, and over random bits the same symbols
    /// come out until both stop at the same place.
    #[test]
    fn canonical_decoder_matches_the_bit_by_bit_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xdec0de);
        let (mut accepted, mut refused, mut symbols_checked) = (0, 0, 0);
        for round in 0..600 {
            let symbols = [2, 3, 30, 285][round % 4];
            let lengths = random_lengths(&mut rng, symbols);
            let book = CodeBook::from_lengths(lengths.clone());
            let new = Decoder::from_lengths(&lengths);
            assert_eq!(new.is_some(), book.is_some(), "acceptance of {lengths:?}");
            let (Some(new), Some(book)) = (new, book) else {
                refused += 1;
                continue;
            };
            accepted += 1;
            let old = oracle::Decoder::new(&book);
            let bits: Vec<u8> = (0..rng.random_range(0..64u32)).map(|_| rng.random()).collect();
            let (mut new_reader, mut old_reader) = (BitReader::new(&bits), oracle::BitReader::new(&bits));
            loop {
                let symbol = new.decode_symbol(&mut new_reader);
                assert_eq!(symbol, old.decode_symbol(&mut old_reader), "lengths {lengths:?}");
                if symbol.is_none() {
                    break;
                }
                // The same position too: a few raw bits must agree. (A read
                // that fails leaves the two readers in different places; the
                // decoder gives up there, and so does this loop.)
                let extra = rng.random_range(0..14u8);
                let raw = new_reader.read_bits(extra);
                assert_eq!(raw, old_reader.read_bits(extra));
                if raw.is_none() {
                    break;
                }
                symbols_checked += 1;
            }
        }
        assert!(
            accepted > 150 && refused > 100 && symbols_checked > 3_000,
            "{accepted} {refused} {symbols_checked}"
        );
    }

    /// `decompress` ≡ the oracle on whole blocks: honest ones, honest ones
    /// with flipped bits, cut short or with edited counts, and blocks
    /// assembled from random tables over random bits.
    #[test]
    fn decompress_matches_the_oracle_on_damaged_and_random_blocks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0b10c);
        // Returns whether the block was accepted (by both).
        let check = |block: &[u8]| {
            let new = decompress(block);
            assert_eq!(new, oracle::decompress(block), "block {block:?}");
            new.is_some()
        };
        let (mut damaged, mut damaged_accepted) = (0, 0);
        for round in 0..300 {
            // Compressible input: a few distinct deltas, as in an ID list.
            let len = rng.random_range(800..2_400u32);
            let data: Vec<u8> = (0..len)
                .map(|_| [1u8, 1, 1, 2, 3, 0x81, 7][rng.random_range(0..7usize)])
                .collect();
            let level = if round % 2 == 0 { Level::Fast } else { Level::Compact };
            let honest = compress(&data, level);
            assert_eq!(honest[0], BLOCK_COMPRESSED);
            assert!(check(&honest));
            for _ in 0..6 {
                let mut block = honest.clone();
                match rng.random_range(0..4u32) {
                    0 => {
                        let bit = rng.random_range(0..block.len() * 8);
                        block[bit / 8] ^= 1 << (bit % 8);
                    }
                    1 => block.truncate(rng.random_range(0..block.len())),
                    2 => {
                        // orig_len or n_tokens, nudged.
                        let at = 1 + 4 * rng.random_range(0..2usize);
                        block[at] = block[at].wrapping_add(rng.random_range(1..4u8));
                    }
                    _ => {
                        // Damage confined to the bit stream.
                        let header = 9 + LITLEN_SYMBOLS.div_ceil(2) + DIST_CODES.len().div_ceil(2);
                        let at = rng.random_range(header..block.len());
                        block[at] = rng.random();
                    }
                }
                damaged += 1;
                damaged_accepted += check(&block) as usize;
            }
        }
        let (mut random, mut random_accepted) = (0, 0);
        for _ in 0..600 {
            let litlen = random_lengths(&mut rng, LITLEN_SYMBOLS);
            let dist = random_lengths(&mut rng, DIST_CODES.len());
            let stream: Vec<u8> = (0..rng.random_range(0..40u32)).map(|_| rng.random()).collect();
            let n_tokens = rng.random_range(0..(stream.len() as u32 * 3 + 2));
            // Usually the length this token stream really has, if it decodes.
            let orig_len = match oracle::inflate(&forge(0, n_tokens, &litlen, &dist, &stream)) {
                Some((_, out)) if rng.random_range(0..4u32) > 0 => out.len() as u32,
                _ => rng.random_range(0..2_000u32),
            };
            random += 1;
            random_accepted += check(&forge(orig_len, n_tokens, &litlen, &dist, &stream)) as usize;
        }
        // Both verdicts were exercised on both kinds of block.
        assert!(
            damaged_accepted > 20 && damaged - damaged_accepted > 500,
            "damaged: {damaged_accepted}/{damaged}"
        );
        assert!(
            random_accepted > 20 && random - random_accepted > 100,
            "random: {random_accepted}/{random}"
        );
    }

    fn roundtrip(data: &[u8]) {
        for level in [Level::Fast, Level::Compact] {
            let c = compress(data, level);
            assert_eq!(decompress(&c).as_deref(), Some(data), "level {level:?}");
        }
    }

    #[test]
    fn empty_input() {
        roundtrip(b"");
    }

    #[test]
    fn short_inputs_use_stored_blocks() {
        let data = b"hi";
        let c = compress(data, Level::Fast);
        assert_eq!(c[0], BLOCK_STORED);
        assert_eq!(decompress(&c).as_deref(), Some(&data[..]));
    }

    #[test]
    fn repetitive_data_compresses_well() {
        let data: Vec<u8> = b"0123456789".iter().cycle().take(50_000).cloned().collect();
        let c = compress(&data, Level::Compact);
        assert!(c.len() < data.len() / 10, "got {} bytes for {}", c.len(), data.len());
        roundtrip(&data);
    }

    #[test]
    fn text_like_data_roundtrips() {
        let mut data = Vec::new();
        for i in 0..3000 {
            data.extend_from_slice(format!("user={} country=C{} revenue={}\n", i, i % 37, i * 13).as_bytes());
        }
        roundtrip(&data);
        let c = compress(&data, Level::Compact);
        assert!(c.len() < data.len() / 2);
    }

    #[test]
    fn incompressible_data_does_not_blow_up() {
        // Pseudo-random bytes: stored fallback keeps overhead to 5 bytes.
        let data: Vec<u8> = (0..10_000u64)
            .map(|i| (i.wrapping_mul(0x9e3779b97f4a7c15) >> 33) as u8)
            .collect();
        let c = compress(&data, Level::Fast);
        assert!(c.len() <= data.len() + 5);
        roundtrip(&data);
    }

    #[test]
    fn compact_no_larger_than_fast_on_structured_data() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(&(i / 3).to_le_bytes());
        }
        let fast = compress(&data, Level::Fast);
        let compact = compress(&data, Level::Compact);
        assert!(compact.len() <= fast.len() + 8);
        roundtrip(&data);
    }

    #[test]
    fn corrupted_input_is_rejected_not_panicking() {
        let data: Vec<u8> = b"seabed".iter().cycle().take(5000).cloned().collect();
        let mut c = compress(&data, Level::Fast);
        // Truncate the bit stream.
        c.truncate(c.len() / 2);
        assert!(decompress(&c).is_none());
        // Unknown block type.
        assert!(decompress(&[9, 0, 0, 0, 0]).is_none());
    }

    #[test]
    fn varbyte_encoded_id_lists_compress() {
        // Simulates the actual Seabed payload: VB+diff encoded ID lists with
        // mostly-small deltas compress further under deflate.
        let deltas: Vec<u64> = (0..20_000).map(|i| if i % 100 == 0 { 1000 } else { 1 }).collect();
        let payload = seabed_encoding::varint::encode_all(&deltas);
        let c = compress(&payload, Level::Fast);
        assert!(c.len() < payload.len());
        assert_eq!(decompress(&c).unwrap(), payload);
    }
}
