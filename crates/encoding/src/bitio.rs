//! Bit-level I/O used by the Huffman coder.

/// Writes bits least-significant-bit first into a byte vector.
///
/// Pending bits sit in a 64-bit accumulator that is emptied four bytes at a
/// time, so a write is a shift and an or whatever its width.
#[derive(Default)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Bits not yet in `buf`; the next bit of the stream goes to bit `filled`.
    acc: u64,
    /// Number of valid bits in `acc`, below 32 between calls.
    filled: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` bytes of output.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            buf: Vec::with_capacity(bytes),
            ..Self::default()
        }
    }

    /// Writes the low `count` (at most 32) bits of `bits`, LSB first.
    pub fn write_bits(&mut self, bits: u32, count: u8) {
        debug_assert!(count <= 32);
        let masked = bits as u64 & ((1u64 << count) - 1);
        self.acc |= masked << self.filled;
        self.filled += count;
        if self.filled >= 32 {
            self.buf.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.filled -= 32;
        }
    }

    /// Writes a Huffman code whose bits are stored most-significant-bit first
    /// (the canonical-code convention): the low `len` bits of `code`, reversed.
    pub fn write_code(&mut self, code: u32, len: u8) {
        debug_assert!(len <= 32);
        if len > 0 {
            self.write_bits(code.reverse_bits() >> (32 - len), len);
        }
    }

    /// Flushes any partial byte and returns the accumulated buffer.
    pub fn finish(mut self) -> Vec<u8> {
        let pending = (self.filled as usize).div_ceil(8);
        self.buf.extend_from_slice(&self.acc.to_le_bytes()[..pending]);
        self.buf
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 + self.filled as usize
    }
}

/// Reads bits in the same order [`BitWriter`] produces them.
///
/// Unread bits sit in a 64-bit window that is topped up a byte at a time, so
/// a Huffman decoder can look at a whole code's worth of bits at once
/// ([`BitReader::peek_bits`]) and then consume only the length that matched.
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next byte of `data` to load into the window.
    pos: usize,
    /// Loaded but unread bits; the next bit of the stream is bit 0.
    window: u64,
    /// Number of valid bits in `window`.
    held: u8,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            window: 0,
            held: 0,
        }
    }

    /// The next `count` (at most 32) bits, LSB-first, without consuming them.
    /// Positions past the end of input read as zero; [`BitReader::consume`]
    /// is what refuses to go there.
    pub fn peek_bits(&mut self, count: u8) -> u32 {
        debug_assert!(count <= 32);
        if self.held < count {
            while self.held <= 56 && self.pos < self.data.len() {
                self.window |= (self.data[self.pos] as u64) << self.held;
                self.pos += 1;
                self.held += 8;
            }
        }
        (self.window & ((1u64 << count) - 1)) as u32
    }

    /// Consumes `count` bits that a [`BitReader::peek_bits`] of at least that
    /// many has looked at; `None` if fewer remain in the input.
    pub fn consume(&mut self, count: u8) -> Option<()> {
        if count > self.held {
            return None;
        }
        self.window >>= count;
        self.held -= count;
        Some(())
    }

    /// Reads a single bit; `None` at end of input.
    pub fn read_bit(&mut self) -> Option<u8> {
        self.read_bits(1).map(|bit| bit as u8)
    }

    /// Reads `count` (at most 32) bits LSB-first; `None` if fewer remain.
    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        let bits = self.peek_bits(count);
        self.consume(count)?;
        Some(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The writer this module shipped before the accumulator — one bit per
    /// loop turn — kept as the oracle [`BitWriter`] is held against.
    #[derive(Default)]
    struct BitAtATimeWriter {
        buf: Vec<u8>,
        current: u8,
        filled: u8,
    }

    impl BitAtATimeWriter {
        fn write_bits(&mut self, bits: u32, count: u8) {
            for i in 0..count {
                let bit = ((bits >> i) & 1) as u8;
                self.current |= bit << self.filled;
                self.filled += 1;
                if self.filled == 8 {
                    self.buf.push(self.current);
                    self.current = 0;
                    self.filled = 0;
                }
            }
        }

        fn write_code(&mut self, code: u32, len: u8) {
            for i in (0..len).rev() {
                self.write_bits((code >> i) & 1, 1);
            }
        }

        fn finish(mut self) -> Vec<u8> {
            if self.filled > 0 {
                self.buf.push(self.current);
            }
            self.buf
        }

        fn bit_len(&self) -> usize {
            self.buf.len() * 8 + self.filled as usize
        }
    }

    /// Accumulator writer ≡ bit-at-a-time writer on seeded streams of raw
    /// writes and codes: every width from 0 to 32, bits above the width set
    /// (they must be ignored), and — through the leading pad — every
    /// alignment of the accumulator's 32-bit flush.
    #[test]
    fn accumulator_writer_matches_the_bit_at_a_time_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xb175);
        for round in 0..2_000u32 {
            let (mut new, mut old) = (BitWriter::new(), BitAtATimeWriter::default());
            let pad = (round % 64) as u8;
            for width in [pad.min(32), pad - pad.min(32)] {
                new.write_bits(u32::MAX, width);
                old.write_bits(u32::MAX, width);
            }
            for _ in 0..rng.random_range(0..40u32) {
                let bits: u32 = rng.random();
                // Widths 0 and 32 are drawn often, not once in 33 times.
                let count = match rng.random_range(0..8u32) {
                    0 => 0,
                    1 => 32,
                    _ => rng.random_range(0..33u32) as u8,
                };
                if rng.random() {
                    new.write_bits(bits, count);
                    old.write_bits(bits, count);
                } else {
                    new.write_code(bits, count);
                    old.write_code(bits, count);
                }
                assert_eq!(new.bit_len(), old.bit_len());
            }
            assert_eq!(new.finish(), old.finish(), "round {round}");
        }
    }

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xffff, 16);
        w.write_bits(0, 5);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(16), Some(0xffff));
        assert_eq!(r.read_bits(5), Some(0));
    }

    #[test]
    fn bit_len_counts_partial_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0b1111111, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 9);
    }

    #[test]
    fn msb_first_codes_roundtrip_via_single_bits() {
        let mut w = BitWriter::new();
        w.write_code(0b110, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(1));
        assert_eq!(r.read_bit(), Some(1));
        assert_eq!(r.read_bit(), Some(0));
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut r = BitReader::new(&[0xff]);
        assert_eq!(r.read_bits(8), Some(0xff));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn peeking_past_the_end_pads_with_zeros_but_cannot_be_consumed() {
        let mut r = BitReader::new(&[0b1010_0101, 0b11]);
        assert_eq!(r.read_bits(6), Some(0b10_0101));
        // Ten bits remain; a fifteen-bit look sees them above zero padding.
        assert_eq!(r.peek_bits(15), 0b11_10);
        assert_eq!(r.consume(11), None);
        assert_eq!(r.read_bits(10), Some(0b11_10));
        assert_eq!(r.peek_bits(15), 0);
        assert_eq!(r.consume(1), None);
        assert_eq!(r.read_bits(0), Some(0));
    }

    #[test]
    fn wide_reads_cross_window_refills() {
        // 40 bytes read as 32-, 1- and 15-bit pieces: every refill boundary
        // (the window holds 57 to 64 bits) is crossed at some alignment.
        let data: Vec<u8> = (0..40u32).map(|i| (i.wrapping_mul(157) >> 2) as u8).collect();
        let bit = |i: usize| (data[i / 8] >> (i % 8)) & 1;
        let mut r = BitReader::new(&data);
        let mut at = 0usize;
        for count in [32u8, 1, 15, 32, 32, 7, 32, 32, 32, 15, 32, 32, 26] {
            let expected = (0..count as usize).fold(0u32, |acc, i| acc | (bit(at + i) as u32) << i);
            assert_eq!(r.read_bits(count), Some(expected), "{count} bits at {at}");
            at += count as usize;
        }
        assert_eq!(at, data.len() * 8);
        assert_eq!(r.read_bit(), None);
    }
}
