//! Variable-byte (VB) integer encoding.
//!
//! Seabed's ASHE ciphertexts carry a multiset of row identifiers; §4.5 keeps
//! those ID lists small by combining range encoding, differential encoding and
//! variable-byte encoding (Table 3). This module implements the variable-byte
//! layer: each integer is stored in the minimum number of 7-bit groups, with
//! the high bit of every byte flagging whether more bytes follow.

/// Appends the VB encoding of `value` to `out`; returns the number of bytes
/// written. Values below 2^14 — the gaps and spans of most ID lists — take
/// one or two pushes, inlined where they are called.
#[inline]
pub fn encode_u64(value: u64, out: &mut Vec<u8>) -> usize {
    if value < 1 << 7 {
        out.push(value as u8);
        1
    } else if value < 1 << 14 {
        out.push(value as u8 | 0x80);
        out.push((value >> 7) as u8);
        2
    } else {
        encode_long(value, out)
    }
}

fn encode_long(mut value: u64, out: &mut Vec<u8>) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes a VB integer from `data` starting at `pos`.
///
/// Returns the decoded value and the new position, or `None` if the input is
/// truncated or overlong (more than 10 bytes). One- and two-byte values are
/// read inline, without the loop.
#[inline]
pub fn decode_u64(data: &[u8], pos: usize) -> Option<(u64, usize)> {
    let first = *data.get(pos)?;
    if first & 0x80 == 0 {
        return Some((first as u64, pos + 1));
    }
    match data.get(pos + 1) {
        Some(&second) if second & 0x80 == 0 => Some(((first & 0x7f) as u64 | (second as u64) << 7, pos + 2)),
        _ => decode_long(data, pos),
    }
}

fn decode_long(data: &[u8], pos: usize) -> Option<(u64, usize)> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    let mut i = pos;
    loop {
        let byte = *data.get(i)?;
        i += 1;
        if shift >= 64 {
            return None;
        }
        value |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some((value, i));
        }
        shift += 7;
        if i - pos > 10 {
            return None;
        }
    }
}

/// Encodes a slice of integers back-to-back.
pub fn encode_all(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 2);
    for &v in values {
        encode_u64(v, &mut out);
    }
    out
}

/// Decodes all VB integers in `data`. Returns `None` on malformed input.
pub fn decode_all(data: &[u8]) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let (v, next) = decode_u64(data, pos)?;
        out.push(v);
        pos = next;
    }
    Some(out)
}

/// Number of bytes the VB encoding of `value` occupies.
#[inline]
pub fn encoded_len(value: u64) -> usize {
    if value < 1 << 7 {
        1
    } else if value < 1 << 14 {
        2
    } else {
        (64 - value.leading_zeros() as usize).div_ceil(7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_take_one_byte() {
        for v in 0..128u64 {
            let mut out = Vec::new();
            assert_eq!(encode_u64(v, &mut out), 1);
            assert_eq!(decode_u64(&out, 0), Some((v, 1)));
        }
    }

    #[test]
    fn boundary_values() {
        for v in [127u64, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut out = Vec::new();
            encode_u64(v, &mut out);
            assert_eq!(decode_u64(&out, 0).unwrap().0, v);
            assert_eq!(out.len(), encoded_len(v));
        }
    }

    #[test]
    fn batch_roundtrip() {
        let values: Vec<u64> = vec![0, 1, 127, 128, 300, 1_000_000, u64::MAX, 42];
        let encoded = encode_all(&values);
        assert_eq!(decode_all(&encoded).unwrap(), values);
    }

    /// The one- and two-byte fast paths read what the general loop reads,
    /// non-minimal spellings (`80 00`) and truncations included.
    #[test]
    fn the_fast_paths_agree_with_the_loop() {
        fn by_the_loop(data: &[u8]) -> Option<(u64, usize)> {
            let mut value = 0u64;
            for (i, &byte) in data.iter().enumerate().take(10) {
                value |= ((byte & 0x7f) as u64) << (7 * i);
                if byte & 0x80 == 0 {
                    return Some((value, i + 1));
                }
            }
            None
        }
        for first in 0..=255u8 {
            assert_eq!(decode_u64(&[first], 0), by_the_loop(&[first]), "{first:#x}");
            for second in 0..=255u8 {
                let data = [first, second];
                assert_eq!(decode_u64(&data, 0), by_the_loop(&data), "{data:x?}");
            }
        }
        for v in (0..1u64 << 15).chain([u64::MAX]) {
            let mut out = Vec::new();
            assert_eq!(encode_u64(v, &mut out), encoded_len(v));
            assert_eq!(decode_u64(&out, 0), Some((v, out.len())));
        }
    }

    #[test]
    fn truncated_input_rejected() {
        let mut out = Vec::new();
        encode_u64(1_000_000, &mut out);
        assert!(decode_u64(&out[..out.len() - 1], 0).is_none());
    }

    #[test]
    fn smaller_numbers_use_fewer_bytes() {
        assert!(encoded_len(5) < encoded_len(500));
        assert!(encoded_len(500) < encoded_len(5_000_000));
        assert_eq!(encoded_len(u64::MAX), 10);
    }
}
