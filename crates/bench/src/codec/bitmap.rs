//! Chunked (roaring-style) bitmap encoding of ID sets.
//!
//! Section 4.5 notes that Seabed "evaluated several integer list encoding
//! techniques, including bitmaps" and found that the bitmap algorithms
//! performed poorly for this workload; they are omitted from Figure 8 "for
//! brevity". This module implements the bitmap alternative so the ablation can
//! be reproduced: the ID space is split into 2^16-sized chunks and each chunk
//! stores either a sorted array of 16-bit offsets (sparse) or a packed bit set
//! (dense), following the Roaring design.

use seabed_encoding::Run;

const CHUNK_BITS: u64 = 16;
const CHUNK_SIZE: u64 = 1 << CHUNK_BITS;
/// Above this many values a chunk switches from an array to a packed bit set
/// (the crossover where 16-bit entries exceed the 8 KiB bit set).
const ARRAY_LIMIT: usize = 4096;

#[derive(Clone, Debug, PartialEq, Eq)]
enum Container {
    /// Sorted 16-bit offsets within the chunk.
    Array(Vec<u16>),
    /// Packed bit set of 65536 bits.
    Bits(Box<[u64; 1024]>),
}

impl Container {
    fn cardinality(&self) -> usize {
        match self {
            Container::Array(v) => v.len(),
            Container::Bits(b) => b.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    fn push(&mut self, offset: u16) {
        match self {
            Container::Array(v) => {
                if v.last() == Some(&offset) {
                    return;
                }
                v.push(offset);
                if v.len() > ARRAY_LIMIT {
                    let mut bits = Box::new([0u64; 1024]);
                    for &o in v.iter() {
                        bits[(o >> 6) as usize] |= 1u64 << (o & 63);
                    }
                    *self = Container::Bits(bits);
                }
            }
            Container::Bits(b) => {
                b[(offset >> 6) as usize] |= 1u64 << (offset & 63);
            }
        }
    }

    fn iter_offsets(&self) -> Vec<u16> {
        match self {
            Container::Array(v) => v.clone(),
            Container::Bits(b) => {
                let mut out = Vec::with_capacity(self.cardinality());
                for (word_idx, &word) in b.iter().enumerate() {
                    let mut w = word;
                    while w != 0 {
                        let bit = w.trailing_zeros();
                        out.push((word_idx as u32 * 64 + bit) as u16);
                        w &= w - 1;
                    }
                }
                out
            }
        }
    }
}

/// A compressed bitmap over 64-bit identifiers.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Bitmap {
    /// Chunks keyed by `id >> 16`, kept sorted by key.
    chunks: Vec<(u64, Container)>,
}

impl Bitmap {
    /// Creates an empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Builds a bitmap from sorted runs of identifiers.
    pub fn from_runs(runs: &[Run]) -> Bitmap {
        let mut bm = Bitmap::new();
        for run in runs {
            for id in run.start..=run.end {
                bm.insert(id);
            }
        }
        bm
    }

    /// Inserts one identifier. IDs must be inserted in non-decreasing order
    /// (which is how Seabed workers scan their partitions).
    pub fn insert(&mut self, id: u64) {
        let key = id >> CHUNK_BITS;
        let offset = (id & (CHUNK_SIZE - 1)) as u16;
        match self.chunks.last_mut() {
            Some((k, c)) if *k == key => c.push(offset),
            _ => {
                let mut c = Container::Array(Vec::new());
                c.push(offset);
                self.chunks.push((key, c));
            }
        }
    }

    /// Total number of identifiers stored.
    pub fn cardinality(&self) -> usize {
        self.chunks.iter().map(|(_, c)| c.cardinality()).sum()
    }

    /// Expands back into maximal runs.
    pub fn to_runs(&self) -> Vec<Run> {
        let mut runs: Vec<Run> = Vec::new();
        for (key, container) in &self.chunks {
            for offset in container.iter_offsets() {
                let id = (key << CHUNK_BITS) | offset as u64;
                match runs.last_mut() {
                    Some(run) if id.checked_sub(1) == Some(run.end) => run.end = id,
                    Some(run) if id <= run.end => {}
                    _ => runs.push(Run::new(id, id)),
                }
            }
        }
        runs
    }

    /// Serializes the bitmap.
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        seabed_encoding::varint::encode_u64(self.chunks.len() as u64, &mut out);
        for (key, container) in &self.chunks {
            seabed_encoding::varint::encode_u64(*key, &mut out);
            match container {
                Container::Array(v) => {
                    out.push(0u8);
                    seabed_encoding::varint::encode_u64(v.len() as u64, &mut out);
                    for &offset in v {
                        out.extend_from_slice(&offset.to_le_bytes());
                    }
                }
                Container::Bits(b) => {
                    out.push(1u8);
                    for word in b.iter() {
                        out.extend_from_slice(&word.to_le_bytes());
                    }
                }
            }
        }
        out
    }

    /// Deserializes a bitmap; returns `None` on malformed input.
    pub fn deserialize(data: &[u8]) -> Option<Bitmap> {
        let (n_chunks, mut pos) = seabed_encoding::varint::decode_u64(data, 0)?;
        let mut chunks = Vec::new();
        for _ in 0..n_chunks {
            let (key, next) = seabed_encoding::varint::decode_u64(data, pos)?;
            pos = next;
            let kind = *data.get(pos)?;
            pos += 1;
            match kind {
                0 => {
                    let (len, next) = seabed_encoding::varint::decode_u64(data, pos)?;
                    pos = next;
                    let mut v = Vec::with_capacity((len as usize).min(1 << 16));
                    for _ in 0..len {
                        let bytes = data.get(pos..pos + 2)?;
                        v.push(u16::from_le_bytes(bytes.try_into().unwrap()));
                        pos += 2;
                    }
                    chunks.push((key, Container::Array(v)));
                }
                1 => {
                    let mut bits = Box::new([0u64; 1024]);
                    for word in bits.iter_mut() {
                        let bytes = data.get(pos..pos + 8)?;
                        *word = u64::from_le_bytes(bytes.try_into().unwrap());
                        pos += 8;
                    }
                    chunks.push((key, Container::Bits(bits)));
                }
                _ => return None,
            }
        }
        Some(Bitmap { chunks })
    }

    /// Serialized size in bytes.
    pub fn serialized_size(&self) -> usize {
        self.serialize().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A forged bitmap may put anything after the last identifier; `to_runs`
    /// used to overflow looking for its successor (a panic in debug builds).
    #[test]
    fn forged_chunk_after_the_last_identifier_is_ignored() {
        let forged = Bitmap {
            chunks: vec![
                (u64::MAX >> CHUNK_BITS, Container::Array(vec![u16::MAX])),
                (0, Container::Array(vec![0])),
            ],
        };
        let reread = Bitmap::deserialize(&forged.serialize()).unwrap();
        assert_eq!(reread.to_runs(), vec![Run::new(u64::MAX, u64::MAX)]);
    }

    #[test]
    fn insert_and_cardinality() {
        let mut bm = Bitmap::new();
        for id in [1u64, 2, 3, 100, 70_000, 70_001] {
            bm.insert(id);
        }
        assert_eq!(bm.cardinality(), 6);
        assert_eq!(
            bm.to_runs(),
            vec![Run::new(1, 3), Run::new(100, 100), Run::new(70_000, 70_001)]
        );
    }

    #[test]
    fn duplicates_ignored() {
        let mut bm = Bitmap::new();
        bm.insert(5);
        bm.insert(5);
        assert_eq!(bm.cardinality(), 1);
    }

    #[test]
    fn dense_chunk_switches_to_bitset() {
        let runs = vec![Run::new(0, 9999)];
        let bm = Bitmap::from_runs(&runs);
        assert_eq!(bm.cardinality(), 10_000);
        assert_eq!(bm.to_runs(), runs);
        // A dense chunk should serialize to about 8 KiB, not 20 KB of u16s.
        assert!(bm.serialized_size() < 9_000);
    }

    #[test]
    fn serialize_roundtrip_sparse_and_dense() {
        let runs = vec![
            Run::new(10, 20),
            Run::new(100_000, 108_000),
            Run::new(1 << 40, (1 << 40) + 3),
        ];
        let bm = Bitmap::from_runs(&runs);
        let data = bm.serialize();
        let back = Bitmap::deserialize(&data).unwrap();
        assert_eq!(back.to_runs(), runs);
    }

    #[test]
    fn empty_bitmap_roundtrips() {
        let bm = Bitmap::new();
        assert_eq!(Bitmap::deserialize(&bm.serialize()).unwrap(), bm);
        assert_eq!(bm.cardinality(), 0);
        assert!(bm.to_runs().is_empty());
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(Bitmap::deserialize(&[5]).is_none()); // promises 5 chunks, has none
        assert!(Bitmap::deserialize(&[1, 0, 7]).is_none()); // bad container kind
    }

    #[test]
    fn bitmap_is_larger_than_range_encoding_for_contiguous_ids() {
        // The reason the paper rejects bitmaps: a fully contiguous selection is
        // 2 integers under range encoding but ~1 bit per row under bitmaps.
        let runs = vec![Run::new(0, 1_000_000)];
        let bm_size = Bitmap::from_runs(&runs).serialized_size();
        let range_size = seabed_encoding::encoded_size(&runs, seabed_encoding::IdListEncoding::RangesVbDiff);
        assert!(bm_size > 50 * range_size, "bitmap {bm_size} vs ranges {range_size}");
    }
}
