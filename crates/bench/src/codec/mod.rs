//! The ID-list encodings the paper compares (Table 3, Figure 8) that the
//! product does not send.
//!
//! The product ships every list in the smallest of four closed-form
//! containers ([`seabed_encoding::smallest_encoding`]). The paper instead picks
//! one encoding per query class — ranges with a DEFLATE pass for aggregates,
//! per-ID deltas for group-bys — and evaluates raw range bounds and a
//! roaring-style bitmap beside them. Those live here, with the compressor's
//! parts, so the harness reproduces the paper's figures with the paper's
//! choices:
//!
//! * [`deflate`] — an LZ77 + canonical-Huffman compressor with the fast and
//!   compact profiles compared in Figure 8;
//! * [`bitio`] / [`huffman`] / [`lz77`] — its building blocks;
//! * [`bitmap`] — the chunked bitmap the paper evaluated and rejected;
//! * [`PaperEncoding`] — the six configurations of Table 3 and Figure 8.

pub mod bitio;
pub mod bitmap;
pub mod deflate;
pub mod huffman;
pub mod lz77;

pub use bitmap::Bitmap;
pub use deflate::{compress, decompress, Level};

use seabed_encoding::{decode_runs, encode_runs, encoded_size, varint, IdListEncoding, Run};

/// The encodings compared in Figure 8, plus the group-by variant of §4.5 and
/// the rejected bitmap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PaperEncoding {
    /// Range bounds, variable-byte encoded ("Ranges & VB").
    RangesVb,
    /// Range bounds with differential encoding, variable-byte encoded ("+Diff").
    RangesVbDiff,
    /// `RangesVbDiff` followed by the compact DEFLATE profile ("+Deflate(Compact)").
    RangesVbDiffDeflateCompact,
    /// `RangesVbDiff` followed by the fast DEFLATE profile ("+Deflate(Fast)").
    RangesVbDiffDeflateFast,
    /// Per-ID differential + variable-byte encoding, no ranges — the paper's
    /// choice for group-by lists, which are sparse (§4.5).
    VbDiff,
    /// Chunked bitmap encoding; evaluated and rejected by the paper.
    Bitmap,
}

impl PaperEncoding {
    /// All encodings, in the order Table 3 lists them.
    pub const ALL: [PaperEncoding; 6] = [
        PaperEncoding::RangesVb,
        PaperEncoding::RangesVbDiff,
        PaperEncoding::RangesVbDiffDeflateCompact,
        PaperEncoding::RangesVbDiffDeflateFast,
        PaperEncoding::VbDiff,
        PaperEncoding::Bitmap,
    ];

    /// The encoding the paper selects for aggregation queries.
    pub const SEABED_AGGREGATE: PaperEncoding = PaperEncoding::RangesVbDiffDeflateFast;

    /// Human-readable label matching the figure legend.
    pub fn label(&self) -> &'static str {
        match self {
            PaperEncoding::RangesVb => "Ranges & VB",
            PaperEncoding::RangesVbDiff => "+Diff",
            PaperEncoding::RangesVbDiffDeflateCompact => "+Deflate(Compact)",
            PaperEncoding::RangesVbDiffDeflateFast => "+Deflate(Fast)",
            PaperEncoding::VbDiff => "VB & Diff (group-by)",
            PaperEncoding::Bitmap => "Bitmap",
        }
    }

    /// Encodes a run list.
    pub fn encode(&self, runs: &[Run]) -> Vec<u8> {
        let diff = || encode_runs(runs, IdListEncoding::RangesVbDiff);
        match self {
            PaperEncoding::RangesVb => {
                // Raw bounds: start_1, end_1, start_2, end_2, ...
                let mut out = Vec::with_capacity(runs.len() * 4);
                for run in runs {
                    varint::encode_u64(run.start, &mut out);
                    varint::encode_u64(run.end, &mut out);
                }
                out
            }
            PaperEncoding::RangesVbDiff => diff(),
            PaperEncoding::RangesVbDiffDeflateCompact => compress(&diff(), Level::Compact),
            PaperEncoding::RangesVbDiffDeflateFast => compress(&diff(), Level::Fast),
            PaperEncoding::VbDiff => encode_runs(runs, IdListEncoding::VbDiff),
            PaperEncoding::Bitmap => Bitmap::from_runs(runs).serialize(),
        }
    }

    /// Decodes a run list; `None` on malformed input. What comes back is
    /// canonical, as [`seabed_encoding::decode_runs`] promises.
    pub fn decode(&self, data: &[u8]) -> Option<Vec<Run>> {
        match self {
            PaperEncoding::RangesVb => {
                let values = varint::decode_all(data)?;
                if values.len() % 2 != 0 {
                    return None;
                }
                // Re-spelled as gaps and spans, which the product decoder
                // checks for order and overlap.
                let mut diff = Vec::with_capacity(data.len());
                let mut prev = 0u64;
                for pair in values.chunks_exact(2) {
                    varint::encode_u64(pair[0].checked_sub(prev)?, &mut diff);
                    varint::encode_u64(pair[1].checked_sub(pair[0])?, &mut diff);
                    prev = pair[1];
                }
                decode_runs(&diff, IdListEncoding::RangesVbDiff)
            }
            PaperEncoding::RangesVbDiff => decode_runs(data, IdListEncoding::RangesVbDiff),
            PaperEncoding::RangesVbDiffDeflateCompact | PaperEncoding::RangesVbDiffDeflateFast => {
                decode_runs(&decompress(data)?, IdListEncoding::RangesVbDiff)
            }
            PaperEncoding::VbDiff => decode_runs(data, IdListEncoding::VbDiff),
            PaperEncoding::Bitmap => Bitmap::deserialize(data).map(|b| b.to_runs()),
        }
    }

    /// Encoded size in bytes: exactly `self.encode(runs).len()`. The
    /// variable-byte encodings are sized arithmetically; the DEFLATE and
    /// bitmap encodings have no closed form and are encoded to be measured.
    pub fn encoded_size(&self, runs: &[Run]) -> usize {
        match self {
            PaperEncoding::RangesVb => runs
                .iter()
                .map(|r| varint::encoded_len(r.start) + varint::encoded_len(r.end))
                .sum(),
            PaperEncoding::RangesVbDiff => encoded_size(runs, IdListEncoding::RangesVbDiff),
            PaperEncoding::VbDiff => encoded_size(runs, IdListEncoding::VbDiff),
            _ => self.encode(runs).len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use seabed_encoding::{ids_to_runs, runs_to_ids};

    fn sorted_ids() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..5_000, 0..400).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        #[test]
        fn runs_roundtrip_all_encodings(ids in sorted_ids()) {
            let runs = ids_to_runs(&ids);
            prop_assert_eq!(&runs_to_ids(&runs), &ids);
            for enc in PaperEncoding::ALL {
                let data = enc.encode(&runs);
                prop_assert_eq!(enc.encoded_size(&runs), data.len());
                prop_assert_eq!(enc.decode(&data), Some(runs.clone()), "encoding {:?}", enc);
            }
        }

        #[test]
        fn deflate_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            for level in [Level::Fast, Level::Compact] {
                let c = compress(&data, level);
                let d = decompress(&c);
                prop_assert_eq!(d.as_deref(), Some(&data[..]));
                prop_assert_eq!(deflate::oracle::decompress(&c), d);
            }
        }

        #[test]
        fn deflate_of_id_lists_matches_the_oracle(ids in sorted_ids()) {
            // Random bytes mostly end up in stored blocks; encoded ID lists
            // are what the entropy coder really sees.
            let payload = PaperEncoding::RangesVbDiff.encode(&ids_to_runs(&ids)).repeat(3);
            for level in [Level::Fast, Level::Compact] {
                let c = compress(&payload, level);
                prop_assert_eq!(decompress(&c), Some(payload.clone()));
                prop_assert_eq!(deflate::oracle::decompress(&c), Some(payload.clone()));
            }
        }

        #[test]
        fn deflate_bounded_expansion(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
            // The stored-block fallback bounds worst-case expansion to 5 bytes.
            let c = compress(&data, Level::Fast);
            prop_assert!(c.len() <= data.len() + 5);
        }

        #[test]
        fn bitmap_matches_runs(ids in sorted_ids()) {
            let runs = ids_to_runs(&ids);
            let bm = Bitmap::from_runs(&runs);
            prop_assert_eq!(bm.cardinality(), ids.len());
            prop_assert_eq!(bm.to_runs(), runs);
        }
    }

    #[test]
    fn table3_example_range_encoding() {
        // [2..14, 19..23] -> [2-14, 19-23]: four VB integers.
        let runs = vec![Run::new(2, 14), Run::new(19, 23)];
        let data = PaperEncoding::RangesVb.encode(&runs);
        assert_eq!(varint::decode_all(&data).unwrap(), vec![2, 14, 19, 23]);
        assert_eq!(PaperEncoding::RangesVb.decode(&data).unwrap(), runs);
    }

    #[test]
    fn deflate_helps_on_regular_gaps() {
        // Alternating IDs produce highly regular diff streams that deflate
        // compresses well — the observation at the end of §6.1.
        let runs = ids_to_runs(&(0..50_000u64).map(|i| i * 2).collect::<Vec<_>>());
        let plain = PaperEncoding::RangesVbDiff.encoded_size(&runs);
        let deflated = PaperEncoding::RangesVbDiffDeflateFast.encoded_size(&runs);
        assert!(deflated < plain / 2, "deflated {deflated} vs plain {plain}");
    }

    #[test]
    fn forged_lists_are_refused_not_panicking() {
        use PaperEncoding::*;
        let vb = |values: &[u64]| varint::encode_all(values);
        let deflated = |body: &[u8]| compress(body, Level::Fast);
        assert_eq!(RangesVb.decode(&vb(&[10, 12, 1, 3])), None, "descending runs");
        assert_eq!(RangesVb.decode(&vb(&[1, 5, 5, 9])), None, "a shared bound");
        assert_eq!(RangesVb.decode(&vb(&[1, 5, 3, 4])), None, "a run inside another");
        assert_eq!(RangesVb.decode(&vb(&[4, 2])), None, "a run that ends before it starts");
        assert_eq!(RangesVb.decode(&[0x01]), None, "an odd count");
        assert_eq!(RangesVb.decode(&vb(&[1, 3, 4, 6])), Some(vec![Run::new(1, 6)]));
        for enc in [RangesVbDiffDeflateFast, RangesVbDiffDeflateCompact] {
            assert_eq!(enc.decode(&deflated(&vb(&[1, 9, 0, 5]))), None, "overlapping runs");
            assert_eq!(enc.decode(&deflated(&vb(&[1, 2, 1, 2]))), Some(vec![Run::new(1, 6)]));
            // A compressed block whose first token copies from before the
            // start of the output: decoding it used to panic in `decompress`.
            assert_eq!(enc.decode(&deflate::tests::match_before_start()), None);
        }
        for enc in PaperEncoding::ALL {
            let _ = enc.decode(&[0xff, 0xff, 0xff]);
        }
    }
}
