//! # seabed-encoding
//!
//! Integer-list encodings and compression for Seabed's ASHE ID lists.
//!
//! ASHE ciphertexts carry the multiset of row identifiers that were aggregated
//! into them; keeping those lists small is what makes ASHE practical at
//! billion-row scale (§4.5 of the paper, Table 3, Figure 8). This crate
//! provides:
//!
//! * [`varint`] — variable-byte integer encoding;
//! * [`idlist`] — range / differential / variable-byte combinations over runs
//!   of identifiers, exactly the encodings Table 3 enumerates;
//! * [`bitmap`] — a roaring-style chunked bitmap (the alternative the paper
//!   evaluated and rejected);
//! * [`deflate`] — an LZ77 + canonical-Huffman compressor with the fast and
//!   compact profiles compared in Figure 8;
//! * [`bitio`] / [`huffman`] / [`lz77`] — the building blocks of the
//!   compressor, usable on their own.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitio;
pub mod bitmap;
pub mod deflate;
pub mod huffman;
pub mod idlist;
pub mod lz77;
pub mod varint;

pub use bitmap::Bitmap;
pub use deflate::{compress, decompress, Level};
pub use idlist::{
    append_offset_runs, decode_runs, encode_runs, encoded_size, ids_to_runs, runs_to_ids, IdListEncoding, Run,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn sorted_ids() -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0u64..5_000, 0..400).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
    }

    proptest! {
        #[test]
        fn varint_roundtrip(values in proptest::collection::vec(any::<u64>(), 0..200)) {
            let encoded = varint::encode_all(&values);
            prop_assert_eq!(varint::decode_all(&encoded).unwrap(), values);
        }

        #[test]
        fn runs_roundtrip_all_encodings(ids in sorted_ids()) {
            let runs = ids_to_runs(&ids);
            prop_assert_eq!(&runs_to_ids(&runs), &ids);
            for enc in IdListEncoding::ALL {
                let data = encode_runs(&runs, enc);
                let decoded = decode_runs(&data, enc).unwrap();
                prop_assert_eq!(&decoded, &runs, "encoding {:?}", enc);
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
            let payload = encode_runs(&ids_to_runs(&ids), IdListEncoding::RangesVbDiff).repeat(3);
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

        #[test]
        fn encoded_size_is_positive_and_consistent(ids in sorted_ids(), at_the_top in any::<bool>()) {
            // Anchored at 0, or shifted so the last possible ID is u64::MAX.
            let shift = if at_the_top { u64::MAX - 4_999 } else { 0 };
            let ids: Vec<u64> = ids.iter().map(|id| id + shift).collect();
            let runs = ids_to_runs(&ids);
            for enc in IdListEncoding::ALL {
                let size = encoded_size(&runs, enc);
                prop_assert_eq!(size, encode_runs(&runs, enc).len());
            }
        }
    }
}
