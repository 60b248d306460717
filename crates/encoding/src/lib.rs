//! # seabed-encoding
//!
//! The containers Seabed's ASHE ID lists travel in.
//!
//! ASHE ciphertexts carry the set of row identifiers that were aggregated
//! into them; keeping those lists small is what makes ASHE practical at
//! billion-row scale (§4.5 of the paper, Table 3, Figure 8). This crate
//! provides:
//!
//! * [`varint`] — variable-byte integer encoding;
//! * [`idlist`] — four containers over runs of identifiers (ranges,
//!   per-ID deltas, a bitmap over the list's span, Elias–Fano), each sized
//!   in closed form, and the rule that sends every list in the smallest of
//!   them.
//!
//! The paper's DEFLATE pass and its roaring-bitmap ablation are not here: no
//! list is smaller under them than in its chosen container but the paper's
//! own figures, so they live in the paper harness, `seabed-bench`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod idlist;
pub mod varint;

pub use idlist::{
    append_encoded, append_offset_runs, decode_runs, encode_runs, encoded_size, ids_to_runs, runs_to_ids,
    smallest_encoding, IdListEncoding, Run,
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

        /// Over every container: a list decodes to what was encoded and is
        /// exactly its closed-form size; and bytes off the wire — arbitrary,
        /// or an honest encoding with one byte changed — decode to a
        /// canonical list or not at all.
        #[test]
        fn every_container_roundtrips_at_its_size_and_decodes_only_canonical_lists(
            ids in sorted_ids(),
            at_the_top in any::<bool>(),
            noise in proptest::collection::vec(any::<u8>(), 0..48),
            flip_at in any::<usize>(),
            flip_mask in 1u8..255,
        ) {
            // Anchored at 0, or shifted so the last possible ID is u64::MAX.
            let shift = if at_the_top { u64::MAX - 4_999 } else { 0 };
            let ids: Vec<u64> = ids.iter().map(|id| id + shift).collect();
            let runs = ids_to_runs(&ids);
            prop_assert_eq!(&runs_to_ids(&runs), &ids);
            for enc in IdListEncoding::ALL {
                let data = encode_runs(&runs, enc);
                prop_assert_eq!(encoded_size(&runs, enc), data.len());
                prop_assert_eq!(decode_runs(&data, enc), Some(runs.clone()), "encoding {:?}", enc);
                let mut flipped = data.clone();
                if let Some(byte) = flipped.get_mut(flip_at % data.len().max(1)) {
                    *byte ^= flip_mask;
                }
                for bytes in [&noise, &flipped] {
                    if let Some(decoded) = decode_runs(bytes, enc) {
                        prop_assert!(
                            decoded.windows(2).all(|w| w[0].end < w[1].start && w[1].start - w[0].end > 1),
                            "{:?} of {:?}: {:?}", enc, bytes, decoded
                        );
                        prop_assert_eq!(decode_runs(&encode_runs(&decoded, enc), enc), Some(decoded));
                    }
                }
            }
        }
    }
}
