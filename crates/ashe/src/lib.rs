//! # seabed-ashe
//!
//! ASHE — the Additively Symmetric Homomorphic Encryption scheme at the heart
//! of Seabed (Papadimitriou et al., OSDI 2016, §3.1–3.2).
//!
//! ASHE replaces the Paillier cryptosystem that CryptDB/Monomi use for
//! encrypted aggregation. Because the data producer and the analyst share a
//! secret key in the BI setting, symmetric masking is sufficient: each value
//! is blinded with the difference of two PRF outputs keyed by the row
//! identifier, addition of ciphertexts is plain modular addition plus a union
//! of identifier sets, and the masks of contiguous identifier ranges telescope
//! so that decrypting the sum of a billion consecutive rows costs just two PRF
//! evaluations.
//!
//! * [`scheme`] — `Enc`/`Dec`/`⊕` and the telescoping decryption;
//! * [`idset`] — run-compressed identifier sets and their serialization;
//! * [`batch`] — bulk column encryption and the
//!   worker-side aggregation loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod idset;
pub mod scheme;

pub use batch::{aggregate_where, decrypt_column, encrypt_column, encrypt_column_scalar, EncryptedColumn};
pub use idset::IdSet;
pub use scheme::{AsheCiphertext, AsheScheme};
/// The run type [`IdSet`] is built from and spelled in.
pub use seabed_encoding::Run;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_any_value_any_id(key in any::<[u8; 16]>(), m in any::<u64>(), id in any::<u64>()) {
            let s = AsheScheme::new(&key);
            prop_assert_eq!(s.decrypt(&s.encrypt(m, id)), m);
        }

        #[test]
        fn homomorphic_sum_matches_plain_sum(
            key in any::<[u8; 16]>(),
            values in proptest::collection::vec(any::<u64>(), 1..200),
            start_id in 0u64..1_000_000,
        ) {
            let s = AsheScheme::new(&key);
            let cts: Vec<AsheCiphertext> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| s.encrypt(v, start_id + i as u64))
                .collect();
            let sum = s.sum(&cts);
            let expected = values.iter().fold(0u64, |a, &b| a.wrapping_add(b));
            prop_assert_eq!(s.decrypt(&sum), expected);
            // Consecutive IDs collapse to one run -> constant decryption cost.
            prop_assert_eq!(sum.ids.run_count(), 1);
        }

        #[test]
        fn scattered_sum_matches_plain_sum(
            key in any::<[u8; 16]>(),
            rows in proptest::collection::btree_map(0u64..10_000, any::<u32>(), 1..100),
        ) {
            let s = AsheScheme::new(&key);
            let sum = s.sum(
                rows.iter()
                    .map(|(&id, &v)| s.encrypt(v as u64, id))
                    .collect::<Vec<_>>()
                    .iter(),
            );
            let expected: u64 = rows.values().map(|&v| v as u64).sum();
            prop_assert_eq!(s.decrypt(&sum), expected);
            prop_assert_eq!(sum.row_count(), rows.len() as u64);
        }

        #[test]
        fn addition_is_commutative_and_associative(
            key in any::<[u8; 16]>(),
            a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
        ) {
            let s = AsheScheme::new(&key);
            let (ca, cb, cc) = (s.encrypt(a, 1), s.encrypt(b, 2), s.encrypt(c, 3));
            let left = s.add(&s.add(&ca, &cb), &cc);
            let right = s.add(&ca, &s.add(&cb, &cc));
            prop_assert_eq!(s.decrypt(&left), s.decrypt(&right));
            let ab = s.add(&ca, &cb);
            let ba = s.add(&cb, &ca);
            prop_assert_eq!(s.decrypt(&ab), s.decrypt(&ba));
        }

        #[test]
        fn idset_union_preserves_count(
            a in proptest::collection::btree_set(0u64..10_000, 0..200),
            b in proptest::collection::btree_set(10_000u64..20_000, 0..200),
        ) {
            let sa = IdSet::from_sorted_ids(&a.iter().copied().collect::<Vec<_>>());
            let sb = IdSet::from_sorted_ids(&b.iter().copied().collect::<Vec<_>>());
            let u = sa.union(&sb);
            prop_assert_eq!(u.count(), (a.len() + b.len()) as u64);
            for id in a.iter().chain(b.iter()) {
                prop_assert!(u.contains(*id));
            }
        }

        #[test]
        fn idset_encode_roundtrip_under_all_encodings(
            ids in proptest::collection::btree_set(0u64..50_000, 0..300),
        ) {
            let set = IdSet::from_sorted_ids(&ids.iter().copied().collect::<Vec<_>>());
            for enc in seabed_encoding::IdListEncoding::ALL {
                let data = set.encode(enc);
                let back = IdSet::decode(&data, enc).unwrap();
                prop_assert_eq!(&back, &set, "encoding {:?}", enc);
            }
        }

        #[test]
        fn telescoped_equals_naive_decryption(
            key in any::<[u8; 16]>(),
            ids in proptest::collection::btree_set(0u64..2_000, 1..100),
        ) {
            let s = AsheScheme::new(&key);
            let sum = s.sum(
                ids.iter().map(|&id| s.encrypt(id * 7, id)).collect::<Vec<_>>().iter(),
            );
            prop_assert_eq!(s.decrypt(&sum), s.decrypt_without_telescoping(&sum));
        }
    }
}
