//! # seabed-crypto
//!
//! Cryptographic primitives for the Seabed encrypted-analytics system
//! (Papadimitriou et al., OSDI 2016), implemented from scratch:
//!
//! * [`aes`] — AES-128/256 and CTR mode (the PRF backbone): AES-NI where the
//!   CPU has it, a portable software kernel elsewhere;
//! * [`sha256`] — SHA-256, HMAC and key derivation;
//! * [`prf`] — the keyed pseudo-random functions ASHE and ORE are built on;
//! * [`bigint`] / [`prime`] — arbitrary-precision arithmetic and prime
//!   generation backing Paillier;
//! * [`paillier`] — the asymmetric additively homomorphic baseline used by
//!   CryptDB/Monomi and by every comparison in the paper's evaluation;
//! * [`det`] — deterministic encryption for joins and non-splayed dimensions;
//! * [`ore`] — the Chenette et al. order-revealing encryption used for range
//!   predicates.
//!
//! The ASHE scheme itself lives in the `seabed-ashe` crate and SPLASHE in
//! `seabed-splashe`; both consume the primitives defined here.

#![warn(missing_docs)]
// `unsafe` is confined to `aes::hw` (the AES-NI kernel and the volatile key
// wipe), which opts back in; everything else in the crate is checked safe.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

pub mod aes;
pub mod bigint;
pub mod det;
pub mod ore;
pub mod paillier;
pub mod prf;
pub mod prime;
pub mod sha256;

pub use aes::{aes_backend, Aes128, Aes256, AesCtr};
pub use bigint::fixed::FixedUint;
pub use bigint::BigUint;
pub use det::{DetCiphertext, DetScheme};
pub use ore::{try_compare_symbols, OreCiphertext, OreCursor, OreScheme};
pub use paillier::{PaillierCiphertext, PaillierKeypair, PaillierPrivateKey, PaillierPublicKey};
pub use prf::{AesPrf, AnyPrf, HashPrf, Prf, PrfKind};
pub use sha256::{derive_key_128, derive_key_256, hmac_sha256, HmacSha256, Sha256};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn bigint_add_sub_roundtrip(a in any::<u128>(), b in any::<u128>()) {
            let big_a = BigUint::from_u128(a);
            let big_b = BigUint::from_u128(b);
            let sum = big_a.add(&big_b);
            prop_assert_eq!(sum.sub(&big_b), big_a);
        }

        #[test]
        fn bigint_mul_divrem_roundtrip(a in any::<u128>(), b in 1u128..) {
            let big_a = BigUint::from_u128(a);
            let big_b = BigUint::from_u128(b);
            let (q, r) = big_a.divrem(&big_b);
            prop_assert_eq!(q.mul(&big_b).add(&r), big_a);
            prop_assert!(r < big_b);
        }

        #[test]
        fn bigint_matches_native_u64_arithmetic(a in any::<u64>(), b in any::<u64>()) {
            let (big_a, big_b) = (BigUint::from_u64(a), BigUint::from_u64(b));
            prop_assert_eq!(big_a.add(&big_b).to_u128_truncated(), a as u128 + b as u128);
            prop_assert_eq!(big_a.mul(&big_b).to_u128_truncated(), a as u128 * b as u128);
            if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                prop_assert_eq!(big_a.divrem(&big_b).0.to_u64_truncated(), q);
                prop_assert_eq!(big_a.divrem(&big_b).1.to_u64_truncated(), r);
            }
        }

        #[test]
        fn bigint_hex_roundtrip(a in any::<u128>()) {
            let big = BigUint::from_u128(a);
            prop_assert_eq!(BigUint::from_hex(&big.to_hex()).unwrap(), big);
        }

        #[test]
        fn bigint_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let big = BigUint::from_bytes_be(&bytes);
            // Leading zeros are not preserved, so compare by value.
            let roundtripped = BigUint::from_bytes_be(&big.to_bytes_be());
            prop_assert_eq!(roundtripped, big);
        }

        #[test]
        fn mod_pow_matches_naive(base in 0u64..10_000, exp in 0u64..64, modulus in 2u64..100_000) {
            let expected = {
                let mut acc: u128 = 1;
                for _ in 0..exp {
                    acc = acc * base as u128 % modulus as u128;
                }
                acc as u64
            };
            let got = BigUint::from_u64(base)
                .mod_pow(&BigUint::from_u64(exp), &BigUint::from_u64(modulus));
            prop_assert_eq!(got.to_u64_truncated(), expected);
        }

        #[test]
        fn mod_inverse_is_an_inverse(a in 1u64..1_000_000, m in 2u64..1_000_000) {
            let big_a = BigUint::from_u64(a);
            let big_m = BigUint::from_u64(m);
            if let Some(inv) = big_a.mod_inverse(&big_m) {
                prop_assert_eq!(big_a.mul_mod(&inv, &big_m), BigUint::one());
            } else {
                // No inverse implies a nontrivial gcd.
                prop_assert!(!big_a.gcd(&big_m).is_one());
            }
        }

        #[test]
        fn det_roundtrip_arbitrary_bytes(key in any::<[u8; 32]>(), data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let scheme = DetScheme::new(&key);
            let ct = scheme.encrypt(&data);
            prop_assert_eq!(scheme.decrypt(&ct), Some(data.clone()));
            // Determinism.
            prop_assert_eq!(scheme.encrypt(&data), ct);
        }

        #[test]
        fn ore_preserves_order(key in any::<[u8; 16]>(), a in any::<u64>(), b in any::<u64>()) {
            let scheme = OreScheme::new(&key);
            prop_assert_eq!(scheme.encrypt(a).compare(&scheme.encrypt(b)), a.cmp(&b));
        }

        #[test]
        fn aes_ctr_xor_is_involution(key in any::<[u8; 16]>(), nonce in any::<u64>(), data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let ctr = AesCtr::new(&key, nonce);
            let mut buf = data.clone();
            ctr.xor_keystream(0, &mut buf);
            ctr.xor_keystream(0, &mut buf);
            prop_assert_eq!(buf, data);
        }

        #[test]
        fn paillier_sum_matches_plain_sum(values in proptest::collection::vec(0u64..1_000_000, 1..12)) {
            let p = BigUint::from_u64(1_000_000_007);
            let q = BigUint::from_u64(998_244_353);
            let kp = PaillierKeypair::from_primes(&p, &q);
            let mut rng = rand::rng();
            let mut acc = kp.public.zero_ciphertext();
            for &v in &values {
                acc = kp.public.add(&acc, &kp.public.encrypt_u64(&mut rng, v));
            }
            prop_assert_eq!(kp.private.decrypt_u64(&acc), values.iter().sum::<u64>());
        }

        #[test]
        fn prf_kinds_are_deterministic(key in any::<[u8; 16]>(), id in any::<u64>()) {
            for kind in [PrfKind::Aes, PrfKind::Hash] {
                let prf = AnyPrf::new(kind, &key);
                prop_assert_eq!(prf.eval(id, 0), prf.eval(id, 0));
            }
        }
    }
}
