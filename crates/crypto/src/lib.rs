//! # seabed-crypto
//!
//! Cryptographic primitives for the Seabed encrypted-analytics system
//! (Papadimitriou et al., OSDI 2016), implemented from scratch:
//!
//! * [`aes`] — AES-128/256 and CTR mode (the PRF backbone): AES-NI where the
//!   CPU has it, a portable software kernel elsewhere;
//! * [`sha256`] — SHA-256, HMAC and key derivation;
//! * [`prf`] — the keyed pseudo-random function ASHE and ORE are built on;
//! * [`det`] — deterministic encryption for joins and non-splayed dimensions;
//! * [`ore`] — the Chenette et al. order-revealing encryption used for range
//!   predicates.
//!
//! The ASHE scheme itself lives in the `seabed-ashe` crate and SPLASHE in
//! `seabed-splashe`; both consume the primitives defined here. The paper's
//! Paillier baseline and its big-integer arithmetic are not here: nothing the
//! proxy runs uses them, so they live with the experiments in `seabed-bench`.

#![warn(missing_docs)]
// `unsafe` is confined to `aes::hw` (the AES-NI kernel and the volatile key
// wipe), which opts back in; everything else in the crate is checked safe.
#![deny(unsafe_code, unsafe_op_in_unsafe_fn)]

pub mod aes;
pub mod det;
pub mod ore;
pub mod prf;
pub mod sha256;

pub use aes::{aes_backend, hw::wipe, Aes128, Aes256, AesCtr};
pub use det::{DetCiphertext, DetScheme};
pub use ore::{try_compare_symbols, OreCiphertext, OreCursor, OreScheme};
pub use prf::{AesPrf, Prf};
pub use sha256::{derive_key_128, derive_key_256, hmac_sha256, HmacSha256, Sha256};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
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
        fn prf_is_deterministic(key in any::<[u8; 16]>(), id in any::<u64>()) {
            let prf = AesPrf::new(&key);
            prop_assert_eq!(prf.eval(id, 0), prf.eval(id, 0));
        }
    }
}
