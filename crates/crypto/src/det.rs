//! Deterministic encryption (DET).
//!
//! Seabed falls back to deterministic encryption for dimensions that cannot
//! use SPLASHE — typically columns that participate in joins or whose
//! cardinality is too high to splay (§4.2). Deterministic encryption maps
//! every plaintext to exactly one ciphertext, so the server can perform
//! equality checks and hash-partition joins on ciphertexts; the price is that
//! ciphertext frequencies leak, which is exactly the attack surface SPLASHE
//! removes for the columns it covers.
//!
//! The construction here is a synthetic-IV style scheme: the ciphertext is
//! `tag || body` where `tag = HMAC_k1(plaintext)` truncated to 128 bits and
//! `body = AES-CTR_k2(plaintext)` keyed with the tag as nonce. The tag makes
//! equality checks possible (and is all that fixed-width columns store); the
//! body allows the proxy to recover the plaintext when a query projects the
//! column.

use crate::aes::{Aes128, AesCtr};
use crate::sha256::HmacSha256;

/// A deterministic ciphertext.
#[derive(Clone, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct DetCiphertext {
    /// 128-bit equality tag; two ciphertexts are equal iff their plaintexts are.
    pub tag: [u8; 16],
    /// Plaintext encrypted under AES-CTR with the tag as nonce, so the proxy
    /// can invert the encryption when the column is projected.
    pub body: Vec<u8>,
}

impl DetCiphertext {
    /// Total serialized size in bytes (used for storage accounting).
    pub fn byte_len(&self) -> usize {
        16 + self.body.len()
    }

    /// A compact 64-bit handle derived from the tag, convenient for storing
    /// DET values in fixed-width engine columns and for hash joins.
    pub fn tag64(&self) -> u64 {
        tag64(&self.tag)
    }
}

fn tag64(tag: &[u8; 16]) -> u64 {
    u64::from_be_bytes(tag[..8].try_into().expect("8-byte tag half"))
}

/// Deterministic encryption scheme instance (one per column).
///
/// Both halves of the key are held in expanded form — the MAC key as the two
/// HMAC pad midstates, the encryption key as AES round keys — so a value
/// costs no key setup, and both wipe themselves when the scheme is dropped.
#[derive(Clone)]
pub struct DetScheme {
    mac: HmacSha256,
    cipher: Aes128,
}

impl DetScheme {
    /// Creates a scheme from a 32-byte key (split into MAC and encryption halves).
    pub fn new(key: &[u8; 32]) -> Self {
        DetScheme {
            mac: HmacSha256::new(&key[..16]),
            cipher: Aes128::new(key[16..].try_into().expect("16-byte encryption half")),
        }
    }

    /// The 128-bit equality tag of `plaintext`.
    fn tag_of(&self, plaintext: &[u8]) -> [u8; 16] {
        self.mac.mac(plaintext)[..16].try_into().expect("16-byte tag")
    }

    /// The body keystream for a tag: AES-CTR with the tag's first half as nonce.
    fn keystream(&self, tag: &[u8; 16]) -> AesCtr {
        AesCtr::with_cipher(self.cipher.clone(), tag64(tag))
    }

    /// Encrypts an arbitrary byte string deterministically.
    pub fn encrypt(&self, plaintext: &[u8]) -> DetCiphertext {
        let tag = self.tag_of(plaintext);
        let mut body = plaintext.to_vec();
        self.keystream(&tag).xor_keystream(0, &mut body);
        DetCiphertext { tag, body }
    }

    /// Encrypts a string value.
    pub fn encrypt_str(&self, s: &str) -> DetCiphertext {
        self.encrypt(s.as_bytes())
    }

    /// Encrypts a 64-bit integer value.
    pub fn encrypt_u64(&self, v: u64) -> DetCiphertext {
        self.encrypt(&v.to_be_bytes())
    }

    /// Returns only the 64-bit equality handle for a value — what the server
    /// actually stores for fixed-width DET columns. One HMAC, no AES: equal
    /// to `self.encrypt(plaintext).tag64()` without producing the body.
    pub fn tag64_of(&self, plaintext: &[u8]) -> u64 {
        tag64(&self.tag_of(plaintext))
    }

    /// Decrypts a ciphertext produced by this scheme, verifying the tag.
    ///
    /// Returns `None` if the tag does not match (wrong key or corrupted data).
    pub fn decrypt(&self, c: &DetCiphertext) -> Option<Vec<u8>> {
        let mut plain = c.body.clone();
        self.keystream(&c.tag).xor_keystream(0, &mut plain);
        (self.tag_of(&plain) == c.tag).then_some(plain)
    }

    /// Decrypts to a string.
    pub fn decrypt_str(&self, c: &DetCiphertext) -> Option<String> {
        self.decrypt(c).and_then(|b| String::from_utf8(b).ok())
    }

    /// Decrypts to a 64-bit integer.
    pub fn decrypt_u64(&self, c: &DetCiphertext) -> Option<u64> {
        let b = self.decrypt(c)?;
        if b.len() != 8 {
            return None;
        }
        Some(u64::from_be_bytes(b.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> DetScheme {
        DetScheme::new(&[42u8; 32])
    }

    #[test]
    fn deterministic_same_plaintext_same_ciphertext() {
        let s = scheme();
        assert_eq!(s.encrypt_str("Canada"), s.encrypt_str("Canada"));
        assert_ne!(s.encrypt_str("Canada"), s.encrypt_str("India"));
    }

    #[test]
    fn key_separation() {
        let a = DetScheme::new(&[1u8; 32]);
        let b = DetScheme::new(&[2u8; 32]);
        assert_ne!(a.encrypt_str("USA").tag, b.encrypt_str("USA").tag);
    }

    #[test]
    fn roundtrip_strings() {
        let s = scheme();
        for v in ["", "x", "Canada", "a somewhat longer country name ✓"] {
            let c = s.encrypt_str(v);
            assert_eq!(s.decrypt_str(&c).as_deref(), Some(v));
        }
    }

    #[test]
    fn roundtrip_integers() {
        let s = scheme();
        for v in [0u64, 1, u64::MAX, 1_234_567_890] {
            let c = s.encrypt_u64(v);
            assert_eq!(s.decrypt_u64(&c), Some(v));
        }
    }

    #[test]
    fn wrong_key_fails_closed() {
        let a = DetScheme::new(&[1u8; 32]);
        let b = DetScheme::new(&[2u8; 32]);
        let c = a.encrypt_str("secret");
        assert!(b.decrypt(&c).is_none());
    }

    #[test]
    fn tag64_supports_equality_checks() {
        let s = scheme();
        assert_eq!(s.tag64_of(b"USA"), s.tag64_of(b"USA"));
        assert_ne!(s.tag64_of(b"USA"), s.tag64_of(b"Iraq"));
    }

    /// The tag-only path is the full encryption's tag, and the scheme is the
    /// documented construction over the raw key halves.
    #[test]
    fn tag_only_path_matches_full_encryption_and_the_construction() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 1) as u8);
        let s = DetScheme::new(&key);
        for len in [0usize, 1, 15, 16, 17, 55, 56, 64, 130, 300] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 3) as u8).collect();
            let c = s.encrypt(&plaintext);
            assert_eq!(s.tag64_of(&plaintext), c.tag64(), "len={len}");
            let mac = crate::sha256::hmac_sha256(&key[..16], &plaintext);
            assert_eq!(c.tag, mac[..16]);
            let mut body = plaintext.clone();
            AesCtr::new(key[16..].try_into().unwrap(), c.tag64()).xor_keystream(0, &mut body);
            assert_eq!(c.body, body);
        }
    }

    #[test]
    fn ciphertext_reveals_equality_only_not_order() {
        // Frequencies/equality are leaked by design; check that equal values
        // collide and nothing about ordering is preserved in the tag.
        let s = scheme();
        let tags: Vec<u64> = (0..20).map(|v| s.encrypt_u64(v).tag64()).collect();
        // With 20 values the probability that a non-order-preserving tag
        // assignment is monotone by chance is 1/20! — this guards against
        // accidentally using an order-preserving construction.
        assert!(
            tags.windows(2).any(|w| w[0] > w[1]),
            "tags must not preserve plaintext order: {tags:?}"
        );
        assert_eq!(s.encrypt_u64(0).tag64(), tags[0]);
    }
}
