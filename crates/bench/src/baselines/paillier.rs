//! The Paillier cryptosystem — the asymmetric additively homomorphic baseline.
//!
//! CryptDB and Monomi perform encrypted aggregation with Paillier; the Seabed
//! paper's entire evaluation contrasts ASHE against it (Table 1, Figures 6, 7,
//! 9 and 10). This module implements textbook Paillier:
//!
//! * keygen: `n = p·q`, `λ = lcm(p-1, q-1)`, generator `g = n + 1`
//! * encryption: `c = g^m · r^n mod n²`
//! * decryption: `m = L(c^λ mod n²) · µ mod n` with `L(x) = (x-1)/n`
//! * homomorphic addition: `c1 ⊕ c2 = c1 · c2 mod n²`
//!
//! The key size is configurable. The paper's prototype uses 2048-bit keys;
//! because this repository's big-integer arithmetic is a portable schoolbook
//! implementation, the full-pipeline benchmarks default to smaller keys and
//! the Table 1 harness additionally reports per-operation costs at 2048 bits.

use super::bigint::BigUint;
use super::prime::generate_prime_pair;
use rand::Rng;

/// Paillier public key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierPublicKey {
    /// The modulus `n = p·q`.
    pub n: BigUint,
    /// `n²`, cached because every operation reduces modulo it.
    pub n_squared: BigUint,
    /// The generator `g = n + 1`.
    pub g: BigUint,
}

/// Paillier private key.
#[derive(Clone, Debug)]
pub struct PaillierPrivateKey {
    /// Carmichael function `λ = lcm(p-1, q-1)`.
    pub lambda: BigUint,
    /// Precomputed `µ = (L(g^λ mod n²))^-1 mod n`.
    pub mu: BigUint,
    /// Copy of the public key for decryption-side arithmetic.
    pub public: PaillierPublicKey,
}

/// A Paillier ciphertext (an element of `Z_{n²}^*`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PaillierCiphertext(pub BigUint);

impl PaillierCiphertext {
    /// Serialized length in bytes (used for the storage-overhead accounting in
    /// Table 5: a 2048-bit key yields 512-byte ciphertexts).
    pub fn byte_len(&self) -> usize {
        self.0.to_bytes_be().len()
    }
}

/// A Paillier keypair.
#[derive(Clone, Debug)]
pub struct PaillierKeypair {
    /// Public half.
    pub public: PaillierPublicKey,
    /// Private half.
    pub private: PaillierPrivateKey,
}

impl PaillierKeypair {
    /// Generates a keypair whose modulus `n` has roughly `modulus_bits` bits
    /// (each prime has `modulus_bits / 2` bits).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 32, "Paillier modulus too small");
        let (p, q) = generate_prime_pair(rng, modulus_bits / 2);
        Self::from_primes(&p, &q)
    }

    /// Builds a keypair from two primes (exposed for deterministic tests).
    pub fn from_primes(p: &BigUint, q: &BigUint) -> Self {
        let one = BigUint::one();
        let n = p.mul(q);
        let n_squared = n.mul(&n);
        let g = n.add(&one);
        let lambda = p.sub(&one).lcm(&q.sub(&one));
        let public = PaillierPublicKey {
            n: n.clone(),
            n_squared: n_squared.clone(),
            g: g.clone(),
        };
        // µ = (L(g^λ mod n²))^-1 mod n
        let x = g.mod_pow(&lambda, &n_squared);
        let l = l_function(&x, &n);
        let mu = l
            .mod_inverse(&n)
            .expect("L(g^lambda) must be invertible for valid Paillier primes");
        let private = PaillierPrivateKey {
            lambda,
            mu,
            public: public.clone(),
        };
        PaillierKeypair { public, private }
    }
}

/// The `L(x) = (x - 1) / n` function from the Paillier decryption equation.
fn l_function(x: &BigUint, n: &BigUint) -> BigUint {
    x.sub(&BigUint::one()).divrem(n).0
}

impl PaillierPublicKey {
    /// Encrypts a plaintext in `Z_n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> PaillierCiphertext {
        let m = m.rem(&self.n);
        // Random r in [1, n) with gcd(r, n) = 1; for a valid modulus a random
        // value below n is coprime except with negligible probability, so a
        // small retry loop suffices.
        let r = loop {
            let candidate = BigUint::random_below(rng, &self.n);
            if !candidate.is_zero() && candidate.gcd(&self.n).is_one() {
                break candidate;
            }
        };
        self.encrypt_with_randomness(&m, &r)
    }

    /// Encrypts a `u64` plaintext.
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, rng: &mut R, m: u64) -> PaillierCiphertext {
        self.encrypt(rng, &BigUint::from_u64(m))
    }

    /// Encryption with caller-provided randomness (deterministic; used by
    /// tests and by the benchmark harness to factor out RNG cost).
    pub fn encrypt_with_randomness(&self, m: &BigUint, r: &BigUint) -> PaillierCiphertext {
        // g = n+1 allows the optimisation g^m = 1 + n·m (mod n²).
        let g_m = BigUint::one().add(&self.n.mul(&m.rem(&self.n))).rem(&self.n_squared);
        let r_n = r.mod_pow(&self.n, &self.n_squared);
        PaillierCiphertext(g_m.mul_mod(&r_n, &self.n_squared))
    }

    /// Homomorphic addition of two ciphertexts.
    pub fn add(&self, a: &PaillierCiphertext, b: &PaillierCiphertext) -> PaillierCiphertext {
        PaillierCiphertext(a.0.mul_mod(&b.0, &self.n_squared))
    }

    /// The ciphertext encrypting zero with randomness 1 — the identity of the
    /// homomorphic addition, useful as a fold seed.
    pub fn zero_ciphertext(&self) -> PaillierCiphertext {
        PaillierCiphertext(BigUint::one())
    }
}

impl PaillierPrivateKey {
    /// Decrypts a ciphertext back to an element of `Z_n`.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        let pk = &self.public;
        let x = c.0.mod_pow(&self.lambda, &pk.n_squared);
        l_function(&x, &pk.n).mul_mod(&self.mu, &pk.n)
    }

    /// Decrypts to a `u64` (truncating; callers aggregating 64-bit measures
    /// stay far below the modulus).
    pub fn decrypt_u64(&self, c: &PaillierCiphertext) -> u64 {
        self.decrypt(c).to_u64_truncated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_keypair() -> PaillierKeypair {
        // Fixed primes keep the unit tests fast and deterministic.
        let p = BigUint::from_u64(1_000_000_007);
        let q = BigUint::from_u64(998_244_353);
        PaillierKeypair::from_primes(&p, &q)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = small_keypair();
        let mut rng = rand::rng();
        for m in [0u64, 1, 42, 1_000_000, 123_456_789] {
            let c = kp.public.encrypt_u64(&mut rng, m);
            assert_eq!(kp.private.decrypt_u64(&c), m);
        }
    }

    #[test]
    fn encryption_is_randomized() {
        let kp = small_keypair();
        let mut rng = rand::rng();
        let c1 = kp.public.encrypt_u64(&mut rng, 7);
        let c2 = kp.public.encrypt_u64(&mut rng, 7);
        assert_ne!(c1, c2, "two encryptions of the same value must differ");
        assert_eq!(kp.private.decrypt_u64(&c1), kp.private.decrypt_u64(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let kp = small_keypair();
        let mut rng = rand::rng();
        let a = kp.public.encrypt_u64(&mut rng, 1234);
        let b = kp.public.encrypt_u64(&mut rng, 8766);
        let sum = kp.public.add(&a, &b);
        assert_eq!(kp.private.decrypt_u64(&sum), 10_000);
    }

    #[test]
    fn homomorphic_sum_of_many() {
        use rand::{Rng, SeedableRng};
        let kp = small_keypair();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut lists: Vec<Vec<u64>> = vec![(1..=50).collect()];
        for _ in 0..32 {
            let len = rng.random_range(1..12usize);
            lists.push((0..len).map(|_| rng.random_range(0..1_000_000)).collect());
        }
        for values in lists {
            let mut acc = kp.public.zero_ciphertext();
            for &v in &values {
                let c = kp.public.encrypt_u64(&mut rng, v);
                acc = kp.public.add(&acc, &c);
            }
            assert_eq!(kp.private.decrypt_u64(&acc), values.iter().sum::<u64>());
        }
    }

    #[test]
    fn generated_keypair_roundtrips() {
        let mut rng = rand::rng();
        let kp = PaillierKeypair::generate(&mut rng, 128);
        let c = kp.public.encrypt_u64(&mut rng, 987_654_321);
        assert_eq!(kp.private.decrypt_u64(&c), 987_654_321);
    }

    #[test]
    fn values_wrap_modulo_n() {
        let kp = small_keypair();
        let mut rng = rand::rng();
        // m >= n should be reduced mod n on encryption.
        let n_plus_5 = kp.public.n.add(&BigUint::from_u64(5));
        let c = kp.public.encrypt(&mut rng, &n_plus_5);
        assert_eq!(kp.private.decrypt(&c), BigUint::from_u64(5));
    }

    #[test]
    fn ciphertext_size_tracks_modulus() {
        let kp = small_keypair();
        let mut rng = rand::rng();
        let c = kp.public.encrypt_u64(&mut rng, 1);
        // ciphertext lives in Z_{n^2}; with two ~30-bit primes n^2 is ~120 bits = 15 bytes.
        assert!(c.byte_len() <= kp.public.n_squared.to_bytes_be().len());
        assert!(c.byte_len() >= kp.public.n.to_bytes_be().len());
    }
}
