//! The Paillier cryptosystem — the asymmetric additively homomorphic baseline.
//!
//! CryptDB and Monomi perform encrypted aggregation with Paillier; the Seabed
//! paper's entire evaluation contrasts ASHE against it (Table 1, Figures 6, 7,
//! 9 and 10). This module implements textbook Paillier:
//!
//! * keygen: `n = p·q`, `λ = lcm(p-1, q-1)`, generator `g = n + 1`
//! * encryption: `c = g^m · r^n mod n²`
//! * decryption by the Chinese remainder theorem (Paillier 1999, §7):
//!   `m_p = L_p(c^(p-1) mod p²) · h_p mod p` with `L_p(x) = (x-1)/p` and
//!   `h_p = L_p(g^(p-1) mod p²)^-1 mod p`, the same modulo `q`, and `m` the
//!   one residue modulo `n` that is `m_p` modulo `p` and `m_q` modulo `q` —
//!   the textbook `L(c^λ mod n²) · µ mod n`, computed as two exponentiations
//!   of half the exponent modulo numbers of half the size
//! * homomorphic addition: `c1 ⊕ c2 = c1 · c2 mod n²`
//!
//! No figure runs a Paillier pipeline. The harness costs Paillier at the
//! paper's 2048-bit modulus ([`PAILLIER_BITS`]) from one measurement of its
//! three operations, [`PaillierCost`]: Table 1 reports it, and every
//! figure's Paillier row is its [`PaillierCost::estimate`] on the product's
//! own selection. [`PaillierCost::pipeline_sum`] runs the real aggregation
//! once to check that estimate. Tests use small moduli, where the same
//! functions run in milliseconds.

use super::bigint::BigUint;
use super::prime::generate_prime_pair;
use crate::metrics::{Spread, Timing};
use rand::Rng;
use std::hint::black_box;
use std::time::Duration;

/// The modulus every Paillier number of the harness is costed at: the
/// paper's (Table 1).
pub const PAILLIER_BITS: usize = 2048;

/// Keys a [`PaillierCost`] is measured over. A key's costs vary with its
/// modulus (a loop over the same ciphertexts differed 1.6× between two
/// 128-bit keys), so the key with the median addition is kept.
const KEYS: usize = 3;

/// Additions timed together in one run: one alone is near the clock's grain
/// at small moduli.
const ADDS_PER_RUN: u32 = 200;

/// Pre-encrypted ciphertexts [`PaillierCost::pipeline_sum`] cycles through.
const POOL: usize = 4;

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

/// Paillier private key: the factors of `n` and what decryption by the
/// Chinese remainder theorem precomputes from them.
#[derive(Clone, Debug)]
pub struct PaillierPrivateKey {
    /// Decryption modulo `p²`.
    p: PrimeHalf,
    /// Decryption modulo `q²`.
    q: PrimeHalf,
    /// `q^-1 mod p`, which recombines the two halves.
    q_inv_p: BigUint,
    /// Copy of the public key for decryption-side arithmetic.
    pub public: PaillierPublicKey,
}

/// One prime's half of a CRT decryption.
#[derive(Clone, Debug)]
struct PrimeHalf {
    /// The prime `p`.
    prime: BigUint,
    /// `p²`, the modulus of the half's exponentiation.
    squared: BigUint,
    /// `p - 1`, its exponent.
    exponent: BigUint,
    /// `h_p = L_p(g^(p-1) mod p²)^-1 mod p`.
    h: BigUint,
}

impl PrimeHalf {
    fn new(prime: &BigUint, g: &BigUint) -> PrimeHalf {
        let squared = prime.mul(prime);
        let exponent = prime.sub(&BigUint::one());
        let h = l_function(&g.mod_pow(&exponent, &squared), prime)
            .mod_inverse(prime)
            .expect("L_p(g^(p-1)) must be invertible for valid Paillier primes");
        PrimeHalf {
            prime: prime.clone(),
            squared,
            exponent,
            h,
        }
    }

    /// `m mod p` for the ciphertext `c`.
    fn decrypt(&self, c: &BigUint) -> BigUint {
        let x = c.rem(&self.squared).mod_pow(&self.exponent, &self.squared);
        l_function(&x, &self.prime).mul_mod(&self.h, &self.prime)
    }
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

    /// Builds a keypair from two distinct primes (exposed for deterministic
    /// tests).
    pub fn from_primes(p: &BigUint, q: &BigUint) -> Self {
        let n = p.mul(q);
        let public = PaillierPublicKey {
            n_squared: n.mul(&n),
            g: n.add(&BigUint::one()),
            n,
        };
        let private = PaillierPrivateKey {
            p: PrimeHalf::new(p, &public.g),
            q: PrimeHalf::new(q, &public.g),
            q_inv_p: q.rem(p).mod_inverse(p).expect("distinct primes are coprime"),
            public: public.clone(),
        };
        PaillierKeypair { public, private }
    }
}

/// The `L(x) = (x - 1) / d` function from the Paillier decryption equation.
fn l_function(x: &BigUint, d: &BigUint) -> BigUint {
    x.sub(&BigUint::one()).divrem(d).0
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
    /// Decrypts a ciphertext back to an element of `Z_n`, by the Chinese
    /// remainder theorem: `m = m_q + q · ((m_p - m_q) · q^-1 mod p)`.
    pub fn decrypt(&self, c: &PaillierCiphertext) -> BigUint {
        let (p, q) = (&self.p.prime, &self.q.prime);
        let (m_p, m_q) = (self.p.decrypt(&c.0), self.q.decrypt(&c.0));
        let difference = m_p.add(p).sub(&m_q.rem(p)).rem(p);
        m_q.add(&q.mul(&difference.mul_mod(&self.q_inv_p, p)))
    }

    /// Decrypts to a `u64` (truncating; callers aggregating 64-bit measures
    /// stay far below the modulus).
    pub fn decrypt_u64(&self, c: &PaillierCiphertext) -> u64 {
        self.decrypt(c).to_u64_truncated()
    }
}

/// What Paillier's operations cost at one modulus, measured once: the model
/// every Paillier number of the harness is built from. Each operation is a
/// [`Spread`] of [`crate::K_RUNS`] runs after a warm-up.
#[derive(Clone, Debug)]
pub struct PaillierCost {
    /// The modulus size in bits.
    pub bits: usize,
    /// One encryption.
    pub encrypt: Spread,
    /// One homomorphic addition: a product modulo `n²`.
    pub add: Spread,
    /// One decryption.
    pub decrypt: Spread,
    /// The key measured, which [`PaillierCost::pipeline_sum`] sums under.
    keypair: PaillierKeypair,
}

impl PaillierCost {
    /// Generates three keys of `bits` bits, times each key's encryption,
    /// addition and decryption, and returns the numbers of the key whose
    /// addition is the median: the operation every server estimate scales.
    pub fn measure<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> PaillierCost {
        let mut costs: Vec<PaillierCost> = (0..KEYS)
            .map(|_| {
                let keypair = PaillierKeypair::generate(rng, bits);
                PaillierCost::of_key(rng, keypair, bits)
            })
            .collect();
        costs.sort_by_key(|cost| cost.add.median);
        costs.swap_remove(KEYS / 2)
    }

    fn of_key<R: Rng + ?Sized>(rng: &mut R, keypair: PaillierKeypair, bits: usize) -> PaillierCost {
        let (public, private) = (&keypair.public, &keypair.private);
        let m = BigUint::from_u64(123_456_789);
        let encrypt = Spread::time(|| {
            black_box(public.encrypt(rng, &m));
        });
        let (a, b) = (public.encrypt(rng, &m), public.encrypt(rng, &m));
        let add = Spread::time(|| {
            for _ in 0..ADDS_PER_RUN {
                black_box(public.add(&a, &b));
            }
        })
        .map(|run| run / ADDS_PER_RUN);
        let decrypt = Spread::time(|| {
            black_box(private.decrypt(&a));
        });
        PaillierCost {
            bits,
            encrypt,
            add,
            decrypt,
            keypair,
        }
    }

    /// Bytes of one ciphertext: an element of `Z_{n²}`.
    pub fn ciphertext_bytes(&self) -> usize {
        self.bits / 4
    }

    /// Paillier in Seabed's place, a pure function of this cost: the server
    /// does Seabed's work plus `adds` additions (one per row a sum reads),
    /// and the client does `decryptions` decryptions (one per sum of each
    /// result group) in place of Seabed's. Quartiles add quartile to
    /// quartile.
    pub fn estimate(&self, seabed: &Timing, adds: u64, decryptions: u64) -> Timing {
        let times = |op: Spread, n: u64| op.map(|d| d.mul_f64(n as f64));
        let server = seabed.server.plus(times(self.add, adds));
        let client = times(self.decrypt, decryptions);
        Timing {
            server,
            client,
            total: server.plus(client),
        }
    }

    /// Paillier's real aggregation path, timed: `rows` additions under the
    /// measured key, cycling a pool of four pre-encrypted ciphertexts (a
    /// product's cost modulo `n²` does not depend on the plaintext), then one
    /// decryption. Beside it, [`PaillierCost::estimate`]'s prediction of the
    /// same work.
    pub fn pipeline_sum<R: Rng + ?Sized>(&self, rng: &mut R, rows: u64) -> PipelineSum {
        let (public, private) = (&self.keypair.public, &self.keypair.private);
        let values: Vec<u64> = (0..POOL).map(|_| rng.random_range(0..1_000_000)).collect();
        let pool: Vec<PaillierCiphertext> = values.iter().map(|&v| public.encrypt_u64(rng, v)).collect();
        let mut sum = 0;
        let measured = Spread::time(|| {
            let mut acc = public.zero_ciphertext();
            for row in 0..rows as usize {
                acc = public.add(&acc, &pool[row % POOL]);
            }
            sum = private.decrypt_u64(&acc);
        });
        PipelineSum {
            rows,
            sum,
            expected: (0..rows as usize).map(|row| values[row % POOL]).sum(),
            measured,
            predicted: self.estimate(&Timing::default(), rows, 1).total.median,
        }
    }
}

/// One run of [`PaillierCost::pipeline_sum`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineSum {
    /// Rows summed.
    pub rows: u64,
    /// The decrypted sum.
    pub sum: u64,
    /// The plaintext sum of the same rows.
    pub expected: u64,
    /// The additions and the decryption, timed.
    pub measured: Spread,
    /// The model's time for the same work.
    pub predicted: Duration,
}

impl PipelineSum {
    /// The model's time over the measured median.
    pub fn model_over_measured(&self) -> f64 {
        self.predicted.as_secs_f64() / self.measured.median.as_secs_f64()
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

    /// Decryption by CRT is the textbook `L(c^λ mod n²) · µ mod n`, on
    /// ciphertexts of random plaintexts below `n` under a generated key.
    #[test]
    fn crt_decryption_is_the_textbook_decryption() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for kp in [small_keypair(), PaillierKeypair::generate(&mut rng, 128)] {
            let (p, q) = (&kp.private.p.prime, &kp.private.q.prime);
            let (one, n, n_squared) = (BigUint::one(), &kp.public.n, &kp.public.n_squared);
            let lambda = p.sub(&one).lcm(&q.sub(&one));
            let mu = l_function(&kp.public.g.mod_pow(&lambda, n_squared), n)
                .mod_inverse(n)
                .unwrap();
            for _ in 0..8 {
                let m = BigUint::random_below(&mut rng, n);
                let c = kp.public.encrypt(&mut rng, &m);
                let textbook = l_function(&c.0.mod_pow(&lambda, n_squared), n).mul_mod(&mu, n);
                assert_eq!(textbook, m);
                assert_eq!(kp.private.decrypt(&c), m);
            }
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

    /// The estimate is Seabed's server time plus the additions, and the
    /// decryptions in place of Seabed's client.
    #[test]
    fn the_estimate_adds_the_additions_and_replaces_the_client() {
        let ms = Duration::from_millis;
        let cost = PaillierCost {
            bits: 64,
            encrypt: Spread::of([ms(9)]),
            add: Spread::of([ms(1), ms(2), ms(3)]),
            decrypt: Spread::of([ms(10)]),
            keypair: small_keypair(),
        };
        let seabed = Timing {
            server: Spread::of([ms(4)]),
            client: Spread::of([ms(100)]),
            total: Spread::of([ms(104)]),
        };
        let estimate = cost.estimate(&seabed, 5, 3);
        assert_eq!(estimate.server.median, ms(4 + 5 * 2));
        assert_eq!((estimate.server.q1, estimate.server.q3), (ms(4 + 5), ms(4 + 5 * 3)));
        assert_eq!(estimate.client.median, ms(30));
        assert_eq!(estimate.total.median, ms(44));
    }
}
