//! Probabilistic primality testing and prime generation for Paillier keys.
//!
//! Paillier key generation needs two large random primes `p` and `q`. This
//! module implements Miller–Rabin with a trial-division pre-filter, which is
//! the standard construction; the number of Miller–Rabin rounds is chosen so
//! the error probability is below 2^-80 for the key sizes the benchmarks use.

use super::bigint::BigUint;
use rand::Rng;

/// Small primes used for trial division before running Miller–Rabin.
const SMALL_PRIMES: [u64; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239,
    241, 251,
];

/// Number of Miller–Rabin rounds used by [`is_probable_prime`].
pub const MILLER_RABIN_ROUNDS: usize = 24;

/// Returns true if `n` is probably prime (error < 4^-rounds).
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from_u64(p);
        if n == &p_big {
            return true;
        }
        if n.rem_u64(p) == 0 {
            return false;
        }
    }
    miller_rabin(n, MILLER_RABIN_ROUNDS, rng)
}

/// Miller–Rabin primality test with `rounds` random bases.
pub fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let one = BigUint::one();
    let two = BigUint::from_u64(2);
    if n.is_even() {
        return n == &two;
    }
    if n <= &BigUint::from_u64(4) {
        // 1 is not prime, 3 is; 2 and 4 were handled by the even check.
        return n == &BigUint::from_u64(3);
    }
    let n_minus_1 = n.sub(&one);
    // Write n-1 = d * 2^s with d odd.
    let mut d = n_minus_1.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    'witness: for _ in 0..rounds {
        // Random base in [2, n-2].
        let n_minus_3 = n.sub(&BigUint::from_u64(3));
        let a = BigUint::random_below(rng, &n_minus_3).add(&two);
        let mut x = a.mod_pow(&d, n);
        if x.is_one() || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            x = x.mul_mod(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force odd.
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
        }
        if candidate.bit_len() != bits {
            continue;
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates a "safe-ish" pair of distinct primes of the given size, suitable
/// for a Paillier modulus: the primes differ and `gcd(pq, (p-1)(q-1)) == 1`,
/// which holds automatically when `p` and `q` have the same bit length.
pub fn generate_prime_pair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> (BigUint, BigUint) {
    let p = generate_prime(rng, bits);
    loop {
        let q = generate_prime(rng, bits);
        if q != p {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_primes_detected() {
        let mut rng = rand::rng();
        for p in [2u64, 3, 5, 7, 11, 13, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut rng),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = rand::rng();
        for c in [1u64, 4, 6, 9, 15, 21, 91, 221, 65536, 1_000_000_008] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "{c} should be composite"
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut rng = rand::rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut rng),
                "{c} is a Carmichael number and must be rejected"
            );
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        // 2^89 - 1 is a Mersenne prime.
        let mut rng = rand::rng();
        let p = BigUint::from_u128((1u128 << 89) - 1);
        assert!(is_probable_prime(&p, &mut rng));
        // 2^89 + 1 is composite.
        let c = BigUint::from_u128((1u128 << 89) + 1);
        assert!(!is_probable_prime(&c, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = rand::rng();
        for bits in [32usize, 64, 128] {
            let p = generate_prime(&mut rng, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn prime_pair_is_distinct() {
        let mut rng = rand::rng();
        let (p, q) = generate_prime_pair(&mut rng, 64);
        assert_ne!(p, q);
    }
}
