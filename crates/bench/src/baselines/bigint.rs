//! Arbitrary-precision unsigned integer arithmetic.
//!
//! Seabed's evaluation compares ASHE against the Paillier cryptosystem used by
//! CryptDB and Monomi. Paillier needs modular arithmetic on integers of a few
//! thousand bits, so this module provides a self-contained big-unsigned-integer
//! type ([`BigUint`]) with the operations Paillier requires: addition,
//! subtraction, multiplication, division with remainder, modular
//! exponentiation, modular inverse, gcd/lcm and random / prime generation
//! support (see [`super::prime`]). Only the harness's Paillier baseline uses
//! it; nothing the proxy runs does.
//!
//! Limbs are stored little-endian as `u32`, which keeps the schoolbook
//! multiplication and Knuth Algorithm D division simple (intermediate products
//! fit in `u64`). This is a clarity-over-speed implementation; the benchmark
//! harness accounts for the constant-factor difference from GMP-backed
//! implementations when reporting Table 1 numbers.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// The internal representation is a little-endian vector of 32-bit limbs with
/// no trailing zero limbs (the canonical form of zero is an empty vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x{})", self.to_hex())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = vec![(v & 0xffff_ffff) as u32, (v >> 32) as u32];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Builds a value from a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = vec![
            (v & 0xffff_ffff) as u32,
            ((v >> 32) & 0xffff_ffff) as u32,
            ((v >> 64) & 0xffff_ffff) as u32,
            ((v >> 96) & 0xffff_ffff) as u32,
        ];
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Builds a value from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 4 + 1);
        let mut acc: u32 = 0;
        let mut shift = 0;
        for &b in bytes.iter().rev() {
            acc |= (b as u32) << shift;
            shift += 8;
            if shift == 32 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Serializes to big-endian bytes without leading zeros (zero -> empty).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 4);
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // skip leading zero bytes of the most significant limb
                let mut skip = true;
                for &b in &bytes {
                    if skip && b == 0 {
                        continue;
                    }
                    skip = false;
                    out.push(b);
                }
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Converts to `u64`, truncating higher limbs if present.
    pub fn to_u64_truncated(&self) -> u64 {
        let lo = *self.limbs.first().unwrap_or(&0) as u64;
        let hi = *self.limbs.get(1).unwrap_or(&0) as u64;
        lo | (hi << 32)
    }

    /// Converts to `u128`, truncating higher limbs if present.
    pub fn to_u128_truncated(&self) -> u128 {
        let mut v: u128 = 0;
        for (i, &limb) in self.limbs.iter().take(4).enumerate() {
            v |= (limb as u128) << (32 * i);
        }
        v
    }

    /// Parses a hexadecimal string (no `0x` prefix).
    pub fn from_hex(s: &str) -> Option<Self> {
        let mut bytes = Vec::with_capacity(s.len() / 2 + 1);
        let s = s.trim();
        let padded;
        let s = if s.len() % 2 == 1 {
            padded = format!("0{s}");
            &padded
        } else {
            s
        };
        for chunk in s.as_bytes().chunks(2) {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            bytes.push(((hi << 4) | lo) as u8);
        }
        Some(Self::from_bytes_be(&bytes))
    }

    /// Renders as a lowercase hexadecimal string (zero renders as "0").
    pub fn to_hex(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::new();
        for (i, &limb) in self.limbs.iter().enumerate().rev() {
            if i == self.limbs.len() - 1 {
                s.push_str(&format!("{limb:x}"));
            } else {
                s.push_str(&format!("{limb:08x}"));
            }
        }
        s
    }

    /// Returns true if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns true if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// Returns true if the lowest bit is clear.
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (zero has zero bits).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() - 1) * 32 + (32 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 32;
        let off = i % 32;
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    fn normalize(mut limbs: Vec<u32>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// Addition.
    pub fn add(&self, other: &Self) -> Self {
        let (a, b) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry: u64 = 0;
        for (i, &limb) in a.iter().enumerate() {
            let sum = limb as u64 + *b.get(i).unwrap_or(&0) as u64 + carry;
            out.push((sum & 0xffff_ffff) as u32);
            carry = sum >> 32;
        }
        if carry > 0 {
            out.push(carry as u32);
        }
        Self::normalize(out)
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self.cmp_val(other) != Ordering::Less, "BigUint::sub underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let mut diff = self.limbs[i] as i64 - *other.limbs.get(i).unwrap_or(&0) as i64 - borrow;
            if diff < 0 {
                diff += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            out.push(diff as u32);
        }
        Self::normalize(out)
    }

    /// Comparison.
    pub fn cmp_val(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u32; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u64 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u64 + a as u64 * b as u64 + carry;
                out[i + j] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let cur = out[k] as u64 + carry;
                out[k] = (cur & 0xffff_ffff) as u32;
                carry = cur >> 32;
                k += 1;
            }
        }
        Self::normalize(out)
    }

    /// Left shift by `n` bits.
    pub fn shl(&self, n: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let limb_shift = n / 32;
        let bit_shift = n % 32;
        let mut out = vec![0u32; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u32;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (32 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Self::normalize(out)
    }

    /// Right shift by `n` bits.
    pub fn shr(&self, n: usize) -> Self {
        let limb_shift = n / 32;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = n % 32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let lo = src[i] >> bit_shift;
                let hi = if i + 1 < src.len() {
                    src[i + 1] << (32 - bit_shift)
                } else {
                    0
                };
                out.push(lo | hi);
            }
        }
        Self::normalize(out)
    }

    /// Division with remainder: returns `(quotient, remainder)`.
    ///
    /// Uses Knuth's Algorithm D for multi-limb divisors and a simple
    /// single-limb path otherwise. Panics on division by zero.
    pub fn divrem(&self, divisor: &Self) -> (Self, Self) {
        assert!(!divisor.is_zero(), "BigUint division by zero");
        match self.cmp_val(divisor) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0] as u64;
            let mut q = vec![0u32; self.limbs.len()];
            let mut rem: u64 = 0;
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 32) | self.limbs[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            return (Self::normalize(q), Self::from_u64(rem));
        }

        // Knuth Algorithm D. Normalize so that the divisor's top limb has its
        // high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros() as usize;
        let u = self.shl(shift);
        let v = divisor.shl(shift);
        let n = v.limbs.len();
        let m = u.limbs.len().saturating_sub(n);

        let mut un: Vec<u32> = u.limbs.clone();
        un.push(0); // extra high limb
        let vn = &v.limbs;
        let mut q = vec![0u32; m + 1];

        let v_hi = vn[n - 1] as u64;
        let v_lo = vn[n - 2] as u64;

        for j in (0..=m).rev() {
            // Estimate q_hat.
            let numer = ((un[j + n] as u64) << 32) | un[j + n - 1] as u64;
            let mut q_hat = numer / v_hi;
            let mut r_hat = numer % v_hi;
            while q_hat >= 1 << 32 || q_hat * v_lo > ((r_hat << 32) | un[j + n - 2] as u64) {
                q_hat -= 1;
                r_hat += v_hi;
                if r_hat >= 1 << 32 {
                    break;
                }
            }
            // Multiply and subtract.
            let mut borrow: i64 = 0;
            let mut carry: u64 = 0;
            for i in 0..n {
                let p = q_hat * vn[i] as u64 + carry;
                carry = p >> 32;
                let mut t = un[i + j] as i64 - (p & 0xffff_ffff) as i64 - borrow;
                if t < 0 {
                    t += 1 << 32;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                un[i + j] = t as u32;
            }
            let mut t = un[j + n] as i64 - carry as i64 - borrow;
            if t < 0 {
                // q_hat was one too large: add back.
                t += 1 << 32;
                un[j + n] = t as u32;
                q_hat -= 1;
                let mut carry2: u64 = 0;
                for i in 0..n {
                    let sum = un[i + j] as u64 + vn[i] as u64 + carry2;
                    un[i + j] = (sum & 0xffff_ffff) as u32;
                    carry2 = sum >> 32;
                }
                un[j + n] = (un[j + n] as u64 + carry2) as u32;
            } else {
                un[j + n] = t as u32;
            }
            q[j] = q_hat as u32;
        }

        let quotient = Self::normalize(q);
        let rem_normalized = Self::normalize(un[..n].to_vec());
        (quotient, rem_normalized.shr(shift))
    }

    /// `self mod m`.
    pub fn rem(&self, m: &Self) -> Self {
        self.divrem(m).1
    }

    /// Modular multiplication.
    pub fn mul_mod(&self, other: &Self, m: &Self) -> Self {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation by square-and-multiply (left-to-right).
    pub fn mod_pow(&self, exp: &Self, m: &Self) -> Self {
        assert!(!m.is_zero(), "mod_pow modulus must be nonzero");
        if m.is_one() {
            return Self::zero();
        }
        let base = self.rem(m);
        if exp.is_zero() {
            return Self::one();
        }
        let mut result = Self::one();
        let bits = exp.bit_len();
        for i in (0..bits).rev() {
            result = result.mul_mod(&result, m);
            if exp.bit(i) {
                result = result.mul_mod(&base, m);
            }
        }
        result
    }

    /// Greatest common divisor (binary-free Euclid via divrem).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Least common multiple.
    pub fn lcm(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let g = self.gcd(other);
        self.divrem(&g).0.mul(other)
    }

    /// Modular multiplicative inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` when `gcd(self, m) != 1`.
    pub fn mod_inverse(&self, m: &Self) -> Option<Self> {
        // Track coefficients as (sign, magnitude) pairs to avoid a signed
        // bignum type.
        let mut r0 = m.clone();
        let mut r1 = self.rem(m);
        let mut t0 = (false, Self::zero()); // coefficient of m
        let mut t1 = (false, Self::one()); // coefficient of self
        while !r1.is_zero() {
            let (q, r2) = r0.divrem(&r1);
            // t2 = t0 - q * t1
            let qt1 = q.mul(&t1.1);
            let t2 = signed_sub(t0.clone(), (t1.0, qt1));
            r0 = r1;
            r1 = r2;
            t0 = t1;
            t1 = t2;
        }
        if !r0.is_one() {
            return None;
        }
        // t0 is the inverse, possibly negative.
        let inv = if t0.0 { m.sub(&t0.1.rem(m)) } else { t0.1.rem(m) };
        Some(inv.rem(m))
    }

    /// Generates a uniformly random value with exactly `bits` significant bits
    /// (the top bit is forced to one).
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> Self {
        assert!(bits > 0);
        let n_limbs = bits.div_ceil(32);
        let mut limbs: Vec<u32> = (0..n_limbs).map(|_| rng.random::<u32>()).collect();
        let top_bits = bits - (n_limbs - 1) * 32;
        let mask = if top_bits == 32 {
            u32::MAX
        } else {
            (1u32 << top_bits) - 1
        };
        let last = limbs.last_mut().unwrap();
        *last &= mask;
        *last |= 1 << (top_bits - 1);
        Self::normalize(limbs)
    }

    /// Generates a uniformly random value in `[0, bound)` by rejection
    /// sampling.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &Self) -> Self {
        assert!(!bound.is_zero());
        let bits = bound.bit_len();
        let n_limbs = bits.div_ceil(32);
        let top_bits = bits - (n_limbs - 1) * 32;
        let mask = if top_bits == 32 {
            u32::MAX
        } else {
            (1u32 << top_bits) - 1
        };
        loop {
            let mut limbs: Vec<u32> = (0..n_limbs).map(|_| rng.random::<u32>()).collect();
            *limbs.last_mut().unwrap() &= mask;
            let candidate = Self::normalize(limbs);
            if candidate.cmp_val(bound) == Ordering::Less {
                return candidate;
            }
        }
    }

    /// Computes `self mod small` for a `u64` modulus.
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0);
        let mut rem: u128 = 0;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 32) | limb as u128) % m as u128;
        }
        rem as u64
    }
}

/// Computes a - b where a and b are signed magnitudes, returning a signed
/// magnitude. Used only by the extended Euclidean algorithm.
fn signed_sub(a: (bool, BigUint), b: (bool, BigUint)) -> (bool, BigUint) {
    match (a.0, b.0) {
        // a - b with both non-negative
        (false, false) => {
            if a.1.cmp_val(&b.1) != Ordering::Less {
                (false, a.1.sub(&b.1))
            } else {
                (true, b.1.sub(&a.1))
            }
        }
        // a - (-b) = a + b
        (false, true) => (false, a.1.add(&b.1)),
        // -a - b = -(a + b)
        (true, false) => (true, a.1.add(&b.1)),
        // -a - (-b) = b - a
        (true, true) => {
            if b.1.cmp_val(&a.1) != Ordering::Less {
                (false, b.1.sub(&a.1))
            } else {
                (true, a.1.sub(&b.1))
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_val(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn add_small() {
        assert_eq!(big(2).add(&big(3)), big(5));
        assert_eq!(big(u64::MAX).add(&big(1)).to_hex(), "10000000000000000");
    }

    #[test]
    fn sub_small() {
        assert_eq!(big(5).sub(&big(3)), big(2));
        assert_eq!(big(1 << 33).sub(&big(1)), big((1 << 33) - 1));
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_small() {
        assert_eq!(big(7).mul(&big(6)), big(42));
        let a = big(u64::MAX);
        let sq = a.mul(&a);
        assert_eq!(sq.to_hex(), "fffffffffffffffe0000000000000001");
    }

    #[test]
    fn divrem_small() {
        let (q, r) = big(100).divrem(&big(7));
        assert_eq!(q, big(14));
        assert_eq!(r, big(2));
    }

    #[test]
    fn divrem_multi_limb() {
        let a = BigUint::from_hex("123456789abcdef0123456789abcdef0").unwrap();
        let b = BigUint::from_hex("fedcba9876543210").unwrap();
        let (q, r) = a.divrem(&b);
        // verify a = q*b + r and r < b
        assert_eq!(q.mul(&b).add(&r), a);
        assert!(r.cmp_val(&b) == Ordering::Less);
    }

    #[test]
    fn hex_roundtrip() {
        let a = BigUint::from_hex("deadbeefcafebabe0123456789").unwrap();
        assert_eq!(BigUint::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn bytes_roundtrip() {
        let a = BigUint::from_hex("0102030405060708090a0b0c0d0e0f").unwrap();
        let bytes = a.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), a);
    }

    #[test]
    fn shifts() {
        let a = big(1);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(big(0b1011).shl(3), big(0b1011000));
        assert_eq!(big(0b1011000).shr(3), big(0b1011));
    }

    #[test]
    fn mod_pow_small() {
        // 3^20 mod 1000 = 3486784401 mod 1000 = 401
        assert_eq!(big(3).mod_pow(&big(20), &big(1000)), big(401));
        // Fermat: a^(p-1) = 1 mod p
        assert_eq!(big(7).mod_pow(&big(1008), &big(1009)), big(1));
    }

    #[test]
    fn mod_inverse_small() {
        let inv = big(3).mod_inverse(&big(11)).unwrap();
        assert_eq!(inv, big(4)); // 3*4 = 12 = 1 mod 11
        assert!(big(6).mod_inverse(&big(9)).is_none()); // gcd 3
    }

    #[test]
    fn gcd_lcm() {
        assert_eq!(big(12).gcd(&big(18)), big(6));
        assert_eq!(big(12).lcm(&big(18)), big(36));
        assert_eq!(big(17).gcd(&big(13)), big(1));
    }

    #[test]
    fn rem_u64_matches_divrem() {
        let a = BigUint::from_hex("abcdef0123456789abcdef0123456789").unwrap();
        let m = 1_000_000_007u64;
        assert_eq!(a.rem_u64(m), a.rem(&big(m)).to_u64_truncated());
    }

    /// Seeded draws for the round-trip tests below: 256 of each.
    fn draws<T>(seed: u64, mut draw: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..256).map(|_| draw(&mut rng)).collect()
    }

    #[test]
    fn add_sub_and_mul_divrem_roundtrip() {
        for (a, b) in draws(1, |rng| (rng.random::<u128>(), rng.random::<u128>().max(1))) {
            let (big_a, big_b) = (BigUint::from_u128(a), BigUint::from_u128(b));
            assert_eq!(big_a.add(&big_b).sub(&big_b), big_a);
            let (q, r) = big_a.divrem(&big_b);
            assert_eq!(q.mul(&big_b).add(&r), big_a);
            assert!(r < big_b);
        }
    }

    #[test]
    fn matches_native_u64_arithmetic() {
        for (a, b) in draws(2, |rng| (rng.random::<u64>(), rng.random::<u64>())) {
            let (big_a, big_b) = (big(a), big(b));
            assert_eq!(big_a.add(&big_b).to_u128_truncated(), a as u128 + b as u128);
            assert_eq!(big_a.mul(&big_b).to_u128_truncated(), a as u128 * b as u128);
            if let (Some(q), Some(r)) = (a.checked_div(b), a.checked_rem(b)) {
                assert_eq!(big_a.divrem(&big_b).0.to_u64_truncated(), q);
                assert_eq!(big_a.divrem(&big_b).1.to_u64_truncated(), r);
            }
        }
    }

    #[test]
    fn hex_and_bytes_roundtrip() {
        for a in draws(3, |rng| rng.random::<u128>()) {
            let value = BigUint::from_u128(a);
            assert_eq!(BigUint::from_hex(&value.to_hex()).unwrap(), value);
        }
        for bytes in draws(4, |rng| {
            let mut bytes = vec![0u8; rng.random_range(0..64)];
            rng.fill(&mut bytes);
            bytes
        }) {
            // Leading zeros are not preserved, so compare by value.
            let value = BigUint::from_bytes_be(&bytes);
            assert_eq!(BigUint::from_bytes_be(&value.to_bytes_be()), value);
        }
    }

    #[test]
    fn mod_pow_matches_naive() {
        let cases = draws(5, |rng| {
            (
                rng.random_range(0..10_000u64),
                rng.random_range(0..64u64),
                rng.random_range(2..100_000u64),
            )
        });
        for (base, exp, modulus) in cases {
            let expected = (0..exp).fold(1u128, |acc, _| acc * base as u128 % modulus as u128) as u64;
            assert_eq!(big(base).mod_pow(&big(exp), &big(modulus)).to_u64_truncated(), expected);
        }
    }

    #[test]
    fn mod_inverse_is_an_inverse() {
        for (a, m) in draws(6, |rng| {
            (rng.random_range(1..1_000_000u64), rng.random_range(2..1_000_000u64))
        }) {
            match big(a).mod_inverse(&big(m)) {
                Some(inv) => assert_eq!(big(a).mul_mod(&inv, &big(m)), BigUint::one()),
                // No inverse implies a nontrivial gcd.
                None => assert!(!big(a).gcd(&big(m)).is_one()),
            }
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = rand::rng();
        let bound = BigUint::from_hex("ffffffffffffffffffffffff").unwrap();
        for _ in 0..20 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v.cmp_val(&bound) == Ordering::Less);
        }
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut rng = rand::rng();
        for bits in [1usize, 31, 32, 33, 64, 100, 512] {
            let v = BigUint::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits);
        }
    }
}
