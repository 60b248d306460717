//! The ASHE encryption scheme (§3.1–3.2 of the paper).
//!
//! ASHE encrypts a value `m ∈ Z_n` under identifier `i` as
//!
//! ```text
//! Enc_k(m, i) = ( (m - F_k(i) + F_k(i-1)) mod n , {i} )
//! ```
//!
//! Two ciphertexts are "added" by adding the group elements and unioning the
//! identifier sets; decryption re-derives the pseudo-random masks from the
//! identifiers and strips them:
//!
//! ```text
//! Dec_k(c, S) = ( c + Σ_{i ∈ S} (F_k(i) - F_k(i-1)) ) mod n
//! ```
//!
//! Because the masks telescope, the sum over a *contiguous* range `[a, b]`
//! needs only two PRF evaluations — `F_k(b) - F_k(a-1)` — which is the
//! property Seabed's consecutive row IDs are designed to exploit.
//!
//! Seabed instantiates `Z_n` as the wrap-around group of the measure's native
//! width (`2^64` here, `modulus = 0`), making the reduction free, but any
//! modulus is supported.

use crate::idset::IdSet;
use seabed_crypto::prf::{AnyPrf, Prf, PrfKind};
use seabed_crypto::AesPrf;

/// An ASHE ciphertext: a masked group element plus the identifiers whose masks
/// it carries.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct AsheCiphertext {
    /// The masked (randomized-looking) group element.
    pub value: u64,
    /// Identifiers of the rows folded into this ciphertext.
    pub ids: IdSet,
}

impl AsheCiphertext {
    /// The additive identity: encrypts "nothing" and can seed a fold.
    pub fn zero() -> AsheCiphertext {
        AsheCiphertext {
            value: 0,
            ids: IdSet::new(),
        }
    }

    /// Number of rows aggregated into this ciphertext.
    pub fn row_count(&self) -> u64 {
        self.ids.count()
    }
}

/// The ASHE scheme instance for one column.
#[derive(Clone)]
pub struct AsheScheme {
    prf: AnyPrf,
    /// Packed AES PRF used when `packed` is true: one AES block yields the
    /// masks of two adjacent identifiers (§4.3's batching optimisation).
    packed_prf: Option<AesPrf>,
    modulus: u64,
}

impl AsheScheme {
    /// Creates a scheme over the 2^64 wrap-around group with the AES PRF —
    /// the configuration Seabed's prototype uses for 64-bit measures.
    pub fn new(key: &[u8; 16]) -> AsheScheme {
        AsheScheme {
            prf: AnyPrf::new(PrfKind::Aes, key),
            packed_prf: Some(AesPrf::new(key)),
            modulus: 0,
        }
    }

    /// Creates a scheme with an explicit PRF kind and modulus (`0` meaning
    /// `2^64`).
    pub fn with_options(key: &[u8; 16], kind: PrfKind, modulus: u64) -> AsheScheme {
        let packed_prf = match kind {
            PrfKind::Aes => Some(AesPrf::new(key)),
            PrfKind::Hash => None,
        };
        AsheScheme {
            prf: AnyPrf::new(kind, key),
            packed_prf,
            modulus,
        }
    }

    /// The plaintext modulus (`0` = `2^64`).
    pub fn modulus(&self) -> u64 {
        self.modulus
    }

    /// Evaluates `F_k(id) mod n`.
    ///
    /// With the AES PRF, identifiers are packed two per AES block: identifier
    /// `i` reads word `i & 1` of block `i >> 1`, halving the number of AES
    /// operations for bulk encryption of consecutive rows.
    pub fn mask(&self, id: u64) -> u64 {
        match &self.packed_prf {
            Some(prf) => self.reduce_word(prf.eval_wide(id >> 1)[(id & 1) as usize]),
            None => self.prf.eval(id, self.modulus),
        }
    }

    /// Batch counterpart of [`AsheScheme::mask`] for arbitrary identifiers:
    /// `out[i]` is the mask of `ids[i]`. With the AES PRF all the blocks go
    /// through the batched kernel in a few dispatches instead of one each.
    pub fn mask_each(&self, ids: &[u64], out: &mut [u64]) {
        assert_eq!(ids.len(), out.len(), "one mask per identifier");
        const CHUNK: usize = 64;
        match &self.packed_prf {
            Some(prf) => {
                let mut blocks = [0u64; CHUNK];
                let mut wide = [[0u64; 2]; CHUNK];
                for (ids, out) in ids.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
                    for (block, id) in blocks.iter_mut().zip(ids) {
                        *block = id >> 1;
                    }
                    prf.eval_wide_each(&blocks[..ids.len()], &mut wide[..ids.len()]);
                    for ((value, id), words) in out.iter_mut().zip(ids).zip(&wide) {
                        *value = self.reduce_word(words[(id & 1) as usize]);
                    }
                }
            }
            None => {
                for (value, &id) in out.iter_mut().zip(ids) {
                    *value = self.prf.eval(id, self.modulus);
                }
            }
        }
    }

    /// Batch counterpart of [`AsheScheme::mask`]: fills `out` with the masks
    /// of the consecutive (wrapping) identifiers `first_id, first_id + 1, …`.
    ///
    /// With the AES PRF the packed two-identifiers-per-block layout means a
    /// run of N identifiers costs ~N/2 block encryptions, expanded through
    /// the batched keystream kernel in a handful of dispatches instead of one
    /// per identifier. Output is identical to calling [`AsheScheme::mask`]
    /// per identifier.
    pub fn mask_run(&self, first_id: u64, out: &mut [u64]) {
        match &self.packed_prf {
            Some(prf) => {
                // The packed block index `id >> 1` is only monotonic while the
                // identifier space does not wrap past u64::MAX, so split the
                // run into non-wrapping segments (at most two in practice).
                let mut offset = 0usize;
                while offset < out.len() {
                    let start = first_id.wrapping_add(offset as u64);
                    let until_wrap = (u64::MAX - start) as u128 + 1;
                    let seg = ((out.len() - offset) as u128).min(until_wrap) as usize;
                    self.mask_run_segment(prf, start, &mut out[offset..offset + seg]);
                    offset += seg;
                }
            }
            None => self.prf.eval_run(first_id, self.modulus, out),
        }
    }

    /// Masks for the non-wrapping identifier segment `first_id..=first_id+len-1`.
    fn mask_run_segment(&self, prf: &AesPrf, first_id: u64, out: &mut [u64]) {
        const IDS_PER_CHUNK: usize = 64;
        let mut wide = [[0u64; 2]; IDS_PER_CHUNK / 2 + 1];
        for (chunk_index, chunk) in out.chunks_mut(IDS_PER_CHUNK).enumerate() {
            let chunk_first = first_id + (chunk_index * IDS_PER_CHUNK) as u64;
            let chunk_last = chunk_first + (chunk.len() - 1) as u64;
            let first_block = chunk_first >> 1;
            let nblocks = ((chunk_last >> 1) - first_block + 1) as usize;
            prf.eval_wide_run(first_block, &mut wide[..nblocks]);
            for (i, value) in chunk.iter_mut().enumerate() {
                let id = chunk_first + i as u64;
                *value = self.reduce_word(wide[((id >> 1) - first_block) as usize][(id & 1) as usize]);
            }
        }
    }

    /// A 64-bit PRF word or plaintext as a group element.
    #[inline]
    fn reduce_word(&self, v: u64) -> u64 {
        if self.modulus == 0 {
            v
        } else {
            v % self.modulus
        }
    }

    #[inline]
    fn reduce(&self, v: u128) -> u64 {
        if self.modulus == 0 {
            v as u64
        } else {
            (v % self.modulus as u128) as u64
        }
    }

    #[inline]
    fn add_group(&self, a: u64, b: u64) -> u64 {
        if self.modulus == 0 {
            a.wrapping_add(b)
        } else {
            self.reduce(a as u128 + b as u128)
        }
    }

    #[inline]
    fn sub_group(&self, a: u64, b: u64) -> u64 {
        if self.modulus == 0 {
            a.wrapping_sub(b)
        } else {
            let m = self.modulus as u128;
            (((a as u128 + m) - (b as u128 % m)) % m) as u64
        }
    }

    /// Encrypts `m` under identifier `id`.
    ///
    /// The caller must never reuse an identifier for a different plaintext in
    /// the same column; Seabed's encryption module assigns consecutive row IDs.
    pub fn encrypt(&self, m: u64, id: u64) -> AsheCiphertext {
        let mask_cur = self.mask(id);
        let mask_prev = self.mask(id.wrapping_sub(1));
        let value = self.add_group(self.sub_group(self.reduce_word(m), mask_cur), mask_prev);
        AsheCiphertext {
            value,
            ids: IdSet::single(id),
        }
    }

    /// Encrypts a run of values under the consecutive (wrapping) identifiers
    /// `first_id, first_id + 1, …` — the layout Seabed's encryption module
    /// produces — writing only the masked words into `out`: the identifiers
    /// are implicit in a stored column, so nothing else is materialised.
    ///
    /// The run's masks are expanded straight into `out` through the batched
    /// keystream kernel (~N/2 block encryptions with the packed AES PRF,
    /// where per-value [`AsheScheme::encrypt`] calls would pay 2 unbatched
    /// blocks each) and each is then replaced in place by its ciphertext
    /// word, carrying the shared boundary mask forward. Words are identical
    /// to the scalar path's.
    pub fn encrypt_run_into(&self, values: &[u64], first_id: u64, out: &mut [u64]) {
        assert_eq!(values.len(), out.len(), "one ciphertext word per value");
        if values.is_empty() {
            return;
        }
        self.mask_run(first_id, out);
        let mut mask_prev = self.mask(first_id.wrapping_sub(1));
        for (&m, slot) in values.iter().zip(out.iter_mut()) {
            let mask_cur = *slot;
            *slot = self.add_group(self.sub_group(self.reduce_word(m), mask_cur), mask_prev);
            mask_prev = mask_cur;
        }
    }

    /// [`AsheScheme::encrypt_run_into`] with each word wrapped into a full
    /// [`AsheCiphertext`] carrying its identifier — for callers that go on to
    /// ⊕ the ciphertexts rather than store them as a column.
    pub fn encrypt_run(&self, values: &[u64], first_id: u64) -> Vec<AsheCiphertext> {
        let mut words = vec![0u64; values.len()];
        self.encrypt_run_into(values, first_id, &mut words);
        words
            .into_iter()
            .enumerate()
            .map(|(i, value)| AsheCiphertext {
                value,
                ids: IdSet::single(first_id.wrapping_add(i as u64)),
            })
            .collect()
    }

    /// The homomorphic ⊕: adds the group elements and unions the ID sets.
    pub fn add(&self, a: &AsheCiphertext, b: &AsheCiphertext) -> AsheCiphertext {
        AsheCiphertext {
            value: self.add_group(a.value, b.value),
            ids: a.ids.union(&b.ids),
        }
    }

    /// Folds an iterator of ciphertexts into their homomorphic sum.
    pub fn sum<'a, I: IntoIterator<Item = &'a AsheCiphertext>>(&self, items: I) -> AsheCiphertext {
        items
            .into_iter()
            .fold(AsheCiphertext::zero(), |acc, c| self.add(&acc, c))
    }

    /// Decrypts a ciphertext, re-deriving one pair of PRF masks per run of
    /// contiguous identifiers (§3.2's telescoping optimisation).
    ///
    /// The run boundaries are gathered and their masks evaluated through
    /// [`AsheScheme::mask_each`], 32 runs per batched dispatch, instead of
    /// two single-block PRF calls per run. For an explicit modulus the masks
    /// are accumulated in two `u128` sums — no per-term reduction; each term
    /// is below 2^64, so a sum cannot overflow short of 2^64 runs — and
    /// reduced once at the end; the group is commutative so the result
    /// matches the term-by-term reference.
    pub fn decrypt(&self, c: &AsheCiphertext) -> u64 {
        const RUNS: usize = 32;
        // Per run: ids[2j] is the boundary whose mask is added, ids[2j + 1]
        // the one whose mask is subtracted.
        let mut ids = [0u64; 2 * RUNS];
        let mut masks = [0u64; 2 * RUNS];
        let mut wrapping = c.value;
        let (mut added, mut subtracted) = (0u128, 0u128);
        let mut boundaries = c.ids.boundary_pairs();
        loop {
            let mut n = 0;
            for (end, before_start) in boundaries.by_ref().take(RUNS) {
                ids[n] = end;
                ids[n + 1] = before_start;
                n += 2;
            }
            if n == 0 {
                break;
            }
            self.mask_each(&ids[..n], &mut masks[..n]);
            for pair in masks[..n].chunks_exact(2) {
                if self.modulus == 0 {
                    wrapping = wrapping.wrapping_add(pair[0]).wrapping_sub(pair[1]);
                } else {
                    added += pair[0] as u128;
                    subtracted += pair[1] as u128;
                }
            }
        }
        if self.modulus == 0 {
            wrapping
        } else {
            let delta = self.sub_group(self.reduce(added), self.reduce(subtracted));
            self.add_group(c.value, delta)
        }
    }

    /// Number of PRF evaluations [`AsheScheme::decrypt`] will perform for this
    /// ciphertext — two per run, independent of the number of rows.
    pub fn decrypt_prf_evals(&self, c: &AsheCiphertext) -> usize {
        c.ids.run_count() * 2
    }

    /// Decrypts the naïve way, evaluating the PRF for every identifier rather
    /// than only at run boundaries. Exposed for the ablation benchmark that
    /// quantifies the value of the telescoping optimisation.
    pub fn decrypt_without_telescoping(&self, c: &AsheCiphertext) -> u64 {
        let mut acc = c.value;
        for id in c.ids.iter() {
            let mask_cur = self.mask(id);
            let mask_prev = self.mask(id.wrapping_sub(1));
            acc = self.add_group(acc, self.sub_group(mask_cur, mask_prev));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheme() -> AsheScheme {
        AsheScheme::new(&[11u8; 16])
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let s = scheme();
        for (m, id) in [(0u64, 0u64), (1, 1), (42, 7), (u64::MAX, 123), (1 << 40, 1 << 30)] {
            let c = s.encrypt(m, id);
            assert_eq!(s.decrypt(&c), m);
        }
    }

    #[test]
    fn ciphertext_hides_plaintext() {
        let s = scheme();
        // Same plaintext under different IDs yields different ciphertext values.
        assert_ne!(s.encrypt(5, 1).value, s.encrypt(5, 2).value);
        // Different keys yield different ciphertexts for the same (m, id).
        let other = AsheScheme::new(&[12u8; 16]);
        assert_ne!(s.encrypt(5, 1).value, other.encrypt(5, 1).value);
    }

    #[test]
    fn homomorphic_addition_two_values() {
        let s = scheme();
        let c1 = s.encrypt(1000, 1);
        let c2 = s.encrypt(2000, 2);
        let sum = s.add(&c1, &c2);
        assert_eq!(s.decrypt(&sum), 3000);
        assert_eq!(sum.row_count(), 2);
    }

    #[test]
    fn sum_of_contiguous_range_is_single_run() {
        let s = scheme();
        let values: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
        let cts: Vec<AsheCiphertext> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| s.encrypt(v, i as u64))
            .collect();
        let sum = s.sum(&cts);
        assert_eq!(sum.ids.run_count(), 1);
        assert_eq!(s.decrypt_prf_evals(&sum), 2);
        assert_eq!(s.decrypt(&sum), values.iter().sum::<u64>());
    }

    #[test]
    fn sum_of_scattered_rows() {
        let s = scheme();
        let selected: Vec<u64> = (0..500u64).filter(|i| i % 7 == 0).collect();
        let sum = s.sum(
            selected
                .iter()
                .map(|&i| s.encrypt(i * 10, i))
                .collect::<Vec<_>>()
                .iter(),
        );
        assert_eq!(s.decrypt(&sum), selected.iter().map(|i| i * 10).sum::<u64>());
        assert_eq!(sum.row_count(), selected.len() as u64);
    }

    #[test]
    fn wrapping_overflow_is_modular() {
        let s = scheme();
        let c1 = s.encrypt(u64::MAX, 10);
        let c2 = s.encrypt(5, 11);
        // (2^64 - 1) + 5 = 4 mod 2^64
        assert_eq!(s.decrypt(&s.add(&c1, &c2)), 4);
    }

    #[test]
    fn explicit_modulus_group() {
        let s = AsheScheme::with_options(&[3u8; 16], PrfKind::Aes, 1_000_003);
        let values = [999_999u64, 7, 123_456];
        let cts: Vec<AsheCiphertext> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| s.encrypt(v, i as u64))
            .collect();
        let sum = s.sum(&cts);
        assert_eq!(s.decrypt(&sum), values.iter().sum::<u64>() % 1_000_003);
    }

    #[test]
    fn hash_prf_variant_roundtrips() {
        let s = AsheScheme::with_options(&[9u8; 16], PrfKind::Hash, 0);
        let c1 = s.encrypt(111, 0);
        let c2 = s.encrypt(222, 1);
        assert_eq!(s.decrypt(&s.add(&c1, &c2)), 333);
    }

    #[test]
    fn telescoped_and_naive_decryption_agree() {
        let s = scheme();
        let cts: Vec<AsheCiphertext> = (10..60u64).map(|i| s.encrypt(i, i)).collect();
        let sum = s.sum(&cts);
        assert_eq!(s.decrypt(&sum), s.decrypt_without_telescoping(&sum));
    }

    #[test]
    fn zero_ciphertext_is_identity() {
        let s = scheme();
        let c = s.encrypt(77, 3);
        let sum = s.add(&AsheCiphertext::zero(), &c);
        assert_eq!(s.decrypt(&sum), 77);
        assert_eq!(s.decrypt(&AsheCiphertext::zero()), 0);
    }

    #[test]
    fn id_zero_uses_wraparound_predecessor() {
        // Row 0's "previous" mask is F(u64::MAX); make sure encryption and
        // decryption agree on that convention.
        let s = scheme();
        let c = s.encrypt(12345, 0);
        assert_eq!(s.decrypt(&c), 12345);
        let sum = s.sum(&[s.encrypt(1, 0), s.encrypt(2, 1), s.encrypt(3, 2)]);
        assert_eq!(s.decrypt(&sum), 6);
    }

    #[test]
    fn mask_run_matches_scalar_mask() {
        let schemes = [
            scheme(),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Aes, 1_000_003),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Hash, 0),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Hash, 97),
        ];
        for s in &schemes {
            for (start, len) in [
                (0u64, 0usize),
                (0, 1),
                (1, 2),
                (6, 7),
                (3, 64),
                (10, 129),
                (u64::MAX - 5, 9),
            ] {
                let mut run = vec![0u64; len];
                s.mask_run(start, &mut run);
                for (i, got) in run.iter().enumerate() {
                    assert_eq!(*got, s.mask(start.wrapping_add(i as u64)), "start={start} i={i}");
                }
            }
        }
    }

    #[test]
    fn mask_each_matches_scalar_mask() {
        let schemes = [
            scheme(),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Aes, 1_000_003),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Hash, 97),
        ];
        // Scattered, repeated and extreme identifiers, across the 64-id chunk.
        let ids: Vec<u64> = (0..150u64)
            .map(|i| match i % 5 {
                0 => u64::MAX - i,
                1 => i / 5,
                _ => i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            })
            .collect();
        for s in &schemes {
            for len in [0usize, 1, 2, 63, 64, 65, 150] {
                let mut out = vec![0u64; len];
                s.mask_each(&ids[..len], &mut out);
                for (got, &id) in out.iter().zip(&ids) {
                    assert_eq!(*got, s.mask(id), "id={id}");
                }
            }
        }
    }

    #[test]
    fn encrypt_run_matches_scalar_encrypt() {
        let schemes = [
            scheme(),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Aes, 1_000_003),
            AsheScheme::with_options(&[5u8; 16], PrfKind::Hash, 0),
        ];
        for s in &schemes {
            // first_id = 0 exercises the wrap-around predecessor u64::MAX;
            // first_id near u64::MAX exercises identifier wrap mid-run.
            for first_id in [0u64, 1, 7, 1 << 40, u64::MAX - 3] {
                let values: Vec<u64> = (0..70u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
                for len in [0usize, 1, 2, 70] {
                    let batch = s.encrypt_run(&values[..len], first_id);
                    assert_eq!(batch.len(), len);
                    for (i, c) in batch.iter().enumerate() {
                        let reference = s.encrypt(values[i], first_id.wrapping_add(i as u64));
                        assert_eq!(*c, reference, "first_id={first_id} i={i}");
                        assert_eq!(
                            s.decrypt(c),
                            if s.modulus() == 0 {
                                values[i]
                            } else {
                                values[i] % s.modulus()
                            }
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn packed_prf_consistency_with_scheme_reuse() {
        // The packed AES PRF must give the same mask for the same id across
        // calls and across clones of the scheme.
        let s = scheme();
        let s2 = s.clone();
        for id in 0..64u64 {
            assert_eq!(s.mask(id), s2.mask(id));
        }
    }
}
