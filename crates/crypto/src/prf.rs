//! The pseudo-random function ASHE, SPLASHE and ORE are built on.
//!
//! ASHE needs a keyed function `F_k : I -> Z_n` mapping row identifiers to
//! pseudo-random group elements (§3.1). The paper allows a hash or AES; its
//! prototype uses AES as a pseudo-random permutation ([`AesPrf`]), because it
//! benefits from AES-NI and because one AES operation yields two 64-bit
//! pseudo-random values (§4.3). Seabed's group is `Z_{2^64}`, where the
//! reduction is free.

use crate::aes::{block_words, AesCtr};

/// A keyed pseudo-random function from 64-bit identifiers to `Z_n`.
pub trait Prf: Send + Sync {
    /// Evaluates `F_k(id) mod n`. A modulus of 0 is interpreted as `2^64`
    /// (the natural wrap-around group used for 64-bit measures).
    fn eval(&self, id: u64, modulus: u64) -> u64;

    /// Evaluates the PRF over the run of consecutive (wrapping) identifiers
    /// `first_id, first_id + 1, …`, one output per element of `out`.
    ///
    /// Semantically identical to calling [`Prf::eval`] per identifier, but
    /// the keystream setup and cipher dispatch are amortised across the whole
    /// run (§4.3), which is what makes bind-batch encryption pay one stream
    /// expansion instead of one per literal.
    fn eval_run(&self, first_id: u64, modulus: u64, out: &mut [u64]);
}

#[inline]
fn reduce(value: u64, modulus: u64) -> u64 {
    if modulus == 0 {
        value
    } else {
        value % modulus
    }
}

/// AES-128-CTR based PRF: `F_k(i)` is the low 64 bits of `AES_k(nonce || i)`.
///
/// The per-block second word is not wasted: [`AesPrf::eval_wide`] returns both
/// words so callers encrypting two adjacent 64-bit values (or four 32-bit
/// values) can amortise one AES operation across them, mirroring the
/// "multiple ciphertexts per AES operation" optimisation of §4.3.
#[derive(Clone)]
pub struct AesPrf {
    ctr: AesCtr,
}

impl AesPrf {
    /// Creates the PRF from a 16-byte key.
    pub fn new(key: &[u8; 16]) -> Self {
        AesPrf {
            ctr: AesCtr::new(key, 0x5eab_edc0_ffee_0001),
        }
    }

    /// Returns both 64-bit words of the AES block for identifier `id`.
    pub fn eval_wide(&self, id: u64) -> [u64; 2] {
        self.ctr.keystream_u64x2(id)
    }

    /// Batch counterpart of [`AesPrf::eval_wide`]: fills `out` with both
    /// 64-bit words of every consecutive (wrapping) block counter starting at
    /// `first_block`, issued through the batched AES kernel. A run of N
    /// packed identifiers therefore costs ~N/2 block encryptions in a handful
    /// of dispatches rather than one dispatch per identifier.
    pub fn eval_wide_run(&self, first_block: u64, out: &mut [[u64; 2]]) {
        self.expand(
            out,
            |offset, blocks| {
                self.ctr
                    .keystream_blocks(first_block.wrapping_add(offset as u64), blocks)
            },
            block_words,
        );
    }

    /// [`AesPrf::eval_wide`] at arbitrary block counters — `out[i]` holds
    /// both words of block `counters[i]` — issued through the batched AES
    /// kernel. This is what lets ASHE decryption evaluate all of an ID set's
    /// run boundaries in a few dispatches instead of one per boundary.
    pub fn eval_wide_each(&self, counters: &[u64], out: &mut [[u64; 2]]) {
        assert_eq!(counters.len(), out.len(), "one output pair per counter");
        self.expand(
            out,
            |offset, blocks| {
                self.ctr
                    .keystream_blocks_at(&counters[offset..offset + blocks.len()], blocks)
            },
            block_words,
        );
    }

    /// Fills `out` [`RUN_CHUNK`] keystream blocks per dispatch: `fill`
    /// encrypts the blocks of output positions `offset..`, `convert` turns
    /// each block into its output.
    fn expand<T>(&self, out: &mut [T], fill: impl Fn(usize, &mut [[u8; 16]]), convert: impl Fn(&[u8; 16]) -> T) {
        let mut blocks = [[0u8; 16]; RUN_CHUNK];
        for (chunk_index, chunk) in out.chunks_mut(RUN_CHUNK).enumerate() {
            let blocks = &mut blocks[..chunk.len()];
            fill(chunk_index * RUN_CHUNK, blocks);
            for (value, block) in chunk.iter_mut().zip(blocks.iter()) {
                *value = convert(block);
            }
        }
    }
}

/// Blocks expanded per batched keystream dispatch by the run evaluators.
const RUN_CHUNK: usize = 32;

impl Prf for AesPrf {
    fn eval(&self, id: u64, modulus: u64) -> u64 {
        reduce(self.ctr.keystream_u64x2(id)[0], modulus)
    }

    fn eval_run(&self, first_id: u64, modulus: u64, out: &mut [u64]) {
        self.expand(
            out,
            |offset, blocks| self.ctr.keystream_blocks(first_id.wrapping_add(offset as u64), blocks),
            |block| reduce(block_words(block)[0], modulus),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aes_prf_deterministic() {
        let p = AesPrf::new(&[1u8; 16]);
        assert_eq!(p.eval(42, 0), p.eval(42, 0));
        assert_ne!(p.eval(42, 0), p.eval(43, 0));
    }

    #[test]
    fn aes_prf_key_separation() {
        let a = AesPrf::new(&[1u8; 16]);
        let b = AesPrf::new(&[2u8; 16]);
        assert_ne!(a.eval(7, 0), b.eval(7, 0));
    }

    #[test]
    fn modulus_reduction_applies() {
        let p = AesPrf::new(&[9u8; 16]);
        for id in 0..100 {
            assert!(p.eval(id, 1000) < 1000);
        }
        // modulus 0 means the full 2^64 group
        assert_eq!(p.eval(5, 0), p.eval_wide(5)[0]);
    }

    #[test]
    fn wide_output_gives_two_independent_words() {
        let p = AesPrf::new(&[5u8; 16]);
        let [w0, w1] = p.eval_wide(123);
        assert_ne!(w0, w1);
    }

    #[test]
    fn eval_run_matches_eval_per_id() {
        let aes = AesPrf::new(&[0x42; 16]);
        for modulus in [0u64, 1000, u64::MAX] {
            // lengths covering empty, single, partial and multi chunk
            for (start, len) in [(0u64, 0usize), (7, 1), (100, 5), (3, 31), (9, 32), (11, 33), (5, 97)] {
                let mut run = vec![0u64; len];
                aes.eval_run(start, modulus, &mut run);
                for (i, got) in run.iter().enumerate() {
                    assert_eq!(
                        *got,
                        aes.eval(start.wrapping_add(i as u64), modulus),
                        "start={start} i={i}"
                    );
                }
            }
        }
        // wrapping identifier run straddling u64::MAX
        let mut run = [0u64; 7];
        aes.eval_run(u64::MAX - 2, 0, &mut run);
        for (i, got) in run.iter().enumerate() {
            assert_eq!(*got, aes.eval((u64::MAX - 2).wrapping_add(i as u64), 0));
        }
    }

    #[test]
    fn eval_wide_run_matches_eval_wide() {
        let p = AesPrf::new(&[0x77; 16]);
        for (start, len) in [(0u64, 1usize), (12, 40), (u64::MAX - 1, 5)] {
            let mut run = vec![[0u64; 2]; len];
            p.eval_wide_run(start, &mut run);
            for (i, got) in run.iter().enumerate() {
                assert_eq!(*got, p.eval_wide(start.wrapping_add(i as u64)), "start={start} i={i}");
            }
        }
    }

    #[test]
    fn eval_wide_each_matches_eval_wide() {
        let p = AesPrf::new(&[0x77; 16]);
        let counters: Vec<u64> = (0..70u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
        for len in [0usize, 1, 31, 32, 33, 70] {
            let mut out = vec![[0u64; 2]; len];
            p.eval_wide_each(&counters[..len], &mut out);
            for (got, &counter) in out.iter().zip(&counters) {
                assert_eq!(*got, p.eval_wide(counter), "counter={counter}");
            }
        }
    }

    #[test]
    fn output_looks_uniform_coarse() {
        // Very coarse sanity check: over 4096 evaluations, both halves of the
        // output range should be hit roughly equally.
        let p = AesPrf::new(&[0xAB; 16]);
        let mut high = 0usize;
        for id in 0..4096u64 {
            if p.eval(id, 0) >= u64::MAX / 2 {
                high += 1;
            }
        }
        assert!(high > 1600 && high < 2500, "high half count {high}");
    }
}
