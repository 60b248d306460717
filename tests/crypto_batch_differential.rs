//! Differential property tests pinning every batched crypto kernel to its
//! scalar reference path.
//!
//! The batched hot paths (multi-block AES dispatch, PRF keystream runs, the
//! packed ASHE mask runs, run-encryption, batched boundary decryption, the
//! batched ORE prefix encryption and its column cursor) exist purely for
//! throughput:
//! each must be *bit-identical* to the scalar path it replaces, over random
//! key material, random values, random identifiers — including identifier
//! runs that wrap `u64::MAX`, empty batches, and single-element batches.
//! The scalar paths stay in the tree as the differential reference, and this
//! file is the contract that keeps them honest.

use proptest::collection::vec as pvec;
use proptest::prelude::*;
use seabed_ashe::{encrypt_column, encrypt_column_scalar, AsheCiphertext, AsheScheme, IdSet};
use seabed_crypto::prf::{AesPrf, Prf};
use seabed_crypto::{Aes128, Aes256, AesCtr, OreScheme};

/// Maps a raw draw onto a batch length, biased to the internal chunk
/// boundaries (the AES kernels process 4 lanes per sweep in software and 8 in
/// hardware, the PRF run evaluators 32 blocks, the packed mask runs 64
/// identifiers): empty, singleton, odd, and just before, at and past each
/// boundary — plus arbitrary lengths.
fn batch_len(raw: u64) -> usize {
    const BOUNDARIES: [usize; 18] = [0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129];
    if raw & 1 == 0 {
        BOUNDARIES[(raw >> 1) as usize % BOUNDARIES.len()]
    } else {
        ((raw >> 1) % 160) as usize
    }
}

/// Maps a raw draw onto a run start: anywhere, or so close to `u64::MAX`
/// that the run wraps (the packed two-ids-per-block layout splits those
/// into segments).
fn start_id(raw: u64) -> u64 {
    if raw & 1 == 0 {
        raw
    } else {
        u64::MAX - ((raw >> 1) % 256)
    }
}

/// Maps a raw draw onto a PRF modulus: 0 (the free `2^64` wrap-around group)
/// a quarter of the time, otherwise arbitrary non-zero.
fn pick_modulus(raw: u64) -> u64 {
    match raw & 3 {
        0 => 0,
        _ => (raw >> 2).max(1),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------------------------------------------------------
    // AES: the multi-block kernel is the single-block cipher, N times.
    // ---------------------------------------------------------------

    #[test]
    fn aes128_encrypt_blocks_matches_per_block(key in any::<[u8; 16]>(), blocks in pvec(any::<[u8; 16]>(), 0..70)) {
        let aes = Aes128::new(&key);
        let mut batched = blocks.clone();
        aes.encrypt_blocks(&mut batched);
        let scalar: Vec<[u8; 16]> = blocks.iter().map(|b| aes.encrypt_block(b)).collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn aes256_encrypt_blocks_matches_per_block(key in any::<[u8; 32]>(), blocks in pvec(any::<[u8; 16]>(), 0..70)) {
        let aes = Aes256::new(&key);
        let mut batched = blocks.clone();
        aes.encrypt_blocks(&mut batched);
        let scalar: Vec<[u8; 16]> = blocks.iter().map(|b| aes.encrypt_block(b)).collect();
        prop_assert_eq!(batched, scalar);
    }

    #[test]
    fn aes_ctr_keystream_run_matches_per_counter(
        key in any::<[u8; 16]>(),
        nonce in any::<u64>(),
        raw_start in any::<u64>(),
        raw_len in any::<u64>(),
    ) {
        let ctr = AesCtr::new(&key, nonce);
        let counter = start_id(raw_start);
        let mut run = vec![[0u8; 16]; batch_len(raw_len)];
        ctr.keystream_blocks(counter, &mut run);
        for (i, block) in run.iter().enumerate() {
            let words = ctr.keystream_u64x2(counter.wrapping_add(i as u64));
            prop_assert_eq!(u64::from_be_bytes(block[..8].try_into().unwrap()), words[0]);
            prop_assert_eq!(u64::from_be_bytes(block[8..].try_into().unwrap()), words[1]);
        }
    }

    // ---------------------------------------------------------------
    // PRF: eval_run / eval_wide_run ≡ eval / eval_wide per identifier.
    // ---------------------------------------------------------------

    #[test]
    fn aes_prf_eval_run_matches_eval(
        key in any::<[u8; 16]>(),
        raw_start in any::<u64>(),
        raw_len in any::<u64>(),
        raw_mod in any::<u64>(),
    ) {
        let prf = AesPrf::new(&key);
        let (start, modulus) = (start_id(raw_start), pick_modulus(raw_mod));
        let mut run = vec![0u64; batch_len(raw_len)];
        prf.eval_run(start, modulus, &mut run);
        for (i, &value) in run.iter().enumerate() {
            prop_assert_eq!(value, prf.eval(start.wrapping_add(i as u64), modulus));
        }
    }

    #[test]
    fn aes_prf_eval_wide_run_matches_eval_wide(
        key in any::<[u8; 16]>(),
        raw_start in any::<u64>(),
        raw_len in any::<u64>(),
    ) {
        let prf = AesPrf::new(&key);
        let start = start_id(raw_start);
        let mut run = vec![[0u64; 2]; batch_len(raw_len)];
        prf.eval_wide_run(start, &mut run);
        for (i, &pair) in run.iter().enumerate() {
            prop_assert_eq!(pair, prf.eval_wide(start.wrapping_add(i as u64)));
        }
    }

    // ---------------------------------------------------------------
    // ASHE: packed mask runs and run-encryption ≡ the scalar scheme.
    // ---------------------------------------------------------------

    #[test]
    fn ashe_mask_run_matches_mask(
        key in any::<[u8; 16]>(),
        raw_start in any::<u64>(),
        raw_len in any::<u64>(),
    ) {
        let scheme = AsheScheme::new(&key);
        let start = start_id(raw_start);
        let mut run = vec![0u64; batch_len(raw_len)];
        scheme.mask_run(start, &mut run);
        for (i, &value) in run.iter().enumerate() {
            prop_assert_eq!(
                value,
                scheme.mask(start.wrapping_add(i as u64)),
                "mask diverged at offset {} of a run starting at {}",
                i,
                start
            );
        }
    }

    #[test]
    fn ashe_encrypt_run_matches_encrypt(
        key in any::<[u8; 16]>(),
        raw_start in any::<u64>(),
        values in pvec(any::<u64>(), 0..130),
    ) {
        let scheme = AsheScheme::new(&key);
        let start = start_id(raw_start);
        let run = scheme.encrypt_run(&values, start);
        prop_assert_eq!(run.len(), values.len());
        for (i, ciphertext) in run.iter().enumerate() {
            let scalar = scheme.encrypt(values[i], start.wrapping_add(i as u64));
            prop_assert_eq!(ciphertext.value, scalar.value);
            prop_assert_eq!(&ciphertext.ids, &scalar.ids);
        }
    }

    /// The column front door: batched `encrypt_column` (masks expanded
    /// straight into the column's words) ≡ the retained scalar reference for
    /// identifier runs anywhere, including ones that wrap `u64::MAX`, and
    /// both telescope back to the plaintext.
    #[test]
    fn ashe_encrypt_column_matches_scalar_and_roundtrips(
        key in any::<[u8; 16]>(),
        raw_start in any::<u64>(),
        values in pvec(any::<u64>(), 0..100),
    ) {
        let scheme = AsheScheme::new(&key);
        let start = start_id(raw_start);
        let batched = encrypt_column(&scheme, &values, start);
        let scalar = encrypt_column_scalar(&scheme, &values, start);
        prop_assert_eq!(batched.len(), values.len());
        for (i, &value) in values.iter().enumerate() {
            let b = batched.ciphertext_at(i);
            let s = scalar.ciphertext_at(i);
            prop_assert_eq!(b.value, s.value);
            prop_assert_eq!(&b.ids, &s.ids);
            prop_assert_eq!(b.ids.runs()[0].start, start.wrapping_add(i as u64));
            prop_assert_eq!(scheme.decrypt(&b), value);
        }
    }

    /// Batched decryption (all run boundaries gathered into a few PRF
    /// dispatches) ≡ the naive per-identifier walk, over ID sets of up to
    /// ~100 runs — past the 32-run dispatch size — that start at identifier 0
    /// (whose predecessor mask wraps to `u64::MAX`), end at `u64::MAX`, or
    /// sit anywhere.
    #[test]
    fn ashe_batched_decrypt_matches_naive_walk(
        key in any::<[u8; 16]>(),
        raw_base in any::<u64>(),
        gaps in pvec(1u64..4, 0..150),
        value in any::<u64>(),
    ) {
        let scheme = AsheScheme::new(&key);
        // Sorted identifiers: `base` plus the running sum of the gaps (a gap
        // of 1 extends a run), anchored at 0, ending at u64::MAX, or anywhere.
        let offsets: Vec<u64> = gaps
            .iter()
            .scan(0u64, |next, &gap| {
                let offset = *next;
                *next += gap;
                Some(offset)
            })
            .collect();
        let span = offsets.last().copied().unwrap_or(0);
        let base = match raw_base % 3 {
            0 => 0,
            1 => u64::MAX - span,
            _ => raw_base.min(u64::MAX - span),
        };
        let ids: Vec<u64> = offsets.iter().map(|offset| base + offset).collect();
        let ciphertext = AsheCiphertext {
            value,
            ids: IdSet::from_sorted_ids(&ids),
        };
        prop_assert_eq!(scheme.decrypt_prf_evals(&ciphertext), 2 * ciphertext.ids.run_count());
        prop_assert_eq!(scheme.decrypt(&ciphertext), scheme.decrypt_without_telescoping(&ciphertext));
    }

    // ---------------------------------------------------------------
    // ORE: the batched prefix encryption ≡ the scalar per-bit walk.
    // ---------------------------------------------------------------

    #[test]
    fn ore_encrypt_matches_scalar(key in any::<[u8; 16]>(), values in pvec(any::<u64>(), 1..24)) {
        let ore = OreScheme::new(&key);
        for &m in &values {
            prop_assert_eq!(ore.encrypt(m).symbols, ore.encrypt_scalar(m).symbols);
        }
        // Order must survive the batched path end-to-end.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for pair in sorted.windows(2) {
            prop_assert_eq!(ore.encrypt(pair[0]).compare(&ore.encrypt(pair[1])), pair[0].cmp(&pair[1]));
        }
    }

    /// A column cursor's cells do not depend on what came before them: each
    /// is the per-bit oracle's, over sequences whose neighbours share every
    /// prefix length (a step keeps the bits above a drawn position, flips it
    /// and redraws the ones below; position 64 repeats the value), and each
    /// costs the PRF blocks its common prefix with its predecessor leaves.
    #[test]
    fn ore_cursor_matches_scalar_over_sequences(
        key in any::<[u8; 16]>(),
        first in any::<u64>(),
        steps in pvec(any::<u64>(), 0..40),
    ) {
        let ore = OreScheme::new(&key);
        let mut values = vec![first];
        for &raw in &steps {
            let prev = *values.last().expect("starts non-empty");
            let noise = raw.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            values.push(match raw % 65 {
                64 => prev,
                bit => (prev ^ 1 << bit) & !((1 << bit) - 1) | noise & ((1 << bit) - 1),
            });
        }
        let mut cursor = ore.cursor();
        for (row, &m) in values.iter().enumerate() {
            let before = cursor.prf_blocks;
            prop_assert_eq!(cursor.encrypt(m).to_vec(), ore.encrypt_scalar(m).symbols, "row {}", row);
            let expected = match row.checked_sub(1) {
                None => 64,
                Some(prev) => 63u64.saturating_sub(u64::from((values[prev] ^ m).leading_zeros())),
            };
            prop_assert_eq!(cursor.prf_blocks - before, expected, "row {}", row);
        }
    }
}

/// ASHE's group is `Z_{2^64}`: decryption adds and subtracts boundary masks
/// with wrapping `u64` arithmetic, 32 runs per batched dispatch. 40 runs —
/// past one dispatch — of values near 2^63 carry the plaintext sum and both
/// boundary-mask sums past 2^64, several times each. The batched decryption
/// must still be the naive per-identifier walk's and the wrapping sum of the
/// plaintexts.
#[test]
fn ashe_decrypt_wraps_sums_past_two_to_the_64() {
    let scheme = AsheScheme::new(&[0x3c; 16]);
    // 40 runs of three identifiers, two apart, so each run is its own pair of
    // boundaries.
    let ids: Vec<u64> = (0..40u64)
        .flat_map(|run| (0..3).map(move |i| 1_000 + run * 5 + i))
        .collect();
    let values: Vec<u64> = (0..ids.len() as u64).map(|i| (1 << 63) + i * 0x9e37_79b9).collect();
    let ciphertext = scheme.sum(
        ids.iter()
            .zip(&values)
            .map(|(&id, &value)| scheme.encrypt(value, id))
            .collect::<Vec<_>>()
            .iter(),
    );
    assert_eq!(ciphertext.ids.run_count(), 40);
    let plain: u128 = values.iter().map(|&v| u128::from(v)).sum();
    assert!(plain >> 64 > 1, "the plaintext sum passes 2^64");
    let (added, subtracted) =
        ciphertext
            .ids
            .boundary_pairs()
            .fold((0u128, 0u128), |(added, subtracted), (end, before_start)| {
                (
                    added + u128::from(scheme.mask(end)),
                    subtracted + u128::from(scheme.mask(before_start)),
                )
            });
    assert!(added >> 64 > 1 && subtracted >> 64 > 1, "both mask sums pass 2^64");
    assert_eq!(scheme.decrypt(&ciphertext), plain as u64);
    assert_eq!(
        scheme.decrypt(&ciphertext),
        scheme.decrypt_without_telescoping(&ciphertext)
    );
}

/// SplitMix64: a seeded stream for the pinned sequences below.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One cursor down `values`, every cell held against the per-bit oracle;
/// returns the PRF blocks the column cost.
fn ore_column_blocks(ore: &OreScheme, values: &[u64]) -> u64 {
    let mut cursor = ore.cursor();
    for (row, &m) in values.iter().enumerate() {
        let cell = cursor.encrypt(m);
        assert_eq!(cell.as_slice(), ore.encrypt_scalar(m).symbols, "row {row}, m={m:#x}");
    }
    cursor.prf_blocks
}

/// The sequences an ingest produces, pinned by name: the order of a column
/// decides what the cursor evaluates, never what it writes — and the count of
/// PRF blocks is the write path's structural claim (64 a row if nothing were
/// shared): 5 000 shuffled seconds-of-a-day or -week cost at most 20 a row on
/// average. (The benchmark's ingest batches are time-ordered, which costs
/// less: `ore_time_ordered_column_is_pinned`.)
#[test]
fn ore_cursor_sequences_are_pinned() {
    let ore = OreScheme::new(&[0x5a; 16]);
    assert_eq!(ore_column_blocks(&ore, &[7]), 64, "a first value pays for every level");
    assert_eq!(ore_column_blocks(&ore, &[7, 7, 7]), 64, "a repeat pays nothing");
    assert_eq!(ore_column_blocks(&ore, &[u64::MAX, 0, u64::MAX]), 64 + 63 + 63);
    let ascending: Vec<u64> = (0..2_000u64).map(|i| i * 43).collect();
    let descending: Vec<u64> = ascending.iter().rev().copied().collect();
    assert!(ore_column_blocks(&ore, &ascending) < 64 + 17 * 2_000);
    assert!(ore_column_blocks(&ore, &descending) < 64 + 17 * 2_000);
    // `encrypt_i64`'s order-preserving image, walked across the sign boundary.
    let signed = [-2i64, -1, 0, 1, i64::MIN, i64::MAX, -1, 0];
    let image: Vec<u64> = signed.iter().map(|&v| (v as u64) ^ (1 << 63)).collect();
    ore_column_blocks(&ore, &image);
    for (&v, &m) in signed.iter().zip(&image) {
        assert_eq!(ore.encrypt_i64(v), ore.encrypt_scalar(m));
    }
    let mut state = 1u64;
    let full_width: Vec<u64> = (0..5_000).map(|_| splitmix(&mut state)).collect();
    assert!(ore_column_blocks(&ore, &full_width) > 61 * 5_000, "nothing to share");
    for (below, at_most_per_row) in [(86_400u64, 20u64), (604_800, 20)] {
        let values: Vec<u64> = (0..5_000).map(|_| splitmix(&mut state) % below).collect();
        let blocks = ore_column_blocks(&ore, &values);
        assert!(
            blocks <= at_most_per_row * 5_000,
            "{blocks} PRF blocks for 5 000 values below {below}"
        );
        // A fresh cursor's first cell is `encrypt`, wherever the column starts.
        assert_eq!(
            ore.cursor().encrypt(values[0]).as_slice(),
            ore.encrypt(values[0]).symbols
        );
    }
}

/// The exact batch sizes a prepared-statement bind produces (a handful of
/// literals) must go through the same code the proptests exercised — pin the
/// tiny sizes explicitly so a future fast path for them cannot drift.
#[test]
fn tiny_bind_batches_are_pinned() {
    let scheme = AsheScheme::new(&[7u8; 16]);
    for n in 0..5u64 {
        let values: Vec<u64> = (0..n).map(|v| v * 1_000_003).collect();
        let run = scheme.encrypt_run(&values, 40);
        assert_eq!(run.len(), values.len());
        for (i, c) in run.iter().enumerate() {
            assert_eq!(c.value, scheme.encrypt(values[i], 40 + i as u64).value);
        }
    }
    let prf = AesPrf::new(&[3u8; 16]);
    let mut out = [0u64; 1];
    prf.eval_run(u64::MAX, 0, &mut out);
    assert_eq!(out[0], prf.eval(u64::MAX, 0));
}

/// The PRF blocks a cursor owes `values`: 64 for the first, `63 - lcp` with
/// its predecessor for each after.
fn owed_ore_blocks(values: &[u64]) -> u64 {
    let later = values
        .windows(2)
        .map(|pair| 63u64.saturating_sub(u64::from((pair[0] ^ pair[1]).leading_zeros())));
    values.first().map_or(0, |_| 64 + later.sum::<u64>())
}

/// `values` through one cursor in runs of the given lengths (the rest as a
/// last run): every cell the per-bit oracle's, and the PRF blocks exactly what
/// the common prefixes leave.
fn ore_runs_match_oracle(ore: &OreScheme, values: &[u64], runs: &[usize]) {
    let mut cursor = ore.cursor();
    let mut cells = Vec::with_capacity(values.len());
    let mut rest = values;
    for &len in runs {
        let (run, tail) = rest.split_at(len.min(rest.len()));
        cursor.encrypt_run(run, |cell| cells.push(cell));
        rest = tail;
    }
    cursor.encrypt_run(rest, |cell| cells.push(cell));
    assert_eq!(cells.len(), values.len());
    for (row, (cell, &m)) in cells.iter().zip(values).enumerate() {
        assert_eq!(cell.as_slice(), ore.encrypt_scalar(m).symbols, "row {row}, m={m:#x}");
    }
    assert_eq!(
        cursor.prf_blocks,
        owed_ore_blocks(values),
        "{} values in runs {runs:?}",
        values.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A column's cells and PRF blocks do not depend on where its runs are
    /// cut: any split of a sequence whose neighbours share every prefix length
    /// (as in `ore_cursor_matches_scalar_over_sequences`) is the oracle's.
    #[test]
    fn ore_encrypt_run_matches_scalar_however_the_column_is_cut(
        key in any::<[u8; 16]>(),
        first in any::<u64>(),
        steps in pvec(any::<u64>(), 0..120),
        cuts in pvec(0usize..70, 0..6),
    ) {
        let ore = OreScheme::new(&key);
        let mut values = vec![first];
        for &raw in &steps {
            let prev = *values.last().expect("starts non-empty");
            let noise = raw.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            values.push(match raw % 65 {
                64 => prev,
                bit => (prev ^ 1 << bit) & !((1 << bit) - 1) | noise & ((1 << bit) - 1),
            });
        }
        ore_runs_match_oracle(&ore, &values, &cuts);
    }
}

/// Every run length around the dispatch size `B` — 0, 1, B − 1, B, B + 1,
/// 2B + 1 and 5 000 — over repeats, one value throughout, full-width values, a
/// top bit that flips every row, and `encrypt_i64`'s image across the sign
/// boundary, as one run and cut at every boundary length.
#[test]
fn ore_encrypt_run_is_pinned_at_every_batch_boundary() {
    let ore = OreScheme::new(&[0xb7; 16]);
    let b = seabed_crypto::OreCursor::RUN_ROWS;
    let boundaries = [0, 1, b - 1, b, b + 1, 2 * b + 1];
    let mut state = 3u64;
    for len in boundaries.into_iter().chain([5_000]) {
        let signed: Vec<i64> = (0..len as i64).map(|i| i - len as i64 / 2).collect();
        let image: Vec<u64> = signed.iter().map(|&v| (v as u64) ^ (1 << 63)).collect();
        let sequences = [
            (0..len as u64).map(|i| i / 4 * 31).collect::<Vec<u64>>(),
            vec![7; len],
            (0..len).map(|_| splitmix(&mut state)).collect(),
            (0..len as u64).map(|i| ((i % 2) << 63) | (i * 3)).collect(),
            image.clone(),
        ];
        for values in &sequences {
            ore_runs_match_oracle(&ore, values, &[]);
            ore_runs_match_oracle(&ore, values, &boundaries.repeat(8));
        }
        for (&v, &m) in signed.iter().zip(&image) {
            assert_eq!(ore.encrypt_i64(v), ore.encrypt_scalar(m));
        }
    }
}

/// The sequence the benchmark's ingest encrypts: 5 000 ascending
/// seconds-of-a-day, ≈ 17 apart. A row shares all but its low levels with the
/// one before, so the column costs at most 6 PRF blocks a row — about 5 —
/// where shuffled it costs about 15.
#[test]
fn ore_time_ordered_column_is_pinned() {
    let ore = OreScheme::new(&[0x5a; 16]);
    let mut state = 1u64;
    let values: Vec<u64> = (0..5_000u64).map(|i| i * 17 + splitmix(&mut state) % 17).collect();
    assert!(values.windows(2).all(|pair| pair[0] <= pair[1]));
    ore_runs_match_oracle(&ore, &values, &[]);
    let blocks = owed_ore_blocks(&values);
    assert!(blocks <= 6 * 5_000, "{blocks} PRF blocks for 5 000 time-ordered values");
}
