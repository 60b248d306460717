//! Cross-system equivalence: NoEnc, Seabed (ASHE) and Paillier must produce
//! identical answers for the same selections, and their relative costs must
//! have the shape the paper reports. Paillier sums here under a small key;
//! the paper harness costs it (`PaillierCost`) instead of running it.

use seabed_ashe::{AsheScheme, IdSet};
use seabed_bench::baselines::{row_selected, NoEncSystem, PaillierCost, PaillierKeypair};

fn values(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 31 + 7) % 10_000).collect()
}

/// `values` encrypted one by one, summed homomorphically, decrypted once.
fn paillier_sum(keypair: &PaillierKeypair, values: impl IntoIterator<Item = u64>) -> u64 {
    let (public, mut rng) = (&keypair.public, rand::rng());
    let sum = values.into_iter().fold(public.zero_ciphertext(), |acc, v| {
        public.add(&acc, &public.encrypt_u64(&mut rng, v))
    });
    keypair.private.decrypt_u64(&sum)
}

#[test]
fn all_three_systems_agree_on_sums() {
    let vals = values(4_000);
    let noenc = NoEncSystem::new(&vals, None, 8);
    let paillier = PaillierKeypair::generate(&mut rand::rng(), 128);
    let ashe = AsheScheme::new(&[1u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&ashe, &vals, 0);

    for selectivity in [0.0, 0.25, 0.5, 1.0] {
        let selected = |i: &usize| row_selected(*i as u64, selectivity);
        let expected: u64 = (0..vals.len()).filter(selected).map(|i| vals[i]).sum();
        assert_eq!(noenc.sum(selectivity).sum, expected, "NoEnc at {selectivity}");

        let agg = seabed_ashe::aggregate_where(&encrypted, |i| row_selected(i as u64, selectivity));
        assert_eq!(ashe.decrypt(&agg), expected, "ASHE at {selectivity}");

        // Paillier checked on a prefix: one encryption a row.
        let prefix: u64 = (0..1_000).filter(selected).map(|i| vals[i]).sum();
        let got = paillier_sum(&paillier, (0..1_000).filter(selected).map(|i| vals[i]));
        assert_eq!(got, prefix, "Paillier at {selectivity}");
    }
}

#[test]
fn ashe_result_size_is_constant_for_full_scans() {
    // The headline property: a full-table ASHE aggregate ships a constant-size
    // ID list, regardless of row count.
    let small = IdSet::range(0, 9_999);
    let large = IdSet::range(0, 9_999_999);
    let (enc, size) = large.smallest_encoding();
    assert_eq!(enc, seabed_encoding::IdListEncoding::seabed_default());
    assert!(size <= small.smallest_encoding().1 + 4);
}

#[test]
fn paillier_is_much_slower_per_row_than_ashe() {
    let vals = values(2_000);
    let ashe = AsheScheme::new(&[1u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&ashe, &vals, 0);
    let start = std::time::Instant::now();
    let agg = seabed_ashe::aggregate_where(&encrypted, |_| true);
    let _ = ashe.decrypt(&agg);
    let ashe_time = start.elapsed();

    // Paillier's real sum of as many rows, additions and decryption.
    let mut rng = rand::rng();
    let sum = PaillierCost::measure(&mut rng, 128).pipeline_sum(&mut rng, vals.len() as u64);
    assert_eq!(sum.sum, sum.expected);
    let paillier_time = sum.measured.median;
    assert!(
        paillier_time > ashe_time * 10,
        "Paillier ({paillier_time:?}) should be far slower than ASHE ({ashe_time:?}) even at a 128-bit modulus"
    );
}

#[test]
fn group_by_results_agree() {
    let vals = values(3_000);
    let groups: Vec<u64> = (0..3_000u64).map(|i| i % 12).collect();
    let noenc = NoEncSystem::new(&vals, Some(&groups), 6);
    let (plain, rows) = noenc.group_by_sum(1.0);
    assert_eq!(rows, 3_000);
    let paillier = PaillierKeypair::generate(&mut rand::rng(), 128);
    assert_eq!(plain.len(), 12);
    for (k, v) in &plain {
        let members = vals.iter().zip(&groups).filter(|(_, g)| *g == k).map(|(v, _)| *v);
        assert_eq!(paillier_sum(&paillier, members), *v, "group {k}");
    }
}
