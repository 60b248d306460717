//! Cross-system equivalence: NoEnc, Seabed (ASHE) and Paillier must produce
//! identical answers for the same selections, and their relative costs must
//! have the shape the paper reports.

use seabed_ashe::{AsheScheme, IdSet};
use seabed_bench::baselines::{row_selected, ClusterModel, NoEncSystem, PaillierSystem};

fn values(n: u64) -> Vec<u64> {
    (0..n).map(|i| (i * 31 + 7) % 10_000).collect()
}

#[test]
fn all_three_systems_agree_on_sums() {
    let vals = values(4_000);
    let cluster = ClusterModel::new(16);
    let noenc = NoEncSystem::new(&vals, None, 8, cluster);
    let mut rng = rand::rng();
    let paillier = PaillierSystem::new(&vals[..1_000], None, 4, cluster, 128, &mut rng);
    let ashe = AsheScheme::new(&[1u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&ashe, &vals, 0);

    for selectivity in [0.0, 0.25, 0.5, 1.0] {
        let expected: u64 = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| row_selected(*i as u64, selectivity))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(noenc.sum(selectivity).sum, expected, "NoEnc at {selectivity}");

        let agg = seabed_ashe::aggregate_where(&encrypted, |i| row_selected(i as u64, selectivity));
        assert_eq!(ashe.decrypt(&agg), expected, "ASHE at {selectivity}");
    }
    // Paillier checked on its (smaller) prefix.
    let expected_prefix: u64 = vals[..1_000]
        .iter()
        .enumerate()
        .filter(|(i, _)| row_selected(*i as u64, 0.5))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(paillier.sum(0.5).sum, expected_prefix);
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
    let cluster = ClusterModel::new(4);
    let mut rng = rand::rng();
    let paillier = PaillierSystem::new(&vals, None, 4, cluster, 128, &mut rng);

    let ashe = AsheScheme::new(&[1u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&ashe, &vals, 0);
    let start = std::time::Instant::now();
    let agg = seabed_ashe::aggregate_where(&encrypted, |_| true);
    let _ = ashe.decrypt(&agg);
    let ashe_time = start.elapsed();

    let result = paillier.sum(1.0);
    let paillier_time = result.stats.total_task_time + result.client_time;
    assert!(
        paillier_time > ashe_time * 10,
        "Paillier ({paillier_time:?}) should be far slower than ASHE ({ashe_time:?}) even at a 128-bit modulus"
    );
}

#[test]
fn group_by_results_agree() {
    let vals = values(3_000);
    let groups: Vec<u64> = (0..3_000u64).map(|i| i % 12).collect();
    let cluster = ClusterModel::new(8);
    let noenc = NoEncSystem::new(&vals, Some(&groups), 6, cluster);
    let (plain, _) = noenc.group_by_sum(1.0);
    let mut rng = rand::rng();
    let paillier = PaillierSystem::new(&vals, Some(&groups), 6, cluster, 128, &mut rng);
    let (enc, _, _) = paillier.group_by_sum(1.0);
    assert_eq!(plain.len(), enc.len());
    for (k, v) in &plain {
        assert_eq!(enc[k], *v, "group {k}");
    }
}
