//! Property tests for the partial-aggregate merge algebra
//! (`seabed_engine::merge`): associativity, commutativity and
//! order-invariance — first on the bare algebra, then through the real
//! pipeline (ASHE words, SPLASHE splayed counts, DET tags, ORE candidates):
//! any random split of a table's partitions, executed as separate partials
//! and merged in any order, must finalize byte-identically to single-pass
//! execution. This is the property that makes the `seabed-dist` coordinator
//! safe: shard gather order, straggler arrival order and re-dispatch can
//! never change a result.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed_ashe::IdSet;
use seabed_core::{finalize_partials, PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_crypto::OreScheme;
use seabed_engine::merge::{merge_partial_groups, ExtremeCandidate, PartialAggregate, PartialGroup, PartialGroups};
use seabed_engine::{Cluster, ClusterConfig, ExecStats, Table};
use seabed_query::{parse, ColumnSpec, PlannerConfig, Query};

/// SplitMix-style mixer for deterministic pseudo-random test data.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed ^ a.wrapping_mul(0x9e3779b97f4a7c15) ^ b.wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Builds `n` random partials of one `SUM, SUM, COUNT` group over disjoint ID
/// ranges: two sums and a count beside the one ID set they share.
fn random_sums(seed: u64, n: usize) -> Vec<PartialGroup> {
    let mut out = Vec::with_capacity(n);
    let mut next_id = 0u64;
    for i in 0..n as u64 {
        let span = mix(seed, i, 1) % 50;
        let ids = if span == 0 {
            IdSet::new()
        } else {
            IdSet::range(next_id, next_id + span - 1)
        };
        next_id += span + (mix(seed, i, 2) % 3);
        out.push(PartialGroup {
            ids,
            aggregates: vec![
                PartialAggregate::Sum { value: mix(seed, i, 3) },
                PartialAggregate::Sum { value: mix(seed, i, 4) },
                PartialAggregate::Count,
            ],
        });
    }
    out
}

/// The empty `SUM, SUM, COUNT` group.
fn no_rows() -> PartialGroup {
    PartialGroup::new(vec![
        PartialAggregate::Sum { value: 0 },
        PartialAggregate::Sum { value: 0 },
        PartialAggregate::Count,
    ])
}

/// Folds partials left-to-right in the given order, by `merge`.
fn fold<T: Clone>(parts: &[T], order: &[usize], empty: T, merge: impl Fn(&mut T, T)) -> T {
    let mut acc = empty;
    for &i in order {
        merge(&mut acc, parts[i].clone());
    }
    acc
}

/// A random permutation of `0..n` derived from `seed`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.random_range(0..(i as u64 + 1)) as usize);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Groups of sums: any permutation folds to the same state, and any
    /// bracketing (fold a random prefix first, then the rest) agrees —
    /// associativity + commutativity on real wrapping sums and the group's one
    /// ID union — and the fold is not idempotent.
    #[test]
    fn sum_merge_is_permutation_and_bracketing_invariant(
        seed in any::<u64>(),
        n in 1usize..12,
        split in 0usize..12,
    ) {
        let parts = random_sums(seed, n);
        let identity: Vec<usize> = (0..n).collect();
        let reference = fold(&parts, &identity, no_rows(), PartialGroup::merge);
        prop_assert_eq!(
            reference.ids.count(),
            parts.iter().map(|part| part.ids.count()).sum::<u64>(),
            "disjoint ranges union to their total"
        );

        // Permutation invariance.
        let order = permutation(seed ^ 0xabcd, n);
        prop_assert_eq!(fold(&parts, &order, no_rows(), PartialGroup::merge), reference.clone());

        // Bracketing invariance: (prefix fold) merge (suffix fold).
        let split = split.min(n);
        let mut left = fold(&parts, &identity[..split], no_rows(), PartialGroup::merge);
        let right = fold(&parts, &identity[split..], no_rows(), PartialGroup::merge);
        left.merge(right);
        prop_assert_eq!(&left, &reference);

        // Not idempotent: a partial folded twice doubles its words while the
        // one ID union absorbs it — which is why gather points dedup by seq.
        let mut replayed = reference.clone();
        replayed.merge(parts[0].clone());
        prop_assert_eq!(&replayed.ids, &reference.ids);
        let PartialAggregate::Sum { value: once } = reference.aggregates[0] else { unreachable!() };
        let PartialAggregate::Sum { value: again } = parts[0].aggregates[0] else { unreachable!() };
        prop_assert_eq!(&replayed.aggregates[0], &PartialAggregate::Sum { value: once.wrapping_add(again) });
    }

    /// MIN/MAX candidates through the real ORE scheme: the winner is the
    /// true extremum no matter the merge order.
    #[test]
    fn extreme_merge_picks_the_true_extremum_in_any_order(
        seed in any::<u64>(),
        n in 1usize..10,
        want_max in any::<bool>(),
    ) {
        let ore = OreScheme::new(&[7u8; 16]);
        let plains: Vec<u64> = (0..n as u64).map(|i| mix(seed, i, 9) % 10_000).collect();
        let parts: Vec<PartialAggregate> = plains
            .iter()
            .enumerate()
            .map(|(i, &v)| PartialAggregate::Extreme {
                best: Some(ExtremeCandidate {
                    ciphertext: ore.encrypt(v),
                    value_word: v,
                    row_id: i as u64,
                }),
                want_max,
            })
            .collect();
        let winner = if want_max {
            *plains.iter().max().expect("non-empty")
        } else {
            *plains.iter().min().expect("non-empty")
        };
        let empty = PartialAggregate::Extreme { best: None, want_max };
        for variant in 0..3u64 {
            let order = permutation(seed ^ variant, n);
            let folded = fold(&parts, &order, empty.clone(), PartialAggregate::merge);
            prop_assert!(matches!(
                &folded,
                PartialAggregate::Extreme { best: Some(c), .. } if c.value_word == winner
            ), "order {order:?} picked a non-extremum: {folded:?}");
        }
    }

    /// Group maps: merging per-group maps in any order yields the same map.
    #[test]
    fn group_map_merge_is_order_invariant(
        seed in any::<u64>(),
        maps in 1usize..6,
        keys in 1u64..5,
    ) {
        let sources: Vec<PartialGroups> = (0..maps as u64)
            .map(|m| {
                let mut g = PartialGroups::new();
                for k in 0..keys {
                    if mix(seed, m, k).is_multiple_of(3) {
                        continue; // not every map carries every key
                    }
                    g.insert(
                        vec![k],
                        PartialGroup {
                            ids: IdSet::range(m * 1_000 + k * 10, m * 1_000 + k * 10 + 3),
                            aggregates: vec![PartialAggregate::Sum {
                                value: mix(seed, m, k + 100),
                            }],
                        },
                    );
                }
                g
            })
            .collect();
        let fold_in = |order: &[usize]| {
            let mut merged = PartialGroups::new();
            for &i in order {
                merge_partial_groups(&mut merged, sources[i].clone());
            }
            merged
        };
        let identity: Vec<usize> = (0..maps).collect();
        let reference = fold_in(&identity);
        let shuffled = permutation(seed ^ 0x55, maps);
        prop_assert_eq!(fold_in(&shuffled), reference);
    }
}

// ---------------------------------------------------------------------------
// Through the real pipeline: random partition splits ≡ single pass.
// ---------------------------------------------------------------------------

const COUNTRIES: [&str; 4] = ["USA", "Canada", "India", "Chile"];

/// Splits a table's partitions into contiguous sub-tables at random cut
/// points, mimicking an arbitrary shard layout.
fn random_split(table: &Table, seed: u64) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut splits: Vec<Table> = Vec::new();
    let mut current: Vec<seabed_engine::Partition> = Vec::new();
    for partition in table.partitions.clone() {
        current.push(partition);
        if rng.random_range(0..3u64) == 0 {
            splits.push(Table {
                schema: table.schema.clone(),
                partitions: std::mem::take(&mut current),
            });
        }
    }
    if !current.is_empty() {
        splits.push(Table {
            schema: table.schema.clone(),
            partitions: current,
        });
    }
    splits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full property behind the coordinator: a table encrypted with real
    /// ASHE/SPLASHE/DET/ORE, split at random partition boundaries, executed
    /// split-by-split via `execute_partial`, merged in a random order and
    /// finalized, is byte-identical to single-pass execution — encrypted
    /// groups, ID lists and result bytes — and decrypts to the same rows.
    #[test]
    fn random_partition_splits_finalize_identically(
        seed in any::<u64>(),
        rows in 8usize..64,
        partitions in 2usize..7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dataset = PlainDataset::new("sales")
            .with_text_column(
                "country",
                (0..rows).map(|i| COUNTRIES[mix(seed, i as u64, 1) as usize % COUNTRIES.len()].to_string()).collect(),
            )
            .with_uint_column("revenue", (0..rows as u64).map(|i| mix(seed, i, 2) % 1_000).collect())
            .with_uint_column("ts", (0..rows as u64).map(|i| mix(seed, i, 3) % 500).collect())
            .with_text_column("dept", (0..rows).map(|i| format!("d{}", mix(seed, i as u64, 4) % 3)).collect());
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", dataset.distribution("country").expect("country")),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::sensitive("dept"),
        ];
        let samples: Vec<Query> = [
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 100",
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            "SELECT MIN(ts) FROM sales",
        ]
        .iter()
        .map(|sql| parse(sql).expect("sample"))
        .collect();
        let mut client = SeabedClient::create_plan(b"merge-prop", &columns, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(&dataset, partitions, &mut rng);

        let full_server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
        let splits = random_split(&encrypted.table, seed ^ 0x77);

        for sql in [
            "SELECT SUM(revenue) FROM sales",
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 100",
            "SELECT dept, SUM(revenue) FROM sales GROUP BY dept",
            "SELECT MIN(ts) FROM sales",
            "SELECT MAX(ts) FROM sales",
        ] {
            let session = SeabedSession::single("sales", client.clone(), &full_server);
            let executed = session.prepare(sql).and_then(|prepared| {
                let (translated, single) = session.execute_encrypted(&prepared, &[])?;
                let filters = client.encrypt_filters(full_server.schema(), &translated)?;
                Ok((prepared, translated, filters, single))
            });
            let (prepared, translated, filters, single) = match executed {
                Ok(executed) => executed,
                Err(e) => { prop_assert!(false, "single-pass {sql}: {e}"); unreachable!() }
            };
            let query = prepared.query();

            // Execute each split separately, then merge in a random order.
            let mut partials = Vec::new();
            for split in &splits {
                let split_server = SeabedServer::new(split.clone(), Cluster::new(ClusterConfig::default()));
                match split_server.execute_partial(&translated, &filters) {
                    Ok(p) => partials.push(p),
                    Err(e) => { prop_assert!(false, "split {sql}: {e}"); unreachable!() }
                }
            }
            let order = permutation(seed ^ 0x99, partials.len());
            let mut merged = PartialGroups::new();
            for &i in &order {
                merge_partial_groups(&mut merged, partials[i].groups.clone());
            }
            let reassembled = finalize_partials(&translated, merged, ExecStats::default());
            prop_assert_eq!(&single.groups, &reassembled.groups, "encrypted groups diverged for {}", sql);
            prop_assert_eq!(single.result_bytes(), reassembled.result_bytes(), "result bytes diverged for {}", sql);

            // And the decrypted answers agree (exact ID sets are implied:
            // ASHE decryption fails loudly on a wrong ID set).
            let a = match client.decrypt_response(query, &translated, single) {
                Ok(r) => r.rows,
                Err(e) => { prop_assert!(false, "decrypt single {sql}: {e}"); unreachable!() }
            };
            let b = match client.decrypt_response(query, &translated, reassembled) {
                Ok(r) => r.rows,
                Err(e) => { prop_assert!(false, "decrypt merged {sql}: {e}"); unreachable!() }
            };
            prop_assert_eq!(a, b, "decrypted rows diverged for {}", sql);
        }
    }
}
