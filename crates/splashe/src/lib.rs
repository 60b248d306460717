//! # seabed-splashe
//!
//! SPLASHE — SPLayed ASHE (Papadimitriou et al., OSDI 2016, §3.3–3.4 and
//! Appendix A.2), the defence Seabed deploys against frequency attacks on
//! deterministically encrypted dimensions.
//!
//! * [`basic`] — basic SPLASHE: splay a low-cardinality dimension (and each
//!   co-queried measure) into one ASHE column per value; fully semantically
//!   secure, storage grows by the cardinality.
//! * [`enhanced`] — enhanced SPLASHE: splay only the frequent values, route
//!   infrequent values through an "others" column plus a deterministic column
//!   whose histogram is flattened with dummy entries; leaks only the number of
//!   rows and the number of frequent/infrequent values.
//! * [`planner`] — the storage-budgeted planning step that decides which
//!   dimensions get SPLASHE (Figure 10b).
//! * [`attack`] — the Naveed-style frequency attack, used to demonstrate what
//!   DET leaks and what SPLASHE protects.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod basic;
pub mod enhanced;
pub mod planner;

pub use attack::{frequency_attack, AttackResult, AuxiliaryDistribution};
pub use basic::{basic_storage_factor, BasicSplashe, BasicSplayedColumns};
pub use enhanced::{plan_enhanced, EnhancedPlan, EnhancedSplashe, EnhancedSplayedColumns};
pub use planner::{overhead_curve, plan_under_budget, DimensionDecision, DimensionProfile, OverheadPoint};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn distribution_strategy() -> impl Strategy<Value = Vec<(String, u64)>> {
        proptest::collection::vec(1u64..200, 2..12).prop_map(|counts| {
            counts
                .into_iter()
                .enumerate()
                .map(|(i, c)| (format!("v{i}"), c))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn enhanced_plan_is_always_feasible(dist in distribution_strategy()) {
            let plan = plan_enhanced(&dist);
            let count_of = |v: &String| dist.iter().find(|(x, _)| x == v).map(|(_, c)| *c).unwrap();
            let available: u64 = plan.frequent.iter().map(&count_of).sum();
            let needed: u64 = plan
                .infrequent
                .iter()
                .map(|v| plan.pad_target.saturating_sub(count_of(v)))
                .sum();
            prop_assert!(available >= needed, "k={} infeasible", plan.k());
            prop_assert_eq!(plan.cardinality(), dist.len());
        }

        #[test]
        fn enhanced_aggregates_match_plaintext(dist in distribution_strategy(), seed in any::<u64>()) {
            // Materialize rows following the distribution, with deterministic
            // pseudo-random measures.
            let mut rows: Vec<(String, u64)> = Vec::new();
            for (value, count) in &dist {
                for i in 0..*count {
                    rows.push((value.clone(), (i * 31 + seed % 1000) % 10_000));
                }
            }
            let plan = plan_enhanced(&dist);
            let keys: Vec<[u8; 16]> = (0..plan.k() + 1).map(|i| [i as u8 + 1; 16]).collect();
            let enc = EnhancedSplashe::new(plan, &[5u8; 32], keys);
            let cols = enc.encode_rows(&rows, 0, &mut rand::rng());

            let mut expected: HashMap<String, u64> = HashMap::new();
            for (v, m) in &rows {
                *expected.entry(v.clone()).or_insert(0) += m;
            }
            for (value, sum) in &expected {
                prop_assert_eq!(enc.sum_where(&cols, value), Some(*sum));
            }
        }

        #[test]
        fn enhanced_histogram_stays_flat(dist in distribution_strategy()) {
            let mut rows: Vec<(String, u64)> = Vec::new();
            for (value, count) in &dist {
                for _ in 0..*count {
                    rows.push((value.clone(), 1));
                }
            }
            let plan = plan_enhanced(&dist);
            // Skip the degenerate all-splayed case (no DET column to inspect).
            prop_assume!(plan.c() > 0);
            let keys: Vec<[u8; 16]> = (0..plan.k() + 1).map(|i| [i as u8 + 1; 16]).collect();
            let enc = EnhancedSplashe::new(plan, &[5u8; 32], keys);
            let cols = enc.encode_rows(&rows, 0, &mut rand::rng());
            let hist = cols.det_histogram();
            let max = *hist.values().max().unwrap();
            let min = *hist.values().min().unwrap();
            prop_assert!(max - min <= 1, "histogram spread {}-{}: {:?}", max, min, hist);
        }

        #[test]
        fn basic_splashe_counts_and_sums_match(counts in proptest::collection::vec(0u64..40, 2..6), seed in any::<u32>()) {
            let domain: Vec<String> = (0..counts.len()).map(|i| format!("d{i}")).collect();
            let mut rows = Vec::new();
            for (j, &c) in counts.iter().enumerate() {
                for i in 0..c {
                    rows.push((domain[j].clone(), (i + seed as u64) % 997));
                }
            }
            let keys: Vec<[u8; 16]> = (0..2 * domain.len()).map(|i| [i as u8 + 1; 16]).collect();
            let enc = BasicSplashe::new(domain.clone(), keys);
            let cols = enc.encode_rows(&rows, 100);
            for (j, value) in domain.iter().enumerate() {
                let expected_count = rows.iter().filter(|(v, _)| v == value).count() as u64;
                let expected_sum: u64 = rows.iter().filter(|(v, _)| v == value).map(|(_, m)| *m).sum();
                prop_assert_eq!(enc.count_where(&cols, value), Some(expected_count), "count col {}", j);
                prop_assert_eq!(enc.sum_where(&cols, value), Some(expected_sum), "sum col {}", j);
            }
        }

        #[test]
        fn det_attack_recovers_skewed_columns_splashe_does_not(skew in 2u64..20) {
            // Build a skewed column, attack its DET encoding (should succeed)
            // and a flattened encoding of the same data (should mostly fail).
            let values = ["A", "B", "C", "D"];
            let mut rows: Vec<String> = Vec::new();
            for (i, v) in values.iter().enumerate() {
                // Strictly decreasing counts so rank matching is unambiguous.
                let rank_bonus = (values.len() - i) as u64 * 1_000;
                let count = 10 + skew.pow((values.len() - i) as u32).min(5_000) + rank_bonus;
                for _ in 0..count {
                    rows.push(v.to_string());
                }
            }
            let det = seabed_crypto::DetScheme::new(&[9u8; 32]);
            let tags: Vec<u64> = rows.iter().map(|v| det.tag64_of(v.as_bytes())).collect();
            let mut aux_counts: HashMap<&str, u64> = HashMap::new();
            for r in &rows {
                *aux_counts.entry(values.iter().find(|v| *v == r).unwrap()).or_insert(0) += 1;
            }
            let aux = AuxiliaryDistribution::from_counts(aux_counts.iter().map(|(k, v)| (*k, *v)));
            let det_result = frequency_attack(&tags, &aux, &rows);
            prop_assert!(det_result.row_recovery_rate() > 0.99);

            // Flat (SPLASHE-like) encoding of the same rows.
            let flat_tags: Vec<u64> = (0..rows.len() as u64).map(|i| i % values.len() as u64).collect();
            let flat_result = frequency_attack(&flat_tags, &aux, &rows);
            prop_assert!(flat_result.row_recovery_rate() < 0.6);
        }
    }
}
