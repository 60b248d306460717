//! # seabed-splashe
//!
//! SPLASHE — SPLayed ASHE (Papadimitriou et al., OSDI 2016, §3.3–3.4 and
//! Appendix A.2), the defence Seabed deploys against frequency attacks on
//! deterministically encrypted dimensions.
//!
//! * [`enhanced`] — enhanced SPLASHE: splay only the frequent values, route
//!   infrequent values through an "others" column plus a deterministic column
//!   whose histogram is flattened with dummy entries; leaks only the number of
//!   rows and the number of frequent/infrequent values. It is the one place
//!   that decides enhanced SPLASHE: the plan, a value's slot, the columns a
//!   dimension adds and the balanced DET column the upload writes.
//! * [`planner`] — the paper's storage model: Figure 10b's cumulative
//!   overhead of basic SPLASHE (§3.3: every value splayed, storage grows by
//!   the cardinality) against enhanced SPLASHE.
//! * [`attack`] — the Naveed-style frequency attack, used to demonstrate what
//!   DET leaks and what SPLASHE protects.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
pub mod enhanced;
pub mod planner;

pub use attack::{frequency_attack, AttackResult, AuxiliaryDistribution};
pub use enhanced::{balanced_column, plan_enhanced, EnhancedPlan, EnhancedSplashe, EnhancedSplayedColumns};
pub use planner::{overhead_curve, DimensionProfile, OverheadPoint};

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
            let available: u64 = plan.frequent().iter().map(&count_of).sum();
            let needed: u64 = plan
                .infrequent()
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
                prop_assert_eq!(enc.sum_where(&cols, value), *sum);
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
        fn det_attack_recovers_skewed_columns_splashe_does_not(skew in 2u64..20) {
            // Build a skewed column, attack its DET encoding (should succeed)
            // and its enhanced-SPLASHE encoding (should mostly fail).
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

            // The same rows as enhanced SPLASHE stores them: the attacker sees
            // the balanced DET column the upload writes.
            let distribution: Vec<(String, u64)> = aux_counts.iter().map(|(v, c)| (v.to_string(), *c)).collect();
            let plan = plan_enhanced(&distribution);
            let keys = vec![[4u8; 16]; plan.k() + 1];
            let splashe = EnhancedSplashe::new(plan, &[9u8; 32], keys);
            let splayed: Vec<(String, u64)> = rows.iter().map(|v| (v.clone(), 1)).collect();
            let cols = splashe.encode_rows(&splayed, 0, &mut rand::rng());
            let splashe_result = frequency_attack(&cols.det_column, &aux, &rows);
            prop_assert!(splashe_result.row_recovery_rate() < 0.6);
        }
    }
}
