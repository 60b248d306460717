//! Enhanced SPLASHE (§3.4, Appendix A.2).
//!
//! Basic SPLASHE multiplies storage by the dimension's cardinality `d`, which
//! is wasteful when only a few values are common. Enhanced SPLASHE splays only
//! the `k` *frequent* values into their own ASHE measure columns, routes every
//! infrequent value through a single "others" measure column, and keeps one
//! deterministically-encrypted dimension column for equality filtering of the
//! infrequent values.
//!
//! The deterministic column would normally leak value frequencies; enhanced
//! SPLASHE prevents that by reusing the cells of rows holding *frequent*
//! values (whose DET cell is otherwise unused) to store *dummy* encryptions of
//! infrequent values, balancing every infrequent value's ciphertext count.
//! Dummy rows carry ASHE(0) in the "others" measure column, so aggregates stay
//! correct while the adversary sees a flat histogram and learns only the
//! number of rows `n`, the number of frequent values `j` and the number of
//! infrequent values `c` (Definition 1 in the appendix).

use rand::seq::SliceRandom;
use rand::Rng;
use seabed_ashe::{AsheScheme, EncryptedColumn};
use seabed_crypto::DetScheme;
use std::collections::HashMap;

/// The output of the enhanced-SPLASHE planning step for one dimension.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EnhancedPlan {
    /// The `k` frequent values, most frequent first; each gets its own column.
    pub frequent: Vec<String>,
    /// The `c = d - k` infrequent values sharing the "others" column.
    pub infrequent: Vec<String>,
    /// The balancing target: every infrequent value appears at least this many
    /// times in the deterministic column after padding.
    pub pad_target: u64,
}

impl EnhancedPlan {
    /// Number of splayed (frequent) values `k`.
    pub fn k(&self) -> usize {
        self.frequent.len()
    }

    /// Number of infrequent values `c`.
    pub fn c(&self) -> usize {
        self.infrequent.len()
    }

    /// Dimension cardinality `d`.
    pub fn cardinality(&self) -> usize {
        self.k() + self.c()
    }

    /// Storage expansion factor when this dimension is co-queried with
    /// `measures` measure columns: the dimension keeps one (DET) column and
    /// each measure expands into `k + 1` columns.
    pub fn storage_factor(&self, measures: usize) -> f64 {
        let plain = 1 + measures;
        let splayed = 1 + measures * (self.k() + 1);
        splayed as f64 / plain as f64
    }
}

/// Chooses the minimal number of splayed columns `k` such that the cells of
/// the frequent rows suffice to pad every infrequent value up to the most
/// frequent infrequent count (the condition
/// `Σ_{i≤k} n_i ≥ Σ_{i>k} (n_{k+1} − n_i)` from §3.4).
///
/// `distribution` maps each domain value to its (expected) number of
/// occurrences; the paper only needs the distribution, not exact counts.
pub fn plan_enhanced(distribution: &[(String, u64)]) -> EnhancedPlan {
    let mut sorted: Vec<(String, u64)> = distribution.to_vec();
    sorted.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let counts: Vec<u64> = sorted.iter().map(|(_, c)| *c).collect();
    let d = sorted.len();
    if d == 0 {
        return EnhancedPlan {
            frequent: Vec::new(),
            infrequent: Vec::new(),
            pad_target: 0,
        };
    }
    let mut chosen_k = d; // fall back to splaying everything (pure basic)
    for k in 0..d {
        let available: u64 = counts[..k].iter().sum();
        let threshold = counts.get(k).copied().unwrap_or(0);
        let needed: u64 = counts[k..].iter().map(|&n| threshold - n).sum();
        if available >= needed {
            chosen_k = k;
            break;
        }
    }
    let pad_target = counts.get(chosen_k).copied().unwrap_or(0);
    EnhancedPlan {
        frequent: sorted[..chosen_k].iter().map(|(v, _)| v.clone()).collect(),
        infrequent: sorted[chosen_k..].iter().map(|(v, _)| v.clone()).collect(),
        pad_target,
    }
}

/// The encrypted, splayed representation produced by [`EnhancedSplashe`].
#[derive(Clone, Debug)]
pub struct EnhancedSplayedColumns {
    /// The plan used to produce these columns.
    pub plan: EnhancedPlan,
    /// Deterministic 64-bit equality tags, one per row (the `CountryDet`
    /// column of Figure 4). Rows whose value is frequent hold a dummy tag.
    pub det_column: Vec<u64>,
    /// `k + 1` measure columns: one per frequent value followed by "others".
    pub measures: Vec<EncryptedColumn>,
}

impl EnhancedSplayedColumns {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.det_column.len()
    }

    /// Histogram of the deterministic column's tags — what the adversary sees.
    pub fn det_histogram(&self) -> HashMap<u64, u64> {
        let mut h = HashMap::new();
        for &tag in &self.det_column {
            *h.entry(tag).or_insert(0) += 1;
        }
        h
    }
}

/// Encoder for enhanced SPLASHE over one dimension and one co-queried measure.
pub struct EnhancedSplashe {
    plan: EnhancedPlan,
    det: DetScheme,
    /// `k + 1` ASHE schemes, one per measure column (last = "others").
    measure_schemes: Vec<AsheScheme>,
}

impl EnhancedSplashe {
    /// Creates an encoder from a plan, a DET key and per-column ASHE keys
    /// (`plan.k() + 1` of them).
    pub fn new(plan: EnhancedPlan, det_key: &[u8; 32], measure_keys: Vec<[u8; 16]>) -> EnhancedSplashe {
        assert_eq!(
            measure_keys.len(),
            plan.k() + 1,
            "enhanced SPLASHE needs k + 1 measure-column keys"
        );
        EnhancedSplashe {
            plan,
            det: DetScheme::new(det_key),
            measure_schemes: measure_keys.iter().map(AsheScheme::new).collect(),
        }
    }

    /// The plan this encoder follows.
    pub fn plan(&self) -> &EnhancedPlan {
        &self.plan
    }

    /// Splays and encrypts rows of `(dimension value, measure value)` pairs.
    ///
    /// Dummy deterministic entries are assigned greedily to the currently
    /// least-represented infrequent value, which balances the histogram to
    /// within one occurrence whenever the plan's feasibility condition holds.
    pub fn encode_rows<R: Rng + ?Sized>(
        &self,
        rows: &[(String, u64)],
        start_id: u64,
        rng: &mut R,
    ) -> EnhancedSplayedColumns {
        let k = self.plan.k();
        let n_cols = k + 1;
        let mut measure_plain = vec![Vec::with_capacity(rows.len()); n_cols];
        // Tag for every infrequent value.
        let infrequent_tags: Vec<u64> = self
            .plan
            .infrequent
            .iter()
            .map(|v| self.det.tag64_of(v.as_bytes()))
            .collect();
        let mut det_column = Vec::with_capacity(rows.len());
        // Track real counts so dummies can balance them.
        let mut tag_counts: Vec<u64> = vec![0; infrequent_tags.len()];
        // Positions of rows whose DET cell is free for dummy reuse.
        let mut dummy_rows: Vec<usize> = Vec::new();

        for (row_idx, (value, measure)) in rows.iter().enumerate() {
            if let Some(j) = self.plan.frequent.iter().position(|v| v == value) {
                for (col, plain) in measure_plain.iter_mut().enumerate() {
                    plain.push(if col == j { *measure } else { 0 });
                }
                det_column.push(0); // placeholder, filled with a dummy below
                dummy_rows.push(row_idx);
            } else if let Some(j) = self.plan.infrequent.iter().position(|v| v == value) {
                for (col, plain) in measure_plain.iter_mut().enumerate() {
                    plain.push(if col == k { *measure } else { 0 });
                }
                det_column.push(infrequent_tags[j]);
                tag_counts[j] += 1;
            } else {
                panic!("value {value:?} not covered by the enhanced SPLASHE plan");
            }
        }

        // Fill the free DET cells with dummy encryptions that flatten the
        // histogram: repeatedly give the least-represented infrequent value
        // another occurrence. Shuffle the free rows so dummy placement is not
        // correlated with row order.
        if !infrequent_tags.is_empty() {
            dummy_rows.shuffle(rng);
            for row_idx in dummy_rows {
                let (min_idx, _) = tag_counts
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &c)| c)
                    .expect("at least one infrequent value");
                det_column[row_idx] = infrequent_tags[min_idx];
                tag_counts[min_idx] += 1;
            }
        }

        let measures = measure_plain
            .iter()
            .enumerate()
            .map(|(col, plain)| seabed_ashe::encrypt_column(&self.measure_schemes[col], plain, start_id))
            .collect();
        EnhancedSplayedColumns {
            plan: self.plan.clone(),
            det_column,
            measures,
        }
    }

    /// Answers `SELECT SUM(measure) WHERE dim = value`.
    ///
    /// Frequent values aggregate their dedicated column in full; infrequent
    /// values filter the deterministic column and aggregate the "others"
    /// column — exactly the two server-side strategies of §3.4.
    pub fn sum_where(&self, cols: &EnhancedSplayedColumns, value: &str) -> Option<u64> {
        let k = self.plan.k();
        if let Some(j) = self.plan.frequent.iter().position(|v| v == value) {
            let agg = seabed_ashe::aggregate_where(&cols.measures[j], |_| true);
            return Some(self.measure_schemes[j].decrypt(&agg));
        }
        if self.plan.infrequent.iter().any(|v| v == value) {
            let tag = self.det.tag64_of(value.as_bytes());
            let agg = seabed_ashe::aggregate_where(&cols.measures[k], |i| cols.det_column[i] == tag);
            return Some(self.measure_schemes[k].decrypt(&agg));
        }
        None
    }

    /// Answers `SELECT SUM(measure)` with no dimension predicate (all rows).
    pub fn sum_all(&self, cols: &EnhancedSplayedColumns) -> u64 {
        (0..=self.plan.k())
            .map(|col| self.measure_schemes[col].decrypt(&seabed_ashe::aggregate_where(&cols.measures[col], |_| true)))
            .fold(0u64, |a, b| a.wrapping_add(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<[u8; 16]> {
        (0..n).map(|i| [i as u8 + 10; 16]).collect()
    }

    /// The Figure 4 dataset: USA and Canada frequent, eight other countries.
    fn figure4_rows() -> Vec<(String, u64)> {
        let raw: [(&str, u64); 14] = [
            ("USA", 100_000),
            ("USA", 100_000),
            ("Canada", 200_000),
            ("USA", 300_000),
            ("Canada", 500_000),
            ("Canada", 800_000),
            ("India", 100_000),
            ("India", 100_000),
            ("Chile", 200_000),
            ("Iraq", 300_000),
            ("China", 500_000),
            ("Japan", 800_000),
            ("Israel", 130_000),
            ("U.K.", 210_000),
        ];
        raw.iter().map(|(c, s)| (c.to_string(), *s)).collect()
    }

    fn figure4_distribution() -> Vec<(String, u64)> {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for (c, _) in figure4_rows() {
            *counts.entry(c).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    #[test]
    fn plan_selects_frequent_values() {
        let plan = plan_enhanced(&figure4_distribution());
        // USA (3) and Canada (3) dominate; the rest occur once or twice.
        assert!(plan.frequent.contains(&"USA".to_string()));
        assert!(plan.frequent.contains(&"Canada".to_string()));
        assert_eq!(plan.cardinality(), 9);
        assert!(
            plan.k() <= 3,
            "should not splay infrequent countries, got k={}",
            plan.k()
        );
    }

    #[test]
    fn plan_feasibility_condition_holds() {
        // Whatever k the planner picks, the frequent rows must supply enough
        // dummy cells to pad every infrequent value to the pad target.
        let dist = figure4_distribution();
        let plan = plan_enhanced(&dist);
        let count_of = |v: &String| dist.iter().find(|(x, _)| x == v).unwrap().1;
        let available: u64 = plan.frequent.iter().map(count_of).sum();
        let needed: u64 = plan.infrequent.iter().map(|v| plan.pad_target - count_of(v)).sum();
        assert!(available >= needed, "available {available} < needed {needed}");
    }

    #[test]
    fn skewed_distribution_needs_few_columns() {
        // 2 heavy hitters out of 196 countries (the k=2, d=196 example).
        let mut dist: Vec<(String, u64)> = vec![("USA".into(), 100_000), ("Canada".into(), 80_000)];
        for i in 0..194 {
            dist.push((format!("Country{i}"), 50 + (i % 7) as u64));
        }
        let plan = plan_enhanced(&dist);
        assert!(
            plan.k() <= 3,
            "heavily skewed distribution should need k≈2, got {}",
            plan.k()
        );
        assert!(plan.storage_factor(1) < 3.0);
    }

    #[test]
    fn uniform_distribution_needs_no_splaying() {
        let dist: Vec<(String, u64)> = (0..20).map(|i| (format!("v{i}"), 100)).collect();
        let plan = plan_enhanced(&dist);
        assert_eq!(plan.k(), 0, "a uniform distribution is already flat");
    }

    fn encoder() -> EnhancedSplashe {
        let plan = plan_enhanced(&figure4_distribution());
        let n_keys = plan.k() + 1;
        EnhancedSplashe::new(plan, &[7u8; 32], keys(n_keys))
    }

    #[test]
    fn aggregates_match_plaintext_for_all_values() {
        let enc = encoder();
        let rows = figure4_rows();
        let cols = enc.encode_rows(&rows, 0, &mut rand::rng());
        let mut expected: HashMap<String, u64> = HashMap::new();
        for (c, s) in &rows {
            *expected.entry(c.clone()).or_insert(0) += s;
        }
        for (value, sum) in &expected {
            assert_eq!(enc.sum_where(&cols, value), Some(*sum), "sum for {value}");
        }
        assert_eq!(enc.sum_where(&cols, "Atlantis"), None);
        assert_eq!(enc.sum_all(&cols), rows.iter().map(|(_, s)| s).sum::<u64>());
    }

    #[test]
    fn det_histogram_is_flat() {
        // The core security property: every infrequent value's tag appears the
        // same number of times (±1) regardless of its true frequency.
        let enc = encoder();
        let cols = enc.encode_rows(&figure4_rows(), 0, &mut rand::rng());
        let hist = cols.det_histogram();
        assert_eq!(hist.len(), enc.plan().c(), "one tag per infrequent value");
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "histogram not flat: {hist:?}");
    }

    #[test]
    fn dummies_do_not_pollute_aggregates() {
        // A frequent row reused as a dummy "India" entry must contribute 0 to
        // India's sum: compare against plaintext truth for a larger dataset.
        let mut dist: Vec<(String, u64)> = vec![("Hot".into(), 600), ("A".into(), 30), ("B".into(), 10)];
        dist.sort_by_key(|d| std::cmp::Reverse(d.1));
        let plan = plan_enhanced(&dist);
        let enc = EnhancedSplashe::new(plan.clone(), &[9u8; 32], keys(plan.k() + 1));
        let mut rows = Vec::new();
        for i in 0..600u64 {
            rows.push(("Hot".to_string(), i));
        }
        for i in 0..30u64 {
            rows.push(("A".to_string(), 1000 + i));
        }
        for i in 0..10u64 {
            rows.push(("B".to_string(), 5000 + i));
        }
        let cols = enc.encode_rows(&rows, 0, &mut rand::rng());
        let sum_a: u64 = (0..30u64).map(|i| 1000 + i).sum();
        let sum_b: u64 = (0..10u64).map(|i| 5000 + i).sum();
        let sum_hot: u64 = (0..600).sum();
        assert_eq!(enc.sum_where(&cols, "A"), Some(sum_a));
        assert_eq!(enc.sum_where(&cols, "B"), Some(sum_b));
        assert_eq!(enc.sum_where(&cols, "Hot"), Some(sum_hot));
        // And the histogram hides that B is 3x rarer than A.
        let hist = cols.det_histogram();
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "histogram not flat: {hist:?}");
    }

    #[test]
    fn storage_factor_is_much_smaller_than_basic() {
        let plan = plan_enhanced(&figure4_distribution());
        let enhanced = plan.storage_factor(1);
        let basic = crate::basic::basic_storage_factor(plan.cardinality(), 1);
        assert!(enhanced < basic, "enhanced {enhanced} should beat basic {basic}");
    }

    #[test]
    #[should_panic]
    fn unknown_value_panics() {
        let enc = encoder();
        enc.encode_rows(&[("Narnia".to_string(), 1)], 0, &mut rand::rng());
    }

    #[test]
    fn empty_distribution_is_handled() {
        let plan = plan_enhanced(&[]);
        assert_eq!(plan.k(), 0);
        assert_eq!(plan.c(), 0);
    }
}
