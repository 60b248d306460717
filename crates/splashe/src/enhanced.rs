//! Enhanced SPLASHE (§3.4, Appendix A.2).
//!
//! Basic SPLASHE (§3.3) multiplies storage by the dimension's cardinality
//! `d`, which is wasteful when only a few values are common. Enhanced SPLASHE
//! splays only the `k` *frequent* values into their own ASHE measure columns,
//! routes every infrequent value through a single "others" measure column,
//! and keeps one deterministically-encrypted dimension column for equality
//! filtering of the infrequent values.
//!
//! The deterministic column would normally leak value frequencies; enhanced
//! SPLASHE prevents that by reusing the cells of rows holding *frequent*
//! values (whose DET cell is otherwise unused) to store *dummy* encryptions of
//! infrequent values, balancing every infrequent value's ciphertext count.
//! Dummy rows carry ASHE(0) in the "others" measure column, so aggregates stay
//! correct while the adversary sees a flat histogram and learns only the
//! number of rows `n`, the number of frequent values `j` and the number of
//! infrequent values `c` (Definition 1 in the appendix).
//!
//! This module decides enhanced SPLASHE for the product too: which slot a
//! value lands in ([`EnhancedPlan::slot`]), how many columns a planned
//! dimension adds ([`EnhancedPlan::added_columns`]) and how the balanced DET
//! column is written ([`balanced_column`]).

use rand::seq::SliceRandom;
use rand::Rng;
use seabed_ashe::{AsheScheme, EncryptedColumn};
use seabed_crypto::DetScheme;
use std::collections::HashMap;

/// The output of the enhanced-SPLASHE planning step for one dimension.
///
/// Only [`plan_enhanced`] builds one, and only this crate reads its value
/// lists: every other crate asks [`EnhancedPlan::slot`], so the rule that
/// places a value is stated once.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct EnhancedPlan {
    /// The `k` frequent values, most frequent first; each gets its own column.
    pub(crate) frequent: Vec<String>,
    /// The `c = d - k` infrequent values sharing the "others" column.
    pub(crate) infrequent: Vec<String>,
    /// The balancing target: every infrequent value appears at least this many
    /// times in the deterministic column after padding.
    pub(crate) pad_target: u64,
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

    /// The frequent values, most frequent first: slot `i` is `frequent()[i]`.
    /// Where a value goes is [`EnhancedPlan::slot`]'s to say; the lists are
    /// for reports and tests.
    pub fn frequent(&self) -> &[String] {
        &self.frequent
    }

    /// The infrequent values the plan listed, sharing the "others" slot.
    pub fn infrequent(&self) -> &[String] {
        &self.infrequent
    }

    /// The slot `value` lands in: its index among the frequent values, or
    /// else the "others" slot `k`. A value the plan never listed is an
    /// infrequent value. The upload splays a row, and the translator picks
    /// the column a query sums, by this one rule.
    pub fn slot(&self, value: &str) -> usize {
        self.frequent.iter().position(|v| v == value).unwrap_or(self.k())
    }

    /// Columns the product's upload adds for this dimension when the plan
    /// has `ashe_measures` ASHE measures: `k + 1` indicator columns and
    /// `k + 1` splayed columns for every ASHE measure, so
    /// `(k + 1)(ashe_measures + 1)`. The balanced DET column takes the place
    /// of the plaintext one. The §4.2 storage budget charges this count.
    pub fn added_columns(&self, ashe_measures: usize) -> usize {
        (self.k() + 1) * (ashe_measures + 1)
    }

    /// Columns the paper's model (§3.4, Fig. 10b) gives this dimension with
    /// `measures` co-queried measure columns: one DET column, and `k + 1`
    /// columns per measure.
    pub(crate) fn model_columns(&self, measures: usize) -> usize {
        1 + measures * (self.k() + 1)
    }

    /// Storage expansion factor when this dimension is co-queried with
    /// `measures` measure columns, in the paper's model: the dimension keeps
    /// one (DET) column and each measure expands into `k + 1` columns. The
    /// product also writes indicator columns and splays every ASHE measure
    /// ([`EnhancedPlan::added_columns`]); Table 5 reports the bytes it
    /// stores.
    pub fn storage_factor(&self, measures: usize) -> f64 {
        self.model_columns(measures) as f64 / (1 + measures) as f64
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
    /// Each row lands in its value's [`EnhancedPlan::slot`], and the DET
    /// column is the upload's, written by [`balanced_column`]: a value the
    /// plan never listed is an infrequent value.
    pub fn encode_rows<R: Rng + ?Sized>(
        &self,
        rows: &[(String, u64)],
        start_id: u64,
        rng: &mut R,
    ) -> EnhancedSplayedColumns {
        let slots: Vec<usize> = rows.iter().map(|(value, _)| self.plan.slot(value)).collect();
        let (det_column, _) = balanced_column(&self.det, &self.plan, &slots, |row| rows[row].0.as_str(), rng);
        let measures = self
            .measure_schemes
            .iter()
            .enumerate()
            .map(|(col, scheme)| {
                let plain: Vec<u64> = rows
                    .iter()
                    .zip(&slots)
                    .map(|((_, measure), &slot)| if slot == col { *measure } else { 0 })
                    .collect();
                seabed_ashe::encrypt_column(scheme, &plain, start_id)
            })
            .collect();
        EnhancedSplayedColumns {
            plan: self.plan.clone(),
            det_column,
            measures,
        }
    }

    /// Answers `SELECT SUM(measure) WHERE dim = value`.
    ///
    /// Frequent values aggregate their dedicated column in full; any other
    /// value filters the deterministic column and aggregates the "others"
    /// column — exactly the two server-side strategies of §3.4.
    pub fn sum_where(&self, cols: &EnhancedSplayedColumns, value: &str) -> u64 {
        let slot = self.plan.slot(value);
        let agg = if slot < self.plan.k() {
            seabed_ashe::aggregate_where(&cols.measures[slot], |_| true)
        } else {
            let tag = self.det.tag64_of(value.as_bytes());
            seabed_ashe::aggregate_where(&cols.measures[slot], |i| cols.det_column[i] == tag)
        };
        self.measure_schemes[slot].decrypt(&agg)
    }

    /// Answers `SELECT SUM(measure)` with no dimension predicate (all rows).
    pub fn sum_all(&self, cols: &EnhancedSplayedColumns) -> u64 {
        (0..=self.plan.k())
            .map(|col| self.measure_schemes[col].decrypt(&seabed_ashe::aggregate_where(&cols.measures[col], |_| true)))
            .fold(0u64, |a, b| a.wrapping_add(b))
    }
}

/// Enhanced SPLASHE's frequency-balanced DET column (§3.4) and its
/// dictionary, for rows already placed in `row_slots` by
/// [`EnhancedPlan::slot`]; `value_at(row)` is a row's value in the text DET
/// operates on. A row in the "others" slot carries its value's tag; every
/// other row is a dummy cell, and the dummies, in shuffled order, each go to
/// the value with the fewest cells so far. A value the plan never listed is
/// an infrequent value like the listed ones: appended after them, tagged,
/// entered in the dictionary and padded.
pub fn balanced_column<V: AsRef<str>, R: Rng + ?Sized>(
    det: &DetScheme,
    splay: &EnhancedPlan,
    row_slots: &[usize],
    value_at: impl Fn(usize) -> V,
    rng: &mut R,
) -> (Vec<u64>, HashMap<u64, String>) {
    // (value, tag, cells so far) per infrequent value.
    let tagged = |value: String| {
        let tag = det.tag64_of(value.as_bytes());
        (value, tag, 0u64)
    };
    let mut values: Vec<(String, u64, u64)> = splay.infrequent.iter().cloned().map(tagged).collect();
    let mut tags = vec![0u64; row_slots.len()];
    let mut dummy_rows = Vec::new();
    for (row, &slot) in row_slots.iter().enumerate() {
        if slot != splay.k() {
            dummy_rows.push(row);
            continue;
        }
        let text = value_at(row);
        let idx = match values.iter().position(|(value, ..)| value == text.as_ref()) {
            Some(idx) => idx,
            None => {
                values.push(tagged(text.as_ref().to_string()));
                values.len() - 1
            }
        };
        tags[row] = values[idx].1;
        values[idx].2 += 1;
    }
    if values.is_empty() {
        // No infrequent value at all: every cell is one fixed dummy tag.
        values.push(tagged("__splashe_dummy__".to_string()));
        dummy_rows.iter().for_each(|&row| tags[row] = values[0].1);
    } else {
        dummy_rows.shuffle(rng);
        for row in dummy_rows {
            let fewest = values
                .iter_mut()
                .min_by_key(|(.., cells)| *cells)
                .expect("values is not empty");
            tags[row] = fewest.1;
            fewest.2 += 1;
        }
    }
    (tags, values.into_iter().map(|(value, tag, _)| (tag, value)).collect())
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
        assert!(plan.frequent().contains(&"USA".to_string()));
        assert!(plan.frequent().contains(&"Canada".to_string()));
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
        let available: u64 = plan.frequent().iter().map(count_of).sum();
        let needed: u64 = plan.infrequent().iter().map(|v| plan.pad_target - count_of(v)).sum();
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
            assert_eq!(enc.sum_where(&cols, value), *sum, "sum for {value}");
        }
        assert_eq!(enc.sum_where(&cols, "Atlantis"), 0);
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
        assert_eq!(enc.sum_where(&cols, "A"), sum_a);
        assert_eq!(enc.sum_where(&cols, "B"), sum_b);
        assert_eq!(enc.sum_where(&cols, "Hot"), sum_hot);
        // And the histogram hides that B is 3x rarer than A.
        let hist = cols.det_histogram();
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "histogram not flat: {hist:?}");
    }

    /// A value the plan never listed is an infrequent value, as at upload:
    /// it goes to the "others" column under its own tag and is padded.
    #[test]
    fn unlisted_value_is_encoded_as_an_infrequent_one() {
        let enc = encoder();
        let mut rows = figure4_rows();
        rows.extend([("Narnia".to_string(), 7), ("Narnia".to_string(), 11)]);
        let cols = enc.encode_rows(&rows, 0, &mut rand::rng());
        let k = enc.plan().k();
        assert_eq!(enc.plan().slot("Narnia"), k);
        assert_eq!(enc.sum_where(&cols, "Narnia"), 18);
        let others: Vec<u64> = seabed_ashe::decrypt_column(&enc.measure_schemes[k], &cols.measures[k]);
        assert_eq!(
            &others[rows.len() - 2..],
            [7, 11],
            "Narnia's measures sit in \"others\""
        );
        let narnia = enc.det.tag64_of(b"Narnia");
        assert_eq!(cols.det_column[rows.len() - 2..], [narnia, narnia]);
        let hist = cols.det_histogram();
        assert_eq!(
            hist.len(),
            enc.plan().c() + 1,
            "one tag per infrequent value and Narnia"
        );
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "Narnia is padded like a listed value: {hist:?}");
    }

    #[test]
    fn empty_distribution_is_handled() {
        let plan = plan_enhanced(&[]);
        assert_eq!(plan.k(), 0);
        assert_eq!(plan.c(), 0);
    }
}
