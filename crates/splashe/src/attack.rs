//! Frequency-attack simulator (the threat SPLASHE is designed to stop).
//!
//! Naveed, Kamara and Wright showed that deterministically encrypted columns
//! can be decoded by matching ciphertext frequencies against auxiliary
//! plaintext statistics \[36\]. This module reproduces the rank-matching attack:
//! the adversary sorts the observed ciphertext histogram and a public
//! auxiliary distribution by frequency and pairs them up. Run against plain
//! DET columns the attack recovers most values; run against enhanced-SPLASHE
//! columns (whose histogram is flattened by dummy entries) it degrades to
//! guessing.

use std::collections::HashMap;

/// The adversary's auxiliary knowledge: an estimate of how often each
/// plaintext value occurs in the population.
#[derive(Clone, Debug, Default)]
pub struct AuxiliaryDistribution {
    /// (plaintext value, estimated relative frequency or count)
    pub weights: Vec<(String, f64)>,
}

impl AuxiliaryDistribution {
    /// Builds auxiliary knowledge from exact plaintext counts (the strongest
    /// adversary the paper considers).
    pub fn from_counts<'a, I: IntoIterator<Item = (&'a str, u64)>>(counts: I) -> Self {
        AuxiliaryDistribution {
            weights: counts.into_iter().map(|(v, c)| (v.to_string(), c as f64)).collect(),
        }
    }
}

/// The outcome of a frequency attack.
#[derive(Clone, Debug)]
pub struct AttackResult {
    /// For each ciphertext tag: the plaintext the attacker guessed.
    pub guesses: HashMap<u64, String>,
    /// Number of *rows* whose value the attacker recovered correctly.
    pub rows_recovered: usize,
    /// Total number of rows attacked.
    pub rows_total: usize,
    /// Number of distinct values guessed correctly.
    pub values_recovered: usize,
    /// Number of distinct values in the ground truth.
    pub values_total: usize,
}

impl AttackResult {
    /// Fraction of rows decoded correctly.
    pub fn row_recovery_rate(&self) -> f64 {
        if self.rows_total == 0 {
            0.0
        } else {
            self.rows_recovered as f64 / self.rows_total as f64
        }
    }

    /// Fraction of distinct values decoded correctly.
    pub fn value_recovery_rate(&self) -> f64 {
        if self.values_total == 0 {
            0.0
        } else {
            self.values_recovered as f64 / self.values_total as f64
        }
    }
}

/// Runs the rank-matching frequency attack.
///
/// * `ciphertext_column` — the deterministic tags the adversary observes, one
///   per row (e.g. [`DetCiphertext::tag64`](seabed_crypto::DetCiphertext::tag64)
///   values, or the balanced column enhanced SPLASHE produces);
/// * `auxiliary` — the adversary's estimate of the plaintext distribution;
/// * `ground_truth` — the actual plaintext of every row, used only to score
///   the attack.
pub fn frequency_attack(
    ciphertext_column: &[u64],
    auxiliary: &AuxiliaryDistribution,
    ground_truth: &[String],
) -> AttackResult {
    assert_eq!(ciphertext_column.len(), ground_truth.len());

    // Histogram of observed ciphertexts, sorted most-frequent first.
    let mut ct_hist: HashMap<u64, u64> = HashMap::new();
    for &tag in ciphertext_column {
        *ct_hist.entry(tag).or_insert(0) += 1;
    }
    let mut ct_ranked: Vec<(u64, u64)> = ct_hist.into_iter().collect();
    ct_ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    // Auxiliary distribution, sorted most-frequent first.
    let mut aux_ranked = auxiliary.weights.clone();
    aux_ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));

    // Rank matching: i-th most common ciphertext = i-th most common value.
    let mut guesses: HashMap<u64, String> = HashMap::new();
    for (i, (tag, _)) in ct_ranked.iter().enumerate() {
        if let Some((value, _)) = aux_ranked.get(i) {
            guesses.insert(*tag, value.clone());
        }
    }

    // Score.
    let mut rows_recovered = 0usize;
    let mut correct_per_value: HashMap<&str, bool> = HashMap::new();
    for (tag, truth) in ciphertext_column.iter().zip(ground_truth.iter()) {
        let correct = guesses.get(tag).map(|g| g == truth).unwrap_or(false);
        if correct {
            rows_recovered += 1;
        }
        let entry = correct_per_value.entry(truth.as_str()).or_insert(false);
        *entry = *entry || correct;
    }
    let values_total = ground_truth.iter().collect::<std::collections::HashSet<_>>().len();
    let values_recovered = correct_per_value.values().filter(|&&v| v).count();

    AttackResult {
        guesses,
        rows_recovered,
        rows_total: ground_truth.len(),
        values_recovered,
        values_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_crypto::DetScheme;

    /// A skewed population: the attack's favourite target.
    fn skewed_rows() -> Vec<String> {
        let mut rows = Vec::new();
        for (value, count) in [
            ("USA", 500),
            ("Canada", 300),
            ("India", 120),
            ("Chile", 60),
            ("Iraq", 20),
        ] {
            for _ in 0..count {
                rows.push(value.to_string());
            }
        }
        rows
    }

    fn auxiliary() -> AuxiliaryDistribution {
        AuxiliaryDistribution::from_counts([
            ("USA", 500u64),
            ("Canada", 300),
            ("India", 120),
            ("Chile", 60),
            ("Iraq", 20),
        ])
    }

    #[test]
    fn det_column_is_fully_recovered() {
        let rows = skewed_rows();
        let det = DetScheme::new(&[1u8; 32]);
        let tags: Vec<u64> = rows.iter().map(|v| det.tag64_of(v.as_bytes())).collect();
        let result = frequency_attack(&tags, &auxiliary(), &rows);
        assert_eq!(result.value_recovery_rate(), 1.0, "DET leaks every value");
        assert_eq!(result.row_recovery_rate(), 1.0);
    }

    #[test]
    fn flat_histogram_defeats_rank_matching() {
        // Simulate what enhanced SPLASHE produces: every tag appears equally
        // often, so rank matching degenerates to an arbitrary assignment and
        // cannot recover the skew.
        let rows = skewed_rows();
        let n = rows.len() as u64;
        let distinct = 5u64;
        // Balanced column: tags 0..5 each appearing n/5 times, assigned in a
        // round-robin unrelated to the true value.
        let tags: Vec<u64> = (0..n).map(|i| i % distinct).collect();
        let result = frequency_attack(&tags, &auxiliary(), &rows);
        // The attacker can still get lucky on one value, but nowhere near full
        // recovery: with a flat histogram each guess covers 1/5 of rows and
        // values no longer correlate with rank.
        assert!(
            result.row_recovery_rate() < 0.5,
            "flat histogram should destroy row recovery, got {}",
            result.row_recovery_rate()
        );
    }

    #[test]
    fn imperfect_auxiliary_still_breaks_det_mostly() {
        // Even a noisy auxiliary estimate (ranks preserved) decodes DET.
        let rows = skewed_rows();
        let det = DetScheme::new(&[2u8; 32]);
        let tags: Vec<u64> = rows.iter().map(|v| det.tag64_of(v.as_bytes())).collect();
        let noisy = AuxiliaryDistribution::from_counts([
            ("USA", 430u64),
            ("Canada", 350),
            ("India", 100),
            ("Chile", 80),
            ("Iraq", 10),
        ]);
        let result = frequency_attack(&tags, &noisy, &rows);
        assert_eq!(result.value_recovery_rate(), 1.0);
    }

    #[test]
    fn attack_handles_more_ciphertexts_than_auxiliary_values() {
        let rows: Vec<String> = (0..50).map(|i| format!("v{}", i % 10)).collect();
        let det = DetScheme::new(&[3u8; 32]);
        let tags: Vec<u64> = rows.iter().map(|v| det.tag64_of(v.as_bytes())).collect();
        let aux = AuxiliaryDistribution::from_counts([("v0", 5u64), ("v1", 5)]);
        let result = frequency_attack(&tags, &aux, &rows);
        assert!(result.rows_total == 50);
        assert!(result.row_recovery_rate() <= 0.2);
    }

    #[test]
    fn empty_input() {
        let result = frequency_attack(&[], &AuxiliaryDistribution::default(), &[]);
        assert_eq!(result.row_recovery_rate(), 0.0);
        assert_eq!(result.value_recovery_rate(), 0.0);
    }
}
