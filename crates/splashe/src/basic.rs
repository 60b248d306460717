//! Basic SPLASHE (§3.3).
//!
//! A low-cardinality dimension `C1` (say, `gender`) that would otherwise need
//! deterministic encryption is *splayed* into `d` indicator columns
//! `C1,1 … C1,d`, and every measure `C2` queried together with it is splayed
//! into `d` measure columns `C2,1 … C2,d`. Row `t` with `C1[t] = v` stores a
//! 1 in `C1,v` (0 elsewhere) and its measure value in `C2,v` (0 elsewhere).
//! All splayed columns are ASHE-encrypted, so nothing about the dimension's
//! value frequencies is revealed, yet
//!
//! * `SELECT COUNT(*) WHERE C1 = v`  ⇒  `SELECT SUM(C1,v)` and
//! * `SELECT SUM(C2) WHERE C1 = v`   ⇒  `SELECT SUM(C2,v)`
//!
//! are answerable with homomorphic addition alone.

use seabed_ashe::{AsheScheme, EncryptedColumn};

/// The splayed, encrypted representation of one (dimension, measure) pair.
#[derive(Clone, Debug)]
pub struct BasicSplayedColumns {
    /// The dimension's domain, in column order (`domain[j]` backs column `j`).
    pub domain: Vec<String>,
    /// Indicator columns: `indicator[j]` holds ASHE(1) where the row's value
    /// is `domain[j]` and ASHE(0) elsewhere.
    pub indicator: Vec<EncryptedColumn>,
    /// Measure columns: `measure[j]` holds the ASHE-encrypted measure where
    /// the row's value is `domain[j]` and ASHE(0) elsewhere.
    pub measure: Vec<EncryptedColumn>,
}

impl BasicSplayedColumns {
    /// Index of a domain value's column, if it exists.
    pub fn column_of(&self, value: &str) -> Option<usize> {
        self.domain.iter().position(|v| v == value)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.indicator.first().map_or(0, |c| c.len())
    }

    /// Storage expansion factor relative to the plaintext pair of columns:
    /// `2` plaintext columns become `2 d` encrypted columns.
    pub fn expansion_factor(&self) -> f64 {
        self.domain.len() as f64
    }
}

/// Encoder for basic SPLASHE over one dimension and one co-queried measure.
pub struct BasicSplashe {
    domain: Vec<String>,
    /// One ASHE scheme per splayed column (Seabed derives a fresh key per
    /// column, §4.2); index `j` is the indicator scheme, `d + j` the measure
    /// scheme for `domain[j]`.
    schemes: Vec<AsheScheme>,
}

impl BasicSplashe {
    /// Creates an encoder for the given domain. `column_keys` must provide
    /// `2 * domain.len()` independent 16-byte keys.
    pub fn new(domain: Vec<String>, column_keys: Vec<[u8; 16]>) -> BasicSplashe {
        assert_eq!(
            column_keys.len(),
            2 * domain.len(),
            "basic SPLASHE needs one key per indicator column and one per measure column"
        );
        BasicSplashe {
            domain,
            schemes: column_keys.iter().map(AsheScheme::new).collect(),
        }
    }

    /// The dimension's domain.
    pub fn domain(&self) -> &[String] {
        &self.domain
    }

    /// Scheme encrypting indicator column `j`.
    pub fn indicator_scheme(&self, j: usize) -> &AsheScheme {
        &self.schemes[j]
    }

    /// Scheme encrypting measure column `j`.
    pub fn measure_scheme(&self, j: usize) -> &AsheScheme {
        &self.schemes[self.domain.len() + j]
    }

    /// Splays and encrypts rows of `(dimension value, measure value)` pairs,
    /// assigning consecutive row identifiers starting at `start_id`.
    ///
    /// Panics if a row's dimension value is not in the domain (the planner
    /// must have enumerated the full domain).
    pub fn encode_rows(&self, rows: &[(String, u64)], start_id: u64) -> BasicSplayedColumns {
        let d = self.domain.len();
        let mut indicator_plain = vec![Vec::with_capacity(rows.len()); d];
        let mut measure_plain = vec![Vec::with_capacity(rows.len()); d];
        for (value, measure) in rows {
            let j = self
                .domain
                .iter()
                .position(|v| v == value)
                .unwrap_or_else(|| panic!("value {value:?} not in splayed domain"));
            for col in 0..d {
                indicator_plain[col].push(u64::from(col == j));
                measure_plain[col].push(if col == j { *measure } else { 0 });
            }
        }
        let indicator = indicator_plain
            .iter()
            .enumerate()
            .map(|(j, col)| seabed_ashe::encrypt_column(self.indicator_scheme(j), col, start_id))
            .collect();
        let measure = measure_plain
            .iter()
            .enumerate()
            .map(|(j, col)| seabed_ashe::encrypt_column(self.measure_scheme(j), col, start_id))
            .collect();
        BasicSplayedColumns {
            domain: self.domain.clone(),
            indicator,
            measure,
        }
    }

    /// Answers `SELECT COUNT(*) WHERE dim = value` over the splayed columns.
    pub fn count_where(&self, cols: &BasicSplayedColumns, value: &str) -> Option<u64> {
        let j = cols.column_of(value)?;
        let agg = seabed_ashe::aggregate_where(&cols.indicator[j], |_| true);
        Some(self.indicator_scheme(j).decrypt(&agg))
    }

    /// Answers `SELECT SUM(measure) WHERE dim = value` over the splayed columns.
    pub fn sum_where(&self, cols: &BasicSplayedColumns, value: &str) -> Option<u64> {
        let j = cols.column_of(value)?;
        let agg = seabed_ashe::aggregate_where(&cols.measure[j], |_| true);
        Some(self.measure_scheme(j).decrypt(&agg))
    }
}

/// Storage overhead of basic SPLASHE for a dimension of cardinality `d` that
/// is co-queried with `measures` measure columns: the dimension plus each such
/// measure expands by a factor of `d` (Figure 10b's "SPLASHE" line).
pub fn basic_storage_factor(cardinality: usize, measures: usize) -> f64 {
    let plain_columns = 1 + measures;
    let splayed_columns = cardinality * (1 + measures);
    splayed_columns as f64 / plain_columns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<[u8; 16]> {
        (0..n).map(|i| [i as u8 + 1; 16]).collect()
    }

    fn gender_salary_rows() -> Vec<(String, u64)> {
        // The Figure 3 example.
        vec![
            ("Male".to_string(), 1000),
            ("Female".to_string(), 2000),
            ("Female".to_string(), 200),
        ]
    }

    fn encoder() -> BasicSplashe {
        BasicSplashe::new(vec!["Male".to_string(), "Female".to_string()], keys(4))
    }

    #[test]
    fn figure3_example_counts_and_sums() {
        let enc = encoder();
        let cols = enc.encode_rows(&gender_salary_rows(), 0);
        assert_eq!(enc.count_where(&cols, "Male"), Some(1));
        assert_eq!(enc.count_where(&cols, "Female"), Some(2));
        assert_eq!(enc.sum_where(&cols, "Male"), Some(1000));
        assert_eq!(enc.sum_where(&cols, "Female"), Some(2200));
        assert_eq!(enc.count_where(&cols, "Other"), None);
    }

    #[test]
    fn splayed_columns_have_one_column_per_domain_value() {
        let enc = encoder();
        let cols = enc.encode_rows(&gender_salary_rows(), 0);
        assert_eq!(cols.indicator.len(), 2);
        assert_eq!(cols.measure.len(), 2);
        assert_eq!(cols.rows(), 3);
        assert_eq!(cols.expansion_factor(), 2.0);
    }

    #[test]
    fn ciphertexts_do_not_reveal_which_column_is_hot() {
        // Every cell of every splayed column is an ASHE ciphertext; the two
        // indicator columns are indistinguishable without the key, so at least
        // their raw stored values should not be trivially equal across rows.
        let enc = encoder();
        let cols = enc.encode_rows(&gender_salary_rows(), 0);
        let male = &cols.indicator[0].values;
        // values encrypting 1, 0, 0 — all three stored words must differ
        // (randomisation by row id), unlike deterministic encryption.
        assert_ne!(male[1], male[2], "two encryptions of 0 must differ");
    }

    #[test]
    fn larger_domain_roundtrip() {
        let domain: Vec<String> = (0..8).map(|i| format!("value-{i}")).collect();
        let enc = BasicSplashe::new(domain.clone(), keys(16));
        let rows: Vec<(String, u64)> = (0..200).map(|i| (format!("value-{}", i % 8), (i * 3) as u64)).collect();
        let cols = enc.encode_rows(&rows, 1000);
        for (j, value) in domain.iter().enumerate() {
            let expected_count = rows.iter().filter(|(v, _)| v == value).count() as u64;
            let expected_sum: u64 = rows.iter().filter(|(v, _)| v == value).map(|(_, m)| m).sum();
            assert_eq!(enc.count_where(&cols, value), Some(expected_count), "count col {j}");
            assert_eq!(enc.sum_where(&cols, value), Some(expected_sum), "sum col {j}");
        }
    }

    #[test]
    #[should_panic]
    fn unknown_value_panics_on_encode() {
        let enc = encoder();
        enc.encode_rows(&[("Unknown".to_string(), 1)], 0);
    }

    #[test]
    fn storage_factor_matches_formula() {
        assert_eq!(basic_storage_factor(2, 1), 2.0);
        assert_eq!(basic_storage_factor(196, 1), 196.0);
        // Splaying only the dimension against 3 measures still costs d×.
        assert_eq!(basic_storage_factor(10, 3), 10.0);
    }
}
