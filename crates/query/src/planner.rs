//! The data planner (§4.2): choosing an encryption scheme per column.
//!
//! The user supplies the plaintext schema, marks which columns are sensitive,
//! optionally provides value distributions, and hands the planner a sample
//! query set. The planner classifies each column as a dimension and/or a
//! measure from the queries and then applies the paper's selection rules:
//!
//! * sensitive measures aggregated with linear functions → **ASHE**;
//!   quadratic aggregates (variance/stddev) additionally get a client-side
//!   pre-computed squares column;
//! * sensitive measures needing `MIN`/`MAX` → **OPE** (order comparison on the
//!   server);
//! * sensitive dimensions used only in equality filters / group-bys →
//!   **enhanced SPLASHE** when the distribution is known, subject to the
//!   storage budget, prioritised lowest-cardinality first and charged the
//!   columns the upload adds ([`EnhancedPlan::added_columns`]); basic
//!   SPLASHE (§3.3) is never planned, and lives on only as the basic curve
//!   of the paper's Fig. 10b model (`seabed_splashe::overhead_curve`);
//! * sensitive dimensions needing range predicates → **OPE**;
//! * anything left over falls back to **DET**, with a warning recorded.

use crate::ast::Query;
use seabed_splashe::{plan_enhanced, EnhancedPlan};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// How a column is used by the sample queries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColumnRole {
    /// Filtered or grouped on.
    Dimension,
    /// Aggregated.
    Measure,
    /// Both filtered and aggregated.
    Both,
    /// Never referenced by the sample queries.
    Unused,
}

/// The encryption scheme the planner selected for one column.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EncryptionChoice {
    /// Column is not sensitive; stored in plaintext.
    Plaintext,
    /// ASHE-encrypted measure.
    Ashe {
        /// Whether an additional ASHE column of client-side squared values is
        /// materialised (needed for variance/stddev).
        with_squares: bool,
    },
    /// Enhanced SPLASHE: splay only frequent values.
    SplasheEnhanced {
        /// The frequent/infrequent split.
        plan: EnhancedPlan,
    },
    /// Deterministic encryption (equality only; leaks frequencies).
    Det,
    /// Order-revealing encryption (range predicates, MIN/MAX).
    Ope,
}

impl EncryptionChoice {
    /// True if the scheme leaks some property of the plaintext to the server
    /// (DET leaks equality/frequencies, OPE leaks order).
    pub fn is_property_preserving(&self) -> bool {
        matches!(self, EncryptionChoice::Det | EncryptionChoice::Ope)
    }
}

/// Description of one plaintext column handed to the planner.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// Column name.
    pub name: String,
    /// Whether the user marked the column as sensitive.
    pub sensitive: bool,
    /// Known value distribution (needed for enhanced SPLASHE); `None` means
    /// unknown.
    pub distribution: Option<Vec<(String, u64)>>,
}

impl ColumnSpec {
    /// A sensitive column with a known distribution.
    pub fn sensitive_with_distribution(name: &str, distribution: Vec<(String, u64)>) -> ColumnSpec {
        ColumnSpec {
            name: name.to_string(),
            sensitive: true,
            distribution: Some(distribution),
        }
    }

    /// A sensitive column with no distribution information.
    pub fn sensitive(name: &str) -> ColumnSpec {
        ColumnSpec {
            name: name.to_string(),
            sensitive: true,
            distribution: None,
        }
    }

    /// A non-sensitive column.
    pub fn public(name: &str) -> ColumnSpec {
        ColumnSpec {
            name: name.to_string(),
            sensitive: false,
            distribution: None,
        }
    }
}

/// The planner's decision for one column.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ColumnPlan {
    /// Column name.
    pub name: String,
    /// Usage classification derived from the sample queries.
    pub role: ColumnRole,
    /// Selected encryption scheme.
    pub encryption: EncryptionChoice,
}

/// The full output of the planning step.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct SchemaPlan {
    /// Per-column decisions, in input order.
    pub columns: Vec<ColumnPlan>,
    /// Human-readable warnings (e.g. "falling back to DET").
    pub warnings: Vec<String>,
}

impl SchemaPlan {
    /// Looks up the plan for a column.
    pub fn column(&self, name: &str) -> Option<&ColumnPlan> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Names of all columns that ended up with a property-preserving scheme.
    pub fn property_preserving_columns(&self) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|c| c.encryption.is_property_preserving())
            .map(|c| c.name.as_str())
            .collect()
    }
}

/// Planner configuration.
#[derive(Clone, Debug)]
pub struct PlannerConfig {
    /// Maximum storage expansion the user accepts for SPLASHE, in columns
    /// relative to the plaintext columns passed in; `f64::INFINITY` means
    /// unlimited.
    pub max_storage_factor: f64,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_storage_factor: f64::INFINITY,
        }
    }
}

/// Classifies every column's role from the sample query set.
pub fn classify_roles(columns: &[ColumnSpec], queries: &[Query]) -> BTreeMap<String, ColumnRole> {
    let mut dimensions: BTreeSet<&str> = BTreeSet::new();
    let mut measures: BTreeSet<&str> = BTreeSet::new();
    for q in queries {
        collect_roles(q, &mut dimensions, &mut measures);
    }
    columns
        .iter()
        .map(|c| {
            let is_dim = dimensions.contains(c.name.as_str());
            let is_measure = measures.contains(c.name.as_str());
            let role = match (is_dim, is_measure) {
                (true, true) => ColumnRole::Both,
                (true, false) => ColumnRole::Dimension,
                (false, true) => ColumnRole::Measure,
                (false, false) => ColumnRole::Unused,
            };
            (c.name.clone(), role)
        })
        .collect()
}

fn collect_roles<'a>(q: &'a Query, dimensions: &mut BTreeSet<&'a str>, measures: &mut BTreeSet<&'a str>) {
    for col in q.dimension_columns() {
        dimensions.insert(col);
    }
    for col in q.measure_columns() {
        measures.insert(col);
    }
    if let crate::ast::TableRef::Subquery(inner, _) = &q.from {
        collect_roles(inner, dimensions, measures);
    }
}

/// Returns true if any sample query applies an order predicate (or MIN/MAX) to
/// the column.
fn needs_order(column: &str, queries: &[Query]) -> bool {
    queries.iter().any(|q| {
        q.predicates.iter().any(|p| p.column == column && p.op.needs_order())
            || q.aggregates().iter().any(|(f, c)| {
                *c == column
                    && matches!(
                        f,
                        crate::ast::AggregateFunction::Min | crate::ast::AggregateFunction::Max
                    )
            })
            || match &q.from {
                crate::ast::TableRef::Subquery(inner, _) => needs_order(column, std::slice::from_ref(inner)),
                crate::ast::TableRef::Named(_) => false,
            }
    })
}

/// Returns true if any sample query computes a quadratic aggregate over the
/// column.
fn needs_squares(column: &str, queries: &[Query]) -> bool {
    queries.iter().any(|q| {
        q.aggregates().iter().any(|(f, c)| {
            *c == column
                && matches!(
                    f,
                    crate::ast::AggregateFunction::Variance | crate::ast::AggregateFunction::Stddev
                )
        })
    })
}

/// Runs the planning step.
pub fn plan_schema(columns: &[ColumnSpec], queries: &[Query], config: &PlannerConfig) -> SchemaPlan {
    let roles = classify_roles(columns, queries);
    let plain_columns = columns.len().max(1);
    let mut plan = SchemaPlan::default();

    // First pass: measures and order-needing columns.
    let mut splashe_candidates: Vec<&ColumnSpec> = Vec::new();
    let mut decisions: BTreeMap<String, EncryptionChoice> = BTreeMap::new();
    for spec in columns {
        // classify_roles emits one entry per spec, so the lookup always hits;
        // treat a (impossible) miss as an unqueried column.
        let role = roles.get(&spec.name).copied().unwrap_or(ColumnRole::Unused);
        if !spec.sensitive {
            decisions.insert(spec.name.clone(), EncryptionChoice::Plaintext);
            continue;
        }
        match role {
            ColumnRole::Measure => {
                if needs_order(&spec.name, queries) {
                    decisions.insert(spec.name.clone(), EncryptionChoice::Ope);
                } else {
                    decisions.insert(
                        spec.name.clone(),
                        EncryptionChoice::Ashe {
                            with_squares: needs_squares(&spec.name, queries),
                        },
                    );
                }
            }
            ColumnRole::Dimension => {
                if needs_order(&spec.name, queries) {
                    decisions.insert(spec.name.clone(), EncryptionChoice::Ope);
                } else {
                    splashe_candidates.push(spec);
                }
            }
            ColumnRole::Both => {
                // Used both as a filter and an aggregate: keep an ASHE copy
                // for the aggregate and an OPE/DET copy for the filter — the
                // conservative choice the paper's planner makes for such
                // columns. Here we record the filter-side scheme.
                if needs_order(&spec.name, queries) {
                    decisions.insert(spec.name.clone(), EncryptionChoice::Ope);
                } else {
                    decisions.insert(spec.name.clone(), EncryptionChoice::Det);
                    plan.warnings.push(format!(
                        "column {} is used as both dimension and measure; using DET for the filter side",
                        spec.name
                    ));
                }
            }
            ColumnRole::Unused => {
                // Sensitive but never queried: randomized (ASHE) encryption is
                // the safe default.
                decisions.insert(spec.name.clone(), EncryptionChoice::Ashe { with_squares: false });
            }
        }
    }

    // Second pass: allocate the SPLASHE budget lowest-cardinality first, "in
    // order to maximise protection against frequency attacks" (§4.2): those
    // are the columns such attacks decode most easily. A splayed dimension
    // splays every ASHE measure of the plan.
    splashe_candidates.sort_by_key(|s| s.distribution.as_ref().map(|d| d.len()).unwrap_or(usize::MAX));
    let ashe_measures = decisions
        .values()
        .filter(|c| matches!(c, EncryptionChoice::Ashe { .. }))
        .count();
    let mut extra_columns = 0.0f64;
    for spec in splashe_candidates {
        match &spec.distribution {
            Some(dist) => {
                let enhanced = plan_enhanced(dist);
                let enhanced_extra = enhanced.added_columns(ashe_measures) as f64;
                let projected = 1.0 + (extra_columns + enhanced_extra) / plain_columns as f64;
                if projected <= config.max_storage_factor {
                    extra_columns += enhanced_extra;
                    decisions.insert(spec.name.clone(), EncryptionChoice::SplasheEnhanced { plan: enhanced });
                } else {
                    plan.warnings.push(format!(
                        "storage budget exhausted: column {} falls back to deterministic encryption",
                        spec.name
                    ));
                    decisions.insert(spec.name.clone(), EncryptionChoice::Det);
                }
            }
            None => {
                plan.warnings.push(format!(
                    "no distribution known for column {}; enhanced SPLASHE unavailable",
                    spec.name
                ));
                decisions.insert(spec.name.clone(), EncryptionChoice::Det);
            }
        }
    }

    for spec in columns {
        plan.columns.push(ColumnPlan {
            name: spec.name.clone(),
            role: roles.get(&spec.name).copied().unwrap_or(ColumnRole::Unused),
            encryption: decisions.remove(&spec.name).unwrap_or(EncryptionChoice::Plaintext),
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sample_queries() -> Vec<Query> {
        let queries = [
            "SELECT SUM(salary) FROM emp WHERE country = 'USA'",
            "SELECT country, SUM(salary) FROM emp GROUP BY country",
            "SELECT AVG(salary) FROM emp WHERE year >= 2010",
            "SELECT VARIANCE(bonus) FROM emp",
            "SELECT MAX(age) FROM emp",
        ]
        .iter()
        .filter_map(|s| parse(s).ok())
        .collect::<Vec<_>>();
        assert_eq!(queries.len(), 5, "all sample queries must parse");
        queries
    }

    fn country_distribution() -> Vec<(String, u64)> {
        vec![
            ("USA".to_string(), 5000),
            ("Canada".to_string(), 3000),
            ("India".to_string(), 50),
            ("Chile".to_string(), 40),
            ("Japan".to_string(), 30),
        ]
    }

    fn specs() -> Vec<ColumnSpec> {
        vec![
            ColumnSpec::sensitive_with_distribution("country", country_distribution()),
            ColumnSpec::sensitive("salary"),
            ColumnSpec::sensitive("bonus"),
            ColumnSpec::sensitive("age"),
            ColumnSpec::sensitive("year"),
            ColumnSpec::public("emp_id"),
        ]
    }

    #[test]
    fn roles_classified_from_queries() {
        let roles = classify_roles(&specs(), &sample_queries());
        assert_eq!(roles["country"], ColumnRole::Dimension);
        assert_eq!(roles["salary"], ColumnRole::Measure);
        assert_eq!(roles["bonus"], ColumnRole::Measure);
        assert_eq!(roles["year"], ColumnRole::Dimension);
        assert_eq!(roles["emp_id"], ColumnRole::Unused);
    }

    /// The planner's choice for a column, as an `Option` so assertions stay
    /// total (a missing column shows up as `None`, never a panic).
    fn choice(plan: &SchemaPlan, name: &str) -> Option<EncryptionChoice> {
        plan.column(name).map(|c| c.encryption.clone())
    }

    #[test]
    fn measures_get_ashe() {
        let plan = plan_schema(&specs(), &sample_queries(), &PlannerConfig::default());
        assert_eq!(
            choice(&plan, "salary"),
            Some(EncryptionChoice::Ashe { with_squares: false })
        );
        // Variance over bonus needs the squares column.
        assert_eq!(
            choice(&plan, "bonus"),
            Some(EncryptionChoice::Ashe { with_squares: true })
        );
    }

    #[test]
    fn min_max_measures_get_ope() {
        let plan = plan_schema(&specs(), &sample_queries(), &PlannerConfig::default());
        assert_eq!(choice(&plan, "age"), Some(EncryptionChoice::Ope));
    }

    #[test]
    fn range_filtered_dimensions_get_ope() {
        let plan = plan_schema(&specs(), &sample_queries(), &PlannerConfig::default());
        assert_eq!(choice(&plan, "year"), Some(EncryptionChoice::Ope));
    }

    #[test]
    fn equality_dimension_with_distribution_gets_enhanced_splashe() {
        let plan = plan_schema(&specs(), &sample_queries(), &PlannerConfig::default());
        let country = choice(&plan, "country");
        assert!(
            matches!(
                &country,
                Some(EncryptionChoice::SplasheEnhanced { plan }) if plan.frequent().contains(&"USA".to_string())
            ),
            "expected enhanced SPLASHE with USA frequent, got {country:?}"
        );
    }

    #[test]
    fn non_sensitive_columns_stay_plaintext() {
        let plan = plan_schema(&specs(), &sample_queries(), &PlannerConfig::default());
        assert_eq!(choice(&plan, "emp_id"), Some(EncryptionChoice::Plaintext));
    }

    #[test]
    fn unknown_distribution_falls_back_to_det_with_warning() {
        let mut s = specs();
        s[0] = ColumnSpec::sensitive("country");
        let plan = plan_schema(&s, &sample_queries(), &PlannerConfig::default());
        assert_eq!(choice(&plan, "country"), Some(EncryptionChoice::Det));
        assert!(plan.warnings.iter().any(|w| w.contains("country")));
        assert_eq!(plan.property_preserving_columns(), vec!["country", "age", "year"]);
    }

    #[test]
    fn tight_storage_budget_forces_det_fallback() {
        let config = PlannerConfig {
            max_storage_factor: 1.01,
        };
        let plan = plan_schema(&specs(), &sample_queries(), &config);
        assert_eq!(choice(&plan, "country"), Some(EncryptionChoice::Det));
        assert!(plan.warnings.iter().any(|w| w.contains("budget")));
    }

    #[test]
    fn sensitive_unqueried_column_defaults_to_ashe() {
        let specs = vec![ColumnSpec::sensitive("secret_notes")];
        let plan = plan_schema(&specs, &sample_queries(), &PlannerConfig::default());
        assert_eq!(
            choice(&plan, "secret_notes"),
            Some(EncryptionChoice::Ashe { with_squares: false })
        );
    }

    /// Under a budget that fits either dimension alone but not both, the
    /// lower-cardinality one is protected, whatever the input order: a
    /// frequency attack decodes it most easily (§4.2).
    #[test]
    fn budget_goes_to_the_lowest_cardinality_first() {
        let specs = vec![
            ColumnSpec::sensitive_with_distribution("country", country_distribution()),
            ColumnSpec::sensitive_with_distribution("gender", vec![("F".to_string(), 600), ("M".to_string(), 400)]),
            ColumnSpec::sensitive("salary"),
        ];
        let queries: Vec<Query> = [
            "SELECT SUM(salary) FROM emp WHERE country = 'USA'",
            "SELECT SUM(salary) FROM emp WHERE gender = 'F'",
        ]
        .iter()
        .filter_map(|s| parse(s).ok())
        .collect();
        // gender (k = 1) adds 2·2 columns, country (k = 2) 3·2: alone each
        // fits 3.5x of 3 columns, together (1 + 10/3) they do not.
        let plan = plan_schema(
            &specs,
            &queries,
            &PlannerConfig {
                max_storage_factor: 3.5,
            },
        );
        assert!(matches!(
            choice(&plan, "gender"),
            Some(EncryptionChoice::SplasheEnhanced { .. })
        ));
        assert_eq!(choice(&plan, "country"), Some(EncryptionChoice::Det));
        assert!(plan
            .warnings
            .iter()
            .any(|w| w.contains("budget") && w.contains("country")));
    }
}
