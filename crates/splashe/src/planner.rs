//! SPLASHE storage overhead in the paper's model (§4.2, Figure 10b).
//!
//! Splaying is not free: each protected dimension multiplies the storage of
//! every measure it is co-queried with. Seabed's planner therefore lets the
//! user cap the total storage overhead and prioritises dimensions by
//! cardinality (lowest first), encrypting as many as the budget allows with
//! SPLASHE and warning that the rest fall back to DET. The product's planner,
//! `seabed_query::planner::plan_schema`, runs that walk and charges what the
//! upload writes ([`EnhancedPlan::added_columns`](crate::EnhancedPlan::added_columns));
//! this module draws the paper's curves.

use crate::enhanced::plan_enhanced;

/// A sensitive dimension the user wants protected, together with the
/// information the planner needs.
#[derive(Clone, Debug)]
pub struct DimensionProfile {
    /// Column name.
    pub name: String,
    /// Expected value distribution (value, occurrence count or weight).
    pub distribution: Vec<(String, u64)>,
    /// Number of measure columns that queries combine with this dimension
    /// (in the paper's model only these are splayed alongside it).
    pub co_queried_measures: usize,
}

impl DimensionProfile {
    /// Dimension cardinality.
    pub fn cardinality(&self) -> usize {
        self.distribution.len()
    }
}

/// Cumulative overhead report for one dimension, in the order Figure 10b plots
/// them (sorted by cardinality).
#[derive(Clone, Debug)]
pub struct OverheadPoint {
    /// Dimension name.
    pub name: String,
    /// Dimension cardinality.
    pub cardinality: usize,
    /// Cumulative storage factor if this and all previous dimensions use
    /// basic SPLASHE.
    pub cumulative_basic: f64,
    /// Cumulative storage factor if this and all previous dimensions use
    /// enhanced SPLASHE.
    pub cumulative_enhanced: f64,
}

/// Per-dimension storage factors and the cumulative curves of Figure 10b.
///
/// Overheads are modeled the way the paper reports them: each dimension's
/// splaying multiplies the storage of its own column plus its co-queried
/// measures; dimensions are independent, so cumulative overhead is the sum of
/// the per-dimension extra columns normalised by the plaintext column count.
/// Basic SPLASHE (§3.3) turns the dimension into `d` indicator columns and
/// each co-queried measure into `d` columns; enhanced SPLASHE's columns are
/// those of [`EnhancedPlan::storage_factor`](crate::EnhancedPlan::storage_factor).
/// This is the paper's model, not the product's bytes: Table 5 reports what
/// the product stores.
pub fn overhead_curve(dimensions: &[DimensionProfile], total_plain_columns: usize) -> Vec<OverheadPoint> {
    let mut dims: Vec<&DimensionProfile> = dimensions.iter().collect();
    dims.sort_by_key(|d| d.cardinality());
    let mut extra_basic = 0.0f64;
    let mut extra_enhanced = 0.0f64;
    let mut points = Vec::with_capacity(dims.len());
    for dim in dims {
        let d = dim.cardinality() as f64;
        let m = dim.co_queried_measures as f64;
        let basic_columns = d + m * d;
        let plain_columns = 1.0 + m;
        extra_basic += basic_columns - plain_columns;
        let enhanced_columns = plan_enhanced(&dim.distribution).model_columns(dim.co_queried_measures);
        extra_enhanced += enhanced_columns as f64 - plain_columns;
        points.push(OverheadPoint {
            name: dim.name.clone(),
            cardinality: dim.cardinality(),
            cumulative_basic: 1.0 + extra_basic / total_plain_columns as f64,
            cumulative_enhanced: 1.0 + extra_enhanced / total_plain_columns as f64,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zipf_distribution(cardinality: usize, total: u64) -> Vec<(String, u64)> {
        // A simple Zipf-ish skew: value i gets weight ~ total / (i+1).
        let h: f64 = (1..=cardinality).map(|i| 1.0 / i as f64).sum();
        (0..cardinality)
            .map(|i| (format!("v{i}"), ((total as f64 / h) / (i + 1) as f64).max(1.0) as u64))
            .collect()
    }

    fn sample_dimensions() -> Vec<DimensionProfile> {
        (0..10)
            .map(|i| {
                let cardinality = 2 + i * 5;
                DimensionProfile {
                    name: format!("Col{}", i + 1),
                    distribution: zipf_distribution(cardinality, 100_000),
                    co_queried_measures: 2,
                }
            })
            .collect()
    }

    #[test]
    fn curve_is_sorted_by_cardinality_and_monotone() {
        let dims = sample_dimensions();
        let curve = overhead_curve(&dims, 51); // 33 dims + 18 measures
        assert_eq!(curve.len(), dims.len());
        for w in curve.windows(2) {
            assert!(w[0].cardinality <= w[1].cardinality);
            assert!(w[0].cumulative_basic <= w[1].cumulative_basic);
            assert!(w[0].cumulative_enhanced <= w[1].cumulative_enhanced);
        }
    }

    #[test]
    fn enhanced_dominates_basic_everywhere() {
        let curve = overhead_curve(&sample_dimensions(), 51);
        for p in &curve {
            assert!(
                p.cumulative_enhanced <= p.cumulative_basic + 1e-9,
                "{}: enhanced {} > basic {}",
                p.name,
                p.cumulative_enhanced,
                p.cumulative_basic
            );
        }
    }

    #[test]
    fn figure10b_shape_more_dimensions_under_same_budget() {
        // The paper's observation: with a 2x budget, enhanced SPLASHE covers
        // at least as many dimensions as basic, lowest cardinality first; with
        // 3x it covers more.
        let curve = overhead_curve(&sample_dimensions(), 51);
        let covered = |budget: f64, cumulative: fn(&OverheadPoint) -> f64| {
            curve.iter().take_while(|p| cumulative(p) <= budget).count()
        };
        for budget in [2.0, 3.0, 5.0] {
            assert!(
                covered(budget, |p| p.cumulative_enhanced) >= covered(budget, |p| p.cumulative_basic),
                "enhanced should cover at least as many dimensions at {budget}x"
            );
        }
        assert!(covered(3.0, |p| p.cumulative_enhanced) > covered(3.0, |p| p.cumulative_basic));
    }
}
