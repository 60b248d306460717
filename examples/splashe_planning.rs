//! Shows how the Seabed planner budgets SPLASHE storage across dimensions
//! (Figure 10(b) of the paper).
//!
//! Run with: `cargo run --release --example splashe_planning`

use seabed_query::{parse, plan_schema, ColumnSpec, EncryptionChoice, PlannerConfig};
use seabed_splashe::overhead_curve;
use seabed_workloads::ad_analytics;

fn main() {
    let rows = 1_000_000u64;
    let profiles = ad_analytics::sensitive_dimension_profiles(rows);
    let plain_columns = ad_analytics::NUM_DIMENSIONS + ad_analytics::NUM_MEASURES;

    println!("Cumulative storage overhead in the paper's model (sorted by cardinality):");
    println!(
        "{:<12} {:>6} {:>16} {:>18}",
        "dimension", "card.", "basic SPLASHE x", "enhanced SPLASHE x"
    );
    for point in overhead_curve(&profiles, plain_columns) {
        println!(
            "{:<12} {:>6} {:>16.2} {:>18.2}",
            point.name, point.cardinality, point.cumulative_basic, point.cumulative_enhanced
        );
    }

    // The Ad-Analytics schema as the product's planner sees it: the sensitive
    // dimensions with their distributions, the sensitive measures, and the
    // other columns public. Each sensitive measure is summed under an
    // equality on one sensitive dimension.
    let mut columns: Vec<ColumnSpec> = profiles
        .iter()
        .map(|p| ColumnSpec::sensitive_with_distribution(&p.name, p.distribution.clone()))
        .collect();
    columns.extend(
        (ad_analytics::SENSITIVE_DIMENSIONS..ad_analytics::NUM_DIMENSIONS)
            .map(|d| ColumnSpec::public(&format!("dim{d:02}"))),
    );
    columns.extend((0..ad_analytics::NUM_MEASURES).map(|m| {
        let name = format!("measure{m:02}");
        if m < ad_analytics::SENSITIVE_MEASURES {
            ColumnSpec::sensitive(&name)
        } else {
            ColumnSpec::public(&name)
        }
    }));
    let queries: Vec<_> = (0..ad_analytics::SENSITIVE_MEASURES)
        .map(|m| {
            let dimension = &profiles[m % profiles.len()].name;
            parse(&format!(
                "SELECT SUM(measure{m:02}) FROM ad_analytics WHERE {dimension} = 'v0'"
            ))
            .expect("the sample query parses")
        })
        .collect();

    for budget in [2.0, 3.0, 10.0] {
        let plan = plan_schema(
            &columns,
            &queries,
            &PlannerConfig {
                max_storage_factor: budget,
            },
        );
        let splayed = |name: &str| match plan.column(name).map(|c| &c.encryption) {
            Some(EncryptionChoice::SplasheEnhanced { plan }) => Some(plan.k()),
            _ => None,
        };
        let protected = profiles.iter().filter(|p| splayed(&p.name).is_some()).count();
        println!(
            "\nWith a {budget}x storage budget, enhanced SPLASHE protects {protected} of {} sensitive dimensions:",
            profiles.len()
        );
        for profile in &profiles {
            match splayed(&profile.name) {
                Some(k) => println!("  {:<8} enhanced SPLASHE (k={k})", profile.name),
                None => println!("  {:<8} DET fallback (frequency leakage!)", profile.name),
            }
        }
    }
}
