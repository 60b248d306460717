//! Demonstrates the frequency attack on deterministic encryption and how
//! SPLASHE's balanced columns defeat it (§3.3–3.4 of the paper).
//!
//! Run with: `cargo run --release --example frequency_attack`

use seabed_crypto::DetScheme;
use seabed_splashe::{frequency_attack, plan_enhanced, AuxiliaryDistribution, EnhancedSplashe};
use std::collections::HashMap;

fn main() {
    // A skewed population of countries, as in the paper's motivating example.
    let population: Vec<(&str, usize)> = vec![
        ("USA", 5000),
        ("Canada", 2500),
        ("India", 900),
        ("Chile", 350),
        ("Iraq", 150),
        ("Japan", 100),
    ];
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (country, count) in &population {
        for i in 0..*count {
            rows.push((country.to_string(), (i % 97) as u64));
        }
    }
    let truth: Vec<String> = rows.iter().map(|(c, _)| c.clone()).collect();
    let aux = AuxiliaryDistribution::from_counts(population.iter().map(|(c, n)| (*c, *n as u64)));

    // 1. Deterministic encryption: the attacker matches frequency ranks.
    let det = DetScheme::new(&[1u8; 32]);
    let det_column: Vec<u64> = truth.iter().map(|c| det.tag64_of(c.as_bytes())).collect();
    let det_result = frequency_attack(&det_column, &aux, &truth);
    println!(
        "DET column:     attacker recovers {:.1}% of rows ({}/{} values)",
        det_result.row_recovery_rate() * 100.0,
        det_result.values_recovered,
        det_result.values_total
    );

    // 2. Enhanced SPLASHE: the balanced DET column hides the skew.
    let mut distribution: HashMap<String, u64> = HashMap::new();
    for (c, _) in &rows {
        *distribution.entry(c.clone()).or_insert(0) += 1;
    }
    let plan = plan_enhanced(&distribution.into_iter().collect::<Vec<_>>());
    println!(
        "SPLASHE plan:   {} frequent value(s) splayed, {} infrequent behind the balanced column",
        plan.k(),
        plan.c()
    );
    let keys: Vec<[u8; 16]> = (0..plan.k() + 1).map(|i| [i as u8 + 1; 16]).collect();
    let splashe = EnhancedSplashe::new(plan, &[2u8; 32], keys);
    let cols = splashe.encode_rows(&rows, 0, &mut rand::rng());
    let splashe_result = frequency_attack(&cols.det_column, &aux, &truth);
    println!(
        "SPLASHE column: attacker recovers {:.1}% of rows",
        splashe_result.row_recovery_rate() * 100.0
    );

    // 3. Aggregates still work on the protected representation.
    let usa: u64 = rows.iter().filter(|(c, _)| c == "USA").map(|(_, m)| m).sum();
    assert_eq!(splashe.sum_where(&cols, "USA"), usa);
    println!("SUM(measure) WHERE country = 'USA' still answers correctly: {usa}");
}
