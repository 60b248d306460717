//! Integration tests for the SPLASHE pipeline: planner decisions, the
//! flattened histogram the server sees, and attack resistance.

use seabed_core::{PlainDataset, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_query::planner::EncryptionChoice;
use seabed_query::{parse, ColumnSpec, PlannerConfig};
use seabed_splashe::{frequency_attack, AuxiliaryDistribution};
use std::collections::HashMap;

fn skewed_dataset(rows: usize) -> PlainDataset {
    let countries: Vec<String> = (0..rows)
        .map(|i| match i % 100 {
            0..=59 => "USA".to_string(),
            60..=89 => "Canada".to_string(),
            90..=95 => "India".to_string(),
            96..=98 => "Chile".to_string(),
            _ => "Iraq".to_string(),
        })
        .collect();
    PlainDataset::new("t")
        .with_text_column("country", countries)
        .with_uint_column("salary", (0..rows as u64).map(|i| i % 900 + 100).collect())
}

fn build(rows: usize) -> (SeabedClient, SeabedServer, PlainDataset) {
    let ds = skewed_dataset(rows);
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", ds.distribution("country").unwrap()),
        ColumnSpec::sensitive("salary"),
    ];
    let samples = vec![parse("SELECT SUM(salary) FROM t WHERE country = 'USA'").unwrap()];
    let mut client = SeabedClient::create_plan(b"splashe-it", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&ds, 4, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    (client, server, ds)
}

#[test]
fn sums_are_correct_for_every_country() {
    let (client, server, ds) = build(3000);
    let session = SeabedSession::single("t", client, &server);
    let country = ds.column("country").unwrap();
    let salary = ds.column("salary").unwrap();
    for value in ["USA", "Canada", "India", "Chile", "Iraq"] {
        let expected: u64 = (0..ds.num_rows())
            .filter(|&i| country.text_at(i) == value)
            .map(|i| salary.u64_at(i).unwrap())
            .sum();
        let result = session
            .query(&format!("SELECT SUM(salary) FROM t WHERE country = '{value}'"), &[])
            .unwrap();
        assert_eq!(result.rows[0][0].as_u64(), Some(expected), "country {value}");
    }
}

#[test]
fn stored_det_column_has_flat_histogram() {
    let (_, server, _) = build(2500);
    let tags = server
        .table()
        .gather_u64("country__det")
        .expect("balanced DET column present");
    let mut hist: HashMap<u64, u64> = HashMap::new();
    for t in tags {
        *hist.entry(t).or_insert(0) += 1;
    }
    let max = hist.values().max().unwrap();
    let min = hist.values().min().unwrap();
    assert!(max - min <= 1, "the server-visible histogram must be flat: {hist:?}");
}

#[test]
fn frequency_attack_fails_against_stored_column() {
    let (_, server, ds) = build(2500);
    let tags = server.table().gather_u64("country__det").unwrap();
    let truth: Vec<String> = (0..ds.num_rows())
        .map(|i| ds.column("country").unwrap().text_at(i))
        .collect();
    let aux = AuxiliaryDistribution::from_counts(
        ds.distribution("country")
            .unwrap()
            .iter()
            .map(|(v, c)| (v.as_str(), *c)),
    );
    let result = frequency_attack(&tags, &aux, &truth);
    // USA/Canada never appear in the DET column at all (they are splayed), and
    // the infrequent values are balanced. The attacker's rank matching can
    // still coincide with the truth on some dummy cells by chance, but the
    // recovery rate must stay below the trivial prior (guessing "USA" for
    // every row already scores 60%) and far below the 100% recovery the
    // plain-DET control achieves.
    assert!(
        result.row_recovery_rate() < 0.45,
        "attack should fail against SPLASHE, got {}",
        result.row_recovery_rate()
    );
}

#[test]
fn plain_det_column_would_be_recovered() {
    // Control experiment: the same data under plain DET is fully recovered.
    let ds = skewed_dataset(2500);
    let det = seabed_crypto::DetScheme::new(&[3u8; 32]);
    let truth: Vec<String> = (0..ds.num_rows())
        .map(|i| ds.column("country").unwrap().text_at(i))
        .collect();
    let tags: Vec<u64> = truth.iter().map(|c| det.tag64_of(c.as_bytes())).collect();
    let aux = AuxiliaryDistribution::from_counts(
        ds.distribution("country")
            .unwrap()
            .iter()
            .map(|(v, c)| (v.as_str(), *c)),
    );
    let result = frequency_attack(&tags, &aux, &truth);
    assert!(result.row_recovery_rate() > 0.99);
}

/// A value the plan never saw is an infrequent value: the upload sends it to
/// the "others" slot under its own balanced DET tag, pads it like a listed
/// value, and a query for it answers like a query for a listed one.
#[test]
fn a_value_the_plan_never_saw_is_answered_like_an_infrequent_one() {
    let distribution = [("USA", 50), ("Canada", 30), ("India", 5), ("Chile", 3)]
        .map(|(value, count)| (value.to_string(), count))
        .to_vec();
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", distribution),
        ColumnSpec::sensitive("revenue"),
    ];
    let samples = vec![parse("SELECT SUM(revenue) FROM t WHERE country = 'USA'").unwrap()];
    let mut client = SeabedClient::create_plan(b"splashe-it", &columns, &samples, &PlannerConfig::default());
    let Some(EncryptionChoice::SplasheEnhanced { plan }) = client.plan().column("country").map(|c| &c.encryption)
    else {
        panic!("country must be planned as enhanced SPLASHE: {:?}", client.plan());
    };
    assert_eq!(plan.frequent(), ["USA", "Canada"]);
    assert_eq!(plan.infrequent(), ["India", "Chile"]);

    let countries = [
        "USA", "Peru", "Canada", "India", "USA", "Peru", "Chile", "USA", "Canada", "Peru",
    ];
    let ds = PlainDataset::new("t")
        .with_text_column("country", countries.iter().map(|c| c.to_string()).collect())
        .with_uint_column("revenue", (1..=countries.len() as u64).map(|i| i * 10).collect());
    let encrypted = client.encrypt_dataset(&ds, 2, &mut rand::rng());
    let mut hist: HashMap<u64, u64> = HashMap::new();
    for tag in encrypted.table.gather_u64("country__det").unwrap() {
        *hist.entry(tag).or_insert(0) += 1;
    }
    assert_eq!(hist.len(), 3, "India, Chile and Peru each have a tag: {hist:?}");
    assert!(
        hist.values().max().unwrap() - hist.values().min().unwrap() <= 1,
        "{hist:?}"
    );

    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    let session = SeabedSession::single("t", client, &server);
    for value in ["Peru", "India", "USA"] {
        let rows = (0..countries.len()).filter(|&i| countries[i] == value);
        let sum: u64 = rows.clone().map(|i| (i as u64 + 1) * 10).sum();
        let sql = format!("SELECT SUM(revenue), COUNT(*) FROM t WHERE country = '{value}'");
        let result = session.query(&sql, &[]).unwrap();
        let answer: Vec<Option<u64>> = result.rows[0].iter().map(|v| v.as_u64()).collect();
        assert_eq!(answer, [Some(sum), Some(rows.count() as u64)], "{sql}");
    }
}
