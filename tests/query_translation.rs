//! Integration tests for the planner + translator against the Table 2
//! examples and edge cases.

use seabed_query::{
    encnames, parse, plan_schema, translate, ColumnSpec, EncryptionChoice, PlannerConfig, ServerAggregate,
    ServerFilter, TranslateOptions,
};

fn plan() -> seabed_query::SchemaPlan {
    let columns = vec![
        ColumnSpec::sensitive("a_measure"),
        ColumnSpec::sensitive("b"),
        ColumnSpec::sensitive_with_distribution("a", vec![("10".into(), 1000), ("20".into(), 30), ("30".into(), 20)]),
        ColumnSpec::sensitive("g"),
        ColumnSpec::public("pub"),
    ];
    let samples: Vec<_> = [
        "SELECT SUM(a_measure) FROM t WHERE b > 10",
        "SELECT COUNT(*) FROM t WHERE a = 10",
        "SELECT g, SUM(a_measure) FROM t GROUP BY g",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    plan_schema(&columns, &samples, &PlannerConfig::default())
}

#[test]
fn table2_row1_id_preservation_through_subquery() {
    let p = plan();
    let q = parse("SELECT sum(tmp.a_measure) FROM (SELECT a_measure FROM t WHERE b > 10) tmp").unwrap();
    let t = translate(&q, &p, &TranslateOptions).unwrap();
    assert!(t.preserve_row_ids);
    assert_eq!(t.filters.len(), 1);
    assert!(matches!(t.filters[0], ServerFilter::OpeCompare { .. }));
    assert_eq!(
        t.aggregates,
        vec![ServerAggregate::AsheSum {
            column: encnames::ashe("a_measure")
        }]
    );
}

#[test]
fn table2_row2_splashe_rewrite() {
    let p = plan();
    let q = parse("SELECT count(*) FROM t WHERE a = 10").unwrap();
    let t = translate(&q, &p, &TranslateOptions).unwrap();
    // The frequent value 10 gets its own indicator column and no server filter.
    assert!(t.filters.is_empty());
    match &t.aggregates[0] {
        ServerAggregate::AsheSum { column } => assert!(column.contains("__ind_")),
        other => panic!("expected indicator sum, got {other:?}"),
    }
}

/// Table 2's row 3, the paper's group-inflation example, translates without
/// its `+ rid%N` suffix: the server groups by the DET column alone, so a
/// result key is one word.
#[test]
fn table2_row3_group_by_inflation() {
    let p = plan();
    let q = parse("SELECT g, sum(a_measure) FROM t GROUP BY g").unwrap();
    let t = translate(&q, &p, &TranslateOptions).unwrap();
    assert_eq!(t.group_by.len(), 1);
    assert!(t.describe().contains(&format!("groupBy({})", encnames::det("g"))));
    assert!(!t.describe().contains("rid%"));
}

#[test]
fn infrequent_splashe_value_keeps_det_filter() {
    let p = plan();
    let q = parse("SELECT SUM(a_measure) FROM t WHERE a = 30").unwrap();
    let t = translate(&q, &p, &TranslateOptions).unwrap();
    assert_eq!(t.filters.len(), 1, "infrequent value needs the balanced DET filter");
    match &t.aggregates[0] {
        ServerAggregate::AsheSum { column } => assert!(column.ends_with("_others")),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn planner_choices_match_section_4_2() {
    let p = plan();
    assert!(matches!(
        p.column("a_measure").unwrap().encryption,
        EncryptionChoice::Ashe { .. }
    ));
    assert!(matches!(p.column("b").unwrap().encryption, EncryptionChoice::Ope));
    assert!(matches!(
        p.column("a").unwrap().encryption,
        EncryptionChoice::SplasheEnhanced { .. }
    ));
    assert!(matches!(p.column("g").unwrap().encryption, EncryptionChoice::Det));
    assert!(matches!(
        p.column("pub").unwrap().encryption,
        EncryptionChoice::Plaintext
    ));
}

#[test]
fn unsupported_operations_error_cleanly() {
    let p = plan();
    for sql in [
        "SELECT SUM(a_measure) FROM t WHERE a_measure = 5",
        "SELECT a_measure, COUNT(*) FROM t GROUP BY a_measure",
        "SELECT SUM(nope) FROM t",
        "SELECT MIN(a_measure) FROM t",
    ] {
        let q = parse(sql).unwrap();
        assert!(
            translate(&q, &p, &TranslateOptions).is_err(),
            "{sql} should be rejected"
        );
    }
}

/// MIN/MAX read an ORE column plus its ASHE companion, which only an OPE
/// column has. Over a public column the query used to translate ("needs OPE
/// or plaintext") and then fail everywhere it was prepared with
/// `TypeMismatch { column: "pub", expected: "Bytes", .. }` — a physical type
/// the analyst never chose.
#[test]
fn min_max_over_a_public_column_is_refused_by_the_translator() {
    let p = plan();
    for (sql, func) in [("SELECT MIN(pub) FROM t", "MIN"), ("SELECT MAX(pub) FROM t", "MAX")] {
        let outcome = translate(&parse(sql).unwrap(), &p, &TranslateOptions);
        assert!(
            matches!(&outcome, Err(seabed_query::TranslateError::Unsupported(msg))
                if msg.contains(func) && msg.contains("pub") && msg.contains("only OPE columns support MIN/MAX")),
            "{sql}: {outcome:?}"
        );
    }
    // Over the OPE column the same functions still translate.
    let t = translate(&parse("SELECT MIN(b), MAX(b) FROM t").unwrap(), &p, &TranslateOptions).unwrap();
    assert_eq!(
        t.aggregates,
        vec![
            ServerAggregate::OpeMin {
                column: encnames::ope("b")
            },
            ServerAggregate::OpeMax {
                column: encnames::ope("b")
            }
        ]
    );
}
