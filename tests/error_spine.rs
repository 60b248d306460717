//! Negative-path integration tests for the `SeabedError` spine: malformed or
//! unsupported queries must surface as typed errors from `SeabedSession::query`
//! — never as panics — with the variant naming the layer that failed.

use seabed_core::{PlainDataset, QueryResult, SeabedClient, SeabedServer, SeabedSession};
use seabed_engine::{Cluster, ClusterConfig};
use seabed_error::{SchemaError, SeabedError};
use seabed_query::{parse, ColumnSpec, PlannerConfig};

/// SQL text in, decrypted rows or a typed error out: a `sales` session over
/// `server`.
fn query(client: &SeabedClient, server: &SeabedServer, sql: &str) -> Result<QueryResult, SeabedError> {
    SeabedSession::single("sales", client.clone(), server).query(sql, &[])
}

fn build_world() -> Result<(SeabedClient, SeabedServer), SeabedError> {
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "country",
            ["USA", "USA", "Canada", "India"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        )
        .with_uint_column("revenue", vec![10, 20, 30, 40])
        .with_uint_column("ts", vec![1, 2, 3, 4]);
    let distribution = dataset
        .distribution("country")
        .ok_or_else(|| SeabedError::engine("fixture is missing the country column"))?;
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", distribution),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
    ];
    let mut samples = Vec::new();
    for sql in [
        "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
        "SELECT SUM(revenue) FROM sales WHERE ts >= 2",
    ] {
        samples.push(parse(sql)?);
    }
    let mut client = SeabedClient::create_plan(b"err-master", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 2, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));
    Ok((client, server))
}

#[test]
fn malformed_sql_returns_parse_error() -> Result<(), SeabedError> {
    let (client, server) = build_world()?;
    for bad in [
        "",
        "not sql at all",
        "SELECT FROM sales",
        "SELECT SUM(revenue FROM sales",
        "SELECT SUM(revenue) FROM sales WHERE ts >",
        "SELECT SUM(revenue) FROM sales trailing ~ garbage",
    ] {
        let outcome = query(&client, &server, bad);
        assert!(
            matches!(outcome, Err(SeabedError::Parse(_))),
            "{bad:?} should be a parse error, got {outcome:?}"
        );
    }
    Ok(())
}

#[test]
fn parse_errors_carry_position_and_message() -> Result<(), SeabedError> {
    let (client, server) = build_world()?;
    let Err(SeabedError::Parse(err)) = query(&client, &server, "SELECT SUM(revenue) FROM sales WHERE ts @ 3") else {
        return Err(SeabedError::engine("expected a parse error"));
    };
    assert!(err.message.contains("unexpected character"), "{err}");
    assert!(err.position > 0, "{err}");
    Ok(())
}

#[test]
fn unknown_column_returns_schema_error() -> Result<(), SeabedError> {
    let (client, server) = build_world()?;
    for bad in [
        "SELECT SUM(no_such_measure) FROM sales",
        "SELECT COUNT(*) FROM sales WHERE no_such_dim = 3",
        "SELECT no_such_key, SUM(revenue) FROM sales GROUP BY no_such_key",
    ] {
        let outcome = query(&client, &server, bad);
        assert!(
            matches!(&outcome, Err(SeabedError::Schema(SchemaError::UnknownColumn(c))) if bad.contains(c.as_str())),
            "{bad:?} should be an unknown-column schema error, got {outcome:?}"
        );
    }
    Ok(())
}

#[test]
fn unsupported_operations_return_translate_error() -> Result<(), SeabedError> {
    let (client, server) = build_world()?;
    for bad in [
        // Filtering on an ASHE-encrypted measure.
        "SELECT COUNT(*) FROM sales WHERE revenue = 10",
        // Range predicate over a SPLASHE dimension.
        "SELECT SUM(revenue) FROM sales WHERE country > 'USA'",
        // MIN over an ASHE (not OPE) column.
        "SELECT MIN(revenue) FROM sales",
    ] {
        let outcome = query(&client, &server, bad);
        assert!(
            matches!(outcome, Err(SeabedError::Translate(_))),
            "{bad:?} should be a translate error, got {outcome:?}"
        );
    }
    Ok(())
}

/// Statements that used to translate and then either could never run or ran
/// and answered something else: each is refused up front, as a typed
/// `Translate` error that names what is unsupported — never a physical type
/// the analyst did not choose, never a silently different answer.
#[test]
fn statements_the_encrypted_schema_cannot_answer_are_refused_up_front() -> Result<(), SeabedError> {
    let n = 40usize;
    let countries = ["USA", "USA", "USA", "Canada", "Canada", "USA", "India", "Chile"];
    let dataset = PlainDataset::new("sales")
        .with_text_column(
            "country",
            (0..n).map(|i| countries[i % countries.len()].to_string()).collect(),
        )
        .with_uint_column("revenue", (0..n as u64).collect())
        .with_uint_column("ts", (0..n as u64).collect())
        .with_uint_column("hour", (0..n as u64).map(|i| i % 24).collect())
        .with_text_column("region", (0..n).map(|i| format!("r{}", i % 3)).collect());
    let distribution = dataset
        .distribution("country")
        .ok_or_else(|| SeabedError::engine("fixture is missing the country column"))?;
    let columns = vec![
        ColumnSpec::sensitive_with_distribution("country", distribution),
        ColumnSpec::sensitive("revenue"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::public("hour"),
        ColumnSpec::public("region"),
    ];
    let mut samples = Vec::new();
    for sql in [
        "SELECT VARIANCE(revenue) FROM sales WHERE country = 'USA'",
        "SELECT MIN(ts) FROM sales WHERE ts >= 2",
    ] {
        samples.push(parse(sql)?);
    }
    let mut client = SeabedClient::create_plan(b"err-master", &columns, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 2, &mut rand::rng());
    let server = SeabedServer::new(encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    for (bad, names) in [
        // MIN/MAX read an ORE column and its ASHE companion; a public column
        // has neither (this used to fail at prepare with
        // `TypeMismatch { column: "hour", expected: "Bytes", .. }`).
        (
            "SELECT MIN(hour) FROM sales",
            vec!["MIN", "hour", "only OPE columns support MIN/MAX"],
        ),
        (
            "SELECT MAX(hour) FROM sales",
            vec!["MAX", "hour", "only OPE columns support MIN/MAX"],
        ),
        // An equality on a splayed column is answered by which column the
        // server sums; these have no splayed column and used to aggregate
        // rows the predicate excludes.
        (
            "SELECT VARIANCE(revenue) FROM sales WHERE country = 'USA'",
            vec!["VARIANCE", "country"],
        ),
        (
            "SELECT STDDEV(revenue) FROM sales WHERE country = 'India'",
            vec!["STDDEV", "country"],
        ),
        (
            "SELECT MIN(ts) FROM sales WHERE country = 'USA'",
            vec!["MIN", "country"],
        ),
        (
            "SELECT SUM(hour) FROM sales WHERE country = 'USA'",
            vec!["SUM(hour)", "country"],
        ),
        // Only the first splayed equality ever selected a column.
        (
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA' AND country = 'Chile'",
            vec!["country"],
        ),
        // The text filter class is string equality; these used to run as `=`.
        (
            "SELECT COUNT(*) FROM sales WHERE region != 'r1'",
            vec!["equality", "region"],
        ),
        (
            "SELECT COUNT(*) FROM sales WHERE region > 'r1'",
            vec!["equality", "region"],
        ),
    ] {
        let outcome = query(&client, &server, bad);
        assert!(
            matches!(&outcome, Err(SeabedError::Translate(msg)) if names.iter().all(|name| msg.contains(name))),
            "{bad:?} should be a translate error naming {names:?}, got {outcome:?}"
        );
    }
    // What the same shapes *can* answer still answers.
    for (good, expected) in [
        ("SELECT MIN(ts) FROM sales WHERE hour = 3", 3),
        (
            "SELECT COUNT(*) FROM sales WHERE region = 'r1' AND country = 'USA'",
            (0..n)
                .filter(|i| i % 3 == 1 && countries[i % countries.len()] == "USA")
                .count() as u64,
        ),
        (
            "SELECT SUM(hour) FROM sales WHERE region = 'r0'",
            (0..40u64).filter(|i| i % 3 == 0).map(|i| i % 24).sum(),
        ),
    ] {
        let result = query(&client, &server, good)?;
        assert_eq!(result.rows[0][0].as_u64(), Some(expected), "{good}");
    }
    Ok(())
}

#[test]
fn server_rejects_plans_for_foreign_schemas() -> Result<(), SeabedError> {
    // A plan translated against one schema executed against a server that
    // never stored those columns: the untrusted boundary must answer with a
    // typed error, not a panic.
    let (client, server) = build_world()?;
    let prepared = SeabedSession::single("sales", client, &server).prepare("SELECT SUM(revenue) FROM sales")?;

    let other = PlainDataset::new("other").with_uint_column("x", vec![1, 2, 3]);
    let columns = vec![ColumnSpec::sensitive("x")];
    let samples = vec![parse("SELECT SUM(x) FROM other")?];
    let mut other_client = SeabedClient::create_plan(b"other", &columns, &samples, &PlannerConfig::default());
    let other_encrypted = other_client.encrypt_dataset(&other, 1, &mut rand::rng());
    let other_server = SeabedServer::new(other_encrypted.table.clone(), Cluster::new(ClusterConfig::default()));

    let outcome = other_server.execute(prepared.translated(), &[]);
    assert!(
        matches!(outcome, Err(SeabedError::Schema(_))),
        "foreign plan should fail with a schema error, got {:?}",
        outcome.map(|r| r.groups.len())
    );
    Ok(())
}

#[test]
fn errors_format_with_layer_prefix() -> Result<(), SeabedError> {
    let (client, server) = build_world()?;
    let parse_err = query(&client, &server, "garbage")
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(
        parse_err.as_ref().is_err_and(|m| m.starts_with("parse: ")),
        "{parse_err:?}"
    );
    let schema_err = query(&client, &server, "SELECT SUM(missing) FROM sales")
        .map(|_| ())
        .map_err(|e| e.to_string());
    assert!(
        schema_err.as_ref().is_err_and(|m| m.starts_with("schema: ")),
        "{schema_err:?}"
    );
    Ok(())
}
