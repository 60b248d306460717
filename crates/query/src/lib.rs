//! # seabed-query
//!
//! The SQL dialect, data planner and query translator of Seabed
//! (Papadimitriou et al., OSDI 2016, §4.2 and §4.4).
//!
//! * [`ast`] / [`parser`] — a small analytical SQL dialect (single table or
//!   FROM-subquery, aggregate functions, conjunctive filters, GROUP BY,
//!   LIMIT), sufficient for the paper's microbenchmarks, the AmpLab Big Data
//!   Benchmark queries and the Ad-Analytics workload;
//! * [`planner`] — the data planner that classifies columns into dimensions
//!   and measures from a sample query set and assigns each sensitive column an
//!   encryption scheme (ASHE, SPLASHE, DET, OPE) under a storage budget;
//! * [`mod@translate`] — the query translator, both directions: it rewrites
//!   plaintext queries into encrypted server plans plus client-side
//!   post-processing steps (preserving row IDs through subqueries, applying the
//!   group-by inflation heuristic), and it runs those steps to turn a group's
//!   decrypted server aggregates back into the `SELECT` list's values;
//! * [`plan_node`] — structural plan trees for `EXPLAIN` / `EXPLAIN ANALYZE`:
//!   redacted-by-construction operator nodes (scan, SPLASHE expansion,
//!   class-labelled filters in execution order, inflation, group-by,
//!   aggregate) that measured per-operator profiles annotate.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod parser;
pub mod plan_node;
pub mod planner;
pub mod translate;

pub use ast::{AggregateFunction, CompareOp, ExplainMode, Literal, Predicate, Query, SelectItem, Statement, TableRef};
pub use parser::{parse, parse_statement, ParseError};
pub use plan_node::{PlanNode, PlanProfile};
pub use planner::{
    classify_roles, plan_schema, ColumnPlan, ColumnRole, ColumnSpec, EncryptionChoice, PlannerConfig, SchemaPlan,
};
pub use translate::{
    encnames, translate, AggregateInput, ClientPostStep, FilterClass, GroupByColumn, ParamKind, ParamSlot, ResultValue,
    ServerAggregate, ServerFilter, SupportCategory, TranslateError, TranslateOptions, TranslatedQuery,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn ident() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn parse_to_sql_roundtrip(
            measure in ident(),
            dim in ident(),
            table in ident(),
            value in 0u64..1_000_000,
            limit in proptest::option::of(1usize..100),
        ) {
            prop_assume!(measure != dim);
            let keywords = ["select", "from", "where", "group", "by", "limit", "and", "sum", "count", "avg", "min", "max", "var", "variance", "stddev", "stdev", "average"];
            prop_assume!(!keywords.contains(&measure.as_str()));
            prop_assume!(!keywords.contains(&dim.as_str()));
            prop_assume!(!keywords.contains(&table.as_str()));
            let mut sql = format!("SELECT {dim}, SUM({measure}) FROM {table} WHERE {dim} = {value} GROUP BY {dim}");
            if let Some(l) = limit {
                sql.push_str(&format!(" LIMIT {l}"));
            }
            let q = parse(&sql).unwrap();
            let q2 = parse(&q.to_sql()).unwrap();
            prop_assert_eq!(q, q2);
        }

        #[test]
        fn parser_never_panics_on_arbitrary_input(input in ".{0,200}") {
            let _ = parse(&input);
        }

        #[test]
        fn translation_is_deterministic(value in 0u64..10_000) {
            let columns = vec![
                planner::ColumnSpec::sensitive("m"),
                planner::ColumnSpec::sensitive("ts"),
            ];
            let sql = format!("SELECT SUM(m) FROM t WHERE ts >= {value}");
            let queries = vec![parse(&sql).unwrap()];
            let plan = plan_schema(&columns, &queries, &PlannerConfig::default());
            let a = translate(&queries[0], &plan, &TranslateOptions::default()).unwrap();
            let b = translate(&queries[0], &plan, &TranslateOptions::default()).unwrap();
            prop_assert_eq!(a, b);
        }
    }
}
