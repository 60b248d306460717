//! Abstract syntax tree for Seabed's SQL dialect.
//!
//! The paper's client issues OLAP-style SQL (or the equivalent Spark API
//! calls, Table 2); the query translator rewrites those queries against the
//! encrypted schema. This module defines the small analytical dialect both the
//! plaintext and the encrypted pipelines consume: single-table (or
//! single-subquery) `SELECT` with aggregate functions, conjunctive filters,
//! `GROUP BY` and `LIMIT`.

use serde::{Deserialize, Serialize};

/// Aggregate functions supported by the dialect.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggregateFunction {
    /// `SUM(expr)` — supported fully on the server via ASHE.
    Sum,
    /// `COUNT(*)` / `COUNT(expr)` — a sum of ones.
    Count,
    /// `AVG(expr)` — server computes sum and count, client divides.
    Avg,
    /// `MIN(expr)` — requires OPE on the column.
    Min,
    /// `MAX(expr)` — requires OPE on the column.
    Max,
    /// `VARIANCE(expr)` — server sums `x` and `x²` (client pre-computed
    /// squares), client combines.
    Variance,
    /// `STDDEV(expr)` — like variance with a final square root at the client.
    Stddev,
}

impl AggregateFunction {
    /// Parses a function name (case-insensitive).
    pub fn from_name(name: &str) -> Option<AggregateFunction> {
        Some(match name.to_ascii_uppercase().as_str() {
            "SUM" => AggregateFunction::Sum,
            "COUNT" => AggregateFunction::Count,
            "AVG" | "AVERAGE" => AggregateFunction::Avg,
            "MIN" => AggregateFunction::Min,
            "MAX" => AggregateFunction::Max,
            "VAR" | "VARIANCE" => AggregateFunction::Variance,
            "STDDEV" | "STDEV" => AggregateFunction::Stddev,
            _ => return None,
        })
    }

    /// SQL name of the function.
    pub fn name(&self) -> &'static str {
        match self {
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Avg => "AVG",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Variance => "VARIANCE",
            AggregateFunction::Stddev => "STDDEV",
        }
    }
}

/// Comparison operators usable in `WHERE` clauses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
}

impl CompareOp {
    /// True if the operator needs order information (OPE/ORE) rather than
    /// equality (DET/SPLASHE).
    pub fn needs_order(&self) -> bool {
        !matches!(self, CompareOp::Eq | CompareOp::NotEq)
    }

    /// Evaluates the operator on two plaintext integers.
    pub fn eval_u64(&self, left: u64, right: u64) -> bool {
        match self {
            CompareOp::Eq => left == right,
            CompareOp::NotEq => left != right,
            CompareOp::Lt => left < right,
            CompareOp::LtEq => left <= right,
            CompareOp::Gt => left > right,
            CompareOp::GtEq => left >= right,
        }
    }

    /// Evaluates the operator given only an `Ordering` (what ORE reveals).
    pub fn eval_ordering(&self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CompareOp::Eq => ord == Equal,
            CompareOp::NotEq => ord != Equal,
            CompareOp::Lt => ord == Less,
            CompareOp::LtEq => ord != Greater,
            CompareOp::Gt => ord == Greater,
            CompareOp::GtEq => ord != Less,
        }
    }

    /// SQL spelling of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            CompareOp::Eq => "=",
            CompareOp::NotEq => "!=",
            CompareOp::Lt => "<",
            CompareOp::LtEq => "<=",
            CompareOp::Gt => ">",
            CompareOp::GtEq => ">=",
        }
    }
}

/// A literal value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Literal {
    /// An unsigned integer literal.
    Integer(u64),
    /// A string literal.
    Text(String),
    /// An unbound `?` placeholder, carrying its zero-based ordinal in
    /// left-to-right source order. Placeholders survive parsing and
    /// translation ([`crate::TranslatedQuery::bind`] substitutes real
    /// literals at execute time); executing with fewer parameters than
    /// placeholders is a typed `ParamCount` error at bind.
    Param(usize),
}

impl Literal {
    /// Returns the integer value if this is an integer literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Literal::Integer(v) => Some(*v),
            Literal::Text(_) | Literal::Param(_) => None,
        }
    }

    /// Returns the string value if this is a text literal.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Literal::Text(s) => Some(s),
            Literal::Integer(_) | Literal::Param(_) => None,
        }
    }

    /// True if this is an unbound `?` placeholder.
    pub fn is_param(&self) -> bool {
        matches!(self, Literal::Param(_))
    }
}

/// One conjunct of a `WHERE` clause: `column op literal`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Column name on the left-hand side.
    pub column: String,
    /// Comparison operator.
    pub op: CompareOp,
    /// Literal on the right-hand side.
    pub value: Literal,
}

/// A projection item in the `SELECT` list.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SelectItem {
    /// A bare column reference (only valid together with `GROUP BY` on that
    /// column, or in non-aggregating scans).
    Column(String),
    /// An aggregate over a column; `COUNT(*)` uses column `"*"`.
    Aggregate {
        /// The aggregate function.
        func: AggregateFunction,
        /// The aggregated column (or `*`).
        column: String,
    },
}

/// The data source of a query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TableRef {
    /// A named base table.
    Named(String),
    /// A parenthesised subquery with an alias
    /// (`FROM (SELECT ...) alias`) — the "ID preservation" case of Table 2.
    Subquery(Box<Query>, String),
}

impl TableRef {
    /// The base table this reference ultimately reads, walking through
    /// subqueries.
    pub fn base_table(&self) -> &str {
        match self {
            TableRef::Named(name) => name,
            TableRef::Subquery(inner, _) => inner.from.base_table(),
        }
    }
}

/// A parsed query.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Query {
    /// The projection list.
    pub select: Vec<SelectItem>,
    /// The data source.
    pub from: TableRef,
    /// Conjunctive filter predicates (empty = no filter).
    pub predicates: Vec<Predicate>,
    /// Grouping columns (empty = global aggregate or plain scan).
    pub group_by: Vec<String>,
    /// Optional row limit.
    pub limit: Option<usize>,
}

impl Query {
    /// Number of `?` placeholders in the query (predicate ordinals are
    /// assigned left to right by the parser).
    pub fn param_count(&self) -> usize {
        let mut count = self.predicates.iter().filter(|p| p.value.is_param()).count();
        if let TableRef::Subquery(inner, _) = &self.from {
            count += inner.param_count();
        }
        count
    }

    /// All aggregate items in the projection.
    pub fn aggregates(&self) -> Vec<(&AggregateFunction, &str)> {
        self.select
            .iter()
            .filter_map(|item| match item {
                SelectItem::Aggregate { func, column } => Some((func, column.as_str())),
                SelectItem::Column(_) => None,
            })
            .collect()
    }

    /// True if the query computes any aggregate.
    pub fn is_aggregation(&self) -> bool {
        !self.aggregates().is_empty()
    }

    /// Columns used as dimensions: filter columns plus group-by columns.
    pub fn dimension_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self.predicates.iter().map(|p| p.column.as_str()).collect();
        cols.extend(self.group_by.iter().map(|s| s.as_str()));
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Columns used as measures: aggregated columns (excluding `*`).
    pub fn measure_columns(&self) -> Vec<&str> {
        let mut cols: Vec<&str> = self
            .aggregates()
            .iter()
            .map(|(_, c)| *c)
            .filter(|c| *c != "*")
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Renders the query back to SQL text (used in logs, tests and the
    /// Table 2 harness).
    pub fn to_sql(&self) -> String {
        let select: Vec<String> = self
            .select
            .iter()
            .map(|item| match item {
                SelectItem::Column(c) => c.clone(),
                SelectItem::Aggregate { func, column } => format!("{}({})", func.name(), column),
            })
            .collect();
        let from = match &self.from {
            TableRef::Named(name) => name.clone(),
            TableRef::Subquery(inner, alias) => format!("({}) {}", inner.to_sql(), alias),
        };
        let mut sql = format!("SELECT {} FROM {}", select.join(", "), from);
        if !self.predicates.is_empty() {
            let preds: Vec<String> = self
                .predicates
                .iter()
                .map(|p| {
                    let value = match &p.value {
                        Literal::Integer(v) => v.to_string(),
                        Literal::Text(s) => format!("'{s}'"),
                        Literal::Param(_) => "?".to_string(),
                    };
                    format!("{} {} {}", p.column, p.op.symbol(), value)
                })
                .collect();
            sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
        }
        if !self.group_by.is_empty() {
            sql.push_str(&format!(" GROUP BY {}", self.group_by.join(", ")));
        }
        if let Some(limit) = self.limit {
            sql.push_str(&format!(" LIMIT {limit}"));
        }
        sql
    }
}

/// How a top-level statement asks to be run: plainly, or as one of the
/// `EXPLAIN` forms.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExplainMode {
    /// Execute the query and return its rows (the default).
    #[default]
    None,
    /// `EXPLAIN`: return the structural plan tree *without executing*.
    Plan,
    /// `EXPLAIN ANALYZE`: execute the query and annotate every plan node
    /// with its measured per-operator profile.
    Analyze,
}

/// A parsed top-level statement: an optional `EXPLAIN` / `EXPLAIN ANALYZE`
/// prefix wrapped around a [`Query`]. The wrapper keeps the explain request
/// out of [`Query`] itself — translation, planning and the wire protocol all
/// consume the inner query unchanged; only the session inspects the mode.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Statement {
    /// The requested explain form ([`ExplainMode::None`] for plain execution).
    pub explain: ExplainMode,
    /// The query the statement runs (or explains).
    pub query: Query,
}

impl Statement {
    /// Renders the statement back to SQL text, including the explain prefix.
    pub fn to_sql(&self) -> String {
        match self.explain {
            ExplainMode::None => self.query.to_sql(),
            ExplainMode::Plan => format!("EXPLAIN {}", self.query.to_sql()),
            ExplainMode::Analyze => format!("EXPLAIN ANALYZE {}", self.query.to_sql()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Query {
        Query {
            select: vec![
                SelectItem::Column("country".to_string()),
                SelectItem::Aggregate {
                    func: AggregateFunction::Sum,
                    column: "revenue".to_string(),
                },
            ],
            from: TableRef::Named("sales".to_string()),
            predicates: vec![Predicate {
                column: "year".to_string(),
                op: CompareOp::GtEq,
                value: Literal::Integer(2015),
            }],
            group_by: vec!["country".to_string()],
            limit: Some(10),
        }
    }

    #[test]
    fn dimension_and_measure_classification() {
        let q = sample_query();
        assert_eq!(q.dimension_columns(), vec!["country", "year"]);
        assert_eq!(q.measure_columns(), vec!["revenue"]);
        assert!(q.is_aggregation());
    }

    #[test]
    fn to_sql_renders_all_clauses() {
        let q = sample_query();
        assert_eq!(
            q.to_sql(),
            "SELECT country, SUM(revenue) FROM sales WHERE year >= 2015 GROUP BY country LIMIT 10"
        );
    }

    #[test]
    fn compare_op_semantics() {
        assert!(CompareOp::Lt.eval_u64(1, 2));
        assert!(!CompareOp::Lt.eval_u64(2, 2));
        assert!(CompareOp::LtEq.eval_u64(2, 2));
        assert!(CompareOp::NotEq.eval_u64(1, 2));
        assert!(CompareOp::GtEq.eval_ordering(std::cmp::Ordering::Equal));
        assert!(!CompareOp::Gt.eval_ordering(std::cmp::Ordering::Less));
        assert!(CompareOp::Gt.needs_order());
        assert!(!CompareOp::Eq.needs_order());
    }

    #[test]
    fn aggregate_function_names_roundtrip() {
        for f in [
            AggregateFunction::Sum,
            AggregateFunction::Count,
            AggregateFunction::Avg,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Variance,
            AggregateFunction::Stddev,
        ] {
            assert_eq!(AggregateFunction::from_name(f.name()), Some(f));
        }
        assert_eq!(AggregateFunction::from_name("median"), None);
    }

    #[test]
    fn subquery_base_table() {
        let inner = sample_query();
        let outer = TableRef::Subquery(Box::new(inner), "tmp".to_string());
        assert_eq!(outer.base_table(), "sales");
    }

    #[test]
    fn literal_accessors() {
        assert_eq!(Literal::Integer(5).as_u64(), Some(5));
        assert_eq!(Literal::Integer(5).as_str(), None);
        assert_eq!(Literal::Text("x".into()).as_str(), Some("x"));
        assert_eq!(Literal::Text("x".into()).as_u64(), None);
        assert_eq!(Literal::Param(0).as_u64(), None);
        assert_eq!(Literal::Param(0).as_str(), None);
        assert!(Literal::Param(3).is_param());
        assert!(!Literal::Integer(3).is_param());
    }

    #[test]
    fn param_count_walks_subqueries() {
        let mut q = sample_query();
        assert_eq!(q.param_count(), 0);
        q.predicates[0].value = Literal::Param(0);
        assert_eq!(q.param_count(), 1);
        let outer = Query {
            select: vec![SelectItem::Aggregate {
                func: AggregateFunction::Sum,
                column: "revenue".to_string(),
            }],
            from: TableRef::Subquery(Box::new(q), "tmp".to_string()),
            predicates: vec![Predicate {
                column: "year".to_string(),
                op: CompareOp::Lt,
                value: Literal::Param(1),
            }],
            group_by: vec![],
            limit: None,
        };
        assert_eq!(outer.param_count(), 2);
    }
}
