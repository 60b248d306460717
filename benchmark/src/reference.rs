//! The plaintext checker: an evaluator that shares no code with the program
//! under test. It filters, groups and aggregates the plaintext tables the
//! benchmark generated, and every decrypted answer — timed or traced — is
//! compared against it outside the timed region.

use crate::gen::{tag_name, Agg, Cmp, Col, PlainTable, QueryOp, Shape};
use std::collections::BTreeMap;

/// One cell of a decrypted answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// An integer (sum, count, or a plaintext group key).
    U(u64),
    /// A decrypted text group key.
    T(String),
    /// Anything the reference never produces (a float, an undecodable tag):
    /// it can only ever compare unequal.
    Other(String),
}

/// Answer rows: group key (if any) followed by the aggregates in `SELECT`
/// order. Compared order-insensitively via [`same_rows`].
pub type Rows = Vec<Vec<Cell>>;

fn column(table: &PlainTable, col: Col) -> &[u64] {
    match col {
        Col::Hour => &table.hour,
        Col::Tag => &table.tag,
        Col::Ts => &table.ts,
    }
}

fn holds(cmp: Cmp, value: u64, literal: u64) -> bool {
    match cmp {
        Cmp::Eq => value == literal,
        Cmp::Ge => value >= literal,
        Cmp::Lt => value < literal,
    }
}

/// Evaluates `op` over `table`. A global aggregate always yields one row
/// (sums and counts of zero when nothing matches); a grouped one yields one
/// row per non-empty group, in key order.
pub fn evaluate(table: &PlainTable, shape: &Shape, op: &QueryOp) -> Rows {
    let preds: Vec<(&[u64], Cmp, u64)> = shape
        .preds
        .iter()
        .zip(&op.literals)
        .map(|((col, cmp), literal)| (column(table, *col), *cmp, *literal))
        .collect();
    let group = shape.group.map(|col| column(table, col));
    // Per group key: (sum m0, sum m1, count).
    let mut groups: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    if group.is_none() {
        groups.insert(0, (0, 0, 0));
    }
    for row in 0..table.rows() {
        if !preds
            .iter()
            .all(|(values, cmp, literal)| holds(*cmp, values[row], *literal))
        {
            continue;
        }
        let acc = groups.entry(group.map_or(0, |keys| keys[row])).or_default();
        acc.0 += table.m0[row];
        acc.1 += table.m1[row];
        acc.2 += 1;
    }
    groups
        .into_iter()
        .map(|(key, (m0, m1, count))| {
            let mut row = Vec::with_capacity(1 + shape.aggs.len());
            match shape.group {
                Some(Col::Tag) => row.push(Cell::T(tag_name(key))),
                Some(_) => row.push(Cell::U(key)),
                None => {}
            }
            row.extend(shape.aggs.iter().map(|agg| {
                Cell::U(match agg {
                    Agg::SumM0 => m0,
                    Agg::SumM1 => m1,
                    Agg::Count => count,
                })
            }));
            row
        })
        .collect()
}

fn sort_key(row: &[Cell]) -> String {
    format!("{:?}", row.first())
}

/// True when `got` holds exactly the rows of `want`, in any order (the
/// server orders groups by encrypted key, which for DET tags is arbitrary).
pub fn same_rows(got: &Rows, want: &Rows) -> bool {
    if got.len() != want.len() {
        return false;
    }
    let mut got: Vec<&Vec<Cell>> = got.iter().collect();
    let mut want: Vec<&Vec<Cell>> = want.iter().collect();
    got.sort_by_key(|row| sort_key(row));
    want.sort_by_key(|row| sort_key(row));
    got == want
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six hand-written rows; every expected value below was computed by
    /// hand from this table.
    fn fixture() -> PlainTable {
        PlainTable {
            name: "t".to_string(),
            hour: vec![0, 0, 1, 1, 2, 2],
            tag: vec![1, 2, 1, 2, 1, 1],
            ts: vec![10, 20, 3_700, 3_800, 7_300, 7_400],
            m0: vec![5, 7, 11, 13, 17, 19],
            m1: vec![1, 1, 2, 2, 3, 3],
        }
    }

    fn shape(aggs: Vec<Agg>, preds: Vec<(Col, Cmp)>, group: Option<Col>) -> Shape {
        Shape::new("t", &aggs, &preds, group)
    }

    fn op(literals: Vec<u64>) -> QueryOp {
        QueryOp {
            shape: 0,
            literals,
            hot: false,
        }
    }

    #[test]
    fn filtered_global_sum_and_count() {
        // tag = 1 AND ts >= 3700 AND ts < 7400 -> rows 2 and 4: 11 + 17, 2 rows.
        let s = shape(
            vec![Agg::SumM0, Agg::Count],
            vec![(Col::Tag, Cmp::Eq), (Col::Ts, Cmp::Ge), (Col::Ts, Cmp::Lt)],
            None,
        );
        assert_eq!(
            evaluate(&fixture(), &s, &op(vec![1, 3_700, 7_400])),
            vec![vec![Cell::U(28), Cell::U(2)]]
        );
    }

    #[test]
    fn empty_selection_still_yields_the_global_row() {
        let s = shape(vec![Agg::SumM1, Agg::Count], vec![(Col::Hour, Cmp::Ge)], None);
        assert_eq!(
            evaluate(&fixture(), &s, &op(vec![9])),
            vec![vec![Cell::U(0), Cell::U(0)]]
        );
    }

    #[test]
    fn group_by_hour_with_a_range() {
        // hour >= 1 -> hour 1: 11 + 13 = 24 (2 rows), hour 2: 17 + 19 = 36 (2 rows).
        let s = shape(
            vec![Agg::SumM0, Agg::Count],
            vec![(Col::Hour, Cmp::Ge)],
            Some(Col::Hour),
        );
        assert_eq!(
            evaluate(&fixture(), &s, &op(vec![1])),
            vec![
                vec![Cell::U(1), Cell::U(24), Cell::U(2)],
                vec![Cell::U(2), Cell::U(36), Cell::U(2)],
            ]
        );
    }

    #[test]
    fn group_by_tag_returns_tag_names() {
        // tag 1: m1 = 1 + 2 + 3 + 3 = 9; tag 2: 1 + 2 = 3.
        let s = shape(vec![Agg::SumM1], vec![], Some(Col::Tag));
        assert_eq!(
            evaluate(&fixture(), &s, &op(vec![])),
            vec![
                vec![Cell::T("t01".to_string()), Cell::U(9)],
                vec![Cell::T("t02".to_string()), Cell::U(3)],
            ]
        );
    }

    #[test]
    fn row_comparison_ignores_order_but_not_content() {
        let a = vec![vec![Cell::U(1), Cell::U(10)], vec![Cell::U(2), Cell::U(20)]];
        let b = vec![vec![Cell::U(2), Cell::U(20)], vec![Cell::U(1), Cell::U(10)]];
        let c = vec![vec![Cell::U(2), Cell::U(20)], vec![Cell::U(1), Cell::U(11)]];
        assert!(same_rows(&a, &b));
        assert!(!same_rows(&a, &c));
        assert!(!same_rows(&a, &a[..1].to_vec()));
    }
}
