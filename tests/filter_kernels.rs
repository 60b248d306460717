//! Property tests for the vectorized filter kernels.
//!
//! For every [`PhysicalFilter`] variant, the kernel
//! ([`PhysicalFilter::refine`]) applied to a full selection must produce
//! exactly the set of rows where the scalar predicate
//! ([`PhysicalFilter::matches`]) returns true — over random columns, random
//! operators and literals, empty partitions, and the all-match / none-match
//! edges. Refining an already-narrowed selection must behave as set
//! intersection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed_core::PhysicalFilter;
use seabed_crypto::OreScheme;
use seabed_engine::{ColumnData, ColumnType, Partition, Schema, SelectionVector, Table};
use seabed_query::CompareOp;
use std::cmp::Ordering;
use std::sync::OnceLock;

const ORE_DOMAIN: u64 = 16;

fn ore_symbols() -> &'static Vec<Vec<u8>> {
    static SYMS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    SYMS.get_or_init(|| {
        let scheme = OreScheme::new(&[9u8; 16]);
        (0..ORE_DOMAIN).map(|v| scheme.encrypt(v).symbols).collect()
    })
}

fn op_of(code: u8) -> CompareOp {
    match code % 6 {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        _ => CompareOp::GtEq,
    }
}

/// Builds a one-partition table holding every column type the filters read.
fn partition(u64s: Vec<u64>, texts: Vec<String>, bytes: Vec<Vec<u8>>) -> Partition {
    let schema = Schema::new([
        ("u".to_string(), ColumnType::UInt64),
        ("s".to_string(), ColumnType::Utf8),
        ("b".to_string(), ColumnType::Bytes),
    ]);
    let table = Table::from_columns(
        schema,
        vec![
            ColumnData::UInt64(u64s),
            ColumnData::Utf8(texts),
            ColumnData::Bytes(bytes.iter().collect()),
        ],
        1,
    );
    table.partitions.into_iter().next().expect("one partition")
}

/// The property: the kernel's surviving rows equal the scalar-match set.
fn assert_kernel_matches_scalar(filter: &PhysicalFilter, p: &Partition) -> Result<(), TestCaseError> {
    let n = p.num_rows();
    let mut sel = SelectionVector::all(n);
    if let Err(e) = filter.refine(p, &mut sel) {
        return Err(TestCaseError::Fail(format!("kernel failed on valid partition: {e}")));
    }
    let expected: Vec<u32> = (0..n)
        .filter(|&row| filter.matches(p, row))
        .map(|row| row as u32)
        .collect();
    prop_assert_eq!(sel.rows(), expected.as_slice());
    match filter.select_dense(p) {
        Ok(dense) => prop_assert_eq!(dense.rows(), expected.as_slice()),
        Err(e) => {
            return Err(TestCaseError::Fail(format!(
                "dense kernel failed on valid partition: {e}"
            )))
        }
    }

    // Refinement from a narrowed selection is intersection: keep every third
    // row, then refine.
    let narrowed: Vec<u32> = (0..n as u32).step_by(3).collect();
    let mut sel = SelectionVector::from_sorted_rows(narrowed.clone());
    if let Err(e) = filter.refine(p, &mut sel) {
        return Err(TestCaseError::Fail(format!("kernel failed on valid partition: {e}")));
    }
    let expected: Vec<u32> = narrowed
        .into_iter()
        .filter(|&row| filter.matches(p, row as usize))
        .collect();
    prop_assert_eq!(sel.rows(), expected.as_slice());
    Ok(())
}

fn texts_of(seeds: &[u64]) -> Vec<String> {
    seeds.iter().map(|v| format!("t{}", v % 5)).collect()
}

fn ore_cells_of(seeds: &[u64]) -> Vec<Vec<u8>> {
    seeds
        .iter()
        .map(|v| ore_symbols()[(v % ORE_DOMAIN) as usize].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn plain_u64_kernel_equals_scalar_matches(
        cells in proptest::collection::vec(0u64..32, 0..300),
        opc in 0u8..6,
        value in 0u64..34,
    ) {
        let n = cells.len();
        let p = partition(cells, texts_of(&vec![0; n]), ore_cells_of(&vec![0; n]));
        let filter = PhysicalFilter::PlainU64 { column: 0, op: op_of(opc), value };
        assert_kernel_matches_scalar(&filter, &p)?;
    }

    #[test]
    fn det_tag_kernel_equals_scalar_matches(
        cells in proptest::collection::vec(0u64..8, 0..300),
        tag in 0u64..10,
    ) {
        let n = cells.len();
        let p = partition(cells, texts_of(&vec![0; n]), ore_cells_of(&vec![0; n]));
        let filter = PhysicalFilter::DetTag { column: 0, tag };
        assert_kernel_matches_scalar(&filter, &p)?;
    }

    #[test]
    fn plain_text_kernel_equals_scalar_matches(
        seeds in proptest::collection::vec(any::<u64>(), 0..300),
        pick in 0u64..7,
    ) {
        let n = seeds.len();
        // pick 5/6 never occur in the column: the none-match edge.
        let value = format!("t{pick}");
        let p = partition(vec![0; n], texts_of(&seeds), ore_cells_of(&vec![0; n]));
        let filter = PhysicalFilter::PlainText { column: 1, value };
        assert_kernel_matches_scalar(&filter, &p)?;
    }

    #[test]
    fn ope_kernel_equals_scalar_matches(
        seeds in proptest::collection::vec(any::<u64>(), 0..200),
        opc in 0u8..6,
        literal in 0u64..16,
    ) {
        let n = seeds.len();
        let p = partition(vec![0; n], texts_of(&vec![0; n]), ore_cells_of(&seeds));
        let filter = PhysicalFilter::Ope {
            column: 2,
            op: op_of(opc),
            ciphertext: seabed_crypto::OreCiphertext { symbols: ore_symbols()[literal as usize].clone() },
        };
        assert_kernel_matches_scalar(&filter, &p)?;
    }
}

/// What the `0..16` domain above never reaches: ciphertexts that first differ
/// in either word (including the very first and the very last symbol), and
/// cells that are not 16 packed bytes wide or hold a two-bit lane no honest
/// symbol has. Such a cell compares as `None`, or arbitrarily but the same
/// way in all three kernels, and is a row that does not match.
#[test]
fn ope_kernels_agree_over_the_full_range_and_on_corrupt_cells() {
    let scheme = OreScheme::new(&[9u8; 16]);
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    let mut next = move || rng.random::<u64>();
    let pivot = next();
    let mut values = vec![0, 1, u64::MAX, u64::MAX - 1, pivot, pivot ^ 1, pivot ^ (1 << 63)];
    // Neighbours of the pivot that first differ from it at every bit.
    values.extend((0..64).map(|bit| pivot ^ (1 << bit) ^ (next() & ((1 << bit) - 1))));
    values.extend((0..64).map(|_| next()));
    let mut cells: Vec<Vec<u8>> = values.iter().map(|&v| scheme.encrypt(v).symbols).collect();

    let honest = cells.len();
    let wide = &cells[4];
    assert_eq!(wide.len(), 16);
    let corrupt: Vec<Vec<u8>> = vec![
        // Widths 0, 15, 17 and 2: no ordering against a 16-byte literal.
        Vec::new(),
        wide[..15].to_vec(),
        wide.iter().copied().chain([1]).collect(),
        // 16 wide, with lanes holding `3`: some ordering, the same everywhere.
        wide.iter().map(|byte| byte | 0b11_00_11_00).collect(),
        wide.iter()
            .enumerate()
            .map(|(i, &byte)| if i == 10 { 0xFF } else { byte })
            .collect(),
        vec![0x80; 16],
        wide[..2].to_vec(),
    ];
    // Interleave the corrupt cells with the honest ones.
    for (i, cell) in corrupt.into_iter().enumerate() {
        cells.insert(i * 17, cell);
    }
    let n = cells.len();
    let p = partition(vec![0; n], texts_of(&vec![0; n]), cells);

    let mut selected = 0usize;
    for literal in [
        pivot,
        pivot ^ 1,
        pivot ^ (1 << 63),
        0,
        u64::MAX,
        values[70],
        values[100],
    ] {
        for opc in 0..6 {
            let filter = PhysicalFilter::Ope {
                column: 2,
                op: op_of(opc),
                ciphertext: scheme.encrypt(literal),
            };
            assert_kernel_matches_scalar(&filter, &p).unwrap_or_else(|e| panic!("{literal} {:?}: {e:?}", op_of(opc)));
            selected += filter.select_dense(&p).expect("valid").len();
        }
    }
    // A 16-byte cell, honest or not, has some ordering against the literal and
    // so satisfies exactly three of the six operators; the four cells of
    // another width satisfy none.
    assert_eq!(selected, 7 * 3 * (honest + 3));
}

/// The lane-at-a-time ORE rule — the first differing symbol pair `(x, y)`
/// orders `x` greater exactly when `x == (y + 1) % 3` — restated here as the
/// verdict every kernel must reach, forged lanes included.
fn lanewise_order(a: &[u8], b: &[u8]) -> Ordering {
    for (x, y) in a.iter().zip(b) {
        for shift in [6, 4, 2, 0] {
            let (x, y) = ((x >> shift) & 3, (y >> shift) & 3);
            if x != y {
                return if x == (y + 1) % 3 {
                    Ordering::Greater
                } else {
                    Ordering::Less
                };
            }
        }
    }
    Ordering::Equal
}

/// The test above interleaves cells of other widths, so its column is ragged
/// and the kernels read it cell by cell. Here the column holds *only* 16-byte
/// cells — honest ones, and the forgeries that keep the width (a lane holding
/// `3`, a `0xFF` byte, a `0x80` byte, at every byte position) — so the kernels
/// read it as arrays (`BytesColumn::fixed_cells`); the same cells plus one of
/// another width are ragged again. Both accessors must agree with `matches()`,
/// and `matches()` with the lanewise rule.
#[test]
fn ope_kernels_agree_on_a_column_of_only_sixteen_byte_cells() {
    let scheme = OreScheme::new(&[9u8; 16]);
    let mut rng = StdRng::seed_from_u64(0x16B);
    let mut next = move || rng.random::<u64>();
    let pivot = next();
    let mut values = vec![0, 1, u64::MAX, pivot, pivot ^ 1];
    values.extend((0..64).map(|bit| pivot ^ (1 << bit)));
    // Timestamp-like values share the whole first word with one another.
    values.extend((0..64).map(|_| next() % (1 << 20)));
    let honest: Vec<Vec<u8>> = values.iter().map(|&v| scheme.encrypt(v).symbols).collect();
    let mut cells = honest.clone();
    let forgeries: [fn(u8, usize) -> u8; 3] = [|byte, at| byte | 0b11 << (2 * (at % 4)), |_, _| 0xFF, |_, _| 0x80];
    for (at, cell) in honest.iter().enumerate().take(16) {
        for forge in forgeries {
            let mut forged = cell.clone();
            forged[at] = forge(forged[at], at);
            cells.push(forged);
        }
    }
    cells.extend([vec![0x80; 16], vec![0xFF; 16]]);
    let n = cells.len();
    let uniform = partition(vec![0; n], texts_of(&vec![0; n]), cells.clone());
    let ragged_cells: Vec<Vec<u8>> = cells.iter().cloned().chain([honest[0][..15].to_vec()]).collect();
    let ragged = partition(vec![0; n + 1], texts_of(&vec![0; n + 1]), ragged_cells);
    let reads_arrays = |p: &Partition| {
        let column = p.column(2).bytes_column().expect("a Bytes column");
        column.fixed_cells::<16>().is_some()
    };
    assert!(reads_arrays(&uniform));
    assert!(!reads_arrays(&ragged));

    let mut selected = 0usize;
    for literal in [pivot, pivot ^ 1, 0, u64::MAX, values[40], values[100]] {
        let ciphertext = scheme.encrypt(literal);
        for opc in 0..6 {
            let op = op_of(opc);
            let filter = PhysicalFilter::Ope {
                column: 2,
                op,
                ciphertext: ciphertext.clone(),
            };
            for p in [&uniform, &ragged] {
                assert_kernel_matches_scalar(&filter, p).unwrap_or_else(|e| panic!("{literal} {op:?}: {e:?}"));
            }
            for (row, cell) in cells.iter().enumerate() {
                let verdict = op.eval_ordering(lanewise_order(cell, &ciphertext.symbols));
                assert_eq!(filter.matches(&uniform, row), verdict, "{literal} {op:?} row {row}");
            }
            let dense = filter.select_dense(&uniform).expect("valid");
            let ragged_dense = filter.select_dense(&ragged).expect("valid");
            assert_eq!(dense.rows(), ragged_dense.rows(), "{literal} {op:?}");
            selected += dense.len();
        }
    }
    // Every 16-byte cell, honest or forged, has an ordering against the
    // literal, and so satisfies exactly three of the six operators.
    assert_eq!(selected, 6 * 3 * n);
}

#[test]
fn kernels_handle_empty_partitions() {
    let p = partition(vec![], vec![], vec![]);
    for filter in [
        PhysicalFilter::PlainU64 {
            column: 0,
            op: CompareOp::Lt,
            value: 5,
        },
        PhysicalFilter::DetTag { column: 0, tag: 5 },
        PhysicalFilter::PlainText {
            column: 1,
            value: "x".to_string(),
        },
        PhysicalFilter::Ope {
            column: 2,
            op: CompareOp::GtEq,
            ciphertext: seabed_crypto::OreCiphertext {
                symbols: ore_symbols()[0].clone(),
            },
        },
    ] {
        let mut sel = SelectionVector::all(0);
        filter.refine(&p, &mut sel).expect("empty partition is valid");
        assert!(sel.is_empty());
    }
}

#[test]
fn kernels_handle_all_match_and_none_match_edges() {
    let n = 100usize;
    let p = partition(
        (0..n as u64).collect(),
        texts_of(&vec![0; n]),
        ore_cells_of(&(0..n as u64).collect::<Vec<_>>()),
    );
    // All match: every u64 cell is < 1000.
    let all = PhysicalFilter::PlainU64 {
        column: 0,
        op: CompareOp::Lt,
        value: 1000,
    };
    let mut sel = SelectionVector::all(n);
    all.refine(&p, &mut sel).expect("valid");
    assert_eq!(sel.len(), n);
    // None match: no cell is > 1000.
    let none = PhysicalFilter::PlainU64 {
        column: 0,
        op: CompareOp::Gt,
        value: 1000,
    };
    let mut sel = SelectionVector::all(n);
    none.refine(&p, &mut sel).expect("valid");
    assert!(sel.is_empty());
    // Text that no row holds.
    let none_text = PhysicalFilter::PlainText {
        column: 1,
        value: "absent".to_string(),
    };
    let mut sel = SelectionVector::all(n);
    none_text.refine(&p, &mut sel).expect("valid");
    assert!(sel.is_empty());
}

#[test]
fn kernel_on_mistyped_column_is_an_error() {
    let p = partition(vec![1, 2, 3], texts_of(&[0, 0, 0]), ore_cells_of(&[0, 0, 0]));
    // u64 filter pointed at the Utf8 column.
    let filter = PhysicalFilter::PlainU64 {
        column: 1,
        op: CompareOp::Eq,
        value: 1,
    };
    let mut sel = SelectionVector::all(3);
    assert!(filter.refine(&p, &mut sel).is_err());
    // Scalar path deselects instead (types are validated before any scan).
    assert!(!filter.matches(&p, 0));
}
