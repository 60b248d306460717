//! The encryption module (§4.3): turning a plaintext dataset into the
//! encrypted physical schema.
//!
//! Given the data planner's per-column decisions, the encryption module
//! produces an engine [`Table`] whose physical columns follow the naming rules
//! of [`seabed_query::encnames`]:
//!
//! * ASHE measures become a `u64` column of masked words (plus an optional
//!   squares column for variance queries), keyed per column;
//! * OPE columns store the ORE ciphertext bytes plus an ASHE-encrypted
//!   companion value so MIN/MAX results can be decrypted. The column is one
//!   run of one [`seabed_crypto::OreCursor`]: a row pays for the PRF levels it
//!   does not share with the row before it (`63 - lcp` AES blocks, not 64 —
//!   about 15 for shuffled seconds-of-a-day, about 5 for a time-ordered
//!   batch), and the new levels of [`seabed_crypto::OreCursor::RUN_ROWS`]
//!   rows at a time go through one AES dispatch. The cells are what
//!   per-value encryption writes, and
//!   `tests/crypto_batch_differential.rs` holds both the cells and the count
//!   (`ore_cursor_sequences_are_pinned`, `ore_time_ordered_column_is_pinned`);
//! * DET dimensions store 64-bit equality tags; the proxy keeps the reverse
//!   dictionary so group keys can be decrypted. A tag is computed once per
//!   distinct value, and a row repeating the value before it costs no lookup;
//! * SPLASHE dimensions are splayed into indicator and per-measure columns,
//!   with the enhanced variant adding a frequency-balanced DET column;
//! * non-sensitive columns pass through unchanged.
//!
//! Row identifiers are implicit: row `i` of the table is identifier `i`
//! (partitions carry `start_row`), which is what makes ASHE's ID lists
//! collapse into ranges.

use crate::dataset::{PlainColumn, PlainDataset};
use crate::keys::KeyStore;
use crate::session::Fnv1a;
use rand::seq::SliceRandom;
use rand::Rng;
use seabed_ashe::AsheScheme;
use seabed_crypto::ore::ORE_CELL_BYTES;
use seabed_crypto::{DetScheme, OreScheme};
use seabed_engine::{BytesColumn, ColumnData, ColumnType, Schema, Table};
use seabed_query::encnames;
use seabed_query::planner::{EncryptionChoice, SchemaPlan};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

/// An encrypted table plus the client-side state needed to use it.
#[derive(Clone)]
pub struct EncryptedTable {
    /// The physical encrypted table stored at the (untrusted) server.
    pub table: Table,
    /// The schema plan the table was encrypted under.
    pub plan: SchemaPlan,
    /// Reverse dictionaries for deterministic columns
    /// (physical column name → tag → plaintext). Kept at the proxy, never
    /// shipped to the server.
    pub det_dictionary: HashMap<String, HashMap<u64, String>>,
}

/// Returns the ASHE key for a physical (encrypted) column name, consistent
/// between the encryption module and the decryption module.
pub(crate) fn physical_ashe_keys(plan: &SchemaPlan, keys: &KeyStore) -> HashMap<String, [u8; 16]> {
    let mut map = HashMap::new();
    let measures: Vec<&str> = plan
        .columns
        .iter()
        .filter(|c| matches!(c.encryption, EncryptionChoice::Ashe { .. }))
        .map(|c| c.name.as_str())
        .collect();
    for col in &plan.columns {
        match &col.encryption {
            EncryptionChoice::Ashe { with_squares } => {
                map.insert(encnames::ashe(&col.name), keys.ashe_key(&col.name));
                if *with_squares {
                    map.insert(
                        encnames::ashe_squares(&col.name),
                        keys.ashe_key(&format!("{}^2", col.name)),
                    );
                }
            }
            EncryptionChoice::Ope => {
                map.insert(encnames::ope_value(&col.name), keys.ashe_key(&col.name));
            }
            EncryptionChoice::SplasheBasic { domain } => {
                for (slot, _) in domain.iter().enumerate() {
                    map.insert(
                        encnames::splashe_indicator(&col.name, slot),
                        keys.splashe_indicator_key(&col.name, slot),
                    );
                    for measure in &measures {
                        map.insert(
                            encnames::splashe_measure(&col.name, measure, slot),
                            keys.splashe_measure_key(&col.name, measure, slot),
                        );
                    }
                }
            }
            EncryptionChoice::SplasheEnhanced { plan: eplan } => {
                let others_slot = eplan.k();
                for slot in 0..=others_slot {
                    let ind_name = if slot == others_slot {
                        encnames::splashe_indicator_others(&col.name)
                    } else {
                        encnames::splashe_indicator(&col.name, slot)
                    };
                    map.insert(ind_name, keys.splashe_indicator_key(&col.name, slot));
                    for measure in &measures {
                        let m_name = if slot == others_slot {
                            encnames::splashe_measure_others(&col.name, measure)
                        } else {
                            encnames::splashe_measure(&col.name, measure, slot)
                        };
                        map.insert(m_name, keys.splashe_measure_key(&col.name, measure, slot));
                    }
                }
            }
            _ => {}
        }
    }
    map
}

/// Encrypts a plaintext dataset into the physical encrypted table.
///
/// `num_partitions` controls how the server will parallelise scans; rows keep
/// their upload order so identifiers stay contiguous.
pub fn encrypt_dataset<R: Rng + ?Sized>(
    dataset: &PlainDataset,
    plan: &SchemaPlan,
    keys: &KeyStore,
    num_partitions: usize,
    rng: &mut R,
) -> EncryptedTable {
    let mut fields: Vec<(String, ColumnType)> = Vec::new();
    let mut columns: Vec<ColumnData> = Vec::new();
    let mut det_dictionary: HashMap<String, HashMap<u64, String>> = HashMap::new();

    // Names of all ASHE measure columns; every SPLASHE dimension splays each
    // of them (a conservative superset of the co-queried measures).
    let measures: Vec<String> = plan
        .columns
        .iter()
        .filter(|c| matches!(c.encryption, EncryptionChoice::Ashe { .. }))
        .map(|c| c.name.clone())
        .collect();

    for col_plan in &plan.columns {
        let Some(source) = dataset.column(&col_plan.name) else {
            // Column described by the plan but absent from this upload batch —
            // skip it (e.g. optional columns).
            continue;
        };
        match &col_plan.encryption {
            EncryptionChoice::Plaintext => match source {
                PlainColumn::UInt(v) => {
                    fields.push((col_plan.name.clone(), ColumnType::UInt64));
                    columns.push(ColumnData::UInt64(v.clone()));
                }
                PlainColumn::Text(v) => {
                    fields.push((col_plan.name.clone(), ColumnType::Utf8));
                    columns.push(ColumnData::Utf8(v.clone()));
                }
            },
            EncryptionChoice::Ashe { with_squares } => {
                let values = numeric_values(source, &col_plan.name);
                fields.push((encnames::ashe(&col_plan.name), ColumnType::UInt64));
                columns.push(ashe_column(keys.ashe_key(&col_plan.name), &values));
                if *with_squares {
                    let squares: Vec<u64> = values.iter().map(|&v| v.wrapping_mul(v)).collect();
                    fields.push((encnames::ashe_squares(&col_plan.name), ColumnType::UInt64));
                    columns.push(ashe_column(keys.ashe_key(&format!("{}^2", col_plan.name)), &squares));
                }
            }
            EncryptionChoice::Det => {
                let det = DetScheme::new(&keys.det_key(&col_plan.name));
                let physical = encnames::det(&col_plan.name);
                let (tags, dict) = match source {
                    PlainColumn::UInt(v) => det_column(&det, v.iter().copied(), |value| value.to_string()),
                    PlainColumn::Text(v) => det_column(&det, v.iter().map(String::as_str), str::to_string),
                };
                det_dictionary.insert(physical.clone(), dict);
                fields.push((physical, ColumnType::UInt64));
                columns.push(ColumnData::UInt64(tags));
            }
            EncryptionChoice::Ope => {
                let values = numeric_values(source, &col_plan.name);
                let ore = OreScheme::new(&keys.ope_key(&col_plan.name));
                fields.push((encnames::ope(&col_plan.name), ColumnType::Bytes));
                let mut cells = BytesColumn::with_capacity(values.len() * ORE_CELL_BYTES);
                ore.cursor().encrypt_run(&values, |cell| cells.push(&cell));
                columns.push(ColumnData::Bytes(cells));
                // Companion ASHE column so MIN/MAX results can be decrypted.
                fields.push((encnames::ope_value(&col_plan.name), ColumnType::UInt64));
                columns.push(ashe_column(keys.ashe_key(&col_plan.name), &values));
            }
            EncryptionChoice::SplasheBasic { domain } => {
                splay_dimension(
                    &col_plan.name,
                    source,
                    domain,
                    None,
                    &measures,
                    dataset,
                    keys,
                    &mut fields,
                    &mut columns,
                    &mut det_dictionary,
                    rng,
                );
            }
            EncryptionChoice::SplasheEnhanced { plan: eplan } => {
                splay_dimension(
                    &col_plan.name,
                    source,
                    &eplan.frequent,
                    Some(&eplan.infrequent),
                    &measures,
                    dataset,
                    keys,
                    &mut fields,
                    &mut columns,
                    &mut det_dictionary,
                    rng,
                );
            }
        }
    }

    let schema = Schema::new(fields);
    let table = Table::from_columns(schema, columns, num_partitions.max(1));
    EncryptedTable {
        table,
        plan: plan.clone(),
        det_dictionary,
    }
}

/// DET tags of a column's rows plus the proxy's reverse dictionary, paying
/// one HMAC, one text rendering and one dictionary entry per *distinct* value
/// (a dimension column holds few) rather than per row. `text_of` renders a
/// value in the canonical text form DET operates on.
///
/// A row that repeats the value before it reuses that row's tag; any other
/// looks its value up in a memo hashed with [`crate::fnv1a64`], not the
/// default keyed SipHash. An unkeyed hash is fine here: a keyed one defends a
/// map against keys an adversary picks to collide, and this memo's keys are
/// the uploader's own plaintexts, hashed by the key holder, in a map that
/// lives for one column of one upload and is never seen by anyone else.
fn det_column<V: Copy + Eq + Hash>(
    det: &DetScheme,
    values: impl Iterator<Item = V>,
    text_of: impl Fn(V) -> String,
) -> (Vec<u64>, HashMap<u64, String>) {
    let mut tag_of: HashMap<V, u64, BuildHasherDefault<Fnv1a>> = HashMap::default();
    let mut dict = HashMap::new();
    let mut last: Option<(V, u64)> = None;
    let tags = values
        .map(|value| match last {
            Some((previous, tag)) if previous == value => tag,
            _ => {
                let tag = *tag_of.entry(value).or_insert_with(|| {
                    let text = text_of(value);
                    let tag = det.tag64_of(text.as_bytes());
                    dict.insert(tag, text);
                    tag
                });
                last = Some((value, tag));
                tag
            }
        })
        .collect();
    (tags, dict)
}

/// `values` ASHE-encrypted under `key` as one physical column, row `i` under
/// identifier `i`.
fn ashe_column(key: [u8; 16], values: &[u64]) -> ColumnData {
    ColumnData::UInt64(seabed_ashe::encrypt_column(&AsheScheme::new(&key), values, 0).values)
}

fn numeric_values(source: &PlainColumn, name: &str) -> Vec<u64> {
    match source {
        PlainColumn::UInt(v) => v.clone(),
        PlainColumn::Text(_) => panic!("column {name} must be numeric for this encryption scheme"),
    }
}

/// Splays one dimension into indicator and per-measure columns.
///
/// `frequent` lists the values that get dedicated columns; `infrequent` is
/// `Some` for enhanced SPLASHE (those values share the "others" columns and a
/// frequency-balanced DET column) and `None` for basic SPLASHE (every value is
/// in `frequent`).
#[allow(clippy::too_many_arguments)]
fn splay_dimension<R: Rng + ?Sized>(
    dimension: &str,
    source: &PlainColumn,
    frequent: &[String],
    infrequent: Option<&[String]>,
    measures: &[String],
    dataset: &PlainDataset,
    keys: &KeyStore,
    fields: &mut Vec<(String, ColumnType)>,
    columns: &mut Vec<ColumnData>,
    det_dictionary: &mut HashMap<String, HashMap<u64, String>>,
    rng: &mut R,
) {
    let n = source.len();
    let k = frequent.len();
    let enhanced = infrequent.is_some();
    let slots = if enhanced { k + 1 } else { k };

    // Which slot each row belongs to (k = "others" for enhanced).
    let mut row_slot = Vec::with_capacity(n);
    for i in 0..n {
        let text = source.text_at(i);
        let slot = frequent.iter().position(|v| *v == text).unwrap_or_else(|| {
            if enhanced {
                k
            } else {
                panic!("value {text:?} not in the splayed domain of {dimension}")
            }
        });
        row_slot.push(slot);
    }

    // Indicator columns.
    for slot in 0..slots {
        let plain: Vec<u64> = row_slot.iter().map(|&s| u64::from(s == slot)).collect();
        let name = if enhanced && slot == k {
            encnames::splashe_indicator_others(dimension)
        } else {
            encnames::splashe_indicator(dimension, slot)
        };
        fields.push((name, ColumnType::UInt64));
        columns.push(ashe_column(keys.splashe_indicator_key(dimension, slot), &plain));
    }

    // Splayed measure columns.
    for measure in measures {
        let Some(values) = dataset.column(measure) else {
            continue;
        };
        let values = numeric_values(values, measure);
        for slot in 0..slots {
            let plain: Vec<u64> = row_slot
                .iter()
                .zip(values.iter())
                .map(|(&s, &v)| if s == slot { v } else { 0 })
                .collect();
            let name = if enhanced && slot == k {
                encnames::splashe_measure_others(dimension, measure)
            } else {
                encnames::splashe_measure(dimension, measure, slot)
            };
            fields.push((name, ColumnType::UInt64));
            columns.push(ashe_column(keys.splashe_measure_key(dimension, measure, slot), &plain));
        }
    }

    // Enhanced SPLASHE: frequency-balanced DET column over the infrequent
    // values, using frequent rows' cells as dummies.
    if let Some(infrequent) = infrequent {
        let det = DetScheme::new(&keys.det_key(dimension));
        let physical = encnames::det(dimension);
        let tags: Vec<u64> = infrequent.iter().map(|v| det.tag64_of(v.as_bytes())).collect();
        let mut dict: HashMap<u64, String> = tags.iter().copied().zip(infrequent.iter().cloned()).collect();
        let mut det_column = vec![0u64; n];
        let mut counts = vec![0u64; infrequent.len()];
        let mut dummy_rows = Vec::new();
        for (i, &slot) in row_slot.iter().enumerate() {
            if slot == k {
                let text = source.text_at(i);
                let idx = infrequent
                    .iter()
                    .position(|v| *v == text)
                    .expect("infrequent value must be listed in the plan");
                det_column[i] = tags[idx];
                counts[idx] += 1;
            } else {
                dummy_rows.push(i);
            }
        }
        if !infrequent.is_empty() {
            dummy_rows.shuffle(rng);
            for row in dummy_rows {
                let (idx, _) = counts.iter().enumerate().min_by_key(|(_, &c)| c).unwrap();
                det_column[row] = tags[idx];
                counts[idx] += 1;
            }
        } else {
            // No infrequent values at all: fill with a fixed dummy tag.
            let dummy = det.tag64_of(b"__splashe_dummy__");
            dict.insert(dummy, "__splashe_dummy__".to_string());
            for row in dummy_rows {
                det_column[row] = dummy;
            }
        }
        det_dictionary.insert(physical.clone(), dict);
        fields.push((physical, ColumnType::UInt64));
        columns.push(ColumnData::UInt64(det_column));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_query::parser::parse;
    use seabed_query::planner::{plan_schema, ColumnSpec, PlannerConfig};

    fn dataset() -> PlainDataset {
        let countries = ["USA", "USA", "Canada", "USA", "Canada", "India", "Chile", "India"];
        PlainDataset::new("sales")
            .with_text_column("country", countries.iter().map(|s| s.to_string()).collect())
            .with_uint_column("revenue", vec![10, 20, 30, 40, 50, 60, 70, 80])
            .with_uint_column("ts", vec![1, 2, 3, 4, 5, 6, 7, 8])
            .with_uint_column("clicks", vec![1, 1, 2, 2, 3, 3, 4, 4])
    }

    fn schema_plan(ds: &PlainDataset) -> SchemaPlan {
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", ds.distribution("country").unwrap()),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::public("clicks"),
        ];
        let queries: Vec<_> = [
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        plan_schema(&columns, &queries, &PlannerConfig::default())
    }

    #[test]
    fn encrypted_schema_has_expected_columns() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 2, &mut rand::rng());
        let names: Vec<&str> = enc.table.schema.fields.iter().map(|f| f.name.as_str()).collect();
        assert!(names.contains(&"revenue__ashe"));
        assert!(names.contains(&"ts__ope"));
        assert!(names.contains(&"ts__ope_val"));
        assert!(names.contains(&"clicks"), "public column passes through");
        assert!(
            names.contains(&"country__det"),
            "enhanced SPLASHE keeps a balanced DET column"
        );
        assert!(names.iter().any(|n| n.starts_with("revenue__spl_country_")));
        assert!(names.iter().any(|n| n.starts_with("country__ind_")));
        assert!(!names.contains(&"revenue"), "plaintext measure must not leak");
        assert!(!names.contains(&"country"), "plaintext dimension must not leak");
        assert_eq!(enc.table.num_rows(), ds.num_rows());
    }

    #[test]
    fn ciphertext_columns_differ_from_plaintext() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 1, &mut rand::rng());
        let ashe_col = enc.table.gather_u64("revenue__ashe").unwrap();
        assert_ne!(ashe_col, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn ashe_column_decrypts_back_to_plaintext() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 3, &mut rand::rng());
        let scheme = AsheScheme::new(&keys.ashe_key("revenue"));
        let words = enc.table.gather_u64("revenue__ashe").unwrap();
        let col = seabed_ashe::EncryptedColumn {
            start_id: 0,
            values: words,
        };
        assert_eq!(
            seabed_ashe::decrypt_column(&scheme, &col),
            vec![10, 20, 30, 40, 50, 60, 70, 80]
        );
    }

    #[test]
    fn det_dictionary_covers_observed_tags() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 1, &mut rand::rng());
        let dict = &enc.det_dictionary["country__det"];
        let tags = enc.table.gather_u64("country__det").unwrap();
        for tag in tags {
            assert!(dict.contains_key(&tag), "tag {tag} missing from dictionary");
        }
    }

    /// One tag per distinct value ≡ one tag per row: on columns full of
    /// duplicates (text and numeric) the stored tags and the dictionary are
    /// what the per-row loop would have produced.
    #[test]
    fn det_memo_matches_per_row_tags() {
        let depts: Vec<String> = (0..200u64).map(|i| format!("dept-{}", (i * i + 3) % 7)).collect();
        let codes: Vec<u64> = (0..200u64).map(|i| (i * 31) % 5 + 1_000).collect();
        let ds = PlainDataset::new("staff")
            .with_text_column("dept", depts)
            .with_uint_column("code", codes)
            .with_uint_column("pay", (0..200).collect());
        let columns = vec![
            ColumnSpec::sensitive("dept"),
            ColumnSpec::sensitive("code"),
            ColumnSpec::sensitive("pay"),
        ];
        let queries = vec![
            parse("SELECT dept, SUM(pay) FROM staff GROUP BY dept").unwrap(),
            parse("SELECT SUM(pay) FROM staff WHERE code = 1001").unwrap(),
        ];
        let plan = plan_schema(&columns, &queries, &PlannerConfig::default());
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 2, &mut rand::rng());
        for name in ["dept", "code"] {
            let det = DetScheme::new(&keys.det_key(name));
            let source = ds.column(name).unwrap();
            let per_row: Vec<(u64, String)> = (0..ds.num_rows())
                .map(|i| (det.tag64_of(source.text_at(i).as_bytes()), source.text_at(i)))
                .collect();
            let physical = encnames::det(name);
            let stored = enc.table.gather_u64(&physical).unwrap();
            assert_eq!(stored, per_row.iter().map(|(tag, _)| *tag).collect::<Vec<_>>());
            assert_eq!(
                enc.det_dictionary[&physical],
                per_row.into_iter().collect::<HashMap<_, _>>()
            );
            assert!(enc.det_dictionary[&physical].len() <= 7, "one entry per distinct value");
        }
    }

    #[test]
    fn splashe_balanced_column_is_flat() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 1, &mut rand::rng());
        let tags = enc.table.gather_u64("country__det").unwrap();
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for t in tags {
            *hist.entry(t).or_insert(0) += 1;
        }
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "histogram {hist:?}");
    }

    #[test]
    fn physical_key_map_covers_ashe_columns() {
        let ds = dataset();
        let plan = schema_plan(&ds);
        let keys = KeyStore::new(b"master");
        let enc = encrypt_dataset(&ds, &plan, &keys, 1, &mut rand::rng());
        let key_map = physical_ashe_keys(&plan, &keys);
        for field in &enc.table.schema.fields {
            let name = &field.name;
            let is_ashe_backed = name.ends_with("__ashe")
                || name.ends_with("__ashe_sq")
                || name.ends_with("__ope_val")
                || name.contains("__spl_")
                || name.contains("__ind_");
            if is_ashe_backed {
                assert!(key_map.contains_key(name), "missing key for {name}");
            }
        }
    }
}
