//! The encryption module (§4.3): turning a plaintext dataset into the
//! encrypted physical schema.
//!
//! [`SeabedClient::create_plan`](crate::SeabedClient::create_plan) turns the
//! data planner's per-column decisions into the plan's layout once: the
//! ordered list of physical columns, named by the rules of
//! [`seabed_query::encnames`], each with what it holds and the scheme that
//! writes and opens it. It is the one place a column key is derived ("a
//! different secret key for each column", §4.2) and expanded; the master
//! secret is wiped when it returns. An upload writes the layout's columns
//! whose sources are in the batch, with the layout's schemes; literal
//! encryption and decryption look the same schemes up by physical name.
//!
//! * ASHE measures become a `u64` column of masked words (plus an optional
//!   squares column for variance queries);
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
//! * enhanced SPLASHE dimensions are splayed into an indicator and a column
//!   per ASHE measure for each frequent value and for "others", plus a
//!   frequency-balanced DET column (§3.4); `seabed_splashe` places each row
//!   ([`seabed_splashe::EnhancedPlan::slot`]) and writes that DET column
//!   ([`seabed_splashe::balanced_column`]);
//! * non-sensitive columns pass through unchanged.
//!
//! Row identifiers are implicit: row `i` of the table is identifier `i`
//! (partitions carry `start_row`), which is what makes ASHE's ID lists
//! collapse into ranges.

use crate::dataset::{PlainColumn, PlainDataset};
use crate::keys::KeyStore;
use crate::session::Fnv1a;
use rand::Rng;
use seabed_ashe::AsheScheme;
use seabed_crypto::ore::ORE_CELL_BYTES;
use seabed_crypto::{DetScheme, OreScheme};
use seabed_engine::{BytesColumn, ColumnData, ColumnType, Schema, Table};
use seabed_query::encnames;
use seabed_query::planner::{EncryptionChoice, SchemaPlan};
use seabed_splashe::EnhancedPlan;
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

/// A plan's physical columns in table order, and the index of their schemes
/// by physical name.
pub(crate) struct Layout {
    columns: Vec<PhysicalColumn>,
    by_name: HashMap<String, usize>,
}

/// One physical column of a [`Layout`].
struct PhysicalColumn {
    name: String,
    /// The logical column its rows are read from: the dimension, for a
    /// SPLASHE column.
    source: String,
    holds: Holds,
}

/// What a physical column holds, with the scheme that writes and opens it.
enum Holds {
    /// The logical column as it is.
    Plain,
    /// ASHE words of the values: an ASHE measure, or an OPE column's
    /// companion.
    Words(AsheScheme),
    /// ASHE words of the values' squares.
    Squares(AsheScheme),
    /// ORE cells of the values.
    Ore(OreScheme),
    /// DET tags of the values.
    Det(DetScheme),
    /// ASHE words of 1 where the row's value lands in SPLASHE slot `slot`,
    /// else 0.
    Indicator { slot: usize, ashe: AsheScheme },
    /// ASHE words of `measure` where the row's value lands in `slot`, else 0.
    Splayed {
        measure: String,
        slot: usize,
        ashe: AsheScheme,
    },
    /// Enhanced SPLASHE's frequency-balanced DET column.
    Balanced(DetScheme),
}

impl Holds {
    /// The column's physical type; `None` for a public column, which keeps
    /// the type it is uploaded with.
    fn column_type(&self) -> Option<ColumnType> {
        match self {
            Holds::Plain => None,
            Holds::Ore(_) => Some(ColumnType::Bytes),
            _ => Some(ColumnType::UInt64),
        }
    }
}

impl Layout {
    /// The plan's physical columns, each column key derived from `master_key`
    /// and expanded into its scheme: the one place a key is derived. The
    /// master secret is wiped on return.
    pub(crate) fn new(plan: &SchemaPlan, master_key: &[u8]) -> Layout {
        let keys = KeyStore::new(master_key);
        let ashe = |label: &str| AsheScheme::new(&keys.ashe_key(label));
        // Every SPLASHE dimension splays each ASHE measure (a conservative
        // superset of the co-queried measures).
        let measures: Vec<&str> = plan
            .columns
            .iter()
            .filter(|c| matches!(c.encryption, EncryptionChoice::Ashe { .. }))
            .map(|c| c.name.as_str())
            .collect();
        let mut columns = Vec::new();
        for column in &plan.columns {
            let source = column.name.as_str();
            let mut push = |name: String, holds: Holds| {
                columns.push(PhysicalColumn {
                    name,
                    source: source.to_string(),
                    holds,
                })
            };
            match &column.encryption {
                EncryptionChoice::Plaintext => push(source.to_string(), Holds::Plain),
                EncryptionChoice::Ashe { with_squares } => {
                    push(encnames::ashe(source), Holds::Words(ashe(source)));
                    if *with_squares {
                        push(
                            encnames::ashe_squares(source),
                            Holds::Squares(ashe(&format!("{source}^2"))),
                        );
                    }
                }
                EncryptionChoice::Det => push(encnames::det(source), Holds::Det(DetScheme::new(&keys.det_key(source)))),
                EncryptionChoice::Ope => {
                    push(encnames::ope(source), Holds::Ore(OreScheme::new(&keys.ope_key(source))));
                    push(encnames::ope_value(source), Holds::Words(ashe(source)));
                }
                EncryptionChoice::SplasheEnhanced { plan: splay } => {
                    let k = splay.k();
                    for slot in 0..=k {
                        let ashe = AsheScheme::new(&keys.splashe_indicator_key(source, slot));
                        push(
                            encnames::splashe_indicator(source, slot, k),
                            Holds::Indicator { slot, ashe },
                        );
                    }
                    for measure in &measures {
                        for slot in 0..=k {
                            let ashe = AsheScheme::new(&keys.splashe_measure_key(source, measure, slot));
                            let measure = measure.to_string();
                            push(
                                encnames::splashe_measure(source, &measure, slot, k),
                                Holds::Splayed { measure, slot, ashe },
                            );
                        }
                    }
                    push(
                        encnames::det(source),
                        Holds::Balanced(DetScheme::new(&keys.det_key(source))),
                    );
                }
            }
        }
        let by_name = columns.iter().enumerate().map(|(i, c)| (c.name.clone(), i)).collect();
        Layout { columns, by_name }
    }

    fn holds(&self, column: &str) -> Option<&Holds> {
        self.by_name.get(column).map(|&i| &self.columns[i].holds)
    }

    /// The ASHE scheme of an ASHE-masked physical column.
    pub(crate) fn ashe(&self, column: &str) -> Option<&AsheScheme> {
        match self.holds(column)? {
            Holds::Words(ashe) | Holds::Squares(ashe) | Holds::Indicator { ashe, .. } | Holds::Splayed { ashe, .. } => {
                Some(ashe)
            }
            _ => None,
        }
    }

    /// The DET scheme of a DET-tagged physical column.
    pub(crate) fn det(&self, column: &str) -> Option<&DetScheme> {
        match self.holds(column)? {
            Holds::Det(det) | Holds::Balanced(det) => Some(det),
            _ => None,
        }
    }

    /// The ORE scheme of an order-encrypted physical column.
    pub(crate) fn ore(&self, column: &str) -> Option<&OreScheme> {
        match self.holds(column)? {
            Holds::Ore(ore) => Some(ore),
            _ => None,
        }
    }

    /// Encrypts a plaintext dataset into the physical encrypted table: the
    /// layout's columns whose sources are in the batch, in layout order.
    ///
    /// `num_partitions` controls how the server will parallelise scans; rows
    /// keep their upload order so identifiers stay contiguous.
    pub(crate) fn encrypt<R: Rng + ?Sized>(
        &self,
        plan: &SchemaPlan,
        dataset: &PlainDataset,
        num_partitions: usize,
        rng: &mut R,
    ) -> EncryptedTable {
        let mut fields: Vec<(String, ColumnType)> = Vec::new();
        let mut columns: Vec<ColumnData> = Vec::new();
        let mut det_dictionary: HashMap<String, HashMap<u64, String>> = HashMap::new();
        // Each row's SPLASHE slot, per splayed dimension of the batch.
        let slots: HashMap<&str, (&EnhancedPlan, Vec<usize>)> = plan
            .columns
            .iter()
            .filter_map(|column| {
                let EncryptionChoice::SplasheEnhanced { plan: splay } = &column.encryption else {
                    return None;
                };
                let source = dataset.column(&column.name)?;
                let slots = (0..source.len()).map(|i| splay.slot(&source.text_at(i)));
                Some((column.name.as_str(), (splay, slots.collect())))
            })
            .collect();
        for column in &self.columns {
            // A column the plan describes but this batch does not carry is
            // skipped (e.g. optional columns).
            let Some(source) = dataset.column(&column.source) else {
                continue;
            };
            let name = &column.name;
            // A SPLASHE column's source is a splayed dimension of the batch.
            let splayed = || &slots[column.source.as_str()];
            let data = match &column.holds {
                Holds::Plain => match source {
                    PlainColumn::UInt(v) => ColumnData::UInt64(v.clone()),
                    PlainColumn::Text(v) => ColumnData::Utf8(v.clone()),
                },
                Holds::Words(ashe) => ashe_column(ashe, numeric_values(source, name)),
                Holds::Squares(ashe) => {
                    let squares: Vec<u64> = numeric_values(source, name)
                        .iter()
                        .map(|&v| v.wrapping_mul(v))
                        .collect();
                    ashe_column(ashe, &squares)
                }
                Holds::Ore(ore) => {
                    let values = numeric_values(source, name);
                    let mut cells = BytesColumn::with_capacity(values.len() * ORE_CELL_BYTES);
                    ore.cursor().encrypt_run(values, |cell| cells.push(&cell));
                    ColumnData::Bytes(cells)
                }
                Holds::Det(det) => {
                    let (tags, dict) = match source {
                        PlainColumn::UInt(v) => det_column(det, v.iter().copied(), |value| value.to_string()),
                        PlainColumn::Text(v) => det_column(det, v.iter().map(String::as_str), str::to_string),
                    };
                    det_dictionary.insert(name.clone(), dict);
                    ColumnData::UInt64(tags)
                }
                Holds::Indicator { slot, ashe } => {
                    let plain: Vec<u64> = splayed().1.iter().map(|&s| u64::from(s == *slot)).collect();
                    ashe_column(ashe, &plain)
                }
                Holds::Splayed { measure, slot, ashe } => {
                    let Some(values) = dataset.column(measure) else {
                        continue;
                    };
                    let values = numeric_values(values, measure);
                    let plain: Vec<u64> = splayed()
                        .1
                        .iter()
                        .zip(values)
                        .map(|(&s, &v)| if s == *slot { v } else { 0 })
                        .collect();
                    ashe_column(ashe, &plain)
                }
                Holds::Balanced(det) => {
                    let (splay, row_slots) = splayed();
                    let (tags, dict) =
                        seabed_splashe::balanced_column(det, splay, row_slots, |row| source.text_at(row), rng);
                    det_dictionary.insert(name.clone(), dict);
                    ColumnData::UInt64(tags)
                }
            };
            fields.push((
                name.clone(),
                column.holds.column_type().unwrap_or_else(|| data.column_type()),
            ));
            columns.push(data);
        }
        EncryptedTable {
            table: Table::from_columns(Schema::new(fields), columns, num_partitions.max(1)),
            plan: plan.clone(),
            det_dictionary,
        }
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

/// `values` ASHE-encrypted under `ashe` as one physical column, row `i`
/// under identifier `i`.
fn ashe_column(ashe: &AsheScheme, values: &[u64]) -> ColumnData {
    ColumnData::UInt64(seabed_ashe::encrypt_column(ashe, values, 0).values)
}

fn numeric_values<'a>(source: &'a PlainColumn, name: &str) -> &'a [u64] {
    match source {
        PlainColumn::UInt(v) => v,
        PlainColumn::Text(_) => panic!("column {name} must be numeric for this encryption scheme"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeabedClient;
    use seabed_query::parser::parse;
    use seabed_query::planner::{ColumnSpec, PlannerConfig};

    fn dataset() -> PlainDataset {
        let countries = ["USA", "USA", "Canada", "USA", "Canada", "India", "Chile", "India"];
        PlainDataset::new("sales")
            .with_text_column("country", countries.iter().map(|s| s.to_string()).collect())
            .with_uint_column("revenue", vec![10, 20, 30, 40, 50, 60, 70, 80])
            .with_uint_column("ts", vec![1, 2, 3, 4, 5, 6, 7, 8])
            .with_uint_column("clicks", vec![1, 1, 2, 2, 3, 3, 4, 4])
    }

    /// A proxy whose layout has enhanced SPLASHE, squares, ORE with its
    /// companion and a public column.
    fn client(ds: &PlainDataset) -> SeabedClient {
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", ds.distribution("country").unwrap()),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::public("clicks"),
        ];
        let queries: Vec<_> = [
            "SELECT SUM(revenue) FROM sales WHERE country = 'USA'",
            "SELECT SUM(revenue) FROM sales WHERE ts >= 3",
            "SELECT VARIANCE(revenue) FROM sales",
        ]
        .iter()
        .map(|s| parse(s).unwrap())
        .collect();
        SeabedClient::create_plan(b"master", &columns, &queries, &PlannerConfig::default())
    }

    #[test]
    fn encrypted_schema_has_expected_columns() {
        let ds = dataset();
        let enc = client(&ds).encrypt_dataset(&ds, 2, &mut rand::rng());
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
        let enc = client(&ds).encrypt_dataset(&ds, 1, &mut rand::rng());
        let ashe_col = enc.table.gather_u64("revenue__ashe").unwrap();
        assert_ne!(ashe_col, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn ashe_column_decrypts_back_to_plaintext() {
        let ds = dataset();
        let enc = client(&ds).encrypt_dataset(&ds, 3, &mut rand::rng());
        let keys = KeyStore::new(b"master");
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
        let enc = client(&ds).encrypt_dataset(&ds, 1, &mut rand::rng());
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
        let mut client = SeabedClient::create_plan(b"master", &columns, &queries, &PlannerConfig::default());
        let enc = client.encrypt_dataset(&ds, 2, &mut rand::rng());
        let keys = KeyStore::new(b"master");
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
        let enc = client(&ds).encrypt_dataset(&ds, 1, &mut rand::rng());
        let tags = enc.table.gather_u64("country__det").unwrap();
        let mut hist: HashMap<u64, u64> = HashMap::new();
        for t in tags {
            *hist.entry(t).or_insert(0) += 1;
        }
        let max = hist.values().max().unwrap();
        let min = hist.values().min().unwrap();
        assert!(max - min <= 1, "histogram {hist:?}");
    }

    /// The layout is the one enumeration: the table an upload writes has its
    /// names, types and order, and every encrypted column has exactly one
    /// scheme, of its kind, to open it with.
    #[test]
    fn layout_table_and_schemes_agree() {
        let ds = dataset();
        let mut client = client(&ds);
        let enc = client.encrypt_dataset(&ds, 2, &mut rand::rng());
        let layout = &client.layout;
        let fields: Vec<(&str, ColumnType)> = enc
            .table
            .schema
            .fields
            .iter()
            .map(|f| (f.name.as_str(), f.ty))
            .collect();
        let planned: Vec<(&str, ColumnType)> = layout
            .columns
            .iter()
            // The one public column, `clicks`, is uploaded as `u64`s.
            .map(|c| (c.name.as_str(), c.holds.column_type().unwrap_or(ColumnType::UInt64)))
            .collect();
        assert_eq!(fields, planned);
        for kind in [
            "__ashe_sq",
            "__ope",
            "__ope_val",
            "__ind_others",
            "__spl_country_others",
            "country__det",
        ] {
            assert!(fields.iter().any(|(name, _)| name.ends_with(kind)), "no {kind} column");
        }
        for (name, _) in fields {
            let schemes = [
                layout.ashe(name).is_some(),
                layout.det(name).is_some(),
                layout.ore(name).is_some(),
            ];
            let kind = if name == "clicks" {
                [false; 3]
            } else if name.ends_with("__det") {
                [false, true, false]
            } else if name.ends_with("__ope") {
                [false, false, true]
            } else {
                [true, false, false]
            };
            assert_eq!(schemes, kind, "{name}");
        }
    }

    /// The §4.2 budget charges a SPLASHE dimension what the upload writes:
    /// k + 1 indicators and k + 1 splayed columns per ASHE measure of the
    /// plan, co-queried or not, so (k + 1)(M + 1) columns beside the balanced
    /// DET column that replaces the plaintext one.
    #[test]
    fn splashe_budget_charges_the_columns_the_upload_writes() {
        let ds = dataset();
        let distribution = ds.distribution("country").unwrap();
        let k = seabed_splashe::plan_enhanced(&distribution).k();
        // revenue is co-queried with country; clicks, sensitive and never
        // queried, is an ASHE measure too, so m = 1 and M = 2.
        let (m, ashe_measures) = (1, 2);
        let columns = vec![
            ColumnSpec::sensitive_with_distribution("country", distribution),
            ColumnSpec::sensitive("revenue"),
            ColumnSpec::sensitive("ts"),
            ColumnSpec::sensitive("clicks"),
        ];
        let queries = vec![
            parse("SELECT SUM(revenue) FROM sales WHERE country = 'USA'").unwrap(),
            parse("SELECT SUM(revenue) FROM sales WHERE ts >= 3").unwrap(),
        ];
        let added = (k + 1) * (ashe_measures + 1);
        let factor = |extra: usize| 1.0 + extra as f64 / columns.len() as f64;
        let country_columns = |client: &mut SeabedClient| {
            let enc = client.encrypt_dataset(&ds, 1, &mut rand::rng());
            let names = enc.table.schema.fields.iter().map(|f| f.name.clone());
            names
                .filter(|n| n == "country__det" || n.starts_with("country__ind_") || n.contains("__spl_country_"))
                .count()
        };

        let budget = PlannerConfig {
            max_storage_factor: factor(added),
        };
        let mut client = SeabedClient::create_plan(b"master", &columns, &queries, &budget);
        assert!(matches!(
            client.plan().column("country").map(|c| &c.encryption),
            Some(EncryptionChoice::SplasheEnhanced { .. })
        ));
        assert_eq!(country_columns(&mut client), added + 1);

        // m·k fits this budget and (k + 1)(M + 1) does not.
        assert!(m * k < added);
        let budget = PlannerConfig {
            max_storage_factor: factor(added - 1),
        };
        let mut client = SeabedClient::create_plan(b"master", &columns, &queries, &budget);
        assert_eq!(
            client.plan().column("country").map(|c| &c.encryption),
            Some(&EncryptionChoice::Det)
        );
        let warning = "storage budget exhausted: column country falls back to deterministic encryption";
        assert!(
            client.plan().warnings.iter().any(|w| w == warning),
            "{:?}",
            client.plan().warnings
        );
        assert_eq!(country_columns(&mut client), 1);
    }
}
