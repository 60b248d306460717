//! # seabed-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! Seabed paper's evaluation (§6). Each `exp_*` function reproduces one
//! experiment at a configurable [`Scale`] and returns structured rows; the
//! `harness` binary prints them in the same shape the paper reports. (The
//! regression-gating benchmark is the separate `benchmark/` package,
//! `seabench`.)
//!
//! Paper-scale runs (1.75 B rows, 100 physical cores) are not feasible in a
//! test environment; every experiment therefore runs at a reduced scale,
//! recorded as `scale` in each artifact. One default-scale run (`harness
//! --json-dir=crates/bench/paper all`) is committed under
//! `crates/bench/paper/`.
//!
//! Figures 6–10a run the product. Each figure's dataset is planned twice
//! with `SeabedClient::create_plan` — its encrypted plan and an all-public
//! twin, which is NoEnc — uploaded with `encrypt_dataset` to a
//! `SeabedServer` on [`LOCAL_THREADS`] local thread, and queried through
//! `SeabedSession`. A timed row reports the server's `ExecStats::wall_time`
//! and the proxy's `QueryResult::client_time` as the median of [`K_RUNS`]
//! runs, with their interquartile ranges. The harness panics unless the
//! encrypted plan answers as the twin does. Two things are modelled, and
//! only they: Figure 7's `model` rows (its 10–100 cores, a makespan over the
//! measured one-thread time) and Paillier. Every Paillier row is an
//! `(estimate)` from one [`PaillierCost`] measured at the paper's 2048 bits
//! per harness run: the Seabed row's server time plus one addition for
//! each row its sums read, and one decryption per sum of each result group.
//!
//! Paillier with its big-integer arithmetic and cost model, the plaintext
//! reference the equivalence suites check against, and the models of the
//! paper's cluster and of the §6.6 link live in [`baselines`]: no proxy,
//! server or worker runs them. The ID-list encodings the paper compares but
//! the product does not send — raw range bounds, DEFLATE and its parts, the
//! roaring-style bitmap — are in [`codec`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod codec;
pub mod metrics;
pub mod runner;

pub use metrics::{format_rows, rows_to_json, write_bench_json, Row, RunMeta, Spread, Timing, K_RUNS};
pub use runner::{ExperimentConfig, ExperimentReport, ExperimentRunner};

pub use baselines::{PaillierCost, PAILLIER_BITS};

use baselines::{selection_key, ClusterModel, NetworkModel, SELECTION_SCALE};
use codec::PaperEncoding;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seabed_ashe::{AsheScheme, IdSet};
use seabed_core::{
    EncryptedAggregate, GroupIds, PlainDataset, ResultValue, SeabedClient, SeabedServer, SeabedSession, ServerResponse,
};
use seabed_crypto::AesCtr;
use seabed_encoding::IdListEncoding;
use seabed_engine::{table_disk_size, table_memory_size, Cluster, ClusterConfig};
use seabed_query::{parse, ColumnSpec, Literal, PlannerConfig, Query, TranslateOptions};
use seabed_workloads::synthetic::SyntheticDataset;
use seabed_workloads::{ad_analytics, bdb, classify, synthetic};
use std::time::Duration;

/// Scaling knobs for the experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divisor applied to the paper's row counts (default 1000: 1.75 B rows
    /// become 1.75 M).
    pub row_divisor: u64,
    /// Number of partitions the engine splits tables into.
    pub partitions: usize,
    /// RNG seed so harness runs are reproducible.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            row_divisor: 1_000,
            partitions: 64,
            seed: 0x5eabed,
        }
    }
}

impl Scale {
    /// A smaller scale for quick smoke runs and CI.
    pub fn smoke() -> Scale {
        Scale {
            row_divisor: 20_000,
            partitions: 16,
            seed: 0x5eabed,
        }
    }

    /// Scales a paper row count (in millions) down to this configuration.
    pub fn rows(&self, paper_rows_millions: u64) -> usize {
        ((paper_rows_millions * 1_000_000) / self.row_divisor).max(1_000) as usize
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

/// A Table 1 row: `k`, and the nanoseconds of one operation (median and
/// IQR) from `runs` of `ops` operations each.
fn ns_row(label: impl Into<String>, ops: u32, runs: Spread) -> Row {
    let ns = |d: Duration| d.as_secs_f64() * 1e9 / f64::from(ops);
    Row::new(label)
        .with("k", K_RUNS as f64)
        .with("ns", ns(runs.median))
        .with("ns_iqr", ns(runs.iqr()))
}

/// [`ns_row`] of [`K_RUNS`] runs of `ops` calls of `f` each.
fn op_row(label: &str, ops: u32, mut f: impl FnMut()) -> Row {
    let runs = Spread::time(|| {
        for _ in 0..ops {
            f();
        }
    });
    ns_row(label, ops, runs)
}

// ---------------------------------------------------------------------------
// Table 1: cost of cryptographic operations
// ---------------------------------------------------------------------------

/// Rows Table 1's Paillier pipeline sums.
const PIPELINE_ROWS: u64 = 4_000;

/// Table 1: nanoseconds per operation for the primitives Seabed builds on,
/// with Paillier's from `paillier`, and last Paillier's real sum over 4 000
/// rows beside the model's time for it. Panics unless that sum decrypts to
/// the plaintext sum of its rows.
pub fn exp_table1(scale: &Scale, paillier: &PaillierCost) -> Vec<Row> {
    let mut rows = Vec::new();

    // AES counter mode (one 128-bit block).
    let ctr = AesCtr::new(&[7u8; 16], 1);
    let mut counter = 0u64;
    rows.push(op_row("AES counter mode", 50_000, || {
        counter = counter.wrapping_add(1);
        std::hint::black_box(ctr.keystream_block(counter));
    }));

    // ASHE encryption / decryption.
    let ashe = AsheScheme::new(&[9u8; 16]);
    let mut id = 0u64;
    rows.push(op_row("ASHE encryption", 50_000, || {
        id = id.wrapping_add(1);
        std::hint::black_box(ashe.encrypt(id ^ 0xdead, id));
    }));
    let ct = ashe.encrypt(12345, 42);
    rows.push(op_row("ASHE decryption", 50_000, || {
        std::hint::black_box(ashe.decrypt(&ct));
    }));

    // Plain addition.
    let mut acc = 0u64;
    rows.push(op_row("Plain addition", 500_000, || {
        acc = acc.wrapping_add(std::hint::black_box(3));
    }));
    std::hint::black_box(acc);

    let bits = paillier.bits;
    rows.push(ns_row(format!("Paillier encryption ({bits}-bit)"), 1, paillier.encrypt));
    rows.push(ns_row(format!("Paillier addition ({bits}-bit)"), 1, paillier.add));
    rows.push(ns_row(format!("Paillier decryption ({bits}-bit)"), 1, paillier.decrypt));
    let sum = paillier.pipeline_sum(&mut scale.rng(), PIPELINE_ROWS);
    assert_eq!(sum.sum, sum.expected, "Paillier's pipeline sum decrypts wrong");
    rows.push(
        Row::new(format!("Paillier pipeline sum ({bits}-bit, {} rows)", sum.rows))
            .with("k", K_RUNS as f64)
            .with_spread("measured_s", sum.measured)
            .with("model_s", sum.predicted.as_secs_f64())
            .with("model_over_measured", sum.model_over_measured()),
    );
    rows
}

// ---------------------------------------------------------------------------
// Table 2: query translation examples
// ---------------------------------------------------------------------------

/// Table 2: the three translation examples, rendered as (original SQL, Seabed
/// server plan) pairs.
pub fn exp_table2() -> Vec<(String, String)> {
    let columns = vec![
        ColumnSpec::sensitive("a_measure"),
        ColumnSpec::sensitive("b"),
        ColumnSpec::sensitive_with_distribution(
            "a",
            vec![("10".to_string(), 100), ("20".to_string(), 10), ("30".to_string(), 5)],
        ),
        ColumnSpec::sensitive("g"),
    ];
    let samples: Vec<_> = [
        "SELECT SUM(a_measure) FROM tbl WHERE b > 10",
        "SELECT COUNT(*) FROM tbl WHERE a = 10",
        "SELECT g, SUM(a_measure) FROM tbl GROUP BY g",
    ]
    .iter()
    .map(|s| parse(s).unwrap())
    .collect();
    let plan = seabed_query::plan_schema(&columns, &samples, &PlannerConfig::default());
    samples
        .iter()
        .map(|q| {
            let translated = seabed_query::translate(q, &plan, &TranslateOptions).unwrap();
            (q.to_sql(), translated.describe())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3: ID-list encoding examples
// ---------------------------------------------------------------------------

/// Table 3: encoded sizes of a representative ID list under each technique
/// of the paper, then under the product's fourth container, Elias–Fano, and
/// in the smallest of the product's four containers, the size it sends.
pub fn exp_table3() -> Vec<Row> {
    let ids: Vec<u64> = (2..=14).chain(19..=23).collect();
    let set = IdSet::from_sorted_ids(&ids);
    let row = |label: &str, bytes: usize| {
        Row::new(label)
            .with("bytes", bytes as f64)
            .with("ids", set.count() as f64)
    };
    let mut rows: Vec<Row> = PaperEncoding::ALL
        .iter()
        .map(|&enc| row(enc.label(), enc.encoded_size(set.runs())))
        .collect();
    rows.push(row("Elias–Fano", set.encoded_size(IdListEncoding::EliasFano)));
    rows.push(row("smallest of four", set.smallest_encoding().1));
    rows
}

// ---------------------------------------------------------------------------
// Table 4 / Table 6: query support categories
// ---------------------------------------------------------------------------

/// Table 4: query support categories for the Ad-Analytics log, TPC-DS and MDX.
pub fn exp_table4(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let log = ad_analytics::query_log(&mut rng, 2_000);
    let ada = classify::classify_set(log.iter().map(|q| q.sql.as_str()));
    classify::table4_rows(&ada)
        .into_iter()
        .map(|(name, counts)| {
            Row::new(name)
                .with("total", counts.total() as f64)
                .with("server", counts.server_only as f64)
                .with("client_pre", counts.client_pre as f64)
                .with("client_post", counts.client_post as f64)
                .with("two_round_trips", counts.two_round_trips as f64)
        })
        .collect()
}

/// Table 6: the MDX function support matrix.
pub fn exp_table6() -> Vec<(String, String, String)> {
    classify::mdx_functions()
        .into_iter()
        .map(|f| (f.name.to_string(), f.how.to_string(), format!("{:?}", f.category)))
        .collect()
}

// ---------------------------------------------------------------------------
// Table 5: dataset sizes
// ---------------------------------------------------------------------------

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Table 5: disk and memory footprint of NoEnc / Seabed / Paillier
/// representations for each dataset, at the configured scale. NoEnc is the
/// twin plan's table.
pub fn exp_table5(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let mut rows = Vec::new();

    // Synthetic datasets: one measure column.
    for (label, paper_millions) in [("Synthetic-Large", 1750u64), ("Synthetic-Small", 250u64)] {
        let n = scale.rows(paper_millions);
        let values = synthetic::aggregation_dataset(&mut rng, n).values;
        let table = PlainDataset::new("t").with_uint_column("m", values);
        let specs = column_specs(&table, &["m"]);
        let served = Served::new(&table, &specs, &["SELECT SUM(m) FROM t"], scale, &mut rng);
        let noenc = served.twin.server.table();
        // Seabed: one ASHE word plus an explicit ID column per row, as in the
        // prototype's synthetic dataset (Table 5 note in §6.1).
        let seabed_disk = table_disk_size(served.seabed.server.table()) + n * 8;
        // A Paillier ciphertext is an element of Z_{n²}: bits / 4 bytes.
        let paillier_disk = n * (4 + PAILLIER_BITS / 4);
        rows.push(
            Row::new(format!("{label} ({n} rows)"))
                .with("noenc_disk_mb", mb(table_disk_size(noenc)))
                .with("seabed_disk_mb", mb(seabed_disk))
                .with("paillier_disk_mb", mb(paillier_disk))
                .with("noenc_mem_mb", mb(table_memory_size(noenc)))
                .with("seabed_mem_mb", mb(seabed_disk + seabed_disk / 3))
                .with("paillier_mem_mb", mb(paillier_disk + paillier_disk / 5)),
        );
    }

    // Big Data Benchmark and Ad-Analytics: measure real encrypted tables at a
    // small scale. Sensitive measures are ASHE, with one optional SPLASHE
    // dimension; Paillier turns each sensitive measure into a 2048-bit
    // ciphertext and keeps the other columns as NoEnc has them.
    let bdb_tables = bdb::generate(&mut rng, scale.rows(90) / 20, scale.rows(775) / 20);
    let ada = ad_analytics::generate(&mut rng, (scale.rows(759) / 100).max(2_000));
    for (label, dataset, measures, splashe_dim) in [
        ("BDB-Rankings", &bdb_tables.rankings, vec!["pageRank"], None),
        (
            "BDB-UserVisits",
            &bdb_tables.uservisits,
            vec!["adRevenue", "duration"],
            None,
        ),
        ("Ad-Analytics", &ada, vec!["measure00", "measure01"], Some("dim00")),
    ] {
        let specs: Vec<ColumnSpec> = column_specs(dataset, &measures)
            .into_iter()
            .map(|spec| match (splashe_dim, dataset.distribution(&spec.name)) {
                (Some(dim), Some(distribution)) if dim == spec.name => {
                    ColumnSpec::sensitive_with_distribution(dim, distribution)
                }
                _ => spec,
            })
            .collect();
        let mut samples: Vec<String> = measures.iter().map(|m| format!("SELECT SUM({m}) FROM t")).collect();
        if let Some(dim) = splashe_dim {
            samples.push(format!("SELECT SUM({}) FROM t WHERE {dim} = 'v0'", measures[0]));
        }
        let samples: Vec<&str> = samples.iter().map(String::as_str).collect();
        let served = Served::new(dataset, &specs, &samples, scale, &mut rng);
        let (noenc, seabed) = (served.twin.server.table(), served.seabed.server.table());
        let paillier_disk = table_disk_size(noenc) + dataset.num_rows() * measures.len() * (4 + PAILLIER_BITS / 4);
        rows.push(
            Row::new(format!("{label} ({} rows)", dataset.num_rows()))
                .with("noenc_disk_mb", mb(table_disk_size(noenc)))
                .with("seabed_disk_mb", mb(table_disk_size(seabed)))
                .with("paillier_disk_mb", mb(paillier_disk))
                .with("noenc_mem_mb", mb(table_memory_size(noenc)))
                .with("seabed_mem_mb", mb(table_memory_size(seabed))),
        );
    }
    rows
}

// ---------------------------------------------------------------------------
// The product, served under two plans
// ---------------------------------------------------------------------------

/// Local threads each figure's server scans with. Figure 7 measures one and
/// two and names them in its rows.
pub const LOCAL_THREADS: usize = 1;

type Session<'a> = SeabedSession<'a, SeabedServer>;

/// One plan of a figure's dataset: the proxy and the server it uploaded to.
struct Plan {
    client: SeabedClient,
    server: SeabedServer,
}

impl Plan {
    fn new(dataset: &PlainDataset, specs: &[ColumnSpec], samples: &[Query], scale: &Scale, rng: &mut StdRng) -> Plan {
        let mut client = SeabedClient::create_plan(b"seabed-bench", specs, samples, &PlannerConfig::default());
        let table = client.encrypt_dataset(dataset, scale.partitions, rng).table;
        Plan {
            client,
            server: SeabedServer::new(table, cluster(LOCAL_THREADS)),
        }
    }

    fn session(&self, table: &str) -> Session<'_> {
        SeabedSession::single(table, self.client.clone(), &self.server)
    }
}

fn cluster(threads: usize) -> Cluster {
    Cluster::new(ClusterConfig::default().local_threads(threads))
}

/// A figure's dataset served through the product twice, as Computing on
/// Masked Data measures a masked pipeline against the unmasked one on the
/// same operations: under its encrypted plan and under an all-public twin
/// plan of the same sample queries, each on its own `SeabedServer` and
/// queried through `SeabedSession`.
struct Served {
    table: String,
    seabed: Plan,
    twin: Plan,
}

/// What one statement measured on one plan.
struct Measured {
    /// The decrypted answer.
    rows: Vec<Vec<ResultValue>>,
    /// The server's `ExecStats::wall_time` and the proxy's
    /// `QueryResult::client_time` over [`K_RUNS`] runs.
    timing: Timing,
    /// The response's result groups, as the proxy counted them.
    result_bytes: usize,
}

impl Served {
    /// Plans `dataset` under `specs`, and again with every column public, and
    /// uploads both to servers on [`LOCAL_THREADS`].
    fn new(dataset: &PlainDataset, specs: &[ColumnSpec], samples: &[&str], scale: &Scale, rng: &mut StdRng) -> Served {
        let samples: Vec<Query> = samples
            .iter()
            .map(|sql| parse(sql).expect("a figure's sample parses"))
            .collect();
        Served {
            table: dataset.name.clone(),
            seabed: Plan::new(dataset, specs, &samples, scale, rng),
            twin: Plan::new(dataset, &column_specs(dataset, &[]), &samples, scale, rng),
        }
    }

    /// Figures 6–9a's synthetic table `t`: the measure `m` (ASHE), the public
    /// selection column `p`, and the dataset's group column `g` (DET) or
    /// range column `f` (ORE).
    fn synthetic(ds: &SyntheticDataset, samples: &[&str], scale: &Scale, rng: &mut StdRng) -> Served {
        let table = synthetic_table(ds);
        Served::new(&table, &column_specs(&table, &["m", "g", "f"]), samples, scale, rng)
    }

    /// The same tables served on `threads` local threads.
    fn on_threads(&self, threads: usize) -> Served {
        let plan = |plan: &Plan| Plan {
            client: plan.client.clone(),
            server: SeabedServer::new(plan.server.table().clone(), cluster(threads)),
        };
        Served {
            table: self.table.clone(),
            seabed: plan(&self.seabed),
            twin: plan(&self.twin),
        }
    }

    /// Times `sql` on both plans. Panics unless both answer, and answer alike.
    fn measure(&self, sql: &str, params: &[Literal]) -> (Measured, Measured) {
        match self.try_measure(sql, params) {
            (Ok(seabed), Ok(twin)) => (seabed, twin),
            (seabed, twin) => panic!("`{sql}`: seabed {:?}, twin {:?}", seabed.err(), twin.err()),
        }
    }

    /// Times `sql` on both plans, each refusal as its error's text. Panics if
    /// both answer and the answers differ.
    fn try_measure(&self, sql: &str, params: &[Literal]) -> (Result<Measured, String>, Result<Measured, String>) {
        let seabed = measure(&self.seabed.session(&self.table), sql, params);
        let twin = measure(&self.twin.session(&self.table), sql, params);
        if let (Ok(seabed), Ok(twin)) = (&seabed, &twin) {
            assert_same_answer(sql, &seabed.rows, &twin.rows);
        }
        (seabed, twin)
    }

    /// The encrypted plan's response to `sql`, as the server sent it.
    fn response(&self, sql: &str, params: &[Literal]) -> ServerResponse {
        let session = self.seabed.session(&self.table);
        let prepared = session.prepare(sql).expect("a measured statement prepares");
        let (_, response) = session
            .execute_encrypted(&prepared, params)
            .expect("a measured statement executes");
        response
    }

    /// The ID set of each group of the encrypted plan's response to `sql`.
    fn id_sets(&self, sql: &str, params: &[Literal]) -> Vec<IdSet> {
        let response = self.response(sql, params);
        response
            .groups
            .iter()
            .filter_map(|group| group.ids.as_ref())
            .map(id_set)
            .collect()
    }

    /// What Paillier would compute in the encrypted plan's place on `sql`
    /// (no parameters), read off the product's own response: one addition
    /// for each row each ASHE sum reads, and one sum to decrypt for each ASHE
    /// sum of each group.
    fn paillier_work(&self, sql: &str) -> (u64, u64) {
        let (mut adds, mut sums) = (0, 0);
        for group in self.response(sql, &[]).groups {
            let group_sums = group
                .aggregates
                .iter()
                .filter(|agg| matches!(agg, EncryptedAggregate::AsheSum { .. }))
                .count() as u64;
            adds += group_sums * group.ids.as_ref().map_or(0, |ids| id_set(ids).count());
            sums += group_sums;
        }
        (adds, sums)
    }

    /// [`PaillierCost::estimate`] of [`Served::paillier_work`] from the
    /// `seabed` row's timing. `None` when the statement sums nothing (a
    /// `COUNT` needs no Paillier ciphertext).
    fn paillier(&self, sql: &str, seabed: &Timing, cost: &PaillierCost) -> Option<Timing> {
        let (adds, sums) = self.paillier_work(sql);
        (sums > 0).then(|| cost.estimate(seabed, adds, sums))
    }
}

/// A response group's ID list, decoded.
fn id_set(ids: &GroupIds) -> IdSet {
    IdSet::decode(&ids.id_list, ids.encoding).expect("the product's ID list decodes")
}

/// `dataset`'s columns: those named in `sensitive` sensitive, with no
/// distribution known, and the rest public.
fn column_specs(dataset: &PlainDataset, sensitive: &[&str]) -> Vec<ColumnSpec> {
    dataset
        .columns
        .iter()
        .map(|(name, _)| match sensitive.contains(&name.as_str()) {
            true => ColumnSpec::sensitive(name),
            false => ColumnSpec::public(name),
        })
        .collect()
}

/// `sql` through `session`: the first run's answer (that run prepares the
/// statement), then the [`Timing`] of the runs after it.
fn measure(session: &Session<'_>, sql: &str, params: &[Literal]) -> Result<Measured, String> {
    let first = session.query(sql, params).map_err(|err| err.to_string())?;
    let timing = Timing::measure(|| {
        let result = session
            .query(sql, params)
            .expect("a statement that answered once answers again");
        (result.server_stats.wall_time, result.client_time)
    });
    Ok(Measured {
        rows: first.rows,
        timing,
        result_bytes: first.result_bytes,
    })
}

/// Panics unless the two plans' answers to `sql` hold the same rows, in any
/// order. A DET group key decrypts to the text of the integer the twin
/// returns, so values compare as text.
fn assert_same_answer(sql: &str, seabed: &[Vec<ResultValue>], twin: &[Vec<ResultValue>]) {
    let canonical = |rows: &[Vec<ResultValue>]| {
        let mut rows: Vec<Vec<String>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|value| match value {
                        ResultValue::UInt(v) => v.to_string(),
                        ResultValue::Float(v) => v.to_string(),
                        ResultValue::Text(v) => v.clone(),
                    })
                    .collect()
            })
            .collect();
        rows.sort_unstable();
        rows
    };
    assert!(
        canonical(seabed) == canonical(twin),
        "the encrypted plan and its twin answer `{sql}` differently"
    );
}

/// The synthetic table of a [`SyntheticDataset`]: `m`, `p` (each row's
/// [`selection_key`]), and `g` or `f` when the dataset has them.
fn synthetic_table(ds: &SyntheticDataset) -> PlainDataset {
    let mut table = PlainDataset::new("t")
        .with_uint_column("m", ds.values.clone())
        .with_uint_column("p", (0..ds.rows() as u64).map(selection_key).collect());
    if let Some(groups) = &ds.groups {
        table = table.with_uint_column("g", groups.clone());
    }
    if let Some(values) = &ds.ope_values {
        table = table.with_uint_column("f", values.clone());
    }
    table
}

/// Figures 6–8's aggregate at `selectivity`: `WHERE p < k` selects the rows
/// [`baselines::row_selected`] selects at `k / SELECTION_SCALE`.
fn selection_sql(selectivity: f64) -> String {
    if selectivity >= 1.0 {
        "SELECT SUM(m) FROM t".to_string()
    } else {
        let k = (selectivity * SELECTION_SCALE as f64) as u64;
        format!("SELECT SUM(m) FROM t WHERE p < {k}")
    }
}

// ---------------------------------------------------------------------------
// Figures 6 & 7: end-to-end latency vs rows, server latency vs cores
// ---------------------------------------------------------------------------

/// One latency point for the microbenchmark systems.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// System label ("NoEnc sel=50%", "Seabed sel=100%", …).
    pub system: String,
    /// Row count of the dataset.
    pub rows: usize,
    /// The local threads the server ran on; on a `model` row, the modelled
    /// cores.
    pub workers: usize,
    /// Whether the point is Figure 7's cluster model rather than a
    /// measurement.
    pub model: bool,
    /// End-to-end latency (server + client).
    pub total: Spread,
    /// Server-side component.
    pub server: Spread,
    /// Client-side component.
    pub client: Spread,
}

impl LatencyPoint {
    fn measured(system: &str, rows: usize, threads: usize, timing: Timing) -> LatencyPoint {
        LatencyPoint {
            system: system.to_string(),
            rows,
            workers: threads,
            model: false,
            total: timing.total,
            server: timing.server,
            client: timing.client,
        }
    }

    fn timing(&self) -> Timing {
        Timing {
            server: self.server,
            client: self.client,
            total: self.total,
        }
    }
}

/// Label of the Paillier rows: each is [`PaillierCost::estimate`]'s.
const PAILLIER: &str = "Paillier (estimate)";

/// Figures 6 and 7's measured points on `served` at `threads`: NoEnc and
/// Seabed at selectivity 100% and 50%, then, with a `paillier` cost, its
/// estimate from the Seabed row at 100% (Paillier sums every row).
fn selection_points(
    served: &Served,
    rows: usize,
    threads: usize,
    paillier: Option<&PaillierCost>,
) -> Vec<LatencyPoint> {
    let (all, twin_all) = served.measure(&selection_sql(1.0), &[]);
    let (half, twin_half) = served.measure(&selection_sql(0.5), &[]);
    let estimate = paillier.and_then(|cost| served.paillier(&selection_sql(1.0), &all.timing, cost));
    [
        ("NoEnc sel=100%", twin_all.timing),
        ("NoEnc sel=50%", twin_half.timing),
        ("Seabed sel=100%", all.timing),
        ("Seabed sel=50%", half.timing),
    ]
    .into_iter()
    .chain(estimate.map(|timing| (PAILLIER, timing)))
    .map(|(system, timing)| LatencyPoint::measured(system, rows, threads, timing))
    .collect()
}

/// Figure 6: end-to-end latency vs number of rows for NoEnc and Seabed
/// (selectivity 100% and 50%) and Paillier, on one thread.
pub fn exp_fig6(scale: &Scale, paillier: &PaillierCost) -> Vec<LatencyPoint> {
    let mut rng = scale.rng();
    let mut points = Vec::new();
    for &millions in &synthetic::FIG6_ROWS_MILLIONS {
        let rows = scale.rows(millions);
        let ds = synthetic::aggregation_dataset(&mut rng, rows);
        let served = Served::synthetic(&ds, &[&selection_sql(0.5)], scale, &mut rng);
        points.extend(selection_points(&served, rows, LOCAL_THREADS, Some(paillier)));
    }
    points
}

/// Figure 7: server latency vs compute. The product is measured on one and
/// two local threads, and Paillier estimated on one. The paper's 10–100
/// cores are `model` rows: the one-thread server time split evenly across
/// the partitions and list-scheduled by [`ClusterModel::makespan`].
pub fn exp_fig7(scale: &Scale, paillier: &PaillierCost) -> Vec<LatencyPoint> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750);
    let ds = synthetic::aggregation_dataset(&mut rng, rows);
    let one = Served::synthetic(&ds, &[&selection_sql(0.5)], scale, &mut rng);
    let mut points = selection_points(&one, rows, LOCAL_THREADS, Some(paillier));
    points.extend(selection_points(&one.on_threads(2), rows, 2, None));

    let one_thread: Vec<LatencyPoint> = points.iter().filter(|p| p.workers == LOCAL_THREADS).cloned().collect();
    let partitions = scale.partitions.max(1);
    for &workers in &synthetic::FIG7_WORKERS {
        let model = ClusterModel::new(workers);
        let makespan = |server: Duration| model.makespan(&vec![server / partitions as u32; partitions]);
        for measured in &one_thread {
            let server = measured.server.map(makespan);
            points.push(LatencyPoint {
                workers,
                model: true,
                total: server,
                server,
                client: Spread::default(),
                ..measured.clone()
            });
        }
    }
    points
}

/// Rows of latency points: by row count (Figure 6) or by threads and
/// modelled cores (Figure 7). A `model` row carries only its server time.
pub fn latency_rows(points: &[LatencyPoint], by_workers: bool) -> Vec<Row> {
    points
        .iter()
        .map(|p| match (by_workers, p.model) {
            (true, true) => Row::new(format!("{} workers={} (model)", p.system, p.workers))
                .with("k", K_RUNS as f64)
                .with_spread("server_s", p.server),
            (true, false) => Row::new(format!("{} threads={}", p.system, p.workers)).with_timing(&p.timing()),
            (false, _) => Row::new(format!("{} rows={}", p.system, p.rows)).with_timing(&p.timing()),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 8: ID-list size and response time vs selectivity; OPE overhead
// ---------------------------------------------------------------------------

/// The encodings Figure 8(a)/(b) compares.
const FIG8_ENCODINGS: [PaperEncoding; 4] = [
    PaperEncoding::RangesVb,
    PaperEncoding::RangesVbDiff,
    PaperEncoding::RangesVbDiffDeflateCompact,
    PaperEncoding::RangesVbDiffDeflateFast,
];

fn selectivity_label(config: &str, selectivity: f64) -> String {
    format!("{config} sel={:.0}%", selectivity * 100.0)
}

/// Figure 8(a)/(b): the product's result size and response time vs
/// selectivity, and beside it each paper encoding's size and encode time on
/// the response's own ID list.
pub fn exp_fig8ab(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let ds = synthetic::aggregation_dataset(&mut rng, scale.rows(1750));
    let served = Served::synthetic(&ds, &[&selection_sql(0.5)], scale, &mut rng);
    let mut rows = Vec::new();
    for &selectivity in &synthetic::FIG8_SELECTIVITIES {
        let sql = selection_sql(selectivity);
        let (seabed, _) = served.measure(&sql, &[]);
        rows.push(
            Row::new(selectivity_label("Seabed", selectivity))
                .with("result_mb", mb(seabed.result_bytes))
                .with_timing(&seabed.timing),
        );
        let ids = served.id_sets(&sql, &[]);
        for encoding in FIG8_ENCODINGS {
            // The list and the sum's word, as the paper's worker ships them.
            let bytes: usize = ids.iter().map(|set| encoding.encoded_size(set.runs()) + 8).sum();
            let encode = Spread::time(|| {
                for set in &ids {
                    std::hint::black_box(encoding.encode(set.runs()));
                }
            });
            rows.push(
                Row::new(selectivity_label(encoding.label(), selectivity))
                    .with("result_mb", mb(bytes))
                    .with("k", K_RUNS as f64)
                    .with_spread("encode_s", encode),
            );
        }
    }
    rows
}

/// Figure 8(c): aggregation with and without an OPE selection predicate of
/// the same selectivity, `WHERE f < ?` on a sensitive (ORE) column.
pub fn exp_fig8c(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let ds = synthetic::ope_dataset(&mut rng, scale.rows(1750) / 4); // ORE comparison is per-row; keep runtime bounded
    let ope = "SELECT SUM(m) FROM t WHERE f < ?";
    let served = Served::synthetic(&ds, &[&selection_sql(0.5), ope], scale, &mut rng);
    let mut rows = Vec::new();
    for &selectivity in &synthetic::FIG8_SELECTIVITIES {
        let (aggregation, _) = served.measure(&selection_sql(selectivity), &[]);
        let bound = Literal::Integer((selectivity * u32::MAX as f64) as u64);
        let (selection, _) = served.measure(ope, &[bound]);
        rows.push(Row::new(selectivity_label("Aggregation", selectivity)).with_timing(&aggregation.timing));
        rows.push(Row::new(selectivity_label("+OPE selection", selectivity)).with_timing(&selection.timing));
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 9a: group-by microbenchmark
// ---------------------------------------------------------------------------

/// Figure 9a: group-by latency vs number of groups for NoEnc, Seabed and
/// Paillier, whose client decrypts one ciphertext per group. The paper's
/// optimized Seabed line (group inflation, §4.5) has no counterpart: no
/// stage of the product splits work by group.
pub fn exp_fig9a(scale: &Scale, paillier: &PaillierCost) -> Vec<Row> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750) / 2;
    let sql = "SELECT g, SUM(m) FROM t GROUP BY g";
    let mut out = Vec::new();
    for &groups in &synthetic::FIG9A_GROUPS {
        let groups = groups.min(rows as u64 / 2);
        let ds = synthetic::group_by_dataset(&mut rng, rows, groups);
        let served = Served::synthetic(&ds, &[sql], scale, &mut rng);
        let (seabed, twin) = served.measure(sql, &[]);
        let estimate = served
            .paillier(sql, &seabed.timing, paillier)
            .expect("a grouped SUM sums");
        for (system, timing) in [("NoEnc", twin.timing), ("Seabed", seabed.timing), (PAILLIER, estimate)] {
            out.push(Row::new(format!("{system} groups={groups}")).with_timing(&timing));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Figure 9b/c: Big Data Benchmark
// ---------------------------------------------------------------------------

/// Figure 9b/c: the ten Big Data Benchmark queries under NoEnc and Seabed,
/// plus a Paillier estimate for the aggregation queries.
pub fn exp_fig9bc(scale: &Scale, paillier: &PaillierCost) -> Vec<Row> {
    let mut rng = scale.rng();
    let tables = bdb::generate(&mut rng, scale.rows(90) / 10, scale.rows(775) / 10);
    let queries = bdb::queries();
    let serve = |dataset: &PlainDataset, sensitive: &[&str], rng: &mut StdRng| {
        let samples: Vec<&str> = queries
            .iter()
            .filter(|q| dataset.name == q.table)
            .map(|q| q.sql.as_str())
            .collect();
        Served::new(dataset, &column_specs(dataset, sensitive), &samples, scale, rng)
    };
    let rankings = serve(&tables.rankings, &["pageRank", "avgDuration"], &mut rng);
    let uservisits = serve(
        &tables.uservisits,
        &[
            "adRevenue",
            "duration",
            "visitDate",
            "ipPrefix",
            "destURL",
            "countryCode",
        ],
        &mut rng,
    );
    let mut rows = Vec::new();
    for query in &queries {
        let served = if query.table == rankings.table {
            &rankings
        } else {
            &uservisits
        };
        // Scan queries (Q1*) have no aggregate; approximate them as COUNT
        // scans so both systems do equivalent filter work (the paper also
        // reports only server-side time for BDB).
        let sql = if query.name.starts_with("Q1") {
            query.sql.replace("SELECT pageURL, pageRank", "SELECT COUNT(*)")
        } else {
            query.sql.clone()
        };
        let label = |system: &str| format!("{} {system}", query.name);
        let (seabed, twin) = served.try_measure(&sql, &[]);
        for (system, measured) in [("NoEnc", &twin), ("Seabed", &seabed)] {
            rows.push(match measured {
                Ok(measured) => Row::new(label(system)).with_timing(&measured.timing),
                Err(err) => Row::new(label(&format!("{system} (unsupported: {err})"))),
            });
        }
        if let Some(estimate) = seabed
            .as_ref()
            .ok()
            .and_then(|seabed| served.paillier(&sql, &seabed.timing, paillier))
        {
            rows.push(Row::new(label(PAILLIER)).with_timing(&estimate));
        }
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 10: Ad-Analytics CDF and SPLASHE storage overhead
// ---------------------------------------------------------------------------

/// Figure 10(a): response times of the 15-query Ad-Analytics performance set
/// under NoEnc, Seabed and Paillier (estimated from the Seabed row). End to
/// end as §6.6 has it: server and proxy compute plus the result's transfer
/// over the datacenter link, modelled from its size (for Paillier, one
/// ciphertext per sum of each group).
pub fn exp_fig10a(scale: &Scale, paillier: &PaillierCost) -> Vec<Row> {
    let mut rng = scale.rng();
    let dataset = ad_analytics::generate(&mut rng, (scale.rows(759) / 4).max(5_000));
    let queries = ad_analytics::performance_query_set(&mut rng);
    let samples: Vec<&str> = queries.iter().map(|q| q.sql.as_str()).collect();
    let served = Served::new(
        &dataset,
        &column_specs(&dataset, &["measure00", "measure01"]),
        &samples,
        scale,
        &mut rng,
    );
    let link = NetworkModel::datacenter();
    let end_to_end = |timing: &Timing, bytes: usize| Timing {
        total: timing.total.map(|d| d + link.transfer_time(bytes)),
        ..*timing
    };
    let mut rows = Vec::new();
    for q in &queries {
        let label = |system: &str| format!("{system} groups={}", q.groups);
        let (seabed, twin) = served.try_measure(&q.sql, &[]);
        if let Ok(twin) = &twin {
            rows.push(Row::new(label("NoEnc")).with_timing(&end_to_end(&twin.timing, twin.result_bytes)));
        }
        if let Ok(seabed) = &seabed {
            rows.push(Row::new(label("Seabed")).with_timing(&end_to_end(&seabed.timing, seabed.result_bytes)));
            let (adds, sums) = served.paillier_work(&q.sql);
            if sums > 0 {
                let estimate = paillier.estimate(&seabed.timing, adds, sums);
                let bytes = sums as usize * paillier.ciphertext_bytes();
                rows.push(Row::new(label(PAILLIER)).with_timing(&end_to_end(&estimate, bytes)));
            }
        }
    }
    rows
}

/// Figure 10(b): cumulative storage overhead of basic vs enhanced SPLASHE over
/// the ten sensitive Ad-Analytics dimensions, sorted by cardinality.
pub fn exp_fig10b(scale: &Scale) -> Vec<Row> {
    let rows = scale.rows(759) as u64;
    let profiles = ad_analytics::sensitive_dimension_profiles(rows);
    let plain_columns = ad_analytics::NUM_DIMENSIONS + ad_analytics::NUM_MEASURES;
    seabed_splashe::overhead_curve(&profiles, plain_columns)
        .into_iter()
        .map(|p| {
            Row::new(format!("{} (d={})", p.name, p.cardinality))
                .with("basic_splashe_x", p.cumulative_basic)
                .with("enhanced_splashe_x", p.cumulative_enhanced)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::row_selected;
    use seabed_core::PlainColumn;

    fn tiny_scale() -> Scale {
        Scale {
            row_divisor: 100_000,
            partitions: 4,
            seed: 1,
        }
    }

    /// The harness's Paillier cost function at a 128-bit modulus, measured
    /// once for every test: a 2048-bit key takes a minute to generate in a
    /// debug build.
    fn small_cost() -> &'static PaillierCost {
        static COST: std::sync::OnceLock<PaillierCost> = std::sync::OnceLock::new();
        COST.get_or_init(|| PaillierCost::measure(&mut tiny_scale().rng(), 128))
    }

    #[test]
    fn table1_has_expected_operations() {
        let rows = exp_table1(&tiny_scale(), small_cost());
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"AES counter mode"));
        assert!(labels.contains(&"ASHE encryption"));
        assert!(labels.contains(&"Paillier encryption (128-bit)"));
        // Ordering claim of Table 1: plain add < ASHE < Paillier.
        let value = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .unwrap()
                .value("ns")
                .unwrap()
        };
        assert!(value("Plain addition") < value("ASHE encryption"));
        assert!(value("ASHE encryption") < value("Paillier encryption"));
        for row in &rows {
            assert_eq!(row.value("k"), Some(K_RUNS as f64), "{}", row.label);
        }
        let pipeline = rows.last().unwrap();
        assert_eq!(pipeline.label, "Paillier pipeline sum (128-bit, 4000 rows)");
        assert!(pipeline.value("model_over_measured").is_some_and(|r| r > 0.0));
    }

    #[test]
    fn table2_shows_encrypted_operators() {
        let rows = exp_table2();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1.contains("OPE.cmp") || rows[0].1.contains("reduce ASHE"));
        assert!(rows[2].1.contains("groupBy"));
    }

    #[test]
    fn table3_matches_paper_shape() {
        let rows = exp_table3();
        assert_eq!(rows.len(), PaperEncoding::ALL.len() + 2);
        // Range+VB+Diff should be no larger than raw range+VB for this list.
        let size = |label: &str| rows.iter().find(|r| r.label == label).unwrap().values[0].1;
        assert!(size("+Diff") <= size("Ranges & VB"));
        // The product sends no more than any of its containers would: the
        // range, per-ID and Elias–Fano rows are three of its four.
        for container in ["+Diff", "VB & Diff (group-by)", "Elias–Fano"] {
            assert!(size("smallest of four") <= size(container), "{container}");
        }
    }

    /// Table 3's bytes per encoding on its fixed list, as the harness
    /// reported them while the encodings still lived in `seabed-encoding`
    /// (the committed `paper/BENCH_table3.json`): the move changed no byte.
    /// The product's Elias–Fano container writes `2 18 22` and 39 bits, and
    /// the product sends the list as ranges, `2 12 5 4`.
    #[test]
    fn table3_bytes_are_the_recorded_figures() {
        let got: Vec<(String, f64, f64)> = exp_table3()
            .into_iter()
            .map(|row| (row.label, row.values[0].1, row.values[1].1))
            .collect();
        let recorded = [
            ("Ranges & VB", 4.0),
            ("+Diff", 4.0),
            ("+Deflate(Compact)", 9.0),
            ("+Deflate(Fast)", 9.0),
            ("VB & Diff (group-by)", 18.0),
            ("Bitmap", 40.0),
            ("Elias–Fano", 8.0),
            ("smallest of four", 4.0),
        ];
        let want: Vec<(String, f64, f64)> = recorded
            .iter()
            .map(|&(label, bytes)| (label.to_string(), bytes, 18.0))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fig6_shape_seabed_beats_paillier() {
        let points = exp_fig6(&tiny_scale(), small_cost());
        let at = |system: &str, rows: usize| {
            points
                .iter()
                .find(|p| p.system == system && p.rows == rows)
                .map(|p| p.total)
                .unwrap()
        };
        let rows = points[0].rows;
        assert!(
            at("Seabed sel=50%", rows) < at(PAILLIER, rows),
            "ASHE must beat Paillier"
        );
    }

    /// The selection column is `row_selected`'s rule: `p < k` holds exactly
    /// where `row_selected(row, k / SELECTION_SCALE)` does, so the product
    /// and the NoEnc reference aggregate the same rows.
    #[test]
    fn p_below_k_selects_the_rows_row_selected_selects() {
        let scale = tiny_scale();
        let ds = synthetic::aggregation_dataset(&mut scale.rng(), 5_000);
        let table = synthetic_table(&ds);
        let Some(PlainColumn::UInt(p)) = table.column("p") else {
            panic!("p is an integer column");
        };
        for k in [
            0,
            1,
            SELECTION_SCALE / 10,
            SELECTION_SCALE / 2,
            SELECTION_SCALE - 1,
            SELECTION_SCALE,
        ] {
            let selectivity = k as f64 / SELECTION_SCALE as f64;
            for (row, &key) in p.iter().enumerate() {
                assert_eq!(key < k, row_selected(row as u64, selectivity), "row {row}, k {k}");
            }
        }
        // Through the product: the encrypted plan's 50% sum is the baselines'.
        let served = Served::synthetic(&ds, &[&selection_sql(0.5)], &scale, &mut scale.rng());
        let (seabed, _) = served.measure(&selection_sql(0.5), &[]);
        let expected = (0..ds.rows())
            .filter(|&row| row_selected(row as u64, 0.5))
            .fold(0u64, |sum, row| sum.wrapping_add(ds.values[row]));
        assert_eq!(seabed.rows, vec![vec![ResultValue::UInt(expected)]]);
    }

    /// Figures 6, 8(c) and 9(a) run the product at a tiny scale. Each checks
    /// every answer against the twin's as it goes (a difference panics), and
    /// every timed row carries `k` and its spread.
    #[test]
    fn product_figures_check_their_answers_at_tiny_scale() {
        let scale = tiny_scale();
        let figures = [
            latency_rows(&exp_fig6(&scale, small_cost()), false),
            exp_fig8c(&scale),
            exp_fig9a(&scale, small_cost()),
        ];
        for row in figures.iter().flatten() {
            assert_eq!(row.value("k"), Some(K_RUNS as f64), "{}", row.label);
            assert!(row.value("response_s_iqr").is_some(), "{}", row.label);
        }
        let mut systems: Vec<&str> = figures[2]
            .iter()
            .filter_map(|r| r.label.split(" groups=").next())
            .collect();
        systems.sort_unstable();
        systems.dedup();
        assert_eq!(systems, ["NoEnc", PAILLIER, "Seabed"], "Figure 9(a)'s systems");
        // Paillier's client decrypts one ciphertext per group.
        let clients: Vec<f64> = figures[2]
            .iter()
            .filter(|r| r.label.starts_with(PAILLIER))
            .map(|r| r.value("client_s").unwrap())
            .collect();
        assert!(clients.windows(2).all(|w| w[0] <= w[1]), "{clients:?}");
        assert!(clients[0] < clients[clients.len() - 1], "{clients:?}");
        // Figure 6 times NoEnc at both selectivities Seabed runs at.
        for system in ["NoEnc sel=100%", "NoEnc sel=50%", "Seabed sel=50%", PAILLIER] {
            let label = format!("{system} rows=");
            assert!(figures[0].iter().any(|r| r.label.starts_with(&label)), "{label}");
        }
    }

    #[test]
    fn answers_compare_as_text_in_any_order() {
        let (uint, text) = (ResultValue::UInt, |s: &str| ResultValue::Text(s.to_string()));
        let twin = [vec![uint(3), uint(10)], vec![uint(4), uint(20)]];
        let seabed = [vec![text("4"), uint(20)], vec![text("3"), uint(10)]];
        assert_same_answer("q", &seabed, &twin);
    }

    #[test]
    #[should_panic(expected = "answer `q` differently")]
    fn a_wrong_answer_panics() {
        assert_same_answer("q", &[vec![ResultValue::UInt(1)]], &[vec![ResultValue::UInt(2)]]);
    }

    #[test]
    fn fig10b_enhanced_cheaper_than_basic() {
        let rows = exp_fig10b(&tiny_scale());
        assert_eq!(rows.len(), 10);
        for row in &rows {
            let basic = row.values.iter().find(|(n, _)| n == "basic_splashe_x").unwrap().1;
            let enhanced = row.values.iter().find(|(n, _)| n == "enhanced_splashe_x").unwrap().1;
            assert!(enhanced <= basic + 1e-9);
        }
    }

    #[test]
    fn format_rows_is_readable() {
        let rows = vec![Row::new("x").with("a", 1.0).with("b", 12345.678)];
        let text = format_rows("Demo", &rows);
        assert!(text.contains("## Demo"));
        assert!(text.contains("a=1.000"));
    }

    #[test]
    fn bench_json_is_machine_readable() {
        let rows = vec![
            Row::new("ASHE \"enc\"").with("ns_per_op", 42.5).with("bad", f64::NAN),
            Row::new("line\ntwo").with("x", 1e9),
        ];
        let json = rows_to_json("table1", &Scale::smoke(), &RunMeta::default(), &rows);
        assert!(json.contains("\"experiment\": \"table1\""));
        assert!(json.contains(&format!(
            "\"meta\": {{\"unix_timestamp\": 0, \"git_commit\": \"unknown\", \"aes_backend\": \"{}\"}}",
            seabed_crypto::aes_backend()
        )));
        assert!(json.contains("\"row_divisor\": 20000"));
        assert!(json.contains("\"ASHE \\\"enc\\\"\""));
        assert!(json.contains("\"ns_per_op\": 42.5"));
        assert!(json.contains("\"bad\": null"));
        assert!(json.contains("line\\ntwo"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn bench_json_writes_file() {
        let dir = std::env::temp_dir().join("seabed_bench_json_test");
        let rows = vec![Row::new("r").with("v", 1.0)];
        let path = write_bench_json(&dir, "smoke", &Scale::smoke(), &RunMeta::capture(), &rows).expect("write json");
        let content = std::fs::read_to_string(&path).expect("read back");
        assert!(path.ends_with("BENCH_smoke.json"));
        assert!(content.contains("\"experiment\": \"smoke\""));
        assert!(content.contains("\"git_commit\": \""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
