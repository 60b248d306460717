//! # seabed-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! Seabed paper's evaluation (§6). Each `exp_*` function reproduces one
//! experiment at a configurable [`Scale`] and returns structured rows; the
//! `harness` binary prints them in the same shape the paper reports. (The
//! regression-gating benchmark is the separate `benchmark/` package,
//! `seabench`.)
//!
//! Paper-scale runs (1.75 B rows, 100 physical cores, 2048-bit Paillier) are
//! not feasible in a test environment; every experiment therefore runs at a
//! reduced scale, recorded as `scale` in each artifact. The *shapes* — who
//! wins, by roughly what factor, where the crossovers are — are preserved.
//! One default-scale run (`harness --json-dir=crates/bench/paper all`) is
//! committed under `crates/bench/paper/`.
//!
//! The systems Seabed is compared against — NoEnc, Paillier with its
//! big-integer arithmetic — and the paper's models of its 100-core cluster
//! and of the §6.6 link live here too, in [`baselines`]: no proxy, server or
//! worker runs them. Figures 9b/c and 10a run the product itself, so they
//! report the server time it measured. The ID-list encodings the paper
//! compares but the product does not send — raw range bounds, DEFLATE and
//! its parts, the roaring-style bitmap — are in [`codec`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod codec;
pub mod metrics;
pub mod runner;

pub use metrics::{format_rows, rows_to_json, write_bench_json, Row, RunMeta};
pub use runner::{ExperimentConfig, ExperimentReport, ExperimentRunner};

use baselines::cluster_model::TASK_OVERHEAD;
use baselines::{row_selected, BigUint, ClusterModel, NetworkModel, NoEncSystem, PaillierKeypair, PaillierSystem};
use codec::PaperEncoding;
use rand::rngs::StdRng;
use rand::SeedableRng;
use seabed_ashe::{AsheScheme, IdSet};
use seabed_core::{PhysicalFilter, PlainDataset, QueryResult, SeabedClient, SeabedServer, SeabedSession};
use seabed_crypto::AesCtr;
use seabed_engine::{table_disk_size, table_memory_size, Cluster, TaskOutput};
use seabed_query::{parse, ColumnSpec, CompareOp, PlannerConfig, TranslateOptions};
use seabed_workloads::{ad_analytics, bdb, classify, synthetic};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Scaling knobs for the experiments.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Divisor applied to the paper's row counts (default 1000: 1.75 B rows
    /// become 1.75 M).
    pub row_divisor: u64,
    /// Maximum number of rows any Paillier pipeline actually encrypts; larger
    /// requests are measured at this size and extrapolated linearly.
    pub paillier_row_cap: usize,
    /// Paillier modulus size used in full-pipeline experiments (Table 1
    /// additionally reports 2048-bit single-operation costs).
    pub paillier_bits: usize,
    /// Number of partitions the engine splits tables into.
    pub partitions: usize,
    /// RNG seed so harness runs are reproducible.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            row_divisor: 1_000,
            paillier_row_cap: 20_000,
            paillier_bits: 128,
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
            paillier_row_cap: 2_000,
            paillier_bits: 96,
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

fn time_per_op<F: FnMut()>(iterations: u64, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

// ---------------------------------------------------------------------------
// Table 1: cost of cryptographic operations
// ---------------------------------------------------------------------------

/// Table 1: nanoseconds per operation for the primitives Seabed builds on.
pub fn exp_table1(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let mut rows = Vec::new();

    // AES counter mode (one 128-bit block).
    let ctr = AesCtr::new(&[7u8; 16], 1);
    let mut counter = 0u64;
    rows.push(Row::new("AES counter mode").with(
        "ns",
        time_per_op(200_000, || {
            counter = counter.wrapping_add(1);
            std::hint::black_box(ctr.keystream_block(counter));
        }),
    ));

    // ASHE encryption / decryption.
    let ashe = AsheScheme::new(&[9u8; 16]);
    let mut id = 0u64;
    rows.push(Row::new("ASHE encryption").with(
        "ns",
        time_per_op(200_000, || {
            id = id.wrapping_add(1);
            std::hint::black_box(ashe.encrypt(id ^ 0xdead, id));
        }),
    ));
    let ct = ashe.encrypt(12345, 42);
    rows.push(Row::new("ASHE decryption").with(
        "ns",
        time_per_op(200_000, || {
            std::hint::black_box(ashe.decrypt(&ct));
        }),
    ));

    // Plain addition.
    let mut acc = 0u64;
    rows.push(Row::new("Plain addition").with(
        "ns",
        time_per_op(2_000_000, || {
            acc = acc.wrapping_add(std::hint::black_box(3));
        }),
    ));
    std::hint::black_box(acc);

    // Paillier at the configured modulus and at 2048 bits (single ops only).
    for bits in [scale.paillier_bits, 2048] {
        let keypair = PaillierKeypair::generate(&mut rng, bits);
        let iters = if bits >= 2048 { 3 } else { 100 };
        let m = BigUint::from_u64(123_456_789);
        rows.push(Row::new(format!("Paillier encryption ({bits}-bit)")).with(
            "ns",
            time_per_op(iters, || {
                std::hint::black_box(keypair.public.encrypt(&mut rng, &m));
            }),
        ));
        let c1 = keypair.public.encrypt(&mut rng, &m);
        let c2 = keypair.public.encrypt(&mut rng, &m);
        rows.push(Row::new(format!("Paillier addition ({bits}-bit)")).with(
            "ns",
            time_per_op(iters * 20, || {
                std::hint::black_box(keypair.public.add(&c1, &c2));
            }),
        ));
        rows.push(Row::new(format!("Paillier decryption ({bits}-bit)")).with(
            "ns",
            time_per_op(iters, || {
                std::hint::black_box(keypair.private.decrypt(&c1));
            }),
        ));
    }
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
    let options = TranslateOptions {
        workers: 100,
        expected_groups: Some(10),
    };
    samples
        .iter()
        .map(|q| {
            let translated = seabed_query::translate(q, &plan, &options).unwrap();
            (q.to_sql(), translated.describe())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 3: ID-list encoding examples
// ---------------------------------------------------------------------------

/// Table 3: encoded sizes of a representative ID list under each technique.
pub fn exp_table3() -> Vec<Row> {
    let ids: Vec<u64> = (2..=14).chain(19..=23).collect();
    let set = IdSet::from_sorted_ids(&ids);
    PaperEncoding::ALL
        .iter()
        .map(|&enc| {
            Row::new(enc.label())
                .with("bytes", enc.encoded_size(set.runs()) as f64)
                .with("ids", set.count() as f64)
        })
        .collect()
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

fn paillier_ciphertext_len(bits: usize) -> usize {
    bits / 4 // elements of Z_{n^2} serialize to ~2 * bits/8 bytes
}

/// Table 5: disk and memory footprint of NoEnc / Seabed / Paillier
/// representations for each dataset, at the configured scale.
pub fn exp_table5(scale: &Scale) -> Vec<Row> {
    let mut rng = scale.rng();
    let mut rows = Vec::new();
    let mb = |bytes: usize| bytes as f64 / 1e6;

    // Synthetic datasets: one measure column.
    for (label, paper_millions) in [("Synthetic-Large", 1750u64), ("Synthetic-Small", 250u64)] {
        let n = scale.rows(paper_millions);
        let ds = synthetic::aggregation_dataset(&mut rng, n);
        let noenc = NoEncSystem::new(&ds.values, None, scale.partitions, ClusterModel::new(100));
        // Seabed: one ASHE word plus an explicit ID column per row, as in the
        // prototype's synthetic dataset (Table 5 note in §6.1).
        let ashe = AsheScheme::new(&[1u8; 16]);
        let encrypted = seabed_ashe::encrypt_column(&ashe, &ds.values, 0);
        let seabed_disk = encrypted.values.len() * 16;
        let paillier_disk = n * (4 + paillier_ciphertext_len(2048));
        let noenc_disk = table_disk_size(noenc.table());
        rows.push(
            Row::new(format!("{label} ({n} rows)"))
                .with("noenc_disk_mb", mb(noenc_disk))
                .with("seabed_disk_mb", mb(seabed_disk))
                .with("paillier_disk_mb", mb(paillier_disk))
                .with("noenc_mem_mb", mb(table_memory_size(noenc.table())))
                .with("seabed_mem_mb", mb(seabed_disk + seabed_disk / 3))
                .with("paillier_mem_mb", mb(paillier_disk + paillier_disk / 5)),
        );
    }

    // Big Data Benchmark and Ad-Analytics: measure real encrypted tables at a
    // small scale.
    let bdb_tables = bdb::generate(&mut rng, scale.rows(90) / 20, scale.rows(775) / 20);
    let ada = ad_analytics::generate(&mut rng, (scale.rows(759) / 100).max(2_000));
    for (label, dataset, sensitive_measures, splashe_dim) in [
        ("BDB-Rankings", &bdb_tables.rankings, vec!["pageRank"], None),
        (
            "BDB-UserVisits",
            &bdb_tables.uservisits,
            vec!["adRevenue", "duration"],
            None,
        ),
        ("Ad-Analytics", &ada, vec!["measure00", "measure01"], Some("dim00")),
    ] {
        let (noenc_table, seabed_table, paillier_bytes) =
            build_size_comparison(dataset, &sensitive_measures, splashe_dim, scale, &mut rng);
        rows.push(
            Row::new(format!("{label} ({} rows)", dataset.num_rows()))
                .with("noenc_disk_mb", mb(table_disk_size(&noenc_table)))
                .with("seabed_disk_mb", mb(table_disk_size(&seabed_table)))
                .with("paillier_disk_mb", mb(paillier_bytes))
                .with("noenc_mem_mb", mb(table_memory_size(&noenc_table)))
                .with("seabed_mem_mb", mb(table_memory_size(&seabed_table))),
        );
    }
    rows
}

fn build_size_comparison<R: rand::Rng + ?Sized>(
    dataset: &PlainDataset,
    sensitive_measures: &[&str],
    splashe_dim: Option<&str>,
    scale: &Scale,
    rng: &mut R,
) -> (seabed_engine::Table, seabed_engine::Table, usize) {
    // NoEnc: everything plaintext.
    let noenc_specs: Vec<ColumnSpec> = dataset.columns.iter().map(|(n, _)| ColumnSpec::public(n)).collect();
    let sample = vec![parse(&format!("SELECT SUM({}) FROM t", sensitive_measures[0])).unwrap()];
    let mut noenc_client = SeabedClient::create_plan(b"k", &noenc_specs, &sample, &PlannerConfig::default());
    let noenc_table = noenc_client.encrypt_dataset(dataset, scale.partitions, rng).table;

    // Seabed: sensitive measures ASHE, one optional SPLASHE dimension.
    let specs: Vec<ColumnSpec> = dataset
        .columns
        .iter()
        .map(|(n, _)| {
            if sensitive_measures.contains(&n.as_str()) {
                ColumnSpec::sensitive(n)
            } else if Some(n.as_str()) == splashe_dim {
                ColumnSpec::sensitive_with_distribution(n, dataset.distribution(n).unwrap())
            } else {
                ColumnSpec::public(n)
            }
        })
        .collect();
    let mut samples: Vec<_> = sensitive_measures
        .iter()
        .map(|m| parse(&format!("SELECT SUM({m}) FROM t")).unwrap())
        .collect();
    if let Some(dim) = splashe_dim {
        samples.push(
            parse(&format!(
                "SELECT SUM({}) FROM t WHERE {dim} = 'v0'",
                sensitive_measures[0]
            ))
            .unwrap(),
        );
    }
    let mut seabed_client = SeabedClient::create_plan(b"k", &specs, &samples, &PlannerConfig::default());
    let seabed_table = seabed_client.encrypt_dataset(dataset, scale.partitions, rng).table;

    // Paillier: each sensitive measure becomes a 2048-bit ciphertext; other
    // columns as in NoEnc (analytic accounting).
    let paillier_bytes = table_disk_size(&noenc_table)
        + dataset.num_rows() * sensitive_measures.len() * (4 + paillier_ciphertext_len(2048));
    (noenc_table, seabed_table, paillier_bytes)
}

// ---------------------------------------------------------------------------
// Figures 6 & 7: end-to-end latency vs rows, server latency vs cores
// ---------------------------------------------------------------------------

/// One measured latency point for the microbenchmark systems.
#[derive(Clone, Debug)]
pub struct LatencyPoint {
    /// System label ("NoEnc", "Seabed sel=100%", …).
    pub system: String,
    /// Row count of the dataset.
    pub rows: usize,
    /// Simulated worker count.
    pub workers: usize,
    /// End-to-end latency (server + network + client).
    pub total: Duration,
    /// Server-side component.
    pub server: Duration,
    /// Client-side component.
    pub client: Duration,
}

fn ashe_selectivity_run(
    values: &[u64],
    selectivity: f64,
    workers: usize,
    partitions: usize,
    encoding: PaperEncoding,
) -> (u64, Duration, Duration, usize) {
    let scheme = AsheScheme::new(&[5u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&scheme, values, 0);
    let table = seabed_engine::Table::from_columns(
        seabed_engine::Schema::new([("m__ashe".to_string(), seabed_engine::ColumnType::UInt64)]),
        vec![seabed_engine::ColumnData::UInt64(encrypted.values)],
        partitions,
    );
    let cluster = ClusterModel::new(workers);
    let (partials, stats) = cluster.run(&table, |p| {
        let col = p.column(0).as_u64();
        let mut sum = 0u64;
        let mut ids = IdSet::new();
        for (i, &word) in col.iter().enumerate() {
            if row_selected(p.row_id(i), selectivity) {
                sum = sum.wrapping_add(word);
                ids.push_ordered(p.row_id(i));
            }
        }
        let encoded = encoding.encode(ids.runs());
        let bytes = encoded.len() + 8;
        TaskOutput::new((sum, ids), bytes)
    });
    // Driver merge.
    let mut total = 0u64;
    let mut ids = IdSet::new();
    for (sum, partial_ids) in partials {
        total = total.wrapping_add(sum);
        ids = ids.union(&partial_ids);
    }
    let result_bytes = encoding.encoded_size(ids.runs()) + 8;
    // Client decryption.
    let started = Instant::now();
    let plain = scheme.decrypt(&seabed_ashe::AsheCiphertext { value: total, ids });
    let client = started.elapsed();
    (plain, stats.simulated_server_time, client, result_bytes)
}

/// Figure 6: median end-to-end latency vs number of rows for NoEnc, Seabed
/// (selectivity 100% and 50%) and Paillier.
pub fn exp_fig6(scale: &Scale) -> Vec<LatencyPoint> {
    let mut rng = scale.rng();
    let mut points = Vec::new();
    let keypair = PaillierKeypair::generate(&mut rng, scale.paillier_bits);
    for &millions in &synthetic::FIG6_ROWS_MILLIONS {
        let rows = scale.rows(millions);
        let ds = synthetic::aggregation_dataset(&mut rng, rows);

        // NoEnc.
        let noenc = NoEncSystem::new(&ds.values, None, scale.partitions, ClusterModel::new(100));
        let r = noenc.sum(1.0);
        points.push(LatencyPoint {
            system: "NoEnc".into(),
            rows,
            workers: 100,
            total: r.stats.simulated_server_time,
            server: r.stats.simulated_server_time,
            client: Duration::ZERO,
        });

        // Seabed at 100% and 50% selectivity.
        for (label, sel) in [("Seabed sel=100%", 1.0), ("Seabed sel=50%", 0.5)] {
            let (_, server, client, _) =
                ashe_selectivity_run(&ds.values, sel, 100, scale.partitions, PaperEncoding::SEABED_AGGREGATE);
            points.push(LatencyPoint {
                system: label.into(),
                rows,
                workers: 100,
                total: server + client,
                server,
                client,
            });
        }

        // Paillier, capped and extrapolated.
        let paillier_rows = rows.min(scale.paillier_row_cap);
        let paillier = PaillierSystem::with_keypair(
            &ds.values[..paillier_rows],
            None,
            scale.partitions,
            ClusterModel::new(100),
            keypair.clone(),
            &mut rng,
        );
        let r = paillier.sum(1.0);
        let factor = rows as f64 / paillier_rows as f64;
        let server = Duration::from_secs_f64(r.stats.simulated_server_time.as_secs_f64() * factor);
        points.push(LatencyPoint {
            system: "Paillier".into(),
            rows,
            workers: 100,
            total: server + r.client_time,
            server,
            client: r.client_time,
        });
    }
    points
}

/// Figure 7: server-side latency vs simulated worker count, fixed dataset.
pub fn exp_fig7(scale: &Scale) -> Vec<LatencyPoint> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750);
    let ds = synthetic::aggregation_dataset(&mut rng, rows);
    let keypair = PaillierKeypair::generate(&mut rng, scale.paillier_bits);
    let mut points = Vec::new();
    for &workers in &synthetic::FIG7_WORKERS {
        let noenc = NoEncSystem::new(&ds.values, None, scale.partitions, ClusterModel::new(workers));
        let r = noenc.sum(1.0);
        points.push(LatencyPoint {
            system: "NoEnc".into(),
            rows,
            workers,
            total: r.stats.simulated_server_time,
            server: r.stats.simulated_server_time,
            client: Duration::ZERO,
        });
        for (label, sel) in [("Seabed sel=100%", 1.0), ("Seabed sel=50%", 0.5)] {
            let (_, server, client, _) = ashe_selectivity_run(
                &ds.values,
                sel,
                workers,
                scale.partitions,
                PaperEncoding::SEABED_AGGREGATE,
            );
            points.push(LatencyPoint {
                system: label.into(),
                rows,
                workers,
                total: server + client,
                server,
                client,
            });
        }
        let paillier_rows = rows.min(scale.paillier_row_cap);
        let paillier = PaillierSystem::with_keypair(
            &ds.values[..paillier_rows],
            None,
            scale.partitions,
            ClusterModel::new(workers),
            keypair.clone(),
            &mut rng,
        );
        let r = paillier.sum(1.0);
        let factor = rows as f64 / paillier_rows as f64;
        points.push(LatencyPoint {
            system: "Paillier".into(),
            rows,
            workers,
            total: Duration::from_secs_f64(r.stats.simulated_server_time.as_secs_f64() * factor),
            server: Duration::from_secs_f64(r.stats.simulated_server_time.as_secs_f64() * factor),
            client: r.client_time,
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 8: ID-list size and response time vs selectivity; OPE overhead
// ---------------------------------------------------------------------------

/// One Figure 8 measurement.
#[derive(Clone, Debug)]
pub struct SelectivityPoint {
    /// Encoding or configuration label.
    pub config: String,
    /// Selectivity in [0, 1].
    pub selectivity: f64,
    /// Result (ID list) size in bytes.
    pub result_bytes: usize,
    /// Server + client response time.
    pub response: Duration,
}

/// Figure 8(a)/(b): ID-list size and response time vs selectivity for each
/// encoding combination.
pub fn exp_fig8ab(scale: &Scale) -> Vec<SelectivityPoint> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750);
    let ds = synthetic::aggregation_dataset(&mut rng, rows);
    let mut points = Vec::new();
    let encodings = [
        PaperEncoding::RangesVb,
        PaperEncoding::RangesVbDiff,
        PaperEncoding::RangesVbDiffDeflateCompact,
        PaperEncoding::RangesVbDiffDeflateFast,
    ];
    for &encoding in &encodings {
        for &selectivity in &synthetic::FIG8_SELECTIVITIES {
            let (_, server, client, result_bytes) =
                ashe_selectivity_run(&ds.values, selectivity, 100, scale.partitions, encoding);
            points.push(SelectivityPoint {
                config: encoding.label().to_string(),
                selectivity,
                result_bytes,
                response: server + client,
            });
        }
    }
    points
}

/// Figure 8(c): aggregation with and without an OPE selection predicate.
pub fn exp_fig8c(scale: &Scale) -> Vec<SelectivityPoint> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750) / 4; // ORE comparison is per-row; keep runtime bounded
    let ds = synthetic::ope_dataset(&mut rng, rows);
    let ope_values = ds.ope_values.clone().unwrap();
    let scheme = AsheScheme::new(&[5u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&scheme, &ds.values, 0);
    let ore = seabed_crypto::OreScheme::new(&[8u8; 16]);
    let ore_cts: seabed_engine::BytesColumn = ope_values.iter().map(|&v| ore.encrypt(v).symbols).collect();
    let table = seabed_engine::Table::from_columns(
        seabed_engine::Schema::new([
            ("m__ashe".to_string(), seabed_engine::ColumnType::UInt64),
            ("f__ope".to_string(), seabed_engine::ColumnType::Bytes),
        ]),
        vec![
            seabed_engine::ColumnData::UInt64(encrypted.values),
            seabed_engine::ColumnData::Bytes(ore_cts),
        ],
        scale.partitions,
    );
    let cluster = ClusterModel::new(100);
    let mut points = Vec::new();
    for &selectivity in &synthetic::FIG8_SELECTIVITIES {
        // Plain aggregation at this selectivity (the "Aggregation" line).
        let (_, server, client, bytes) = ashe_selectivity_run(
            &ds.values,
            selectivity,
            100,
            scale.partitions,
            PaperEncoding::SEABED_AGGREGATE,
        );
        points.push(SelectivityPoint {
            config: "Aggregation".into(),
            selectivity,
            result_bytes: bytes,
            response: server + client,
        });
        // Aggregation with an OPE range predicate of the same selectivity,
        // through the server's range kernel.
        let filter = PhysicalFilter::Ope {
            column: 1,
            op: CompareOp::Lt,
            ciphertext: ore.encrypt((selectivity * u32::MAX as f64) as u64),
        };
        let (partials, stats) = cluster.run(&table, |p| {
            let words = p.column(0).as_u64();
            let selected = filter.select_dense(p).expect("column 1 is the ORE column");
            let mut sum = 0u64;
            let mut ids = IdSet::new();
            for &row in selected.rows() {
                sum = sum.wrapping_add(words[row as usize]);
                ids.push_ordered(p.row_id(row as usize));
            }
            let bytes = PaperEncoding::SEABED_AGGREGATE.encoded_size(ids.runs()) + 8;
            TaskOutput::new((sum, ids), bytes)
        });
        let mut total = 0u64;
        let mut ids = IdSet::new();
        for (sum, partial) in partials {
            total = total.wrapping_add(sum);
            ids = ids.union(&partial);
        }
        let started = Instant::now();
        std::hint::black_box(scheme.decrypt(&seabed_ashe::AsheCiphertext {
            value: total,
            ids: ids.clone(),
        }));
        points.push(SelectivityPoint {
            config: "+OPE selection".into(),
            selectivity,
            result_bytes: PaperEncoding::SEABED_AGGREGATE.encoded_size(ids.runs()) + 8,
            response: stats.simulated_server_time + started.elapsed(),
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 9a: group-by microbenchmark
// ---------------------------------------------------------------------------

/// One Figure 9a measurement.
#[derive(Clone, Debug)]
pub struct GroupByPoint {
    /// System label.
    pub system: String,
    /// Number of groups in the dataset.
    pub groups: u64,
    /// Response time.
    pub response: Duration,
}

/// Figure 9a: group-by latency vs number of groups for NoEnc, Paillier,
/// Seabed and Seabed-optimized (group inflation).
pub fn exp_fig9a(scale: &Scale) -> Vec<GroupByPoint> {
    let mut rng = scale.rng();
    let rows = scale.rows(1750) / 2;
    let workers = 100usize;
    let keypair = PaillierKeypair::generate(&mut rng, scale.paillier_bits);
    let mut points = Vec::new();
    for &groups in &synthetic::FIG9A_GROUPS {
        let groups = groups.min(rows as u64 / 2);
        let ds = synthetic::group_by_dataset(&mut rng, rows, groups);
        let keys = ds.groups.clone().unwrap();

        // NoEnc.
        let noenc = NoEncSystem::new(&ds.values, Some(&keys), scale.partitions, ClusterModel::new(workers));
        let (_, stats) = noenc.group_by_sum(1.0);
        points.push(GroupByPoint {
            system: "NoEnc".into(),
            groups,
            response: stats.simulated_server_time,
        });

        // Seabed (VB+Diff encoding, no inflation) and Seabed-optimized
        // (inflate group count to the worker count when fewer groups).
        for (label, inflation) in [
            ("Seabed", 1u64),
            ("Seabed-optimized", (workers as u64 / groups.max(1)).max(1)),
        ] {
            let scheme = AsheScheme::new(&[5u8; 16]);
            let encrypted = seabed_ashe::encrypt_column(&scheme, &ds.values, 0);
            let table = seabed_engine::Table::from_columns(
                seabed_engine::Schema::new([
                    ("m__ashe".to_string(), seabed_engine::ColumnType::UInt64),
                    ("g".to_string(), seabed_engine::ColumnType::UInt64),
                ]),
                vec![
                    seabed_engine::ColumnData::UInt64(encrypted.values),
                    seabed_engine::ColumnData::UInt64(keys.clone()),
                ],
                scale.partitions,
            );
            let cluster = ClusterModel::new(workers);
            let encoding = PaperEncoding::SEABED_GROUP_BY;
            let (partials, stats) = cluster.run(&table, |p| {
                let words = p.column(0).as_u64();
                let grp = p.column(1).as_u64();
                let mut map: BTreeMap<u64, (u64, IdSet)> = BTreeMap::new();
                for i in 0..p.num_rows() {
                    let suffix = if inflation > 1 {
                        (p.row_id(i).wrapping_mul(2654435761)) % inflation
                    } else {
                        0
                    };
                    let key = grp[i] * inflation + suffix;
                    let entry = map.entry(key).or_insert_with(|| (0, IdSet::new()));
                    entry.0 = entry.0.wrapping_add(words[i]);
                    entry.1.push_ordered(p.row_id(i));
                }
                let bytes: usize = map
                    .values()
                    .map(|(_, ids)| 16 + encoding.encoded_size(ids.runs()))
                    .sum();
                TaskOutput::new(map, bytes)
            });
            // Driver merge + client decrypt per group.
            let mut merged: BTreeMap<u64, (u64, IdSet)> = BTreeMap::new();
            for partial in partials {
                for (k, (sum, ids)) in partial {
                    let entry = merged.entry(k).or_insert_with(|| (0, IdSet::new()));
                    entry.0 = entry.0.wrapping_add(sum);
                    entry.1 = entry.1.union(&ids);
                }
            }
            let started = Instant::now();
            let mut acc = 0u64;
            for (_, (sum, ids)) in merged {
                acc = acc.wrapping_add(scheme.decrypt(&seabed_ashe::AsheCiphertext { value: sum, ids }));
            }
            std::hint::black_box(acc);
            points.push(GroupByPoint {
                system: label.into(),
                groups,
                response: stats.simulated_server_time + started.elapsed(),
            });
        }

        // Paillier, capped and extrapolated.
        let paillier_rows = rows.min(scale.paillier_row_cap);
        let paillier = PaillierSystem::with_keypair(
            &ds.values[..paillier_rows],
            Some(&keys[..paillier_rows]),
            scale.partitions,
            ClusterModel::new(workers),
            keypair.clone(),
            &mut rng,
        );
        let (_, stats, client) = paillier.group_by_sum(1.0);
        let factor = rows as f64 / paillier_rows as f64;
        points.push(GroupByPoint {
            system: "Paillier".into(),
            groups,
            response: Duration::from_secs_f64(stats.simulated_server_time.as_secs_f64() * factor) + client,
        });
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 9b/c: Big Data Benchmark
// ---------------------------------------------------------------------------

/// One BDB query measurement.
#[derive(Clone, Debug)]
pub struct BdbPoint {
    /// Query name (Q1A..Q4).
    pub query: String,
    /// System label.
    pub system: String,
    /// Server-side response time.
    pub response: Duration,
}

/// Figure 9b/c: the ten Big Data Benchmark queries under NoEnc and Seabed,
/// plus a Paillier estimate for the aggregation queries.
pub fn exp_fig9bc(scale: &Scale) -> Vec<BdbPoint> {
    let mut rng = scale.rng();
    let tables = bdb::generate(&mut rng, scale.rows(90) / 10, scale.rows(775) / 10);
    let workers = 32usize;
    let mut points = Vec::new();

    // Build NoEnc and Seabed systems for each base table.
    let build = |dataset: &PlainDataset, sensitive: &[&str], rng: &mut StdRng| {
        let specs: Vec<ColumnSpec> = dataset
            .columns
            .iter()
            .map(|(n, _)| {
                if sensitive.contains(&n.as_str()) {
                    ColumnSpec::sensitive(n)
                } else {
                    ColumnSpec::public(n)
                }
            })
            .collect();
        let samples: Vec<_> = bdb::queries()
            .iter()
            .filter(|q| dataset.name == q.table)
            .map(|q| parse(&q.sql).unwrap())
            .collect();
        let mut client = SeabedClient::create_plan(b"bdb", &specs, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(dataset, scale.partitions, rng);
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::default());
        (client, server)
    };
    let build_noenc = |dataset: &PlainDataset, rng: &mut StdRng| {
        let specs: Vec<ColumnSpec> = dataset.columns.iter().map(|(n, _)| ColumnSpec::public(n)).collect();
        let samples = vec![parse("SELECT COUNT(*) FROM t").unwrap()];
        let mut client = SeabedClient::create_plan(b"noenc", &specs, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(dataset, scale.partitions, rng);
        let server = SeabedServer::new(encrypted.table.clone(), Cluster::default());
        (client, server)
    };

    let (rank_client, rank_server) = build(&tables.rankings, &["pageRank", "avgDuration"], &mut rng);
    let (uv_client, uv_server) = build(
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
    let (rank_noenc_client, rank_noenc_server) = build_noenc(&tables.rankings, &mut rng);
    let (uv_noenc_client, uv_noenc_server) = build_noenc(&tables.uservisits, &mut rng);
    let (rankings, uservisits) = (&tables.rankings.name, &tables.uservisits.name);
    let rank = SeabedSession::single(rankings, rank_client, &rank_server);
    let uv = SeabedSession::single(uservisits, uv_client, &uv_server);
    let rank_noenc = SeabedSession::single(rankings, rank_noenc_client, &rank_noenc_server);
    let uv_noenc = SeabedSession::single(uservisits, uv_noenc_client, &uv_noenc_server);

    for query in bdb::queries() {
        let (seabed, noenc) = if query.table == *rankings {
            (&rank, &rank_noenc)
        } else {
            (&uv, &uv_noenc)
        };
        // Scan queries (Q1*) have no aggregate; approximate them as COUNT
        // scans so both systems do equivalent filter work (the paper also
        // reports only server-side time for BDB).
        let sql = if query.name.starts_with("Q1") {
            query.sql.replace("SELECT pageURL, pageRank", "SELECT COUNT(*)")
        } else {
            query.sql.clone()
        };
        for (label, session) in [("NoEnc", noenc), ("Seabed", seabed)] {
            match session.query(&sql, &[]) {
                Ok(result) => points.push(BdbPoint {
                    query: query.name.to_string(),
                    system: label.to_string(),
                    response: result.server_stats.wall_time + result.client_time,
                }),
                Err(err) => {
                    points.push(BdbPoint {
                        query: query.name.to_string(),
                        system: format!("{label} (unsupported: {err})"),
                        response: Duration::ZERO,
                    });
                }
            }
        }
        // Paillier estimate for aggregation queries: per-row homomorphic
        // multiplication cost at the configured modulus, over the scanned rows
        // divided across workers.
        if !query.name.starts_with("Q1") {
            let mut rng2 = scale.rng();
            let kp = PaillierKeypair::generate(&mut rng2, scale.paillier_bits);
            let c = kp.public.encrypt_u64(&mut rng2, 1);
            let per_add = time_per_op(2_000, || {
                std::hint::black_box(kp.public.add(&c, &c));
            });
            let rows = tables.uservisits.num_rows() as f64;
            let est = Duration::from_secs_f64(per_add * 1e-9 * rows / workers as f64);
            points.push(BdbPoint {
                query: query.name.to_string(),
                system: "Paillier (estimated)".to_string(),
                response: est,
            });
        }
    }
    points
}

// ---------------------------------------------------------------------------
// Figure 10: Ad-Analytics CDF and SPLASHE storage overhead
// ---------------------------------------------------------------------------

/// One Ad-Analytics query measurement.
#[derive(Clone, Debug)]
pub struct AdaPoint {
    /// System label.
    pub system: String,
    /// Number of hour groups in the query.
    pub groups: usize,
    /// End-to-end response time.
    pub response: Duration,
}

/// Figure 10(a): response times of the 15-query Ad-Analytics performance set
/// under NoEnc, Seabed and Paillier (estimated per-row cost).
pub fn exp_fig10a(scale: &Scale) -> Vec<AdaPoint> {
    let mut rng = scale.rng();
    let rows = (scale.rows(759) / 4).max(5_000);
    let dataset = ad_analytics::generate(&mut rng, rows);
    let queries = ad_analytics::performance_query_set(&mut rng);
    let workers = 100usize;

    // Seabed plan: hour is an OPE dimension, measures 0/1 are ASHE.
    let specs: Vec<ColumnSpec> = dataset
        .columns
        .iter()
        .map(|(n, _)| {
            if n == "measure00" || n == "measure01" {
                ColumnSpec::sensitive(n)
            } else {
                ColumnSpec::public(n)
            }
        })
        .collect();
    let samples: Vec<_> = queries.iter().map(|q| parse(&q.sql).unwrap()).collect();
    let mut seabed_client = SeabedClient::create_plan(b"ada", &specs, &samples, &PlannerConfig::default());
    let seabed_table = seabed_client.encrypt_dataset(&dataset, scale.partitions, &mut rng);
    let seabed_server = SeabedServer::new(seabed_table.table.clone(), Cluster::default());

    let noenc_specs: Vec<ColumnSpec> = dataset.columns.iter().map(|(n, _)| ColumnSpec::public(n)).collect();
    let mut noenc_client = SeabedClient::create_plan(b"ada-noenc", &noenc_specs, &samples, &PlannerConfig::default());
    let noenc_table = noenc_client.encrypt_dataset(&dataset, scale.partitions, &mut rng);
    let noenc_server = SeabedServer::new(noenc_table.table.clone(), Cluster::default());

    // Per-row Paillier addition cost for the estimate.
    let kp = PaillierKeypair::generate(&mut rng, scale.paillier_bits);
    let c = kp.public.encrypt_u64(&mut rng, 1);
    let per_add_ns = time_per_op(2_000, || {
        std::hint::black_box(kp.public.add(&c, &c));
    });

    // End to end as §6.6 has it: server and proxy compute plus the result's
    // transfer over the datacenter link, modelled from its size.
    let link = NetworkModel::datacenter();
    let end_to_end = |result: &QueryResult| {
        result.server_stats.wall_time + result.client_time + link.transfer_time(result.result_bytes)
    };
    let table = &dataset.name;
    let noenc = SeabedSession::single(table, noenc_client, &noenc_server);
    let seabed = SeabedSession::single(table, seabed_client, &seabed_server);
    let mut points = Vec::new();
    for q in &queries {
        if let Ok(result) = noenc.query(&q.sql, &[]) {
            points.push(AdaPoint {
                system: "NoEnc".into(),
                groups: q.groups,
                response: end_to_end(&result),
            });
        }
        if let Ok(result) = seabed.query(&q.sql, &[]) {
            points.push(AdaPoint {
                system: "Seabed".into(),
                groups: q.groups,
                response: end_to_end(&result),
            });
            // Paillier estimate: same selected rows, per-row ciphertext
            // multiplication instead of wrapping addition.
            let selected_rows = rows as f64 * (q.groups as f64 / 24.0);
            let est = Duration::from_secs_f64(per_add_ns * 1e-9 * selected_rows / workers as f64) + TASK_OVERHEAD;
            points.push(AdaPoint {
                system: "Paillier (estimated)".into(),
                groups: q.groups,
                response: end_to_end(&result) + est,
            });
        }
    }
    points
}

/// Figure 10(b): cumulative storage overhead of basic vs enhanced SPLASHE over
/// the ten sensitive Ad-Analytics dimensions, sorted by cardinality.
pub fn exp_fig10b(scale: &Scale) -> Vec<Row> {
    let rows = scale.rows(759) as u64;
    let profiles = ad_analytics::sensitive_dimension_profiles(rows);
    let total_columns = ad_analytics::NUM_DIMENSIONS + ad_analytics::NUM_MEASURES;
    seabed_splashe::overhead_curve(&profiles, total_columns)
        .into_iter()
        .map(|p| {
            Row::new(format!("{} (d={})", p.name, p.cardinality))
                .with("basic_splashe_x", p.cumulative_basic)
                .with("enhanced_splashe_x", p.cumulative_enhanced)
        })
        .collect()
}

/// Helper converting latency points into printable rows.
pub fn latency_rows(points: &[LatencyPoint], by_workers: bool) -> Vec<Row> {
    points
        .iter()
        .map(|p| {
            let label = if by_workers {
                format!("{} workers={}", p.system, p.workers)
            } else {
                format!("{} rows={}", p.system, p.rows)
            };
            Row::new(label)
                .with("total_s", p.total.as_secs_f64())
                .with("server_s", p.server.as_secs_f64())
                .with("client_s", p.client.as_secs_f64())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            row_divisor: 100_000,
            paillier_row_cap: 500,
            paillier_bits: 64,
            partitions: 4,
            seed: 1,
        }
    }

    #[test]
    fn table1_has_expected_operations() {
        let rows = exp_table1(&tiny_scale());
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"AES counter mode"));
        assert!(labels.contains(&"ASHE encryption"));
        assert!(labels.iter().any(|l| l.starts_with("Paillier encryption")));
        // Ordering claim of Table 1: plain add < ASHE < Paillier (2048-bit).
        let value = |label: &str| {
            rows.iter()
                .find(|r| r.label.starts_with(label))
                .map(|r| r.values[0].1)
                .unwrap()
        };
        assert!(value("Plain addition") < value("ASHE encryption"));
        assert!(value("ASHE encryption") < value("Paillier encryption (2048-bit)"));
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
        assert_eq!(rows.len(), PaperEncoding::ALL.len());
        // Range+VB+Diff should be no larger than raw range+VB for this list.
        let size = |label: &str| rows.iter().find(|r| r.label == label).unwrap().values[0].1;
        assert!(size("+Diff") <= size("Ranges & VB"));
    }

    /// Table 3's bytes per encoding on its fixed list, as the harness
    /// reported them while the encodings still lived in `seabed-encoding`
    /// (the committed `paper/BENCH_table3.json`): the move changed no byte.
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
        ];
        let want: Vec<(String, f64, f64)> = recorded
            .iter()
            .map(|&(label, bytes)| (label.to_string(), bytes, 18.0))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn fig6_shape_seabed_beats_paillier() {
        let points = exp_fig6(&tiny_scale());
        let at = |system: &str, rows: usize| {
            points
                .iter()
                .find(|p| p.system == system && p.rows == rows)
                .map(|p| p.total)
                .unwrap()
        };
        let rows = points[0].rows;
        assert!(
            at("Seabed sel=50%", rows) < at("Paillier", rows),
            "ASHE must beat Paillier"
        );
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
