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
//! reduced scale and EXPERIMENTS.md records the scale factor next to the
//! paper's numbers. The *shapes* — who wins, by roughly what factor, where
//! the crossovers are — are preserved.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod metrics;
pub mod runner;

pub use metrics::{format_rows, rows_to_json, write_bench_json, Row, RunMeta};
pub use runner::{ExperimentConfig, ExperimentReport, ExperimentRunner};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seabed_ashe::{AsheScheme, IdSet};
use seabed_core::{
    row_selected, ExecRequest, NoEncSystem, PaillierSystem, PhysicalFilter, PlainDataset, QueryTarget, SeabedClient,
    SeabedServer,
};
use seabed_crypto::paillier::PaillierKeypair;
use seabed_crypto::{AesCtr, BigUint};
use seabed_encoding::IdListEncoding;
use seabed_engine::{table_disk_size, table_memory_size, Cluster, ClusterConfig, ExecMode, TaskOutput};
use seabed_query::{
    parse, ColumnSpec, CompareOp, GroupByColumn, PlannerConfig, ServerAggregate, SupportCategory, TranslateOptions,
    TranslatedQuery,
};
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
    IdListEncoding::ALL
        .iter()
        .map(|&enc| {
            Row::new(enc.label())
                .with("bytes", set.encoded_size(enc) as f64)
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
        let noenc = NoEncSystem::new(&ds.values, None, scale.partitions, Cluster::default());
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
    encoding: IdListEncoding,
) -> (u64, Duration, Duration, usize) {
    let scheme = AsheScheme::new(&[5u8; 16]);
    let encrypted = seabed_ashe::encrypt_column(&scheme, values, 0);
    let table = seabed_engine::Table::from_columns(
        seabed_engine::Schema::new([("m__ashe".to_string(), seabed_engine::ColumnType::UInt64)]),
        vec![seabed_engine::ColumnData::UInt64(encrypted.values)],
        partitions,
    );
    let cluster = Cluster::new(ClusterConfig::with_workers(workers));
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
        let encoded = ids.encode(encoding);
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
    let result_bytes = ids.encoded_size(encoding) + 8;
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
        let noenc = NoEncSystem::new(
            &ds.values,
            None,
            scale.partitions,
            Cluster::new(ClusterConfig::with_workers(100)),
        );
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
                ashe_selectivity_run(&ds.values, sel, 100, scale.partitions, IdListEncoding::seabed_default());
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
            Cluster::new(ClusterConfig::with_workers(100)),
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
        let noenc = NoEncSystem::new(
            &ds.values,
            None,
            scale.partitions,
            Cluster::new(ClusterConfig::with_workers(workers)),
        );
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
                IdListEncoding::seabed_default(),
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
            Cluster::new(ClusterConfig::with_workers(workers)),
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
        IdListEncoding::RangesVb,
        IdListEncoding::RangesVbDiff,
        IdListEncoding::RangesVbDiffDeflateCompact,
        IdListEncoding::RangesVbDiffDeflateFast,
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
    let ore_cts: Vec<Vec<u8>> = ope_values.iter().map(|&v| ore.encrypt(v).symbols).collect();
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
    let cluster = Cluster::new(ClusterConfig::with_workers(100));
    let mut points = Vec::new();
    for &selectivity in &synthetic::FIG8_SELECTIVITIES {
        // Plain aggregation at this selectivity (the "Aggregation" line).
        let (_, server, client, bytes) = ashe_selectivity_run(
            &ds.values,
            selectivity,
            100,
            scale.partitions,
            IdListEncoding::seabed_default(),
        );
        points.push(SelectivityPoint {
            config: "Aggregation".into(),
            selectivity,
            result_bytes: bytes,
            response: server + client,
        });
        // Aggregation with an OPE range predicate of the same selectivity.
        let threshold = ore.encrypt((selectivity * u32::MAX as f64) as u64);
        let (partials, stats) = cluster.run(&table, |p| {
            let words = p.column(0).as_u64();
            let mut sum = 0u64;
            let mut ids = IdSet::new();
            for (i, &word) in words.iter().enumerate() {
                let ct = seabed_crypto::OreCiphertext {
                    symbols: p.column(1).bytes_at(i).to_vec(),
                };
                if ct.compare(&threshold) == std::cmp::Ordering::Less {
                    sum = sum.wrapping_add(word);
                    ids.push_ordered(p.row_id(i));
                }
            }
            let bytes = ids.encoded_size(IdListEncoding::seabed_default()) + 8;
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
            result_bytes: ids.encoded_size(IdListEncoding::seabed_default()) + 8,
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
        let noenc = NoEncSystem::new(
            &ds.values,
            Some(&keys),
            scale.partitions,
            Cluster::new(ClusterConfig::with_workers(workers)),
        );
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
            let cluster = Cluster::new(ClusterConfig::with_workers(workers));
            let encoding = IdListEncoding::seabed_group_by();
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
                let bytes: usize = map.values().map(|(_, ids)| 16 + ids.encoded_size(encoding)).sum();
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
            Cluster::new(ClusterConfig::with_workers(workers)),
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
        let server = SeabedServer::new(
            encrypted.table.clone(),
            Cluster::new(ClusterConfig::with_workers(workers)),
        );
        (client, server)
    };
    let build_noenc = |dataset: &PlainDataset, rng: &mut StdRng| {
        let specs: Vec<ColumnSpec> = dataset.columns.iter().map(|(n, _)| ColumnSpec::public(n)).collect();
        let samples = vec![parse("SELECT COUNT(*) FROM t").unwrap()];
        let mut client = SeabedClient::create_plan(b"noenc", &specs, &samples, &PlannerConfig::default());
        let encrypted = client.encrypt_dataset(dataset, scale.partitions, rng);
        let server = SeabedServer::new(
            encrypted.table.clone(),
            Cluster::new(ClusterConfig::with_workers(workers)),
        );
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

    for query in bdb::queries() {
        let (seabed_client, seabed_server, noenc_client, noenc_server) = if query.table == "rankings" {
            (&rank_client, &rank_server, &rank_noenc_client, &rank_noenc_server)
        } else {
            (&uv_client, &uv_server, &uv_noenc_client, &uv_noenc_server)
        };
        // Scan queries (Q1*) have no aggregate; approximate them as COUNT
        // scans so both systems do equivalent filter work (the paper also
        // reports only server-side time for BDB).
        let sql = if query.name.starts_with("Q1") {
            query.sql.replace("SELECT pageURL, pageRank", "SELECT COUNT(*)")
        } else {
            query.sql.clone()
        };
        for (label, client, server) in [
            ("NoEnc", noenc_client, noenc_server),
            ("Seabed", seabed_client, seabed_server),
        ] {
            match client.query(server, &sql) {
                Ok(result) => points.push(BdbPoint {
                    query: query.name.to_string(),
                    system: label.to_string(),
                    response: result.timings.server + result.timings.client,
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
    let seabed_server = SeabedServer::new(
        seabed_table.table.clone(),
        Cluster::new(ClusterConfig::with_workers(workers)),
    );

    let noenc_specs: Vec<ColumnSpec> = dataset.columns.iter().map(|(n, _)| ColumnSpec::public(n)).collect();
    let mut noenc_client = SeabedClient::create_plan(b"ada-noenc", &noenc_specs, &samples, &PlannerConfig::default());
    let noenc_table = noenc_client.encrypt_dataset(&dataset, scale.partitions, &mut rng);
    let noenc_server = SeabedServer::new(
        noenc_table.table.clone(),
        Cluster::new(ClusterConfig::with_workers(workers)),
    );

    // Per-row Paillier addition cost for the estimate.
    let kp = PaillierKeypair::generate(&mut rng, scale.paillier_bits);
    let c = kp.public.encrypt_u64(&mut rng, 1);
    let per_add_ns = time_per_op(2_000, || {
        std::hint::black_box(kp.public.add(&c, &c));
    });

    let mut points = Vec::new();
    for q in &queries {
        if let Ok(result) = noenc_client.query(&noenc_server, &q.sql) {
            points.push(AdaPoint {
                system: "NoEnc".into(),
                groups: q.groups,
                response: result.timings.total(),
            });
        }
        if let Ok(result) = seabed_client.query(&seabed_server, &q.sql) {
            points.push(AdaPoint {
                system: "Seabed".into(),
                groups: q.groups,
                response: result.timings.total(),
            });
            // Paillier estimate: same selected rows, per-row ciphertext
            // multiplication instead of wrapping addition.
            let selected_rows = rows as f64 * (q.groups as f64 / 24.0);
            let est =
                Duration::from_secs_f64(per_add_ns * 1e-9 * selected_rows / workers as f64) + Duration::from_millis(5);
            points.push(AdaPoint {
                system: "Paillier (estimated)".into(),
                groups: q.groups,
                response: result.timings.total() + est,
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

// ---------------------------------------------------------------------------
// Execution-engine experiments: scalar vs vectorized partition scans
// ---------------------------------------------------------------------------

/// Builds the "encrypted" microbenchmark table for the execution-engine
/// experiments: a pseudo-ASHE measure column (random words — the server never
/// interprets them), a plaintext filter column cycling through `0..1000` so a
/// `< threshold` predicate hits an exact selectivity, and a group-key column
/// cycling through `groups` distinct keys.
fn exec_bench_server(rows: usize, groups: u64, scale: &Scale, mode: ExecMode) -> SeabedServer {
    let mut rng = scale.rng();
    let words = synthetic::aggregation_dataset(&mut rng, rows).values;
    let table = seabed_engine::Table::from_columns(
        seabed_engine::Schema::new([
            ("m__ashe".to_string(), seabed_engine::ColumnType::UInt64),
            ("f".to_string(), seabed_engine::ColumnType::UInt64),
            ("g".to_string(), seabed_engine::ColumnType::UInt64),
        ]),
        vec![
            seabed_engine::ColumnData::UInt64(words),
            seabed_engine::ColumnData::UInt64((0..rows as u64).map(|i| i % 1000).collect()),
            seabed_engine::ColumnData::UInt64((0..rows as u64).map(|i| i % groups.max(1)).collect()),
        ],
        scale.partitions,
    );
    let config = ClusterConfig::with_workers(100).exec_mode(mode);
    SeabedServer::new(table, Cluster::new(config))
}

fn exec_bench_query(group_by: bool) -> TranslatedQuery {
    TranslatedQuery {
        base_table: "t".to_string(),
        filters: vec![],
        aggregates: vec![ServerAggregate::AsheSum {
            column: "m__ashe".to_string(),
        }],
        group_by: if group_by {
            vec![GroupByColumn {
                column: "g".to_string(),
                physical_column: "g".to_string(),
                encrypted: false,
            }]
        } else {
            vec![]
        },
        group_inflation: 1,
        client_post: vec![],
        preserve_row_ids: true,
        category: SupportCategory::ServerOnly,
        params: vec![],
    }
}

/// Best-of-3 execution: returns (scan CPU time summed over tasks, wall time).
/// CPU task time is the stable signal for scan throughput; wall time also
/// carries local thread-pool scheduling noise.
fn exec_bench_run(server: &SeabedServer, query: &TranslatedQuery, filters: &[PhysicalFilter]) -> (Duration, Duration) {
    let mut best_cpu = Duration::MAX;
    let mut best_wall = Duration::MAX;
    for _ in 0..3 {
        let started = Instant::now();
        let resp = server.execute(query, filters).expect("bench query must execute");
        best_wall = best_wall.min(started.elapsed());
        best_cpu = best_cpu.min(resp.stats.total_task_time);
    }
    (best_cpu, best_wall)
}

/// Scan throughput vs selectivity: a single-filter SUM query over a
/// 1-million-row table (at the default scale), run on the scalar and the
/// vectorized path. The `speedup` rows record vectorized-over-scalar ratios;
/// the acceptance bar for the vectorized engine is ≥ 2× on this query.
pub fn exp_scan_throughput(scale: &Scale) -> Vec<Row> {
    let rows = scale.rows(1000); // 1 M rows at the default scale
    let mut out = Vec::new();
    // The table does not depend on the selectivity (the filter threshold
    // does), so one server per mode serves the whole sweep.
    let servers = [ExecMode::Scalar, ExecMode::Vectorized].map(|mode| exec_bench_server(rows, 1, scale, mode));
    let query = exec_bench_query(false);
    for selectivity in [0.01, 0.1, 0.5, 1.0] {
        let threshold = (1000.0 * selectivity) as u64;
        let filters = vec![PhysicalFilter::PlainU64 {
            column: 1,
            op: CompareOp::Lt,
            value: threshold,
        }];
        let mut timings = Vec::new();
        for (mode, server) in [ExecMode::Scalar, ExecMode::Vectorized].iter().zip(servers.iter()) {
            let (cpu, wall) = exec_bench_run(server, &query, &filters);
            let label = format!("{} sel={:.0}%", mode_label(*mode), selectivity * 100.0);
            out.push(
                Row::new(label)
                    .with("rows", rows as f64)
                    .with("scan_cpu_s", cpu.as_secs_f64())
                    .with("wall_s", wall.as_secs_f64())
                    .with("mrows_per_s", rows as f64 / 1e6 / cpu.as_secs_f64().max(1e-9)),
            );
            timings.push((cpu, wall));
        }
        let (scalar, vectorized) = (timings[0], timings[1]);
        out.push(
            Row::new(format!("speedup sel={:.0}%", selectivity * 100.0))
                .with("rows", rows as f64)
                .with(
                    "scan_cpu_x",
                    scalar.0.as_secs_f64() / vectorized.0.as_secs_f64().max(1e-9),
                )
                .with("wall_x", scalar.1.as_secs_f64() / vectorized.1.as_secs_f64().max(1e-9)),
        );
    }
    out
}

/// Group-by cardinality sweep: a group-by SUM over the same table at rising
/// group counts, scalar vs vectorized. Low cardinalities exercise the
/// single-`u64`-key fast path's per-row win; at very high cardinalities the
/// hash table itself dominates and the two paths converge.
pub fn exp_groupby_cardinality(scale: &Scale) -> Vec<Row> {
    let rows = scale.rows(500); // 500 k rows at the default scale
    let mut out = Vec::new();
    for groups in [1u64, 16, 256, 4_096, 65_536] {
        let groups = groups.min(rows as u64 / 2).max(1);
        let query = exec_bench_query(true);
        let mut timings = Vec::new();
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let server = exec_bench_server(rows, groups, scale, mode);
            let (cpu, wall) = exec_bench_run(&server, &query, &[]);
            out.push(
                Row::new(format!("{} groups={groups}", mode_label(mode)))
                    .with("rows", rows as f64)
                    .with("scan_cpu_s", cpu.as_secs_f64())
                    .with("wall_s", wall.as_secs_f64()),
            );
            timings.push(cpu);
        }
        out.push(
            Row::new(format!("speedup groups={groups}"))
                .with("rows", rows as f64)
                .with(
                    "scan_cpu_x",
                    timings[0].as_secs_f64() / timings[1].as_secs_f64().max(1e-9),
                ),
        );
    }
    out
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Scalar => "scalar",
        ExecMode::Vectorized => "vectorized",
    }
}

// ---------------------------------------------------------------------------
// Service-layer experiment: QPS / latency vs concurrent remote clients
// ---------------------------------------------------------------------------

/// Sweep of concurrent remote clients for the `net_qps` experiment.
pub const NET_QPS_CLIENTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// QPS / latency sweep of the TCP service layer: a [`seabed_net::NetServer`]
/// hosts an encrypted table, and 1..32 concurrent
/// [`seabed_net::RemoteSeabedClient`]s hammer it with the Ad-Analytics-style
/// hourly aggregation for a fixed window each. Every request runs the full
/// pipeline — literal encryption, wire encode, TCP, server scan, wire decode,
/// ASHE decryption — and the reported bytes are the frames that really
/// crossed the loopback.
///
/// The hosted cluster runs with `local_threads = 1`, so a single request does
/// not saturate the machine and the sweep measures *connection-level*
/// parallelism: aggregate QPS should scale with the client count until the
/// physical cores are busy. The trailing `netmodel *` rows apply the §6.6
/// [`seabed_engine::NetworkModel`] presets to the measured mean response
/// frame, unifying the modeled and the real network paths.
pub fn exp_net_qps(scale: &Scale) -> Vec<Row> {
    use seabed_net::{NetServer, RemoteSeabedClient, ServiceConfig};

    let rows = scale.rows(50).max(5_000); // 50 k rows at the default scale
    let mut rng = scale.rng();
    let dataset = PlainDataset::new("svc")
        .with_uint_column("hour", (0..rows as u64).map(|i| i % 24).collect())
        .with_uint_column(
            "measure00",
            (0..rows).map(|_| rng.random_range(0..100_000u64)).collect(),
        );
    let sql = "SELECT hour, SUM(measure00) FROM svc WHERE hour >= 6 AND hour < 14 GROUP BY hour";
    let specs = vec![ColumnSpec::public("hour"), ColumnSpec::sensitive("measure00")];
    let samples = vec![parse(sql).expect("bench query must parse")];
    let mut client = SeabedClient::create_plan(b"net-qps", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, scale.partitions, &mut rng);
    let server = SeabedServer::new(
        encrypted.table.clone(),
        // One local thread per request: concurrency comes from connections.
        Cluster::new(ClusterConfig::with_workers(100).local_threads(1)),
    );
    let max_clients = NET_QPS_CLIENTS.iter().copied().max().unwrap_or(1);
    let net = NetServer::serve(
        server,
        "127.0.0.1:0",
        ServiceConfig::default().worker_threads(max_clients + 1),
    )
    .expect("bench service must start");
    let addr = net.local_addr();

    let window = Duration::from_millis(400);
    let mut out = Vec::new();
    let mut total_requests = 0u64;
    let mut total_response_bytes = 0u64;
    for &clients in &NET_QPS_CLIENTS {
        let mut all_latencies: Vec<Duration> = Vec::new();
        let mut requests = 0u64;
        let mut bytes_sent = 0u64;
        let mut bytes_received = 0u64;
        // Every client connects and warms up *before* the measurement window
        // opens (barrier), so connect/handshake cost — which grows with the
        // client count — cannot deflate the QPS of the larger sweeps.
        let barrier = std::sync::Barrier::new(clients);
        let mut elapsed = 0f64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let proxy = client.clone();
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let remote = RemoteSeabedClient::connect(addr, proxy).expect("bench client must connect");
                        // Warm up the connection (schema handshake happened in
                        // connect; one query warms the server-side caches).
                        remote.query(sql).expect("warm-up query must succeed");
                        let baseline = remote.wire_stats();
                        barrier.wait();
                        let started = Instant::now();
                        let deadline = started + window;
                        let mut latencies = Vec::new();
                        while Instant::now() < deadline {
                            let t0 = Instant::now();
                            remote.query(sql).expect("bench query must succeed");
                            latencies.push(t0.elapsed());
                        }
                        let thread_elapsed = started.elapsed();
                        let stats = remote.wire_stats();
                        (
                            latencies,
                            stats.bytes_sent - baseline.bytes_sent,
                            stats.bytes_received - baseline.bytes_received,
                            thread_elapsed,
                        )
                    })
                })
                .collect();
            for handle in handles {
                let (latencies, sent, received, thread_elapsed) = handle.join().expect("bench client thread panicked");
                requests += latencies.len() as u64;
                bytes_sent += sent;
                bytes_received += received;
                elapsed = elapsed.max(thread_elapsed.as_secs_f64());
                all_latencies.extend(latencies);
            }
        });
        total_requests += requests;
        total_response_bytes += bytes_received;
        all_latencies.sort_unstable();
        let percentile = |p: f64| -> f64 {
            if all_latencies.is_empty() {
                return 0.0;
            }
            let idx = ((all_latencies.len() - 1) as f64 * p).round() as usize;
            all_latencies[idx].as_secs_f64() * 1e3
        };
        out.push(
            Row::new(format!("clients={clients}"))
                .with("qps", requests as f64 / elapsed.max(1e-9))
                .with("p50_ms", percentile(0.50))
                .with("p99_ms", percentile(0.99))
                .with("requests", requests as f64)
                .with("req_bytes", bytes_sent as f64 / (requests as f64).max(1.0))
                .with("resp_bytes", bytes_received as f64 / (requests as f64).max(1.0)),
        );
    }

    // §6.6 cross-check: what would shipping the mean *measured* response
    // frame cost over the paper's three links?
    let mean_response_bytes = total_response_bytes as f64 / (total_requests as f64).max(1.0);
    for (label, model) in [
        ("netmodel datacenter", seabed_engine::NetworkModel::datacenter()),
        ("netmodel wan_100mbps", seabed_engine::NetworkModel::wan_100mbps()),
        ("netmodel wan_10mbps", seabed_engine::NetworkModel::wan_10mbps()),
    ] {
        out.push(Row::new(label).with("resp_bytes", mean_response_bytes).with(
            "predicted_ms",
            model.transfer_time(mean_response_bytes as usize).as_secs_f64() * 1e3,
        ));
    }

    // Live-scrape the still-running service over the wire (kinds 17/18) —
    // the same path an external monitor takes. The scraped latency view
    // lands in the rows (and thus in `BENCH_net_qps.json`); when
    // `SEABED_METRICS_SNAPSHOT` names a path, the full JSON exposition is
    // archived there too (CI uploads it as an artifact).
    match seabed_net::scrape_metrics(addr, false, false, Duration::from_secs(5)) {
        Ok((snapshot, _, _)) => {
            let request_ns = snapshot.histogram("net_request_ns");
            out.push(
                Row::new("scrape net_request_ns")
                    .with("count", request_ns.map(|h| h.count).unwrap_or(0) as f64)
                    .with("p50_ms", request_ns.map(|h| h.p50()).unwrap_or(0) as f64 / 1e6)
                    .with("p99_ms", request_ns.map(|h| h.p99()).unwrap_or(0) as f64 / 1e6)
                    .with(
                        "requests_served",
                        snapshot.counter("net_requests_served").unwrap_or(0) as f64,
                    ),
            );
            if let Ok(path) = std::env::var("SEABED_METRICS_SNAPSHOT") {
                if let Some(parent) = std::path::Path::new(&path).parent() {
                    let _ = std::fs::create_dir_all(parent);
                }
                match std::fs::write(&path, snapshot.to_json()) {
                    Ok(()) => println!("  -> wrote metrics snapshot {path}"),
                    Err(err) => eprintln!("  !! could not write metrics snapshot {path}: {err}"),
                }
            }
        }
        Err(err) => eprintln!("  !! live metrics scrape failed: {err}"),
    }

    let stats = net.shutdown();
    out.push(
        Row::new("service totals")
            .with("connections", stats.connections as f64)
            .with("requests_served", stats.requests_served as f64)
            .with("bytes_in", stats.bytes_in as f64)
            .with("bytes_out", stats.bytes_out as f64),
    );
    out
}

// ---------------------------------------------------------------------------
// Prepared-statement experiment: prepared execute vs one-shot strings
// ---------------------------------------------------------------------------

/// QPS of prepared-statement execution vs one-shot SQL strings over the TCP
/// service, on a small-query remote workload where per-query client work
/// matters: the query carries one DET equality and six ORE range predicates,
/// so the one-shot path pays parse + translate + one DET tag + six 64-symbol
/// ORE encryptions (each with its per-filter AES key schedule) *and* ships
/// the full redacted plan per request, while a prepared statement pays all
/// of that once — executions ship an 8-byte statement handle plus the bound
/// filters.
///
/// Three measured modes:
///
/// * `one-shot` — `RemoteSeabedClient::query(sql)` per request;
/// * `prepared` — a fully-bound `SeabedSession` statement (no `?`): zero
///   per-execute crypto, fixed filters;
/// * `prepared+bind` — the same statement with its seven literals as `?`
///   parameters bound per execute: only the bound literals are re-encrypted.
///
/// The `speedup` row reports prepared-over-one-shot QPS; the PR acceptance
/// bar is ≥ 1.5×.
pub fn exp_prepared_qps(scale: &Scale) -> Vec<Row> {
    use seabed_core::SeabedSession;
    use seabed_net::{NetServer, RemoteSeabedClient, ServiceConfig};
    use seabed_query::Literal;

    let rows = 800usize; // small queries: per-query fixed work, not the scan, is the story
    let mut rng = scale.rng();
    let dataset = PlainDataset::new("qps")
        .with_text_column("tag", (0..rows).map(|i| format!("v{}", i % 16)).collect())
        .with_uint_column("ts", (0..rows).map(|_| rng.random_range(0..10_000u64)).collect())
        .with_uint_column("day", (0..rows).map(|_| rng.random_range(0..365u64)).collect())
        .with_uint_column("size", (0..rows).map(|_| rng.random_range(0..1_000u64)).collect())
        .with_uint_column("m", (0..rows).map(|_| rng.random_range(0..100_000u64)).collect());
    let specs = vec![
        ColumnSpec::sensitive("tag"),
        ColumnSpec::sensitive("ts"),
        ColumnSpec::sensitive("day"),
        ColumnSpec::sensitive("size"),
        ColumnSpec::sensitive("m"),
    ];
    let samples = vec![
        parse("SELECT SUM(m) FROM qps WHERE tag = 'v3'").expect("sample"),
        parse("SELECT SUM(m) FROM qps WHERE ts >= 100 AND ts < 900").expect("sample"),
        parse("SELECT SUM(m) FROM qps WHERE day >= 10 AND day < 20").expect("sample"),
        parse("SELECT SUM(m) FROM qps WHERE size >= 10 AND size < 20").expect("sample"),
    ];
    let mut client = SeabedClient::create_plan(b"prepared-qps", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 4, &mut rng);
    let server = SeabedServer::new(
        encrypted.table.clone(),
        Cluster::new(ClusterConfig::with_workers(100).local_threads(1)),
    );
    // Enough service workers for every concurrent client of a mode.
    let clients = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .clamp(2, 8);
    let net = NetServer::serve(
        server,
        "127.0.0.1:0",
        ServiceConfig::default().worker_threads(clients + 1),
    )
    .expect("bench service must start");
    let addr = net.local_addr();

    // A narrow point-lookup-style query with one DET equality and six ORE
    // range predicates: a handful of matching rows, so the response (and its
    // ASHE ID-list decryption) is small and the per-query *fixed* costs —
    // parse, translate, one DET tag, six 64-symbol ORE encryptions (each
    // with its per-filter AES key schedule), shipping the full plan — are
    // what differ between the modes. Each mode runs `clients` concurrent
    // connections, so the socket round trip overlaps across connections and
    // QPS is governed by per-request work.
    let one_shot_sql = "SELECT SUM(m) FROM qps WHERE tag = 'v3' AND ts >= 4900 AND ts < 5100 \
                        AND day >= 100 AND day < 200 AND size >= 100 AND size < 900";
    let prepared_sql =
        "SELECT SUM(m) FROM qps WHERE tag = ? AND ts >= ? AND ts < ? AND day >= ? AND day < ? AND size >= ? AND size < ?";
    let params = vec![
        Literal::Text("v3".to_string()),
        Literal::Integer(4_900),
        Literal::Integer(5_100),
        Literal::Integer(100),
        Literal::Integer(200),
        Literal::Integer(100),
        Literal::Integer(900),
    ];
    let window = Duration::from_millis(400);
    let mut out = Vec::new();

    let expected = {
        let probe = RemoteSeabedClient::connect(addr, client.clone()).expect("probe connect");
        probe.query(one_shot_sql).expect("probe query").rows
    };
    let expected = &expected;

    // Runs one mode: `clients` threads, each with its own connection,
    // running `body` — warm-up, barrier wait, measured loop — and returning
    // (requests, request bytes, elapsed seconds). Aggregate QPS is pushed as
    // the mode's row (with mean request-frame bytes).
    let window_loop = |started: Instant, mut f: Box<dyn FnMut() + '_>| -> u64 {
        let mut requests = 0u64;
        while started.elapsed() < window {
            f();
            requests += 1;
        }
        requests
    };
    let mut run_mode =
        |label: &str, body: &(dyn Fn(&RemoteSeabedClient, &std::sync::Barrier) -> (u64, u64, f64) + Sync)| -> f64 {
            let barrier = std::sync::Barrier::new(clients);
            let mut total_requests = 0u64;
            let mut total_request_bytes = 0u64;
            let mut elapsed = 0f64;
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|_| {
                        let proxy = client.clone();
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let remote = RemoteSeabedClient::connect(addr, proxy).expect("bench client must connect");
                            body(&remote, barrier)
                        })
                    })
                    .collect();
                for handle in handles {
                    let (requests, bytes, thread_elapsed) = handle.join().expect("bench client thread panicked");
                    total_requests += requests;
                    total_request_bytes += bytes;
                    elapsed = f64::max(elapsed, thread_elapsed);
                }
            });
            let qps = total_requests as f64 / elapsed.max(1e-9);
            out.push(
                Row::new(label)
                    .with("qps", qps)
                    .with("clients", clients as f64)
                    .with("rows", rows as f64)
                    .with(
                        "req_bytes",
                        total_request_bytes as f64 / (total_requests as f64).max(1.0),
                    ),
            );
            qps
        };

    let one_shot_qps = run_mode("one-shot", &|remote, barrier| {
        remote.query(one_shot_sql).expect("warm-up");
        let baseline = remote.wire_stats();
        barrier.wait();
        let started = Instant::now();
        let requests = window_loop(
            started,
            Box::new(|| {
                let result = remote.query(one_shot_sql).expect("one-shot query");
                debug_assert_eq!(&result.rows, expected);
            }),
        );
        let stats = remote.wire_stats();
        (
            requests,
            stats.bytes_sent - baseline.bytes_sent,
            started.elapsed().as_secs_f64(),
        )
    });

    let prepared_qps = run_mode("prepared", &|remote, barrier| {
        // Prepare once per connection (warm-up also registers the statement
        // handle on the server); executions ship only handle + filters.
        let session = SeabedSession::single("qps", client.clone(), remote);
        let prepared = session.prepare(one_shot_sql).expect("prepare");
        session.execute(&prepared, &[]).expect("warm-up");
        let baseline = remote.wire_stats();
        barrier.wait();
        let started = Instant::now();
        let requests = window_loop(
            started,
            Box::new(|| {
                let result = session.execute(&prepared, &[]).expect("prepared execute");
                debug_assert_eq!(&result.rows, expected);
            }),
        );
        let stats = remote.wire_stats();
        (
            requests,
            stats.bytes_sent - baseline.bytes_sent,
            started.elapsed().as_secs_f64(),
        )
    });

    let bound_qps = run_mode("prepared+bind", &|remote, barrier| {
        let session = SeabedSession::single("qps", client.clone(), remote);
        let prepared = session.prepare(prepared_sql).expect("prepare");
        session.execute(&prepared, &params).expect("warm-up");
        let baseline = remote.wire_stats();
        barrier.wait();
        let started = Instant::now();
        let requests = window_loop(
            started,
            Box::new(|| {
                let result = session.execute(&prepared, &params).expect("bound execute");
                debug_assert_eq!(&result.rows, expected);
            }),
        );
        let stats = remote.wire_stats();
        (
            requests,
            stats.bytes_sent - baseline.bytes_sent,
            started.elapsed().as_secs_f64(),
        )
    });

    out.push(
        Row::new("speedup")
            .with("prepared_x", prepared_qps / one_shot_qps.max(1e-9))
            .with("prepared_bind_x", bound_qps / one_shot_qps.max(1e-9)),
    );

    let stats = net.shutdown();
    out.push(
        Row::new("service totals")
            .with("requests_served", stats.requests_served as f64)
            .with("statements_prepared", stats.statements_prepared as f64)
            .with("bytes_in", stats.bytes_in as f64)
            .with("bytes_out", stats.bytes_out as f64),
    );
    out
}

// ---------------------------------------------------------------------------
// Scale-out experiment: real distributed workers vs the simulated cluster
// ---------------------------------------------------------------------------

/// Worker counts swept by [`exp_scaleout`] at the default scale; smoke runs
/// (CI) stop at 2 workers.
pub const SCALEOUT_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Scale-out sweep of the `seabed-dist` subsystem: the 1M-row single-filter
/// SUM and the group-by workload, executed through a real coordinator over
/// 1..8 `seabed-net` workers on loopback sockets, against the
/// `Cluster::simulate` prediction for the same worker count.
///
/// Two measured quantities per point:
///
/// * `wall_s` — end-to-end coordinator wall time (scatter + worker scans +
///   gather). On a host with fewer cores than workers this cannot shrink
///   with the worker count — concurrent workers time-slice one another —
///   which is exactly why this repo separates *doing* the work from
///   *costing* it (see `seabed_engine::cluster`).
/// * `measured_server_s` — the distributed makespan built from what each
///   worker *measured* for its own shard scans (workers are queried one at a
///   time, `ScatterMode::Sequential`, so a worker's measurement is never
///   inflated by a sibling time-slicing it): max over workers of their
///   summed shard scan wall times, plus the coordinator's gather/merge time.
///   This is the real-network analogue of `simulated_server_time`, and the
///   quantity the `speedup` rows report.
///
/// `predicted_s` is `Cluster::simulate` for the same worker count (per-task
/// overhead zeroed — the wire replaces the modeled Spark launch cost), from
/// an in-process execution of the identical query; the distributed response
/// is asserted byte-identical to the in-process one while we're at it.
pub fn exp_scaleout(scale: &Scale) -> Vec<Row> {
    use seabed_dist::{DistConfig, DistCoordinator, ScatterMode};
    use seabed_net::ServiceConfig;
    use std::collections::HashMap as Map;

    let rows = scale.rows(1000); // 1 M rows at the default scale
    let worker_counts: Vec<usize> = if scale.row_divisor > 1_000 {
        vec![1, 2] // smoke: 2 workers, small rows
    } else {
        SCALEOUT_WORKERS.to_vec()
    };

    // The 1M-row single-filter SUM (selectivity 50%) and the group-by
    // workload, over the same physical table.
    let sum_query = exec_bench_query(false);
    let sum_filters = vec![PhysicalFilter::PlainU64 {
        column: 1,
        op: CompareOp::Lt,
        value: 500,
    }];
    let group_query = exec_bench_query(true);
    let workloads: [(&str, &TranslatedQuery, &[PhysicalFilter]); 2] =
        [("sum", &sum_query, &sum_filters), ("groupby", &group_query, &[])];

    let mut out = Vec::new();
    let mut baselines: Map<String, f64> = Map::new();
    let base = exec_bench_server(rows, 64, scale, ExecMode::Vectorized);
    for &workers in &worker_counts {
        // In-process reference: the same scans, costed by Cluster::simulate
        // at this worker count (task overhead zeroed: the wire replaces the
        // modeled Spark task-launch cost).
        let mut reference_config = ClusterConfig::with_workers(workers).local_threads(1);
        reference_config.task_overhead = Duration::ZERO;
        let reference = SeabedServer::new(base.table().clone(), Cluster::new(reference_config));

        // Real cluster: `workers` shard-hosting services on loopback.
        let services: Vec<_> = (0..workers)
            .map(|_| {
                seabed_dist::spawn_worker("127.0.0.1:0", ServiceConfig::default().worker_threads(2))
                    .expect("scaleout worker must start")
            })
            .collect();
        let addrs: Vec<_> = services.iter().map(|s| s.local_addr()).collect();
        let coordinator = DistCoordinator::connect_tables(
            &addrs,
            vec![("t".into(), reference.table().clone())],
            DistConfig::default().scatter(ScatterMode::Sequential),
        )
        .expect("scaleout coordinator must connect");

        for (name, query, filters) in workloads {
            // Best-of-3 on the reference too: the prediction inherits the
            // measured per-partition task times, which are noisy on a busy
            // host just like the distributed measurements are.
            let mut expected = reference.execute(query, filters).expect("reference execution");
            for _ in 0..2 {
                let again = reference.execute(query, filters).expect("reference execution");
                if again.stats.simulated_server_time < expected.stats.simulated_server_time {
                    expected = again;
                }
            }
            let mut best_wall = f64::MAX;
            let mut best_measured = f64::MAX;
            for _ in 0..3 {
                let response = coordinator
                    .execute_query(query, filters)
                    .expect("distributed execution");
                assert_eq!(
                    expected.groups, response.groups,
                    "distributed result diverged from single-server execution"
                );
                let report = coordinator.last_report();
                // Makespan over workers of their measured shard-scan time.
                let mut busy: Map<&str, Duration> = Map::new();
                for run in &report.runs {
                    *busy.entry(run.worker.as_str()).or_insert(Duration::ZERO) += run.stats.wall_time;
                }
                let makespan = busy.values().max().copied().unwrap_or(Duration::ZERO) + report.gather_time;
                best_measured = best_measured.min(makespan.as_secs_f64());
                best_wall = best_wall.min(report.wall_time.as_secs_f64());
            }
            let predicted = expected.stats.simulated_server_time.as_secs_f64();
            out.push(
                Row::new(format!("{name} workers={workers}"))
                    .with("workers", workers as f64)
                    .with("rows", rows as f64)
                    .with("wall_s", best_wall)
                    .with("measured_server_s", best_measured)
                    .with("predicted_s", predicted),
            );
            if workers == 1 {
                baselines.insert(format!("{name}_measured"), best_measured);
                baselines.insert(format!("{name}_predicted"), predicted);
            } else {
                let measured_base = baselines
                    .get(&format!("{name}_measured"))
                    .copied()
                    .unwrap_or(best_measured);
                let predicted_base = baselines
                    .get(&format!("{name}_predicted"))
                    .copied()
                    .unwrap_or(predicted);
                out.push(
                    Row::new(format!("speedup {name} workers={workers}"))
                        .with("workers", workers as f64)
                        .with("measured_x", measured_base / best_measured.max(1e-9))
                        .with("predicted_x", predicted_base / predicted.max(1e-9)),
                );
            }
        }
        drop(coordinator);
        for service in services {
            service.shutdown();
        }
    }

    // Kill-a-worker-mid-sweep: replicated shards keep the tail flat. A
    // fresh cluster at the largest swept worker count runs with the default
    // replication factor (R = 2) and a 200 ms hedge trigger. One sweep of
    // repeated queries on the healthy cluster fixes the no-failure p99; a
    // second sweep on the same cluster abruptly shuts one worker down about
    // a third of the way through. Every response in both sweeps — including
    // the queries racing the kill — is asserted byte-identical to the
    // in-process execution. The acceptance bar (recorded, not asserted:
    // shared CI hosts are noisy) is p99-under-kill ≤ 1.5× the no-failure
    // p99.
    let kill_workers = *worker_counts.last().expect("worker sweep is non-empty");
    // 120 samples puts the p99 at the second-worst latency: the one query
    // that races the kill itself (and eats the failover round trip) is the
    // worst sample and is *allowed* to spike — a single event in 120
    // queries is within a 1% tail budget. What p99 then measures is the
    // steady state after the kill, where the surviving replica answers
    // directly; `max_s` is recorded alongside so the failover spike stays
    // visible.
    let sweep = 120;
    let expected = base.execute(&sum_query, &sum_filters).expect("reference execution");
    let mut services: Vec<_> = (0..kill_workers)
        .map(|_| {
            seabed_dist::spawn_worker("127.0.0.1:0", ServiceConfig::default().worker_threads(2))
                .expect("scaleout worker must start")
        })
        .collect();
    let addrs: Vec<_> = services.iter().map(|s| s.local_addr()).collect();
    let coordinator = DistCoordinator::connect_tables(
        &addrs,
        vec![("t".into(), base.table().clone())],
        DistConfig::default()
            .scatter(ScatterMode::Sequential)
            .hedge_after(Duration::from_millis(200)),
    )
    .expect("scaleout coordinator must connect");

    let mut run_sweep = |kill_at: Option<usize>| -> (f64, f64, u64, u64) {
        let mut latencies = Vec::with_capacity(sweep);
        let mut hedged = 0u64;
        let mut redispatched = 0u64;
        for i in 0..sweep {
            if Some(i) == kill_at {
                // Abrupt shutdown — no drain, no goodbye. In-flight shard
                // queries fail over to the surviving replica.
                services.remove(1).shutdown();
            }
            let started = Instant::now();
            let response = coordinator
                .execute_query(&sum_query, &sum_filters)
                .expect("replicated execution must survive a worker kill");
            latencies.push(started.elapsed().as_secs_f64());
            assert_eq!(
                expected.groups, response.groups,
                "distributed result diverged from single-server execution under failure"
            );
            assert_eq!(
                expected.result_bytes, response.result_bytes,
                "distributed response bytes diverged under failure"
            );
            let report = coordinator.last_report();
            hedged += report.hedged_reads;
            redispatched += report.runs.iter().filter(|r| r.redispatched).count() as u64;
        }
        latencies.sort_by(f64::total_cmp);
        let p99_index = (latencies.len() * 99).div_ceil(100).max(1) - 1;
        let max = *latencies.last().expect("sweep is non-empty");
        (latencies[p99_index], max, hedged, redispatched)
    };

    let (baseline_p99, baseline_max, _, _) = run_sweep(None);
    let (kill_p99, kill_max, hedged, redispatched) = run_sweep(Some(sweep / 3));
    out.push(
        Row::new(format!("killworker baseline workers={kill_workers}"))
            .with("workers", kill_workers as f64)
            .with("queries", sweep as f64)
            .with("p99_s", baseline_p99)
            .with("max_s", baseline_max),
    );
    out.push(
        Row::new(format!("killworker kill workers={kill_workers}"))
            .with("workers", kill_workers as f64)
            .with("queries", sweep as f64)
            .with("p99_s", kill_p99)
            .with("max_s", kill_max)
            .with("p99_ratio", kill_p99 / baseline_p99.max(1e-9))
            .with("hedged", hedged as f64)
            .with("redispatched", redispatched as f64),
    );
    // One `EXPLAIN ANALYZE` through the same (replicated, post-kill)
    // coordinator: the stitched cluster plan — scatter, one node per shard
    // run naming its worker and carrying measured per-operator profiles,
    // gather, merge. The plan is archived when `SEABED_EXPLAIN_PLAN` names a
    // path (CI uploads it as an artifact next to the bench JSON).
    {
        let request = ExecRequest {
            analyze: true,
            ..ExecRequest::new(&sum_query, &sum_filters)
        };
        let analyzed = coordinator.run(&request).expect("analyzed distributed execution");
        assert_eq!(
            expected.groups, analyzed.response.groups,
            "EXPLAIN ANALYZE diverged from plain execution"
        );
        let plan = analyzed.plan.expect("an analyzed execution returns its plan");
        let shard_nodes = plan.children.iter().filter(|c| c.op == "shard").count();
        let operator_nodes: usize = plan
            .children
            .iter()
            .filter(|c| c.op == "shard")
            .map(|c| c.children.iter().filter(|o| o.op == "operator").count())
            .sum();
        out.push(
            Row::new("explain analyze stitched plan")
                .with("shard_nodes", shard_nodes as f64)
                .with("operator_nodes", operator_nodes as f64),
        );
        println!("EXPLAIN ANALYZE (distributed 1M-row SUM):\n{}", plan.render());
        if let Ok(path) = std::env::var("SEABED_EXPLAIN_PLAN") {
            if let Some(parent) = std::path::Path::new(&path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(&path, plan.to_json()) {
                Ok(()) => println!("  -> wrote explain plan {path}"),
                Err(err) => eprintln!("  !! could not write explain plan {path}: {err}"),
            }
        }
    }
    for service in services {
        service.shutdown();
    }
    out
}

/// `EXPLAIN ANALYZE` overhead on the 1M-row single-filter SUM scan.
///
/// Runs the same scan through [`SeabedServer`] twice per round — once plain,
/// once with per-operator profiling on (an [`ExecRequest`] with
/// `analyze` set) — interleaved so host noise hits both sides equally, and
/// asserts the two responses byte-identical every round. The profiled side
/// pays one `Instant::now` pair per operator per batch; the acceptance bar
/// (recorded, not asserted: shared CI hosts are noisy) is `overhead_pct` ≤ 5
/// on the stable CPU-time signal.
pub fn exp_explain_overhead(scale: &Scale) -> Vec<Row> {
    let rows = scale.rows(1000); // 1 M rows at the default scale
    let server = exec_bench_server(rows, 1, scale, ExecMode::Vectorized);
    let query = exec_bench_query(false);
    let filters = vec![PhysicalFilter::PlainU64 {
        column: 1,
        op: CompareOp::Lt,
        value: 500,
    }];

    let mut best_plain_cpu = Duration::MAX;
    let mut best_plain_wall = Duration::MAX;
    let mut best_analyzed_cpu = Duration::MAX;
    let mut best_analyzed_wall = Duration::MAX;
    let mut operator_count = 0usize;
    for _ in 0..5 {
        let started = Instant::now();
        let plain = server.execute(&query, &filters).expect("plain execution");
        best_plain_wall = best_plain_wall.min(started.elapsed());
        best_plain_cpu = best_plain_cpu.min(plain.stats.total_task_time);

        let started = Instant::now();
        let request = ExecRequest {
            analyze: true,
            ..ExecRequest::new(&query, &filters)
        };
        let analyzed = server.run(&request).expect("analyzed execution").response;
        best_analyzed_wall = best_analyzed_wall.min(started.elapsed());
        best_analyzed_cpu = best_analyzed_cpu.min(analyzed.stats.total_task_time);

        assert_eq!(plain.groups, analyzed.groups, "profiled scan diverged");
        assert_eq!(plain.result_bytes, analyzed.result_bytes, "profiled bytes diverged");
        assert!(plain.stats.operators.is_empty(), "plain execution must not profile");
        operator_count = analyzed.stats.operators.len();
        assert!(operator_count > 0, "analyzed execution must record operators");
    }

    let cpu_overhead = best_analyzed_cpu.as_secs_f64() / best_plain_cpu.as_secs_f64().max(1e-12) - 1.0;
    let wall_overhead = best_analyzed_wall.as_secs_f64() / best_plain_wall.as_secs_f64().max(1e-12) - 1.0;
    vec![
        Row::new("profiling off")
            .with("rows", rows as f64)
            .with("cpu_s", best_plain_cpu.as_secs_f64())
            .with("wall_s", best_plain_wall.as_secs_f64()),
        Row::new("profiling on")
            .with("rows", rows as f64)
            .with("cpu_s", best_analyzed_cpu.as_secs_f64())
            .with("wall_s", best_analyzed_wall.as_secs_f64())
            .with("operators", operator_count as f64),
        Row::new("overhead")
            .with("cpu_overhead_pct", cpu_overhead * 100.0)
            .with("wall_overhead_pct", wall_overhead * 100.0),
    ]
}

// ---------------------------------------------------------------------------
// Crypto hot path: batched kernels and the warm partial cache
// ---------------------------------------------------------------------------

/// Batched-vs-scalar throughput of the crypto hot-path kernels, and
/// warm-vs-cold throughput of repeated prepared executes through the dist
/// coordinator's statement-keyed partial cache.
///
/// Kernel rows pit each batched kernel against its pinned scalar reference
/// (the differential tests guarantee identical outputs; this experiment
/// reports the price difference):
///
/// * `ashe_encrypt` — [`seabed_ashe::encrypt_column`]'s amortised keystream
///   expansion vs the per-row scalar path;
/// * `prf_eval` — `AesPrf::eval_run`'s chunked multi-block AES dispatches vs
///   per-id `eval`;
/// * `ore_encrypt` — the one-dispatch 64-block ORE encryption vs the per-bit
///   scalar reference.
///
/// The cache rows measure a repeated prepared execute — same statement, same
/// bound literal, the dashboard access pattern — through a real two-worker
/// coordinator, stopping at the encrypted response (decryption is identical
/// in both modes and costed by the kernel rows). `cold scatter` disables the
/// partial cache (capacity 0: every execute re-scatters and every worker
/// re-scans); `warm cache` runs the default cache, answering every shard at
/// the coordinator after the first execute. The `speedup` row's `warm_x`
/// acceptance bar is ≥ 3.
pub fn exp_crypto_throughput(scale: &Scale) -> Vec<Row> {
    use seabed_ashe::{encrypt_column, encrypt_column_scalar};
    use seabed_core::SeabedSession;
    use seabed_crypto::{AesPrf, OreScheme, Prf};
    use seabed_dist::{DistConfig, DistCoordinator};
    use seabed_net::ServiceConfig;
    use seabed_query::Literal;

    // Which AES kernel every row below ran on, as a row of its own so it is
    // printed with the table as well as stamped in the artifact's `meta`.
    let mut out = vec![Row::new(format!("aes backend: {}", seabed_crypto::aes_backend()))];

    // --- batched kernels vs their scalar references ------------------------
    // Throughput of `f` in operations/second: one warm-up pass, then the
    // best of three timed passes (the minimum is the least-noisy estimator
    // on a busy host).
    let ops_per_sec = |ops: usize, f: &mut dyn FnMut()| -> f64 {
        f();
        let mut best = f64::MAX;
        for _ in 0..3 {
            let started = Instant::now();
            f();
            best = best.min(started.elapsed().as_secs_f64());
        }
        ops as f64 / best.max(1e-12)
    };
    let kernel_row = |label: &str, ops: usize, batched: &mut dyn FnMut(), scalar: &mut dyn FnMut()| -> Row {
        let batched = ops_per_sec(ops, batched);
        let scalar = ops_per_sec(ops, scalar);
        Row::new(label)
            .with("batched_mops", batched / 1e6)
            .with("scalar_mops", scalar / 1e6)
            .with("batch_x", batched / scalar.max(1e-9))
    };

    let n = if scale.row_divisor > 1_000 { 8_192 } else { 65_536 };
    let key = [0x5eu8; 16];
    let values: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();

    let ashe = AsheScheme::new(&key);
    out.push(kernel_row(
        "ashe_encrypt",
        n,
        &mut || {
            std::hint::black_box(encrypt_column(&ashe, &values, 1));
        },
        &mut || {
            std::hint::black_box(encrypt_column_scalar(&ashe, &values, 1));
        },
    ));

    let prf = AesPrf::new(&key);
    let batched_out = std::cell::RefCell::new(vec![0u64; n]);
    let scalar_out = std::cell::RefCell::new(vec![0u64; n]);
    out.push(kernel_row(
        "prf_eval",
        n,
        &mut || {
            let mut run_out = batched_out.borrow_mut();
            prf.eval_run(1, 0, &mut run_out);
            std::hint::black_box(&*run_out);
        },
        &mut || {
            let mut run_out = scalar_out.borrow_mut();
            for (i, slot) in run_out.iter_mut().enumerate() {
                *slot = prf.eval(1 + i as u64, 0);
            }
            std::hint::black_box(&*run_out);
        },
    ));

    // ORE encrypts 64 AES blocks per value; fewer values keep the pass short.
    let ore = OreScheme::new(&key);
    let n_ore = n / 16;
    out.push(kernel_row(
        "ore_encrypt",
        n_ore,
        &mut || {
            for m in 0..n_ore as u64 {
                std::hint::black_box(ore.encrypt(m.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
        },
        &mut || {
            for m in 0..n_ore as u64 {
                std::hint::black_box(ore.encrypt_scalar(m.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
        },
    ));

    // --- warm partial cache vs cold scatter/gather -------------------------
    let rows = scale.rows(400).min(400_000); // 400 k at the default scale
    let mut rng = scale.rng();
    let dataset = PlainDataset::new("hot")
        .with_text_column("tag", (0..rows).map(|i| format!("v{}", i % 16)).collect())
        .with_uint_column("m", (0..rows).map(|_| rng.random_range(0..100_000u64)).collect());
    let specs = vec![ColumnSpec::sensitive("tag"), ColumnSpec::sensitive("m")];
    let samples = vec![parse("SELECT SUM(m) FROM hot WHERE tag = 'v3'").expect("sample")];
    let mut client = SeabedClient::create_plan(b"crypto-throughput", &specs, &samples, &PlannerConfig::default());
    let encrypted = client.encrypt_dataset(&dataset, 8, &mut rng);

    let window = Duration::from_millis(300);
    let params = vec![Literal::Text("v3".to_string())];
    // One coordinator per mode, torn down in between: a worker only hosts
    // one coordinator generation at a time (a new epoch handshake evicts the
    // previous coordinator's shards).
    let mut run_mode = |label: &str, config: DistConfig| -> f64 {
        let services: Vec<_> = (0..2)
            .map(|_| {
                seabed_dist::spawn_worker("127.0.0.1:0", ServiceConfig::default().worker_threads(2))
                    .expect("cache bench worker must start")
            })
            .collect();
        let addrs: Vec<_> = services.iter().map(|s| s.local_addr()).collect();
        let coordinator =
            DistCoordinator::connect_tables(&addrs, vec![("hot".into(), encrypted.table.clone())], config)
                .expect("cache bench coordinator");
        let session = SeabedSession::single("hot", client.clone(), &coordinator);
        let prepared = session
            .prepare("SELECT SUM(m) FROM hot WHERE tag = ?")
            .expect("prepare");
        // Decrypt the warm-up once to force the full pipeline; the measured
        // loop stops at the encrypted response so the two modes compare the
        // scatter/gather path the cache actually changes — client-side
        // decryption is byte-identical in both modes (pinned by
        // `tests/dist_cache_equivalence.rs`) and costed by the kernel rows.
        session.execute(&prepared, &params).expect("warm-up");
        let (_, expected) = session.execute_encrypted(&prepared, &params).expect("warm-up");
        let started = Instant::now();
        let mut executes = 0u64;
        while started.elapsed() < window {
            let (_, response) = session.execute_encrypted(&prepared, &params).expect("prepared execute");
            debug_assert_eq!(response.groups, expected.groups);
            executes += 1;
        }
        let qps = executes as f64 / started.elapsed().as_secs_f64().max(1e-9);
        let stats = coordinator.cache_stats();
        out.push(
            Row::new(label)
                .with("qps", qps)
                .with("rows", rows as f64)
                .with("cache_hits", stats.hits as f64)
                .with("cache_misses", stats.misses as f64),
        );
        drop(session);
        drop(coordinator);
        for service in services {
            service.shutdown();
        }
        qps
    };
    let cold_qps = run_mode("cold scatter", DistConfig::default().partial_cache_capacity(0));
    let warm_qps = run_mode("warm cache", DistConfig::default());
    out.push(Row::new("speedup").with("warm_x", warm_qps / cold_qps.max(1e-9)));
    out
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
        assert_eq!(rows.len(), IdListEncoding::ALL.len());
        // Range+VB+Diff should be no larger than raw range+VB for this list.
        let size = |label: &str| rows.iter().find(|r| r.label == label).unwrap().values[0].1;
        assert!(size("+Diff") <= size("Ranges & VB"));
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
    fn scan_throughput_reports_both_modes_and_speedups() {
        let rows = exp_scan_throughput(&tiny_scale());
        // 4 selectivities × (scalar + vectorized + speedup).
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().any(|r| r.label.starts_with("scalar sel=")));
        assert!(rows.iter().any(|r| r.label.starts_with("vectorized sel=")));
        let speedups: Vec<f64> = rows
            .iter()
            .filter(|r| r.label.starts_with("speedup"))
            .map(|r| r.values.iter().find(|(n, _)| n == "scan_cpu_x").unwrap().1)
            .collect();
        assert_eq!(speedups.len(), 4);
        assert!(
            speedups.iter().all(|s| s.is_finite() && *s > 0.0),
            "speedups must be positive and finite: {speedups:?}"
        );
    }

    #[test]
    fn groupby_cardinality_sweep_shape() {
        let rows = exp_groupby_cardinality(&tiny_scale());
        // Tiny scale clamps every cardinality to rows/2, but the sweep still
        // emits 5 × (scalar + vectorized + speedup).
        assert_eq!(rows.len(), 15);
        assert!(rows.iter().any(|r| r.label.starts_with("speedup groups=")));
    }

    #[test]
    fn crypto_throughput_reports_kernels_and_cache_modes() {
        let rows = exp_crypto_throughput(&tiny_scale());
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels[0], format!("aes backend: {}", seabed_crypto::aes_backend()));
        for kernel in ["ashe_encrypt", "prf_eval", "ore_encrypt"] {
            let row = rows.iter().find(|r| r.label == kernel).expect(kernel);
            let x = row.value("batch_x").expect("batch_x");
            assert!(x.is_finite() && x > 0.0, "{kernel}: {x}");
        }
        assert!(
            labels.contains(&"cold scatter") && labels.contains(&"warm cache"),
            "{labels:?}"
        );
        let warm = rows.iter().find(|r| r.label == "warm cache").unwrap();
        assert!(
            warm.value("cache_hits").unwrap() > 0.0,
            "warm mode must answer shards from the cache"
        );
        let speedup = rows.iter().find(|r| r.label == "speedup").unwrap();
        let x = speedup.value("warm_x").unwrap();
        assert!(x.is_finite() && x > 0.0, "warm_x: {x}");
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
