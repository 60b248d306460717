//! Reference pipelines the paper compares Seabed against.
//!
//! * **NoEnc** — plain Spark over plaintext data. Reproduced by running the
//!   same engine over unencrypted columns. For full SQL queries the simplest
//!   way to get a NoEnc pipeline is to build a [`seabed_core::SeabedClient`]
//!   whose plan marks every column as non-sensitive; this module additionally
//!   offers a light-weight direct API for the synthetic microbenchmarks.
//! * **Paillier** — the CryptDB/Monomi configuration: measures encrypted with
//!   Paillier, dimensions with DET/OPE. Aggregation multiplies ciphertexts
//!   modulo `n²` at the workers and the driver; the client performs a single
//!   (expensive) Paillier decryption.
//!
//! Both systems share the engine's cluster model so that their simulated
//! latencies are directly comparable with Seabed's (Figures 6, 7, 9, 10).

use super::bigint::BigUint;
use super::paillier::{PaillierCiphertext, PaillierKeypair};
use seabed_engine::{BytesColumn, Cluster, ColumnData, ColumnType, ExecStats, Schema, Table, TaskOutput};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Deterministic pseudo-random row selection: row `row_id` is selected with
/// probability `selectivity`, independent of partitioning. This reproduces the
/// paper's selectivity parameter ("choose each row randomly with the
/// corresponding probability", §6.1).
pub fn row_selected(row_id: u64, selectivity: f64) -> bool {
    if selectivity >= 1.0 {
        return true;
    }
    if selectivity <= 0.0 {
        return false;
    }
    // SplitMix64 finalizer as a cheap hash.
    let mut z = row_id.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) < selectivity
}

/// Result of a baseline aggregation.
#[derive(Clone, Debug)]
pub struct BaselineResult {
    /// The decrypted (or plaintext) sum.
    pub sum: u64,
    /// Number of rows aggregated.
    pub rows: u64,
    /// Server execution statistics.
    pub stats: ExecStats,
    /// Measured client-side (decryption) time.
    pub client_time: Duration,
    /// Result bytes shipped to the client.
    pub result_bytes: usize,
}

/// The unencrypted baseline ("NoEnc").
pub struct NoEncSystem {
    table: Table,
    cluster: Cluster,
    measure_index: usize,
    group_index: Option<usize>,
}

impl NoEncSystem {
    /// Builds the baseline from a single plaintext measure column and an
    /// optional grouping column.
    pub fn new(values: &[u64], group_keys: Option<&[u64]>, partitions: usize, cluster: Cluster) -> NoEncSystem {
        let mut fields = vec![("value".to_string(), ColumnType::UInt64)];
        let mut columns = vec![ColumnData::UInt64(values.to_vec())];
        if let Some(keys) = group_keys {
            assert_eq!(keys.len(), values.len());
            fields.push(("grp".to_string(), ColumnType::UInt64));
            columns.push(ColumnData::UInt64(keys.to_vec()));
        }
        let table = Table::from_columns(Schema::new(fields), columns, partitions);
        NoEncSystem {
            table,
            cluster,
            measure_index: 0,
            group_index: group_keys.map(|_| 1),
        }
    }

    /// The underlying table (for storage accounting in Table 5).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Sums the rows selected by `selectivity`.
    pub fn sum(&self, selectivity: f64) -> BaselineResult {
        let measure = self.measure_index;
        let (partials, stats) = self.cluster.run(&self.table, |p| {
            let col = p.column(measure).as_u64();
            let mut sum = 0u64;
            let mut rows = 0u64;
            for (i, &v) in col.iter().enumerate() {
                if row_selected(p.row_id(i), selectivity) {
                    sum = sum.wrapping_add(v);
                    rows += 1;
                }
            }
            TaskOutput::new((sum, rows), 16)
        });
        let sum = partials.iter().fold(0u64, |a, (s, _)| a.wrapping_add(*s));
        let rows = partials.iter().map(|(_, r)| r).sum();
        BaselineResult {
            sum,
            rows,
            stats,
            client_time: Duration::ZERO,
            result_bytes: 16,
        }
    }

    /// Group-by sum over the grouping column.
    pub fn group_by_sum(&self, selectivity: f64) -> (HashMap<u64, u64>, ExecStats) {
        let measure = self.measure_index;
        let group = self.group_index.expect("no group column configured");
        let (partials, stats) = self.cluster.run(&self.table, |p| {
            let values = p.column(measure).as_u64();
            let keys = p.column(group).as_u64();
            let mut map: HashMap<u64, u64> = HashMap::new();
            for i in 0..values.len() {
                if row_selected(p.row_id(i), selectivity) {
                    *map.entry(keys[i]).or_insert(0) += values[i];
                }
            }
            let bytes = map.len() * 16;
            TaskOutput::new(map, bytes)
        });
        let mut merged: HashMap<u64, u64> = HashMap::new();
        for partial in partials {
            for (k, v) in partial {
                *merged.entry(k).or_insert(0) += v;
            }
        }
        (merged, stats)
    }
}

/// The Paillier baseline (CryptDB/Monomi-style encrypted aggregation).
pub struct PaillierSystem {
    table: Table,
    cluster: Cluster,
    keypair: PaillierKeypair,
    group_index: Option<usize>,
}

impl PaillierSystem {
    /// Encrypts a measure column under Paillier with the given modulus size
    /// and an optional plaintext/DET grouping column.
    pub fn new<R: rand::Rng + ?Sized>(
        values: &[u64],
        group_keys: Option<&[u64]>,
        partitions: usize,
        cluster: Cluster,
        modulus_bits: usize,
        rng: &mut R,
    ) -> PaillierSystem {
        let keypair = PaillierKeypair::generate(rng, modulus_bits);
        Self::with_keypair(values, group_keys, partitions, cluster, keypair, rng)
    }

    /// Like [`PaillierSystem::new`] but with a caller-provided keypair
    /// (lets benchmarks amortise key generation).
    pub fn with_keypair<R: rand::Rng + ?Sized>(
        values: &[u64],
        group_keys: Option<&[u64]>,
        partitions: usize,
        cluster: Cluster,
        keypair: PaillierKeypair,
        rng: &mut R,
    ) -> PaillierSystem {
        let ciphertexts: BytesColumn = values
            .iter()
            .map(|&v| keypair.public.encrypt_u64(rng, v).0.to_bytes_be())
            .collect();
        let mut fields = vec![("value_paillier".to_string(), ColumnType::Bytes)];
        let mut columns = vec![ColumnData::Bytes(ciphertexts)];
        if let Some(keys) = group_keys {
            fields.push(("grp".to_string(), ColumnType::UInt64));
            columns.push(ColumnData::UInt64(keys.to_vec()));
        }
        let table = Table::from_columns(Schema::new(fields), columns, partitions);
        PaillierSystem {
            table,
            cluster,
            keypair,
            group_index: group_keys.map(|_| 1),
        }
    }

    /// The underlying table (for storage accounting in Table 5).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Sums the rows selected by `selectivity`, decrypting the result at the
    /// client.
    pub fn sum(&self, selectivity: f64) -> BaselineResult {
        let public = self.keypair.public.clone();
        let (partials, stats) = self.cluster.run(&self.table, |p| {
            let col = p.column(0);
            let mut acc = public.zero_ciphertext();
            let mut rows = 0u64;
            for i in 0..p.num_rows() {
                if row_selected(p.row_id(i), selectivity) {
                    let ct = PaillierCiphertext(BigUint::from_bytes_be(col.bytes_at(i)));
                    acc = public.add(&acc, &ct);
                    rows += 1;
                }
            }
            let bytes = acc.byte_len();
            TaskOutput::new((acc, rows), bytes)
        });
        let mut acc = self.keypair.public.zero_ciphertext();
        let mut rows = 0u64;
        for (partial, r) in partials {
            acc = self.keypair.public.add(&acc, &partial);
            rows += r;
        }
        let result_bytes = acc.byte_len();
        let started = Instant::now();
        let sum = self.keypair.private.decrypt_u64(&acc);
        let client_time = started.elapsed();
        BaselineResult {
            sum,
            rows,
            stats,
            client_time,
            result_bytes,
        }
    }

    /// Group-by sum, decrypting one Paillier ciphertext per group.
    pub fn group_by_sum(&self, selectivity: f64) -> (HashMap<u64, u64>, ExecStats, Duration) {
        let public = self.keypair.public.clone();
        let group = self.group_index.expect("no group column configured");
        let (partials, stats) = self.cluster.run(&self.table, |p| {
            let keys = p.column(group).as_u64();
            let col = p.column(0);
            let mut map: HashMap<u64, PaillierCiphertext> = HashMap::new();
            for (i, &key) in keys.iter().enumerate() {
                if row_selected(p.row_id(i), selectivity) {
                    let ct = PaillierCiphertext(BigUint::from_bytes_be(col.bytes_at(i)));
                    let entry = map.entry(key).or_insert_with(|| public.zero_ciphertext());
                    *entry = public.add(entry, &ct);
                }
            }
            let bytes: usize = map.values().map(|c| c.byte_len() + 8).sum();
            TaskOutput::new(map, bytes)
        });
        let mut merged: HashMap<u64, PaillierCiphertext> = HashMap::new();
        for partial in partials {
            for (k, v) in partial {
                let entry = merged.entry(k).or_insert_with(|| self.keypair.public.zero_ciphertext());
                *entry = self.keypair.public.add(entry, &v);
            }
        }
        let started = Instant::now();
        let decrypted: HashMap<u64, u64> = merged
            .into_iter()
            .map(|(k, v)| (k, self.keypair.private.decrypt_u64(&v)))
            .collect();
        (decrypted, stats, started.elapsed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_engine::ClusterConfig;

    fn values(n: u64) -> Vec<u64> {
        (0..n).map(|i| i % 1000).collect()
    }

    #[test]
    fn selectivity_is_deterministic_and_roughly_uniform() {
        let hits = (0..10_000u64).filter(|&i| row_selected(i, 0.5)).count();
        assert!(hits > 4_500 && hits < 5_500, "got {hits}");
        assert_eq!(
            (0..100u64).map(|i| row_selected(i, 0.3)).collect::<Vec<_>>(),
            (0..100u64).map(|i| row_selected(i, 0.3)).collect::<Vec<_>>()
        );
        assert!(row_selected(42, 1.0));
        assert!(!row_selected(42, 0.0));
    }

    #[test]
    fn noenc_sum_matches_plain_iteration() {
        let vals = values(5000);
        let system = NoEncSystem::new(&vals, None, 4, Cluster::new(ClusterConfig::with_workers(8)));
        let full = system.sum(1.0);
        assert_eq!(full.sum, vals.iter().sum::<u64>());
        assert_eq!(full.rows, 5000);
        let half = system.sum(0.5);
        let expected: u64 = vals
            .iter()
            .enumerate()
            .filter(|(i, _)| row_selected(*i as u64, 0.5))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(half.sum, expected);
    }

    #[test]
    fn noenc_group_by_matches() {
        let vals = values(1000);
        let groups: Vec<u64> = (0..1000u64).map(|i| i % 7).collect();
        let system = NoEncSystem::new(&vals, Some(&groups), 4, Cluster::new(ClusterConfig::with_workers(8)));
        let (result, _) = system.group_by_sum(1.0);
        assert_eq!(result.len(), 7);
        for (k, sum) in &result {
            let expected: u64 = vals.iter().zip(&groups).filter(|(_, g)| *g == k).map(|(v, _)| v).sum();
            assert_eq!(*sum, expected);
        }
    }

    #[test]
    fn paillier_sum_matches_noenc() {
        let vals = values(300);
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let mut rng = rand::rng();
        let system = PaillierSystem::new(&vals, None, 3, cluster.clone(), 128, &mut rng);
        let result = system.sum(1.0);
        assert_eq!(result.sum, vals.iter().sum::<u64>());
        assert!(result.client_time > Duration::ZERO);
        assert!(result.result_bytes > 8, "Paillier ciphertexts are large");
    }

    #[test]
    fn paillier_group_by_matches() {
        let vals = values(200);
        let groups: Vec<u64> = (0..200u64).map(|i| i % 4).collect();
        let mut rng = rand::rng();
        let system = PaillierSystem::new(
            &vals,
            Some(&groups),
            2,
            Cluster::new(ClusterConfig::with_workers(4)),
            128,
            &mut rng,
        );
        let (result, _, _) = system.group_by_sum(1.0);
        assert_eq!(result.len(), 4);
        let expected: u64 = vals.iter().sum();
        assert_eq!(result.values().sum::<u64>(), expected);
    }

    #[test]
    fn paillier_storage_is_much_larger_than_plaintext() {
        let vals = values(200);
        let mut rng = rand::rng();
        let cluster = Cluster::new(ClusterConfig::with_workers(4));
        let noenc = NoEncSystem::new(&vals, None, 1, cluster.clone());
        let paillier = PaillierSystem::new(&vals, None, 1, cluster, 256, &mut rng);
        let plain_size = seabed_engine::table_disk_size(noenc.table());
        let paillier_size = seabed_engine::table_disk_size(paillier.table());
        assert!(paillier_size > 5 * plain_size, "{paillier_size} vs {plain_size}");
    }
}
