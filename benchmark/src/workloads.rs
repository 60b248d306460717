//! The four workloads: their tables, statement shapes and seeded operation
//! lists. Sizes were tuned on the reference box (2 vCPU Xeon 2.1 GHz) until
//! the share targets of `README.md` held in the traced pass, then frozen
//! here; `--seconds` only scales how many operations a segment holds.

use crate::gen::{Agg, Cmp, Col, Fingerprint, Layout, PlainTable, QueryOp, Rng, Shape, HOUR_SECS, TAGS};
use std::collections::HashSet;

/// Timed segments per run (one more, discarded, warms up first).
pub const SEGMENTS: usize = 10;

/// A workload by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Dashboards over TCP: prepared statements, hot bindings, tiny ID lists.
    DashRemote,
    /// The ad-hoc analyst: one-shot SQL, fragmented ID lists, big responses.
    ScanAdhoc,
    /// The coordinator: two tables on two workers, cache hits and cold scatters.
    ClusterMixed,
    /// The write path: encrypt a batch, load it onto fresh workers, query it.
    IngestLoad,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::DashRemote,
        Workload::ScanAdhoc,
        Workload::ClusterMixed,
        Workload::IngestLoad,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DashRemote => "dash_remote",
            Workload::ScanAdhoc => "scan_adhoc",
            Workload::ClusterMixed => "cluster_mixed",
            Workload::IngestLoad => "ingest_load",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Partitions of the workload's tables. The 4k-row dashboard table is
    /// cut in two; everything else in [`PARTITIONS`].
    pub fn partitions(self) -> usize {
        match self {
            Workload::DashRemote => 2,
            _ => PARTITIONS,
        }
    }

    /// Operations per second the reference box sustains, frozen: a segment
    /// holds `rate × seconds / SEGMENTS` operations, so a run measures for
    /// about `--seconds` there and does identical work everywhere.
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::DashRemote => 6_500.0,
            Workload::ScanAdhoc => 600.0,
            Workload::ClusterMixed => 1_550.0,
            Workload::IngestLoad => 17.0,
        }
    }

    /// Operations per slice, the unit the estimator ranks: about 15–50 ms of
    /// work, short enough to fall inside one of the host's fast stretches.
    pub fn ops_per_slice(self) -> usize {
        match self {
            Workload::DashRemote => 100,
            Workload::ScanAdhoc => 20,
            Workload::ClusterMixed => 30,
            Workload::IngestLoad => 1,
        }
    }

    /// Operations in one segment of a `seconds`-long run.
    pub fn ops_per_segment(self, seconds: f64) -> usize {
        ((self.nominal_rate() * seconds / SEGMENTS as f64).round() as usize).max(4)
    }
}

/// Rows of the `dash_remote` table: small enough that the fixed request-path
/// costs, not the scan, are most of the latency.
pub const DASH_ROWS: usize = 4_096;
const DASH_HOURS: u64 = 64;
/// Recurring dashboard windows; fits the 32-entry bind memo.
const DASH_HOT_SET: usize = 16;
const _: () = assert!(DASH_HOT_SET <= 32, "the bind memo holds 32 bindings per placeholder");

/// Rows of the `scan_adhoc` table.
pub const SCAN_ROWS: usize = 12_288;
const SCAN_HOURS: u64 = 168;

/// Rows of the two `cluster_mixed` tables.
pub const CLUSTER_BIG_ROWS: usize = 60_000;
/// Rows of the smaller one.
pub const CLUSTER_SMALL_ROWS: usize = 30_000;
const CLUSTER_HOURS: u64 = 168;
/// Recurring bindings; with two shards each they hold 48 of the partial
/// cache's 1024 entries, and the cold stream pushes the rest through.
const CLUSTER_HOT_SET: usize = 24;

/// Rows per ingested batch.
pub const INGEST_BATCH_ROWS: usize = 5_000;
const INGEST_HOURS: u64 = 24;
/// Distinct batches cycled through (encryption cost does not depend on the
/// values, so a handful bounds memory without changing the work).
pub const INGEST_BATCHES: usize = 4;
/// Partitions per table (all workloads but `dash_remote`).
pub const PARTITIONS: usize = 8;

/// Everything generated for one run of a query workload.
pub struct QueryPlan {
    /// Plaintext tables.
    pub tables: Vec<PlainTable>,
    /// Statement shapes; `QueryOp::shape` indexes this. Operations of one
    /// shape cost about the same (two entries may hold the same statement at
    /// different selectivities), which is what lets the estimator tell a slow
    /// stretch of the host from a stretch of dear operations.
    pub shapes: Vec<Shape>,
    /// True when operations are sent as one-shot SQL text with inline
    /// literals instead of prepared statements with bound parameters.
    pub one_shot: bool,
    /// `ops[segment]`; segment 0 is the warm-up.
    pub ops: Vec<Vec<QueryOp>>,
    /// Fingerprint of tables and operations.
    pub fingerprint: u64,
}

impl QueryPlan {
    /// The table a shape reads.
    pub fn table_of(&self, shape: usize) -> &PlainTable {
        let name = &self.shapes[shape].table;
        self.tables
            .iter()
            .find(|t| &t.name == name)
            .expect("every shape reads a generated table")
    }
}

const HOUR_RANGE: [(Col, Cmp); 2] = [(Col::Hour, Cmp::Ge), (Col::Hour, Cmp::Lt)];
const TS_RANGE: [(Col, Cmp); 2] = [(Col::Ts, Cmp::Ge), (Col::Ts, Cmp::Lt)];
const TAG_TS_RANGE: [(Col, Cmp); 3] = [(Col::Tag, Cmp::Eq), (Col::Ts, Cmp::Ge), (Col::Ts, Cmp::Lt)];
const TAG_HOUR_RANGE: [(Col, Cmp); 3] = [(Col::Tag, Cmp::Eq), (Col::Hour, Cmp::Ge), (Col::Hour, Cmp::Lt)];

/// A window of `width` starting uniformly inside `0..span`.
fn window(rng: &mut Rng, span: u64, width: u64) -> (u64, u64) {
    let lo = rng.below(span - width + 1);
    (lo, lo + width)
}

/// `n` class labels in seeded random order, class `k` appearing in exact
/// proportion to `weights[k]` (largest remainders get the odd ones). Exact
/// rather than drawn proportions keep a segment's cost, bytes and cache hits
/// from wandering with the seed by the binomial's few percent.
fn mixed(rng: &mut Rng, n: usize, weights: &[u64]) -> Vec<usize> {
    let total: u64 = weights.iter().sum();
    let mut counts: Vec<usize> = weights.iter().map(|w| (n as u64 * w / total) as usize).collect();
    let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
    by_remainder.sort_by_key(|&k| std::cmp::Reverse(n as u64 * weights[k] % total));
    let assigned: usize = counts.iter().sum();
    for &k in by_remainder.iter().take(n - assigned) {
        counts[k] += 1;
    }
    let mut labels: Vec<usize> = counts.iter().enumerate().flat_map(|(k, c)| vec![k; *c]).collect();
    for i in (1..labels.len()).rev() {
        labels.swap(i, rng.below(i as u64 + 1) as usize);
    }
    labels
}

fn finish(tables: Vec<PlainTable>, shapes: Vec<Shape>, one_shot: bool, ops: Vec<Vec<QueryOp>>) -> QueryPlan {
    let mut fp = Fingerprint::default();
    for table in &tables {
        fp.table(table);
    }
    for segment in &ops {
        fp.ops(segment);
    }
    QueryPlan {
        tables,
        shapes,
        one_shot,
        ops,
        fingerprint: fp.value(),
    }
}

/// `dash_remote`: 75% hourly group-bys over one of 16 recurring hour ranges
/// (statement handle and bind memo hit; the public `hour` column keeps the
/// scan cheap), 25% tag + time-window sums with fresh literals (memo miss:
/// one DET and two ORE encryptions; DET runs first, so ORE only compares the
/// tag's rows).
fn dash_remote(seed: u64, segments: usize, per_segment: usize) -> QueryPlan {
    let table = PlainTable::generate(
        "dash",
        DASH_ROWS,
        DASH_HOURS,
        Layout::TimeOrdered,
        &mut Rng::new(seed, 1),
    );
    let span = DASH_HOURS * HOUR_SECS;
    let shapes = vec![
        Shape::new("dash", &[Agg::SumM0, Agg::Count], &HOUR_RANGE, Some(Col::Hour)),
        Shape::new("dash", &[Agg::SumM1, Agg::Count], &TAG_TS_RANGE, None),
    ];
    // The seed places the windows; their widths (6 to 24 hours) are the
    // same for every seed, so response sizes — one group per hour — are too.
    let mut hot_rng = Rng::new(seed, 2);
    let mut hot: Vec<(u64, u64)> = Vec::new();
    while hot.len() < DASH_HOT_SET {
        let hours = 6 + hot.len() as u64 * 18 / (DASH_HOT_SET as u64 - 1);
        let range = window(&mut hot_rng, DASH_HOURS, hours);
        if !hot.contains(&range) {
            hot.push(range);
        }
    }
    let mut rng = Rng::new(seed, 10);
    // Labels 0..16 are the hot windows (three quarters, each equally often),
    // label 16 a cold operation.
    let mut weights = vec![3; DASH_HOT_SET];
    weights.push(DASH_HOT_SET as u64);
    let ops = (0..segments)
        .map(|_| {
            mixed(&mut rng, per_segment, &weights)
                .into_iter()
                .map(|label| match hot.get(label) {
                    Some((lo, hi)) => QueryOp {
                        shape: 0,
                        literals: vec![*lo, *hi],
                        hot: true,
                    },
                    None => {
                        let hours = 1 + rng.below(8);
                        let (lo, hi) = window(&mut rng, span, hours * HOUR_SECS);
                        QueryOp {
                            shape: 1,
                            literals: vec![rng.below(TAGS), lo, hi],
                            hot: false,
                        }
                    }
                })
                .collect()
        })
        .collect();
    finish(vec![table], shapes, false, ops)
}

/// `scan_adhoc`: every operation a new SQL text with inline literals over a
/// table whose `ts` is random, so selections are fragmented ID lists. ORE
/// ranges at 1% / 10% / 50% selectivity, DET + ORE, and group-bys on the
/// public hour and the DET tag.
fn scan_adhoc(seed: u64, segments: usize, per_segment: usize) -> QueryPlan {
    let table = PlainTable::generate("scan", SCAN_ROWS, SCAN_HOURS, Layout::Shuffled, &mut Rng::new(seed, 1));
    let span = SCAN_HOURS * HOUR_SECS;
    let range_sum = || Shape::new("scan", &[Agg::SumM0, Agg::Count], &TS_RANGE, None);
    // (shape, window width, share of the mix in twentieths)
    let mix = [
        (range_sum(), span / 100, 6),
        (range_sum(), span / 10, 4),
        (range_sum(), span / 2, 1),
        (
            Shape::new("scan", &[Agg::SumM1, Agg::Count], &TAG_TS_RANGE, None),
            span / 4,
            4,
        ),
        (
            Shape::new("scan", &[Agg::SumM0, Agg::Count], &TS_RANGE, Some(Col::Hour)),
            24 * HOUR_SECS,
            3,
        ),
        (
            Shape::new("scan", &[Agg::SumM1], &TS_RANGE, Some(Col::Tag)),
            span / 10,
            2,
        ),
    ];
    let mut rng = Rng::new(seed, 10);
    let weights: Vec<u64> = mix.iter().map(|(_, _, weight)| *weight).collect();
    let ops = (0..segments)
        .map(|_| {
            mixed(&mut rng, per_segment, &weights)
                .into_iter()
                .map(|pick| {
                    // Window starts have one-second resolution, which keeps
                    // the texts unique across a run.
                    let (lo, hi) = window(&mut rng, span, mix[pick].1);
                    let mut literals = vec![lo, hi];
                    if mix[pick].0.preds.len() == 3 {
                        literals.insert(0, rng.below(TAGS));
                    }
                    QueryOp {
                        shape: pick,
                        literals,
                        hot: false,
                    }
                })
                .collect()
        })
        .collect();
    finish(
        vec![table],
        mix.into_iter().map(|(shape, _, _)| shape).collect(),
        true,
        ops,
    )
}

/// `cluster_mixed`: two tables on two workers behind one coordinator. 70%
/// executes of 24 hot bindings (answered from the partial cache), 30% cold
/// executes with `(tag, hour range)` combinations drawn without replacement
/// — DET and plain predicates only, so a miss costs scatter, gather and
/// merge rather than an ORE scan.
fn cluster_mixed(seed: u64, segments: usize, per_segment: usize) -> QueryPlan {
    let big = PlainTable::generate(
        "big",
        CLUSTER_BIG_ROWS,
        CLUSTER_HOURS,
        Layout::Shuffled,
        &mut Rng::new(seed, 1),
    );
    let small = PlainTable::generate(
        "small",
        CLUSTER_SMALL_ROWS,
        CLUSTER_HOURS,
        Layout::Shuffled,
        &mut Rng::new(seed, 2),
    );
    let shapes = vec![
        Shape::new("big", &[Agg::SumM0, Agg::Count], &TAG_HOUR_RANGE, Some(Col::Hour)),
        Shape::new("small", &[Agg::SumM1, Agg::Count], &TAG_HOUR_RANGE, None),
        Shape::new("big", &[Agg::SumM0, Agg::Count], &TAG_HOUR_RANGE, None),
        // Not the hot statement's text: the colds must not share (and churn)
        // the hot bindings' statement and bind memo.
        Shape::new("small", &[Agg::SumM0, Agg::Count], &TAG_HOUR_RANGE, None),
    ];
    // One draw pool for hot and cold bindings: no (table, tag, range) is ever
    // used twice, so every hit is a hot binding and every cold is a miss.
    let mut used: HashSet<(bool, u64, u64, u64)> = HashSet::new();
    let mut draw = |rng: &mut Rng, on_big: bool, hours: u64| loop {
        let (lo, hi) = window(rng, CLUSTER_HOURS, hours);
        let tag = rng.below(TAGS);
        if used.insert((on_big, tag, lo, hi)) {
            return vec![tag, lo, hi];
        }
    };
    let mut rng = Rng::new(seed, 10);
    // Hot ranges run from 2 to 48 hours in the same steps for every seed (the
    // seed places them), so the hits' decryption work does not vary by seed.
    let hot: Vec<QueryOp> = (0..CLUSTER_HOT_SET as u64)
        .map(|i| {
            let on_big = i % 2 == 0;
            QueryOp {
                shape: usize::from(!on_big),
                literals: draw(&mut rng, on_big, 2 + (i / 2) * 46 / (CLUSTER_HOT_SET as u64 / 2 - 1)),
                hot: true,
            }
        })
        .collect();
    let ops = (0..segments)
        .map(|segment| {
            let mut ops: Vec<QueryOp> = Vec::with_capacity(per_segment + hot.len());
            if segment == 0 {
                // The warm-up touches every hot binding once, so the timed
                // segments see exact hit counts.
                ops.extend(hot.iter().cloned());
            }
            // Labels 0..24 are the hot bindings (70%, each equally often),
            // then a cold on `big` (20%) and a cold on `small` (10%).
            let mut weights = vec![7; CLUSTER_HOT_SET];
            weights.extend([2 * CLUSTER_HOT_SET as u64, CLUSTER_HOT_SET as u64]);
            for label in mixed(&mut rng, per_segment, &weights) {
                ops.push(match hot.get(label) {
                    Some(op) => op.clone(),
                    None => {
                        let on_big = label == CLUSTER_HOT_SET;
                        let hours = 1 + rng.below(48);
                        QueryOp {
                            shape: if on_big { 2 } else { 3 },
                            literals: draw(&mut rng, on_big, hours),
                            hot: false,
                        }
                    }
                });
            }
            ops
        })
        .collect();
    finish(vec![big, small], shapes, false, ops)
}

/// Builds the operation plan of a query workload: `segments` segments
/// (including the warm-up) of `per_segment` operations.
pub fn query_plan(workload: Workload, seed: u64, segments: usize, per_segment: usize) -> QueryPlan {
    match workload {
        Workload::DashRemote => dash_remote(seed, segments, per_segment),
        Workload::ScanAdhoc => scan_adhoc(seed, segments, per_segment),
        Workload::ClusterMixed => cluster_mixed(seed, segments, per_segment),
        Workload::IngestLoad => unreachable!("ingest_load has an IngestPlan"),
    }
}

/// Everything generated for one run of `ingest_load`.
pub struct IngestPlan {
    /// The batches cycled through; operation `i` ingests batch
    /// `i % INGEST_BATCHES`.
    pub batches: Vec<PlainTable>,
    /// The one verified-query shape.
    pub shape: Shape,
    /// `ops[segment]`: the verified query of each ingest.
    pub ops: Vec<Vec<QueryOp>>,
    /// Fingerprint of batches and operations.
    pub fingerprint: u64,
}

/// `ingest_load`: each operation encrypts one batch, loads it onto two fresh
/// workers and runs one verified query against it.
pub fn ingest_plan(seed: u64, segments: usize, per_segment: usize) -> IngestPlan {
    let batches: Vec<PlainTable> = (0..INGEST_BATCHES)
        .map(|i| {
            PlainTable::generate(
                "ingest",
                INGEST_BATCH_ROWS,
                INGEST_HOURS,
                Layout::TimeOrdered,
                &mut Rng::new(seed, 1 + i as u64),
            )
        })
        .collect();
    let shape = Shape::new("ingest", &[Agg::SumM0, Agg::Count], &TAG_HOUR_RANGE, None);
    let mut rng = Rng::new(seed, 10);
    let ops: Vec<Vec<QueryOp>> = (0..segments)
        .map(|_| {
            (0..per_segment)
                .map(|_| {
                    let hours = 1 + rng.below(12);
                    let (lo, hi) = window(&mut rng, INGEST_HOURS, hours);
                    QueryOp {
                        shape: 0,
                        literals: vec![rng.below(TAGS), lo, hi],
                        hot: false,
                    }
                })
                .collect()
        })
        .collect();
    let mut fp = Fingerprint::default();
    for batch in &batches {
        fp.table(batch);
    }
    for segment in &ops {
        fp.ops(segment);
    }
    IngestPlan {
        batches,
        shape,
        ops,
        fingerprint: fp.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: Workload, seed: u64) -> u64 {
        match workload {
            Workload::IngestLoad => ingest_plan(seed, 3, 5).fingerprint,
            _ => query_plan(workload, seed, 3, 40).fingerprint,
        }
    }

    #[test]
    fn same_seed_same_operations_and_different_seed_differs() {
        for workload in Workload::ALL {
            assert_eq!(
                fingerprint(workload, 11),
                fingerprint(workload, 11),
                "{}",
                workload.name()
            );
            assert_ne!(
                fingerprint(workload, 11),
                fingerprint(workload, 12),
                "{}",
                workload.name()
            );
        }
    }

    #[test]
    fn mixes_are_exact_and_shuffled() {
        let labels = mixed(&mut Rng::new(1, 1), 1_000, &[3, 1]);
        assert_eq!(labels.iter().filter(|l| **l == 0).count(), 750);
        assert_eq!(labels.len(), 1_000);
        assert!(labels[..100].contains(&1), "the classes are interleaved, not blocked");
        // 10 over weights 1:1:1 -> 4 + 3 + 3, every label placed.
        let odd = mixed(&mut Rng::new(1, 1), 10, &[1, 1, 1]);
        let count = |k| odd.iter().filter(|l| **l == k).count();
        assert_eq!(
            (count(0) + count(1) + count(2), count(0).max(count(1)).max(count(2))),
            (10, 4)
        );
    }

    #[test]
    fn names_round_trip() {
        for workload in Workload::ALL {
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn cluster_bindings_are_never_reused_outside_the_hot_set() {
        let plan = query_plan(Workload::ClusterMixed, 5, 4, 300);
        let mut cold = HashSet::new();
        let mut hot = HashSet::new();
        for op in plan.ops.iter().flatten() {
            if op.hot {
                hot.insert(op);
            } else {
                let table = &plan.shapes[op.shape].table;
                assert!(cold.insert((table, &op.literals)), "a cold binding repeated");
            }
        }
        assert_eq!(hot.len(), CLUSTER_HOT_SET);
        assert!(
            plan.ops[0][..CLUSTER_HOT_SET].iter().all(|op| op.hot),
            "the warm-up primes the hot set"
        );
    }

    #[test]
    fn dash_hot_set_fits_the_bind_memo() {
        let plan = query_plan(Workload::DashRemote, 5, 3, 500);
        let hot: HashSet<&Vec<u64>> = plan
            .ops
            .iter()
            .flatten()
            .filter(|op| op.hot)
            .map(|op| &op.literals)
            .collect();
        assert_eq!(hot.len(), DASH_HOT_SET);
        let share = plan.ops[1].iter().filter(|op| op.hot).count() as f64 / 500.0;
        assert!((0.65..0.85).contains(&share), "hot share {share}");
    }

    #[test]
    fn scan_texts_are_unique() {
        let plan = query_plan(Workload::ScanAdhoc, 5, 3, 400);
        let texts: HashSet<String> = plan
            .ops
            .iter()
            .flatten()
            .map(|op| plan.shapes[op.shape].sql(Some(&op.literals)))
            .collect();
        assert!(texts.len() as f64 >= 0.97 * 1_200.0, "{} distinct of 1200", texts.len());
    }
}
