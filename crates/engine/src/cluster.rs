//! Partition-parallel execution: every partition task runs on a local thread
//! pool, the caller's thread among them, and the run's wall time is measured.
//!
//! The paper's latencies come from a 100-core HDInsight cluster (§6). The
//! paper harness times this cluster on one and two local threads and reports
//! the wall time it measured; only Figure 7's `model` rows cost the paper's
//! core counts, from that one-thread time
//! (`seabed_bench::baselines::ClusterModel`). The product reports only what
//! it reads: wall time and, when analyzed, per-operator profiles.

use crate::exec::{merge_operator_profiles, ExecMode, OperatorProfile};
use crate::table::{Partition, Table};
use seabed_error::SeabedError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a [`Cluster`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of OS threads used to scan partitions, the thread that calls
    /// [`Cluster::run`] included: 1 means no thread is ever spawned.
    pub local_threads: usize,
    /// How partition scans are executed (scalar reference path or vectorized
    /// fast path). Defaults to [`ExecMode::Vectorized`].
    pub exec_mode: ExecMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            local_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            exec_mode: ExecMode::default(),
        }
    }
}

impl ClusterConfig {
    /// Returns the configuration with the execution mode replaced.
    pub fn exec_mode(mut self, mode: ExecMode) -> ClusterConfig {
        self.exec_mode = mode;
        self
    }

    /// Returns the configuration with the local thread count replaced.
    pub fn local_threads(mut self, threads: usize) -> ClusterConfig {
        self.local_threads = threads;
        self
    }

    /// Checks the configuration for a degenerate value: zero local threads.
    /// Rejected with a typed [`SeabedError`] here — at construction via
    /// [`Cluster::try_new`] and again at the top of query execution — instead
    /// of being silently clamped somewhere down the execution path.
    pub fn validate(&self) -> Result<(), SeabedError> {
        if self.local_threads == 0 {
            return Err(SeabedError::engine(
                "cluster config is degenerate: local_threads must be at least 1",
            ));
        }
        Ok(())
    }
}

/// What one execution measured: its wall time and, when analyzed, its
/// per-operator breakdown. The product reads nothing else, so nothing else
/// is kept or shipped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Wall-clock time the real execution took on the local thread pool.
    pub wall_time: Duration,
    /// Per-operator execution breakdown, in plan order. Empty on plain
    /// (un-analyzed) executions; populated by `EXPLAIN ANALYZE` via the
    /// [`crate::exec::ProfileSink`] threaded through the scan.
    pub operators: Vec<OperatorProfile>,
}

impl ExecStats {
    /// Merges statistics from a second stage run as part of the same query
    /// (e.g. a map stage followed by a reduce stage).
    ///
    /// The merge models stages (and shards) run *sequentially* on one
    /// driver, so the merged `wall_time` is the sum of the parts, not their
    /// overlap. Callers that ran the parts concurrently (the distributed
    /// coordinator's scatter) must overwrite `wall_time` with their own
    /// end-to-end measurement after folding, which is exactly what
    /// `DistCoordinator` does.
    ///
    /// Per-operator profiles merge shard-wise via
    /// [`merge_operator_profiles`]: matching operator sequences sum
    /// element-wise, an empty side passes the other through, and mismatched
    /// shapes concatenate.
    pub fn merge(&self, other: &ExecStats) -> ExecStats {
        ExecStats {
            wall_time: self.wall_time + other.wall_time,
            operators: merge_operator_profiles(&self.operators, &other.operators),
        }
    }
}

/// The one fan-out rule of the answer path: runs `work(unit)` for every unit
/// in `0..units` on at most `lanes` threads, **the calling thread among
/// them**, and returns the results in unit order.
///
/// Only `min(lanes, units) - 1` helper threads are spawned, so one lane (a
/// `local_threads = 1` scan, a one-worker scatter) or one unit of work runs
/// entirely on the caller's thread and spawns nothing. Units are claimed from
/// a shared counter, so a slow unit never holds back the lanes beside it. A
/// panic in `work` reaches the caller once every lane has stopped, whichever
/// thread it happened on.
fn fan_out<R, F>(lanes: usize, units: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter hands out indices and publishes nothing;
            // results travel back through `join`.
            let unit = next.fetch_add(1, Ordering::Relaxed);
            if unit >= units {
                return done;
            }
            done.push((unit, work(unit)));
        }
    };
    let helpers = lanes.min(units).saturating_sub(1);
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for handle in handles {
            match handle.join() {
                Ok(part) => done.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(unit, _)| *unit);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Scans partitions on local threads.
#[derive(Clone, Debug, Default)]
pub struct Cluster {
    /// The cluster configuration.
    pub config: ClusterConfig,
}

impl Cluster {
    /// Creates a cluster with the given configuration.
    ///
    /// The configuration is *not* validated here (this constructor predates
    /// [`ClusterConfig::validate`] and is used pervasively with literal
    /// configurations); query execution validates it before any scan starts.
    /// Prefer [`Cluster::try_new`] when the configuration comes from outside.
    pub fn new(config: ClusterConfig) -> Cluster {
        Cluster { config }
    }

    /// Creates a cluster, rejecting a degenerate configuration — zero local
    /// threads — with a typed [`SeabedError`] at construction.
    pub fn try_new(config: ClusterConfig) -> Result<Cluster, SeabedError> {
        config.validate()?;
        Ok(Cluster { config })
    }

    /// Runs `task` once per partition of `table` on up to `local_threads`
    /// threads — the caller's included, by the module's one fan-out rule —
    /// and returns the partial results in partition order along with the
    /// run's wall time.
    pub fn run<R, F>(&self, table: &Table, task: F) -> (Vec<R>, ExecStats)
    where
        R: Send,
        F: Fn(&Partition) -> R + Sync,
    {
        let started = Instant::now();
        let outputs = fan_out(self.config.local_threads, table.partitions.len(), |idx| {
            task(&table.partitions[idx])
        });
        let stats = ExecStats {
            wall_time: started.elapsed(),
            operators: Vec::new(),
        };
        (outputs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ColumnData, ColumnType, Schema, Table};

    fn table(rows: usize, partitions: usize) -> Table {
        let schema = Schema::new([("v".to_string(), ColumnType::UInt64)]);
        Table::from_columns(schema, vec![ColumnData::UInt64((0..rows as u64).collect())], partitions)
    }

    #[test]
    fn run_returns_results_in_partition_order() {
        let t = table(1000, 8);
        let cluster = Cluster::default();
        let (results, stats) = cluster.run(&t, |p| {
            let sum: u64 = p.column(0).as_u64().iter().sum();
            (p.start_row, sum)
        });
        assert_eq!(results.len(), 8);
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0), "partition order preserved");
        let total: u64 = results.iter().map(|(_, s)| s).sum();
        assert_eq!(total, (0..1000u64).sum());
        assert!(stats.operators.is_empty(), "a plain run profiles nothing");
    }

    /// The fan-out rule: whatever the lane count, results come back in unit
    /// order and every unit runs exactly once.
    #[test]
    fn fan_out_places_results_in_unit_order_at_every_lane_count() {
        let partitions = 7;
        let t = table(700, partitions);
        for threads in [1, 2, 3, partitions + 5] {
            let cluster = Cluster::new(ClusterConfig::default().local_threads(threads));
            let (results, _) = cluster.run(&t, |p| p.start_row);
            let expected: Vec<u64> = t.partitions.iter().map(|p| p.start_row).collect();
            assert_eq!(results, expected, "local_threads = {threads}");

            let runs = AtomicUsize::new(0);
            let squares = fan_out(threads, 20, |unit| {
                runs.fetch_add(1, Ordering::Relaxed);
                unit * unit
            });
            assert_eq!(squares, (0..20).map(|u| u * u).collect::<Vec<_>>(), "lanes = {threads}");
            assert_eq!(runs.into_inner(), 20);
        }
        assert_eq!(fan_out(4, 0, |unit| unit), Vec::<usize>::new());
        assert_eq!(
            fan_out(0, 3, |unit| unit),
            vec![0, 1, 2],
            "zero lanes still means the caller"
        );
    }

    /// One lane spawns nothing: every task runs on the thread that called
    /// `run`. Pinned by thread identity, not by timing.
    #[test]
    fn one_lane_runs_every_task_on_the_calling_thread() {
        let t = table(800, 8);
        let caller = std::thread::current().id();
        let cluster = Cluster::new(ClusterConfig::default().local_threads(1));
        let (threads, _) = cluster.run(&t, |_| std::thread::current().id());
        assert_eq!(threads, vec![caller; 8]);
        // One unit of work is the same however many lanes are on offer.
        assert_eq!(fan_out(16, 1, |_| std::thread::current().id()), vec![caller]);
        // And with helpers the caller still takes a lane of its own: two
        // lanes that must both be inside `work` at once are caller + 1 helper.
        let barrier = std::sync::Barrier::new(2);
        let ids = fan_out(2, 2, |_| {
            barrier.wait();
            std::thread::current().id()
        });
        assert!(ids.contains(&caller), "the caller ran a lane");
        assert_ne!(ids[0], ids[1]);
    }

    /// A panicking task reaches the caller as a panic — from a helper thread
    /// or from the caller's own lane — after the other lanes have stopped.
    #[test]
    fn a_panicking_task_propagates_to_the_caller() {
        let t = table(600, 6);
        for threads in [1, 3] {
            let cluster = Cluster::new(ClusterConfig::default().local_threads(threads));
            let finished = AtomicUsize::new(0);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cluster.run(&t, |p| {
                    if p.start_row == 300 {
                        panic!("task 3 failed");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            }));
            let payload = outcome.expect_err("the panic must reach the caller");
            assert_eq!(
                payload.downcast_ref::<&str>(),
                Some(&"task 3 failed"),
                "local_threads = {threads}"
            );
            // With one lane the panic cuts the loop short at task 3; with
            // three, the surviving lanes drain the rest before the caller
            // sees it.
            let expected = if threads == 1 { 3 } else { 5 };
            assert_eq!(finished.into_inner(), expected, "local_threads = {threads}");
        }
    }

    #[test]
    fn stats_merge_adds_up() {
        let op = |rows_in: u64| OperatorProfile {
            label: "filter:plain:v".to_string(),
            rows_in,
            rows_out: rows_in / 2,
            batches: 1,
            nanos: 5,
        };
        let a = ExecStats {
            wall_time: Duration::from_millis(9),
            operators: vec![op(100)],
        };
        let b = ExecStats {
            wall_time: Duration::from_millis(14),
            operators: vec![op(60)],
        };
        let m = a.merge(&b);
        // Documented additive semantics: merge models sequential stages, so
        // wall times sum (concurrent callers overwrite the field afterward).
        assert_eq!(m.wall_time, Duration::from_millis(23));
        // Matching operator sequences merge element-wise (shard-wise sums).
        assert_eq!(m.operators.len(), 1);
        assert_eq!(m.operators[0].rows_in, 160);
        assert_eq!(m.operators[0].rows_out, 80);
        assert_eq!(m.operators[0].batches, 2);
        assert_eq!(m.operators[0].nanos, 10);
    }

    /// Regression test for a degenerate configuration: `local_threads(0)`
    /// used to flow into the execution path unchecked; it is rejected with a
    /// typed error at construction via `try_new` and by
    /// `ClusterConfig::validate` on the execution path.
    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let zero_threads = ClusterConfig::default().local_threads(0);
        assert!(matches!(zero_threads.validate(), Err(SeabedError::Engine(_))));
        assert!(matches!(Cluster::try_new(zero_threads), Err(SeabedError::Engine(_))));

        // Well-formed configurations pass and construct.
        let good = ClusterConfig::default().local_threads(2);
        assert!(good.validate().is_ok());
        assert!(Cluster::try_new(good).is_ok());
    }

    #[test]
    fn empty_table_runs_single_empty_task() {
        let t = table(0, 4);
        let cluster = Cluster::default();
        let (results, _) = cluster.run(&t, |p| p.num_rows());
        assert_eq!(results, vec![0]);
    }
}
