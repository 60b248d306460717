//! The paper's cluster, modelled from measured times.
//!
//! The paper runs Seabed on an Azure HDInsight cluster and sweeps the number
//! of cores from 10 to 100 (Figure 7). A test box does not have 100 cores.
//! The harness measures the product on one and two local threads, and
//! Figure 7's `model` rows cost the paper's core counts here: the measured
//! one-thread server time, split evenly across the partitions, is
//! list-scheduled onto `workers` slots, each task paying a fixed launch
//! overhead ([`ClusterModel::makespan`]). Those rows are the only modelled
//! server times in the figures; the product reports only what it measured.
//!
//! [`ClusterModel::run`] runs a reference pipeline's partition tasks through
//! the engine's [`Cluster::run`] on one local thread and times each one
//! inside the closure it hands the engine ([`StageTimes`]).

use seabed_engine::{Cluster, ClusterConfig, Partition, Table};
use std::time::{Duration, Instant};

/// Fixed per-task scheduling/launch overhead (Spark task creation cost; in
/// the paper it makes NoEnc's latency flat at ~0.6 s in Figure 6).
pub const TASK_OVERHEAD: Duration = Duration::from_millis(5);

/// What the model makes of one stage's measured task times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// The modelled server latency: [`ClusterModel::makespan`] of the task
    /// times.
    pub makespan: Duration,
    /// The task times summed: the stage's work, however it is scheduled.
    pub task_time: Duration,
}

/// A modelled cluster of `workers` cores over the engine's real execution.
#[derive(Clone, Copy, Debug)]
pub struct ClusterModel {
    /// Number of modelled worker cores (the x-axis of Figure 7's `model`
    /// rows).
    pub workers: usize,
}

impl ClusterModel {
    /// `workers` modelled cores.
    pub fn new(workers: usize) -> ClusterModel {
        ClusterModel { workers }
    }

    /// Runs `task` once per partition on one local thread and returns the
    /// partial results with this model's [`StageTimes`] of the measured task
    /// times. One thread is the basis the figures time the product on, and
    /// the one on which summed task times are one core's work: on two
    /// threads, Paillier's summed task time read up to four times its
    /// one-thread time.
    pub fn run<R, F>(&self, table: &Table, task: F) -> (Vec<R>, StageTimes)
    where
        R: Send,
        F: Fn(&Partition) -> R + Sync,
    {
        let (timed, _) = Cluster::new(ClusterConfig::default().local_threads(1)).run(table, |p| {
            let started = Instant::now();
            let out = task(p);
            (out, started.elapsed())
        });
        let (outputs, task_times): (Vec<R>, Vec<Duration>) = timed.into_iter().unzip();
        let times = StageTimes {
            makespan: self.makespan(&task_times),
            task_time: task_times.iter().sum(),
        };
        (outputs, times)
    }

    /// List-schedules `task_times` in submission order — how Spark assigns
    /// partitions to executors — each onto the least-loaded of `workers`
    /// slots with its [`TASK_OVERHEAD`], and returns the busiest slot's total.
    pub fn makespan(&self, task_times: &[Duration]) -> Duration {
        let mut slots = vec![Duration::ZERO; self.workers.max(1)];
        for &t in task_times {
            let slot = slots.iter_mut().min_by_key(|d| **d).expect("at least one slot");
            *slot += t + TASK_OVERHEAD;
        }
        slots.into_iter().max().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seabed_engine::{ColumnData, ColumnType, Schema};

    fn table(rows: usize, partitions: usize) -> Table {
        let schema = Schema::new([("v".to_string(), ColumnType::UInt64)]);
        Table::from_columns(schema, vec![ColumnData::UInt64((0..rows as u64).collect())], partitions)
    }

    #[test]
    fn simulated_time_includes_task_overhead() {
        let t = table(100, 10);
        let (outputs, times) = ClusterModel::new(1).run(&t, |_| ());
        // 10 tasks on 1 worker run in turn, each with 5 ms overhead.
        assert!(times.makespan >= 10 * TASK_OVERHEAD);
        assert_eq!(times.makespan, times.task_time + 10 * TASK_OVERHEAD);
        assert_eq!(outputs.len(), 10);
    }

    #[test]
    fn more_workers_reduce_simulated_time() {
        let t = table(200_000, 64);
        let run_with = |workers: usize| {
            let (_, times) = ClusterModel::new(workers).run(&t, |p| {
                // Do genuine work so task durations are non-trivial.
                let mut acc = 0u64;
                for &v in p.column(0).as_u64() {
                    acc = acc.wrapping_add(v.wrapping_mul(2654435761));
                }
                acc
            });
            times.makespan
        };
        let slow = run_with(2);
        let fast = run_with(32);
        assert!(fast < slow, "32 workers ({fast:?}) should beat 2 workers ({slow:?})");
    }

    /// The schedule itself, on fixed times: a pure function of the model.
    #[test]
    fn makespan_list_schedules_in_submission_order() {
        let model = ClusterModel::new(2);
        let ms = Duration::from_millis;
        // With 5 ms a task: slots [8, 6]; the 2 ms task joins the second →
        // [8, 13]; the last 1 ms task joins the first → [14, 13].
        assert_eq!(model.makespan(&[ms(3), ms(1), ms(2), ms(1)]), ms(14));
        assert_eq!(model.makespan(&[]), Duration::ZERO);
        assert_eq!(
            ClusterModel::new(0).makespan(&[ms(1)]),
            ms(6),
            "zero workers is one slot"
        );
    }
}
