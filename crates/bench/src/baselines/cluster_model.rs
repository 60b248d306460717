//! The paper's cluster, modelled from measured times.
//!
//! The paper runs Seabed on an Azure HDInsight cluster and sweeps the number
//! of cores from 10 to 100 (Figure 7). A test box does not have 100 cores.
//! The harness measures the product on one and two local threads, and
//! Figure 7's `model` rows cost the paper's core counts here: the measured
//! one-thread server time, split evenly across the partitions, is
//! list-scheduled onto `workers` slots, each task paying a fixed launch
//! overhead ([`ClusterModel::makespan`]). Those rows and the Paillier
//! estimate ([`super::paillier::PaillierCost`]) are the only modelled times
//! in the figures; the product reports only what it measured.

use std::time::Duration;

/// Fixed per-task scheduling/launch overhead (Spark task creation cost; in
/// the paper it makes NoEnc's latency flat at ~0.6 s in Figure 6).
pub const TASK_OVERHEAD: Duration = Duration::from_millis(5);

/// A modelled cluster of `workers` cores.
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
