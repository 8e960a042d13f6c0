//! Job submissions: what enters the service's admission queue.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsmooth_workload::spec2006;

/// One submitted job: run an instance of a catalog workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Unique, monotonically increasing job id (submission order).
    pub id: u64,
    /// Catalog workload name (`vsmooth-workload`).
    pub workload: String,
    /// Virtual cycle at which the job arrives at the service.
    pub arrival_cycle: u64,
}

/// A deterministic synthetic submission stream: `count` jobs drawn
/// uniformly from the CPU2006 catalog, with arrival gaps uniform in
/// `0..2 * mean_interarrival_cycles` (so the queue alternately backs
/// up and drains, exercising both admission and pairing).
///
/// The same `seed` always yields the same stream.
pub fn synthetic_jobs(seed: u64, count: usize, mean_interarrival_cycles: u64) -> Vec<JobSpec> {
    let names: Vec<String> = spec2006().iter().map(|w| w.name().to_string()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrival = 0u64;
    (0..count as u64)
        .map(|id| {
            let workload = names[rng.gen_range(0..names.len())].clone();
            let gap = if mean_interarrival_cycles == 0 {
                0
            } else {
                rng.gen_range(0..2 * mean_interarrival_cycles)
            };
            arrival = arrival.saturating_add(gap);
            JobSpec {
                id,
                workload,
                arrival_cycle: arrival,
            }
        })
        .collect()
}

/// The record the service keeps for every finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// The submission this record closes out.
    pub spec: JobSpec,
    /// Cycle at which the job was first placed on a core.
    pub started_cycle: u64,
    /// Cycle at which the job's final slice completed.
    pub finished_cycle: u64,
    /// Cycles the job actually executed for (its program length at the
    /// service's slice fidelity).
    pub executed_cycles: u64,
    /// Instructions the job committed (from its core's counters).
    pub instructions: f64,
    /// Droop events (at the phase margin) on the job's chip while it
    /// ran, attributed to every job sharing that chip.
    pub attributed_droops: u64,
}

impl CompletedJob {
    /// Cycles spent waiting in the admission queue.
    pub(crate) fn queue_wait_cycles(&self) -> u64 {
        self.started_cycle.saturating_sub(self.spec.arrival_cycle)
    }

    /// The job's committed instructions per executed cycle.
    pub fn ipc(&self) -> f64 {
        if self.executed_cycles == 0 {
            0.0
        } else {
            self.instructions / self.executed_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stream_is_deterministic_and_sorted() {
        let a = synthetic_jobs(42, 50, 1_000);
        let b = synthetic_jobs(42, 50, 1_000);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        for w in a.windows(2) {
            assert!(w[0].arrival_cycle <= w[1].arrival_cycle);
            assert_eq!(w[0].id + 1, w[1].id);
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(synthetic_jobs(1, 20, 500), synthetic_jobs(2, 20, 500));
    }

    #[test]
    fn zero_interarrival_means_all_jobs_arrive_at_once() {
        let jobs = synthetic_jobs(7, 10, 0);
        assert!(jobs.iter().all(|j| j.arrival_cycle == 0));
    }

    #[test]
    fn queue_wait_and_ipc_derivations() {
        let done = CompletedJob {
            spec: JobSpec {
                id: 0,
                workload: "429.mcf".into(),
                arrival_cycle: 100,
            },
            started_cycle: 400,
            finished_cycle: 900,
            executed_cycles: 500,
            instructions: 600.0,
            attributed_droops: 3,
        };
        assert_eq!(done.queue_wait_cycles(), 300);
        assert!((done.ipc() - 1.2).abs() < 1e-12);
    }
}
