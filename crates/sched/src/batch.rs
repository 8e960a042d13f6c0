//! Batch-scheduling experiment (Sec. IV-C, Fig. 18).
//!
//! "We setup a batch scheduling experiment where the job pool consists
//! of pairs of CPU2006 programs, enough to saturate our dual core
//! system. From this pool, during each scheduling interval, the
//! scheduler chooses a combination of programs to run together, based
//! on the active policy. In order to avoid preferential behavior, we
//! constrain the number of times a program is repeatedly chosen.
//! 50 such combinations constitute one batch schedule."

use crate::oracle::PairOracle;
use crate::policy::Policy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of pair combinations per batch schedule.
pub const BATCH_COMBINATIONS: usize = 50;

/// Maximum times one program may appear in a batch (the paper's
/// anti-preferential-behavior constraint).
pub const MAX_REPEATS: usize = 4;

/// One evaluated batch schedule: 50 co-scheduled pairs plus its
/// aggregate position in the Fig. 18 plane.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSchedule {
    /// The policy that produced the batch.
    pub policy: Policy,
    /// The chosen pairs (indices into the oracle).
    pub pairs: Vec<(usize, usize)>,
    /// Mean droop rate across the batch, normalized to SPECrate (1.0 =
    /// SPECrate noise level; smaller is quieter).
    pub normalized_droops: f64,
    /// Mean IPC across the batch, normalized to SPECrate (1.0 =
    /// SPECrate throughput; larger is faster).
    pub normalized_ipc: f64,
}

impl BatchSchedule {
    /// The Fig. 18 quadrant: Q1 (fewer droops, better performance),
    /// Q2 (performance only), Q3 (worse on both), Q4 (droops only).
    pub fn quadrant(&self) -> u8 {
        match (self.normalized_droops < 1.0, self.normalized_ipc > 1.0) {
            (true, true) => 1,
            (false, true) => 2,
            (false, false) => 3,
            (true, false) => 4,
        }
    }
}

/// Builds one batch schedule under `policy`.
///
/// Deterministic policies greedily take the best-scoring pairs subject
/// to the repeat constraint; `Policy::Random` samples pairs uniformly
/// under the same constraint.
pub fn schedule_batch(oracle: &PairOracle, policy: Policy) -> BatchSchedule {
    let Policy::Random { seed } = policy else {
        return greedy_batch(oracle, policy, |i, j| policy.score(oracle, i, j));
    };
    let n = oracle.len();
    let mut counts = vec![0usize; n];
    let mut pairs = Vec::with_capacity(BATCH_COMBINATIONS);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rejects = 0usize;
    while pairs.len() < BATCH_COMBINATIONS {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        if counts[i] < MAX_REPEATS && counts[j] < MAX_REPEATS + usize::from(i == j) {
            counts[i] += 1;
            counts[j] += 1;
            pairs.push((i, j));
            rejects = 0;
        } else {
            rejects += 1;
            if rejects > 8 * n * n {
                // Small pools cannot fill 50 combinations under the
                // repeat constraint; relax it the same way the greedy
                // policies do.
                counts.iter_mut().for_each(|c| *c = 0);
                rejects = 0;
            }
        }
    }
    evaluate(oracle, policy, pairs)
}

/// The greedy batch every deterministic policy builds: ranks all
/// ordered pairs by `score`, best first (a stable sort, so ties keep
/// their order), then sweeps the ranking until the batch is full,
/// taking each pair the repeat constraint allows. Later sweeps re-use
/// good pairs within the constraint; a sweep that takes nothing relaxes
/// it by resetting the counts (small pools cannot fill 50 pairs without
/// repetition). The batch is evaluated against `oracle` and labeled
/// `policy`.
pub(crate) fn greedy_batch(
    oracle: &PairOracle,
    policy: Policy,
    score: impl Fn(usize, usize) -> f64,
) -> BatchSchedule {
    let n = oracle.len();
    let mut ranked: Vec<(usize, usize, f64)> = (0..n)
        .flat_map(|i| (0..n).map(move |j| (i, j)))
        .map(|(i, j)| (i, j, score(i, j)))
        .collect();
    ranked.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite scores"));
    let mut counts = vec![0usize; n];
    let mut pairs = Vec::with_capacity(BATCH_COMBINATIONS);
    while pairs.len() < BATCH_COMBINATIONS {
        let before = pairs.len();
        for &(i, j, _) in &ranked {
            if pairs.len() >= BATCH_COMBINATIONS {
                break;
            }
            let need = if i == j { 2 } else { 1 };
            if counts[i] + need <= MAX_REPEATS + 1 && counts[j] < MAX_REPEATS + 1 {
                counts[i] += 1;
                counts[j] += 1;
                pairs.push((i, j));
            }
        }
        if pairs.len() == before {
            counts.iter_mut().for_each(|c| *c = 0);
        }
    }
    evaluate(oracle, policy, pairs)
}

/// Places `pairs` in the Fig. 18 plane: their mean droop rate and IPC,
/// each normalized to SPECrate.
fn evaluate(oracle: &PairOracle, policy: Policy, pairs: Vec<(usize, usize)>) -> BatchSchedule {
    let m = pairs.len() as f64;
    let mean =
        |f: &dyn Fn(usize, usize) -> f64| pairs.iter().map(|&(i, j)| f(i, j)).sum::<f64>() / m;
    BatchSchedule {
        policy,
        normalized_droops: mean(&|i, j| oracle.normalized_droops(i, j)),
        normalized_ipc: mean(&|i, j| oracle.normalized_ipc(i, j)),
        pairs,
    }
}

/// Runs the full Fig. 18 experiment: `random_batches` random schedules
/// plus one batch for each deterministic policy.
pub fn policy_scatter(oracle: &PairOracle, random_batches: usize) -> Vec<BatchSchedule> {
    let mut out = Vec::with_capacity(random_batches + 3);
    for seed in 0..random_batches as u64 {
        out.push(schedule_batch(oracle, Policy::Random { seed }));
    }
    out.push(schedule_batch(oracle, Policy::Ipc));
    out.push(schedule_batch(oracle, Policy::Droop));
    out.push(schedule_batch(oracle, Policy::IpcOverDroopN { n: 1.0 }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_chip::{ChipConfig, Fidelity};
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::spec2006;

    fn oracle() -> PairOracle {
        let chip = ChipConfig::core2_duo(DecapConfig::proc100());
        let pool: Vec<_> = spec2006().into_iter().take(4).collect();
        PairOracle::measure(&chip, Fidelity::Custom(800), &pool, 4).unwrap()
    }

    #[test]
    fn batches_have_fifty_pairs() {
        let o = oracle();
        for policy in [Policy::Droop, Policy::Ipc, Policy::Random { seed: 1 }] {
            let b = schedule_batch(&o, policy);
            assert_eq!(b.pairs.len(), BATCH_COMBINATIONS, "{policy}");
        }
    }

    #[test]
    fn droop_policy_minimizes_droops_relative_to_random() {
        let o = oracle();
        let droop = schedule_batch(&o, Policy::Droop);
        let randoms: Vec<f64> = (0..10)
            .map(|s| schedule_batch(&o, Policy::Random { seed: s }).normalized_droops)
            .collect();
        let rand_mean = randoms.iter().sum::<f64>() / randoms.len() as f64;
        assert!(
            droop.normalized_droops <= rand_mean,
            "droop {:.3} vs random mean {:.3}",
            droop.normalized_droops,
            rand_mean
        );
    }

    #[test]
    fn ipc_policy_maximizes_ipc_relative_to_random() {
        let o = oracle();
        let ipc = schedule_batch(&o, Policy::Ipc);
        let randoms: Vec<f64> = (0..10)
            .map(|s| schedule_batch(&o, Policy::Random { seed: s }).normalized_ipc)
            .collect();
        let rand_mean = randoms.iter().sum::<f64>() / randoms.len() as f64;
        assert!(
            ipc.normalized_ipc >= rand_mean,
            "ipc {:.3} vs random mean {:.3}",
            ipc.normalized_ipc,
            rand_mean
        );
    }

    #[test]
    fn random_schedules_are_reproducible() {
        let o = oracle();
        let a = schedule_batch(&o, Policy::Random { seed: 5 });
        let b = schedule_batch(&o, Policy::Random { seed: 5 });
        assert_eq!(a.pairs, b.pairs);
    }

    #[test]
    fn quadrants_partition_the_plane() {
        let b = BatchSchedule {
            policy: Policy::Droop,
            pairs: vec![],
            normalized_droops: 0.8,
            normalized_ipc: 1.1,
        };
        assert_eq!(b.quadrant(), 1);
        let b2 = BatchSchedule {
            normalized_droops: 1.2,
            normalized_ipc: 0.9,
            ..b.clone()
        };
        assert_eq!(b2.quadrant(), 3);
    }

    #[test]
    fn scatter_includes_all_policies() {
        let o = oracle();
        let s = policy_scatter(&o, 5);
        assert_eq!(s.len(), 8);
        assert!(s.iter().any(|b| matches!(b.policy, Policy::Droop)));
        assert!(s
            .iter()
            .any(|b| matches!(b.policy, Policy::IpcOverDroopN { .. })));
    }
}
