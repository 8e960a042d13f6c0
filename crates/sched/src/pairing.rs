//! Pluggable pair-selection policies over *software-visible* job
//! signals.
//!
//! [`Policy::score`] ranks pairs through the oracle's pre-measured
//! 29×29 table — fine for the paper's offline study, useless for a
//! service that meets jobs it has never measured. This module extracts
//! the decision into a trait, [`PairPolicy`], whose inputs are only
//! what a production scheduler can actually observe online: per-job
//! EWMA telemetry derived from [`PerfCounters`]-style sampling
//! (stall ratio, IPC, measured droop rate), so the service can swap
//! policies behind one interface.
//!
//! The online Droop policy leans on the paper's Fig. 15 result — a
//! 0.97 correlation between stall ratio and droop count — so ranking
//! pairs by combined stall ratio ranks them by expected noise.
//!
//! [`PerfCounters`]: vsmooth_uarch::PerfCounters

/// The software-visible signals of one schedulable job.
#[derive(Debug, Clone, PartialEq)]
pub struct PairCandidate {
    /// Stable job id (used for deterministic tie-breaks and hashing).
    pub job: u64,
    /// Workload name (`vsmooth-workload` catalog entry).
    pub workload: String,
    /// EWMA stall ratio from counter sampling (or a neutral prior for
    /// jobs with no history yet).
    pub stall_ratio: f64,
    /// EWMA instructions-per-cycle.
    pub ipc: f64,
    /// EWMA droop events per kilocycle attributed to this job's chip
    /// while it ran (0 until first observed).
    pub droops_per_kilocycle: f64,
}

/// A pair-selection policy: how desirable is co-scheduling `a` with
/// `b`, judged from online signals only. Higher scores are better.
///
/// Implementations must be deterministic functions of their inputs —
/// the service guarantees worker-count-independent schedules only if
/// every policy is.
pub trait PairPolicy: Send + Sync {
    /// Human-readable policy name (used in reports).
    fn name(&self) -> String;

    /// Desirability of co-scheduling `a` and `b`; higher is better.
    /// Must be symmetric in `a`/`b` and finite.
    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64;
}

/// Online Droop policy: minimize expected noise, predicted from the
/// pair's combined stall ratio (Fig. 15: stall ratio tracks droops).
/// Jobs that have already exhibited droops add their measured rate,
/// so the estimate sharpens as telemetry accumulates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineDroop;

impl PairPolicy for OnlineDroop {
    fn name(&self) -> String {
        "Droop(online)".into()
    }

    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64 {
        // Stall ratio is the predictor; the measured droop rate (per
        // kilocycle, scaled into comparable units) is the corrector.
        let noise = |c: &PairCandidate| c.stall_ratio + 0.02 * c.droops_per_kilocycle;
        -(noise(a) + noise(b))
    }
}

/// Online IPC policy: maximize throughput, pairing the fastest jobs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineIpc;

impl PairPolicy for OnlineIpc {
    fn name(&self) -> String {
        "IPC(online)".into()
    }

    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64 {
        a.ipc + b.ipc
    }
}

/// Random pairing control: a deterministic hash of the job ids stands
/// in for a random score, so schedules stay reproducible for a fixed
/// seed and independent of evaluation order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomPairing {
    /// Seed mixed into every pair score.
    pub seed: u64,
}

impl PairPolicy for RandomPairing {
    fn name(&self) -> String {
        format!("Random({})", self.seed)
    }

    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64 {
        // Order-independent SplitMix64-style mix of (seed, {a, b}).
        let (lo, hi) = if a.job <= b.job {
            (a.job, b.job)
        } else {
            (b.job, a.job)
        };
        let mut z = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(lo)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(hi);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    }
}

/// SPECrate-style baseline: prefer pairing a workload with another
/// instance of itself (the paper's homogeneous-multiprogramming
/// reference point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SameWorkload;

impl PairPolicy for SameWorkload {
    fn name(&self) -> String {
        "SPECrate".into()
    }

    fn score_pair(&self, a: &PairCandidate, b: &PairCandidate) -> f64 {
        f64::from(a.workload == b.workload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(job: u64, name: &str, stall: f64, ipc: f64, droops: f64) -> PairCandidate {
        PairCandidate {
            job,
            workload: name.into(),
            stall_ratio: stall,
            ipc,
            droops_per_kilocycle: droops,
        }
    }

    #[test]
    fn online_droop_prefers_quiet_pairs() {
        let quiet = cand(0, "q", 0.05, 1.2, 0.5);
        let noisy = cand(1, "n", 0.40, 0.6, 12.0);
        let quiet2 = cand(2, "q", 0.06, 1.1, 0.6);
        let p = OnlineDroop;
        assert!(p.score_pair(&quiet, &quiet2) > p.score_pair(&quiet, &noisy));
        assert!(p.score_pair(&quiet, &noisy) > p.score_pair(&noisy, &noisy.clone()));
    }

    #[test]
    fn online_ipc_prefers_fast_pairs() {
        let fast = cand(0, "f", 0.1, 1.8, 1.0);
        let slow = cand(1, "s", 0.1, 0.4, 1.0);
        let p = OnlineIpc;
        assert!(p.score_pair(&fast, &fast.clone()) > p.score_pair(&fast, &slow));
    }

    #[test]
    fn random_scores_are_symmetric_and_seed_dependent() {
        let a = cand(7, "a", 0.1, 1.0, 0.0);
        let b = cand(9, "b", 0.2, 0.9, 0.0);
        let p1 = RandomPairing { seed: 1 };
        let p2 = RandomPairing { seed: 2 };
        assert_eq!(p1.score_pair(&a, &b), p1.score_pair(&b, &a));
        assert_ne!(p1.score_pair(&a, &b), p2.score_pair(&a, &b));
        let s = p1.score_pair(&a, &b);
        assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn same_workload_scores_self_pairs_highest() {
        let a = cand(0, "473.astar", 0.1, 1.0, 0.0);
        let b = cand(1, "473.astar", 0.1, 1.0, 0.0);
        let c = cand(2, "429.mcf", 0.1, 1.0, 0.0);
        let p = SameWorkload;
        assert!(p.score_pair(&a, &b) > p.score_pair(&a, &c));
    }

    #[test]
    fn policy_names_are_distinct() {
        let names = [
            OnlineDroop.name(),
            OnlineIpc.name(),
            RandomPairing { seed: 0 }.name(),
            SameWorkload.name(),
        ];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
