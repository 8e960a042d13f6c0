//! Seeded scenario generation for the metamorphic property suites.
//!
//! Everything here is a plain function over the deterministic
//! [`TestRng`] from the vendored `proptest` stub, so the same seed
//! always reproduces the same scenario — a failing property prints its
//! seed and the run can be replayed exactly. The [`strategy_of`]
//! adapter lifts any such function into a [`Strategy`], so generators
//! compose with `proptest!` bindings and `prop_map`.
//!
//! Generators only ever produce *valid* domain objects (ladders that
//! pass [`LadderStage::validate`], event mixes that satisfy
//! [`EventMix::assert_valid`], …): properties should probe behaviour on
//! the legal input space, while the dedicated error-path tests cover
//! rejection of illegal inputs.

use proptest::{Strategy, TestRng};
use vsmooth_chip::ChipConfig;
use vsmooth_pdn::{DecapConfig, LadderConfig, LadderStage};
use vsmooth_serve::{synthetic_jobs, JobSpec};
use vsmooth_workload::{EventMix, Phase, PhaseTimeline, Threading, Workload};

/// A [`Strategy`] backed by a plain `Fn(&mut TestRng) -> T` generator.
///
/// Produced by [`strategy_of`]; lets the seeded generator functions in
/// this module participate in `proptest!` bindings.
#[derive(Debug, Clone)]
pub struct FnStrategy<F>(F);

impl<F, T> Strategy for FnStrategy<F>
where
    F: Fn(&mut TestRng) -> T,
{
    type Value = T;
    fn pick_value(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// Lifts a seeded generator function into a [`Strategy`].
///
/// # Examples
///
/// ```
/// use proptest::prelude::*;
/// use vsmooth_testkit::generator::{gen_ladder, strategy_of};
///
/// proptest! {
///     fn ladders_have_stages(pdn in strategy_of(gen_ladder)) {
///         prop_assert!(!pdn.stages().is_empty());
///     }
/// }
/// ladders_have_stages();
/// ```
pub fn strategy_of<F, T>(f: F) -> FnStrategy<F>
where
    F: Fn(&mut TestRng) -> T,
{
    FnStrategy(f)
}

/// Uniform draw on a logarithmic scale over `[lo, hi]` — the right
/// distribution for circuit element values, which span decades.
///
/// # Panics
///
/// Panics unless `0 < lo <= hi` and both are finite.
pub(crate) fn log_uniform(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    assert!(
        lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi,
        "invalid log-uniform range [{lo}, {hi}]"
    );
    (lo.ln() + (hi.ln() - lo.ln()) * rng.unit_f64()).exp()
}

/// A random valid RLC ladder stage, with element values spanning the
/// decades that occur in real VRM-to-die paths.
pub fn gen_stage(rng: &mut TestRng) -> LadderStage {
    LadderStage {
        series_r: log_uniform(rng, 0.05e-3, 5.0e-3),
        series_l: log_uniform(rng, 1.0e-12, 5.0e-9),
        shunt_c: log_uniform(rng, 10.0e-9, 1.0e-3),
        shunt_esr: log_uniform(rng, 0.05e-3, 5.0e-3),
    }
}

/// A random valid ladder PDN: one to four stages of [`gen_stage`] and a
/// nominal voltage in the sub-2 V core supply range.
pub fn gen_ladder(rng: &mut TestRng) -> LadderConfig {
    let n_stages = 1 + rng.below(4) as usize;
    let stages: Vec<LadderStage> = (0..n_stages).map(|_| gen_stage(rng)).collect();
    let vdd = 0.8 + 0.9 * rng.unit_f64();
    LadderConfig::new("testkit-random", stages, vdd).expect("generated stages are valid")
}

/// A random decap-retention level, anywhere in `Proc0..=Proc100` (not
/// just the paper's six sweep points).
pub(crate) fn gen_decap(rng: &mut TestRng) -> DecapConfig {
    DecapConfig::with_percent(rng.below(101) as u8)
}

/// A random chip: the Core 2 Duo platform with a random decap level
/// and a perturbed core clock (the PDN discretization step moves with
/// it, so time-step handling gets exercised too).
pub fn gen_chip(rng: &mut TestRng) -> ChipConfig {
    let mut chip = ChipConfig::core2_duo(gen_decap(rng));
    chip.clock_hz = 1.4e9 + 1.2e9 * rng.unit_f64();
    chip
}

/// A random valid stall-event mix (intensity and per-kilocycle rates
/// inside the ranges the catalog workloads use).
pub(crate) fn gen_event_mix(rng: &mut TestRng) -> EventMix {
    let mix = EventMix {
        intensity: 0.1 + 1.0 * rng.unit_f64(),
        rates: [
            30.0 * rng.unit_f64(), // L1
            8.0 * rng.unit_f64(),  // L2
            4.0 * rng.unit_f64(),  // TLB
            20.0 * rng.unit_f64(), // BR
            0.5 * rng.unit_f64(),  // EXCP
        ],
    };
    mix.assert_valid();
    mix
}

/// A random single-threaded synthetic workload named `name`: one to
/// four phases of one to four intervals each.
pub fn gen_workload(rng: &mut TestRng, name: &str) -> Workload {
    let phases: Vec<Phase> = (0..1 + rng.below(4))
        .map(|_| Phase {
            intervals: 1 + rng.below(4) as u32,
            mix: gen_event_mix(rng),
        })
        .collect();
    Workload::new(name, Threading::Single, PhaseTimeline::new(phases))
}

/// A pool of `n` random workloads with distinct names (`gen-0`,
/// `gen-1`, …) — the unit the scheduler oracles and batch cross-checks
/// consume.
pub fn gen_workload_pool(rng: &mut TestRng, n: usize) -> Vec<Workload> {
    (0..n)
        .map(|i| gen_workload(rng, &format!("gen-{i}")))
        .collect()
}

/// A random job-submission stream for the serving tests: `count` jobs
/// with the given mean interarrival gap, drawn from the CPU2006 catalog
/// via [`synthetic_jobs`] under a seed taken from `rng`.
pub fn gen_job_stream(rng: &mut TestRng, count: usize, mean_interarrival: u64) -> Vec<JobSpec> {
    synthetic_jobs(rng.next_u64(), count, mean_interarrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let mut a = TestRng::new(7);
        let mut b = TestRng::new(7);
        assert_eq!(gen_ladder(&mut a), gen_ladder(&mut b));
        assert_eq!(gen_workload_pool(&mut a, 3), gen_workload_pool(&mut b, 3));
        assert_eq!(
            gen_job_stream(&mut a, 5, 100),
            gen_job_stream(&mut b, 5, 100)
        );
    }

    #[test]
    fn generated_ladders_are_always_valid() {
        let mut rng = TestRng::new(0xBEEF);
        for _ in 0..200 {
            let pdn = gen_ladder(&mut rng);
            assert!(!pdn.stages().is_empty() && pdn.stages().len() <= 4);
            for s in pdn.stages() {
                s.validate().expect("generated stage must be valid");
            }
            pdn.state_space().expect("state space must assemble");
        }
    }

    #[test]
    fn generated_chips_and_mixes_are_valid() {
        let mut rng = TestRng::new(0xCAFE);
        for _ in 0..100 {
            gen_chip(&mut rng).validate().expect("valid chip");
            gen_event_mix(&mut rng).assert_valid();
        }
    }

    #[test]
    fn log_uniform_stays_in_range() {
        let mut rng = TestRng::new(3);
        for _ in 0..1000 {
            let v = log_uniform(&mut rng, 1e-12, 1e-3);
            assert!((1e-12..=1e-3).contains(&v), "v={v:e}");
        }
    }

    proptest! {
        #[test]
        fn strategy_adapter_feeds_proptest(pool in strategy_of(|r: &mut TestRng| gen_workload_pool(r, 2))) {
            prop_assert_eq!(pool.len(), 2);
            prop_assert!(pool[0].total_intervals() >= 1);
        }
    }
}
