//! Workload runners: the building blocks for single-threaded,
//! multi-threaded and multi-program (pair) measurements. Each returns
//! the run's [`RunStats`] and nothing else: droop crossings, waveform
//! windows and invariant reports are armed on a
//! [`ChipSession`](crate::ChipSession), where the serving shards
//! capture them.

use crate::batch::ChipBatch;
use crate::chip::{Chip, ChipConfig};
use crate::fidelity::Fidelity;
use crate::stats::RunStats;
use crate::ChipError;
use std::collections::VecDeque;
use std::sync::Mutex;
use vsmooth_uarch::{IdleLoop, StimulusSource};
use vsmooth_workload::{Threading, Workload};

/// Anything a runner can obtain fresh chips from: a plain
/// [`ChipConfig`] (full setup per run) or a [`ChipBatch`] (one-time
/// setup amortized across runs). Campaign-scale sweeps should pass a
/// batch; one-off measurements a config. Both produce byte-identical
/// runs.
pub trait ChipSource {
    /// The configuration every built chip will carry.
    fn chip_config(&self) -> &ChipConfig;

    /// Builds one fresh chip at the settled idle operating point.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Chip::new`].
    fn build_chip(&self) -> Result<Chip, ChipError>;
}

impl ChipSource for ChipConfig {
    fn chip_config(&self) -> &ChipConfig {
        self
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        Chip::new(self.clone())
    }
}

impl ChipSource for ChipBatch {
    fn chip_config(&self) -> &ChipConfig {
        self.config()
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        Ok(self.build())
    }
}

impl<T: ChipSource + ?Sized> ChipSource for &T {
    fn chip_config(&self) -> &ChipConfig {
        (**self).chip_config()
    }

    fn build_chip(&self) -> Result<Chip, ChipError> {
        (**self).build_chip()
    }
}

/// Runs one workload to completion on the chip.
///
/// Single-threaded workloads occupy core 0 while the other cores idle;
/// multi-threaded workloads put one stream instance on every core.
///
/// # Errors
///
/// Propagates chip construction/run errors.
pub fn run_workload(
    cfg: &impl ChipSource,
    workload: &Workload,
    fidelity: Fidelity,
) -> Result<RunStats, ChipError> {
    fidelity.validate()?;
    let cpi = fidelity.cycles_per_interval();
    let total = u64::from(workload.total_intervals()) * cpi;
    let num_cores = cfg.chip_config().num_cores;
    let mut chip = cfg.build_chip()?;
    match workload.threading() {
        Threading::Single => {
            let mut stream = workload.stream(0, cpi);
            let mut idles: Vec<IdleLoop> = (1..num_cores).map(|_| IdleLoop::default()).collect();
            let mut sources: Vec<&mut dyn StimulusSource> = Vec::with_capacity(num_cores);
            sources.push(&mut stream);
            sources.extend(idles.iter_mut().map(|i| i as &mut dyn StimulusSource));
            chip.run(&mut sources, total, cpi)
        }
        Threading::Multi => {
            let mut streams: Vec<_> = (0..num_cores as u64)
                .map(|i| workload.stream(i, cpi))
                .collect();
            let mut sources: Vec<&mut dyn StimulusSource> = streams
                .iter_mut()
                .map(|s| s as &mut dyn StimulusSource)
                .collect();
            chip.run(&mut sources, total, cpi)
        }
    }
}

/// Runs a multi-program pair `(a, b)` with `a` on core 0 and `b` on
/// core 1 until the longer program finishes; the shorter restarts as
/// needed so both cores stay busy (the SPECrate-style methodology of
/// the paper's 29 × 29 sweep).
///
/// # Errors
///
/// Returns [`ChipError::InvalidConfig`] unless the chip has exactly two
/// cores, plus any chip run error.
pub fn run_pair(
    cfg: &impl ChipSource,
    a: &Workload,
    b: &Workload,
    fidelity: Fidelity,
) -> Result<RunStats, ChipError> {
    if cfg.chip_config().num_cores != 2 {
        return Err(ChipError::InvalidConfig(
            "pair runs require a two-core chip",
        ));
    }
    fidelity.validate()?;
    let cpi = fidelity.cycles_per_interval();
    let intervals = workload_pair_intervals(a, b);
    let total = u64::from(intervals) * cpi;
    let mut chip = cfg.build_chip()?;
    // Distinct instances so two copies of the same program do not
    // phase-lock (the paper's SPECrate runs are separate processes).
    let mut sa = a.stream(0, cpi);
    let mut sb = b.stream(1, cpi);
    sa.set_looping(true);
    sb.set_looping(true);
    let mut sources: Vec<&mut dyn StimulusSource> = vec![&mut sa, &mut sb];
    chip.run(&mut sources, total, cpi)
}

/// Maps `f` over `items` on up to `threads` scoped OS threads, each
/// claiming the next unclaimed item from a shared queue, and returns
/// the results in input order — so independent runs fan out while
/// everything downstream, including which error is reported first, sees
/// one canonical order whatever the thread count. It starts no more
/// threads than there are items, and none when one worker would do:
/// then `f` runs on the caller's thread.
pub fn fan_out<T: Send, R: Send>(
    items: impl IntoIterator<Item = T>,
    threads: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let queue: VecDeque<(usize, T)> = items.into_iter().enumerate().collect();
    let n = queue.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return queue.into_iter().map(|(_, item)| f(item)).collect();
    }
    let queue = Mutex::new(queue);
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let item = queue.lock().expect("queue lock").pop_front();
                let Some((idx, item)) = item else { break };
                let out = f(item);
                results.lock().expect("results lock")[idx] = Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|slot| slot.expect("every queued item completes"))
        .collect()
}

/// Duration (in intervals) of a pair run: the longer program's length.
pub(crate) fn workload_pair_intervals(a: &Workload, b: &Workload) -> u32 {
    a.total_intervals().max(b.total_intervals())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vsmooth_pdn::DecapConfig;
    use vsmooth_workload::by_name;

    fn cfg() -> ChipConfig {
        ChipConfig::core2_duo(DecapConfig::proc100())
    }

    #[test]
    fn single_threaded_run_completes() {
        let w = by_name("456.hmmer").unwrap();
        let stats = run_workload(&cfg(), &w, Fidelity::Custom(2_000)).unwrap();
        assert_eq!(stats.droops_per_interval.len() as u32, w.total_intervals());
        assert!(stats.ipc() > 0.0);
        // Core 1 idles: only OS background bursts commit there.
        assert!(
            stats.core_counters[1].instructions() < 0.05 * stats.core_counters[0].instructions(),
            "idle core committed {} vs busy {}",
            stats.core_counters[1].instructions(),
            stats.core_counters[0].instructions()
        );
    }

    #[test]
    fn multithreaded_run_uses_both_cores() {
        let w = by_name("canneal").unwrap();
        let stats = run_workload(&cfg(), &w, Fidelity::Custom(2_000)).unwrap();
        assert!(stats.core_counters[0].instructions() > 0.0);
        assert!(stats.core_counters[1].instructions() > 0.0);
    }

    #[test]
    fn pair_run_lasts_as_long_as_the_longer_program() {
        let a = by_name("473.astar").unwrap(); // 9 intervals
        let b = by_name("429.mcf").unwrap(); // 22 intervals
        let stats = run_pair(&cfg(), &a, &b, Fidelity::Custom(1_000)).unwrap();
        assert_eq!(stats.droops_per_interval.len() as u32, 22);
        assert!(stats.core_counters[0].instructions() > 0.0);
        assert!(stats.core_counters[1].instructions() > 0.0);
    }

    #[test]
    fn noisy_workload_droops_more_than_quiet_one() {
        let quiet = by_name("453.povray").unwrap();
        let noisy = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(4_000);
        let q = run_workload(&cfg(), &quiet, f).unwrap();
        let n = run_workload(&cfg(), &noisy, f).unwrap();
        assert!(
            n.droops_per_kilocycle(2.3) > q.droops_per_kilocycle(2.3),
            "sphinx {:.1} vs povray {:.1} droops/kcycle",
            n.droops_per_kilocycle(2.3),
            q.droops_per_kilocycle(2.3)
        );
    }

    #[test]
    fn fan_out_returns_results_in_input_order() {
        for threads in [0, 1, 3, 8] {
            let out = fan_out(0..50u64, threads, |x| x * x);
            assert_eq!(out, (0..50u64).map(|x| x * x).collect::<Vec<_>>());
        }
        assert!(fan_out(Vec::<u8>::new(), 4, |x| x).is_empty());
        // One worker runs every call on the caller's thread.
        let caller = std::thread::current().id();
        let ids = fan_out(0..5u8, 1, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn batched_source_matches_config_source() {
        let batch = ChipBatch::new(cfg()).unwrap();
        let w = by_name("482.sphinx3").unwrap();
        let f = Fidelity::Custom(1_500);
        assert_eq!(
            run_workload(&cfg(), &w, f).unwrap(),
            run_workload(&batch, &w, f).unwrap()
        );
        let b = by_name("429.mcf").unwrap();
        assert_eq!(
            run_pair(&cfg(), &w, &b, f).unwrap(),
            run_pair(&batch, &w, &b, f).unwrap()
        );
    }

    #[test]
    fn zero_custom_fidelity_is_a_typed_error() {
        let w = by_name("473.astar").unwrap();
        assert!(matches!(
            run_workload(&cfg(), &w, Fidelity::Custom(0)),
            Err(ChipError::InvalidConfig(_))
        ));
        assert!(matches!(
            run_pair(&cfg(), &w, &w, Fidelity::Custom(0)),
            Err(ChipError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pair_run_requires_two_cores() {
        let mut c = cfg();
        c.num_cores = 1;
        let a = by_name("473.astar").unwrap();
        assert!(run_pair(&c, &a, &a, Fidelity::Test).is_err());
    }
}
