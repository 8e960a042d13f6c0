//! The synthetic benchmark catalog: 29 SPEC CPU2006 workloads and 11
//! PARSEC workloads.
//!
//! The paper runs the real suites to completion on real silicon. We
//! cannot ship SPEC, so each benchmark is modelled as a phase timeline
//! whose stall-event mixes reflect its well-known microarchitectural
//! character (e.g. `mcf` is memory-bound, `sjeng` is branchy,
//! `libquantum` is uniform streaming) and whose *noise phase* structure
//! reproduces what the paper reports:
//!
//! * `sphinx3` — "no phase effects … stable around 100 droops per 1000
//!   clock cycles" (Fig. 14a),
//! * `gamess` — "four phase changes where voltage droop activity varies
//!   between 60 and 100" (Fig. 14b),
//! * `tonto` — "more complicated phase changes … oscillating strongly"
//!   (Fig. 14c),
//! * `astar` — flat droop profile built from *different* event mixes,
//!   which is what makes its sliding-window self co-schedule show both
//!   constructive and destructive interference (Fig. 16).

use crate::phase::{EventMix, Phase, PhaseTimeline};
use crate::stream::EventStream;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Whether the workload occupies one core or all cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Threading {
    /// One thread, one core.
    Single,
    /// One thread per core, sharing the phase timeline.
    Multi,
}

/// A named, phase-structured workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    name: String,
    threading: Threading,
    timeline: PhaseTimeline,
}

impl Workload {
    /// Creates a workload from its parts.
    pub fn new(name: impl Into<String>, threading: Threading, timeline: PhaseTimeline) -> Self {
        Self {
            name: name.into(),
            threading,
            timeline,
        }
    }

    /// Benchmark name (e.g. `"473.astar"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Threading model.
    pub fn threading(&self) -> Threading {
        self.threading
    }

    /// The phase timeline.
    pub fn timeline(&self) -> &PhaseTimeline {
        &self.timeline
    }

    /// Program length in measurement intervals.
    pub fn total_intervals(&self) -> u32 {
        self.timeline.total_intervals()
    }

    /// A deterministic seed derived from the workload name and an
    /// instance number (so two co-scheduled copies of the same program
    /// do not phase-lock).
    pub fn seed(&self, instance: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h ^ instance.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Renders the workload as a per-cycle stimulus stream.
    pub fn stream(&self, instance: u64, cycles_per_interval: u64) -> EventStream {
        EventStream::new(
            self.name.clone(),
            self.timeline.clone(),
            self.seed(instance),
            cycles_per_interval,
        )
    }
}

/// Mix builder shorthand: `[l1, l2, tlb, br, excp]` rates per kilocycle.
const fn mix(intensity: f64, rates: [f64; 5]) -> EventMix {
    EventMix { intensity, rates }
}

/// Character archetypes; individual benchmarks perturb these.
mod archetype {
    use super::*;

    pub(super) const fn branchy(i: f64, br: f64) -> EventMix {
        mix(i, [12.0, 0.8, 1.0, br, 0.02])
    }

    pub(super) const fn memory(i: f64, l2: f64) -> EventMix {
        mix(i, [18.0, l2, 2.0, 8.0, 0.01])
    }

    pub(super) const fn compute(i: f64) -> EventMix {
        mix(i, [5.0, 0.3, 0.3, 5.0, 0.005])
    }

    pub(super) const fn streaming(i: f64, l2: f64) -> EventMix {
        mix(i, [25.0, l2, 0.5, 2.0, 0.0])
    }

    pub(super) const fn tlb_heavy(i: f64, tlb: f64) -> EventMix {
        mix(i, [10.0, 3.0, tlb, 6.0, 0.01])
    }
}

fn flat(name: &str, intervals: u32, m: EventMix) -> Workload {
    Workload::new(name, Threading::Single, PhaseTimeline::flat(intervals, m))
}

fn phased(name: &str, phases: Vec<(u32, EventMix)>) -> Workload {
    let phases = phases
        .into_iter()
        .map(|(intervals, mix)| Phase { intervals, mix })
        .collect();
    Workload::new(name, Threading::Single, PhaseTimeline::new(phases))
}

/// The 29 SPEC CPU2006 workloads of the paper's Fig. 15, in the figure's
/// alphabetical order.
pub fn spec2006() -> Vec<Workload> {
    use archetype::*;
    vec![
        // astar: flat droop level built from two *different* mixes — a
        // branch-misprediction phase and a memory phase — so self
        // co-scheduling shows both interference signs (Fig. 16).
        phased(
            "473.astar",
            vec![
                (4, branchy(0.85, 30.0)),
                (3, memory(0.70, 5.5)),
                (2, branchy(0.85, 30.0)),
            ],
        ),
        flat("410.bwaves", 18, memory(0.72, 5.0)),
        phased(
            "401.bzip2",
            vec![
                (4, branchy(0.82, 22.0)),
                (3, memory(0.75, 3.5)),
                (4, branchy(0.82, 22.0)),
            ],
        ),
        flat("436.cactusADM", 20, tlb_heavy(0.75, 9.0)),
        flat("454.calculix", 14, compute(1.0)),
        flat("447.dealII", 12, mix(0.9, [9.0, 1.2, 0.8, 12.0, 0.01])),
        // gamess: four phases, droop level alternating 60..100 (Fig. 14b).
        phased(
            "416.gamess",
            vec![
                (2, compute(1.0)),
                (3, mix(0.9, [14.0, 1.0, 1.0, 18.0, 0.01])),
                (2, compute(1.0)),
                (2, mix(0.9, [14.0, 1.0, 1.0, 18.0, 0.01])),
            ],
        ),
        phased(
            "403.gcc",
            vec![
                (3, branchy(0.8, 26.0)),
                (2, memory(0.7, 4.0)),
                (3, branchy(0.8, 26.0)),
            ],
        ),
        flat("459.GemsFDTD", 19, memory(0.68, 6.0)),
        flat("445.gobmk", 15, branchy(0.83, 34.0)),
        flat("435.gromacs", 13, compute(0.98)),
        flat("464.h264ref", 16, mix(0.95, [10.0, 0.8, 0.5, 14.0, 0.01])),
        flat("456.hmmer", 11, compute(1.02)),
        flat("470.lbm", 17, streaming(0.72, 7.0)),
        flat("437.leslie3d", 18, memory(0.7, 5.5)),
        // libquantum: perfectly uniform streaming — the one benchmark in
        // Fig. 17 with essentially no co-scheduling variance.
        flat("462.libquantum", 16, streaming(0.75, 8.0)),
        flat("429.mcf", 22, memory(0.62, 10.0)),
        flat("433.milc", 17, memory(0.68, 7.0)),
        flat("444.namd", 13, compute(1.0)),
        phased(
            "471.omnetpp",
            vec![
                (4, memory(0.68, 6.5)),
                (3, branchy(0.78, 18.0)),
                (4, memory(0.68, 6.5)),
            ],
        ),
        phased(
            "400.perlbench",
            vec![
                (3, branchy(0.84, 28.0)),
                (3, mix(0.9, [10.0, 1.0, 1.5, 16.0, 0.05])),
                (2, branchy(0.84, 28.0)),
            ],
        ),
        flat("453.povray", 12, compute(1.05)),
        flat("458.sjeng", 16, branchy(0.84, 38.0)),
        flat("450.soplex", 18, memory(0.66, 8.0)),
        // sphinx3: no phases; stable near the top of the droop range
        // (Fig. 14a, ~100 droops per kilocycle).
        flat("482.sphinx3", 28, mix(0.84, [22.0, 2.5, 2.0, 30.0, 0.02])),
        // tonto: oscillating phases every interval or two (Fig. 14c).
        phased(
            "465.tonto",
            vec![
                (3, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
                (2, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
                (3, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
                (2, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
                (3, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
                (3, compute(1.0)),
                (3, mix(0.86, [16.0, 1.5, 1.5, 22.0, 0.02])),
            ],
        ),
        flat("481.wrf", 20, tlb_heavy(0.74, 7.0)),
        flat("483.xalancbmk", 15, branchy(0.8, 24.0)),
        flat("434.zeusmp", 17, tlb_heavy(0.72, 6.0)),
    ]
}

/// The 11 PARSEC multi-threaded workloads (both cores run the shared
/// timeline with different stream seeds).
pub fn parsec() -> Vec<Workload> {
    use archetype::*;
    let mt = |name: &str, timeline: PhaseTimeline| Workload::new(name, Threading::Multi, timeline);
    vec![
        mt("blackscholes", PhaseTimeline::flat(10, compute(1.0))),
        mt(
            "bodytrack",
            PhaseTimeline::new(vec![
                Phase {
                    intervals: 3,
                    mix: branchy(0.8, 20.0),
                },
                Phase {
                    intervals: 3,
                    mix: memory(0.7, 5.0),
                },
                Phase {
                    intervals: 3,
                    mix: branchy(0.8, 20.0),
                },
            ]),
        ),
        mt("canneal", PhaseTimeline::flat(14, memory(0.62, 9.0))),
        mt(
            "dedup",
            PhaseTimeline::new(vec![
                Phase {
                    intervals: 3,
                    mix: streaming(0.75, 6.0),
                },
                Phase {
                    intervals: 3,
                    mix: branchy(0.8, 18.0),
                },
                Phase {
                    intervals: 3,
                    mix: streaming(0.75, 6.0),
                },
            ]),
        ),
        mt(
            "facesim",
            PhaseTimeline::flat(15, mix(0.85, [12.0, 2.0, 1.5, 10.0, 0.01])),
        ),
        mt("ferret", PhaseTimeline::flat(12, memory(0.7, 6.0))),
        mt(
            "fluidanimate",
            PhaseTimeline::flat(13, mix(0.88, [14.0, 1.5, 1.0, 9.0, 0.01])),
        ),
        mt("freqmine", PhaseTimeline::flat(12, branchy(0.8, 22.0))),
        mt(
            "streamcluster",
            PhaseTimeline::flat(14, streaming(0.7, 8.0)),
        ),
        mt("swaptions", PhaseTimeline::flat(10, compute(1.03))),
        mt(
            "x264",
            PhaseTimeline::flat(12, mix(0.9, [11.0, 1.0, 0.8, 16.0, 0.02])),
        ),
    ]
}

/// Looks a workload up by name across both suites. The catalog is
/// built once per process; a call clones only the workload it finds.
pub fn by_name(name: &str) -> Option<Workload> {
    static CATALOG: OnceLock<Vec<Workload>> = OnceLock::new();
    CATALOG
        .get_or_init(|| spec2006().into_iter().chain(parsec()).collect())
        .iter()
        .find(|w| w.name() == name)
        .cloned()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Duration-weighted stall-ratio estimate across a workload's
    /// phases (the software-side proxy Fig. 15 plots droops against).
    fn avg_stall_ratio_estimate(w: &Workload) -> f64 {
        let t = w.timeline();
        t.phases()
            .iter()
            .map(|p| f64::from(p.intervals) * p.mix.stall_ratio_estimate())
            .sum::<f64>()
            / f64::from(t.total_intervals())
    }

    #[test]
    fn suite_sizes_match_paper() {
        assert_eq!(spec2006().len(), 29, "29 single-threaded CPU2006 workloads");
        assert_eq!(parsec().len(), 11, "11 Parsec programs");
    }

    #[test]
    fn names_are_unique() {
        let names: HashSet<String> = spec2006()
            .iter()
            .chain(parsec().iter())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(names.len(), 40);
    }

    #[test]
    fn all_timelines_are_valid_and_nonempty() {
        for w in spec2006().into_iter().chain(parsec()) {
            assert!(w.total_intervals() >= 8, "{} too short", w.name());
            for p in w.timeline().phases() {
                p.mix.assert_valid();
            }
        }
    }

    #[test]
    fn spec_is_single_threaded_parsec_is_multi() {
        assert!(spec2006()
            .iter()
            .all(|w| w.threading() == Threading::Single));
        assert!(parsec().iter().all(|w| w.threading() == Threading::Multi));
    }

    #[test]
    fn stall_ratios_are_heterogeneous() {
        // Fig. 15: "a heterogeneous mix of noise levels".
        let ratios: Vec<f64> = spec2006().iter().map(avg_stall_ratio_estimate).collect();
        let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.15, "quietest stall ratio = {min:.2}");
        assert!(max > 0.5, "noisiest stall ratio = {max:.2}");
    }

    #[test]
    fn gamess_has_four_phase_changes() {
        let g = by_name("416.gamess").unwrap();
        assert_eq!(g.timeline().phases().len(), 4);
    }

    #[test]
    fn tonto_oscillates() {
        let t = by_name("465.tonto").unwrap();
        assert!(
            t.timeline().phases().len() >= 8,
            "tonto should oscillate between mixes"
        );
    }

    #[test]
    fn sphinx_is_flat() {
        let s = by_name("482.sphinx3").unwrap();
        assert_eq!(s.timeline().phases().len(), 1);
    }

    #[test]
    fn seeds_differ_per_instance_and_name() {
        let a = by_name("473.astar").unwrap();
        assert_ne!(a.seed(0), a.seed(1));
        let b = by_name("429.mcf").unwrap();
        assert_ne!(a.seed(0), b.seed(0));
    }

    #[test]
    fn by_name_misses_return_none() {
        assert!(by_name("999.nonexistent").is_none());
    }

    #[test]
    fn streams_render_with_requested_fidelity() {
        let w = by_name("429.mcf").unwrap();
        let s = w.stream(0, 1000);
        assert_eq!(s.total_cycles(), u64::from(w.total_intervals()) * 1000);
    }
}
