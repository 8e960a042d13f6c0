//! Stochastic per-cycle event streams rendered from phase timelines.

use crate::phase::PhaseTimeline;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vsmooth_uarch::{CycleStimulus, StallEvent, StimulusSource};

/// A per-cycle stimulus stream sampled from a workload's phase timeline.
///
/// Each running cycle fires stall events as independent Bernoulli trials
/// at the active phase's per-kilocycle rates; the remaining cycles
/// execute at the phase intensity. Interval boundaries advance the
/// timeline; streams are deterministic for a given seed.
///
/// The mix is constant across an interval, so the stream caches the
/// [`PreparedMix`] of the interval it is in together with the cycle at
/// which that interval ends. [`next`](StimulusSource::next) re-derives
/// the mix only when the cache expires: at the next interval boundary,
/// which for a looping stream includes its restart. A restart is the
/// only way the stream's position moves backwards, and it drops the
/// cache.
#[derive(Debug, Clone)]
pub struct EventStream {
    name: String,
    timeline: PhaseTimeline,
    cycles_per_interval: u64,
    cycle: u64,
    rng: StdRng,
    total_cycles: u64,
    base_seed: u64,
    looping: bool,
    restarts: u64,
    /// Telegraph-noise state: current signed amplitude multiplier.
    burst_level: f64,
    /// Cycles until the telegraph flips again.
    burst_flip: u32,
    /// Remaining cycles of the post-miss cluster window, during which
    /// burstiness is elevated (misses arrive in trains and the pipeline
    /// oscillates between drained and refilled).
    cluster_remaining: u32,
    /// Remaining cycles of a resonant burst train (a tight loop whose
    /// activity alternates at a period near a PDN resonance — the rare
    /// virus-like moments that produce the deepest droops the paper
    /// observes, down to -9.6%).
    train_remaining: u32,
    /// Half-period of the active train, in cycles.
    train_half_period: u32,
    /// Cycle position within the train.
    train_pos: u32,
    /// The prepared mix of the interval the stream is in, valid while
    /// `cycle < prepared_until`.
    prepared: PreparedMix,
    /// The interval boundary at which `prepared` expires; zero once
    /// dropped.
    prepared_until: u64,
}

/// An [`EventMix`](crate::phase::EventMix) with every quantity
/// [`step_prepared`](EventStream::step_prepared) derives from it
/// hoisted: the total event rate, the per-cycle event probability and
/// the bound of the telegraph's flip-interval draw. The mix is constant
/// across an interval, so preparing it once per interval removes a
/// five-term float reduction, a division and a `powf` from the
/// per-cycle step without changing a single emitted stimulus (the
/// hoisted values are computed by exactly the per-cycle expressions
/// they replace). [`EventStream`] caches one per interval for
/// [`next`](StimulusSource::next); callers stepping whole slices
/// through [`step_prepared`](EventStream::step_prepared) prepare one
/// per slice with [`current_prepared`](EventStream::current_prepared).
#[derive(Debug, Clone, Copy)]
pub struct PreparedMix {
    mix: crate::phase::EventMix,
    /// `mix.total_rate()`.
    total_rate: f64,
    /// `(total_rate / 1000.0).min(1.0)` — the Bernoulli parameter of
    /// the per-cycle "some event fires" trial.
    p_event: f64,
    /// Exclusive upper bound of the cycles drawn between telegraph
    /// flips: the higher the mix's burstiness, the more often the
    /// telegraph flips.
    flip_bound: u32,
}

impl PreparedMix {
    /// Prepares `mix` for per-cycle stepping.
    pub fn new(mix: crate::phase::EventMix) -> Self {
        let total_rate = mix.total_rate();
        let b = mix.burstiness().max(1e-3);
        let hi = (2.0 / b.powf(2.3)).clamp(14.0, 2_500.0) as u32;
        Self {
            mix,
            total_rate,
            p_event: (total_rate / 1000.0).min(1.0),
            flip_bound: hi.max(15),
        }
    }
}

impl EventStream {
    /// Creates a stream over `timeline`, mapping one measurement
    /// interval to `cycles_per_interval` simulated cycles.
    ///
    /// # Panics
    ///
    /// Panics if `cycles_per_interval` is zero.
    pub fn new(
        name: impl Into<String>,
        timeline: PhaseTimeline,
        seed: u64,
        cycles_per_interval: u64,
    ) -> Self {
        assert!(
            cycles_per_interval > 0,
            "cycles_per_interval must be non-zero"
        );
        let total_cycles = u64::from(timeline.total_intervals()) * cycles_per_interval;
        let prepared = PreparedMix::new(*timeline.mix_at(0));
        Self {
            name: name.into(),
            timeline,
            cycles_per_interval,
            cycle: 0,
            rng: StdRng::seed_from_u64(seed),
            total_cycles,
            base_seed: seed,
            looping: false,
            restarts: 0,
            burst_level: 1.0,
            burst_flip: 24,
            cluster_remaining: 0,
            train_remaining: 0,
            train_half_period: 8,
            train_pos: 0,
            prepared,
            prepared_until: cycles_per_interval,
        }
    }

    /// Makes the stream restart from the beginning (with a fresh seed)
    /// whenever it completes — how the multi-program sweep keeps both
    /// cores busy until the longer program finishes, and how the
    /// sliding-window experiment re-launches `Prog. Y`.
    pub fn set_looping(&mut self, looping: bool) {
        self.looping = looping;
        // A completed stream that starts looping restarts on its next
        // cycle, before its cached mix would expire.
        self.prepared_until = 0;
    }

    /// How many times the stream has restarted (loop mode only).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// The interval the stream is currently in.
    pub fn current_interval(&self) -> u32 {
        (self.cycle / self.cycles_per_interval).min(u64::from(u32::MAX)) as u32
    }

    /// Whether the program has run to completion (the stream keeps
    /// emitting its final phase afterwards, like a re-measured tail).
    pub fn is_finished(&self) -> bool {
        self.cycle >= self.total_cycles
    }

    /// Total program length in cycles at this fidelity.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Cycles per measurement interval at this fidelity.
    pub fn cycles_per_interval(&self) -> u64 {
        self.cycles_per_interval
    }

    /// The [`PreparedMix`] of the interval the stream is currently in.
    ///
    /// The mix is constant for all cycles inside one interval, so a
    /// caller advancing a non-looping stream through a whole
    /// interval-aligned slice may prepare it once and drive the stream
    /// through [`step_prepared`](Self::step_prepared) instead of
    /// [`next`](StimulusSource::next) — same stimuli, same RNG
    /// consumption, without the per-cycle cache check.
    pub fn current_prepared(&self) -> PreparedMix {
        PreparedMix::new(*self.timeline.mix_at(self.current_interval()))
    }

    /// Advances one cycle using a caller-supplied prepared mix.
    ///
    /// This is the body of [`next`](StimulusSource::next) after its
    /// cache check. `next` holds its own precondition by refreshing the
    /// cache at each interval boundary; a caller that steps whole slices
    /// here (the serving shards, the benchmark's stream probe) holds it
    /// instead, and skips the per-cycle boundary compare: it must pass
    /// the mix of the interval the stream is currently in (see
    /// [`current_prepared`](Self::current_prepared)), must not step
    /// across an interval boundary with it, and must not step a looping
    /// stream across its restart boundary.
    #[inline]
    pub fn step_prepared(&mut self, prep: &PreparedMix) -> CycleStimulus {
        let mix = &prep.mix;
        self.cycle += 1;
        // Resonant burst train in progress: a tight loop alternating
        // between full-width issue and a drained pipeline at a period
        // near a package resonance. Rare (a few per million cycles),
        // but responsible for the deepest droops in the distribution.
        if self.train_remaining > 0 {
            self.train_remaining -= 1;
            let phase = (self.train_pos / self.train_half_period) % 2;
            self.train_pos += 1;
            let intensity = if phase == 0 {
                (mix.intensity + 0.55).min(1.4)
            } else {
                0.05
            };
            return CycleStimulus::Active { intensity };
        }
        if self.rng.gen::<f64>() < 4e-6 {
            // Train half-periods cover the stock package resonance
            // (~16-cycle period) through the decap-removed resonances
            // (tens of MHz).
            self.train_half_period = *[8u32, 16, 28, 52]
                .get(self.rng.gen_range(0..4))
                .expect("period table");
            self.train_remaining = self.rng.gen_range(6..14) * self.train_half_period;
            self.train_pos = 0;
        }
        if prep.p_event > 0.0 && self.rng.gen::<f64>() < prep.p_event {
            // Pick which event fired, proportional to its rate.
            let mut pick = self.rng.gen::<f64>() * prep.total_rate;
            let mut fired = StallEvent::Exception;
            for e in StallEvent::ALL {
                pick -= mix.rate(e);
                if pick <= 0.0 {
                    fired = e;
                    break;
                }
            }
            // Misses arrive in trains: noise stays elevated for a window
            // proportional to the stall the event causes.
            self.cluster_remaining = self.cluster_remaining.max(4 * fired.profile().stall_cycles);
            return CycleStimulus::Event {
                event: fired,
                weight: 1.0,
            };
        }
        // Issue burstiness: a random telegraph modulating activity
        // around the phase mean. The *amplitude* of a burst is set by
        // how much work piles up behind a stall (roughly constant in
        // absolute issue slots); what scales with stall activity is the
        // burst *rate* — stall-heavy code flips between drained and
        // refilled far more often. Crossing counts at a fixed margin
        // therefore track the stall ratio linearly, which is the
        // mechanism behind the paper's Fig. 15 correlation of 0.97.
        if self.burst_flip == 0 {
            let dir = -self.burst_level.signum();
            let mut magnitude = self.rng.gen_range(0.3..1.7);
            if self.rng.gen::<f64>() < 0.02 {
                // Rare macro-burst (deep pile-up): the tail of Fig. 7.
                magnitude *= 2.0;
            }
            if self.rng.gen::<f64>() < 0.004 {
                // Very rare alignment of many pile-ups: the deepest
                // droops the paper observes (up to -9.6% across 881
                // runs) come from these.
                magnitude *= 3.0;
            }
            self.burst_level = dir * 0.20 * magnitude;
            self.burst_flip = self.rng.gen_range(10..prep.flip_bound);
        }
        self.burst_flip -= 1;
        // Inside a post-miss cluster window the pipeline oscillates
        // between drained and refilled: bursts run stronger.
        let cluster_gain = if self.cluster_remaining > 0 {
            self.cluster_remaining -= 1;
            1.5
        } else {
            1.0
        };
        let swing = self.burst_level * cluster_gain;
        let intensity = (mix.intensity + swing).max(0.0);
        CycleStimulus::Active { intensity }
    }

    /// Refreshes the cached mix once it has expired: restarts a looping
    /// stream that has completed, then prepares the mix of the interval
    /// the stream is in and caches it until that interval ends.
    #[cold]
    #[inline(never)]
    fn refresh_prepared(&mut self) {
        if self.looping && self.cycle >= self.total_cycles {
            self.restarts += 1;
            let seed = self
                .base_seed
                .wrapping_add(self.restarts.wrapping_mul(0x9e37_79b9));
            self.restart(seed);
        }
        self.prepared = self.current_prepared();
        let interval = self.cycle / self.cycles_per_interval;
        self.prepared_until = (interval + 1).saturating_mul(self.cycles_per_interval);
    }

    /// Restarts the program from the beginning with a fresh seed and
    /// drops the cached mix.
    fn restart(&mut self, seed: u64) {
        self.cycle = 0;
        self.rng = StdRng::seed_from_u64(seed);
        self.prepared_until = 0;
    }
}

impl StimulusSource for EventStream {
    /// Steps the cached mix of the current interval, refreshing it first
    /// if the stream has reached the interval's end (or, looping, its
    /// restart).
    fn next(&mut self) -> CycleStimulus {
        if self.cycle >= self.prepared_until {
            self.refresh_prepared();
        }
        let prep = self.prepared;
        self.step_prepared(&prep)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::{EventMix, Phase};

    fn timeline() -> PhaseTimeline {
        PhaseTimeline::new(vec![
            Phase {
                intervals: 2,
                mix: EventMix {
                    intensity: 0.9,
                    rates: [10.0, 0.0, 0.0, 0.0, 0.0],
                },
            },
            Phase {
                intervals: 1,
                mix: EventMix {
                    intensity: 0.5,
                    rates: [0.0, 0.0, 0.0, 20.0, 0.0],
                },
            },
        ])
    }

    #[test]
    fn stream_respects_phase_boundaries() {
        let mut s = EventStream::new("t", timeline(), 1, 10_000);
        let mut l1 = 0u32;
        let mut br = 0u32;
        for _ in 0..30_000 {
            match s.next() {
                CycleStimulus::Event {
                    event: StallEvent::L1Miss,
                    ..
                } => l1 += 1,
                CycleStimulus::Event {
                    event: StallEvent::BranchMispredict,
                    ..
                } => br += 1,
                _ => {}
            }
        }
        // Expect ~200 L1 events in the first two intervals, ~200 BR in
        // the third; allow generous stochastic slack.
        assert!((120..300).contains(&l1), "l1 = {l1}");
        assert!((120..300).contains(&br), "br = {br}");
        assert!(s.is_finished());
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let run = |seed| {
            let mut s = EventStream::new("t", timeline(), seed, 1000);
            (0..5000)
                .map(|_| matches!(s.next(), CycleStimulus::Event { .. }))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn event_rate_tracks_mix() {
        let flat = PhaseTimeline::flat(
            1,
            EventMix {
                intensity: 1.0,
                rates: [5.0, 5.0, 5.0, 5.0, 0.0],
            },
        );
        let mut s = EventStream::new("t", flat, 9, 100_000);
        let mut events = 0u32;
        for _ in 0..100_000 {
            if matches!(s.next(), CycleStimulus::Event { .. }) {
                events += 1;
            }
        }
        // 20 per kilocycle => ~2000 events.
        assert!((1700..2300).contains(&events), "events = {events}");
    }

    #[test]
    fn looping_stream_restarts_automatically() {
        let mut s = EventStream::new("t", timeline(), 1, 100);
        s.set_looping(true);
        for _ in 0..750 {
            s.next();
        }
        assert_eq!(s.restarts(), 2);
        assert!(!s.is_finished());
        // Interval wraps back into the first phase.
        assert!(s.current_interval() < 3);
    }

    #[test]
    fn total_cycles_scales_with_fidelity() {
        let s = EventStream::new("t", timeline(), 1, 500);
        assert_eq!(s.total_cycles(), 1500);
    }

    /// `next()` as it stood before the stream cached its mix: the loop
    /// restart check, the interval lookup and the mix preparation on
    /// every cycle, and the telegraph's flip bound derived at each flip.
    /// It steps the stream's own state and never reads the cache.
    fn reference_next(s: &mut EventStream) -> CycleStimulus {
        if s.looping && s.cycle >= s.total_cycles {
            s.restarts += 1;
            let seed = s
                .base_seed
                .wrapping_add(s.restarts.wrapping_mul(0x9e37_79b9));
            s.cycle = 0;
            s.rng = StdRng::seed_from_u64(seed);
        }
        let mix = *s.timeline.mix_at(s.current_interval());
        let total_rate = mix.total_rate();
        let p_event = (total_rate / 1000.0).min(1.0);
        s.cycle += 1;
        if s.train_remaining > 0 {
            s.train_remaining -= 1;
            let phase = (s.train_pos / s.train_half_period) % 2;
            s.train_pos += 1;
            let intensity = if phase == 0 {
                (mix.intensity + 0.55).min(1.4)
            } else {
                0.05
            };
            return CycleStimulus::Active { intensity };
        }
        if s.rng.gen::<f64>() < 4e-6 {
            s.train_half_period = *[8u32, 16, 28, 52]
                .get(s.rng.gen_range(0..4))
                .expect("period table");
            s.train_remaining = s.rng.gen_range(6..14) * s.train_half_period;
            s.train_pos = 0;
        }
        if p_event > 0.0 && s.rng.gen::<f64>() < p_event {
            let mut pick = s.rng.gen::<f64>() * total_rate;
            let mut fired = StallEvent::Exception;
            for e in StallEvent::ALL {
                pick -= mix.rate(e);
                if pick <= 0.0 {
                    fired = e;
                    break;
                }
            }
            s.cluster_remaining = s.cluster_remaining.max(4 * fired.profile().stall_cycles);
            return CycleStimulus::Event {
                event: fired,
                weight: 1.0,
            };
        }
        if s.burst_flip == 0 {
            let dir = -s.burst_level.signum();
            let mut magnitude = s.rng.gen_range(0.3..1.7);
            if s.rng.gen::<f64>() < 0.02 {
                magnitude *= 2.0;
            }
            if s.rng.gen::<f64>() < 0.004 {
                magnitude *= 3.0;
            }
            s.burst_level = dir * 0.20 * magnitude;
            let b = mix.burstiness().max(1e-3);
            let hi = (2.0 / b.powf(2.3)).clamp(14.0, 2_500.0) as u32;
            s.burst_flip = s.rng.gen_range(10..hi.max(15));
        }
        s.burst_flip -= 1;
        let cluster_gain = if s.cluster_remaining > 0 {
            s.cluster_remaining -= 1;
            1.5
        } else {
            1.0
        };
        let intensity = (mix.intensity + s.burst_level * cluster_gain).max(0.0);
        CycleStimulus::Active { intensity }
    }

    /// A stimulus as exact bits, so `-0.0` and `0.0` differ.
    fn bits(s: CycleStimulus) -> (u8, u64) {
        match s {
            CycleStimulus::Active { intensity } => (0, intensity.to_bits()),
            CycleStimulus::Idle => (1, 0),
            CycleStimulus::Event { event, weight } => (2 + event as u8, weight.to_bits()),
        }
    }

    /// Steps `cached` through `step` and `reference` through
    /// [`reference_next`] for `cycles` cycles, asserting after every
    /// cycle that both emitted the same stimulus and stand at the same
    /// position.
    fn assert_steps_agree(
        cached: &mut EventStream,
        reference: &mut EventStream,
        cycles: u64,
        step: impl Fn(&mut EventStream) -> CycleStimulus,
        what: &str,
    ) {
        for c in 0..cycles {
            let (a, b) = (step(cached), reference_next(reference));
            assert!(
                bits(a) == bits(b)
                    && cached.restarts() == reference.restarts()
                    && cached.current_interval() == reference.current_interval()
                    && cached.is_finished() == reference.is_finished(),
                "{what}: diverged {c} cycles in: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn cached_next_matches_the_per_cycle_derivation() {
        let next = |s: &mut EventStream| s.next();
        // Interval lengths that do and do not divide the chip's
        // 8 000-cycle warm-up, through which every run steps its streams
        // before measuring.
        for cpi in [300, 1_300, 4_000, 30_000] {
            for w in crate::spec2006().into_iter().chain(crate::parsec()) {
                let total = u64::from(w.total_intervals()) * cpi;
                let what = format!("{} at {cpi} cycles/interval", w.name());

                // Run past the program's end, then start looping, which
                // restarts the completed stream on its next cycle.
                let (mut cached, mut reference) = (w.stream(0, cpi), w.stream(0, cpi));
                assert_steps_agree(&mut cached, &mut reference, total + cpi + 7, next, &what);
                cached.set_looping(true);
                reference.set_looping(true);
                assert_steps_agree(&mut cached, &mut reference, cpi, next, &what);
                assert_eq!(cached.restarts(), 1, "{what}");

                // Loop across several restarts.
                let (mut cached, mut reference) = (w.stream(1, cpi), w.stream(1, cpi));
                cached.set_looping(true);
                reference.set_looping(true);
                assert_steps_agree(
                    &mut cached,
                    &mut reference,
                    3 * total + cpi / 2,
                    next,
                    &what,
                );
                assert_eq!(cached.restarts(), 3, "{what}");

                // Step a stream in slices through a mix prepared once per
                // slice, as the serving shards do, slices ending at and
                // between interval boundaries, then through next().
                let (mut cached, mut reference) = (w.stream(2, cpi), w.stream(2, cpi));
                let slice = cpi / 3 + 1;
                let mut stepped = 0;
                while stepped < 2 * cpi + slice {
                    let len = slice.min(cpi - stepped % cpi);
                    let prep = cached.current_prepared();
                    let step = |s: &mut EventStream| s.step_prepared(&prep);
                    assert_steps_agree(&mut cached, &mut reference, len, step, &what);
                    stepped += len;
                }
                assert_steps_agree(&mut cached, &mut reference, total, next, &what);
                assert!(cached.is_finished(), "{what}");
            }
        }
    }
}
