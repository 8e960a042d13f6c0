//! Triggered droop-window capture: an oscilloscope for the chip.
//!
//! The paper's root-cause methodology is scope-style: trigger on a
//! margin crossing, keep the waveform around it, and read off which
//! microarchitectural events led in (Sec. III, Figs. 7–8). A
//! `WindowCapture` rides inside the measurement loop and keeps a
//! rolling lead-in of per-cycle voltage deviation, per-core current
//! and per-core counter snapshots. On every
//! [`DroopCrossing`](crate::DroopCrossing) it freezes that lead-in and
//! keeps recording for a post-trigger tail, yielding a [`DroopWindow`]
//! that an attribution engine (`vsmooth-profile`) can score offline.
//!
//! The capture is purely observational — it never feeds back into the
//! simulation — and costs one `Option` branch per cycle when disabled.
//! It reads only the chip's cores, never the whole chip, so the one
//! measurement loop feeds it on either physics step: a profiled run
//! captures on the fused step wherever the chip qualifies, and the
//! reference step yields the same windows bit for bit.
//!
//! # Hot-path budget
//!
//! `on_cycle` runs on **every measured cycle** of a profiled run, so it
//! is written to a strict budget: fixed-capacity rings allocated once
//! at arm time (no per-cycle allocation, no `VecDeque` wraparound
//! bookkeeping), one counter snapshot copy per core, and a single
//! 5-wide array compare for event detection instead of per-event keyed
//! counter lookups. In-flight windows hold **no sample data**: the
//! shared history rings span a full window (lead-in + tail), so a
//! burst of overlapping triggers costs nothing per cycle beyond the
//! ring pushes every armed cycle already pays — each window is
//! materialized as one bulk copy per series when its tail completes.
//! Full `PerfCounters` are *not* ring-buffered per cycle; the
//! trigger-time base snapshot is reconstructed from a compact
//! `CounterSnap` ring, field-exact with the naive approach (integer
//! fields are integer arithmetic; `committed` is the evicted snapshot's
//! own value, not a re-summed float).

use std::collections::VecDeque;
use vsmooth_uarch::{Core, PerfCounters, StallEvent};

/// Shape of the capture window around each droop trigger.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowConfig {
    /// Lead-in samples kept before and including the trigger cycle
    /// (clamped to at least 1 so the trigger itself is always present).
    pub pre_cycles: usize,
    /// Samples recorded after the trigger cycle.
    pub post_cycles: usize,
    /// Whether to record the per-core per-cycle current series. It is
    /// the scope view's most expensive channel (one store per core per
    /// armed cycle plus a bulk copy per window) and attribution never
    /// reads it, so consumers that only want counters, events and the
    /// voltage waveform can switch it off; [`DroopWindow::core_currents`]
    /// then holds empty series.
    pub capture_currents: bool,
}

impl Default for WindowConfig {
    /// 96 lead-in + 160 tail cycles: several resonance periods of the
    /// paper's platform (~9–19 cycles at 1.86 GHz) on either side of
    /// the trigger, enough for autocorrelation to find the ringing.
    fn default() -> Self {
        Self {
            pre_cycles: 96,
            post_cycles: 160,
            capture_currents: true,
        }
    }
}

/// One stall event observed inside a capture window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEvent {
    /// Session-absolute measured cycle the event fired on.
    pub cycle: u64,
    /// Core the event fired on.
    pub core: usize,
    /// Which stall event fired.
    pub event: StallEvent,
}

/// A captured pre/post waveform window around one droop crossing.
///
/// Sample `i` of every per-cycle series belongs to measured cycle
/// `start_cycle + i`; the trigger sits at
/// `trigger_cycle - start_cycle`. The counter deltas span exactly the
/// window's cycles, so for every core and event kind the delta's
/// event count equals the number of matching [`WindowEvent`]s — the
/// invariant the attribution layer builds on.
#[derive(Debug, Clone, PartialEq)]
pub struct DroopWindow {
    /// Session-absolute cycle of the margin crossing (the trigger).
    pub trigger_cycle: u64,
    /// Deepest excursion from the trigger to the end of the window,
    /// percent below nominal.
    pub depth_pct: f64,
    /// Session-absolute cycle of the first sample.
    pub start_cycle: u64,
    /// Whether the post-trigger tail was cut short by a flush.
    pub truncated: bool,
    /// Per-cycle sensed voltage deviation, percent of nominal
    /// (negative = below nominal).
    pub voltage_dev_pct: Vec<f64>,
    /// Per-core per-cycle current draw in amperes (`[core][sample]`);
    /// every series is empty when the capture was configured with
    /// [`WindowConfig::capture_currents`] off.
    pub core_currents: Vec<Vec<f64>>,
    /// Per-core counter deltas over exactly the window's span.
    pub counter_deltas: Vec<PerfCounters>,
    /// Stall events inside the window, in cycle order.
    pub events: Vec<WindowEvent>,
}

impl DroopWindow {
    /// Number of per-cycle samples in the window.
    pub fn len(&self) -> usize {
        self.voltage_dev_pct.len()
    }

    /// Whether the window holds no samples (capture never produces
    /// this: the trigger cycle is always included).
    pub fn is_empty(&self) -> bool {
        self.voltage_dev_pct.is_empty()
    }

    /// Session-absolute cycle of the last sample.
    pub fn end_cycle(&self) -> u64 {
        self.start_cycle + self.len().max(1) as u64 - 1
    }

    /// Events at or before the trigger cycle — the lead-in the
    /// attribution engine weighs.
    pub fn lead_in_events(&self) -> impl Iterator<Item = &WindowEvent> {
        let trigger = self.trigger_cycle;
        self.events.iter().filter(move |e| e.cycle <= trigger)
    }
}

/// A window still collecting its post-trigger tail. Holds no sample
/// data of its own — the shared history rings cover a full window
/// span, and the series are materialized in bulk at seal time.
#[derive(Debug, Clone)]
struct PendingWindow {
    trigger_cycle: u64,
    start_cycle: u64,
    /// Lead-in samples (trigger cycle included) in the window.
    pre_len: usize,
    /// Counter snapshots from just before the window's first cycle.
    base: Vec<PerfCounters>,
}

/// The newest `n` samples of a rolling history buffer, oldest-first,
/// as at most two bulk copies. `latest` is the slot holding the newest
/// sample; the caller guarantees `n` samples have been written.
fn tail_of<T: Copy>(buf: &[T], latest: usize, n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    if n <= latest + 1 {
        out.extend_from_slice(&buf[latest + 1 - n..=latest]);
    } else {
        out.extend_from_slice(&buf[buf.len() - (n - latest - 1)..]);
        out.extend_from_slice(&buf[..=latest]);
    }
    out
}

/// The per-core counter state a base snapshot must *store* — just 16
/// bytes per core per cycle. The other [`PerfCounters`] fields are
/// reconstructed exactly at trigger time: `cycles` as
/// `current cycles − lead-in length` (core counters tick every
/// measured cycle, the invariant `delta.cycles() == window.len()`
/// rests on), and the per-event counts as
/// `current counts − logged in-window events` (the event log *is* the
/// counters' cycle-by-cycle diff by construction).
#[derive(Debug, Clone, Copy, Default)]
struct CounterSnap {
    stall_cycles: u64,
    committed: f64,
}

impl CounterSnap {
    #[inline]
    fn of(c: &PerfCounters) -> Self {
        Self {
            stall_cycles: c.stall_cycles(),
            committed: c.instructions(),
        }
    }
}

/// Ring-buffer state for triggered window capture.
#[derive(Debug, Clone)]
pub(crate) struct WindowCapture {
    cfg: WindowConfig,
    cores: usize,
    /// Rolling history over a full window span (lead-in + tail), so
    /// any window — however many overlap in flight — materializes as
    /// one bulk copy per series at seal time. Raw buffers sharing one
    /// cursor: per cycle the hot path pays plain indexed stores, not
    /// per-ring head/length bookkeeping.
    dev_hist: Box<[f64]>,
    cur_hist: Vec<Box<[f64]>>,
    /// Compact counter snapshots over the lead-in span (16 bytes per
    /// cycle per core instead of a full `PerfCounters` ring; see
    /// [`CounterSnap`]).
    snap_hist: Vec<Box<[CounterSnap]>>,
    /// Slot in `dev_hist`/`cur_hist` written by the latest cycle.
    pos_span: usize,
    /// Slot in `snap_hist` written by the latest cycle.
    pos_pre: usize,
    /// Counter state from just before the oldest lead-in sample.
    base: Vec<CounterSnap>,
    /// Per-core event counts after the latest recorded cycle. Only the
    /// event array is kept between cycles (events are rare, so the
    /// store is usually skipped); full counters are read straight off
    /// the cores whenever a snapshot or seal needs them.
    prev_events: Vec<[u64; 5]>,
    /// Samples recorded since arming.
    seen: u64,
    /// The latest recorded cycle (tail lengths of truncated windows).
    last_cycle: u64,
    /// Events within the history's span, oldest first.
    events: VecDeque<WindowEvent>,
    /// Reused per-trigger counting buffer (see `on_cycle` step 5).
    trigger_scratch: Vec<[u64; 5]>,
    pending: VecDeque<PendingWindow>,
    done: Vec<DroopWindow>,
}

impl WindowCapture {
    pub(crate) fn new(chip_cores: &[Core], cfg: WindowConfig) -> Self {
        let cfg = WindowConfig {
            pre_cycles: cfg.pre_cycles.max(1),
            ..cfg
        };
        let cores = chip_cores.len();
        let cur_cores = if cfg.capture_currents { cores } else { 0 };
        let span = cfg.pre_cycles + cfg.post_cycles;
        Self {
            cfg,
            cores,
            dev_hist: vec![0.0; span].into_boxed_slice(),
            cur_hist: (0..cur_cores)
                .map(|_| vec![0.0; span].into_boxed_slice())
                .collect(),
            snap_hist: (0..cores)
                .map(|_| vec![CounterSnap::default(); cfg.pre_cycles].into_boxed_slice())
                .collect(),
            pos_span: span - 1,
            pos_pre: cfg.pre_cycles - 1,
            base: chip_cores
                .iter()
                .map(|c| CounterSnap::of(c.counters()))
                .collect(),
            prev_events: chip_cores
                .iter()
                .map(|c| c.counters().event_counts_raw())
                .collect(),
            seen: 0,
            last_cycle: 0,
            events: VecDeque::new(),
            trigger_scratch: Vec::new(),
            pending: VecDeque::new(),
            done: Vec::new(),
        }
    }

    /// Records one measured cycle of the chip's `cores`. `triggered`
    /// marks a new [`DroopCrossing`](crate::DroopCrossing) starting on
    /// this cycle.
    pub(crate) fn on_cycle(&mut self, cores: &[Core], cycle: u64, dev_pct: f64, triggered: bool) {
        // 1. Advance the shared history cursors, then snapshot every
        //    core and detect freshly fired events by diffing the
        //    free-running counters, exactly the way the window's
        //    counter deltas are computed — so per-window event lists
        //    and counter deltas agree by construction. One array
        //    compare filters the (common) no-event cycles.
        let span = self.dev_hist.len();
        let pre = self.cfg.pre_cycles;
        self.pos_span = if self.pos_span + 1 == span {
            0
        } else {
            self.pos_span + 1
        };
        self.pos_pre = if self.pos_pre + 1 == pre {
            0
        } else {
            self.pos_pre + 1
        };
        let (ps, pp) = (self.pos_span, self.pos_pre);
        // 2. Record this cycle into the lead-in history; once the
        //    snapshot buffer is full, the overwritten slot (the sample
        //    from `pre` cycles ago) becomes the base "just before the
        //    oldest sample".
        let evict = self.seen >= pre as u64;
        for (core, c) in cores.iter().enumerate() {
            let now = c.counters();
            let now_events = now.event_counts_raw();
            let prev_events = self.prev_events[core];
            if now_events != prev_events {
                for (idx, event) in StallEvent::ALL.into_iter().enumerate() {
                    for _ in prev_events[idx]..now_events[idx] {
                        self.events.push_back(WindowEvent { cycle, core, event });
                    }
                }
                self.prev_events[core] = now_events;
            }
            let slot = &mut self.snap_hist[core][pp];
            if evict {
                self.base[core] = *slot;
            }
            *slot = CounterSnap::of(now);
            // Empty when current capture is configured off.
            if let Some(buf) = self.cur_hist.get_mut(core) {
                buf[ps] = c.current();
            }
        }
        self.dev_hist[ps] = dev_pct;
        self.seen += 1;
        self.last_cycle = cycle;

        // 3. Keep the event log pruned to the history's span (this
        //    cycle's events, just appended, are always inside it).
        let oldest = cycle + 1 - self.seen.min(span as u64);
        while self.events.front().is_some_and(|e| e.cycle < oldest) {
            self.events.pop_front();
        }

        // 4. Seal the windows whose tail completed on this cycle
        //    (FIFO: equal tail lengths mean the oldest trigger always
        //    finishes first). The history rings still cover the whole
        //    window: a just-completed tail is exactly the newest
        //    `post_cycles` samples.
        while self
            .pending
            .front()
            .is_some_and(|p| p.trigger_cycle + self.cfg.post_cycles as u64 == cycle)
        {
            let p = self.pending.pop_front().expect("front checked");
            let w = self.seal(cores, &p, self.cfg.post_cycles, false);
            self.done.push(w);
        }

        // 5. A new crossing pins a window over the history (which
        //    already includes this cycle as the last lead-in sample).
        if triggered {
            let pre_len = self.seen.min(self.cfg.pre_cycles as u64) as usize;
            let start_cycle = cycle + 1 - pre_len as u64;
            // Per-core per-kind counts of the logged events inside the
            // lead-in (the log always spans it); subtracted from the
            // live counters they reproduce the base counts exactly.
            self.trigger_scratch.clear();
            self.trigger_scratch.resize(self.cores, [0u64; 5]);
            for e in self.events.iter().filter(|e| e.cycle >= start_cycle) {
                self.trigger_scratch[e.core][e.event.index()] += 1;
            }
            let in_window = &self.trigger_scratch;
            let p = PendingWindow {
                trigger_cycle: cycle,
                start_cycle,
                pre_len,
                base: (0..self.cores)
                    .map(|c| {
                        let now = cores[c].counters();
                        let b = &self.base[c];
                        let mut events = now.event_counts_raw();
                        for (count, inside) in events.iter_mut().zip(&in_window[c]) {
                            *count -= inside;
                        }
                        PerfCounters::from_parts(
                            now.cycles() - pre_len as u64,
                            b.stall_cycles,
                            b.committed,
                            events,
                        )
                    })
                    .collect(),
            };
            if self.cfg.post_cycles == 0 {
                let w = self.seal(cores, &p, 0, false);
                self.done.push(w);
            } else {
                self.pending.push_back(p);
            }
        }
    }

    /// Materializes a pending window out of the shared history rings
    /// against the cores' current counters (seals always happen on the
    /// window's own last cycle, so "current" is exact). `post_elapsed`
    /// is the tail length actually recorded (`post_cycles` except under
    /// a flush).
    fn seal(
        &self,
        cores: &[Core],
        p: &PendingWindow,
        post_elapsed: usize,
        truncated: bool,
    ) -> DroopWindow {
        let n = p.pre_len + post_elapsed;
        debug_assert!(n as u64 <= self.seen);
        let voltage_dev_pct = tail_of(&self.dev_hist, self.pos_span, n);
        // Deepest excursion from the trigger sample (index pre_len - 1)
        // to the end of the window.
        let depth_pct = voltage_dev_pct[p.pre_len - 1..]
            .iter()
            .fold(f64::NEG_INFINITY, |m, &v| m.max(-v));
        DroopWindow {
            trigger_cycle: p.trigger_cycle,
            depth_pct,
            start_cycle: p.start_cycle,
            truncated,
            voltage_dev_pct,
            core_currents: if self.cfg.capture_currents {
                self.cur_hist
                    .iter()
                    .map(|buf| tail_of(buf, self.pos_span, n))
                    .collect()
            } else {
                vec![Vec::new(); self.cores]
            },
            counter_deltas: p
                .base
                .iter()
                .enumerate()
                .map(|(c, base)| cores[c].counters().delta_since(base))
                .collect(),
            events: self
                .events
                .iter()
                .filter(|e| e.cycle >= p.start_cycle)
                .copied()
                .collect(),
        }
    }

    /// Force-finalizes every in-flight window (truncated tails).
    pub(crate) fn flush(&mut self, cores: &[Core]) {
        while let Some(p) = self.pending.pop_front() {
            let post_elapsed = (self.last_cycle - p.trigger_cycle) as usize;
            let w = self.seal(cores, &p, post_elapsed, true);
            self.done.push(w);
        }
    }

    /// Drains the completed windows captured so far.
    pub(crate) fn take_windows(&mut self) -> Vec<DroopWindow> {
        std::mem::take(&mut self.done)
    }
}
