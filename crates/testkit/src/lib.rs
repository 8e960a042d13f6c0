//! Correctness tooling for the `vsmooth` reproduction of *Voltage
//! Smoothing* (MICRO 2010).
//!
//! Every other crate in the workspace *simulates*; this one *checks the
//! simulators against independent ground truth*. Three layers:
//!
//! * [`analytic`] — differential oracles for the PDN: closed-form
//!   RLC-ladder solutions (complex Thevenin impedance reduction,
//!   single-stage step/pulse responses via an exact 2×2 matrix
//!   exponential, resonance search) that the state-space simulation
//!   must agree with to stated tolerances.
//! * [`reference_batch`] — a brute-force reference implementation of
//!   the batch scheduler's greedy pair selection,
//!   written as repeated argmax rather than a pre-sorted sweep, for
//!   cross-checking `vsmooth-sched` on small workload sets.
//! * [`generator`] — a seeded scenario generator (plain seeded-RNG
//!   functions that double as `proptest` strategies) producing random
//!   ladders, decap configurations, chips, workload pools and job
//!   streams for metamorphic property suites.
//! * [`campaign_invariant_sweep`] — drives a campaign-shaped set of runs
//!   through invariant-armed
//!   [`ChipSession`](vsmooth_chip::ChipSession)s so the
//!   physics/bookkeeping invariants are exercised across the whole
//!   catalog, not just a hand-picked run.
//!
//! # Examples
//!
//! ```
//! use vsmooth_pdn::{DecapConfig, ImpedanceProfile, LadderConfig};
//! use vsmooth_testkit::analytic;
//!
//! let pdn = LadderConfig::core2_duo(DecapConfig::proc100());
//! let (f_peak, z_peak) = analytic::resonance(&pdn, 1e5, 1e9);
//! let sim = ImpedanceProfile::compute(&pdn, 1e5, 1e9, 400)?.peak();
//! assert!((f_peak - sim.frequency_hz).abs() / sim.frequency_hz < 0.05);
//! assert!((z_peak - sim.impedance_ohms).abs() / sim.impedance_ohms < 0.05);
//! # Ok::<(), vsmooth_pdn::PdnError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod analytic;
pub mod generator;
mod invariantsweep;
mod reference;

pub use analytic::{
    impedance_magnitude, resonance, simulate_step, single_stage_pulse, single_stage_step,
};
pub use generator::{
    gen_chip, gen_job_stream, gen_ladder, gen_stage, gen_workload, gen_workload_pool, strategy_of,
};
pub use invariantsweep::{campaign_invariant_sweep, SweepSummary};
pub use reference::reference_batch;
