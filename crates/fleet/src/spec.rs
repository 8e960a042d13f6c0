//! Fleet specification: seeded per-chip variation, DVFS operating
//! points, and mixed job streams.
//!
//! The paper characterizes one Core 2 Duo part; a production fleet is
//! never that uniform. Following the system-level V/F characterization
//! of Papadimitriou et al. and the per-core margin-reduction study of
//! Nascimento et al. (see `PAPERS.md`), a [`FleetSpec`] expands a seed
//! into a heterogeneous population: each chip gets a technology node
//! (supply scaling under a constant power budget), a package-decap
//! configuration, a DVFS operating point (V/F pair rescaling the PDN
//! drive and the clock), per-part silicon jitter, and its own mixed
//! single-program/pair job stream. Everything derives from the seed, so
//! the same spec always expands to the same fleet — the property the
//! checkpoint/resume machinery in [`crate::campaign`] builds on.

use crate::FleetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use vsmooth_chip::{ChipConfig, ChipError, Fidelity};
use vsmooth_pdn::{DecapConfig, TechNode};
use vsmooth_workload::{spec2006, Workload};

/// Reference clock of the fleet's baseline part (the paper's E6300).
pub(crate) const BASE_CLOCK_HZ: f64 = 1.86e9;

/// A DVFS operating point: the pair of supply-voltage scale and core
/// clock a chip is parked at. The voltage scale re-targets the PDN's
/// regulated drive; the clock sets the discretization step (and the
/// switching-current budget `∝ C·V·f`).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Human-readable P-state name (`"nominal"`, `"eco"`, …).
    pub name: String,
    /// Supply voltage as a fraction of the part's nominal VID.
    pub voltage_scale: f64,
    /// Core clock in hertz.
    pub clock_hz: f64,
}

impl OperatingPoint {
    /// The baseline point: nominal VID at the stock 1.86 GHz clock.
    pub fn nominal() -> Self {
        Self {
            name: "nominal".to_string(),
            voltage_scale: 1.0,
            clock_hz: BASE_CLOCK_HZ,
        }
    }

    /// A low-power point: 8 % undervolt at a 1.6 GHz clock.
    pub(crate) fn eco() -> Self {
        Self {
            name: "eco".to_string(),
            voltage_scale: 0.92,
            clock_hz: 1.60e9,
        }
    }

    /// Validates the point.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSpec`] for a voltage scale outside
    /// `(0.5, 1.5)` or a non-positive clock.
    pub fn validate(&self) -> Result<(), FleetError> {
        if !self.voltage_scale.is_finite() || !(0.5..1.5).contains(&self.voltage_scale) {
            return Err(FleetError::InvalidSpec(
                "operating-point voltage scale must be within (0.5, 1.5)",
            ));
        }
        if !self.clock_hz.is_finite() || self.clock_hz <= 0.0 {
            return Err(FleetError::InvalidSpec(
                "operating-point clock must be positive",
            ));
        }
        Ok(())
    }
}

impl fmt::Display for OperatingPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:.0}% VID, {:.2} GHz)",
            self.name,
            100.0 * self.voltage_scale,
            self.clock_hz / 1e9
        )
    }
}

/// One chip of the fleet: its silicon and operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipVariant {
    /// Position in the fleet (stable across resume).
    pub index: usize,
    /// Technology node: scales the supply down and the constant-power
    /// current stimulus up (the Fig. 1 trend).
    pub node: TechNode,
    /// Package-decap configuration of this part.
    pub decap: DecapConfig,
    /// The DVFS point the chip is parked at.
    pub op: OperatingPoint,
    /// Per-part sensor/aging guardband, percent of nominal (jittered
    /// around the 1 % production guard).
    pub margin_guard_pct: f64,
    /// Per-part switching-current jitter (process variation), as a
    /// factor around 1.0.
    pub silicon_factor: f64,
}

impl ChipVariant {
    /// Stable identifier used in reports and metric labels.
    pub fn id(&self) -> String {
        format!("chip{:02}", self.index)
    }

    /// One-line human-readable description.
    pub fn describe(&self) -> String {
        format!(
            "{} {} Proc{} {} guard {:.2}% silicon {:.3}",
            self.id(),
            self.node,
            self.decap.percent_retained(),
            self.op,
            self.margin_guard_pct,
            self.silicon_factor
        )
    }

    /// Expands the variant into a runnable [`ChipConfig`]: the E6300
    /// platform re-targeted to this part's node, decap bank and DVFS
    /// point.
    ///
    /// The supply follows `Vdd(node) · voltage_scale`; the switching
    /// current follows the constant-power budget of the paper's Fig. 1
    /// footnote (`∝ 1/Vdd(node)`) times the `C·V·f` DVFS scaling and
    /// this part's silicon jitter.
    ///
    /// # Errors
    ///
    /// Propagates chip/PDN validation errors.
    pub fn chip_config(&self) -> Result<ChipConfig, ChipError> {
        let mut cfg = ChipConfig::core2_duo(self.decap.clone());
        let node_vscale = self.node.vdd() / TechNode::N45.vdd();
        let vnom = cfg.pdn.nominal_voltage() * node_vscale * self.voltage_scale();
        cfg.pdn = cfg.pdn.with_nominal_voltage(vnom)?;
        cfg.clock_hz = self.op.clock_hz;
        let fscale = self.op.clock_hz / BASE_CLOCK_HZ;
        // Constant power budget across nodes (ΔI ∝ 1/Vdd), C·V·f within
        // a node's DVFS range, and the part's own silicon spread.
        let iscale = (1.0 / node_vscale) * self.voltage_scale() * fscale * self.silicon_factor;
        cfg.core.max_dynamic_current *= iscale;
        cfg.core.leakage_current *= self.voltage_scale() / node_vscale;
        Ok(cfg)
    }

    fn voltage_scale(&self) -> f64 {
        self.op.voltage_scale
    }
}

/// One job of a chip's stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetJob {
    /// A single-program run (the other core idles).
    Single(Workload),
    /// A multi-program pair, one program per core.
    Pair(Workload, Workload),
}

impl FleetJob {
    /// Label used in checkpoints and reports.
    pub fn label(&self) -> String {
        match self {
            Self::Single(w) => w.name().to_string(),
            Self::Pair(a, b) => format!("{}+{}", a.name(), b.name()),
        }
    }
}

/// One scheduled run of the sweep: which chip executes which job.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRun {
    /// Position in the canonical sweep order (the checkpoint key).
    pub index: usize,
    /// Fleet chip executing the job.
    pub chip: usize,
    /// The job itself.
    pub job: FleetJob,
}

/// A seeded heterogeneous fleet sweep specification.
///
/// # Examples
///
/// ```
/// use vsmooth_fleet::FleetSpec;
///
/// let spec = FleetSpec::new(2010, 6, 4);
/// assert_eq!(spec.total_runs(), 24);
/// let chips = spec.variants();
/// assert_eq!(chips.len(), 6);
/// // Same seed, same fleet.
/// assert_eq!(chips, FleetSpec::new(2010, 6, 4).variants());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// Master seed for variation and job streams.
    pub seed: u64,
    /// Number of chips in the fleet.
    pub chips: usize,
    /// Jobs executed per chip.
    pub runs_per_chip: usize,
    /// Simulation fidelity of every run.
    pub fidelity: Fidelity,
    /// Fraction of each stream that is a multi-program pair (the rest
    /// are single-program runs).
    pub pair_fraction: f64,
    /// Technology-node axis (cycled across chips).
    pub nodes: Vec<TechNode>,
    /// Package-decap axis (cycled across chips).
    pub decaps: Vec<DecapConfig>,
    /// DVFS operating-point axis (cycled across chips).
    pub operating_points: Vec<OperatingPoint>,
    /// Cycles per virus period for the per-chip worst-case margin probe.
    pub probe_cycles: u64,
    /// Runs between checkpoints when a checkpoint policy is attached.
    pub checkpoint_every: usize,
}

impl FleetSpec {
    /// A fleet over the default variation axes: three nodes
    /// (45/32/22 nm), three decap banks (Proc100/50/25) and two DVFS
    /// points (nominal/eco), at test-scale fidelity.
    pub fn new(seed: u64, chips: usize, runs_per_chip: usize) -> Self {
        Self {
            seed,
            chips,
            runs_per_chip,
            fidelity: Fidelity::Custom(400),
            pair_fraction: 0.5,
            nodes: vec![TechNode::N45, TechNode::N32, TechNode::N22],
            decaps: vec![
                DecapConfig::proc100(),
                DecapConfig::proc50(),
                DecapConfig::proc25(),
            ],
            operating_points: vec![OperatingPoint::nominal(), OperatingPoint::eco()],
            probe_cycles: 24_000,
            checkpoint_every: 64,
        }
    }

    /// Total runs in the sweep.
    pub fn total_runs(&self) -> usize {
        self.chips * self.runs_per_chip
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// [`FleetError::InvalidSpec`] for an empty fleet, empty variation
    /// axes, an out-of-range pair fraction, a zero checkpoint interval
    /// or a zero probe budget.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.chips == 0 {
            return Err(FleetError::InvalidSpec("fleet must have at least one chip"));
        }
        if self.runs_per_chip == 0 {
            return Err(FleetError::InvalidSpec(
                "fleet must run at least one job per chip",
            ));
        }
        if self.nodes.is_empty() || self.decaps.is_empty() || self.operating_points.is_empty() {
            return Err(FleetError::InvalidSpec(
                "every variation axis needs at least one entry",
            ));
        }
        if !(0.0..=1.0).contains(&self.pair_fraction) {
            return Err(FleetError::InvalidSpec(
                "pair fraction must be within [0, 1]",
            ));
        }
        if self.probe_cycles == 0 {
            return Err(FleetError::InvalidSpec(
                "worst-case-margin probe needs a positive cycle budget",
            ));
        }
        if self.checkpoint_every == 0 {
            return Err(FleetError::InvalidSpec(
                "checkpoint interval must be at least one run",
            ));
        }
        for op in &self.operating_points {
            op.validate()?;
        }
        Ok(())
    }

    /// Expands the per-chip variants: the axes cycle independently
    /// (chip `i` gets `nodes[i % n]`, `decaps[i % d]`, `ops[i % o]`) so
    /// even a small fleet covers every axis, while guardband and
    /// silicon jitter are drawn from the seeded stream so no two parts
    /// are identical.
    pub fn variants(&self) -> Vec<ChipVariant> {
        (0..self.chips)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(self.seed, 0x5AF0, i as u64));
                ChipVariant {
                    index: i,
                    node: self.nodes[i % self.nodes.len()],
                    decap: self.decaps[i % self.decaps.len()].clone(),
                    op: self.operating_points[i % self.operating_points.len()].clone(),
                    margin_guard_pct: rng.gen_range(0.8..1.2),
                    silicon_factor: rng.gen_range(0.94..1.06),
                }
            })
            .collect()
    }

    /// Expands the canonical run list. Runs interleave across chips
    /// (run `r` lands on chip `r % chips`) so an interrupted sweep
    /// still has partial coverage of the whole fleet, and each chip's
    /// job stream mixes single-program and pair jobs per
    /// [`pair_fraction`](Self::pair_fraction).
    pub fn runs(&self) -> Vec<FleetRun> {
        let catalog = spec2006();
        let mut streams: Vec<StdRng> = (0..self.chips)
            .map(|i| StdRng::seed_from_u64(mix(self.seed, 0x10B5, i as u64)))
            .collect();
        (0..self.total_runs())
            .map(|index| {
                let chip = index % self.chips;
                let rng = &mut streams[chip];
                let a = catalog[rng.gen_range(0..catalog.len())].clone();
                let job = if rng.gen::<f64>() < self.pair_fraction {
                    let b = catalog[rng.gen_range(0..catalog.len())].clone();
                    FleetJob::Pair(a, b)
                } else {
                    FleetJob::Single(a)
                };
                FleetRun { index, chip, job }
            })
            .collect()
    }

    /// A stable fingerprint of everything that shapes the sweep's
    /// results. Checkpoints record it; resuming under a different spec
    /// is a typed error rather than a silently corrupted report.
    pub fn fingerprint(&self) -> u64 {
        let mut canon = format!(
            "seed={};chips={};rpc={};cpi={};pair={};probe={}",
            self.seed,
            self.chips,
            self.runs_per_chip,
            self.fidelity.cycles_per_interval(),
            self.pair_fraction.to_bits(),
            self.probe_cycles,
        );
        for n in &self.nodes {
            canon.push_str(&format!(";n={n}"));
        }
        for d in &self.decaps {
            canon.push_str(&format!(";d={}", d.percent_retained()));
        }
        for op in &self.operating_points {
            canon.push_str(&format!(
                ";o={}:{}:{}",
                op.name,
                op.voltage_scale.to_bits(),
                op.clock_hz.to_bits()
            ));
        }
        fnv1a(canon.as_bytes())
    }
}

/// SplitMix-style stream mixing: one independent RNG per (seed,
/// purpose, lane) triple.
fn mix(seed: u64, purpose: u64, lane: u64) -> u64 {
    let mut z = seed
        ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ lane.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes (the checkpoint fingerprint hash).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_seed_deterministic() {
        let a = FleetSpec::new(7, 5, 6);
        let b = FleetSpec::new(7, 5, 6);
        assert_eq!(a.variants(), b.variants());
        assert_eq!(a.runs(), b.runs());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = FleetSpec::new(8, 5, 6);
        assert_ne!(a.runs(), c.runs());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn variants_cover_every_axis() {
        let spec = FleetSpec::new(42, 6, 1);
        let variants = spec.variants();
        let nodes: std::collections::BTreeSet<_> =
            variants.iter().map(|v| v.node.nanometers()).collect();
        let decaps: std::collections::BTreeSet<_> = variants
            .iter()
            .map(|v| v.decap.percent_retained())
            .collect();
        let ops: std::collections::BTreeSet<_> =
            variants.iter().map(|v| v.op.name.clone()).collect();
        assert_eq!(nodes.len(), 3);
        assert_eq!(decaps.len(), 3);
        assert_eq!(ops.len(), 2);
        // Jitter makes every part unique even on the same axis combo.
        for w in variants.windows(2) {
            assert_ne!(w[0].margin_guard_pct, w[1].margin_guard_pct);
        }
    }

    #[test]
    fn runs_interleave_across_chips_and_mix_job_kinds() {
        let spec = FleetSpec::new(11, 4, 8);
        let runs = spec.runs();
        assert_eq!(runs.len(), 32);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.index, i);
            assert_eq!(run.chip, i % 4);
        }
        let pairs = runs
            .iter()
            .filter(|r| matches!(r.job, FleetJob::Pair(_, _)))
            .count();
        assert!(pairs > 0 && pairs < runs.len(), "pairs = {pairs}/32");
    }

    #[test]
    fn variant_configs_differ_in_drive_and_clock() {
        let spec = FleetSpec::new(3, 6, 1);
        let cfgs: Vec<ChipConfig> = spec
            .variants()
            .iter()
            .map(|v| v.chip_config().unwrap())
            .collect();
        let mut voltages: Vec<f64> = cfgs.iter().map(|c| c.pdn.nominal_voltage()).collect();
        voltages.sort_by(|a, b| a.partial_cmp(b).unwrap());
        voltages.dedup();
        assert!(voltages.len() >= 3, "expected ≥3 distinct supplies");
        let clocks: std::collections::BTreeSet<u64> =
            cfgs.iter().map(|c| c.clock_hz.to_bits()).collect();
        assert!(clocks.len() >= 2, "expected ≥2 distinct clocks");
    }

    #[test]
    fn invalid_specs_are_typed_errors() {
        assert!(FleetSpec::new(5, 0, 1).validate().is_err());
        assert!(FleetSpec::new(5, 1, 0).validate().is_err());
        let mut s = FleetSpec::new(5, 2, 2);
        s.pair_fraction = 1.5;
        assert!(s.validate().is_err());
        let mut s = FleetSpec::new(5, 2, 2);
        s.operating_points.clear();
        assert!(s.validate().is_err());
        let mut s = FleetSpec::new(5, 2, 2);
        s.operating_points[0].voltage_scale = 2.0;
        assert!(s.validate().is_err());
        let mut s = FleetSpec::new(5, 2, 2);
        s.checkpoint_every = 0;
        assert!(s.validate().is_err());
    }
}
