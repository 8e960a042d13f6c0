//! RLC ladder model of a processor power-delivery network.
//!
//! The network is a chain of stages between the voltage-regulator module
//! (VRM) and the die:
//!
//! ```text
//!  VRM ──R₁L₁──┬──R₂L₂──┬──R₃L₃──┬──R₄L₄──┬──► die (load current sink)
//!              │        │        │        │
//!             C₁+ESR   C₂+ESR   C₃+ESR   C₄+ESR
//!             bulk     board    package  on-die
//! ```
//!
//! Each stage contributes a series resistance/inductance and a shunt
//! capacitor bank with effective series resistance (ESR). The default
//! four-stage configuration is calibrated to reproduce the impedance
//! profile the paper validates against Intel data (Fig. 4): a
//! mid-frequency resonance peak in the 100–200 MHz band, and roughly
//! 5× higher impedance around 1 MHz when package capacitors are removed.

use crate::decap::DecapConfig;
use crate::linalg::Mat;
use crate::statespace::StateSpace;
use crate::PdnError;

/// One RLC ladder stage: series impedance followed by a shunt capacitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LadderStage {
    /// Series resistance in ohms.
    pub series_r: f64,
    /// Series inductance in henries.
    pub series_l: f64,
    /// Shunt capacitance in farads.
    pub shunt_c: f64,
    /// Effective series resistance of the shunt capacitor, in ohms.
    pub shunt_esr: f64,
}

impl LadderStage {
    /// Validates that all element values are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] if any value is non-positive
    /// or non-finite (a zero inductance or capacitance would make the
    /// state-space singular).
    pub fn validate(&self) -> Result<(), PdnError> {
        for (name, v) in [
            ("series_r", self.series_r),
            ("series_l", self.series_l),
            ("shunt_c", self.shunt_c),
            ("shunt_esr", self.shunt_esr),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(PdnError::InvalidElement {
                    element: name,
                    value: v,
                });
            }
        }
        Ok(())
    }
}

/// A complete ladder PDN description.
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::{DecapConfig, LadderConfig};
///
/// let pdn = LadderConfig::core2_duo(DecapConfig::proc100());
/// let sys = pdn.state_space().unwrap();
/// assert_eq!(sys.state_dim(), 8); // four stages, two states each
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LadderConfig {
    name: String,
    stages: Vec<LadderStage>,
    nominal_voltage: f64,
    decap: DecapConfig,
}

/// Nominal core supply voltage of the Core 2 Duo E6300 studied in the
/// paper (VID ≈ 1.325 V).
pub(crate) const CORE2_NOMINAL_VOLTAGE: f64 = 1.325;

impl LadderConfig {
    /// Non-removable mid-frequency capacitance (socket cavity and
    /// nearby motherboard MLCCs) that survives land-side decap removal.
    /// Calibrated so the decap sweep reproduces the Fig. 6 relative
    /// swings (knee at Proc25–Proc3) and the ~5× impedance growth at
    /// 1 MHz of Fig. 4b.
    pub(crate) const CAVITY_CAPACITANCE: f64 = 40.0e-6;
    /// Builds a ladder from explicit stages.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::EmptyLadder`] for zero stages, or an element
    /// validation error from [`LadderStage::validate`].
    pub fn new(
        name: impl Into<String>,
        stages: Vec<LadderStage>,
        nominal_voltage: f64,
    ) -> Result<Self, PdnError> {
        if stages.is_empty() {
            return Err(PdnError::EmptyLadder);
        }
        if !nominal_voltage.is_finite() || nominal_voltage <= 0.0 {
            return Err(PdnError::InvalidElement {
                element: "nominal_voltage",
                value: nominal_voltage,
            });
        }
        for s in &stages {
            s.validate()?;
        }
        Ok(Self {
            name: name.into(),
            stages,
            nominal_voltage,
            decap: DecapConfig::proc100(),
        })
    }

    /// Four-stage model of the Core 2 Duo (E6300) power delivery path
    /// with the given package-decap configuration.
    ///
    /// Stage 1: VRM loop + bulk electrolytic capacitors.
    /// Stage 2: motherboard/socket path + the fixed board/cavity MLCC
    /// bank that survives any land-side surgery.
    /// Stage 3: package routing + the removable land-side decap bank
    /// (the capacitors physically broken off in the paper's Fig. 5).
    /// Stage 4: package vias/bumps + on-die decoupling.
    ///
    /// Keeping the removable bank on its own node is what makes decap
    /// removal *shift the mid-frequency resonance down and up in
    /// magnitude* (the die loop re-closes through the farther board
    /// bank) rather than merely damping it — the behaviour the paper's
    /// Figs. 5m–r waveforms show.
    pub fn core2_duo(decap: DecapConfig) -> Self {
        let frac = decap.fraction_retained();
        // Removing parallel parts raises the remaining bank's net ESR in
        // inverse proportion to what is left.
        let pkg = DecapConfig::TOTAL_PACKAGE_CAPACITANCE;
        let stages = vec![
            LadderStage {
                series_r: 0.6e-3,
                series_l: 2.0e-9,
                shunt_c: 4.0e-3,
                shunt_esr: 0.30e-3,
            },
            LadderStage {
                series_r: 0.35e-3,
                series_l: 0.6e-9,
                shunt_c: Self::CAVITY_CAPACITANCE,
                shunt_esr: 2.2e-3,
            },
            LadderStage {
                series_r: 0.25e-3,
                series_l: 0.045e-9,
                shunt_c: pkg * frac,
                shunt_esr: 0.45e-3 / frac,
            },
            LadderStage {
                series_r: 0.70e-3,
                series_l: 3.5e-12,
                shunt_c: 500.0e-9,
                shunt_esr: 0.55e-3,
            },
        ];
        Self {
            name: format!("Core2Duo/{decap}"),
            stages,
            nominal_voltage: CORE2_NOMINAL_VOLTAGE,
            decap,
        }
    }

    /// Pentium 4-like power-delivery package used for the future-node
    /// projection in Fig. 1 (footnote 1 of the paper), parameterized by
    /// supply voltage.
    pub fn pentium4_package(vdd: f64) -> Self {
        let stages = vec![
            LadderStage {
                series_r: 0.8e-3,
                series_l: 2.5e-9,
                shunt_c: 3.0e-3,
                shunt_esr: 0.35e-3,
            },
            LadderStage {
                series_r: 0.6e-3,
                series_l: 0.6e-9,
                shunt_c: 150.0e-6,
                shunt_esr: 0.45e-3,
            },
            LadderStage {
                series_r: 0.45e-3,
                series_l: 4.0e-12,
                shunt_c: 400.0e-9,
                shunt_esr: 0.40e-3,
            },
        ];
        Self {
            name: format!("Pentium4@{vdd}V"),
            stages,
            nominal_voltage: vdd,
            decap: DecapConfig::proc100(),
        }
    }

    /// Re-targets the ladder to a new nominal supply voltage — the PDN
    /// half of a DVFS operating point. The passives are unchanged (the
    /// package does not know about P-states); only the drive voltage
    /// the VRM regulates toward moves.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidElement`] for a non-positive or
    /// non-finite voltage.
    pub fn with_nominal_voltage(&self, volts: f64) -> Result<Self, PdnError> {
        if !volts.is_finite() || volts <= 0.0 {
            return Err(PdnError::InvalidElement {
                element: "nominal_voltage",
                value: volts,
            });
        }
        let mut cfg = self.clone();
        cfg.nominal_voltage = volts;
        cfg.name = format!("{}@{volts:.3}V", self.name);
        Ok(cfg)
    }

    /// Human-readable configuration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ladder stages, VRM side first.
    pub fn stages(&self) -> &[LadderStage] {
        &self.stages
    }

    /// Nominal supply voltage in volts.
    pub fn nominal_voltage(&self) -> f64 {
        self.nominal_voltage
    }

    /// The decap configuration this ladder was built with.
    pub fn decap(&self) -> &DecapConfig {
        &self.decap
    }

    /// Total series resistance from VRM to die, in ohms (sets the IR
    /// droop at DC).
    pub fn total_series_resistance(&self) -> f64 {
        self.stages.iter().map(|s| s.series_r).sum()
    }

    /// Builds the continuous state-space model.
    ///
    /// States are `[i_1..i_N, vC_1..vC_N]` (inductor currents then
    /// capacitor voltages); inputs are `[v_vrm, i_load]`; the single
    /// output is the on-die supply voltage.
    ///
    /// # Errors
    ///
    /// Returns a validation error if any stage has an invalid element.
    pub fn state_space(&self) -> Result<StateSpace, PdnError> {
        for s in &self.stages {
            s.validate()?;
        }
        let n = self.stages.len();
        let dim = 2 * n;
        let mut a = Mat::zeros(dim, dim);
        let mut b = Mat::zeros(dim, 2);
        let mut c = Mat::zeros(1, dim);
        let mut d = Mat::zeros(1, 2);

        // Index helpers: current k is state k; cap voltage k is state n+k.
        for k in 0..n {
            let st = self.stages[k];
            let row = k; // d i_k / dt
                         // Upstream node voltage: V_s for k == 0, else vn_{k-1}.
            if k == 0 {
                b[(row, 0)] = 1.0 / st.series_l;
            } else {
                let up = self.stages[k - 1];
                // vn_{k-1} = vC_{k-1} + ESR_{k-1} (i_{k-1} - i_k)
                a[(row, n + k - 1)] += 1.0 / st.series_l;
                a[(row, k - 1)] += up.shunt_esr / st.series_l;
                a[(row, k)] += -up.shunt_esr / st.series_l;
            }
            // - R_k i_k
            a[(row, k)] += -st.series_r / st.series_l;
            // - vn_k = -(vC_k + ESR_k (i_k - i_{k+1}))
            a[(row, n + k)] += -1.0 / st.series_l;
            a[(row, k)] += -st.shunt_esr / st.series_l;
            if k + 1 < n {
                a[(row, k + 1)] += st.shunt_esr / st.series_l;
            } else {
                // downstream current of the last stage is the load.
                b[(row, 1)] = st.shunt_esr / st.series_l;
            }

            // d vC_k / dt = (i_k - i_{k+1}) / C_k
            let vrow = n + k;
            a[(vrow, k)] = 1.0 / st.shunt_c;
            if k + 1 < n {
                a[(vrow, k + 1)] = -1.0 / st.shunt_c;
            } else {
                b[(vrow, 1)] = -1.0 / st.shunt_c;
            }
        }

        // Output: v_die = vC_N + ESR_N (i_N - i_load).
        let last = self.stages[n - 1];
        c[(0, n - 1)] = last.shunt_esr;
        c[(0, 2 * n - 1)] = 1.0;
        d[(0, 1)] = -last.shunt_esr;

        Ok(StateSpace { a, b, c, d })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core2_state_space_dimensions() {
        let sys = LadderConfig::core2_duo(DecapConfig::proc100())
            .state_space()
            .unwrap();
        assert_eq!(sys.state_dim(), 8);
        assert_eq!(sys.input_dim(), 2);
        assert_eq!(sys.output_dim(), 1);
    }

    #[test]
    fn dc_steady_state_matches_ir_droop() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        let sys = cfg.state_space().unwrap();
        let vs = cfg.nominal_voltage();
        let i_load = 20.0;
        let (_, y) = sys.steady_state(&[vs, i_load]).unwrap();
        let expect = vs - i_load * cfg.total_series_resistance();
        assert!(
            (y[0] - expect).abs() < 1e-9,
            "v_die={} expect={}",
            y[0],
            expect
        );
    }

    #[test]
    fn zero_load_steady_state_is_nominal() {
        let cfg = LadderConfig::core2_duo(DecapConfig::proc100());
        let sys = cfg.state_space().unwrap();
        let (_, y) = sys.steady_state(&[cfg.nominal_voltage(), 0.0]).unwrap();
        assert!((y[0] - cfg.nominal_voltage()).abs() < 1e-12);
    }

    #[test]
    fn invalid_stage_is_rejected() {
        let bad = LadderStage {
            series_r: 1e-3,
            series_l: 0.0,
            shunt_c: 1e-6,
            shunt_esr: 1e-3,
        };
        assert!(matches!(
            bad.validate(),
            Err(PdnError::InvalidElement {
                element: "series_l",
                ..
            })
        ));
        assert!(LadderConfig::new("bad", vec![bad], 1.0).is_err());
    }

    #[test]
    fn empty_ladder_is_rejected() {
        assert!(matches!(
            LadderConfig::new("empty", vec![], 1.0),
            Err(PdnError::EmptyLadder)
        ));
    }

    #[test]
    fn retargeted_nominal_voltage_moves_drive_only() {
        let base = LadderConfig::core2_duo(DecapConfig::proc100());
        let low = base.with_nominal_voltage(1.10).unwrap();
        assert!((low.nominal_voltage() - 1.10).abs() < 1e-12);
        assert_eq!(low.stages(), base.stages());
        assert!(low.name().contains("1.100V"));
        assert!(base.with_nominal_voltage(0.0).is_err());
        assert!(base.with_nominal_voltage(f64::NAN).is_err());
    }

    #[test]
    fn decap_removal_reduces_package_capacitance() {
        let full = LadderConfig::core2_duo(DecapConfig::proc100());
        let cut = LadderConfig::core2_duo(DecapConfig::proc25());
        assert!(cut.stages()[2].shunt_c < full.stages()[2].shunt_c);
        assert!(cut.stages()[2].shunt_esr > full.stages()[2].shunt_esr);
        // Only stage 3 (the land-side package bank) is affected.
        assert_eq!(cut.stages()[0], full.stages()[0]);
        assert_eq!(cut.stages()[1], full.stages()[1]);
        assert_eq!(cut.stages()[3], full.stages()[3]);
    }
}
