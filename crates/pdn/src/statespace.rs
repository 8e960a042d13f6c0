//! Continuous state-space model `ẋ = Ax + Bu`, `y = Cx + Du` and its
//! bilinear (trapezoidal) discretization.
//!
//! The bilinear transform is A-stable: even the strongly underdamped
//! decap-removed configurations (Proc3, Proc0) remain numerically stable
//! at the core clock period, which forward Euler would not guarantee.

use crate::linalg::{solve_complex, Cpx, Mat};

/// A continuous-time LTI system.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpace {
    /// State matrix (n × n).
    pub a: Mat,
    /// Input matrix (n × m).
    pub b: Mat,
    /// Output matrix (p × n).
    pub c: Mat,
    /// Feed-through matrix (p × m).
    pub d: Mat,
}

impl StateSpace {
    /// Validates shape consistency; returns the state dimension.
    ///
    /// # Panics
    ///
    /// Panics if the four matrices are not dimensionally consistent.
    pub fn state_dim(&self) -> usize {
        let n = self.a.rows();
        assert_eq!(self.a.cols(), n, "A must be square");
        assert_eq!(self.b.rows(), n, "B rows must match state dim");
        assert_eq!(self.c.cols(), n, "C cols must match state dim");
        assert_eq!(self.d.rows(), self.c.rows(), "D rows must match outputs");
        assert_eq!(self.d.cols(), self.b.cols(), "D cols must match inputs");
        n
    }

    /// Number of inputs.
    pub(crate) fn input_dim(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub(crate) fn output_dim(&self) -> usize {
        self.c.rows()
    }

    /// DC steady-state `(x, y)` for a constant input `u`.
    ///
    /// Solves `A x = -B u`. Returns `None` if `A` is singular (a pure
    /// integrator chain has no finite DC operating point).
    pub fn steady_state(&self, u: &[f64]) -> Option<(Vec<f64>, Vec<f64>)> {
        let bu = self.b.mul_vec(u);
        let neg: Vec<f64> = bu.iter().map(|v| -v).collect();
        let x = self.a.solve(&neg)?;
        let mut y = self.c.mul_vec(&x);
        let du = self.d.mul_vec(u);
        for (yi, di) in y.iter_mut().zip(&du) {
            *yi += di;
        }
        Some((x, y))
    }

    /// Frequency response matrix entry: `G(jω) = C (jωI − A)⁻¹ B + D`
    /// evaluated for one input column, returning the complex gain from
    /// input `input` to each output.
    ///
    /// Returns `None` if `(jωI − A)` is singular at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if `input >= self.input_dim()`.
    pub fn frequency_response(&self, omega: f64, input: usize) -> Option<Vec<Cpx>> {
        let n = self.state_dim();
        assert!(input < self.input_dim(), "input index out of range");
        // Build (jωI - A) and B column as complex.
        let mut m = vec![Cpx::ZERO; n * n];
        for r in 0..n {
            for c in 0..n {
                let re = -self.a[(r, c)];
                let im = if r == c { omega } else { 0.0 };
                m[r * n + c] = Cpx::new(re, im);
            }
        }
        let b: Vec<Cpx> = (0..n).map(|r| Cpx::new(self.b[(r, input)], 0.0)).collect();
        let x = solve_complex(n, &m, &b)?;
        let p = self.output_dim();
        let out = (0..p)
            .map(|r| {
                let mut acc = Cpx::new(self.d[(r, input)], 0.0);
                for (c, xc) in x.iter().enumerate() {
                    acc = acc + Cpx::new(self.c[(r, c)], 0.0) * *xc;
                }
                acc
            })
            .collect();
        Some(out)
    }

    /// Discretizes with the bilinear (Tustin/trapezoidal) transform at
    /// time step `dt` seconds.
    ///
    /// Returns `None` if `(I − A·dt/2)` is singular, which cannot happen
    /// for a passive RLC network at any positive `dt`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not a positive finite number.
    pub fn discretize(&self, dt: f64) -> Option<DiscreteStateSpace> {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive and finite");
        let n = self.state_dim();
        let i = Mat::identity(n);
        let half = self.a.scaled(dt / 2.0);
        let m_minus = &i - &half;
        let m_plus = &i + &half;
        let inv = m_minus.inverse()?;
        let ad = inv.matmul(&m_plus);
        let bd = inv.matmul(&self.b).scaled(dt);
        Some(DiscreteStateSpace {
            ad,
            bd,
            c: self.c.clone(),
            d: self.d.clone(),
            dt,
            x: vec![0.0; n],
            scratch: Vec::with_capacity(n),
        })
    }
}

/// A discretized LTI system with internal state, stepped once per clock
/// cycle by the chip simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteStateSpace {
    ad: Mat,
    bd: Mat,
    c: Mat,
    d: Mat,
    dt: f64,
    x: Vec<f64>,
    scratch: Vec<f64>,
}

impl DiscreteStateSpace {
    /// Time step in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Current state vector.
    pub fn state(&self) -> &[f64] {
        &self.x
    }

    /// Overwrites the state vector (e.g. with a DC steady state).
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the state dimension.
    pub fn set_state(&mut self, x: &[f64]) {
        assert_eq!(x.len(), self.x.len(), "state dimension mismatch");
        self.x.copy_from_slice(x);
    }

    /// Advances one time step with input held at `u`; returns the outputs
    /// *after* the step.
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` does not match the input dimension.
    pub fn step(&mut self, u: &[f64]) -> Vec<f64> {
        self.step_first(u);
        self.output(u)
    }

    /// Advances one time step and returns only the first output —
    /// the allocation-free fast path the per-cycle chip loop uses
    /// (the PDN's single output is the die voltage).
    ///
    /// # Panics
    ///
    /// Panics if `u.len()` does not match the input dimension.
    pub fn step_first(&mut self, u: &[f64]) -> f64 {
        let n = self.x.len();
        debug_assert_eq!(u.len(), self.bd.cols(), "input dimension mismatch");
        // x' = Ad x + Bd u, computed into the scratch buffer.
        self.scratch.clear();
        for r in 0..n {
            let mut acc = 0.0;
            for c in 0..n {
                acc += self.ad[(r, c)] * self.x[c];
            }
            for (c, &uc) in u.iter().enumerate() {
                acc += self.bd[(r, c)] * uc;
            }
            self.scratch.push(acc);
        }
        std::mem::swap(&mut self.x, &mut self.scratch);
        let mut y = 0.0;
        for c in 0..n {
            y += self.c[(0, c)] * self.x[c];
        }
        for (c, &uc) in u.iter().enumerate() {
            y += self.d[(0, c)] * uc;
        }
        y
    }

    /// The discretized system matrices `(Ad, Bd, C, D)`.
    ///
    /// Exposed so a caller that steps the system in a hot loop can
    /// build its own fixed-size kernel from the same coefficients; any
    /// such kernel must reproduce [`DiscreteStateSpace::step_first`]'s
    /// exact accumulation order to stay bit-identical.
    pub fn system_matrices(&self) -> (&Mat, &Mat, &Mat, &Mat) {
        (&self.ad, &self.bd, &self.c, &self.d)
    }

    /// Output for the current state and input without advancing time.
    pub fn output(&self, u: &[f64]) -> Vec<f64> {
        let mut y = self.c.mul_vec(&self.x);
        let du = self.d.mul_vec(u);
        for (yi, di) in y.iter_mut().zip(&du) {
            *yi += di;
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// First-order RC low-pass: ẋ = -(1/RC) x + (1/RC) u, y = x.
    fn rc(tau: f64) -> StateSpace {
        StateSpace {
            a: Mat::from_rows(1, 1, vec![-1.0 / tau]),
            b: Mat::from_rows(1, 1, vec![1.0 / tau]),
            c: Mat::from_rows(1, 1, vec![1.0]),
            d: Mat::from_rows(1, 1, vec![0.0]),
        }
    }

    #[test]
    fn steady_state_of_rc_tracks_input() {
        let sys = rc(1e-3);
        let (x, y) = sys.steady_state(&[2.5]).unwrap();
        assert!((x[0] - 2.5).abs() < 1e-12);
        assert!((y[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn discrete_step_converges_to_steady_state() {
        let sys = rc(1e-6);
        let mut d = sys.discretize(1e-7).unwrap();
        let mut y = 0.0;
        for _ in 0..200 {
            y = d.step(&[1.0])[0];
        }
        assert!((y - 1.0).abs() < 1e-6, "y={y}");
    }

    #[test]
    fn discrete_step_matches_analytic_exponential() {
        let tau = 1e-6;
        let sys = rc(tau);
        let dt = tau / 50.0;
        let mut d = sys.discretize(dt).unwrap();
        let mut y = 0.0;
        for _ in 0..50 {
            y = d.step(&[1.0])[0];
        }
        // After one time constant, the response is 1 - e^-1 ≈ 0.632.
        let expect = 1.0 - (-1.0f64).exp();
        assert!((y - expect).abs() < 0.01, "y={y} expect={expect}");
    }

    #[test]
    fn frequency_response_of_rc_is_low_pass() {
        let tau = 1e-6;
        let sys = rc(tau);
        let dc = sys.frequency_response(0.0, 0).unwrap()[0].abs();
        let corner = sys.frequency_response(1.0 / tau, 0).unwrap()[0].abs();
        let high = sys.frequency_response(100.0 / tau, 0).unwrap()[0].abs();
        assert!((dc - 1.0).abs() < 1e-9);
        assert!((corner - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!(high < 0.02);
    }

    #[test]
    fn bilinear_is_stable_for_undamped_oscillator() {
        // ẋ1 = x2 ; ẋ2 = -ω² x1 (no damping). Bilinear keeps |poles| = 1.
        let w = 2.0 * std::f64::consts::PI * 1e8;
        let sys = StateSpace {
            a: Mat::from_rows(2, 2, vec![0.0, 1.0, -w * w, 0.0]),
            b: Mat::from_rows(2, 1, vec![0.0, 1.0]),
            c: Mat::from_rows(1, 2, vec![1.0, 0.0]),
            d: Mat::from_rows(1, 1, vec![0.0]),
        };
        let mut d = sys.discretize(5e-10).unwrap();
        d.set_state(&[1.0, 0.0]);
        let mut peak: f64 = 0.0;
        for _ in 0..100_000 {
            let y = d.step(&[0.0])[0];
            peak = peak.max(y.abs());
        }
        assert!(peak < 1.2, "undamped oscillation grew: peak={peak}");
    }

    #[test]
    fn step_first_matches_step() {
        let sys = rc(1e-6);
        let mut a = sys.discretize(1e-8).unwrap();
        let mut b = sys.discretize(1e-8).unwrap();
        for k in 0..100 {
            let u = [((k as f64) * 0.1).sin()];
            let ya = a.step(&u)[0];
            let yb = b.step_first(&u);
            assert!((ya - yb).abs() < 1e-15);
        }
    }

    #[test]
    fn set_state_and_output_roundtrip() {
        let sys = rc(1e-6);
        let mut d = sys.discretize(1e-8).unwrap();
        d.set_state(&[0.7]);
        assert_eq!(d.state(), &[0.7]);
        assert!((d.output(&[0.0])[0] - 0.7).abs() < 1e-12);
    }
}
