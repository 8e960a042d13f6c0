//! Small dense linear algebra used by the PDN state-space model.
//!
//! The PDN ladder has at most a handful of states (two per RLC stage),
//! so a simple heap-backed dense matrix with partial-pivot Gaussian
//! elimination is entirely sufficient; no external linear-algebra
//! dependency is warranted.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::linalg::Mat;
///
/// let i = Mat::identity(3);
/// let x = vec![1.0, 2.0, 3.0];
/// assert_eq!(i.mul_vec(&x), x);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Returns `self` scaled by `k`.
    pub(crate) fn scaled(&self, k: f64) -> Mat {
        let mut m = self.clone();
        for v in &mut m.data {
            *v *= k;
        }
        m
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != rows`.
    pub(crate) fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "solve: rhs dimension mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if piv != col {
                for c in 0..n {
                    a.swap(col * n + c, piv * n + c);
                }
                x.swap(col, piv);
            }
            let d = a[col * n + col];
            for r in (col + 1)..n {
                let f = a[r * n + col] / d;
                if f == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= f * a[col * n + c];
                }
                x[r] -= f * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut acc = x[col];
            for c in (col + 1)..n {
                acc -= a[col * n + c] * x[c];
            }
            x[col] = acc / a[col * n + col];
        }
        Some(x)
    }

    /// Computes the matrix inverse, or `None` if singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub(crate) fn inverse(&self) -> Option<Mat> {
        assert_eq!(self.rows, self.cols, "inverse requires a square matrix");
        let n = self.rows;
        let mut out = Mat::zeros(n, n);
        // Solve column by column against unit vectors.
        for c in 0..n {
            let mut e = vec![0.0; n];
            e[c] = 1.0;
            let col = self.solve(&e)?;
            for r in 0..n {
                out[(r, c)] = col[r];
            }
        }
        Some(out)
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if inner dimensions do not match.
    pub(crate) fn matmul(&self, rhs: &Mat) -> Mat {
        assert_eq!(self.cols, rhs.rows, "matmul: inner dimension mismatch");
        let mut out = Mat::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[r * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs.data[k * rhs.cols + c];
                }
            }
        }
        out
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Mat> for &Mat {
    type Output = Mat;

    fn add(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "add: shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
        out
    }
}

impl Sub<&Mat> for &Mat {
    type Output = Mat;

    fn sub(self, rhs: &Mat) -> Mat {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "sub: shape mismatch"
        );
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
        out
    }
}

impl Mul<&Mat> for &Mat {
    type Output = Mat;

    fn mul(self, rhs: &Mat) -> Mat {
        self.matmul(rhs)
    }
}

impl fmt::Display for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                write!(f, "{:12.5e} ", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A complex number for frequency-domain impedance evaluation.
///
/// # Examples
///
/// ```
/// use vsmooth_pdn::linalg::Cpx;
///
/// let z = Cpx::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// let one = z / z;
/// assert!((one.re - 1.0).abs() < 1e-12 && one.im.abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Cpx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cpx {
    /// Zero.
    pub const ZERO: Cpx = Cpx { re: 0.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Cpx {
    type Output = Cpx;

    fn add(self, r: Cpx) -> Cpx {
        Cpx::new(self.re + r.re, self.im + r.im)
    }
}

impl Sub for Cpx {
    type Output = Cpx;

    fn sub(self, r: Cpx) -> Cpx {
        Cpx::new(self.re - r.re, self.im - r.im)
    }
}

impl Mul for Cpx {
    type Output = Cpx;

    fn mul(self, r: Cpx) -> Cpx {
        Cpx::new(
            self.re * r.re - self.im * r.im,
            self.re * r.im + self.im * r.re,
        )
    }
}

impl std::ops::Div for Cpx {
    type Output = Cpx;

    fn div(self, r: Cpx) -> Cpx {
        let d = r.re * r.re + r.im * r.im;
        Cpx::new(
            (self.re * r.re + self.im * r.im) / d,
            (self.im * r.re - self.re * r.im) / d,
        )
    }
}

/// Solves the complex linear system `m * x = b` (row-major `n × n` `m`).
///
/// Uses Gaussian elimination with partial pivoting on magnitudes.
/// Returns `None` when the system is numerically singular.
///
/// # Panics
///
/// Panics if `m.len() != n*n` or `b.len() != n`.
pub(crate) fn solve_complex(n: usize, m: &[Cpx], b: &[Cpx]) -> Option<Vec<Cpx>> {
    assert_eq!(m.len(), n * n, "solve_complex: matrix size mismatch");
    assert_eq!(b.len(), n, "solve_complex: rhs size mismatch");
    let mut a = m.to_vec();
    let mut x = b.to_vec();
    for col in 0..n {
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-300 {
            return None;
        }
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            x.swap(col, piv);
        }
        let d = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            for c in col..n {
                let v = a[col * n + c];
                a[r * n + c] = a[r * n + c] - f * v;
            }
            let xv = x[col];
            x[r] = x[r] - f * xv;
        }
    }
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc = acc - a[col * n + c] * x[c];
        }
        x[col] = acc / a[col * n + col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Mat {
        /// Creates a matrix from a row-major data vector (test fixtures
        /// here and in `statespace`).
        ///
        /// # Panics
        ///
        /// Panics if `data.len() != rows * cols`.
        pub(crate) fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
            assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
            assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
            Self { rows, cols, data }
        }
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let i = Mat::identity(4);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.solve(&b).unwrap(), b);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5 ; x - y = 1  =>  x = 2, y = 1
        let m = Mat::from_rows(2, 2, vec![2.0, 1.0, 1.0, -1.0]);
        let x = m.solve(&[5.0, 1.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let m = Mat::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(m.solve(&[1.0, 2.0]).is_none());
        assert!(m.inverse().is_none());
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let m = Mat::from_rows(3, 3, vec![4.0, 2.0, 0.5, 1.0, 3.0, -1.0, 0.0, 2.0, 7.0]);
        let inv = m.inverse().unwrap();
        let prod = m.matmul(&inv);
        let i = Mat::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert!((prod[(r, c)] - i[(r, c)]).abs() < 1e-10, "prod={prod}");
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let m = Mat::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = m.solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn matrix_ops_shapes() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 4);
        assert_eq!(a.matmul(&b).rows(), 2);
        assert_eq!(a.matmul(&b).cols(), 4);
    }

    #[test]
    fn complex_solve_known_system() {
        // (1+i) x = 2i  =>  x = 2i/(1+i) = 1 + i
        let m = vec![Cpx::new(1.0, 1.0)];
        let b = vec![Cpx::new(0.0, 2.0)];
        let x = solve_complex(1, &m, &b).unwrap();
        assert!((x[0].re - 1.0).abs() < 1e-12);
        assert!((x[0].im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Cpx::new(1.0, 2.0);
        let b = Cpx::new(3.0, -1.0);
        let s = a + b;
        assert_eq!(s, Cpx::new(4.0, 1.0));
        let p = a * b;
        assert_eq!(p, Cpx::new(5.0, 5.0));
        assert_eq!((a - a), Cpx::ZERO);
    }

    proptest! {
        #[test]
        fn solve_then_multiply_recovers_rhs(
            vals in proptest::collection::vec(-10.0f64..10.0, 9),
            b in proptest::collection::vec(-10.0f64..10.0, 3),
        ) {
            let mut m = Mat::from_rows(3, 3, vals);
            // Make it diagonally dominant so it is well-conditioned.
            for i in 0..3 {
                m[(i, i)] += 40.0;
            }
            let x = m.solve(&b).unwrap();
            let back = m.mul_vec(&x);
            for i in 0..3 {
                prop_assert!((back[i] - b[i]).abs() < 1e-8);
            }
        }

        #[test]
        fn complex_solve_round_trip(
            re in proptest::collection::vec(-5.0f64..5.0, 4),
            im in proptest::collection::vec(-5.0f64..5.0, 4),
            bre in proptest::collection::vec(-5.0f64..5.0, 2),
            bim in proptest::collection::vec(-5.0f64..5.0, 2),
        ) {
            let mut m: Vec<Cpx> = re.iter().zip(&im).map(|(&r, &i)| Cpx::new(r, i)).collect();
            m[0] = m[0] + Cpx::new(20.0, 0.0);
            m[3] = m[3] + Cpx::new(20.0, 0.0);
            let b: Vec<Cpx> = bre.iter().zip(&bim).map(|(&r, &i)| Cpx::new(r, i)).collect();
            let x = solve_complex(2, &m, &b).unwrap();
            for r in 0..2 {
                let mut acc = Cpx::ZERO;
                for c in 0..2 {
                    acc = acc + m[r * 2 + c] * x[c];
                }
                prop_assert!((acc - b[r]).abs() < 1e-8);
            }
        }
    }
}
