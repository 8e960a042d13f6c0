//! Correlation and least-squares fitting (Fig. 15 reports a 0.97
//! linear correlation between droop counts and stall ratio).

/// Pearson linear correlation coefficient between two equal-length series.
///
/// Returns `0.0` when either series has zero variance or fewer than two
/// points (no linear relationship can be established).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// let r = vsmooth_stats::pearson(&[1.0, 2.0, 3.0], &[6.0, 4.0, 2.0]);
/// assert!((r + 1.0).abs() < 1e-12);
/// ```
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson: series must have equal length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mx = crate::mean(xs);
    let my = crate::mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx.sqrt() * syy.sqrt())
}

/// Result of a least-squares line fit `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (square of [`pearson`]).
    pub r_squared: f64,
}

impl LinearFit {
    /// Predicted `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Ordinary least-squares fit of `ys` on `xs`.
///
/// Returns `None` when fewer than two points are given or `xs` has zero
/// variance (vertical line).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// let fit = vsmooth_stats::linear_fit(&[0.0, 1.0, 2.0], &[1.0, 3.0, 5.0]).unwrap();
/// assert!((fit.slope - 2.0).abs() < 1e-12);
/// assert!((fit.intercept - 1.0).abs() < 1e-12);
/// ```
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(
        xs.len(),
        ys.len(),
        "linear_fit: series must have equal length"
    );
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let mx = crate::mean(xs);
    let my = crate::mean(ys);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        sxy += dx * (ys[i] - my);
        sxx += dx * dx;
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r = pearson(xs, ys);
    Some(LinearFit {
        slope,
        intercept,
        r_squared: r * r,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_positive_correlation() {
        let r = pearson(&[0.0, 1.0, 2.0, 3.0], &[10.0, 20.0, 30.0, 40.0]);
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_variance_gives_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn short_series_gives_zero() {
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        pearson(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn fit_recovers_exact_line() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| -0.5 * x + 7.0).collect();
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.slope + 0.5).abs() < 1e-12);
        assert!((fit.intercept - 7.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
        assert!((fit.predict(10.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fit_returns_none_for_vertical_line() {
        assert!(linear_fit(&[2.0, 2.0], &[1.0, 3.0]).is_none());
    }

    proptest! {
        #[test]
        fn pearson_bounded(
            xs in proptest::collection::vec(-1e3f64..1e3, 2..50),
            ys in proptest::collection::vec(-1e3f64..1e3, 2..50),
        ) {
            let n = xs.len().min(ys.len());
            let r = pearson(&xs[..n], &ys[..n]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
        }

        #[test]
        fn pearson_is_symmetric(
            pairs in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..50),
        ) {
            let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            let a = pearson(&xs, &ys);
            let b = pearson(&ys, &xs);
            prop_assert!((a - b).abs() < 1e-9);
        }

        #[test]
        fn pearson_invariant_to_affine_transform(
            xs in proptest::collection::vec(0.0f64..1e2, 3..30),
            scale in 0.1f64..10.0,
            shift in -1e2f64..1e2,
        ) {
            // Need variance in xs for a meaningful test.
            prop_assume!(crate::std_dev(&xs) > 1e-6);
            let ys: Vec<f64> = xs.iter().map(|x| x * scale + shift).collect();
            let r = pearson(&xs, &ys);
            prop_assert!((r - 1.0).abs() < 1e-6);
        }
    }
}
