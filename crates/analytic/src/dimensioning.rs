//! Dimensioning of the consistency radius `r` and density threshold `τ`.
//!
//! Implements the probability models of Section VII-A:
//!
//! * `P{N_r(j) ≤ m}` — the cdf of the vicinity population (Figure 6(a)),
//!   where `N_r(j) ~ Binomial(n−1, q_j)`;
//! * `P{F_r(j) ≤ τ}` — the probability that at most `τ` *independent*
//!   isolated errors hit devices in the vicinity of `j` (Figure 6(b)), where
//!   `F_r(j) | N_r(j)=m ~ Binomial(m, b)`;
//! * a solver choosing the smallest `τ` that makes
//!   `P{F_r(j) > τ}` negligible for given `n`, `r`, `b`, `ε`.

use crate::binomial::{binomial_cdf, binomial_pmf};
use crate::vicinity::vicinity_probability_bulk;
use std::error::Error;
use std::fmt;

/// Errors from the dimensioning solvers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DimensioningError {
    /// A probability parameter was outside `[0,1]`.
    InvalidProbability {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// No threshold up to the population size satisfies the target.
    NoFeasibleThreshold {
        /// The requested tolerance.
        epsilon: f64,
    },
}

impl fmt::Display for DimensioningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DimensioningError::InvalidProbability { name, value } => {
                write!(f, "parameter {name} = {value} is not a probability")
            }
            DimensioningError::NoFeasibleThreshold { epsilon } => {
                write!(f, "no density threshold achieves tolerance {epsilon}")
            }
        }
    }
}

impl Error for DimensioningError {}

/// `P{N_r(j) ≤ m}` — probability that at most `m` of the other `n−1`
/// devices land in the vicinity of device `j` (Figure 6(a)).
///
/// Uses the bulk vicinity probability `q = (4r)^d` like the paper.
///
/// # Panics
///
/// Panics if `n == 0`, `r ∉ [0, 1/4)`, or `d == 0`.
///
/// # Example
///
/// ```
/// // n = 1000, r = 0.03, d = 2: the vicinity holds ~14.4 devices on average,
/// // so P{N ≤ 30} is close to 1.
/// let p = anomaly_analytic::prob_vicinity_at_most(1000, 0.03, 2, 30);
/// assert!(p > 0.99);
/// ```
pub fn prob_vicinity_at_most(n: u64, r: f64, d: usize, m: u64) -> f64 {
    assert!(n >= 1, "population must be at least 1");
    let q = vicinity_probability_bulk(r, d);
    binomial_cdf(n - 1, m, q)
}

/// `P{F_r(j) ≤ τ}` — probability that at most `τ` devices in the vicinity of
/// `j` are hit by independent isolated errors in one interval (Figure 6(b)).
///
/// Evaluated exactly as in the paper:
///
/// ```text
/// P{F ≤ τ} = Σ_m Σ_{ℓ≤τ} C(m,ℓ) b^ℓ (1−b)^{m−ℓ} · C(n−1,m) q^m (1−q)^{n−1−m}
/// ```
///
/// but computed through the equivalent thinned binomial
/// `F ~ Binomial(n−1, q·b)` (each of the `n−1` devices independently lands in
/// the vicinity *and* is hit with probability `q·b`), which is exact and
/// avoids the `O(n²)` double sum. The double sum is retained in tests as a
/// cross-check.
///
/// # Errors
///
/// Returns [`DimensioningError::InvalidProbability`] if `b ∉ [0,1]`.
///
/// # Panics
///
/// Panics if `n == 0`, `r ∉ [0, 1/4)`, or `d == 0`.
pub fn prob_false_dense_at_most(
    n: u64,
    r: f64,
    d: usize,
    b: f64,
    tau: u64,
) -> Result<f64, DimensioningError> {
    assert!(n >= 1, "population must be at least 1");
    if !(0.0..=1.0).contains(&b) || !b.is_finite() {
        return Err(DimensioningError::InvalidProbability {
            name: "b",
            value: b,
        });
    }
    let q = vicinity_probability_bulk(r, d);
    Ok(binomial_cdf(n - 1, tau, q * b))
}

/// `P{F_r(j) > τ}` — the complement of [`prob_false_dense_at_most`]; the
/// quantity the paper requires to be below a small `ε`.
///
/// # Errors
///
/// Returns [`DimensioningError::InvalidProbability`] if `b ∉ [0,1]`.
pub fn prob_false_dense_exceeds(
    n: u64,
    r: f64,
    d: usize,
    b: f64,
    tau: u64,
) -> Result<f64, DimensioningError> {
    Ok(1.0 - prob_false_dense_at_most(n, r, d, b, tau)?)
}

/// `P{F ≤ τ}` for an explicit vicinity probability `q`.
///
/// The paper's Figure 6(b) y-range (all curves above 0.997 up to
/// `n = 15 000`) is matched by a vicinity of radius `r` (`q = (2r)^d`)
/// rather than the `2r` used in the text (`q = (4r)^d`); exposing `q`
/// lets the reproduction harness print both variants. See the README's
/// "Reproduction gaps" section.
///
/// # Errors
///
/// Returns [`DimensioningError::InvalidProbability`] if `b` or `q` is not a
/// probability.
pub fn prob_false_dense_at_most_with_q(
    n: u64,
    q: f64,
    b: f64,
    tau: u64,
) -> Result<f64, DimensioningError> {
    assert!(n >= 1, "population must be at least 1");
    if !(0.0..=1.0).contains(&b) || !b.is_finite() {
        return Err(DimensioningError::InvalidProbability {
            name: "b",
            value: b,
        });
    }
    if !(0.0..=1.0).contains(&q) || !q.is_finite() {
        return Err(DimensioningError::InvalidProbability {
            name: "q",
            value: q,
        });
    }
    Ok(binomial_cdf(n - 1, tau, q * b))
}

/// Reference implementation of the paper's double sum (used by tests and the
/// figure harness to show the two formulations agree).
pub fn prob_false_dense_at_most_double_sum(n: u64, r: f64, d: usize, b: f64, tau: u64) -> f64 {
    let q = vicinity_probability_bulk(r, d);
    let mut total = 0.0;
    for m in 0..n {
        let pn = binomial_pmf(n - 1, m, q);
        if pn == 0.0 {
            continue;
        }
        let pf = binomial_cdf(m, tau, b);
        total += pf * pn;
    }
    total.clamp(0.0, 1.0)
}

/// Picks the smallest density threshold `τ` such that
/// `P{F_r(j) > τ} < ε` — the dimensioning rule of Section VII-A.
///
/// # Errors
///
/// * [`DimensioningError::InvalidProbability`] if `b` or `epsilon` is not a
///   probability;
/// * [`DimensioningError::NoFeasibleThreshold`] if even `τ = n−1` misses the
///   target (cannot happen for `ε > 0` since `P{F > n−1} = 0`, but guarded).
///
/// # Example
///
/// ```
/// // The paper settles on τ = 3 for n = 1000, r = 0.03, b = 0.005.
/// let tau = anomaly_analytic::solve_tau(1000, 0.03, 2, 0.005, 1e-4)?;
/// assert!(tau <= 3);
/// # Ok::<(), anomaly_analytic::DimensioningError>(())
/// ```
pub fn solve_tau(n: u64, r: f64, d: usize, b: f64, epsilon: f64) -> Result<u64, DimensioningError> {
    if !(0.0..=1.0).contains(&epsilon) || !epsilon.is_finite() {
        return Err(DimensioningError::InvalidProbability {
            name: "epsilon",
            value: epsilon,
        });
    }
    for tau in 0..n {
        if prob_false_dense_exceeds(n, r, d, b, tau)? < epsilon {
            return Ok(tau);
        }
    }
    Err(DimensioningError::NoFeasibleThreshold { epsilon })
}

/// Picks the largest radius `r` (on a fixed grid of step `grid_step`) whose
/// expected vicinity population stays at or below `target_mean` devices —
/// the "m logarithmic in n" sizing argument of Figure 6(a).
///
/// Returns the largest feasible `r` in `(0, 1/4)`, or `None` when even the
/// smallest grid radius exceeds the target.
///
/// # Panics
///
/// Panics if `grid_step` is not in `(0, 1/4)` or `target_mean < 0`.
///
/// # Example
///
/// ```
/// // For n = 1000 and a target vicinity of ~15 devices, the solver lands
/// // on the paper's r = 0.03.
/// let r = anomaly_analytic::dimensioning::solve_radius(1000, 2, 15.0, 0.005).unwrap();
/// assert!((r - 0.03).abs() < 1e-9);
/// ```
pub fn solve_radius(n: u64, d: usize, target_mean: f64, grid_step: f64) -> Option<f64> {
    assert!(
        grid_step > 0.0 && grid_step < 0.25,
        "grid step must be in (0, 1/4)"
    );
    assert!(target_mean >= 0.0, "target mean must be non-negative");
    let mut best = None;
    let mut r = grid_step;
    while r < 0.25 {
        let mean = vicinity_probability_bulk(r, d) * (n.saturating_sub(1)) as f64;
        if mean <= target_mean {
            best = Some(r);
        } else {
            break; // mean is monotone in r
        }
        r += grid_step;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn solve_radius_monotone_in_target() {
        let r_small = solve_radius(1000, 2, 5.0, 0.005).unwrap();
        let r_large = solve_radius(1000, 2, 50.0, 0.005).unwrap();
        assert!(r_small < r_large);
    }

    #[test]
    fn solve_radius_infeasible_target() {
        // Even r = 0.001 yields a positive mean; target 0 is infeasible.
        assert_eq!(solve_radius(100_000, 2, 0.0, 0.001), None);
    }

    #[test]
    fn solve_radius_respects_the_bound() {
        let r = solve_radius(1000, 2, 15.0, 0.005).unwrap();
        let mean = vicinity_probability_bulk(r, 2) * 999.0;
        assert!(mean <= 15.0);
        // And the next grid point would overshoot.
        let next = vicinity_probability_bulk(r + 0.005, 2) * 999.0;
        assert!(next > 15.0);
    }

    #[test]
    fn fig6a_shape_r_larger_means_bigger_vicinity() {
        // For fixed m, a larger r puts more devices in the vicinity, so the
        // cdf at m is smaller.
        let n = 1000;
        let m = 25;
        let p_small = prob_vicinity_at_most(n, 0.02, 2, m);
        let p_large = prob_vicinity_at_most(n, 0.1, 2, m);
        assert!(p_small > p_large);
        // r = 0.02 -> q = 0.0064 -> mean ~6.4, so P{N<=25} ~ 1.
        assert!(p_small > 0.999);
        // r = 0.1 -> q = 0.16 -> mean 160, so P{N<=25} ~ 0.
        assert!(p_large < 1e-6);
    }

    #[test]
    fn fig6a_paper_operating_point() {
        // r = 0.03, n = 1000: mean vicinity size 14.4, "logarithmic in n".
        // The cdf should cross ~0.5 near m = 14 and be ~1 by m = 30.
        let near_mean = prob_vicinity_at_most(1000, 0.03, 2, 14);
        assert!((0.3..0.7).contains(&near_mean), "got {near_mean}");
        assert!(prob_vicinity_at_most(1000, 0.03, 2, 30) > 0.999);
    }

    #[test]
    fn fig6b_paper_operating_point() {
        // r = 0.03, b = 0.005, τ = 3. With the text's vicinity (radius 2r,
        // q = (4r)^d) the exact probability sits slightly below the figure's
        // 0.997 floor at the far end of the sweep; the figure's band is
        // matched by a radius-r vicinity (q = (2r)^d). Assert both.
        for &n in &[1000u64, 5000, 10_000, 15_000] {
            let p_text = prob_false_dense_at_most(n, 0.03, 2, 0.005, 3).unwrap();
            assert!(p_text > 0.97, "text model, n = {n}: got {p_text}");
            let q_fig = (2.0 * 0.03f64).powi(2);
            let p_fig = prob_false_dense_at_most_with_q(n, q_fig, 0.005, 2).unwrap();
            assert!(p_fig > 0.997, "figure model, n = {n}: got {p_fig}");
        }
    }

    #[test]
    fn fig6b_monotone_in_tau() {
        let mut prev = 0.0;
        for tau in 2..=5 {
            let p = prob_false_dense_at_most(10_000, 0.03, 2, 0.005, tau).unwrap();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn fig6b_decreasing_in_n() {
        let mut prev = 1.0;
        for n in [500u64, 2000, 8000, 15_000] {
            let p = prob_false_dense_at_most(n, 0.03, 2, 0.005, 2).unwrap();
            assert!(p <= prev + 1e-12);
            prev = p;
        }
    }

    #[test]
    fn thinning_matches_double_sum() {
        for &(n, r, b, tau) in &[
            (500u64, 0.03, 0.005, 2u64),
            (1000, 0.05, 0.01, 3),
            (2000, 0.02, 0.002, 4),
        ] {
            let fast = prob_false_dense_at_most(n, r, 2, b, tau).unwrap();
            let slow = prob_false_dense_at_most_double_sum(n, r, 2, b, tau);
            assert!(
                (fast - slow).abs() < 1e-9,
                "n={n} r={r} b={b} tau={tau}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn solve_tau_matches_paper_choice() {
        // ε chosen at the resolution of Figure 6(b)'s y axis.
        let tau = solve_tau(1000, 0.03, 2, 0.005, 1e-4).unwrap();
        assert!(tau <= 3, "paper uses τ = 3, solver found {tau}");
        // Must actually satisfy the bound.
        assert!(prob_false_dense_exceeds(1000, 0.03, 2, 0.005, tau).unwrap() < 1e-4);
    }

    #[test]
    fn solve_tau_rejects_bad_epsilon() {
        assert!(solve_tau(100, 0.03, 2, 0.005, -1.0).is_err());
        assert!(solve_tau(100, 0.03, 2, 0.005, f64::NAN).is_err());
    }

    #[test]
    fn rejects_bad_b() {
        assert!(prob_false_dense_at_most(100, 0.03, 2, 1.5, 2).is_err());
    }

    #[test]
    fn errors_display() {
        let e = DimensioningError::InvalidProbability {
            name: "b",
            value: 2.0,
        };
        assert!(e.to_string().contains('b'));
        let e = DimensioningError::NoFeasibleThreshold { epsilon: 0.1 };
        assert!(e.to_string().contains("0.1"));
    }

    proptest! {
        /// The exceed probability is a valid probability and monotone in τ.
        #[test]
        fn exceeds_monotone(n in 2u64..3000, r in 0.005..0.24f64, b in 0.0..0.05f64) {
            let p2 = prob_false_dense_exceeds(n, r, 2, b, 2).unwrap();
            let p3 = prob_false_dense_exceeds(n, r, 2, b, 3).unwrap();
            prop_assert!((-1e-12..=1.0).contains(&p2));
            prop_assert!(p3 <= p2 + 1e-12);
        }

        /// solve_tau returns the minimal feasible threshold.
        #[test]
        fn solve_tau_minimal(n in 10u64..2000, b in 0.001..0.02f64) {
            let tau = solve_tau(n, 0.03, 2, b, 1e-3).unwrap();
            prop_assert!(prob_false_dense_exceeds(n, 0.03, 2, b, tau).unwrap() < 1e-3);
            if tau > 0 {
                prop_assert!(prob_false_dense_exceeds(n, 0.03, 2, b, tau - 1).unwrap() >= 1e-3);
            }
        }
    }
}
