use std::error::Error;
use std::fmt;

/// The two tuning knobs of the characterization (Section III).
///
/// * `r` — the consistency-impact radius, `r ∈ [0, 1/4)` (Definition 1);
///   devices of one anomaly stay within uniform distance `2r` of each other.
/// * `tau` — the density threshold (Definition 4); a motion with more than
///   `τ` devices is *dense* (massive anomaly), otherwise *sparse* (isolated).
///
/// Section VII-A dimensions these so that the probability of more than `τ`
/// independent errors hitting a `2r`-vicinity is negligible; the
/// `anomaly-analytic` crate implements that computation.
///
/// # Example
///
/// ```
/// use anomaly_core::Params;
/// let params = Params::new(0.03, 3)?; // the paper's operating point
/// assert_eq!(params.radius(), 0.03);
/// assert_eq!(params.tau(), 3);
/// assert_eq!(params.window(), 0.06); // 2r
/// # Ok::<(), anomaly_core::ParamsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    r: f64,
    tau: usize,
}

/// Validation errors for [`Params`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParamsError {
    /// `r` was outside `[0, 1/4)` or not finite.
    InvalidRadius {
        /// The offending radius.
        radius: f64,
    },
    /// `τ` was zero (Definition 4 requires `τ ∈ [[1, n−1]]`).
    ZeroTau,
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::InvalidRadius { radius } => {
                write!(f, "radius {radius} is outside the valid range [0, 1/4)")
            }
            ParamsError::ZeroTau => write!(f, "density threshold tau must be at least 1"),
        }
    }
}

impl Error for ParamsError {}

impl Params {
    /// Validates and creates a parameter set.
    ///
    /// # Errors
    ///
    /// * [`ParamsError::InvalidRadius`] if `r ∉ [0, 1/4)`;
    /// * [`ParamsError::ZeroTau`] if `tau == 0`.
    pub const fn new(r: f64, tau: usize) -> Result<Self, ParamsError> {
        if !r.is_finite() || r < 0.0 || r >= 0.25 {
            return Err(ParamsError::InvalidRadius { radius: r });
        }
        if tau == 0 {
            return Err(ParamsError::ZeroTau);
        }
        Ok(Params { r, tau })
    }

    /// The paper's operating point (Section VII-A): `r = 0.03`, `τ = 3`.
    pub const PAPER: Params = Params { r: 0.03, tau: 3 };

    /// The consistency-impact radius `r`.
    pub fn radius(&self) -> f64 {
        self.r
    }

    /// The density threshold `τ`.
    pub fn tau(&self) -> usize {
        self.tau
    }

    /// The sliding-window width `2r` used by all consistency checks.
    pub fn window(&self) -> f64 {
        2.0 * self.r
    }

    /// True if a motion of `size` devices is τ-dense (`size > τ`).
    pub fn is_dense(&self, size: usize) -> bool {
        size > self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_paper_operating_point() {
        let p = Params::new(0.03, 3).unwrap();
        assert_eq!(p.radius(), 0.03);
        assert_eq!(p.tau(), 3);
        assert!((p.window() - 0.06).abs() < 1e-15);
        assert_eq!(p, Params::PAPER);
    }

    #[test]
    fn rejects_radius_out_of_range() {
        assert!(matches!(
            Params::new(0.25, 3),
            Err(ParamsError::InvalidRadius { .. })
        ));
        assert!(Params::new(-0.1, 3).is_err());
        assert!(Params::new(f64::NAN, 3).is_err());
    }

    #[test]
    fn rejects_zero_tau() {
        assert_eq!(Params::new(0.03, 0), Err(ParamsError::ZeroTau));
    }

    #[test]
    fn density_threshold_is_strict() {
        let p = Params::new(0.03, 3).unwrap();
        assert!(!p.is_dense(3));
        assert!(p.is_dense(4));
    }

    #[test]
    fn errors_display() {
        assert!(Params::new(0.9, 1).unwrap_err().to_string().contains("0.9"));
        assert!(Params::new(0.1, 0).unwrap_err().to_string().contains("tau"));
    }
}
