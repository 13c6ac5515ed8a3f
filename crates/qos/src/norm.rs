//! Norms on the QoS space.
//!
//! The paper uses the uniform norm `‖x‖ = max_i |x_i|` throughout
//! (Section III-B), noting that on a finite-dimensional space all norms are
//! equivalent up to a constant factor. Every definition and theorem is
//! stated in it, so it is the only norm this crate provides.

/// Distance under the uniform (L∞, Chebyshev) norm.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
///
/// # Example
///
/// ```
/// let d = anomaly_qos::uniform_distance(&[0.1, 0.5], &[0.2, 0.1]);
/// assert!((d - 0.4).abs() < 1e-12);
/// ```
pub fn uniform_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal dimensions");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn uniform_is_max_abs_diff() {
        assert_eq!(uniform_distance(&[0.0, 0.0], &[0.3, -0.7]), 0.7);
    }

    #[test]
    #[should_panic(expected = "equal dimensions")]
    fn mismatched_dimensions_panic() {
        uniform_distance(&[0.0], &[0.0, 1.0]);
    }

    proptest! {
        /// Norm equivalence on finite-dimensional spaces (Section III-B):
        /// `L∞ ≤ L2 ≤ L1 ≤ d · L∞`, with L1 and L2 computed here.
        #[test]
        fn norm_equivalence(a in proptest::collection::vec(0.0..1.0f64, 1..6),
                            b in proptest::collection::vec(0.0..1.0f64, 1..6)) {
            let d = a.len().min(b.len());
            let (a, b) = (&a[..d], &b[..d]);
            let gaps = || a.iter().zip(b).map(|(x, y)| (x - y).abs());
            let li = uniform_distance(a, b);
            let l1: f64 = gaps().sum();
            let l2 = gaps().map(|g| g * g).sum::<f64>().sqrt();
            prop_assert!(li <= l2 + 1e-12);
            prop_assert!(l2 <= l1 + 1e-12);
            prop_assert!(l1 <= d as f64 * li + 1e-12);
        }

        /// Triangle inequality for the uniform norm.
        #[test]
        fn uniform_triangle_inequality(
            a in proptest::collection::vec(0.0..1.0f64, 3),
            b in proptest::collection::vec(0.0..1.0f64, 3),
            c in proptest::collection::vec(0.0..1.0f64, 3),
        ) {
            let ab = uniform_distance(&a, &b);
            let bc = uniform_distance(&b, &c);
            let ac = uniform_distance(&a, &c);
            prop_assert!(ac <= ab + bc + 1e-12);
        }

        /// Symmetry and identity of indiscernibles (up to fp equality).
        #[test]
        fn uniform_symmetry(a in proptest::collection::vec(0.0..1.0f64, 4),
                            b in proptest::collection::vec(0.0..1.0f64, 4)) {
            prop_assert_eq!(uniform_distance(&a, &b), uniform_distance(&b, &a));
            prop_assert_eq!(uniform_distance(&a, &a), 0.0);
        }
    }
}
