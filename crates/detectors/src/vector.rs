use crate::{Detector, DeviceDetector, StateError, StateReader, StateWriter, Verdict};

/// Device-level error-detection function over `d` services.
///
/// Wraps one scalar [`Detector`] per consumed service; the device-level
/// verdict `a_k(j)` is **true as soon as at least one service** shows an
/// abnormal variation — exactly the definition of Section III-A ("there is
/// at least one service consumed by device j at time k whose variation of
/// quality of service is too large to be considered as normal").
///
/// # Example
///
/// ```
/// use anomaly_detectors::{Detector, EwmaDetector, VectorDetector};
///
/// let mut dev = VectorDetector::new(
///     (0..2).map(|_| Box::new(EwmaDetector::new(0.3, 4.0)) as Box<dyn Detector>),
/// );
/// for _ in 0..50 {
///     assert!(!dev.observe_vector(&[0.9, 0.8]).is_anomalous());
/// }
/// // Service 1 collapses: the device flags an abnormal trajectory.
/// assert!(dev.observe_vector(&[0.9, 0.1]).is_anomalous());
/// ```
pub struct VectorDetector {
    detectors: Vec<Box<dyn Detector>>,
}

impl std::fmt::Debug for VectorDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorDetector")
            .field("services", &self.detectors.len())
            .field(
                "detectors",
                &self.detectors.iter().map(|d| d.name()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl VectorDetector {
    /// Builds a device detector from one scalar detector per service.
    ///
    /// # Panics
    ///
    /// Panics if the iterator yields no detectors (a device consumes at
    /// least one service).
    pub fn new<I>(detectors: I) -> Self
    where
        I: IntoIterator<Item = Box<dyn Detector>>,
    {
        let detectors: Vec<_> = detectors.into_iter().collect();
        assert!(
            !detectors.is_empty(),
            "a device consumes at least one service"
        );
        VectorDetector { detectors }
    }

    /// Convenience constructor: `d` homogeneous detectors produced by `make`.
    pub fn homogeneous<D, F>(d: usize, make: F) -> Self
    where
        D: Detector + 'static,
        F: Fn() -> D,
    {
        assert!(d > 0, "a device consumes at least one service");
        VectorDetector {
            detectors: (0..d)
                .map(|_| Box::new(make()) as Box<dyn Detector>)
                .collect(),
        }
    }

    /// Number of monitored services.
    pub fn services(&self) -> usize {
        self.detectors.len()
    }

    /// Feeds the QoS vector at the current instant; the verdict is anomalous
    /// iff any per-service verdict is, and the score is the max score.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of services.
    pub fn observe_vector(&mut self, values: &[f64]) -> Verdict {
        assert_eq!(
            values.len(),
            self.detectors.len(),
            "QoS vector must have one value per service"
        );
        let mut anomalous = false;
        let mut score = 0.0f64;
        for (det, &v) in self.detectors.iter_mut().zip(values) {
            let verdict = det.observe(v);
            anomalous |= verdict.is_anomalous();
            score = score.max(verdict.score());
        }
        Verdict::new(anomalous, score, None)
    }

    /// Per-service verdicts for the current instant (when the caller needs
    /// to know *which* service misbehaved, e.g. for operator reports).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of services.
    pub fn observe_vector_detailed(&mut self, values: &[f64]) -> Vec<Verdict> {
        assert_eq!(
            values.len(),
            self.detectors.len(),
            "QoS vector must have one value per service"
        );
        self.detectors
            .iter_mut()
            .zip(values)
            .map(|(det, &v)| det.observe(v))
            .collect()
    }

    /// Resets every per-service detector.
    pub fn reset(&mut self) {
        for det in &mut self.detectors {
            det.reset();
        }
    }
}

impl DeviceDetector for VectorDetector {
    fn services(&self) -> usize {
        VectorDetector::services(self)
    }

    fn observe_vector(&mut self, values: &[f64]) -> Verdict {
        VectorDetector::observe_vector(self, values)
    }

    fn reset(&mut self) {
        VectorDetector::reset(self)
    }

    fn description(&self) -> String {
        let names: Vec<&str> = self.detectors.iter().map(|d| d.name()).collect();
        format!("vector[{}]", names.join(","))
    }

    fn save(&self, out: &mut StateWriter) {
        out.usize(self.detectors.len());
        for det in &self.detectors {
            det.save(out);
        }
    }

    fn load(&mut self, state: &mut StateReader<'_>) -> Result<(), StateError> {
        state.expect_usize("vector.services", self.detectors.len())?;
        for det in &mut self.detectors {
            det.load(state)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EwmaDetector, ThresholdDetector};

    #[test]
    fn or_semantics_over_services() {
        let mut dev = VectorDetector::homogeneous(3, || ThresholdDetector::with_delta(0.2));
        assert!(!dev.observe_vector(&[0.9, 0.8, 0.7]).is_anomalous());
        // Only service 2 jumps.
        assert!(dev.observe_vector(&[0.9, 0.8, 0.2]).is_anomalous());
    }

    #[test]
    fn detailed_verdicts_identify_the_service() {
        let mut dev = VectorDetector::homogeneous(2, || ThresholdDetector::with_delta(0.2));
        dev.observe_vector(&[0.9, 0.9]);
        let verdicts = dev.observe_vector_detailed(&[0.9, 0.3]);
        assert!(!verdicts[0].is_anomalous());
        assert!(verdicts[1].is_anomalous());
    }

    #[test]
    fn heterogeneous_detectors_compose() {
        let mut dev = VectorDetector::new(vec![
            Box::new(EwmaDetector::new(0.3, 4.0)) as Box<dyn Detector>,
            Box::new(ThresholdDetector::with_delta(0.2)) as Box<dyn Detector>,
        ]);
        for _ in 0..50 {
            assert!(!dev.observe_vector(&[0.9, 0.7]).is_anomalous());
        }
        assert!(dev.observe_vector(&[0.2, 0.7]).is_anomalous());
    }

    #[test]
    fn score_is_max_over_services() {
        let mut dev = VectorDetector::homogeneous(2, || ThresholdDetector::with_delta(0.1));
        dev.observe_vector(&[0.5, 0.5]);
        let v = dev.observe_vector(&[0.55, 0.9]);
        // Jumps are 0.05 and 0.4; scores are jump/delta = 0.5 and 4.0.
        assert!((v.score() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reset_propagates() {
        let mut dev = VectorDetector::homogeneous(2, || ThresholdDetector::with_delta(0.1));
        dev.observe_vector(&[0.9, 0.9]);
        dev.reset();
        // No previous value remembered: a big change is not a jump.
        assert!(!dev.observe_vector(&[0.1, 0.1]).is_anomalous());
    }

    #[test]
    #[should_panic(expected = "one value per service")]
    fn rejects_wrong_width_vector() {
        let mut dev = VectorDetector::homogeneous(2, || ThresholdDetector::with_delta(0.1));
        dev.observe_vector(&[0.5]);
    }

    #[test]
    #[should_panic(expected = "at least one service")]
    fn rejects_empty_detector_set() {
        VectorDetector::new(Vec::new());
    }
}
