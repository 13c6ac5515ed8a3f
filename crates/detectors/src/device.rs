use crate::{Detector, StateError, StateReader, StateWriter, Verdict};

/// Object-safe, device-level error-detection function — the `a_k(j)` of the
/// paper over the whole QoS vector of one device.
///
/// Where [`Detector`](crate::Detector) judges a single scalar series (one
/// service), a `DeviceDetector` judges the full `d`-dimensional QoS sample a
/// device takes at each instant. The monitoring pipeline stores one
/// `Box<dyn DeviceDetector>` per device, so fleets can mix detector
/// families per device — EWMA gateways next to threshold set-top boxes.
///
/// Implementations provided here:
///
/// * every scalar [`Detector`] is a 1-service `DeviceDetector` (blanket
///   impl), so `Box::new(EwmaDetector::new(0.3, 4.0))` plugs straight in;
/// * [`VectorDetector`](crate::VectorDetector) composes `d` scalar
///   detectors with OR semantics, exactly as Section III-A prescribes.
///
/// # Contract
///
/// Callers must pass exactly [`DeviceDetector::services`] values per
/// observation; implementations may panic otherwise. The monitoring
/// pipeline validates widths before dispatching, so misuse surfaces there
/// as a typed error, never as a panic.
///
/// # Example
///
/// ```
/// use anomaly_detectors::{DeviceDetector, EwmaDetector, ThresholdDetector, VectorDetector};
///
/// let mut fleet: Vec<Box<dyn DeviceDetector>> = vec![
///     Box::new(EwmaDetector::new(0.3, 4.0)), // 1-service device
///     Box::new(VectorDetector::homogeneous(1, || ThresholdDetector::with_delta(0.2))),
/// ];
/// for device in &mut fleet {
///     assert_eq!(device.services(), 1);
///     let _ = device.observe_vector(&[0.9]);
/// }
/// ```
pub trait DeviceDetector {
    /// Number of services the device consumes (`d` for this device).
    fn services(&self) -> usize;

    /// Feeds the QoS vector of the current instant; anomalous when at least
    /// one consumed service shows an abnormal variation.
    fn observe_vector(&mut self, values: &[f64]) -> Verdict;

    /// Clears all learned state, as after a device reboot.
    fn reset(&mut self);

    /// Human-readable description (for reports and debugging).
    fn description(&self) -> String;

    /// Serializes the device's learned state — the checkpoint plug-point
    /// `Monitor::checkpoint` calls once per device. Stateless by default;
    /// see [`Detector::save`] for the parameter-first convention.
    fn save(&self, out: &mut StateWriter) {
        let _ = out;
    }

    /// Restores state written by [`DeviceDetector::save`], verifying the
    /// saved configuration against this instance's. Typed errors, never a
    /// panic.
    fn load(&mut self, state: &mut StateReader<'_>) -> Result<(), StateError> {
        let _ = state;
        Ok(())
    }
}

impl std::fmt::Debug for dyn DeviceDetector + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DeviceDetector({})", self.description())
    }
}

impl<D: Detector> DeviceDetector for D {
    fn services(&self) -> usize {
        1
    }

    fn observe_vector(&mut self, values: &[f64]) -> Verdict {
        assert_eq!(
            values.len(),
            1,
            "QoS vector must have one value per service"
        );
        self.observe(values[0])
    }

    fn reset(&mut self) {
        Detector::reset(self);
    }

    fn description(&self) -> String {
        self.name().to_string()
    }

    fn save(&self, out: &mut StateWriter) {
        Detector::save(self, out);
    }

    fn load(&mut self, state: &mut StateReader<'_>) -> Result<(), StateError> {
        Detector::load(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EwmaDetector, ThresholdDetector, VectorDetector};

    #[test]
    fn scalar_detectors_are_one_service_devices() {
        let mut d: Box<dyn DeviceDetector> = Box::new(EwmaDetector::new(0.3, 4.0));
        assert_eq!(d.services(), 1);
        for _ in 0..50 {
            assert!(!d.observe_vector(&[0.9]).is_anomalous());
        }
        assert!(d.observe_vector(&[0.1]).is_anomalous());
        assert_eq!(d.description(), "ewma");
    }

    #[test]
    fn vector_detectors_report_their_width() {
        let d: Box<dyn DeviceDetector> = Box::new(VectorDetector::homogeneous(3, || {
            ThresholdDetector::with_delta(0.2)
        }));
        assert_eq!(d.services(), 3);
        assert!(d.description().contains("threshold"));
    }

    #[test]
    fn reset_clears_learned_state_through_the_trait() {
        let mut d: Box<dyn DeviceDetector> = Box::new(ThresholdDetector::with_delta(0.1));
        d.observe_vector(&[0.9]);
        d.reset();
        // No previous value remembered: a large level is not a jump.
        assert!(!d.observe_vector(&[0.1]).is_anomalous());
    }

    #[test]
    #[should_panic(expected = "one value per service")]
    fn scalar_adapter_rejects_wrong_width() {
        let mut d: Box<dyn DeviceDetector> = Box::new(EwmaDetector::new(0.3, 4.0));
        d.observe_vector(&[0.9, 0.8]);
    }
}
