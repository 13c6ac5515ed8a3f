//! Trace replay: drive a recorded scenario trace through the same engine
//! that serves live snapshots. Scoring a generated scenario against its
//! ground truth (one report per step, bridging observations discarded,
//! churn between steps) is `anomaly-eval`'s job, not the monitor's.

use super::error::MonitorError;
use super::monitor::Monitor;
use super::report::Report;
use anomaly_simulator::trace::Trace;

impl Monitor {
    /// Replays a recorded [`Trace`] through the monitor, one observation
    /// per distinct snapshot, returning the report of every observed
    /// instant.
    ///
    /// Each trace step holds a `(before, after)` snapshot pair. Steps
    /// recorded from a continuous run chain together (`after` of step `s`
    /// equals `before` of step `s + 1`); the replay feeds each distinct
    /// snapshot exactly once, so a chained `T`-step trace produces `T + 1`
    /// reports on a fresh monitor. A step whose `before` does not match the
    /// monitor's last-seen snapshot (a recording gap) feeds both of its
    /// snapshots; devices that joined since the last seal have no row to
    /// match and do not count.
    ///
    /// The monitor's own parameters and detectors are used — the trace's
    /// recorded `r`/`τ` are *not* adopted, so the same scenario can be
    /// replayed under different operating points. Trace rows map to devices
    /// positionally: row `i` feeds the device at dense id `i`
    /// ([`Monitor::keys`]`()[i]`). Replaying segments of one scenario
    /// across membership changes is how churn is exercised end to end: the
    /// monitor characterizes the devices present at both ends of the splice
    /// interval and warms the joiners.
    ///
    /// # Errors
    ///
    /// * [`MonitorError::ServiceMismatch`] — the trace's declared space
    ///   dimension, or any step's snapshots, differ from the monitor's
    ///   service count;
    /// * [`MonitorError::PopulationMismatch`] — the trace's declared
    ///   population, or any step's snapshots, differ from the fleet size.
    ///
    /// On error nothing is fed: header *and every step* are validated
    /// before the first observation, so a malformed trace can never leave
    /// the monitor partially advanced. (`Trace` fields are public — a
    /// hand-built trace may well disagree with its own header.)
    pub fn run_trace(&mut self, trace: &Trace) -> Result<Vec<Report>, MonitorError> {
        let header = std::iter::once((trace.dim, trace.n));
        let steps = trace.steps.iter().map(|s| (s.pair.dim(), s.pair.len()));
        for (dim, n) in header.chain(steps) {
            if dim != self.services() {
                return Err(MonitorError::ServiceMismatch {
                    expected: self.services(),
                    actual: dim,
                });
            }
            if n != self.population() {
                return Err(MonitorError::PopulationMismatch {
                    expected: self.population(),
                    actual: n,
                });
            }
        }
        let mut reports = Vec::with_capacity(trace.steps.len() + 1);
        for step in &trace.steps {
            if !self.has_sealed(step.pair.before()) {
                reports.push(self.observe(step.pair.before().clone())?);
            }
            reports.push(self.observe(step.pair.after().clone())?);
        }
        Ok(reports)
    }
}
