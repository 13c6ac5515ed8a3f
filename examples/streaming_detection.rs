//! End-to-end streaming pipeline: raw QoS reports arriving out of order ->
//! open epoch -> sealed snapshot -> error-detection functions -> abnormal
//! set A_k -> local characterization — all through the `Monitor`'s
//! streaming front-end (`ingest` / `seal`).
//!
//! The paper leaves the detection functions `a_k(j)` abstract (Section
//! III-A); this example actually runs one. Twelve devices stream noisy QoS
//! samples through per-device EWMA detectors — but like a real collection
//! pipeline, their reports arrive in scrambled order, sometimes twice, and
//! sometimes not at all (a `CarryForward` staleness policy bridges the
//! gap). At some instant a shared incident hits eight devices and an
//! unrelated local fault hits one more; the sealed epoch builds A_k and the
//! characterization separates the two incidents.
//!
//! Run with: `cargo run --example streaming_detection`

use anomaly_characterization::core::AnomalyClass;
use anomaly_characterization::detectors::EwmaDetector;
use anomaly_characterization::pipeline::{
    DeviceKey, EventDeltaKind, MonitorBuilder, StalenessPolicy,
};

const DEVICES: usize = 12;
const SHARED_INCIDENT: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
const LOCAL_FAULT: u64 = 10;
const FLAKY_REPORTER: u64 = 11;
const INCIDENT_AT: usize = 60;

/// Noisy QoS sample of device `j` at instant `t`.
fn qos(j: u64, t: usize) -> f64 {
    let wiggle = 0.004 * ((t as u64 * 7 + j * 13) as f64).sin();
    let healthy = 0.90 + 0.002 * (j % 5) as f64;
    let level = if t >= INCIDENT_AT && SHARED_INCIDENT.contains(&j) {
        healthy - 0.45 - 0.002 * (j % 3) as f64 // shared congestion level
    } else if t >= INCIDENT_AT && j == LOCAL_FAULT {
        0.15 // local hardware fault
    } else {
        healthy
    };
    (level + wiggle).clamp(0.0, 1.0)
}

/// The arrival order of instant `t`: a deterministic scramble — reports
/// reach the collector however the network delivers them.
fn arrival_order(t: usize) -> Vec<u64> {
    let mut order: Vec<u64> = (0..DEVICES as u64).collect();
    order.rotate_left(t % DEVICES);
    order.reverse();
    order
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One EWMA detector per device (a smoothed forecast with a residual
    // σ-band); device #11's reports are flaky, so silent epochs carry its last
    // position forward for up to 3 instants.
    let mut monitor = MonitorBuilder::new()
        .radius(0.03)
        .tau(3)
        .staleness(StalenessPolicy::CarryForward { max_age: 3 })
        // Keep an anomaly event open across up to 3 quiet epochs, so the
        // incident and the repair rebound correlate into one event.
        .debounce(3)
        .detector_factory(|_key| Box::new(EwmaDetector::new(0.5, 4.0)))
        .fleet(DEVICES)
        .build()?;

    // Stream the healthy prefix: updates trickle in scrambled, duplicated,
    // and (for #11, two instants out of five) missing entirely.
    for t in 0..INCIDENT_AT {
        for j in arrival_order(t) {
            if j == FLAKY_REPORTER && t > 0 && t % 5 < 2 {
                continue; // report lost in transit
            }
            monitor.ingest(j, vec![qos(j, t)])?;
            if j % 4 == 0 {
                // A retransmission: the duplicate overwrites harmlessly.
                monitor.ingest(j, vec![qos(j, t)])?;
            }
        }
        let report = monitor.seal()?;
        assert!(report.is_quiet(), "false alarm at t = {t}");
        for straggler in report.stragglers() {
            assert_eq!(*straggler, DeviceKey(FLAKY_REPORTER));
        }
    }

    // The incident instant: the sealed epoch feeds the detectors, which
    // raise a_k(j) for the impacted devices, and the characterization runs
    // in the same call.
    for j in arrival_order(INCIDENT_AT) {
        monitor.ingest(j, vec![qos(j, INCIDENT_AT)])?;
    }
    let report = monitor.seal()?;
    println!(
        "detectors flagged {} devices (detection {:?}, characterization {:?})",
        report.verdicts().len(),
        report.detection_time(),
        report.characterization_time(),
    );
    assert_eq!(report.verdicts().len(), 9, "8 shared + 1 local fault");

    for v in report.verdicts() {
        println!(
            "  {} -> {} ({}), moved {:.3}, {} neighbours",
            v.key,
            v.class(),
            v.characterization.rule(),
            v.displacement,
            v.vicinity,
        );
    }
    assert_eq!(
        report.class_of(DeviceKey(LOCAL_FAULT)),
        Some(AnomalyClass::Isolated)
    );
    assert_eq!(report.class_of(DeviceKey(0)), Some(AnomalyClass::Massive));
    println!("\nshared congestion recognized as massive; device #10's fault stays local.");

    // The epoch's verdicts also folded into tracked anomaly *events*: one
    // massive event for the shared congestion, one isolated event for the
    // local fault — the units an operator pages on.
    let opened = report
        .event_deltas()
        .iter()
        .filter(|d| d.kind == EventDeltaKind::Opened)
        .count();
    assert_eq!(opened, 2, "one shared event + one local event");
    assert_eq!(monitor.events().open().len(), 2);

    // The incident persists a couple of instants, then everything is
    // repaired. The rebound jump hits the same devices, so it *continues*
    // the open events instead of fabricating new incidents.
    for t in INCIDENT_AT + 1..INCIDENT_AT + 3 {
        for j in arrival_order(t) {
            monitor.ingest(j, vec![qos(j, t)])?;
        }
        monitor.seal()?;
    }
    for t in 0..6 {
        // Healthy levels again (the profile of the warm-up phase).
        for j in arrival_order(t) {
            monitor.ingest(j, vec![qos(j, t)])?;
        }
        monitor.seal()?;
    }
    assert_eq!(
        monitor.events().opened_total(),
        2,
        "the repair rebound must not open fresh events"
    );
    assert!(
        monitor.events().open().is_empty(),
        "all events closed after the quiet stretch"
    );
    println!("\nevent lifecycle:");
    for e in monitor.events().recently_closed() {
        println!(
            "  {}: {} from epoch {} to {} ({} devices, {} active epochs)",
            e.id,
            e.class,
            e.onset,
            e.end.expect("closed events have an end"),
            e.devices.len(),
            e.epochs_active,
        );
    }
    Ok(())
}
