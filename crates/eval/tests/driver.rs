//! The evaluation driver's contract on hand-built runs: exactly one scored
//! report per step, index-aligned with the ground truth, and bridging
//! observations over recording gaps fed and sealed (the event log sees
//! them) but never scored, and snapshots that disagree with the spec
//! refused typed under either feed.

use anomaly_characterization::pipeline::{read_log, Engine, MonitorError};
use anomaly_core::{DeviceSet, Params};
use anomaly_eval::{
    evaluate, record_log, EvalError, Evaluation, InstantScore, ScenarioRun, ScenarioSpec, Streaming,
};
use anomaly_qos::{QosSpace, Snapshot, StatePair};
use anomaly_simulator::trace::TraceStep;
use anomaly_simulator::{ErrorEvent, GroundTruth};

const BASELINE: f64 = 0.9;
const HEALTHY: [f64; 6] = [BASELINE; 6];
/// Devices 0–4 drop together (5 co-movers > τ = 3: massive); device 5
/// drops alone (isolated).
const INCIDENT: [f64; 6] = [0.45, 0.46, 0.44, 0.452, 0.458, 0.10];

fn spec() -> ScenarioSpec {
    ScenarioSpec {
        name: "hand-built".into(),
        population: 6,
        services: 1,
        params: Params::new(0.03, 3).unwrap(),
        detector_delta: 0.2,
    }
}

fn snapshot(levels: &[f64]) -> Snapshot {
    let space = QosSpace::new(1).unwrap();
    Snapshot::from_rows(&space, levels.iter().map(|&v| vec![v]).collect()).unwrap()
}

fn step(before: &[f64], after: &[f64], truth: GroundTruth) -> TraceStep {
    TraceStep {
        pair: StatePair::new(snapshot(before), snapshot(after)).unwrap(),
        truth,
    }
}

/// The ground truth of a step between `HEALTHY` and `INCIDENT`, in either
/// direction.
fn incident_truth() -> GroundTruth {
    GroundTruth::new(vec![
        ErrorEvent {
            impacted: DeviceSet::from([0, 1, 2, 3, 4]),
            intended_isolated: false,
        },
        ErrorEvent {
            impacted: DeviceSet::from([5]),
            intended_isolated: true,
        },
    ])
}

fn quiet() -> GroundTruth {
    GroundTruth::new(Vec::new())
}

/// The score of a step with no truth device and no verdict.
fn quiet_instant(step: usize) -> InstantScore {
    InstantScore {
        step,
        abnormal: 0,
        correct: 0,
        mistaken: 0,
        undecided: 0,
        spurious: 0,
    }
}

fn run(steps: Vec<TraceStep>) -> ScenarioRun {
    ScenarioRun {
        steps,
        churn: Vec::new(),
    }
}

#[test]
fn one_report_per_step_aligned_with_the_input() {
    // Chained steps: only the first one needs a bridging observation.
    let run = run(vec![
        step(&HEALTHY, &INCIDENT, incident_truth()),
        step(&INCIDENT, &HEALTHY, incident_truth()),
        step(&HEALTHY, &HEALTHY, quiet()),
    ]);
    let evaluation = Evaluation::new(Engine::Sequential);
    let score = evaluate(&spec(), &run, &evaluation).unwrap();
    assert_eq!(score.steps, 3, "exactly one scored report per step");
    assert_eq!(score.instants.len(), 3);
    for (i, instant) in score.instants.iter().enumerate() {
        assert_eq!(instant.step, i);
    }
    // The incident step's report is scored against the incident's truth.
    let incident = score.instants[0];
    assert_eq!(incident.correct, 6, "{incident:?}");
    assert_eq!(score.instants[1].abnormal, 6);
    assert_eq!(score.instants[2], quiet_instant(2));

    // Four seals in all: the first step's bridge plus one per step.
    let (_, log) = record_log(&spec(), &run, &evaluation, Vec::new()).unwrap();
    assert_eq!(read_log(log.as_slice()).unwrap().summaries.len(), 4);
}

#[test]
fn gap_steps_feed_both_snapshots_and_discard_the_bridge_report() {
    // Step 1 does not chain onto step 0: it starts from the healthy level,
    // as fresh-world scenarios (network fault injection) produce. Its
    // bridging observation absorbs the incident's massive recovery; the
    // step itself is quiet and must score quiet. Had `before` not been
    // fed, the step's report would carry the recovery's six verdicts; had
    // the bridge report been scored, every later step would be misaligned.
    let run = run(vec![
        step(&HEALTHY, &INCIDENT, incident_truth()),
        step(&HEALTHY, &HEALTHY, quiet()),
        step(&HEALTHY, &INCIDENT, incident_truth()),
    ]);
    let evaluation = Evaluation::new(Engine::Sequential);
    let score = evaluate(&spec(), &run, &evaluation).unwrap();
    assert_eq!(score.steps, 3);
    assert_eq!(
        score.instants[1],
        quiet_instant(1),
        "the step after a massive bridging interval scores quiet"
    );
    for i in [0, 2] {
        let incident = score.instants[i];
        assert_eq!(
            (incident.correct, incident.spurious),
            (6, 0),
            "{incident:?}"
        );
    }

    // The bridges were sealed, and the massive recovery is visible in the
    // log even though no step scored it: five seals (two bridges, three
    // steps), the second of step 1's two seals quiet.
    let (_, log) = record_log(&spec(), &run, &evaluation, Vec::new()).unwrap();
    let summaries = read_log(log.as_slice()).unwrap().summaries;
    assert_eq!(summaries.len(), 5);
    assert_eq!(summaries[2].massive, 5, "the bridging recovery is massive");
    assert_eq!(summaries[3].abnormal, 0, "step 1's own epoch is quiet");
}

#[test]
fn snapshots_of_the_wrong_population_fail_typed_under_both_feeds() {
    // `ScenarioRun` fields are public, so a hand-built run can disagree
    // with its spec. Neither feed may panic or silently drop the extra row.
    let wide = [BASELINE; 7];
    let run = run(vec![step(&wide, &wide, quiet())]);
    let streamed = Evaluation {
        streaming: Some(Streaming::shuffled(3)),
        ..Evaluation::new(Engine::Sequential)
    };
    for evaluation in [Evaluation::new(Engine::Sequential), streamed] {
        let err = evaluate(&spec(), &run, &evaluation).unwrap_err();
        assert_eq!(
            err,
            EvalError::Monitor(MonitorError::PopulationMismatch {
                expected: 6,
                actual: 7,
            }),
            "{evaluation:?}"
        );
    }
}
