//! Offline log replay reproduces live event scoring: a run captured into
//! a persisted event/summary log via [`record_log`] yields, when replayed
//! with [`replay_log`], the exact `events` cell the live [`evaluate`] run
//! committed — across engines, feeds and workloads, and matching the live
//! score produced *during* the capture itself. Churned runs, whose log keys
//! no longer name ground-truth devices, are refused typed.

use anomaly_characterization::pipeline::Engine;
use anomaly_core::Params;
use anomaly_eval::{
    evaluate, record_log, replay_log, ChurnScenario, EvalError, Evaluation, FleetScenario,
    NetworkFaultScenario, Scenario, SimScenario, Streaming,
};
use anomaly_simulator::FleetSpec;

/// Both engines under the batch feed, plus a lossless shuffled stream.
fn evaluations() -> Vec<Evaluation> {
    let streamed = Evaluation {
        streaming: Some(Streaming::shuffled(17)),
        ..Evaluation::new(Engine::Sequential)
    };
    vec![
        Evaluation::new(Engine::Sequential),
        Evaluation::new(Engine::Threaded { workers: 3 }),
        streamed,
    ]
}

fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(SimScenario::paper("log-sim", 42, 6)),
        Box::new(NetworkFaultScenario::small_mixed("log-net", 5, 4)),
    ]
}

fn sequential() -> Evaluation {
    Evaluation::new(Engine::Sequential)
}

#[test]
fn replayed_logs_reproduce_the_live_event_cells() {
    for scenario in scenarios() {
        let spec = scenario.spec();
        let run = scenario.generate().expect("scenario generates");
        let live = evaluate(&spec, &run, &sequential()).expect("live run scores");
        for evaluation in evaluations() {
            let (captured, log) =
                record_log(&spec, &run, &evaluation, Vec::new()).expect("capture succeeds");
            assert_eq!(
                captured.events, live.events,
                "{} ({evaluation:?}): capture must not perturb the live score",
                spec.name
            );
            let replayed = replay_log(&spec, &run, log.as_slice()).expect("replay succeeds");
            assert_eq!(
                replayed, live.events,
                "{} ({evaluation:?}): offline replay must reproduce the live event cell",
                spec.name
            );
        }
    }
}

#[test]
fn evaluate_log_reads_a_capture_from_disk() {
    let scenario = NetworkFaultScenario::small_mixed("log-file", 5, 4);
    let (spec, run) = (
        scenario.spec(),
        scenario.generate().expect("scenario generates"),
    );
    let (live, log) = record_log(&spec, &run, &sequential(), Vec::new()).expect("capture succeeds");
    let path = std::env::temp_dir().join("anomaly-eval-log-replay-test.bin");
    std::fs::write(&path, &log).expect("log written");
    let file = std::fs::File::open(&path).expect("log readable");
    let replayed = replay_log(&spec, &run, std::io::BufReader::new(file));
    std::fs::remove_file(&path).ok();
    assert_eq!(replayed.expect("file replay succeeds"), live.events);
}

#[test]
fn foreign_logs_fail_typed() {
    // A structurally valid log without an evaluation step-map record (here:
    // an empty log) is not a capture.
    let scenario = SimScenario::paper("log-foreign", 1, 2);
    let spec = scenario.spec();
    let run = scenario.generate().expect("scenario generates");
    let (_, log) = record_log(&spec, &run, &sequential(), Vec::new()).expect("capture succeeds");
    // Keep only the file header: magic + version.
    let err = replay_log(&spec, &run, &log[..12]).expect_err("headerless log is not a capture");
    assert!(matches!(err, EvalError::Log { .. }), "{err:?}");
}

#[test]
fn churned_runs_refuse_offline_replay() {
    // Joiners take the vacated tail slots under new keys, so a log's
    // `DeviceKey(k)` no longer names the ground truth's `DeviceId(k)`:
    // replaying would score a silently wrong events cell (on this run, 31
    // matched truth events where the live run matches 33).
    let scenario = ChurnScenario {
        fleet: FleetScenario {
            name: "log-churn".into(),
            fleet: FleetSpec {
                devices: 200,
                services: 2,
                massive_clusters: 2,
                cluster_size: 6,
                isolated: 4,
                cohesion: 0.05,
                calm_activity: 0.4,
                jitter: 0.02,
                shift: 0.3,
                seed: 1,
            },
            steps: 6,
            params: Params::new(0.03, 3).expect("valid operating point"),
        },
        churn_devices: 60,
        churn_every: 3,
    };
    let spec = scenario.spec();
    let run = scenario.generate().expect("scenario generates");
    assert!(!run.churn.is_empty());
    let (live, log) = record_log(&spec, &run, &sequential(), Vec::new()).expect("capture succeeds");
    assert!(live.events.truth_events > 0);
    let err = replay_log(&spec, &run, log.as_slice()).expect_err("churned runs are refused");
    match err {
        EvalError::Log { reason } => assert!(reason.contains("churn"), "{reason}"),
        other => panic!("expected a typed log error, got {other:?}"),
    }
}

#[test]
fn corrupted_captures_fail_typed_never_panic() {
    let scenario = SimScenario::paper("log-corrupt", 9, 3);
    let spec = scenario.spec();
    let run = scenario.generate().expect("scenario generates");
    let (_, log) = record_log(&spec, &run, &sequential(), Vec::new()).expect("capture succeeds");
    for len in 0..log.len() {
        // A truncation landing exactly on a frame boundary *after* the
        // step-map record is a clean (shorter) log and replays fine; any
        // other truncation must fail typed. Either way: no panic.
        let _ = replay_log(&spec, &run, &log[..len]);
    }
    for i in 0..log.len() {
        let mut bent = log.clone();
        bent[i] ^= 0x55;
        // Must never panic; typed failure or (for flips the framing
        // checksum cannot distinguish, e.g. inside the mutable header) a
        // successful but different replay are both acceptable.
        let _ = replay_log(&spec, &run, bent.as_slice());
    }
}
