//! Reproducibility: every randomized component is exactly reproducible from
//! its seed, and the characterization itself is deterministic.

use anomaly_characterization::baselines::{Classifier, KMeansClassifier};
use anomaly_characterization::core::{AnalyzerCore, TrajectoryTable};
use anomaly_characterization::network::{FaultTarget, NetworkConfig, NetworkSimulation};
use anomaly_characterization::pipeline::{Monitor, MonitorBuilder};
use anomaly_characterization::qos::DeviceId;
use anomaly_characterization::simulator::trace::Trace;
use anomaly_characterization::simulator::{sweep::sweep_grid, ScenarioConfig, Simulation};

#[test]
fn simulator_runs_are_bit_identical_per_seed() {
    let config = {
        let mut c = ScenarioConfig::paper_defaults(7);
        c.n = 200;
        c.errors_per_step = 5;
        c
    };
    let run = |seed: u64| {
        let mut sim = Simulation::new(config.with_seed(seed)).unwrap();
        (0..3).map(|_| sim.step()).collect::<Vec<_>>()
    };
    let a = run(42);
    let b = run(42);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.pair, y.pair);
        assert_eq!(x.truth, y.truth);
    }
    let c = run(43);
    assert_ne!(a[0].pair, c[0].pair, "different seeds must differ");
}

#[test]
fn characterization_is_a_pure_function_of_the_table() {
    let mut sim = Simulation::new({
        let mut c = ScenarioConfig::paper_defaults(1);
        c.n = 300;
        c.errors_per_step = 6;
        c
    })
    .unwrap();
    let outcome = sim.step();
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let table = TrajectoryTable::from_state_pair(&outcome.pair, &abnormal);
    let a1 = AnalyzerCore::new(&table, outcome.config.params);
    let a2 = AnalyzerCore::new(&table, outcome.config.params);
    assert_eq!(a1.classify_all_full(&table), a2.classify_all_full(&table));
}

#[test]
fn network_simulation_is_reproducible() {
    let run = |seed: u64| {
        let mut net = NetworkSimulation::new(NetworkConfig::small(seed)).unwrap();
        let dslam = net.topology().dslams()[1];
        net.step(vec![FaultTarget::Node {
            node: dslam,
            severity: 0.5,
        }])
        .pair
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn monitor_trace_replay_is_deterministic() {
    // The same recorded scenario through two identically-built monitors
    // yields verdict-identical reports (wall-clock timings aside).
    let mut config = ScenarioConfig::paper_defaults(17);
    config.n = 120;
    config.errors_per_step = 3;
    let mut sim = Simulation::new(config.clone()).unwrap();
    let mut trace = Trace::new(config.n, config.dim, config.params);
    for _ in 0..3 {
        trace.record(&sim.step());
    }
    let build = || -> Monitor {
        MonitorBuilder::new()
            .params(config.params)
            .services(config.dim)
            .fleet(config.n)
            .build()
            .unwrap()
    };
    let a = build().run_trace(&trace).unwrap();
    let b = build().run_trace(&trace).unwrap();
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.instant(), rb.instant());
        assert_eq!(ra.verdicts(), rb.verdicts());
        assert_eq!(ra.warming(), rb.warming());
    }
}

#[test]
fn kmeans_baseline_is_reproducible() {
    let mut sim = Simulation::new({
        let mut c = ScenarioConfig::paper_defaults(9);
        c.n = 300;
        c.errors_per_step = 5;
        c
    })
    .unwrap();
    let outcome = sim.step();
    let abnormal: Vec<DeviceId> = outcome.abnormal().iter().collect();
    let km = KMeansClassifier::new(6, 3, 77);
    assert_eq!(
        km.classify(&outcome.pair, &abnormal),
        km.classify(&outcome.pair, &abnormal)
    );
}

#[test]
fn sweeps_are_reproducible() {
    let base = {
        let mut c = ScenarioConfig::paper_defaults(3);
        c.n = 200;
        c
    };
    let a = sweep_grid(&base, &[4], &[0.5], 2, false).unwrap();
    let b = sweep_grid(&base, &[4], &[0.5], 2, false).unwrap();
    assert_eq!(a, b);
}
