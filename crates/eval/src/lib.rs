//! Scenario workbench: end-to-end accuracy evaluation across network,
//! adversary, and churn workloads.
//!
//! The paper's claim is not just that characterization *runs* — it is that
//! per-device local verdicts agree with the real scenario `R_k` under
//! realistic ISP conditions, and do so at least as well as centralized
//! clustering baselines. This crate turns that claim into a standing
//! harness:
//!
//! * [`Scenario`] unifies every workload generator in the workspace —
//!   Monte-Carlo simulation ([`SimScenario`]), ISP fault injection
//!   ([`NetworkFaultScenario`]), collusion attacks ([`AdversaryScenario`]),
//!   large fleets ([`FleetScenario`]), membership churn
//!   ([`ChurnScenario`]), long-lived anomalies with flapping devices
//!   ([`PersistentAnomalyScenario`]), and recorded traces
//!   ([`RecordedScenario`]) — behind one deterministic `generate()`;
//! * [`evaluate`] drives the v2
//!   [`Monitor`](anomaly_characterization::pipeline::Monitor) over a
//!   generated run and scores every verdict against the ground truth with
//!   the per-class confusion matrices of [`anomaly_simulator::score`]. One
//!   [`Evaluation`] describes the drive: the engine, batch `observe` or a
//!   shuffled, possibly lossy [`Streaming`] feed, and optional alert
//!   scoring through the serve crate's sink;
//! * [`record_log`] is the same drive with an event log captured on the
//!   side, and [`replay_log`] scores such a capture offline;
//! * [`evaluate_classifier`] scores the k-means and tessellation baselines
//!   (`anomaly-baselines`) on the *same* generated runs, so accuracy
//!   comparisons are apples to apples;
//! * the `workbench` binary in `anomaly-bench` runs the full scenario ×
//!   engine matrix and writes `BENCH_eval.json` — the accuracy-regression
//!   gate every future performance PR runs against.
//!
//! # Example
//!
//! ```
//! use anomaly_baselines::TessellationClassifier;
//! use anomaly_characterization::pipeline::Engine;
//! use anomaly_eval::{
//!     evaluate, evaluate_classifier, Evaluation, NetworkFaultScenario, Scenario, Streaming,
//! };
//!
//! let scenario = NetworkFaultScenario::small_mixed("dslam-vs-cpe", 42, 3);
//! let (spec, run) = (scenario.spec(), scenario.generate()?);
//! let paper = evaluate(&spec, &run, &Evaluation::new(Engine::Sequential))?;
//! let tess = evaluate_classifier(&spec, &run, &TessellationClassifier::new(16, 3));
//! assert!(paper.macro_f1() >= tess.macro_f1());
//!
//! // The same run streamed device by device, in shuffled order, with the
//! // alert layer scored on the side.
//! let streamed = Evaluation {
//!     streaming: Some(Streaming::shuffled(7)),
//!     alerts: Some(scenario.config.shape),
//!     ..Evaluation::new(Engine::Sequential)
//! };
//! let streamed = evaluate(&spec, &run, &streamed)?;
//! assert_eq!(streamed.confusion, paper.confusion);
//! assert!(streamed.alerts.is_some());
//! # Ok::<(), anomaly_eval::EvalError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

mod error;
mod runner;
mod scenario;
mod workloads;

pub use error::EvalError;
pub use runner::{
    evaluate, evaluate_classifier, record_log, replay_log, AlertQuality, Evaluation, InstantScore,
    ScenarioScore, Streaming,
};
pub use scenario::{ChurnEvent, Scenario, ScenarioRun, ScenarioSpec};
pub use workloads::{
    AdversaryScenario, ChurnScenario, FleetScenario, NetworkFaultScenario,
    PersistentAnomalyScenario, RecordedScenario, SimScenario,
};
