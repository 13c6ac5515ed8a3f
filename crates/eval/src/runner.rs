//! Drive a scenario through the paper's pipeline or a centralized
//! baseline, and score the verdicts against the ground truth.

use crate::error::EvalError;
use crate::scenario::{ScenarioRun, ScenarioSpec};
use anomaly_baselines::Classifier;
use anomaly_characterization::pipeline::{
    read_log, Engine, EventDeltaKind, EventLog, Monitor, MonitorBuilder, MonitorError, Report,
    StalenessPolicy,
};
use anomaly_characterization::store::{Dec, Enc};
use anomaly_core::{AnomalyClass, DeviceSet};
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_network::Topology;
use anomaly_qos::{DeviceId, Snapshot};
use anomaly_serve::{AlertActionKind, AlertConfig, AlertSink, KeyMap};
use anomaly_simulator::score::{self, Confusion, EventConfusion, EventSpan};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Per-step scoring summary — the evaluation's per-instant breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstantScore {
    /// Step index within the scenario.
    pub step: usize,
    /// Ground-truth abnormal devices scored this step.
    pub abnormal: u64,
    /// Correct verdicts.
    pub correct: u64,
    /// Hard misclassifications (isolated ↔ massive).
    pub mistaken: u64,
    /// Abstentions plus devices without any verdict.
    pub undecided: u64,
    /// Verdicts on devices outside the ground truth (detector flukes,
    /// repair rebounds); zero for baselines, which are handed the abnormal
    /// set directly.
    pub spurious: u64,
}

impl InstantScore {
    fn from_confusion(step: usize, confusion: &Confusion) -> Self {
        InstantScore {
            step,
            abnormal: confusion.total(),
            correct: confusion.correct(),
            mistaken: confusion.mistaken(),
            undecided: confusion.undecided(),
            spurious: confusion.spurious_total(),
        }
    }

    /// Stable JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"step\":{},\"abnormal\":{},\"correct\":{},",
                "\"mistaken\":{},\"undecided\":{},\"spurious\":{}}}"
            ),
            self.step, self.abnormal, self.correct, self.mistaken, self.undecided, self.spurious,
        )
    }
}

/// Alert-pipeline quality on one scenario: the serve crate's deduplicated
/// notification stream scored against the ground-truth event spans.
///
/// Pages and recurrences are matched to truth spans by step window (a
/// notification at step `s` matches a span covering `s`, with a small
/// slack for debounce/repair lag). The offline sink is configured with an
/// effectively unlimited token bucket, so the numbers measure detection
/// and deduplication, not throttling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlertQuality {
    /// Ground-truth event spans in the run.
    pub truth_events: u64,
    /// Deduplicated alerts the sink created.
    pub alerts: u64,
    /// Page notifications (new alerts) emitted.
    pub pages: u64,
    /// Recurrences folded into existing alerts.
    pub recurrences: u64,
    /// Alerts resolved by the end of the run.
    pub resolved: u64,
    /// Distinct canonical root-cause signatures observed.
    pub distinct_signatures: u64,
    /// Page/recurrence notifications that land inside a truth span.
    pub matched_notifications: u64,
    /// Total page/recurrence notifications.
    pub notifications: u64,
    /// Truth spans covered by at least one notification.
    pub paged_events: u64,
}

impl AlertQuality {
    /// Fraction of notifications that correspond to a real event.
    pub fn page_precision(&self) -> f64 {
        if self.notifications == 0 {
            return if self.truth_events == 0 { 1.0 } else { 0.0 };
        }
        self.matched_notifications as f64 / self.notifications as f64
    }

    /// Fraction of real events that produced at least one notification.
    pub fn page_recall(&self) -> f64 {
        if self.truth_events == 0 {
            return 1.0;
        }
        self.paged_events as f64 / self.truth_events as f64
    }

    /// Harmonic mean of page precision and recall.
    pub fn page_f1(&self) -> f64 {
        let (p, r) = (self.page_precision(), self.page_recall());
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Stable JSON rendering (fixed key order, `{:.6}` floats).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"truth_events\":{},\"alerts\":{},\"pages\":{},",
                "\"recurrences\":{},\"resolved\":{},\"distinct_signatures\":{},",
                "\"matched_notifications\":{},\"notifications\":{},\"paged_events\":{},",
                "\"page_precision\":{:.6},\"page_recall\":{:.6},\"page_f1\":{:.6}}}"
            ),
            self.truth_events,
            self.alerts,
            self.pages,
            self.recurrences,
            self.resolved,
            self.distinct_signatures,
            self.matched_notifications,
            self.notifications,
            self.paged_events,
            self.page_precision(),
            self.page_recall(),
            self.page_f1(),
        )
    }
}

/// One method's score on one scenario: the aggregate confusion matrix and
/// the per-instant breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioScore {
    /// Scenario name (from [`ScenarioSpec::name`]).
    pub scenario: String,
    /// Method label (`paper-sequential`, `paper-threaded-4`,
    /// `paper-streaming-sequential`, or the baseline's
    /// [`Classifier::name`]).
    pub method: String,
    /// Steps scored.
    pub steps: usize,
    /// Aggregate confusion over all steps.
    pub confusion: Confusion,
    /// Event-level comparison: predicted anomaly events (the monitor's
    /// tracker output, or the baseline's per-step groups linked across
    /// steps) against the ground-truth event spans.
    pub events: EventConfusion,
    /// Per-step breakdown.
    pub instants: Vec<InstantScore>,
    /// Alert-pipeline quality, when the method was scored through the
    /// serve crate's alert sink ([`Evaluation::alerts`]).
    pub alerts: Option<AlertQuality>,
}

impl ScenarioScore {
    /// The headline metric: unweighted mean of the per-class F1 scores.
    pub fn macro_f1(&self) -> f64 {
        self.confusion.macro_f1()
    }

    /// The engine-independent part of the score (everything except the
    /// method label), serialized — two evaluations are equivalent exactly
    /// when these strings are byte-identical.
    pub fn metrics_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"steps\":{},\"score\":{},\"events\":{},\"instants\":[",
            self.steps,
            self.confusion.to_json(),
            self.events.to_json()
        );
        for (i, instant) in self.instants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&instant.to_json());
        }
        out.push(']');
        if let Some(alerts) = &self.alerts {
            let _ = write!(out, ",\"alerts\":{}", alerts.to_json());
        }
        out.push('}');
        out
    }

    /// Full JSON rendering, one object per scenario × method cell.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"method\":\"{}\",\"metrics\":{}}}",
            self.scenario,
            self.method,
            self.metrics_json()
        )
    }
}

/// Scores one verdict list against one step's ground truth: every truth
/// device is recorded (missing ones as [`Prediction::Missing`]), and
/// verdicts on devices outside the truth are counted as spurious.
///
/// [`Prediction::Missing`]: anomaly_simulator::score::Prediction::Missing
fn score_one_step(
    spec: &ScenarioSpec,
    step_truth: &anomaly_simulator::GroundTruth,
    verdicts: &[(DeviceId, AnomalyClass)],
) -> Confusion {
    let mut confusion = Confusion::new();
    score::score_step_classes(&mut confusion, step_truth, spec.params.tau(), verdicts);
    let abnormal = step_truth.abnormal_devices();
    for &(id, class) in verdicts {
        if !abnormal.contains(id) {
            confusion.record_spurious(class);
        }
    }
    confusion
}

fn aggregate(
    spec: ScenarioSpec,
    method: String,
    per_step: Vec<Confusion>,
    events: EventConfusion,
) -> ScenarioScore {
    let mut total = Confusion::new();
    let mut instants = Vec::with_capacity(per_step.len());
    for (i, c) in per_step.iter().enumerate() {
        instants.push(InstantScore::from_confusion(i, c));
        total.merge(c);
    }
    ScenarioScore {
        scenario: spec.name,
        method,
        steps: per_step.len(),
        confusion: total,
        events,
        instants,
        alerts: None,
    }
}

/// Ground-truth event spans of a run, in step coordinates.
fn truth_spans(spec: &ScenarioSpec, run: &ScenarioRun) -> Vec<EventSpan> {
    score::link_truth_events(run.steps.iter().map(|s| &s.truth), spec.params.tau())
}

/// Reconstructs the monitor's anomaly events in **step coordinates** from
/// the per-step reports' [`EventDeltaKind`] feed: each event's onset/last
/// step, its device set (translated from stable keys to the per-step dense
/// ids the ground truth speaks), and its peak class. Deltas emitted during
/// discarded bridging epochs never extend a span, which is exactly the
/// step-aligned view the ground truth has.
///
/// The feed is component-aware end to end: the tracker opens one event per
/// spatial component, so two coincident spatially-disjoint outages arrive
/// here as two event ids and score as two predicted spans — the event-id
/// keying inherits the split without re-deriving it. (Baselines, which
/// have no component structure, go through
/// [`spans_from_step_classes`] and the component-blind linker instead.)
fn spans_from_reports(reports: &[Report]) -> Vec<EventSpan> {
    use std::collections::BTreeMap;
    struct Partial {
        onset: usize,
        last: usize,
        devices: DeviceSet,
        massive: bool,
    }
    let mut by_id: BTreeMap<anomaly_characterization::pipeline::EventId, Partial> = BTreeMap::new();
    for (step, report) in reports.iter().enumerate() {
        let id_of: BTreeMap<_, _> = report.verdicts().iter().map(|v| (v.key, v.id)).collect();
        for delta in report.event_deltas() {
            if delta.kind == EventDeltaKind::Closed {
                continue;
            }
            let partial = by_id.entry(delta.id).or_insert_with(|| Partial {
                onset: step,
                last: step,
                devices: DeviceSet::new(),
                massive: false,
            });
            partial.last = step;
            partial.massive |= delta.class == AnomalyClass::Massive;
            for key in &delta.joined {
                // Every joined device carries a verdict in the same report
                // (warming devices extend events but never join them).
                if let Some(&id) = id_of.get(key) {
                    partial.devices.insert(id);
                }
            }
        }
    }
    by_id
        .into_values()
        .map(|p| EventSpan {
            onset: p.onset,
            last: p.last,
            devices: p.devices,
            massive: p.massive,
        })
        .collect()
}

/// Predicted event spans of a centralized baseline: its per-step verdicts
/// are grouped the way the monitor's tracker groups them — every
/// massive-predicted device of one step in one shared group, each
/// isolated-predicted device alone, abstentions skipped — and the groups
/// are linked across steps by device overlap.
fn spans_from_step_classes(per_step: &[Vec<(DeviceId, AnomalyClass)>]) -> Vec<EventSpan> {
    let grouped: Vec<Vec<(DeviceSet, bool)>> = per_step
        .iter()
        .map(|classes| {
            let mut groups: Vec<(DeviceSet, bool)> = Vec::new();
            let massive: DeviceSet = classes
                .iter()
                .filter(|&&(_, class)| class == AnomalyClass::Massive)
                .map(|&(id, _)| id)
                .collect();
            if !massive.is_empty() {
                groups.push((massive, true));
            }
            let mut isolated: Vec<DeviceId> = classes
                .iter()
                .filter(|&&(_, class)| class == AnomalyClass::Isolated)
                .map(|&(id, _)| id)
                .collect();
            isolated.sort_unstable();
            for id in isolated {
                groups.push((DeviceSet::singleton(id), false));
            }
            groups
        })
        .collect();
    score::link_event_spans(grouped.iter().map(|g| g.iter()))
}

/// How [`evaluate`] drives the evaluation monitor over a run: the engine
/// that characterizes, how each snapshot reaches the monitor, and whether
/// the sealed reports are also folded through an alert sink.
///
/// Every combination runs through the same loop, so the metrics stay
/// engine-independent (only [`ScenarioScore::method`] differs) and a
/// lossless [`Streaming`] feed scores byte-identically to the batch one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Characterization engine of the monitor.
    pub engine: Engine,
    /// Replay each snapshot through `ingest` + `seal` instead of
    /// `observe`; `None` feeds whole snapshots.
    pub streaming: Option<Streaming>,
    /// Fold every sealed report — bridging observations included, exactly
    /// the epoch stream a live serve loop sees — through an [`AlertSink`]
    /// over an ISP tree of this shape (cores, aggregations per core,
    /// DSLAMs per aggregation, gateways per DSLAM; the scenario population
    /// must equal the resulting gateway count) and score the notification
    /// stream into [`ScenarioScore::alerts`].
    pub alerts: Option<(usize, usize, usize, usize)>,
}

impl Evaluation {
    /// Batch replay on `engine`, without alert scoring.
    pub fn new(engine: Engine) -> Self {
        Evaluation {
            engine,
            streaming: None,
            alerts: None,
        }
    }

    /// The method label of the resulting scores: `paper-sequential`,
    /// `paper-threaded-4`, or `paper-streaming-…` for streamed replays.
    fn method(&self) -> String {
        let paper = match self.streaming {
            Some(_) => "paper-streaming",
            None => "paper",
        };
        match self.engine {
            Engine::Sequential => format!("{paper}-sequential"),
            Engine::Threaded { workers } => format!("{paper}-threaded-{workers}"),
        }
    }
}

/// Streaming replay: each snapshot is decomposed into per-device
/// `(key, measurements)` updates, shuffled with a seed-fixed RNG,
/// optionally dropped, ingested one by one, and sealed once.
///
/// With `drop_probability == 0` the replay is byte-identical to the batch
/// path (`crates/eval/tests/streaming_equivalence.rs` pins this across
/// every workload). With drops the monitor runs under
/// `StalenessPolicy::CarryForward { max_age }`, and the score quantifies
/// how gracefully accuracy degrades under report loss.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Streaming {
    /// Seed of the arrival-order shuffle (and the drop draws).
    pub shuffle_seed: u64,
    /// Per-update probability of losing the report, in `[0, 1)`. Only
    /// devices with an already-sealed position are ever dropped, so the
    /// carry-forward policy always has a row to bridge with.
    pub drop_probability: f64,
    /// Carry-forward bound handed to the monitor when drops are enabled.
    pub max_age: u64,
}

impl Streaming {
    /// Lossless streaming replay (shuffle only).
    pub fn shuffled(shuffle_seed: u64) -> Self {
        Streaming {
            shuffle_seed,
            drop_probability: 0.0,
            max_age: 1,
        }
    }
}

/// How one snapshot reaches the monitor and becomes a sealed report.
enum Feed {
    /// One `observe` call.
    Batch,
    /// Shuffled, possibly lossy `ingest` calls, then one `seal`.
    Stream {
        rng: StdRng,
        drop_probability: f64,
        /// Keys with at least one sealed position: only they can be
        /// dropped (carry-forward needs a row to bridge with).
        established: BTreeSet<u64>,
    },
}

impl Feed {
    fn new(streaming: Option<Streaming>) -> Self {
        match streaming {
            None => Feed::Batch,
            Some(s) => Feed::Stream {
                rng: StdRng::seed_from_u64(s.shuffle_seed),
                drop_probability: s.drop_probability,
                established: BTreeSet::new(),
            },
        }
    }

    fn seal(&mut self, monitor: &mut Monitor, snapshot: &Snapshot) -> Result<Report, EvalError> {
        let Feed::Stream {
            rng,
            drop_probability,
            established,
        } = self
        else {
            return Ok(monitor.observe(snapshot.clone())?);
        };
        if snapshot.len() != monitor.population() {
            return Err(MonitorError::PopulationMismatch {
                expected: monitor.population(),
                actual: snapshot.len(),
            }
            .into());
        }
        let mut updates: Vec<(u64, Vec<f64>)> = snapshot
            .iter()
            .zip(monitor.keys())
            .map(|((_, p), key)| (key.0, p.coords().to_vec()))
            .collect();
        updates.shuffle(rng);
        for (key, row) in updates {
            if *drop_probability > 0.0
                && established.contains(&key)
                && rng.gen_bool(*drop_probability)
            {
                continue;
            }
            monitor.ingest(key, row)?;
        }
        let report = monitor.seal()?;
        established.extend(monitor.keys().iter().map(|k| k.0));
        Ok(report)
    }

    fn leave(&mut self, key: u64) {
        if let Feed::Stream { established, .. } = self {
            established.remove(&key);
        }
    }
}

/// The offline alert sink and the step coordinate of every page or
/// recurrence it emitted.
struct AlertRider {
    sink: AlertSink,
    notify_steps: Vec<usize>,
}

impl AlertRider {
    fn new((cores, aggs, dslams, gateways): (usize, usize, usize, usize)) -> Self {
        // Offline scoring never throttles: the bucket refills a full
        // notification's worth of tokens per epoch and holds a deep reserve,
        // so the numbers measure detection and dedup, not the rate limiter.
        let config = AlertConfig {
            dedup_window: 16,
            bucket_capacity: 1024,
            refill_millitokens: 1_000_000,
        };
        AlertRider {
            sink: AlertSink::new(
                Topology::tree(cores, aggs, dslams, gateways),
                KeyMap::GatewayIndex,
                config,
            ),
            notify_steps: Vec::new(),
        }
    }

    /// Folds one sealed report in. Bridging observations carry the
    /// upcoming step's coordinate — their closes and recoveries belong to
    /// the span that just ended, which the matching slack absorbs.
    fn observe(&mut self, report: &Report, step: usize) {
        for action in self.sink.observe(report) {
            if matches!(action.kind, AlertActionKind::Page | AlertActionKind::Recur) {
                self.notify_steps.push(step);
            }
        }
    }
}

/// The one evaluation loop: builds the evaluation monitor, drives it over
/// the run, and scores the per-step reports.
///
/// Before step `i` every `ChurnEvent` with `after_step < i` is applied.
/// A step whose `before` does not chain onto the previous step's `after`
/// (the first step, a recording gap, or a scenario built from a freshly
/// reset world) first feeds `before` as a bridging observation, whose
/// report goes to the riders but is not scored. Chaining is judged from
/// the run, not from the monitor's sealed state: a lossy seal carries
/// stale rows, and comparing against it would misread every step after
/// the first drop as a gap. For a lossless feed the two checks coincide.
///
/// Every sealed report, bridging ones included, is handed to the alert
/// rider and to `on_seal`. Returns the score, the per-step reports
/// (index-aligned with `run.steps`) and the final monitor.
fn drive(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    evaluation: &Evaluation,
    mut on_seal: impl FnMut(&Monitor, &Report) -> Result<(), EvalError>,
) -> Result<(ScenarioScore, Vec<Report>, Monitor), EvalError> {
    let mut monitor = build_monitor(spec, evaluation)?;
    let mut feed = Feed::new(evaluation.streaming);
    let mut alerts = evaluation.alerts.map(AlertRider::new);
    let mut churn = run.churn.iter().peekable();
    let mut reports: Vec<Report> = Vec::with_capacity(run.steps.len());
    for (i, step) in run.steps.iter().enumerate() {
        while let Some(event) = churn.next_if(|event| event.after_step < i) {
            for &key in &event.leaves {
                monitor.leave(key)?;
                feed.leave(key);
            }
            for &key in &event.joins {
                monitor.join(key)?;
            }
        }
        let mut ride = |monitor: &Monitor, report: &Report| {
            if let Some(rider) = &mut alerts {
                rider.observe(report, i);
            }
            on_seal(monitor, report)
        };
        if i == 0 || run.steps[i - 1].pair.after() != step.pair.before() {
            let bridging = feed.seal(&mut monitor, step.pair.before())?;
            ride(&monitor, &bridging)?;
        }
        let report = feed.seal(&mut monitor, step.pair.after())?;
        ride(&monitor, &report)?;
        reports.push(report);
    }
    let mut score = score_reports(spec, run, evaluation.method(), &reports);
    score.alerts = alerts.map(|rider| alert_quality(spec, run, &rider.sink, &rider.notify_steps));
    Ok((score, reports, monitor))
}

/// Evaluates the paper's pipeline on a generated run: drives the standard
/// evaluation monitor (threshold detectors at the spec's delta) over the
/// run as `evaluation` describes — applying churn between steps — and
/// scores every per-step report against the ground truth, on the device
/// axis, the event axis and, when [`Evaluation::alerts`] is set, the
/// alert axis.
///
/// The metrics are engine-independent: any [`Engine`] produces
/// byte-identical [`ScenarioScore::metrics_json`] (only the method label
/// differs), which `tests/engine_determinism.rs` pins down.
///
/// # Errors
///
/// Propagates monitor failures (including `MonitorError::Ingest` when a
/// streamed drop streak exceeds [`Streaming::max_age`]).
pub fn evaluate(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    evaluation: &Evaluation,
) -> Result<ScenarioScore, EvalError> {
    drive(spec, run, evaluation, |_, _| Ok(())).map(|(score, ..)| score)
}

/// `Aux` record tag of an evaluation capture: the payload maps each
/// scenario step to the sealed-epoch instant its report carried, which is
/// what lets [`replay_log`] translate the log's epoch-coordinate events
/// back into the step coordinates the ground truth speaks.
const EVAL_AUX_TAG: &[u8; 4] = b"EVL1";

/// [`evaluate`] that additionally persists the run into an [`EventLog`]
/// on `sink`: one summary record per sealed epoch (bridging epochs
/// included — exactly the stream a live daemon writes), every closed
/// event as it closes, a step-map `Aux` record, and the still-open events
/// at the end. Returns the live score together with the finished writer;
/// [`replay_log`] replays the log offline and reproduces the score's
/// event cell.
///
/// # Errors
///
/// Propagates monitor failures and log I/O failures.
pub fn record_log<W: std::io::Write>(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    evaluation: &Evaluation,
    sink: W,
) -> Result<(ScenarioScore, W), EvalError> {
    let mut log = EventLog::create(sink)?;
    let (score, reports, monitor) = drive(spec, run, evaluation, |monitor, report| {
        Ok(log.record_seal(monitor, report)?)
    })?;
    let step_epochs: Vec<u64> = reports.iter().map(Report::instant).collect();
    let mut aux = Enc::new();
    aux.bytes(EVAL_AUX_TAG);
    aux.u64s(&step_epochs);
    log.append_aux(&aux.into_bytes())?;
    Ok((score, log.finish(&monitor)?))
}

/// Replays a log captured by [`record_log`] through the event-scoring
/// machinery: the log's event records are translated from sealed-epoch
/// coordinates into step coordinates via the capture's step-map `Aux`
/// record and scored against the run's ground-truth spans, reproducing
/// the `events` cell the live [`evaluate`] run commits to
/// `BENCH_eval.json`.
///
/// Device keys must be the dense ids the ground truth speaks
/// (`DeviceKey(k)` ↔ `DeviceId(k)`). That holds for every fixed-fleet
/// scenario but not under membership churn, where joiners take the
/// vacated slots under new keys — so churned runs are refused.
///
/// # Errors
///
/// [`EvalError::Log`] when the run churns membership or the log is not an
/// evaluation capture (no step-map record); monitor-level errors when the
/// log is corrupt or truncated.
pub fn replay_log<R: std::io::Read>(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    source: R,
) -> Result<EventConfusion, EvalError> {
    if let Some(event) = run.churn.first() {
        return Err(EvalError::Log {
            reason: format!(
                "the run churns membership (first change after step {}): joiners reuse \
                 vacated slots under new keys, so log keys no longer name ground-truth devices",
                event.after_step
            ),
        });
    }
    let persisted = read_log(source)?;
    let step_epochs = persisted
        .aux
        .iter()
        .rev()
        .find_map(|payload| {
            let mut dec = Dec::new(payload);
            let tag = dec.bytes("aux.tag").ok()?;
            if tag != EVAL_AUX_TAG {
                return None;
            }
            dec.u64s("aux.step_epochs").ok()
        })
        .ok_or_else(|| EvalError::Log {
            reason: "log holds no evaluation step-map record \
                     (was it captured by record_log?)"
                .to_string(),
        })?;
    let mut spans: Vec<EventSpan> = Vec::new();
    for event in &persisted.events {
        // First step at or after the event's onset epoch, last step at or
        // before its last active epoch: bridging-epoch activity collapses
        // onto the neighbouring step, exactly like the live report feed.
        let Some(onset) = step_epochs.iter().position(|&e| e >= event.onset) else {
            continue;
        };
        let Some(last) = step_epochs.iter().rposition(|&e| e <= event.last_active) else {
            continue;
        };
        if last < onset {
            continue;
        }
        let devices: DeviceSet = event
            .devices
            .iter()
            .map(|key| DeviceId(key.0 as u32))
            .collect();
        let massive = event.class == AnomalyClass::Massive
            || event
                .transitions
                .iter()
                .any(|t| t.from == AnomalyClass::Massive || t.to == AnomalyClass::Massive);
        spans.push(EventSpan {
            onset,
            last,
            devices,
            massive,
        });
    }
    Ok(score::score_events(&truth_spans(spec, run), &spans))
}

/// Steps of slack when matching a notification to a truth span: repairs
/// and debounced closes notify one to two steps after the span ends.
const PAGE_MATCH_SLACK: usize = 2;

/// Scores a sink's page/recurrence stream against the run's ground-truth
/// spans by step-window matching.
fn alert_quality(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    sink: &AlertSink,
    notify_steps: &[usize],
) -> AlertQuality {
    let truth = truth_spans(spec, run);
    let mut matched_notifications = 0u64;
    let mut paged = vec![false; truth.len()];
    for &step in notify_steps {
        let mut hit = false;
        for (i, span) in truth.iter().enumerate() {
            if span.onset <= step && step <= span.last + PAGE_MATCH_SLACK {
                paged[i] = true;
                hit = true;
            }
        }
        matched_notifications += u64::from(hit);
    }
    AlertQuality {
        truth_events: truth.len() as u64,
        alerts: sink.alerts_created(),
        pages: sink.pages_emitted(),
        recurrences: sink.recurrences(),
        resolved: sink.resolved(),
        distinct_signatures: sink.distinct_signatures() as u64,
        matched_notifications,
        notifications: notify_steps.len() as u64,
        paged_events: paged.iter().filter(|&&p| p).count() as u64,
    }
}

/// Builds the standard evaluation monitor for a scenario spec. Lossy
/// streaming runs under carry-forward staleness; everything else rejects
/// missing rows.
fn build_monitor(spec: &ScenarioSpec, evaluation: &Evaluation) -> Result<Monitor, EvalError> {
    let staleness = match evaluation.streaming {
        Some(s) if s.drop_probability > 0.0 => StalenessPolicy::CarryForward { max_age: s.max_age },
        _ => StalenessPolicy::Reject,
    };
    let services = spec.services;
    let delta = spec.detector_delta;
    Ok(MonitorBuilder::new()
        .params(spec.params)
        .services(services)
        .engine(evaluation.engine)
        .staleness(staleness)
        // Debounce 1 absorbs exactly the single discarded bridging epoch a
        // non-chained scenario inserts between steps, so "consecutive
        // steps" means the same thing to the tracker as to the
        // ground-truth event linker.
        .debounce(1)
        .history(64)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, move || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(spec.population)
        .build()?)
}

/// Scores a monitor's per-step reports against a run's ground truth, on
/// both axes: per-device confusion and event-level span matching.
fn score_reports(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    method: String,
    reports: &[Report],
) -> ScenarioScore {
    let per_step: Vec<Confusion> = run
        .steps
        .iter()
        .zip(reports)
        .map(|(step, report)| {
            let verdicts: Vec<(DeviceId, AnomalyClass)> = report
                .verdicts()
                .iter()
                .map(|v| (v.id, v.class()))
                .collect();
            score_one_step(spec, &step.truth, &verdicts)
        })
        .collect();
    let events = score::score_events(&truth_spans(spec, run), &spans_from_reports(reports));
    aggregate(spec.clone(), method, per_step, events)
}

/// Evaluates a centralized baseline on a generated run: each step's
/// ground-truth abnormal set is handed to the classifier (its classical
/// operating assumption — it needs the abnormal set collected at a
/// management node), and its answers are scored with the same confusion
/// types. Score several baselines and [`evaluate`] calls on one
/// `generate()` so every method sees the same steps.
pub fn evaluate_classifier(
    spec: &ScenarioSpec,
    run: &ScenarioRun,
    classifier: &dyn Classifier,
) -> ScenarioScore {
    let mut step_classes: Vec<Vec<(DeviceId, AnomalyClass)>> = Vec::with_capacity(run.steps.len());
    let per_step: Vec<Confusion> = run
        .steps
        .iter()
        .map(|step| {
            let mut abnormal: Vec<DeviceId> = step.truth.abnormal_devices().iter().collect();
            abnormal.sort_unstable();
            let classes = classifier.classify(&step.pair, &abnormal);
            let confusion = score_one_step(spec, &step.truth, &classes);
            step_classes.push(classes);
            confusion
        })
        .collect();
    let events = score::score_events(
        &truth_spans(spec, run),
        &spans_from_step_classes(&step_classes),
    );
    aggregate(spec.clone(), classifier.name(), per_step, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::workloads::{ChurnScenario, FleetScenario, NetworkFaultScenario};

    use anomaly_baselines::TessellationClassifier;
    use anomaly_core::Params;
    use anomaly_simulator::FleetSpec;

    fn fleet_scenario() -> FleetScenario {
        FleetScenario {
            name: "fleet".into(),
            fleet: FleetSpec {
                devices: 500,
                services: 2,
                massive_clusters: 2,
                cluster_size: 6,
                isolated: 4,
                cohesion: 0.05,
                calm_activity: 0.4,
                jitter: 0.02,
                shift: 0.3,
                seed: 21,
            },
            steps: 3,
            params: Params::new(0.03, 3).unwrap(),
        }
    }

    fn evaluate_scenario(scenario: &dyn Scenario, evaluation: Evaluation) -> ScenarioScore {
        let run = scenario.generate().unwrap();
        evaluate(&scenario.spec(), &run, &evaluation).unwrap()
    }

    fn sequential() -> Evaluation {
        Evaluation::new(Engine::Sequential)
    }

    #[test]
    fn monitor_evaluation_scores_every_truth_device() {
        let scenario = fleet_scenario();
        let score = evaluate_scenario(&scenario, sequential());
        assert_eq!(score.scenario, "fleet");
        assert_eq!(score.method, "paper-sequential");
        assert_eq!(score.steps, 3);
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(score.confusion.total(), truth_total);
        // The generator's clusters and loners are well separated: the
        // pipeline should be very accurate here.
        assert!(
            score.macro_f1() > 0.9,
            "fleet macro F1 {:.3}",
            score.macro_f1()
        );
        assert_eq!(score.instants.len(), 3);
    }

    #[test]
    fn network_evaluation_beats_or_meets_a_degenerate_baseline() {
        let scenario = NetworkFaultScenario::small_mixed("net", 3, 4);
        let paper = evaluate_scenario(&scenario, sequential());
        let degenerate = TessellationClassifier::new(1, 3);
        let run = scenario.generate().unwrap();
        let baseline = evaluate_classifier(&scenario.spec(), &run, &degenerate);
        assert_eq!(paper.confusion.total(), baseline.confusion.total());
        assert!(
            paper.macro_f1() >= baseline.macro_f1(),
            "paper {:.3} vs 1-cell tessellation {:.3}",
            paper.macro_f1(),
            baseline.macro_f1()
        );
        // A 1-cell tessellation calls every CPE fault massive.
        assert!(baseline.confusion.mistaken() > 0);
    }

    #[test]
    fn churn_is_applied_between_segments() {
        let scenario = ChurnScenario {
            fleet: fleet_scenario(),
            churn_devices: 25,
            churn_every: 1,
        };
        let churned = evaluate_scenario(&scenario, sequential());
        assert_eq!(churned.steps, 3);
        // Every truth device is still accounted for: joiners that flag
        // while warming are scored as missing, not dropped.
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(churned.confusion.total(), truth_total);
    }

    #[test]
    fn lossless_streaming_replay_matches_the_batch_path() {
        let streamed = evaluate_scenario(
            &fleet_scenario(),
            Evaluation {
                streaming: Some(Streaming::shuffled(77)),
                ..sequential()
            },
        );
        let batch = evaluate_scenario(&fleet_scenario(), sequential());
        assert_eq!(batch.metrics_json(), streamed.metrics_json());
        assert_eq!(streamed.method, "paper-streaming-sequential");
    }

    #[test]
    fn lossy_streaming_replay_still_scores_every_truth_device() {
        let scenario = fleet_scenario();
        let lossy = Streaming {
            shuffle_seed: 78,
            drop_probability: 0.2,
            max_age: 8,
        };
        let streamed = evaluate_scenario(
            &scenario,
            Evaluation {
                streaming: Some(lossy),
                ..sequential()
            },
        );
        let truth_total: u64 = scenario
            .generate()
            .unwrap()
            .steps
            .iter()
            .map(|s| s.truth.abnormal_devices().len() as u64)
            .sum();
        assert_eq!(streamed.confusion.total(), truth_total);
    }

    #[test]
    fn json_renderings_are_stable() {
        let score = evaluate_scenario(&fleet_scenario(), sequential());
        let json = score.to_json();
        assert!(json.contains("\"scenario\":\"fleet\""));
        assert!(json.contains("\"method\":\"paper-sequential\""));
        assert!(json.contains("\"macro_f1\""));
        assert!(json.contains("\"event_f1\""));
        assert!(json.contains("\"mean_detection_latency\""));
        assert_eq!(json, score.to_json());
        assert!(score.metrics_json().starts_with("{\"steps\":3"));
    }

    #[test]
    fn persistent_anomalies_are_tracked_as_single_events() {
        use crate::workloads::PersistentAnomalyScenario;
        let scenario = PersistentAnomalyScenario {
            devices: 120,
            ..PersistentAnomalyScenario::standard("persist-eval", 31)
        };
        let score = evaluate_scenario(&scenario, sequential());
        // Device-level: the well-separated cluster and flappers classify
        // cleanly.
        assert!(
            score.macro_f1() > 0.9,
            "persistent macro F1 {:.3}",
            score.macro_f1()
        );
        // Event-level: every ground-truth event is found, nothing spurious
        // is invented, and detection is immediate (the detectors flag the
        // very first anomalous jump).
        assert_eq!(score.events.recall(), 1.0, "{:?}", score.events);
        assert_eq!(score.events.precision(), 1.0, "{:?}", score.events);
        assert_eq!(score.events.mean_latency(), 0.0, "{:?}", score.events);
        // The tracker correlates: the 5-step cluster outage and the
        // flappers' recurrences produce *fewer* predicted events than
        // truth spans (debounce merges recurrences), never more.
        assert!(
            score.events.predicted_events <= score.events.truth_events,
            "{:?}",
            score.events
        );
        assert!(score.events.predicted_events > scenario.flappers as u64);
    }

    #[test]
    fn alert_quality_scores_the_network_scenario() {
        let scenario = NetworkFaultScenario::small_mixed("net-alerts", 3, 4);
        let shape = scenario.config.shape;
        let run = scenario.generate().unwrap();
        let spec = scenario.spec();
        let plain = evaluate(&spec, &run, &sequential()).unwrap();
        let with_alerts = Evaluation {
            alerts: Some(shape),
            ..sequential()
        };
        let scored = evaluate(&spec, &run, &with_alerts).unwrap();
        // The alert fold rides along without disturbing the base metrics.
        assert_eq!(plain.confusion, scored.confusion);
        assert!(plain.alerts.is_none());
        let quality = scored.alerts.expect("alert quality attached");
        assert!(quality.truth_events > 0);
        assert!(quality.alerts > 0, "{quality:?}");
        // The scenario faults every step, so consecutive outages roll
        // into continuing incidents: recall is bounded by dedup, not
        // detection — half the truth spans fold into ongoing alerts.
        assert!(
            quality.page_recall() >= 0.5,
            "onsets must page: {quality:?}"
        );
        assert!(quality.resolved >= 1, "{quality:?}");
        assert!(quality.distinct_signatures >= 1, "{quality:?}");
        assert!(
            quality.page_precision() > 0.5,
            "pages should land inside truth spans: {quality:?}"
        );
        let json = scored.metrics_json();
        assert!(json.contains("\"alerts\":{\"truth_events\""), "{json}");
        assert!(json.contains("\"page_f1\""), "{json}");
        // Engine and feed independence extend to the alert fold: a
        // threaded engine and a lossless stream page exactly like the
        // sequential batch run.
        let threaded = Evaluation {
            engine: Engine::Threaded { workers: 3 },
            ..with_alerts
        };
        let streamed = Evaluation {
            streaming: Some(Streaming::shuffled(5)),
            ..with_alerts
        };
        for variant in [threaded, streamed] {
            let other = evaluate(&spec, &run, &variant).unwrap();
            assert_eq!(scored.metrics_json(), other.metrics_json(), "{variant:?}");
        }
    }

    #[test]
    fn baseline_event_spans_come_from_linked_step_groups() {
        let scenario = fleet_scenario();
        let baseline = TessellationClassifier::new(16, 3);
        let run = scenario.generate().unwrap();
        let score = evaluate_classifier(&scenario.spec(), &run, &baseline);
        assert!(score.events.predicted_events > 0);
        assert!(score.events.truth_events > 0);
        let json = score.metrics_json();
        assert!(json.contains("\"events\":{\"truth_events\""), "{json}");
    }
}
