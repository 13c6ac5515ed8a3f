//! Scoring primitives: predicted verdicts against the real scenario `R_k`.
//!
//! A device impacted by an error belongs to exactly one [`TruthClass`]
//! (its event's effective size against `τ`); a method answers with a
//! [`Prediction`]. [`Confusion`] accumulates the full per-class confusion
//! matrix plus precision/recall/F1, and is the common currency of the
//! baseline comparison harness (`anomaly-baselines`) and the scenario
//! evaluation subsystem (`anomaly-eval`).
//!
//! Two deliberate conventions:
//!
//! * **Unresolved is not a mistake.** The paper's local conditions abstain
//!   on genuinely undecidable configurations; [`Prediction::Unresolved`] is
//!   counted in its own column, hurting recall but never precision.
//! * **Spurious verdicts are diagnostics, not confusion entries.** A
//!   verdict on a device outside the ground-truth abnormal set (a detector
//!   fluke, a repair rebound) is recorded via
//!   [`Confusion::record_spurious`] and reported separately: the confusion
//!   matrix measures *characterization* quality over the real scenario,
//!   which is the quantity comparable across methods that are handed the
//!   abnormal set directly.

use crate::ground_truth::GroundTruth;
use anomaly_core::{AnomalyClass, DeviceSet};
use anomaly_qos::DeviceId;
use std::fmt::Write as _;

/// The real class of an impacted device, from its event's effective size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthClass {
    /// The device's error impacted `≤ τ` devices (`I_{R_k}`).
    Isolated,
    /// The device's error impacted `> τ` devices (`M_{R_k}`).
    Massive,
}

/// What a method said about one ground-truth abnormal device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Prediction {
    /// Classified isolated.
    Isolated,
    /// Classified massive.
    Massive,
    /// The method abstained (the paper's honest "cannot know").
    Unresolved,
    /// The method produced no verdict at all for the device (not flagged by
    /// its detector, or still warming after a join).
    Missing,
}

impl From<AnomalyClass> for Prediction {
    fn from(class: AnomalyClass) -> Self {
        match class {
            AnomalyClass::Isolated => Prediction::Isolated,
            AnomalyClass::Massive => Prediction::Massive,
            AnomalyClass::Unresolved => Prediction::Unresolved,
        }
    }
}

const TRUTHS: [TruthClass; 2] = [TruthClass::Isolated, TruthClass::Massive];
const PREDICTIONS: [Prediction; 4] = [
    Prediction::Isolated,
    Prediction::Massive,
    Prediction::Unresolved,
    Prediction::Missing,
];

fn truth_index(t: TruthClass) -> usize {
    match t {
        TruthClass::Isolated => 0,
        TruthClass::Massive => 1,
    }
}

fn prediction_index(p: Prediction) -> usize {
    match p {
        Prediction::Isolated => 0,
        Prediction::Massive => 1,
        Prediction::Unresolved => 2,
        Prediction::Missing => 3,
    }
}

/// Per-class confusion counts of one method on one or more scored steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Confusion {
    /// `counts[truth][prediction]`.
    counts: [[u64; 4]; 2],
    /// Verdicts on devices outside the ground-truth abnormal set, by
    /// predicted class (isolated, massive, unresolved).
    spurious: [u64; 3],
}

impl Confusion {
    /// An empty matrix.
    pub fn new() -> Self {
        Confusion::default()
    }

    /// Records one scored device.
    pub fn record(&mut self, truth: TruthClass, prediction: Prediction) {
        self.counts[truth_index(truth)][prediction_index(prediction)] += 1;
    }

    /// Records a verdict on a device that is in no ground-truth event.
    pub fn record_spurious(&mut self, class: AnomalyClass) {
        self.spurious[prediction_index(Prediction::from(class))] += 1;
    }

    /// One confusion cell.
    pub fn count(&self, truth: TruthClass, prediction: Prediction) -> u64 {
        self.counts[truth_index(truth)][prediction_index(prediction)]
    }

    /// Spurious verdicts of one predicted class.
    pub fn spurious(&self, class: AnomalyClass) -> u64 {
        self.spurious[prediction_index(Prediction::from(class))]
    }

    /// All spurious verdicts.
    pub fn spurious_total(&self) -> u64 {
        self.spurious.iter().sum()
    }

    /// Ground-truth devices of one class.
    pub fn truth_total(&self, truth: TruthClass) -> u64 {
        self.counts[truth_index(truth)].iter().sum()
    }

    /// All scored ground-truth devices.
    pub fn total(&self) -> u64 {
        TRUTHS.iter().map(|&t| self.truth_total(t)).sum()
    }

    /// Correctly classified devices (isolated as isolated, massive as
    /// massive).
    pub fn correct(&self) -> u64 {
        self.count(TruthClass::Isolated, Prediction::Isolated)
            + self.count(TruthClass::Massive, Prediction::Massive)
    }

    /// Hard misclassifications (isolated as massive or massive as isolated).
    pub fn mistaken(&self) -> u64 {
        self.count(TruthClass::Isolated, Prediction::Massive)
            + self.count(TruthClass::Massive, Prediction::Isolated)
    }

    /// Abstentions plus devices that never received a verdict.
    pub fn undecided(&self) -> u64 {
        TRUTHS
            .iter()
            .map(|&t| self.count(t, Prediction::Unresolved) + self.count(t, Prediction::Missing))
            .sum()
    }

    /// `correct / total` over every scored device (0 when nothing was
    /// scored). Abstentions count against accuracy — a method that never
    /// answers scores 0.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.correct() as f64 / total as f64
        }
    }

    fn predicted_total(&self, prediction: Prediction) -> u64 {
        TRUTHS.iter().map(|&t| self.count(t, prediction)).sum()
    }

    /// Precision of one class: of the devices *predicted* that class, the
    /// fraction that truly were. 1.0 when the class was never predicted
    /// (no claims, no false claims). Spurious verdicts are excluded by
    /// convention (see the module docs).
    pub fn precision(&self, class: TruthClass) -> f64 {
        let as_prediction = match class {
            TruthClass::Isolated => Prediction::Isolated,
            TruthClass::Massive => Prediction::Massive,
        };
        let claimed = self.predicted_total(as_prediction);
        if claimed == 0 {
            1.0
        } else {
            self.count(class, as_prediction) as f64 / claimed as f64
        }
    }

    /// Recall of one class: of the devices truly of that class, the
    /// fraction predicted as such. 1.0 when the class never occurred.
    /// Unresolved and missing devices count against recall.
    pub fn recall(&self, class: TruthClass) -> f64 {
        let truth = self.truth_total(class);
        if truth == 0 {
            1.0
        } else {
            let as_prediction = match class {
                TruthClass::Isolated => Prediction::Isolated,
                TruthClass::Massive => Prediction::Massive,
            };
            self.count(class, as_prediction) as f64 / truth as f64
        }
    }

    /// Harmonic mean of precision and recall for one class (0 when both
    /// vanish).
    pub fn f1(&self, class: TruthClass) -> f64 {
        let p = self.precision(class);
        let r = self.recall(class);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Unweighted mean of the isolated and massive F1 scores — the headline
    /// number of the evaluation workbench.
    pub fn macro_f1(&self) -> f64 {
        (self.f1(TruthClass::Isolated) + self.f1(TruthClass::Massive)) / 2.0
    }

    /// Adds another matrix's counts into this one.
    pub fn merge(&mut self, other: &Confusion) {
        for t in 0..2 {
            for p in 0..4 {
                self.counts[t][p] += other.counts[t][p];
            }
        }
        for s in 0..3 {
            self.spurious[s] += other.spurious[s];
        }
    }

    /// Stable JSON rendering (no external dependencies): the raw matrix,
    /// the spurious counters, and the derived per-class metrics.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"matrix\":{");
        for (ti, &t) in TRUTHS.iter().enumerate() {
            if ti > 0 {
                out.push(',');
            }
            let tname = match t {
                TruthClass::Isolated => "isolated",
                TruthClass::Massive => "massive",
            };
            let _ = write!(out, "\"{tname}\":{{");
            for (pi, &p) in PREDICTIONS.iter().enumerate() {
                if pi > 0 {
                    out.push(',');
                }
                let pname = match p {
                    Prediction::Isolated => "isolated",
                    Prediction::Massive => "massive",
                    Prediction::Unresolved => "unresolved",
                    Prediction::Missing => "missing",
                };
                let _ = write!(out, "\"{pname}\":{}", self.count(t, p));
            }
            out.push('}');
        }
        let _ = write!(
            out,
            concat!(
                "}},\"spurious\":{{\"isolated\":{},\"massive\":{},\"unresolved\":{}}},",
                "\"precision_isolated\":{:.6},\"recall_isolated\":{:.6},\"f1_isolated\":{:.6},",
                "\"precision_massive\":{:.6},\"recall_massive\":{:.6},\"f1_massive\":{:.6},",
                "\"macro_f1\":{:.6},\"accuracy\":{:.6}}}"
            ),
            self.spurious[0],
            self.spurious[1],
            self.spurious[2],
            self.precision(TruthClass::Isolated),
            self.recall(TruthClass::Isolated),
            self.f1(TruthClass::Isolated),
            self.precision(TruthClass::Massive),
            self.recall(TruthClass::Massive),
            self.f1(TruthClass::Massive),
            self.macro_f1(),
            self.accuracy(),
        );
        out
    }
}

/// One anomaly event in **step coordinates**: the unit of event-level
/// scoring, on either side of the comparison.
///
/// Ground-truth spans come from [`link_truth_events`] (per-step
/// [`GroundTruth`] events chained across consecutive steps by device
/// overlap); predicted spans come from a monitor's event-delta stream or
/// from [`link_event_spans`] over a classifier's per-step verdict groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSpan {
    /// First step the event was observed at.
    pub onset: usize,
    /// Last step the event was observed at (inclusive).
    pub last: usize,
    /// Every device the event affected over its lifetime.
    pub devices: DeviceSet,
    /// True when the event was massive (impacted `> τ` devices) at any
    /// step of its life — its peak class.
    pub massive: bool,
}

impl EventSpan {
    /// True when the two spans overlap in time.
    pub fn overlaps(&self, other: &EventSpan) -> bool {
        self.onset <= other.last && other.onset <= self.last
    }

    /// True when `other` is the same anomaly: same peak class, overlapping
    /// steps, and at least one shared device.
    pub fn matches(&self, other: &EventSpan) -> bool {
        self.massive == other.massive
            && self.overlaps(other)
            && !self.devices.is_disjoint(&other.devices)
    }
}

/// Chains per-step event groups into [`EventSpan`]s: a group at step `s`
/// continues a span that was active at step `s-1` and shares a device with
/// it; otherwise it opens a new span. Each group is `(devices, massive)`.
///
/// The chaining is deterministic (steps in order, groups in their given
/// order, candidate spans in creation order) and gap-free: one quiet step
/// ends a span — mirroring a tracker debounce of one bridging epoch, which
/// is exactly what the evaluation monitors run with. Same-step groups
/// that overlap one span all fold into it.
pub fn link_event_spans<'a, I, S>(steps: I) -> Vec<EventSpan>
where
    I: IntoIterator<Item = S>,
    S: IntoIterator<Item = &'a (DeviceSet, bool)>,
{
    let mut spans: Vec<EventSpan> = Vec::new();
    for (step, groups) in steps.into_iter().enumerate() {
        for (devices, massive) in groups {
            let continued = spans.iter_mut().find(|span| {
                (span.last + 1 == step || span.last == step) && !span.devices.is_disjoint(devices)
            });
            match continued {
                Some(span) => {
                    span.last = step;
                    span.devices = span.devices.union(devices);
                    span.massive |= *massive;
                }
                None => spans.push(EventSpan {
                    onset: step,
                    last: step,
                    devices: devices.clone(),
                    massive: *massive,
                }),
            }
        }
    }
    spans
}

/// [`link_event_spans`] over a run's per-step ground truth: each step's
/// [`ErrorEvent`](crate::ErrorEvent)s become groups classified by their
/// effective size against `tau`.
pub fn link_truth_events<'a>(
    steps: impl IntoIterator<Item = &'a GroundTruth>,
    tau: usize,
) -> Vec<EventSpan> {
    let grouped: Vec<Vec<(DeviceSet, bool)>> = steps
        .into_iter()
        .map(|truth| {
            truth
                .events()
                .iter()
                .map(|e| (e.impacted.clone(), e.is_massive(tau)))
                .collect()
        })
        .collect();
    link_event_spans(grouped.iter().map(|g| g.iter()))
}

/// Event-level comparison of predicted spans against ground-truth spans:
/// the temporal counterpart of the per-device [`Confusion`].
///
/// A predicted span *matches* a truth span when the peak classes agree,
/// the step ranges overlap, and the device sets intersect
/// ([`EventSpan::matches`]). Precision is over predicted events, recall
/// over truth events, and detection latency is the gap (in steps) between
/// a truth event's onset and the onset of its earliest matching
/// prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventConfusion {
    /// Ground-truth events scored.
    pub truth_events: u64,
    /// Predicted events scored.
    pub predicted_events: u64,
    /// Truth events with at least one matching prediction.
    pub matched_truth: u64,
    /// Predicted events matching at least one truth event (the rest are
    /// spurious).
    pub matched_predicted: u64,
    /// Sum over matched truth events of the onset gap to their earliest
    /// matching prediction (clamped at zero for early predictions).
    pub latency_steps: u64,
}

impl EventConfusion {
    /// Of the predicted events, the fraction matching a real one. 1.0 when
    /// nothing was predicted (no claims, no false claims).
    pub fn precision(&self) -> f64 {
        if self.predicted_events == 0 {
            1.0
        } else {
            self.matched_predicted as f64 / self.predicted_events as f64
        }
    }

    /// Of the real events, the fraction detected. 1.0 when nothing real
    /// happened.
    pub fn recall(&self) -> f64 {
        if self.truth_events == 0 {
            1.0
        } else {
            self.matched_truth as f64 / self.truth_events as f64
        }
    }

    /// Harmonic mean of event precision and recall (0 when both vanish).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Mean detection latency over the matched truth events, in steps
    /// (0 when nothing matched).
    pub fn mean_latency(&self) -> f64 {
        if self.matched_truth == 0 {
            0.0
        } else {
            self.latency_steps as f64 / self.matched_truth as f64
        }
    }

    /// Stable JSON rendering: the raw counters and the derived metrics.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"truth_events\":{},\"predicted_events\":{},",
                "\"matched_truth\":{},\"matched_predicted\":{},",
                "\"latency_steps\":{},",
                "\"event_precision\":{:.6},\"event_recall\":{:.6},",
                "\"event_f1\":{:.6},\"mean_detection_latency\":{:.6}}}"
            ),
            self.truth_events,
            self.predicted_events,
            self.matched_truth,
            self.matched_predicted,
            self.latency_steps,
            self.precision(),
            self.recall(),
            self.f1(),
            self.mean_latency(),
        )
    }
}

/// Scores predicted event spans against ground-truth spans — see
/// [`EventConfusion`] for the matching rule and the derived metrics.
pub fn score_events(truth: &[EventSpan], predicted: &[EventSpan]) -> EventConfusion {
    let mut confusion = EventConfusion {
        truth_events: truth.len() as u64,
        predicted_events: predicted.len() as u64,
        ..EventConfusion::default()
    };
    let mut predicted_matched = vec![false; predicted.len()];
    for t in truth {
        let mut earliest: Option<usize> = None;
        for (pi, p) in predicted.iter().enumerate() {
            if p.matches(t) {
                predicted_matched[pi] = true;
                earliest = Some(match earliest {
                    Some(onset) => onset.min(p.onset),
                    None => p.onset,
                });
            }
        }
        if let Some(onset) = earliest {
            confusion.matched_truth += 1;
            confusion.latency_steps += onset.saturating_sub(t.onset) as u64;
        }
    }
    confusion.matched_predicted = predicted_matched.iter().filter(|&&m| m).count() as u64;
    confusion
}

/// Scores every ground-truth abnormal device of one step: looks each one up
/// through `class_of` (`None` = no verdict, recorded as
/// [`Prediction::Missing`]) and records it against its event's effective
/// class under `tau`.
///
/// Spurious verdicts — devices the method classified that appear in no
/// event — must be recorded by the caller via
/// [`Confusion::record_spurious`], since only the caller knows the full
/// verdict list.
pub fn score_step<F>(confusion: &mut Confusion, truth: &GroundTruth, tau: usize, mut class_of: F)
where
    F: FnMut(DeviceId) -> Option<AnomalyClass>,
{
    for event in truth.events() {
        let truth_class = if event.is_massive(tau) {
            TruthClass::Massive
        } else {
            TruthClass::Isolated
        };
        for id in &event.impacted {
            let prediction = class_of(id)
                .map(Prediction::from)
                .unwrap_or(Prediction::Missing);
            confusion.record(truth_class, prediction);
        }
    }
}

/// [`score_step`] over a flat verdict list, the form every classifier and
/// report produces: builds the id lookup once (later duplicates win, like
/// repeated map inserts) and scores each ground-truth device.
pub fn score_step_classes(
    confusion: &mut Confusion,
    truth: &GroundTruth,
    tau: usize,
    classes: &[(DeviceId, AnomalyClass)],
) {
    let by_id: std::collections::BTreeMap<DeviceId, AnomalyClass> =
        classes.iter().copied().collect();
    score_step(confusion, truth, tau, |id| by_id.get(&id).copied());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground_truth::ErrorEvent;
    use anomaly_core::DeviceSet;

    fn truth() -> GroundTruth {
        GroundTruth::new(vec![
            ErrorEvent {
                impacted: DeviceSet::from([0, 1, 2, 3]),
                intended_isolated: false,
            },
            ErrorEvent {
                impacted: DeviceSet::from([7]),
                intended_isolated: true,
            },
        ])
    }

    #[test]
    fn score_step_records_every_truth_device() {
        let mut c = Confusion::new();
        // Device 2 abstains, device 3 gets no verdict, 7 is misclassified.
        score_step(&mut c, &truth(), 3, |id| match id.0 {
            0 | 1 => Some(AnomalyClass::Massive),
            2 => Some(AnomalyClass::Unresolved),
            7 => Some(AnomalyClass::Massive),
            _ => None,
        });
        assert_eq!(c.total(), 5);
        assert_eq!(c.correct(), 2);
        assert_eq!(c.count(TruthClass::Massive, Prediction::Unresolved), 1);
        assert_eq!(c.count(TruthClass::Massive, Prediction::Missing), 1);
        assert_eq!(c.count(TruthClass::Isolated, Prediction::Massive), 1);
        assert_eq!(c.mistaken(), 1);
        assert_eq!(c.undecided(), 2);
    }

    #[test]
    fn metrics_follow_the_definitions() {
        let mut c = Confusion::new();
        // 3 massive right, 1 massive called isolated, 1 isolated called
        // massive, 1 isolated right.
        for _ in 0..3 {
            c.record(TruthClass::Massive, Prediction::Massive);
        }
        c.record(TruthClass::Massive, Prediction::Isolated);
        c.record(TruthClass::Isolated, Prediction::Massive);
        c.record(TruthClass::Isolated, Prediction::Isolated);
        assert!((c.precision(TruthClass::Massive) - 0.75).abs() < 1e-12);
        assert!((c.recall(TruthClass::Massive) - 0.75).abs() < 1e-12);
        assert!((c.f1(TruthClass::Massive) - 0.75).abs() < 1e-12);
        assert!((c.precision(TruthClass::Isolated) - 0.5).abs() < 1e-12);
        assert!((c.accuracy() - 4.0 / 6.0).abs() < 1e-12);
        let expected_macro = (c.f1(TruthClass::Isolated) + c.f1(TruthClass::Massive)) / 2.0;
        assert!((c.macro_f1() - expected_macro).abs() < 1e-12);
    }

    #[test]
    fn degenerate_metrics_are_well_defined() {
        let c = Confusion::new();
        assert_eq!(c.accuracy(), 0.0);
        assert_eq!(c.precision(TruthClass::Massive), 1.0);
        assert_eq!(c.recall(TruthClass::Massive), 1.0);
        // Never predicted, never occurred: vacuous perfection.
        assert_eq!(c.f1(TruthClass::Isolated), 1.0);
    }

    #[test]
    fn spurious_counts_are_separate() {
        let mut c = Confusion::new();
        c.record(TruthClass::Massive, Prediction::Massive);
        c.record_spurious(AnomalyClass::Isolated);
        c.record_spurious(AnomalyClass::Isolated);
        c.record_spurious(AnomalyClass::Massive);
        assert_eq!(c.spurious(AnomalyClass::Isolated), 2);
        assert_eq!(c.spurious(AnomalyClass::Massive), 1);
        assert_eq!(c.spurious_total(), 3);
        // They do not move precision: the matrix is truth-set only.
        assert_eq!(c.precision(TruthClass::Isolated), 1.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Confusion::new();
        a.record(TruthClass::Isolated, Prediction::Isolated);
        let mut b = Confusion::new();
        b.record(TruthClass::Isolated, Prediction::Isolated);
        b.record(TruthClass::Massive, Prediction::Unresolved);
        b.record_spurious(AnomalyClass::Unresolved);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.correct(), 2);
        assert_eq!(a.spurious(AnomalyClass::Unresolved), 1);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let mut c = Confusion::new();
        c.record(TruthClass::Massive, Prediction::Massive);
        c.record_spurious(AnomalyClass::Isolated);
        let json = c.to_json();
        assert!(json.contains("\"matrix\""));
        assert!(json.contains("\"macro_f1\""));
        assert!(json.contains("\"spurious\":{\"isolated\":1"));
        assert_eq!(json, c.to_json());
    }

    fn event(ids: &[u32], intended_isolated: bool) -> ErrorEvent {
        ErrorEvent {
            impacted: DeviceSet::from(ids),
            intended_isolated,
        }
    }

    fn span(onset: usize, last: usize, ids: &[u32], massive: bool) -> EventSpan {
        EventSpan {
            onset,
            last,
            devices: DeviceSet::from(ids),
            massive,
        }
    }

    #[test]
    fn truth_linking_chains_overlapping_consecutive_steps() {
        // Steps 0-2: the same cluster degrades; step 1 adds a lone fault;
        // step 3 is quiet; step 4 re-faults the cluster's devices.
        let steps = [
            GroundTruth::new(vec![event(&[0, 1, 2, 3], false)]),
            GroundTruth::new(vec![event(&[1, 2, 3, 4], false), event(&[9], true)]),
            GroundTruth::new(vec![event(&[2, 3, 4, 5], false)]),
            GroundTruth::new(vec![]),
            GroundTruth::new(vec![event(&[0, 1, 2, 3], false)]),
        ];
        let spans = link_truth_events(steps.iter(), 3);
        assert_eq!(spans.len(), 3);
        // The cluster chains across steps 0..=2 with a growing device set.
        assert_eq!(spans[0], span(0, 2, &[0, 1, 2, 3, 4, 5], true));
        // The lone fault is its own single-step span.
        assert_eq!(spans[1], span(1, 1, &[9], false));
        // The quiet step 3 breaks the chain: step 4 is a new span.
        assert_eq!(spans[2], span(4, 4, &[0, 1, 2, 3], true));
    }

    #[test]
    fn effective_class_follows_the_peak_size() {
        // An intended-massive event that only ever impacts 2 devices is
        // effectively isolated; growth past tau flips the span to massive.
        let steps = [
            GroundTruth::new(vec![event(&[0, 1], false)]),
            GroundTruth::new(vec![event(&[0, 1, 2, 3], false)]),
        ];
        let spans = link_truth_events(steps.iter(), 3);
        assert_eq!(spans.len(), 1);
        assert!(spans[0].massive, "peak size 4 > tau 3");
        let spans = link_truth_events(steps[..1].iter(), 3);
        assert!(!spans[0].massive);
    }

    #[test]
    fn event_matching_needs_class_time_and_device_overlap() {
        let truth = vec![span(2, 6, &[0, 1, 2, 3], true), span(4, 4, &[9], false)];
        // Matches the cluster two steps late; wrong class on the loner.
        let predicted = vec![
            span(4, 6, &[1, 2, 3], true),
            span(4, 4, &[9], true),
            span(0, 0, &[7], false),
        ];
        let c = score_events(&truth, &predicted);
        assert_eq!(c.truth_events, 2);
        assert_eq!(c.predicted_events, 3);
        assert_eq!(c.matched_truth, 1);
        assert_eq!(c.matched_predicted, 1);
        assert_eq!(c.latency_steps, 2);
        assert!((c.precision() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 0.5).abs() < 1e-12);
        assert!((c.mean_latency() - 2.0).abs() < 1e-12);
        assert!(c.f1() > 0.0);
    }

    #[test]
    fn early_predictions_have_zero_latency_and_empty_sides_are_vacuous() {
        let truth = vec![span(3, 5, &[0], false)];
        let predicted = vec![span(1, 5, &[0], false)];
        let c = score_events(&truth, &predicted);
        assert_eq!(c.latency_steps, 0, "early onset clamps to zero");
        let empty = score_events(&[], &[]);
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        assert_eq!(empty.f1(), 1.0);
        assert_eq!(empty.mean_latency(), 0.0);
    }

    #[test]
    fn event_json_is_stable() {
        let c = score_events(
            &[span(0, 2, &[0, 1, 2, 3], true)],
            &[span(1, 2, &[0, 1], true)],
        );
        let json = c.to_json();
        assert!(json.contains("\"event_f1\":1.000000"), "{json}");
        assert!(
            json.contains("\"mean_detection_latency\":1.000000"),
            "{json}"
        );
        assert_eq!(json, c.to_json());
    }
}
