//! Per-layer numbers read off a sealed epoch through public accessors:
//! the `Report` timings and counts, the served verdicts' `Cost` and `Rule`,
//! and `Monitor::last_grid_update`.

use crate::harness::{ms, Layers};
use anomaly_characterization::pipeline::{Monitor, Report};
use anomaly_core::Rule;
use anomaly_qos::GridUpdate;
use std::time::Duration;

/// Reports equal in everything but their wall-clock timings.
pub fn same(a: &Report, b: &Report) -> bool {
    a.instant() == b.instant()
        && a.verdicts() == b.verdicts()
        && a.warming() == b.warming()
        && a.event_deltas() == b.event_deltas()
        && a.straggler_count() == b.straggler_count()
        && a.open_events() == b.open_events()
}

/// Records one sealed epoch. `busy` is the time of the call that sealed it;
/// `churned` says whether membership changed since the previous seal.
pub fn record(
    layers: &mut Layers,
    monitor: &Monitor,
    report: &Report,
    busy: Duration,
    churned: bool,
) {
    let detect = report.detection_time();
    let characterize = report.characterization_time();
    layers.sample("seal.busy_ms", ms(busy));
    layers.sample("seal.detect_ms", ms(detect));
    layers.sample("seal.characterize_ms", ms(characterize));
    layers.sample(
        "seal.rest_ms",
        ms(busy.saturating_sub(detect).saturating_sub(characterize)),
    );
    layers.add("seal.verdicts", report.verdicts().len() as f64);
    layers.add("seal.stragglers", report.straggler_count() as f64);
    layers.add("seal.components", report.components() as f64);
    layers.add("events.deltas", report.event_deltas().len() as f64);
    layers.max("events.open_max", report.open_events() as f64);

    // Cached verdicts carry the cost of the epoch that computed them.
    for verdict in report.verdicts() {
        let c = verdict.characterization;
        let cost = c.cost();
        layers.add("core.maximal_motions", cost.maximal_motions as f64);
        layers.add("core.dense_motions", cost.dense_motions as f64);
        layers.add("core.collections_tested", cost.collections_tested as f64);
        layers.add("core.window_moves", cost.window_moves as f64);
        let rule = match c.rule() {
            Rule::Theorem5 => "core.rule.theorem5",
            Rule::Theorem6 => "core.rule.theorem6",
            Rule::Theorem7 => "core.rule.theorem7",
            Rule::Corollary8 => "core.rule.corollary8",
            Rule::Algorithm3 => "core.rule.algorithm3",
        };
        layers.add(rule, 1.0);
    }

    // The grid is touched only on epochs that characterized, which are
    // exactly those with verdicts; otherwise `last_grid_update` is sticky.
    if report.verdicts().is_empty() {
        return;
    }
    layers.add("qos.characterized_epochs", 1.0);
    if churned {
        layers.add("qos.churned_characterized_epochs", 1.0);
    }
    match monitor.last_grid_update() {
        Some(GridUpdate::Rebuilt) => layers.add("qos.grid_rebuilds", 1.0),
        Some(GridUpdate::Incremental { rebucketed }) => {
            layers.add("qos.cells_rebucketed", rebucketed as f64)
        }
        None => {}
    }
}
