//! `fleet-mixed-100k`: `FleetSpec::large(seed)`, 100,000 devices that all
//! report every epoch, with 10 fresh 12-device clusters and 60 lone jumpers
//! per epoch, on `Engine::Threaded { min(2, nproc) }`. Ingest staging,
//! detection over every row, fresh precompute and decide, and the worker
//! pool do the work; the cached-partition path does none.

use crate::alloc;
use crate::harness::{hash, ms, timed_setups, Clock, Config, Outcome};
use crate::reference::{Positions, Reference, STALL};
use crate::report;
use anomaly_characterization::pipeline::{Engine, Monitor, MonitorBuilder};
use anomaly_core::AnomalyClass;
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_qos::DeviceId;
use anomaly_simulator::fleet::{generate_fleet, FleetInstant, FleetSpec};
use anomaly_simulator::score::{score_step_classes, Confusion};

/// Generated instants after the initial placement. Epochs walk the chain
/// forward and back (0, 1, …, STEPS, STEPS−1, …, 0, 1, …), so every epoch
/// moves one instant's anomaly mix and the input stays bounded in memory.
const STEPS: usize = 32;
/// Measured epochs per second of `--seconds`, and the least a run does: at
/// least 100, so the 90th percentile has ten samples beyond it.
const EPOCHS_PER_SECOND: f64 = 16.0;
const MIN_EPOCHS: usize = 110;
/// Measured epochs between two fresh `qos` grid builds in a traced run.
const GRID_EVERY: usize = 4;

type Rows = Vec<(u64, Vec<f64>)>;

/// The instant epoch `t` feeds.
fn position(t: usize) -> usize {
    let p = t % (2 * STEPS);
    if p <= STEPS {
        p
    } else {
        2 * STEPS - p
    }
}

fn rows(trace: &[FleetInstant], t: usize) -> Rows {
    trace[position(t)]
        .snapshot
        .iter()
        .map(|(id, point)| (u64::from(id.0), point.coords().to_vec()))
        .collect()
}

fn build(spec: &FleetSpec, engine: Engine) -> Monitor {
    let services = spec.services;
    // Between jitter and shift: calm devices never flag, jumps always do.
    let delta = (spec.jitter + spec.shift) / 2.0;
    MonitorBuilder::new()
        .services(services)
        .engine(engine)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(delta)
            }))
        })
        .fleet(spec.devices)
        .build()
        .expect("fleet-mixed monitor configuration is valid")
}

/// Monitor build, the initial placement, then the first interval: the
/// first characterized epoch.
fn setup(spec: &FleetSpec, engine: Engine, warm: [Rows; 2]) -> Monitor {
    let mut monitor = build(spec, engine);
    for rows in warm {
        monitor.ingest_many(rows).expect("set-up rows are valid");
        monitor.seal().expect("set-up epochs seal");
    }
    monitor
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.trace);
    let spec = FleetSpec::large(cfg.seed);
    let trace = generate_fleet(&spec, STEPS).expect("FleetSpec::large is valid");
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let engine = Engine::Threaded { workers };

    let (mut monitor, setups, heap_baseline) = timed_setups(
        cfg,
        || [rows(&trace, 0), rows(&trace, 1)],
        |warm| setup(&spec, engine, warm),
    );
    // The single-threaded baseline, fed the same inputs in a traced run.
    let mut sequential = cfg.trace.then(|| {
        setup(
            &spec,
            Engine::Sequential,
            [rows(&trace, 0), rows(&trace, 1)],
        )
    });
    let params = monitor.params();
    let mut before = Positions::of(monitor.last_snapshot().expect("set-up sealed a snapshot"));
    let mut confusion = Confusion::new();

    let mut reference = Reference::default();
    let mut clock = Clock::new(cfg, EPOCHS_PER_SECOND, MIN_EPOCHS);
    let mut t = 2usize;
    while clock.next_epoch() {
        let step = t - 2;
        let traced = hash(cfg.seed, 2, step as u64) & 1 == 1;
        let root = out.tracer.start_epoch(step as u64, traced);
        let input = rows(&trace, t);
        let shadow_input = sequential.as_ref().map(|_| input.clone());

        let (ingested, t_ingest) = out.tracer.span("ingest", || monitor.ingest_many(input));
        let (sealed, t_seal) = out.tracer.span("seal", || monitor.seal());
        clock.charge(t_ingest);
        clock.result(t_seal, traced);
        out.layers.sample("ingest.busy_ms", ms(t_ingest));
        out.layers.add("ingest.updates", spec.devices as f64);

        let mut failed = false;
        if let Err(err) = ingested {
            out.layers.add("ingest.rejected", 1.0);
            out.problem(format!("ingest rejected a valid row: {err}"));
        }
        match sealed {
            Ok(report) => {
                report::record(&mut out.layers, &monitor, &report, t_seal, false);
                let truth = &trace[position(t - 1).max(position(t))].truth;
                let classes: Vec<(DeviceId, AnomalyClass)> = report
                    .verdicts()
                    .iter()
                    .map(|v| (v.id, v.class()))
                    .collect();
                score_step_classes(&mut confusion, truth, params.tau(), &classes);
                let abnormal = truth.abnormal_devices();
                for &(id, class) in &classes {
                    if !abnormal.contains(id) {
                        confusion.record_spurious(class);
                    }
                }

                let after = monitor
                    .last_snapshot()
                    .expect("a sealed epoch leaves a snapshot");
                let fresh = cfg.trace && step.is_multiple_of(GRID_EVERY);
                let mismatches = reference.check(
                    &before,
                    after,
                    params,
                    report.verdicts(),
                    t_seal,
                    fresh,
                    &mut out.tracer,
                    &mut out.layers,
                );
                failed |= mismatches > 0;
                before.refresh(after);

                if t_seal >= STALL && sequential.take().is_some() {
                    out.fact("sequential_pass_stopped_at_epoch", step);
                }
                if let (Some(seq), Some(rows)) = (sequential.as_mut(), shadow_input) {
                    let open = out.tracer.begin("pool.sequential");
                    let sealed = seq.ingest_many(rows).and_then(|()| seq.seal());
                    let took = out.tracer.end(open);
                    out.layers.sample("pool.sequential_ms", ms(took));
                    out.layers.sample("pool.threaded_ms", ms(t_seal));
                    match sealed {
                        Ok(seq_report) if report::same(&report, &seq_report) => {}
                        Ok(_) => out.problem(format!(
                            "epoch {step}: Engine::Sequential report differs from the threaded one"
                        )),
                        Err(err) => out.problem(format!("sequential seal error: {err}")),
                    }
                }
            }
            Err(err) => {
                failed = true;
                out.problem(format!("seal error: {err}"));
                monitor.discard_epoch();
            }
        }
        if failed {
            clock.fail();
        }
        out.tracer.end_epoch(root);
        t += 1;
    }

    out.extra.put("macro_f1", confusion.macro_f1(), "ratio");
    out.fact("devices", spec.devices);
    out.fact("services", spec.services);
    out.fact("flagged_per_instant", spec.flagged_per_instant());
    out.fact("generated_instants", STEPS + 1);
    out.fact("engine", format!("{engine:?}"));
    out.fact("scored_devices", confusion.total());
    let heap_growth = alloc::peak().saturating_sub(heap_baseline);
    out.finish(&clock, &setups, heap_growth, cfg.trace);
    out
}
