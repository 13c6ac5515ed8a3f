//! `isp-serve-4k`: a simulated ISP tree `(1, 4, 16, 64)` — 4,096 gateways —
//! monitored like the `serve` binary and driven through `ServeLoop`. A
//! seeded rolling schedule starts a DSLAM outage every 6 epochs (lasting 3)
//! and a CPE fault every 4 epochs (lasting 2). Every measured epoch one
//! gateway leaves and the previous leaver rejoins; every sealed epoch is
//! appended to an `EventLog`; every 16 epochs the loop checkpoints into the
//! log, the log is compacted, and the compacted image is restored.
//!
//! The monitor runs `Engine::Sequential`, like the `serve` binary. A traced
//! run feeds the same churn and inputs to an `Engine::Threaded { min(2,
//! nproc) }` monitor, for the worker pool's numbers on the outage epochs'
//! fresh characterizations, and requires identical reports.

use crate::alloc;
use crate::harness::{hash, ms, timed_setups, us, Clock, Config, Outcome};
use crate::report;
use anomaly_characterization::pipeline::{Engine, EventLog, Monitor, MonitorBuilder};
use anomaly_core::Params;
use anomaly_detectors::{ThresholdDetector, VectorDetector};
use anomaly_network::{FaultTarget, NetworkConfig, NetworkSimulation, Service, Topology};
use anomaly_serve::{actions_to_json, AlertConfig, AlertSink, KeyMap, ServeLoop};
use anomaly_store::LogWriter;

const SHAPE: (usize, usize, usize, usize) = (1, 4, 16, 64);
/// Epochs between two checkpoints.
const CADENCE: usize = 16;
/// Measured epochs per second of `--seconds`, and the least a run does.
const EPOCHS_PER_SECOND: f64 = 230.0;
const MIN_EPOCHS: usize = 110;
/// Set-up epochs: a calm one, then the first CPE fault — the first
/// characterized epoch.
const WARM_EPOCHS: usize = 2;

type Rows = Vec<(u64, Vec<f64>)>;

/// The monitor configuration of the `serve` binary. A restoring builder
/// leaves the fleet to the checkpoint, so devices are added by the caller.
fn builder(services: usize) -> MonitorBuilder {
    MonitorBuilder::new()
        .params(Params::new(0.02, 3).expect("r = 0.02, tau = 3 are valid"))
        .services(services)
        .debounce(1)
        .history(64)
        .detector_factory(move |_| {
            Box::new(VectorDetector::homogeneous(services, || {
                ThresholdDetector::with_delta(0.1)
            }))
        })
}

/// The sink tuning of the `serve` binary.
fn sink_config() -> AlertConfig {
    AlertConfig {
        dedup_window: 16,
        bucket_capacity: 2,
        refill_millitokens: 250,
    }
}

/// The seeded input stream: the network simulation under the rolling
/// incident schedule, one measurement round per epoch.
#[derive(Clone)]
struct Feed {
    net: NetworkSimulation,
    seed: u64,
    epoch: u64,
}

impl Feed {
    fn new(seed: u64) -> Self {
        let config = NetworkConfig {
            shape: SHAPE,
            services: vec![Service::new("iptv", 950), Service::new("voip", 900)],
            measurement: Default::default(),
            seed,
        };
        let net = NetworkSimulation::new(config).expect("the ISP network config is valid");
        Feed {
            net,
            seed,
            epoch: 0,
        }
    }

    fn topology(&self) -> &Topology {
        self.net.topology()
    }

    /// Faults active during epoch `t`.
    fn faults(&self, t: u64) -> Vec<FaultTarget> {
        let topology = self.topology();
        let mut faults = Vec::new();
        if t >= 2 && (t - 2) % 6 < 3 {
            let dslams = topology.dslams();
            let pick = hash(self.seed, 3, (t - 2) / 6) as usize % dslams.len();
            faults.push(FaultTarget::Node {
                node: dslams[pick],
                severity: 0.6,
            });
        }
        if t >= 1 && (t - 1) % 4 < 2 {
            let gateways = topology.gateways();
            let pick = hash(self.seed, 4, (t - 1) / 4) as usize % gateways.len();
            faults.push(FaultTarget::Gateway {
                gateway: gateways[pick],
                severity: 0.7,
            });
        }
        faults
    }

    /// The next epoch's measurement of every gateway.
    fn next(&mut self) -> Rows {
        let t = self.epoch;
        self.epoch += 1;
        self.net.repair_all();
        for fault in self.faults(t) {
            self.net.inject(fault);
        }
        self.net
            .measure_stream()
            .into_iter()
            .map(|update| (update.key, update.qos))
            .collect()
    }

    /// The gateway that leaves in epoch `t`; never the one that left in
    /// epoch `t − 1`, which rejoins.
    fn leaver(&self, t: u64) -> u64 {
        let gateways = self.topology().gateways();
        let pick = |t: u64| hash(self.seed, 5, t) as usize % gateways.len();
        let mut i = pick(t);
        if t > 0 && i == pick(t - 1) {
            i = (i + 1) % gateways.len();
        }
        u64::from(gateways[i].0)
    }
}

/// The daemon under test: the serve loop and its running epoch log.
struct Daemon {
    serve: ServeLoop,
    log: EventLog<Vec<u8>>,
}

fn monitor(topology: &Topology, services: usize, engine: Engine) -> Monitor {
    let keys: Vec<u64> = topology.gateways().iter().map(|g| u64::from(g.0)).collect();
    builder(services)
        .engine(engine)
        .devices(keys)
        .build()
        .expect("isp-serve monitor configuration is valid")
}

/// The worker-pool monitor of a traced run, warmed up like the daemon's.
fn pooled(topology: &Topology, services: usize, warm: &[Rows]) -> Monitor {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let mut pool = monitor(topology, services, Engine::Threaded { workers });
    for rows in warm {
        pool.ingest_many(rows.clone())
            .expect("set-up rows are valid");
        pool.seal().expect("set-up epochs seal");
    }
    pool
}

fn setup(topology: &Topology, services: usize, warm: Vec<Rows>) -> Daemon {
    let monitor = monitor(topology, services, Engine::Sequential);
    let sink = AlertSink::new(topology.clone(), KeyMap::NodeIds, sink_config());
    let mut serve = ServeLoop::new(monitor, sink, 1);
    let mut log = EventLog::create(Vec::new()).expect("an in-memory log opens");
    let mut characterized = false;
    for rows in warm {
        serve
            .monitor_mut()
            .ingest_many(rows)
            .expect("set-up rows are valid");
        let (report, _) = serve
            .round()
            .expect("set-up epochs seal")
            .expect("the loop seals every round");
        log.record_seal(serve.monitor(), &report)
            .expect("in-memory log appends");
        characterized = !report.verdicts().is_empty();
    }
    assert!(characterized, "the last set-up epoch must characterize");
    Daemon { serve, log }
}

/// One epoch's membership change: `leave` the epoch's leaver, then `join`
/// the previous one. Returns the two call times.
fn churn(
    monitor: &mut Monitor,
    leaver: u64,
    rejoiner: Option<u64>,
    out: &mut Outcome,
) -> (std::time::Duration, std::time::Duration) {
    let (left, t_leave) = out.tracer.span("churn.leave", || monitor.leave(leaver));
    if let Err(err) = left {
        out.problem(format!("leave({leaver}) failed: {err}"));
    }
    let mut t_join = std::time::Duration::ZERO;
    if let Some(key) = rejoiner {
        let (joined, took) = out.tracer.span("churn.join", || monitor.join(key));
        t_join = took;
        if let Err(err) = joined {
            out.problem(format!("join({key}) failed: {err}"));
        }
    }
    (t_leave, t_join)
}

/// Where the restart check resumes: the compacted image of a midpoint
/// checkpoint, the input stream right after it, and the live actions of
/// every later epoch.
struct Midpoint {
    image: Vec<u8>,
    feed: Feed,
    first_epoch: u64,
    rejoiner: u64,
    live_actions: Vec<String>,
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::new(cfg.trace);
    let mut feed = Feed::new(cfg.seed);
    let topology = feed.topology().clone();
    let services = feed.net.services().len();
    let warm: Vec<Rows> = (0..WARM_EPOCHS).map(|_| feed.next()).collect();

    let (daemon, setups, heap_baseline) =
        timed_setups(cfg, || warm.clone(), |w| setup(&topology, services, w));
    let Daemon { mut serve, mut log } = daemon;
    // A second sink fed the same reports, for the sink's own timings.
    let mut shadow = serve.sink().clone();
    let mut threaded = cfg.trace.then(|| pooled(&topology, services, &warm));
    let pages_before = serve.sink().pages_emitted();
    let suppressed_before = serve.sink().suppressed();

    let mut clock = Clock::new(cfg, EPOCHS_PER_SECOND, MIN_EPOCHS);
    let mut midpoint: Option<Midpoint> = None;
    let mut rejoiner: Option<u64> = None;
    let mut step = 0usize;
    while clock.next_epoch() {
        let t = feed.epoch;
        let traced = hash(cfg.seed, 6, step as u64) & 1 == 1;
        let root = out.tracer.start_epoch(step as u64, traced);
        let leaver = feed.leaver(t);
        let mut rows = feed.next();
        rows.retain(|(key, _)| *key != leaver);
        let updates = rows.len();
        let pool_rows = threaded.as_ref().map(|_| rows.clone());

        let rejoiner_before = rejoiner;
        let rejoined = rejoiner.is_some();
        let (t_leave, t_join) = churn(serve.monitor_mut(), leaver, rejoiner, &mut out);
        rejoiner = Some(leaver);
        let (ingested, t_ingest) = out
            .tracer
            .span("ingest", || serve.monitor_mut().ingest_many(rows));
        let (rounded, t_round) = out.tracer.span("serve.round", || serve.round());
        let mut result = t_round;
        let mut failed = false;
        if let Err(err) = ingested {
            out.layers.add("ingest.rejected", 1.0);
            out.problem(format!("ingest rejected a valid row: {err}"));
        }
        match rounded {
            Ok(Some((report, actions))) => {
                let (logged, t_log) = out.tracer.span("persist.record_seal", || {
                    log.record_seal(serve.monitor(), &report)
                });
                result += t_log;
                out.layers.sample("persist.record_seal_us", us(t_log));
                if let Err(err) = logged {
                    out.problem(format!("record_seal failed: {err}"));
                }
                report::record(&mut out.layers, serve.monitor(), &report, t_round, true);
                out.layers.add("serve.actions", actions.len() as f64);

                let (shadowed, took) = out
                    .tracer
                    .span("serve.sink_observe", || shadow.observe(&report));
                out.layers.sample("serve.sink_observe_us", us(took));
                if shadowed != actions {
                    out.problem(format!("epoch {step}: the shadow sink's actions differ"));
                }
                if let Some(mid) = midpoint.as_mut() {
                    mid.live_actions.push(actions_to_json(&actions));
                }
                if let (Some(pool), Some(rows)) = (threaded.as_mut(), pool_rows) {
                    let churned = pool.leave(leaver).is_ok()
                        && rejoiner_before.is_none_or(|key| pool.join(key).is_ok());
                    let open = out.tracer.begin("pool.threaded");
                    let sealed = pool.ingest_many(rows).and_then(|()| pool.seal());
                    let took = out.tracer.end(open);
                    out.layers.sample("pool.sequential_ms", ms(t_round));
                    out.layers.sample("pool.threaded_ms", ms(took));
                    match sealed {
                        Ok(pool_report) if churned && report::same(&report, &pool_report) => {}
                        _ => out.problem(format!(
                            "epoch {step}: the Engine::Threaded monitor's report differs"
                        )),
                    }
                }
            }
            Ok(None) => out.problem("the loop did not seal a round".to_string()),
            Err(err) => {
                failed = true;
                out.problem(format!("seal error: {err}"));
                serve.monitor_mut().discard_epoch();
            }
        }
        clock.charge(t_leave + t_join + t_ingest);
        clock.result(result, traced);
        out.layers.sample("ingest.busy_ms", ms(t_ingest));
        out.layers.add("ingest.updates", updates as f64);
        out.layers.sample("churn.leave_us", us(t_leave));
        if rejoined {
            out.layers.sample("churn.join_us", us(t_join));
        }

        if (step + 1).is_multiple_of(CADENCE) {
            let image = checkpoint_cadence(&mut serve, &mut log, &topology, &mut clock, &mut out);
            let (saved, took) = out.tracer.span("serve.sink_save", || shadow.save());
            out.layers.sample("serve.sink_save_us", us(took));
            drop(saved);
            if cfg.trace {
                monitor_roundtrip(serve.monitor(), services, &mut out);
            }
            if midpoint.is_none() && clock.epochs() >= clock.target() / 2 {
                midpoint = Some(Midpoint {
                    image,
                    feed: feed.clone(),
                    first_epoch: feed.epoch,
                    rejoiner: leaver,
                    live_actions: Vec::new(),
                });
            }
        }
        if failed {
            clock.fail();
        }
        out.tracer.end_epoch(root);
        step += 1;
    }

    out.layers.set(
        "serve.pages",
        (serve.sink().pages_emitted() - pages_before) as f64,
    );
    out.layers.set(
        "serve.suppressed",
        (serve.sink().suppressed() - suppressed_before) as f64,
    );
    out.extra.put(
        "checkpoint_p50_ms",
        out.layers.quantile("persist.checkpoint_ms", 0.5),
        "ms",
    );
    out.extra.put(
        "restore_p50_ms",
        out.layers.quantile("serve.restore_ms", 0.5),
        "ms",
    );
    out.fact(
        "checkpoint_samples",
        out.layers.sample_count("persist.checkpoint_ms"),
    );
    out.fact(
        "restore_samples",
        out.layers.sample_count("serve.restore_ms"),
    );
    out.fact("gateways", topology.gateways().len());
    out.fact("services", services);
    out.fact("engine", format!("{:?}", serve.monitor().engine()));

    // The restart check runs after the measured phase, so neither its time
    // nor its memory shows in the end-to-end numbers.
    let heap_growth = alloc::peak().saturating_sub(heap_baseline);
    let live_shutdown = actions_to_json(&serve.shutdown());
    drop(serve);
    match midpoint {
        Some(mid) => {
            let skipped = clock.epochs() - mid.live_actions.len();
            let diverged = restart_check(mid, &topology, services, &live_shutdown, &mut out);
            for (i, bad) in diverged.into_iter().enumerate() {
                if bad {
                    clock.fail_epoch(skipped + i);
                }
            }
        }
        None => out.problem("the run ended before a midpoint checkpoint".to_string()),
    }
    out.finish(&clock, &setups, heap_growth, cfg.trace);
    out
}

/// `checkpoint_into` the running log, `LogWriter::compact` it, and restore
/// a loop from the compacted image. Returns the image.
fn checkpoint_cadence(
    serve: &mut ServeLoop,
    log: &mut EventLog<Vec<u8>>,
    topology: &Topology,
    clock: &mut Clock,
    out: &mut Outcome,
) -> Vec<u8> {
    let before = log.bytes_written();
    let (written, t_checkpoint) = out
        .tracer
        .span("persist.checkpoint_into", || serve.checkpoint_into(log));
    if let Err(err) = written {
        out.problem(format!("checkpoint_into failed: {err}"));
    }
    out.layers.sample("persist.checkpoint_ms", ms(t_checkpoint));
    out.layers.sample(
        "persist.checkpoint_bytes",
        (log.bytes_written() - before) as f64,
    );
    // The daemon rotates its log: the compacted image replaces it.
    let running = std::mem::replace(
        log,
        EventLog::create(Vec::new()).expect("an in-memory log opens"),
    );
    let full = running.into_inner().expect("an in-memory log flushes");
    out.layers.sample("persist.log_bytes", full.len() as f64);
    let (compacted, t_compact) = out
        .tracer
        .span("store.compact", || LogWriter::compact(&full));
    out.layers.sample("store.compact_ms", ms(t_compact));
    clock.charge(t_checkpoint + t_compact);
    let image = match compacted {
        Ok(image) => image,
        Err(err) => {
            out.problem(format!("compact failed: {err}"));
            return Vec::new();
        }
    };
    out.layers
        .sample("store.compacted_bytes", image.len() as f64);

    let services = serve.monitor().services();
    let (topology, keymap, config) = (topology.clone(), KeyMap::NodeIds, sink_config());
    let restore_builder = builder(services);
    let (restored, t_restore) = out.tracer.span("serve.restore", || {
        ServeLoop::restore(&image, restore_builder, topology, keymap, config)
    });
    out.layers.sample("serve.restore_ms", ms(t_restore));
    match restored {
        Ok(restored) if restored.monitor().instant() == serve.monitor().instant() => {}
        Ok(_) => out.problem("the restored loop is at another epoch".to_string()),
        Err(err) => out.problem(format!("restore failed: {err}")),
    }
    image
}

/// `Monitor::checkpoint` and `Monitor::restore` alone, for the per-layer
/// split of the loop-level checkpoint.
fn monitor_roundtrip(monitor: &Monitor, services: usize, out: &mut Outcome) {
    let mut buf = Vec::new();
    let (written, took) = out.tracer.span("persist.monitor_checkpoint", || {
        monitor.checkpoint(&mut buf)
    });
    out.layers.sample("persist.monitor_checkpoint_ms", ms(took));
    if let Err(err) = written {
        out.problem(format!("Monitor::checkpoint failed: {err}"));
        return;
    }
    let restore_builder = builder(services);
    let (restored, took) = out.tracer.span("persist.monitor_restore", || {
        Monitor::restore(buf.as_slice(), restore_builder)
    });
    out.layers.sample("persist.monitor_restore_ms", ms(took));
    if let Err(err) = restored {
        out.problem(format!("Monitor::restore failed: {err}"));
    }
}

/// Drives a loop restored from the midpoint image over the same inputs and
/// churn as the live one, epoch by epoch; returns which epochs' action
/// streams were not byte-identical.
fn restart_check(
    mid: Midpoint,
    topology: &Topology,
    services: usize,
    live_shutdown: &str,
    out: &mut Outcome,
) -> Vec<bool> {
    let Midpoint {
        image,
        mut feed,
        first_epoch,
        rejoiner,
        live_actions,
    } = mid;
    let restored = ServeLoop::restore(
        &image,
        builder(services),
        topology.clone(),
        KeyMap::NodeIds,
        sink_config(),
    );
    let mut serve = match restored {
        Ok(serve) => serve,
        Err(err) => {
            out.problem(format!("midpoint restore failed: {err}"));
            return vec![true; live_actions.len()];
        }
    };
    let mut rejoiner = Some(rejoiner);
    let mut diverged = Vec::with_capacity(live_actions.len());
    for (i, live) in live_actions.iter().enumerate() {
        let t = first_epoch + i as u64;
        let leaver = feed.leaver(t);
        let mut rows = feed.next();
        rows.retain(|(key, _)| *key != leaver);
        let monitor = serve.monitor_mut();
        let churned =
            monitor.leave(leaver).is_ok() && rejoiner.is_none_or(|key| monitor.join(key).is_ok());
        rejoiner = Some(leaver);
        let ingested = monitor.ingest_many(rows);
        let actions = match ingested.and_then(|()| serve.round()) {
            Ok(Some((_, actions))) => Some(actions_to_json(&actions)),
            _ => None,
        };
        diverged.push(!churned || actions.as_deref() != Some(live.as_str()));
    }
    out.layers
        .set("restart.epochs_compared", diverged.len() as f64);
    out.layers.set(
        "restart.mismatches",
        diverged.iter().filter(|&&d| d).count() as f64,
    );
    if actions_to_json(&serve.shutdown()) != live_shutdown {
        out.problem("the restored loop's shutdown actions differ".to_string());
    }
    diverged
}
