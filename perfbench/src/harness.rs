//! What every workload shares: the seeded generator, the closed-loop clock
//! that ends the measured phase, span recording, per-layer accumulators and
//! the JSON the benchmark prints.

use crate::alloc;
use crate::yardstick;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::mpsc::Sender;
use std::time::{Duration, Instant};

/// Settings of one run, from the command line.
#[derive(Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the run reports its progress, for the watchdog in `main`.
    pub beats: Option<Sender<Beat>>,
}

/// Progress a running workload reports, so that a run whose seal never
/// returns can still be reported from what completed.
pub enum Beat {
    /// Set-up times and the heap baseline.
    Setups(Setups, usize),
    /// One completed epoch.
    Epoch(Sample),
    /// The finished run.
    Done(Box<Outcome>),
}

impl Config {
    fn beat(&self, beat: Beat) {
        if let Some(tx) = &self.beats {
            // The watchdog may have stopped listening; nothing to do then.
            let _ = tx.send(beat);
        }
    }
}

/// Setups per run; `setup_s` is their median and the last one is measured.
pub const SETUPS: usize = 9;

/// One measured epoch, ms: its result latency, its program time, the
/// yardstick pass timed just before it, and whether it failed.
#[derive(Clone, Copy)]
pub struct Sample {
    pub result: f64,
    pub program: f64,
    pub yardstick: f64,
    pub failed: bool,
}

/// The set-up times of a run, s, each with the median yardstick pass timed
/// around it, ms.
#[derive(Clone, Default)]
pub struct Setups {
    pub seconds: Vec<f64>,
    pub yardstick_ms: Vec<f64>,
}

impl Setups {
    /// The median set-up time at the reference speed, s.
    pub fn scaled_p50(&self) -> f64 {
        let scaled: Vec<f64> = self
            .seconds
            .iter()
            .zip(&self.yardstick_ms)
            .map(|(&s, &y)| yardstick::scale(s, y))
            .collect();
        quantile(&scaled, 0.5)
    }
}

/// SplitMix64: the benchmark's own seeded source of inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A stateless hash of `(seed, a, b)`, for per-epoch choices that must not
/// depend on how many epochs ran before.
pub fn hash(seed: u64, a: u64, b: u64) -> u64 {
    let mut g = SplitMix::new(seed ^ a.rotate_left(21) ^ b.rotate_left(42));
    g.next_u64()
}

/// Nearest-rank quantile; 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples above the nearest-rank `q` quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs the measured phase and collects its end-to-end samples.
///
/// A run does a fixed amount of work: `--seconds` times the workload's
/// epoch rate, calibrated so that the program's own time is close to
/// `--seconds` on a busy 2-CPU container. Parent and child commits thus
/// measure identical inputs, however fast each is. Untimed work (input generation,
/// reference checks, the yardstick) is not program time.
pub struct Clock {
    target: usize,
    started: Instant,
    /// Time inside timed program calls per epoch, ms: ingest, churn, the
    /// epoch-closing call and its outputs, and the checkpoint cadence.
    program_ms: Vec<f64>,
    /// Result latency per epoch, ms.
    results_ms: Vec<f64>,
    /// The yardstick pass timed just before each epoch, ms.
    yardstick_ms: Vec<f64>,
    /// Whether spans were recorded on each epoch (trace runs only).
    traced: Vec<bool>,
    /// Per epoch: failed (seal error, reference mismatch, restart
    /// divergence).
    failed: Vec<bool>,
    wall_capped: bool,
    beats: Option<Sender<Beat>>,
}

impl Clock {
    /// Wall-clock cap on the measured phase, so a run always ends in time.
    const WALL_CAP_S: f64 = 90.0;

    /// A phase of `seconds × per_second` epochs, and at least `min`.
    pub fn new(cfg: &Config, per_second: f64, min: usize) -> Self {
        Clock {
            target: ((cfg.seconds * per_second).ceil() as usize).max(min),
            started: Instant::now(),
            program_ms: Vec::new(),
            results_ms: Vec::new(),
            yardstick_ms: Vec::new(),
            traced: Vec::new(),
            failed: Vec::new(),
            wall_capped: false,
            beats: cfg.beats.clone(),
        }
    }

    /// The phase as far as a stalled run got, rebuilt from its beats.
    fn replayed(epochs: &[Sample]) -> Self {
        Clock {
            target: epochs.len(),
            started: Instant::now(),
            program_ms: epochs.iter().map(|e| e.program).collect(),
            results_ms: epochs.iter().map(|e| e.result).collect(),
            yardstick_ms: epochs.iter().map(|e| e.yardstick).collect(),
            traced: vec![false; epochs.len()],
            failed: epochs.iter().map(|e| e.failed).collect(),
            wall_capped: false,
            beats: None,
        }
    }

    /// Opens the next epoch, or ends the phase.
    pub fn next_epoch(&mut self) -> bool {
        if let (Some(tx), Some(&result), Some(&program), Some(&yardstick), Some(&failed)) = (
            &self.beats,
            self.results_ms.last(),
            self.program_ms.last(),
            self.yardstick_ms.last(),
            self.failed.last(),
        ) {
            let _ = tx.send(Beat::Epoch(Sample {
                result,
                program,
                yardstick,
                failed,
            }));
        }
        if self.program_ms.len() >= self.target {
            return false;
        }
        if self.started.elapsed().as_secs_f64() >= Self::WALL_CAP_S {
            self.wall_capped = true;
            return false;
        }
        self.yardstick_ms.push(yardstick::pass());
        self.program_ms.push(0.0);
        self.failed.push(false);
        true
    }

    /// Marks the open epoch failed.
    pub fn fail(&mut self) {
        if let Some(last) = self.failed.last_mut() {
            *last = true;
        }
    }

    /// Marks epoch `i` of the phase failed.
    pub fn fail_epoch(&mut self, i: usize) {
        if let Some(flag) = self.failed.get_mut(i) {
            *flag = true;
        }
    }

    pub fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Adds program time to the open epoch.
    pub fn charge(&mut self, took: Duration) {
        if let Some(last) = self.program_ms.last_mut() {
            *last += ms(took);
        }
    }

    /// Records the open epoch's result latency, which is program time too.
    pub fn result(&mut self, took: Duration, traced: bool) {
        self.charge(took);
        self.results_ms.push(ms(took));
        self.traced.push(traced);
    }

    pub fn epochs(&self) -> usize {
        self.results_ms.len()
    }

    pub fn target(&self) -> usize {
        self.target
    }
}

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    epoch: u64,
}

/// An open span, returned by [`Tracer::begin`].
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans in memory around the benchmark's calls into each layer.
/// Every call is timed whether or not tracing is on; spans are kept only
/// on traced epochs of a traced run.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    epoch: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: false,
            origin: Instant::now(),
            epoch: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens the root span of epoch `epoch`; spans are recorded only when
    /// the run is traced and `traced` is set for this epoch.
    pub fn start_epoch(&mut self, epoch: u64, traced: bool) -> Open {
        self.epoch = epoch;
        self.recording = self.enabled && traced;
        self.begin("epoch")
    }

    pub fn end_epoch(&mut self, open: Open) {
        self.end(open);
        self.recording = false;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = if self.recording {
            let index = self.spans.len();
            self.spans.push(Span {
                name,
                start_ns: self.nanos(start),
                end_ns: 0,
                parent: self.stack.last().copied(),
                epoch: self.epoch,
            });
            self.stack.push(index);
            Some(index)
        } else {
            None
        };
        Open { index, start }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(index) = open.index {
            let end_ns = self.nanos(end);
            if let Some(span) = self.spans.get_mut(index) {
                span.end_ns = end_ns;
            }
            self.stack.pop();
        }
        end - open.start
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    fn nanos(&self, at: Instant) -> u64 {
        (at - self.origin).as_nanos() as u64
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Mean self time per traced epoch, ms, per span name: a span's
    /// duration minus the part its children cover.
    pub fn self_ms(&self, traced_epochs: usize) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(child) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(child_ns);
            *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        let epochs = traced_epochs.max(1) as f64;
        for value in out.values_mut() {
            *value /= epochs;
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent index, epoch.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
                span.name, span.start_ns, span.end_ns, span.epoch
            );
        }
        out
    }
}

/// Per-layer accumulators: sums and maxima of counts, and per-call samples
/// of timings and sizes.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_insert(v);
        *slot = slot.max(v);
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.samples.get(name).map_or(0.0, |xs| quantile(xs, q))
    }

    pub fn sample_count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}

/// How a per-layer metric is read off [`Layers`].
#[derive(Clone, Copy)]
pub enum Read {
    /// A sum, maximum or explicitly set value.
    Value,
    /// The median of the named samples.
    P50(&'static str),
    /// The 90th percentile of the named samples.
    P90(&'static str),
}

/// Every per-layer metric: name, unit, source. A layer a workload does not
/// exercise reports 0.
pub const PER_LAYER: &[(&str, &str, Read)] = &[
    ("epochs", "count", Read::Value),
    ("ingest.busy_ms", "ms", Read::P50("ingest.busy_ms")),
    ("ingest.updates", "count", Read::Value),
    ("ingest.rejected", "count", Read::Value),
    ("seal.busy_ms", "ms", Read::P50("seal.busy_ms")),
    ("seal.busy_p90_ms", "ms", Read::P90("seal.busy_ms")),
    ("seal.detect_ms", "ms", Read::P50("seal.detect_ms")),
    (
        "seal.characterize_ms",
        "ms",
        Read::P50("seal.characterize_ms"),
    ),
    ("seal.rest_ms", "ms", Read::P50("seal.rest_ms")),
    ("seal.verdicts", "count", Read::Value),
    ("seal.stragglers", "count", Read::Value),
    ("seal.components", "count", Read::Value),
    ("pool.sequential_ms", "ms", Read::P50("pool.sequential_ms")),
    ("pool.threaded_ms", "ms", Read::P50("pool.threaded_ms")),
    ("pool.speedup", "x", Read::Value),
    ("qos.grid_rebuilds", "count", Read::Value),
    ("qos.cells_rebucketed", "count", Read::Value),
    ("qos.characterized_epochs", "count", Read::Value),
    ("qos.churned_characterized_epochs", "count", Read::Value),
    ("core.maximal_motions", "count", Read::Value),
    ("core.dense_motions", "count", Read::Value),
    ("core.collections_tested", "count", Read::Value),
    ("core.window_moves", "count", Read::Value),
    ("core.rule.theorem5", "count", Read::Value),
    ("core.rule.theorem6", "count", Read::Value),
    ("core.rule.theorem7", "count", Read::Value),
    ("core.rule.corollary8", "count", Read::Value),
    ("core.rule.algorithm3", "count", Read::Value),
    ("core.table_us", "us", Read::P50("core.table_us")),
    ("core.precompute_us", "us", Read::P50("core.precompute_us")),
    ("core.partition_us", "us", Read::P50("core.partition_us")),
    ("core.decide_us", "us", Read::P50("core.decide_us")),
    ("core.dense_sets", "count", Read::Value),
    ("core.overflowed", "count", Read::Value),
    ("qos.grid_build_us", "us", Read::P50("qos.grid_build_us")),
    ("qos.neighbors_us", "us", Read::P50("qos.neighbors_us")),
    ("reference.epochs", "count", Read::Value),
    ("reference.mismatches", "count", Read::Value),
    ("reference.failed_epochs", "count", Read::Value),
    ("reference.skipped_epochs", "count", Read::Value),
    ("events.deltas", "count", Read::Value),
    ("events.open_max", "count", Read::Value),
    (
        "serve.sink_observe_us",
        "us",
        Read::P50("serve.sink_observe_us"),
    ),
    ("serve.sink_save_us", "us", Read::P50("serve.sink_save_us")),
    ("serve.actions", "count", Read::Value),
    ("serve.pages", "count", Read::Value),
    ("serve.suppressed", "count", Read::Value),
    (
        "persist.record_seal_us",
        "us",
        Read::P50("persist.record_seal_us"),
    ),
    ("persist.log_bytes", "bytes", Read::P50("persist.log_bytes")),
    (
        "persist.checkpoint_bytes",
        "bytes",
        Read::P50("persist.checkpoint_bytes"),
    ),
    (
        "persist.checkpoint_ms",
        "ms",
        Read::P50("persist.checkpoint_ms"),
    ),
    (
        "persist.monitor_checkpoint_ms",
        "ms",
        Read::P50("persist.monitor_checkpoint_ms"),
    ),
    (
        "persist.monitor_restore_ms",
        "ms",
        Read::P50("persist.monitor_restore_ms"),
    ),
    ("store.compact_ms", "ms", Read::P50("store.compact_ms")),
    (
        "store.compacted_bytes",
        "bytes",
        Read::P50("store.compacted_bytes"),
    ),
    ("serve.restore_ms", "ms", Read::P50("serve.restore_ms")),
    ("churn.leave_us", "us", Read::P50("churn.leave_us")),
    ("churn.join_us", "us", Read::P50("churn.join_us")),
    ("restart.epochs_compared", "count", Read::Value),
    ("restart.mismatches", "count", Read::Value),
    ("trace.spans", "count", Read::Value),
    ("trace.traced_epochs", "count", Read::Value),
    ("trace.overhead_ms", "ms", Read::Value),
    ("self.epoch_ms", "ms", Read::Value),
    ("self.ingest_ms", "ms", Read::Value),
    ("self.churn.leave_ms", "ms", Read::Value),
    ("self.churn.join_ms", "ms", Read::Value),
    ("self.seal_ms", "ms", Read::Value),
    ("self.serve.round_ms", "ms", Read::Value),
    ("self.persist.record_seal_ms", "ms", Read::Value),
    ("self.persist.checkpoint_into_ms", "ms", Read::Value),
    ("self.store.compact_ms", "ms", Read::Value),
    ("self.serve.restore_ms", "ms", Read::Value),
    ("self.serve.sink_observe_ms", "ms", Read::Value),
    ("self.serve.sink_save_ms", "ms", Read::Value),
    ("self.persist.monitor_checkpoint_ms", "ms", Read::Value),
    ("self.persist.monitor_restore_ms", "ms", Read::Value),
    ("self.pool.sequential_ms", "ms", Read::Value),
    ("self.pool.threaded_ms", "ms", Read::Value),
    ("self.reference_ms", "ms", Read::Value),
    ("self.core.table_ms", "ms", Read::Value),
    ("self.core.precompute_ms", "ms", Read::Value),
    ("self.core.partition_ms", "ms", Read::Value),
    ("self.core.decide_ms", "ms", Read::Value),
    ("self.qos.grid_build_ms", "ms", Read::Value),
    ("self.qos.neighbors_ms", "ms", Read::Value),
];

/// The end-to-end metrics `BENCHMARK.json` gates, every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("result_p50_ms", "ms"),
    ("epochs_per_s", "1/s"),
    ("setup_s", "s"),
    ("heap_peak_mb", "MB"),
];

/// An ordered list of named, unit-tagged numbers.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust prints; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// What one workload run hands back to `main`, filled in as it runs.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Broken invariants outside the per-epoch failure count; any entry
    /// makes the run incorrect.
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    /// Workload-specific end-to-end numbers (printed on the detail line).
    pub extra: Metrics,
    pub layers: Layers,
    /// Run facts for the provenance record: sizes, counts, engine.
    pub facts: Vec<(&'static str, String)>,
    pub tracer: Tracer,
    /// Per-epoch result latency and program time, ms, as JSON arrays.
    pub samples: String,
}

impl Outcome {
    pub fn new(trace: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            end_to_end: Metrics::default(),
            extra: Metrics::default(),
            layers: Layers::default(),
            facts: Vec::new(),
            tracer: Tracer::new(trace),
            samples: String::new(),
        }
    }

    pub fn fact(&mut self, name: &'static str, value: impl ToString) {
        self.facts.push((name, value.to_string()));
    }

    /// Records a broken invariant once per distinct message.
    pub fn problem(&mut self, message: String) {
        if !self.problems.contains(&message) {
            self.problems.push(message);
        }
    }

    /// Fills in the gated end-to-end metrics, the shared detail-line
    /// extras and the trace summary from the measured phase.
    ///
    /// Co-tenants on a shared machine change its speed per instruction by
    /// up to about 2×, over stretches from a fraction of a second to whole
    /// runs, so raw timings of the same work move far beyond any bound a
    /// gate can hold. Each epoch's timings are therefore scaled to the
    /// reference speed by the yardstick passes timed around it (see
    /// [`yardstick`]); `result_p50_ms` is the median scaled result latency,
    /// `epochs_per_s` the inverse of the median scaled program time per
    /// epoch, and `setup_s` the median scaled set-up time. Medians keep a
    /// rare stalled epoch (a seal of seconds) from swinging the number; the
    /// raw timings, the mean rate and the tails go on the detail line.
    ///
    /// `heap_growth` is the heap peak above the set-up baseline over the
    /// kept setup and the measured phase.
    pub fn finish(&mut self, clock: &Clock, setups: &Setups, heap_growth: usize, trace: bool) {
        let n = clock.epochs();
        self.samples = format!(
            "{{\"result_ms\":{:?},\"program_ms\":{:?},\"yardstick_ms\":{:?}}}",
            clock.results_ms, clock.program_ms, clock.yardstick_ms
        );
        self.attempted = n;
        self.failed = clock.failed();
        let local = yardstick::rolling(&clock.yardstick_ms);
        let scaled = |xs: &[f64]| -> Vec<f64> {
            xs.iter()
                .zip(&local)
                .map(|(&x, &y)| yardstick::scale(x, y))
                .collect()
        };
        let results = scaled(&clock.results_ms);
        let program = scaled(&clock.program_ms);
        let e2e = &mut self.end_to_end;
        e2e.put("result_p50_ms", quantile(&results, 0.5), "ms");
        e2e.put(
            "epochs_per_s",
            1e3 / quantile(&program, 0.5).max(f64::MIN_POSITIVE),
            "1/s",
        );
        e2e.put("setup_s", setups.scaled_p50(), "s");
        e2e.put(
            "heap_peak_mb",
            heap_growth as f64 / (1u64 << 20) as f64,
            "MB",
        );

        let program_s = clock.program_ms.iter().sum::<f64>() / 1e3;
        let yardstick_ms = quantile(&clock.yardstick_ms, 0.5);
        self.extra
            .put("result_p90_ms", quantile(&results, 0.9), "ms");
        if beyond(n, 0.99) >= 10 {
            self.extra
                .put("result_p99_ms", quantile(&results, 0.99), "ms");
        }
        self.extra
            .put("raw_result_p50_ms", quantile(&clock.results_ms, 0.5), "ms");
        self.extra
            .put("raw_result_p90_ms", quantile(&clock.results_ms, 0.9), "ms");
        self.extra.put(
            "raw_epochs_per_s",
            n as f64 / program_s.max(f64::MIN_POSITIVE),
            "1/s",
        );
        self.extra
            .put("raw_setup_s", quantile(&setups.seconds, 0.5), "s");
        self.extra.put("yardstick_ms", yardstick_ms, "ms");
        self.extra.put(
            "speed",
            yardstick::REFERENCE_MS / yardstick_ms.max(f64::MIN_POSITIVE),
            "x",
        );
        self.fact("epochs", n);
        self.fact("result_p90_beyond", beyond(n, 0.9));
        self.fact("result_p99_beyond", beyond(n, 0.99));
        self.fact("program_s", num(program_s));
        self.fact("yardstick_reference_ms", num(yardstick::REFERENCE_MS));
        self.fact("yardstick_window_epochs", 2 * yardstick::WINDOW + 1);
        self.fact("setup_samples_s", format!("{:?}", setups.seconds));
        self.fact("setup_yardstick_ms", format!("{:?}", setups.yardstick_ms));
        self.fact("wall_capped", clock.wall_capped);

        self.layers.set("epochs", n as f64);
        let threaded_ms = self.layers.quantile("pool.threaded_ms", 0.5);
        if threaded_ms > 0.0 {
            let sequential_ms = self.layers.quantile("pool.sequential_ms", 0.5);
            self.layers.set("pool.speedup", sequential_ms / threaded_ms);
            self.fact(
                "pool_speedup_base",
                "pool.sequential_ms p50 over pool.threaded_ms p50, same epochs",
            );
        }
        if trace {
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for (&r, &t) in clock.results_ms.iter().zip(&clock.traced) {
                if t {
                    on.push(r);
                } else {
                    off.push(r);
                }
            }
            self.layers
                .set("trace.spans", self.tracer.span_count() as f64);
            self.layers.set("trace.traced_epochs", on.len() as f64);
            self.layers.set(
                "trace.overhead_ms",
                quantile(&on, 0.5) - quantile(&off, 0.5),
            );
            self.fact("traced_epochs", on.len());
            self.fact("untraced_epochs", off.len());
            for (name, value) in self.tracer.self_ms(on.len()) {
                let key = format!("self.{name}_ms");
                if let Some(&(key, _, _)) = PER_LAYER.iter().find(|m| m.0 == key) {
                    self.layers.set(key, value);
                }
            }
        }
    }
}

/// Times the workload's setup [`SETUPS`] times and keeps the last state.
/// `prepare` makes each setup's inputs, untimed; the heap peak window opens
/// after the earlier states are dropped and the kept setup's inputs exist,
/// just before the kept setup builds its monitor. Yardstick passes are
/// timed before and after each setup, untimed.
pub fn timed_setups<P, S>(
    cfg: &Config,
    mut prepare: impl FnMut() -> P,
    mut setup: impl FnMut(P) -> S,
) -> (S, Setups, usize) {
    let mut times = Setups::default();
    let mut baseline = 0;
    let mut kept: Option<S> = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let inputs = prepare();
        let before = yardstick::median_of(yardstick::SETUP_PASSES);
        if i + 1 == SETUPS {
            baseline = alloc::reset_peak();
        }
        let start = Instant::now();
        let state = setup(inputs);
        times.seconds.push(start.elapsed().as_secs_f64());
        let after = yardstick::median_of(yardstick::SETUP_PASSES);
        times.yardstick_ms.push((before + after) / 2.0);
        kept = Some(state);
    }
    cfg.beat(Beat::Setups(times.clone(), baseline));
    match kept {
        Some(state) => (state, times, baseline),
        None => unreachable!("SETUPS is positive"),
    }
}

/// The per-layer metrics in [`PER_LAYER`] order.
pub fn per_layer(layers: &Layers) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit, read) in PER_LAYER {
        let value = match read {
            Read::Value => layers.value(name),
            Read::P50(key) => layers.quantile(key, 0.5),
            Read::P90(key) => layers.quantile(key, 0.9),
        };
        out.put(name, value, unit);
    }
    out
}

/// What the watchdog in `main` has heard from a run.
#[derive(Default)]
pub struct Partial {
    setups: Setups,
    baseline: usize,
    epochs: Vec<Sample>,
}

impl Partial {
    /// Takes in one beat; returns the outcome once the run is done.
    pub fn hear(&mut self, beat: Beat) -> Option<Outcome> {
        match beat {
            Beat::Setups(times, baseline) => {
                self.setups = times;
                self.baseline = baseline;
            }
            Beat::Epoch(sample) => self.epochs.push(sample),
            Beat::Done(outcome) => return Some(*outcome),
        }
        None
    }

    /// The outcome of a run stopped at its deadline inside an epoch that
    /// never returned: the completed epochs are measured as usual, and the
    /// stalled one counts as attempted and failed. Per-layer numbers of a
    /// traced run are lost with the stalled thread.
    pub fn stalled(self, trace: bool) -> Outcome {
        let clock = Clock::replayed(&self.epochs);
        let mut out = Outcome::new(false);
        out.fact("stalled_in_epoch", self.epochs.len());
        let heap_growth = alloc::peak().saturating_sub(self.baseline);
        out.finish(&clock, &self.setups, heap_growth, trace);
        out.attempted += 1;
        out.failed += 1;
        out
    }
}
