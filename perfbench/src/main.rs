//! The monitor's benchmark: one single-threaded, closed-loop client drives
//! the public API through a named, seeded workload, checks its outputs, and
//! prints one detail line and then one result line as JSON.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--commit <id>] [--source <hash>] [--out-dir <dir>]
//! perfbench --list-metrics
//! ```
//!
//! With `--trace 0` the result line carries the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics, and the spans are written
//! to `<out-dir>/trace-<workload>-seed<n>.jsonl`. Normally run through
//! `run.py`, which builds this package first.

#![forbid(unsafe_op_in_unsafe_fn)]
#![deny(warnings)]

mod alloc;
mod fleet;
mod harness;
mod isp;
mod reference;
mod report;
mod steady;
mod yardstick;

use harness::{num, per_layer, Beat, Config, Outcome, Partial, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// How long a run may take before the watchdog reports what completed. A
/// seal can take minutes (fleet-mixed, when Theorem 7's collection search
/// runs into its budget for many devices), and a run must end within three.
const DEADLINE: Duration = Duration::from_secs(150);

/// Workload names, as `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["steady-cluster-50k", "fleet-mixed-100k", "isp-serve-4k"];

struct Args {
    workload: String,
    config: Config,
    commit: String,
    source: String,
    out_dir: Option<String>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let (mut commit, mut source, mut out_dir) =
        ("unknown".to_string(), "unknown".to_string(), None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--commit" => commit = value,
            "--source" => source = value,
            "--out-dir" => out_dir = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        config: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            beats: None,
        },
        commit,
        source,
        out_dir,
    })
}

/// The metric lists `BENCHMARK.json` is written from.
fn list_metrics() -> String {
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit)| format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"}}"))
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, _)| format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"workloads\":{WORKLOADS:?},\"end_to_end\":[{}],\"per_layer\":[{}]}}",
        e2e.join(","),
        layers.join(",")
    )
}

fn quote(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// The detail line: provenance, checks, and the end-to-end numbers that
/// apply to this workload only.
fn detail(args: &Args, outcome: &Outcome) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut facts = vec![
        ("commit".to_string(), quote(&args.commit)),
        ("source_sha256".to_string(), quote(&args.source)),
        ("available_parallelism".to_string(), parallelism.to_string()),
        ("seed".to_string(), args.config.seed.to_string()),
        ("trace".to_string(), args.config.trace.to_string()),
        ("seconds".to_string(), num(args.config.seconds)),
    ];
    facts.extend(outcome.facts.iter().map(|(k, v)| (k.to_string(), quote(v))));
    let facts: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}:{v}", quote(k)))
        .collect();
    let problems: Vec<String> = outcome.problems.iter().map(|p| quote(p)).collect();
    format!(
        "{{\"workload\":{},\"provenance\":{{{}}},\"problems\":[{}],\"end_to_end\":{},\"workload_metrics\":{}}}",
        quote(&args.workload),
        facts.join(","),
        problems.join(","),
        outcome.end_to_end.to_json(),
        outcome.extra.to_json(),
    )
}

/// Runs the workload on its own thread and listens to its progress until
/// it finishes or [`DEADLINE`] passes; then reports what completed, and the
/// stalled thread ends with the process.
fn watched(args: &Args, started: Instant) -> Result<Outcome, String> {
    let (tx, rx) = mpsc::channel();
    let mut config = args.config.clone();
    config.beats = Some(tx.clone());
    let workload = args.workload.clone();
    let worker = std::thread::Builder::new()
        .name("workload".to_string())
        .stack_size(64 << 20)
        .spawn(move || {
            let outcome = match workload.as_str() {
                "steady-cluster-50k" => steady::run(&config),
                "fleet-mixed-100k" => fleet::run(&config),
                _ => isp::run(&config),
            };
            let _ = tx.send(Beat::Done(Box::new(outcome)));
        })
        .map_err(|e| format!("spawn the workload: {e}"))?;
    let mut partial = Partial::default();
    loop {
        match rx.recv_timeout(DEADLINE.saturating_sub(started.elapsed())) {
            Ok(beat) => {
                if let Some(outcome) = partial.hear(beat) {
                    worker.join().map_err(|_| "the workload panicked")?;
                    return Ok(outcome);
                }
            }
            Err(RecvTimeoutError::Timeout) => return Ok(partial.stalled(args.config.trace)),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(match worker.join() {
                    Err(_) => "the workload panicked".to_string(),
                    Ok(()) => "the workload ended without a result".to_string(),
                })
            }
        }
    }
}

fn run(args: &Args, started: Instant) -> Result<(), String> {
    let mut outcome = watched(args, started)?;
    let error_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.extra.put("error_ratio", error_ratio, "ratio");
    let metrics = if args.config.trace {
        per_layer(&outcome.layers)
    } else {
        let mut e2e = harness::Metrics::default();
        for (name, unit) in END_TO_END {
            let value = outcome.end_to_end.get(name).unwrap_or(0.0);
            e2e.put(*name, value, unit);
        }
        e2e
    };
    let detail = detail(args, &outcome);
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.problems.is_empty() && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.to_json()
    );
    if let Some(dir) = &args.out_dir {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload,
            args.config.seed,
            u8::from(args.config.trace)
        );
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        std::fs::write(
            format!("{dir}/result-{stem}.json"),
            format!("{detail}\n{result}\n"),
        )
        .map_err(|e| format!("write result: {e}"))?;
        std::fs::write(format!("{dir}/epochs-{stem}.json"), &outcome.samples)
            .map_err(|e| format!("write samples: {e}"))?;
        if args.config.trace {
            let path = format!(
                "{dir}/trace-{}-seed{}.jsonl",
                args.workload, args.config.seed
            );
            std::fs::write(&path, outcome.tracer.to_jsonl())
                .map_err(|e| format!("write {path}: {e}"))?;
        }
    }
    println!("{detail}");
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list-metrics") {
        println!("{}", list_metrics());
        return ExitCode::SUCCESS;
    }
    let outcome = parse(&argv).and_then(|args| run(&args, started));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
