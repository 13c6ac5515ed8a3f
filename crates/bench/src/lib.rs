//! Reproduction harness: one function (and one binary) per table and figure
//! of the paper's evaluation section, plus Criterion micro-benchmarks.
//!
//! Every experiment prints the same rows/series the paper reports, next to
//! the paper's published values where applicable. Run them all with
//!
//! ```text
//! cargo run -p anomaly-bench --bin all
//! ```
//!
//! or individually (`fig6a`, `fig6b`, `table2` — Tables II and III share
//! its runs — `fig7`, `fig8`, `fig9`, `baselines`, `granularity`,
//! `adversary`). The `REPRO_STEPS` environment variable scales the
//! Monte-Carlo effort (default 20 steps per grid point; the paper averaged
//! ~10 000 settings — raise it when you have the time). `all`'s output at
//! the default effort is committed as `BENCH_paper.txt`, and CI checks a
//! fresh run against it byte for byte.

#![forbid(unsafe_code)]
#![deny(warnings)]
#![warn(missing_docs)]

pub mod experiments;

/// Number of simulated steps per configuration, from `REPRO_STEPS`
/// (default 20, minimum 1).
pub fn repro_steps() -> u64 {
    std::env::var("REPRO_STEPS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .map(|v| v.max(1))
        .unwrap_or(20)
}

/// Where a committed bench result came from: the commit the binary ran in
/// (`git describe --always --dirty`, or `unknown` outside a checkout) and
/// the CPU count the OS reports.
pub fn provenance() -> (String, usize) {
    let describe = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output();
    let commit = match describe {
        Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    };
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    (commit, parallelism)
}

#[cfg(test)]
mod tests {
    #[test]
    fn repro_steps_has_a_sane_default() {
        // The env var is not set under `cargo test`.
        if std::env::var("REPRO_STEPS").is_err() {
            assert_eq!(super::repro_steps(), 20);
        }
    }
}
