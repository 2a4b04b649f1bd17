//! `flixbench` — the end-to-end and per-layer benchmark of the FliX
//! reproduction.
//!
//! ```text
//! flixbench --workload <dblp-hopi|serve-proximity|ingest-recover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One workload runs per process. Its inputs come from the seed; every
//! answer is checked against the benchmark's own BFS oracle outside every
//! timed interval. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, the same set on every workload; `--trace 1` traces
//! one timed pass, probes the layers the workload's own operations leave
//! idle and reports the per-layer metrics instead. See README.md in this
//! directory.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod corpus;
mod hopi;
mod ingest;
mod oracle;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time per run: timed passes repeat until it is spent.
    pub seconds: u64,
    /// Traced (per-layer) run instead of an end-to-end run.
    pub trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            workload,
            seed,
            seconds: seconds.max(1),
            trace,
        })
    }

    /// The measurement budget.
    pub fn budget(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

const WORKLOADS: [&str; 3] = ["dblp-hopi", "serve-proximity", "ingest-recover"];

/// The result of one run: operation counts, check outcome and metrics.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self) {
        self.failed += 1;
    }

    /// Records a wrong answer: the run is then not correct.
    pub fn wrong(&mut self, what: impl std::fmt::Display, err: impl std::fmt::Display) {
        if self.errors.len() < 20 {
            eprintln!("WRONG {what}: {err}");
        }
        self.errors.push(format!("{what}: {err}"));
    }

    /// Checks a `Result` from the oracle, recording an error.
    pub fn check(&mut self, what: impl std::fmt::Display, r: Result<(), String>) {
        if let Err(e) = r {
            self.wrong(what, e);
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Times `f` in nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Writes the traced run's spans under `.flixbench/` in the working
/// directory.
pub fn write_trace(args: &Args, tracer: &trace::Tracer) {
    let dir = std::path::Path::new(".flixbench");
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Prints the tracing-overhead line: the traced pass against the median
/// of the untraced timed passes of the same process.
pub fn overhead_line(traced_ns: u64, untraced_ns: &mut [f64]) {
    let untraced = stats::median(untraced_ns);
    let traced = traced_ns as f64;
    println!(
        "tracing overhead: {:+.1}% (traced pass {:.1} ms, median untraced pass {:.1} ms)",
        100.0 * (traced - untraced) / untraced,
        traced / 1e6,
        untraced / 1e6
    );
}

/// Reports each layer's self time in ms over the traced pass and the
/// layer probes.
pub fn self_times(rep: &mut Report, tr: &trace::Tracer) {
    let by_layer = tr.self_time_by_layer();
    for (name, layer) in [
        ("self.bench_ms", "bench"),
        ("self.pee_ms", "pee"),
        ("self.serve_ms", "serve"),
        ("self.cache_ms", "cache"),
        ("self.xmlgraph_ms", "xmlgraph"),
        ("self.flix_ms", "flix"),
        ("self.persist_ms", "persist"),
        ("self.pagestore_ms", "pagestore"),
    ] {
        rep.metric(
            name,
            by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6,
            "ms",
        );
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flixbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "dblp-hopi" => hopi::run(&args),
        "serve-proximity" => serve::run(&args),
        _ => ingest::run(&args),
    };
    if !report.errors.is_empty() {
        eprintln!("{} wrong answers", report.errors.len());
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
