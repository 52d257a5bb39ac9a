//! The repository benchmark: three workloads that each load a different
//! layer of the simulator, an untraced run for the end-to-end metrics and a
//! separately traced run for the per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//! `disk_stream_single`, `grid_stream_multi_lossy`, `corridor_sweep_serve`.
//! `--workload all` runs every workload, untraced and traced, each in a
//! child process of its own (so peak RSS stays per workload).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Lines before it are a human-readable report.

mod layers;
mod workloads;

use mini_json::Json;
use std::process::{Command, ExitCode};

/// End-to-end metrics (untraced run), with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("sim_rounds_per_s", "1/s"),
    ("setup_s", "s"),
    ("rounds.p50", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run), with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.calls", "count"),
    ("graph.entries", "count"),
    ("graph.self_s", "s"),
    ("graph.share", "ratio"),
    ("graph.ns_per_entry", "ns"),
    ("engine.resolve_s", "s"),
    ("engine.share", "ratio"),
    ("engine.entries_per_tx", "ratio"),
    ("engine.transmissions", "count"),
    ("engine.deliveries", "count"),
    ("engine.collisions", "count"),
    ("engine.erased", "count"),
    ("engine.idle_fastforward", "count"),
    ("engine.act_calls", "count"),
    ("engine.observe_calls", "count"),
    ("engine.act_skip_ratio", "ratio"),
    ("core.rest_s", "s"),
    ("core.share", "ratio"),
    ("core.phase.wave", "rounds"),
    ("core.phase.construct", "rounds"),
    ("core.phase.label", "rounds"),
    ("core.phase.disseminate", "rounds"),
    ("core.phase.handoff", "rounds"),
    ("core.phase.repair", "rounds"),
    ("core.phase.fallback", "rounds"),
    ("core.phase.status", "rounds"),
    ("core.ring_repairs", "count"),
    ("core.regional_repairs", "count"),
    ("core.fallback_rounds", "rounds"),
    ("core.retries", "count"),
    ("core.peak_state_mb", "MB"),
    ("sweep.job_ms.p50", "ms"),
    ("sweep.job_ms.p99", "ms"),
    ("sweep.busy_fraction", "ratio"),
    ("sweep.sched_s", "s"),
    ("sweep.tail_s", "s"),
    ("sweep.imbalance", "ratio"),
    ("sweep.lines_out", "count"),
    ("sweep.bytes_out", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.call_ns", "ns"),
];

/// Command-line options.
#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: None, seconds: 30, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(number()?),
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Metric values in the order of one of the tables above.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty set over `table`.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics { table, values: vec![None; table.len()] }
    }

    /// Sets `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the table (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.values[i] = Some(value);
    }

    /// Name, value and unit of every metric.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was never set (a benchmark bug).
    fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                (*name, v.unwrap_or_else(|| panic!("metric {name} unset")), *unit)
            })
            .collect()
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Report {
    /// Jobs (simulation runs) attempted.
    pub attempted: u64,
    /// Jobs that failed to complete within cap or failed a check.
    pub failed: u64,
    /// Every failed check, as a sentence.
    pub problems: Vec<String>,
    /// The metrics.
    pub metrics: Metrics,
    /// Figures printed in the human-readable report only.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Span aggregates of a traced run, written to the trace file.
    pub spans: Option<Json>,
}

impl Report {
    /// A report over `table` with nothing recorded yet.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Report {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Metrics::new(table),
            extra: Vec::new(),
            spans: None,
        }
    }

    /// Counts one job, failed if `problems` is non-empty.
    pub fn job(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.extend(problems);
        }
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> (String, Json) {
    (
        name.to_string(),
        Json::Obj(vec![("value".into(), Json::Num(value)), ("unit".into(), Json::from(unit))]),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::from(attempted)),
        ("failed".into(), Json::from(failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

fn run_one(args: &Args) -> Result<(), String> {
    let workload = workloads::Workload::from_name(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let seed = args.seed.unwrap_or(workload.default_seed());
    let report = if args.trace {
        workload.run_traced(seed, args.seconds)
    } else {
        workload.run_untraced(seed, args.seconds)
    };
    let rows = report.metrics.rows();
    println!("# {} seed {seed} trace {}", args.workload, u8::from(args.trace));
    for (name, value, unit) in rows.iter().chain(&report.extra) {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<26} {failed_share:>16.6} ratio ({} of {} jobs)",
        "failed_share", report.failed, report.attempted
    );
    for problem in &report.problems {
        println!("CHECK FAILED: {problem}");
    }
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{seed}.json", args.workload));
        // The spans are a by-product: failing to write them loses no metric.
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, format!("{spans}\n")))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let metrics = rows.iter().map(|(n, v, u)| metric_json(n, *v, u)).collect();
    println!("{}", result_line(correct, report.attempted, report.failed, metrics));
    Ok(())
}

/// `--workload all`: every workload, untraced then traced, each in its own
/// child process; the child reports pass through and one combined result
/// line (metrics prefixed `<workload>/`) closes the output.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in workloads::Workload::NAMES {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "--workload",
                name,
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                trace,
            ]);
            if let Some(seed) = args.seed {
                cmd.args(["--seed", &seed.to_string()]);
            }
            let out = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let last = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(last).map_err(|e| {
                format!("{name} (trace {trace}) printed no result ({e}); exit {}", out.status)
            })?;
            for line in stdout.lines().take(stdout.lines().count() - 1) {
                println!("{line}");
            }
            correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
            failed += result.get("failed").and_then(Json::as_u64).unwrap_or(0);
            if let Some(Json::Obj(pairs)) = result.get("metrics") {
                metrics.extend(pairs.iter().map(|(k, v)| (format!("{name}/{k}"), v.clone())));
            }
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    Ok(())
}

fn main() -> ExitCode {
    let outcome =
        parse_args().and_then(
            |args| {
                if args.workload == "all" {
                    run_all(&args)
                } else {
                    run_one(&args)
                }
            },
        );
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
