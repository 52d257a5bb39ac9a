//! The three workloads, their untraced (end-to-end) and traced (per-layer)
//! runs, and the output checks applied to every job.
//!
//! Each job is one closed-loop simulation run: the next starts only after
//! the previous one finished. The simulation is deterministic per seed, so
//! every check below compares exact values.

use crate::layers::{GraphRecord, JobClock, JobSpan, Spans, TimerBias, TracedTopology};
use crate::{Report, END_TO_END, PER_LAYER};
use broadcast::multi_message::broadcast_unknown_on;
use broadcast::single_message::broadcast_single_on;
use broadcast::{
    BatchMode, MultiRunOpts, Outcome, Pacing, Params, Phases, Scenario, SeedMatrix, TopologySpec,
};
use mini_json::Json;
use radio_sim::{CollisionMode, FaultPlan, NodeId, RunStats, Topology};
use rlnc::gf2::BitVec;
use std::any::Any;
use std::hint::black_box;
use std::io::{Cursor, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use sweep::protocol::{parse_request, Request};
use sweep::{SweepPool, SweepProduct};

/// `disk_stream_single`: nodes of the streamed unit disk.
const DISK_N: usize = 10_000;
/// Its payload.
const DISK_PAYLOAD: u64 = 0xFEED;
/// Completion rounds of the default panel (seeds 1, 2, 3).
const DISK_PINS: [u64; 3] = [10_708, 13_452, 9_609];
/// `grid_stream_multi_lossy`: side of the streamed grid.
const GRID_SIDE: usize = 80;
/// Its ring-handoff FEC repair knob.
const GRID_FEC: u32 = 2;
/// Completion rounds of the default panel (seeds 3, 4, 5).
const GRID_PINS: [u64; 3] = [185_084, 172_916, 186_507];
/// `corridor_sweep_serve`: seeds per sweep request.
const SWEEP_SEEDS: u64 = 4096;
/// Its payload.
const SWEEP_PAYLOAD: u64 = 65_261;
/// Pool workers (the box has two cores).
const SWEEP_WORKERS: usize = 2;
/// Best, median and worst completion rounds of the default sweep
/// (seed_range 0..4096).
const SWEEP_PINS: [u64; 3] = [582, 791, 1_704];
/// Sweep jobs replayed serially through a traced topology for the graph
/// and engine timings of the sweep workload.
const REPLAY_JOBS: usize = 256;
/// Per-layer metrics of the sweep layer, zero on the workloads that do not
/// run a sweep.
const SWEEP_ONLY: [&str; 8] = [
    "sweep.job_ms.p50",
    "sweep.job_ms.p99",
    "sweep.busy_fraction",
    "sweep.sched_s",
    "sweep.tail_s",
    "sweep.imbalance",
    "sweep.lines_out",
    "sweep.bytes_out",
];
/// Minimum wall time spent repeating the set-up measurement.
const SETUP_BUDGET: Duration = Duration::from_millis(250);

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 1.1 on a streamed 10k-node unit disk.
    DiskStreamSingle,
    /// Theorem 1.3 with erasure on a streamed 80×80 grid.
    GridStreamMultiLossy,
    /// One 4096-seed sweep request through the line-JSON server.
    CorridorSweepServe,
}

impl Workload {
    /// Every workload name, in run order.
    pub const NAMES: [&'static str; 3] =
        ["disk_stream_single", "grid_stream_multi_lossy", "corridor_sweep_serve"];

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "disk_stream_single" => Some(Workload::DiskStreamSingle),
            "grid_stream_multi_lossy" => Some(Workload::GridStreamMultiLossy),
            "corridor_sweep_serve" => Some(Workload::CorridorSweepServe),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DiskStreamSingle => Self::NAMES[0],
            Workload::GridStreamMultiLossy => Self::NAMES[1],
            Workload::CorridorSweepServe => Self::NAMES[2],
        }
    }

    /// The seed whose outputs are pinned.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::DiskStreamSingle => 1,
            Workload::GridStreamMultiLossy => 3,
            Workload::CorridorSweepServe => 0,
        }
    }

    /// Untraced run: the end-to-end metrics.
    pub fn run_untraced(self, seed: u64, seconds: u64) -> Report {
        match self {
            Workload::CorridorSweepServe => Sweep::new(seed).untraced(seconds),
            _ => Panel::new(self, seed).untraced(seconds),
        }
    }

    /// Traced run: the per-layer metrics.
    pub fn run_traced(self, seed: u64, seconds: u64) -> Report {
        match self {
            Workload::CorridorSweepServe => Sweep::new(seed).traced(seconds),
            _ => Panel::new(self, seed).traced(seconds),
        }
    }
}

fn disk_params() -> Params {
    // The leaned recruiting of the million-node run: 2·log n iterations.
    let mut params = Params::scaled(DISK_N);
    params.recruit_iterations = 2 * params.log_n;
    params
}

fn grid_messages() -> Vec<BitVec> {
    (0..8u64).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect()
}

fn grid_faults() -> FaultPlan {
    FaultPlan::none().with_erasure(0.05)
}

/// Median of `xs` (mean of the middle pair for even lengths; 0 if empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank `q`-quantile of `xs`, the rule `SeedMatrix` uses (0 if
/// empty).
fn nearest_rank<T: Copy + Ord + Default>(xs: &[T], q: f64) -> T {
    let mut v = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return T::default();
    }
    v[(q * (v.len() - 1) as f64).round() as usize]
}

fn panic_text(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs `job`, turning a panic into a failed-check sentence.
fn guarded<R>(what: &str, job: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|p| format!("{what} panicked: {}", panic_text(&*p)))
}

/// Median time of `build`, repeated until [`SETUP_BUDGET`] is spent (at
/// least 11 times). Runs before any job, so every workload times its
/// set-up in the same fresh process state.
fn setup_median<R>(mut build: impl FnMut() -> R) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 11 || start.elapsed() < SETUP_BUDGET {
        let t = Instant::now();
        let built = black_box(build());
        samples.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    median(&samples)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb * 1024.0 / 1e6)
}

fn set_peak_rss(report: &mut Report) {
    match peak_rss_mb() {
        Ok(mb) => report.metrics.set("peak_rss_mb", mb),
        Err(e) => {
            report.metrics.set("peak_rss_mb", 0.0);
            report.problems.push(e);
        }
    }
}

/// Checks every outcome must pass: completion within the plan's cap and
/// the per-phase accounting summing to the executed rounds.
fn outcome_problems(
    what: &str,
    completion: Option<u64>,
    cap: u64,
    phases: &Phases,
    stats: &RunStats,
) -> Vec<String> {
    let mut problems = Vec::new();
    if completion.is_none_or(|r| r > cap) {
        problems.push(format!("{what}: completion {completion:?} not within cap {cap}"));
    }
    if phases.total() != stats.rounds {
        problems.push(format!(
            "{what}: phases total {} != rounds {}",
            phases.total(),
            stats.rounds
        ));
    }
    problems
}

/// A run of a generic pipeline entry point over a [`TracedTopology`].
struct TracedRun {
    run: Duration,
    completion: Option<u64>,
    stats: RunStats,
    phases: Phases,
    peak_state: usize,
    nodes: usize,
    record: Rc<GraphRecord>,
}

impl TracedRun {
    /// The traced-equals-untraced checks: the same completion round, run
    /// statistics and phases as the facade run of the same seed, and one
    /// neighborhood query per transmission plus one per node (the BFS).
    fn problems(&self, what: &str, facade: (Option<u64>, &RunStats, &Phases)) -> Vec<String> {
        let mut problems = Vec::new();
        if self.completion != facade.0 {
            problems.push(format!(
                "{what}: traced completion {:?} != untraced {:?}",
                self.completion, facade.0
            ));
        }
        if &self.stats != facade.1 {
            problems.push(format!("{what}: traced run stats differ from untraced"));
        }
        if &self.phases != facade.2 {
            problems.push(format!("{what}: traced phases differ from untraced"));
        }
        let expected = self.stats.transmissions + self.nodes as u64;
        if self.record.calls() != expected {
            problems.push(format!(
                "{what}: graph.calls {} != transmissions + n = {expected}",
                self.record.calls()
            ));
        }
        problems
    }
}

/// Sets the engine and core counters of `stats`/`phases`; `node_rounds` is
/// Σ n × rounds over the runs summed into them.
fn set_counters(report: &mut Report, stats: &RunStats, phases: &Phases, node_rounds: u64) {
    let m = &mut report.metrics;
    m.set("engine.transmissions", stats.transmissions as f64);
    m.set("engine.deliveries", stats.deliveries as f64);
    m.set("engine.collisions", stats.collisions as f64);
    m.set("engine.erased", stats.erased as f64);
    m.set("engine.idle_fastforward", stats.idle_fastforward as f64);
    m.set("engine.act_calls", node_rounds.saturating_sub(stats.act_skips) as f64);
    m.set("engine.observe_calls", node_rounds.saturating_sub(stats.observe_skips) as f64);
    m.set("engine.act_skip_ratio", stats.act_skips as f64 / node_rounds.max(1) as f64);
    let Phases { wave, construct, label, disseminate, handoff, repair, fallback, status } = *phases;
    for (name, rounds) in [
        ("core.phase.wave", wave),
        ("core.phase.construct", construct),
        ("core.phase.label", label),
        ("core.phase.disseminate", disseminate),
        ("core.phase.handoff", handoff),
        ("core.phase.repair", repair),
        ("core.phase.fallback", fallback),
        ("core.phase.status", status),
    ] {
        m.set(name, rounds as f64);
    }
    m.set("core.ring_repairs", stats.ring_repairs as f64);
    m.set("core.regional_repairs", stats.regional_repairs as f64);
    m.set("core.fallback_rounds", stats.fallback_rounds as f64);
    m.set("core.retries", stats.retries as f64);
}

/// The time split of a traced interval of `wall` seconds over `calls`
/// neighborhood queries returning `entries` entries: graph self time,
/// engine callback time and the rest (core: act, observe, wake, drivers,
/// RLNC). The wrapper's calibrated per-call cost is taken off each reading
/// and off the wall, so the three shares split the time the program itself
/// spent.
struct TimeSplit {
    wall: f64,
    graph: f64,
    callback: f64,
    calls: u64,
    entries: u64,
}

impl TimeSplit {
    fn set(&self, report: &mut Report) {
        let bias = TimerBias::measure();
        let calls = self.calls as f64 * 1e-9;
        let graph = (self.graph - calls * bias.graph).max(0.0);
        let callback = (self.callback - calls * bias.callback).max(0.0);
        let wall = self.wall - calls * bias.call;
        let rest = wall - graph - callback;
        let m = &mut report.metrics;
        m.set("graph.self_s", graph);
        m.set("graph.share", graph / wall);
        m.set("graph.ns_per_entry", graph * 1e9 / self.entries.max(1) as f64);
        m.set("engine.resolve_s", callback);
        m.set("engine.share", callback / wall);
        m.set("core.rest_s", rest);
        m.set("core.share", rest / wall);
        m.set("trace.call_ns", bias.call);
    }
}

/// A workload of single pipeline runs over a fixed panel of consecutive
/// seeds starting at the workload seed.
struct Panel {
    kind: Workload,
    scenario: Scenario,
    seeds: Vec<u64>,
    /// Pinned completion rounds, per panel seed, at the default seed.
    pins: Option<&'static [u64]>,
}

impl Panel {
    fn new(kind: Workload, seed: u64) -> Self {
        let default = seed == kind.default_seed();
        let (scenario, pins): (Scenario, &'static [u64]) = match kind {
            Workload::DiskStreamSingle => (
                Scenario::new(
                    TopologySpec::StreamedUnitDisk { n: DISK_N, radius: 0.12, graph_seed: 2026 },
                    broadcast::Workload::Single { payload: DISK_PAYLOAD },
                )
                .params(disk_params()),
                &DISK_PINS,
            ),
            Workload::GridStreamMultiLossy => (
                Scenario::new(
                    TopologySpec::StreamedGrid { w: GRID_SIDE, h: GRID_SIDE },
                    broadcast::Workload::MultiUnknown {
                        messages: grid_messages(),
                        batch: BatchMode::Generations(4),
                    },
                )
                .faults(grid_faults())
                .fec_repair(GRID_FEC),
                &GRID_PINS,
            ),
            Workload::CorridorSweepServe => unreachable!("the sweep workload is not a panel"),
        };
        let seeds = (0..pins.len() as u64).map(|i| seed.wrapping_add(i)).collect();
        Panel { kind, scenario, seeds, pins: default.then_some(pins) }
    }

    fn what(&self, seed: u64) -> String {
        format!("{} seed {seed}", self.kind.name())
    }

    /// One untraced facade run on a freshly built topology, as
    /// `Scenario::run()` does it; the build is `setup_s`, so only the run is
    /// timed.
    fn facade_job(&self, seed: u64) -> Result<(Duration, Outcome), String> {
        guarded(&self.what(seed), || {
            let prepared = self.scenario.prepare();
            let t = Instant::now();
            let out = self.scenario.run_seed(&prepared, seed);
            (t.elapsed(), out)
        })
    }

    fn facade_problems(&self, index: usize, seed: u64, out: &Outcome) -> Vec<String> {
        let what = self.what(seed);
        let mut problems =
            outcome_problems(&what, out.completion_round, out.cap, &out.phases, &out.stats);
        if let Some(pins) = self.pins {
            if out.completion_round != Some(pins[index]) {
                problems.push(format!(
                    "{what}: completion {:?} != pinned {}",
                    out.completion_round, pins[index]
                ));
            }
        }
        problems
    }

    /// The same job through the generic entry point the facade dispatches
    /// to, with the exact arguments `Scenario::run_seed_on` passes, over a
    /// traced topology.
    fn traced_job(&self, seed: u64) -> Result<TracedRun, String> {
        let topology = self.scenario.topology().streamed().expect("panel topologies are streamed");
        let nodes = topology.node_count();
        let (topology, record) = TracedTopology::new(topology);
        guarded(&self.what(seed), || match self.kind {
            Workload::DiskStreamSingle => {
                let params = disk_params();
                let t = Instant::now();
                let out = broadcast_single_on(
                    topology,
                    NodeId::new(0),
                    DISK_PAYLOAD,
                    &params,
                    seed,
                    CollisionMode::Detection,
                    Pacing::Segment,
                    &FaultPlan::none(),
                );
                TracedRun {
                    run: t.elapsed(),
                    completion: out.completion_round,
                    stats: out.stats,
                    phases: out.phases.into(),
                    peak_state: out.peak_state_bytes,
                    nodes,
                    record: Rc::clone(&record),
                }
            }
            _ => {
                let (params, messages, faults) =
                    (Params::scaled(nodes), grid_messages(), grid_faults());
                let opts = MultiRunOpts::new(BatchMode::Generations(4))
                    .with_mode(CollisionMode::Detection)
                    .with_pacing(Pacing::Segment)
                    .with_fec_repair(GRID_FEC);
                let t = Instant::now();
                let out = broadcast_unknown_on(
                    topology,
                    NodeId::new(0),
                    &messages,
                    &params,
                    seed,
                    opts,
                    &faults,
                );
                TracedRun {
                    run: t.elapsed(),
                    completion: out.completion_round,
                    stats: out.stats,
                    phases: out.phases.into(),
                    peak_state: out.peak_state_bytes,
                    nodes,
                    record: Rc::clone(&record),
                }
            }
        })
    }

    /// Passes over the panel until `seconds` would be exceeded (at least
    /// one pass).
    fn untraced(&self, seconds: u64) -> Report {
        let mut report = Report::new(END_TO_END);
        let setup = setup_median(|| self.scenario.prepare());
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let (mut times, mut completions) = (Vec::new(), Vec::new());
        let mut throughputs = Vec::new();
        for pass in 0.. {
            let pass_start = Instant::now();
            for (i, &seed) in self.seeds.iter().enumerate() {
                match self.facade_job(seed) {
                    Ok((run, out)) => {
                        times.push(run.as_secs_f64());
                        throughputs.push(out.stats.rounds as f64 / run.as_secs_f64());
                        if pass == 0 {
                            completions.push(out.completion_round.unwrap_or(out.stats.rounds));
                        }
                        report.job(self.facade_problems(i, seed, &out));
                    }
                    Err(e) => report.job(vec![e]),
                }
            }
            if start.elapsed() + pass_start.elapsed() > budget {
                break;
            }
        }
        let m = &mut report.metrics;
        m.set("run_s", median(&times));
        m.set("sim_rounds_per_s", median(&throughputs));
        m.set("setup_s", setup);
        m.set("rounds.p50", nearest_rank(&completions, 0.5) as f64);
        report.extra.push(("rounds.max", nearest_rank(&completions, 1.0) as f64, "rounds"));
        set_peak_rss(&mut report);
        report
    }

    /// Untraced/traced pairs on the first panel seed until `seconds` would
    /// be exceeded (at least one pair).
    fn traced(&self, seconds: u64) -> Report {
        let mut report = Report::new(PER_LAYER);
        let seed = self.seeds[0];
        let what = self.what(seed);
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        let (mut graph, mut callback, mut jobs) =
            (Spans::default(), Spans::default(), Spans::default());
        let mut first: Option<TracedRun> = None;
        loop {
            let pair_start = Instant::now();
            let facade = self.facade_job(seed);
            let run = self.traced_job(seed);
            match (facade, run) {
                (Ok((facade_time, out)), Ok(run)) => {
                    report.job(self.facade_problems(0, seed, &out));
                    let mut problems =
                        outcome_problems(&what, run.completion, out.cap, &run.phases, &run.stats);
                    problems.extend(
                        run.problems(&what, (out.completion_round, &out.stats, &out.phases)),
                    );
                    report.job(problems);
                    plain.push(facade_time.as_secs_f64());
                    traced.push(run.run.as_secs_f64());
                    graph.absorb(&run.record.graph_spans());
                    callback.absorb(&run.record.callback_spans());
                    jobs.record(run.run);
                    first.get_or_insert(run);
                }
                (facade, run) => {
                    for e in [facade.err(), run.err()].into_iter().flatten() {
                        report.job(vec![e]);
                    }
                }
            }
            if start.elapsed() + pair_start.elapsed() > budget {
                break;
            }
        }
        let Some(run) = first else {
            for (name, _) in PER_LAYER {
                report.metrics.set(name, 0.0);
            }
            return report;
        };
        // Counters are per job (every traced job of the seed is identical);
        // times are means over the traced jobs.
        let n = jobs.count() as f64;
        let m = &mut report.metrics;
        m.set("graph.calls", run.record.calls() as f64);
        m.set("graph.entries", run.record.entries() as f64);
        m.set("core.peak_state_mb", run.peak_state as f64 / 1e6);
        m.set("trace.overhead", median(&traced) / median(&plain) - 1.0);
        for name in SWEEP_ONLY {
            m.set(name, 0.0);
        }
        let split = TimeSplit {
            wall: jobs.secs() / n,
            graph: graph.secs() / n,
            callback: callback.secs() / n,
            calls: run.record.calls(),
            entries: run.record.entries(),
        };
        split.set(&mut report);
        set_counters(&mut report, &run.stats, &run.phases, run.nodes as u64 * run.stats.rounds);
        let per_tx = run.record.entries() as f64 / run.stats.transmissions.max(1) as f64;
        report.metrics.set("engine.entries_per_tx", per_tx);
        report.spans = Some(Json::obj([
            ("workload", Json::from(self.kind.name())),
            ("seed", Json::from(seed)),
            ("graph.with_neighbors.self", graph.to_json()),
            ("engine.callback", callback.to_json()),
            ("job.traced", jobs.to_json()),
        ]));
        report
    }
}

/// The response stream of one `serve` call, with the time its
/// `sweep_done` line was flushed.
#[derive(Debug, Default)]
struct Capture {
    bytes: Vec<u8>,
    done_at: Option<Instant>,
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    /// The server flushes after every line: note when the last one is the
    /// `sweep_done` line.
    fn flush(&mut self) -> std::io::Result<()> {
        if self.done_at.is_none() && self.bytes.ends_with(b"\n") {
            let body = &self.bytes[..self.bytes.len() - 1];
            let line = &body[body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1)..];
            if line.windows(12).any(|w| w == b"\"sweep_done\"") {
                self.done_at = Some(Instant::now());
            }
        }
        Ok(())
    }
}

/// One served request: request-to-`sweep_done` time and the response text.
struct Served {
    run: Duration,
    text: String,
}

/// What one served sweep reported, once checked.
struct SweepDigest {
    /// Completion rounds: best, median, worst.
    rounds: [u64; 3],
    /// Σ executed rounds over the outcome lines.
    executed: u64,
    /// The `summary` array of `sweep_done`.
    summary: Json,
}

/// `corridor_sweep_serve`: one `submit_sweep` request line through
/// `sweep::serve` on an in-memory reader and writer.
struct Sweep {
    line: String,
    pins: bool,
}

impl Sweep {
    fn new(seed: u64) -> Self {
        // Seed n sweeps the n-th block of SWEEP_SEEDS protocol seeds (kept
        // within the i64 range the wire format carries).
        let start = (seed % (1 << 40)) * SWEEP_SEEDS;
        let line = format!(
            concat!(
                r#"{{"type":"submit_sweep","id":1,"scenario":{{"topology":{{"kind":"cluster_chain","#,
                r#""clusters":20,"size":6}},"workload":{{"kind":"single","payload":{}}}}},"#,
                r#""seed_range":{{"start":{},"end":{}}}}}"#
            ),
            SWEEP_PAYLOAD,
            start,
            start + SWEEP_SEEDS
        );
        Sweep { line, pins: seed == Workload::CorridorSweepServe.default_seed() }
    }

    /// The request as the server parses it.
    fn product(&self) -> SweepProduct {
        match parse_request(&self.line) {
            Ok(Request::SubmitSweep { product, .. }) => product,
            other => panic!("the benchmark's request line must parse as a sweep: {other:?}"),
        }
    }

    fn serve(&self) -> Served {
        let mut sink = Capture::default();
        let start = Instant::now();
        sweep::serve(
            Cursor::new(format!("{}\n", self.line)),
            &mut sink,
            SweepPool::new().workers(SWEEP_WORKERS),
        );
        let end = sink.done_at.unwrap_or_else(Instant::now);
        Served { run: end - start, text: String::from_utf8_lossy(&sink.bytes).into_owned() }
    }

    /// Checks every line of a served sweep: each `outcome` is one job, the
    /// `sweep_done` summary must cover every job, and at the default seed
    /// its best/median/worst rounds are pinned. A sweep-level failure fails
    /// every job of the sweep.
    fn check(&self, served: &Served, report: &mut Report) -> Option<SweepDigest> {
        let what = "corridor_sweep_serve";
        let (mut jobs, mut executed, mut done) = (0u64, 0u64, None);
        let failed_before = report.failed;
        let mut problems = Vec::new();
        for line in served.text.lines() {
            let value = match Json::parse(line) {
                Ok(v) => v,
                Err(e) => {
                    problems.push(format!("{what}: unparsable response line ({e})"));
                    continue;
                }
            };
            match value.get("type").and_then(Json::as_str) {
                Some("submit_ok") => {}
                Some("outcome") => {
                    jobs += 1;
                    executed += value.get("rounds").and_then(Json::as_u64).unwrap_or(0);
                    let seed = value.get("seed").and_then(Json::as_u64).unwrap_or(u64::MAX);
                    let completion = value.get("completion_round").and_then(Json::as_u64);
                    let cap = value.get("cap").and_then(Json::as_u64).unwrap_or(0);
                    let within = value.get("completed").and_then(Json::as_bool) == Some(true)
                        && completion.is_some_and(|r| r <= cap);
                    report.job(if within {
                        Vec::new()
                    } else {
                        vec![format!(
                            "{what} seed {seed}: completion {completion:?} not within cap {cap}"
                        )]
                    });
                }
                Some("sweep_done") => done = Some(value),
                _ => problems.push(format!("{what}: unexpected response line {line}")),
            }
        }
        let digest = done.and_then(|done| {
            let count = |key| done.get(key).and_then(Json::as_u64);
            if done.get("cancelled").and_then(Json::as_bool) != Some(false)
                || count("completed") != Some(SWEEP_SEEDS)
                || count("total") != Some(SWEEP_SEEDS)
                || jobs != SWEEP_SEEDS
            {
                problems.push(format!("{what}: sweep did not run all {SWEEP_SEEDS} jobs: {done}"));
            }
            let summary = done.get("summary")?.clone();
            let matrix = summary.as_arr()?.first()?.clone();
            let field = |key| matrix.get(key).and_then(Json::as_u64);
            if field("runs") != Some(SWEEP_SEEDS)
                || matrix.get("failures").and_then(Json::as_arr).map(<[Json]>::len) != Some(0)
                || matrix.get("all_within_caps").and_then(Json::as_bool) != Some(true)
            {
                problems.push(format!("{what}: summary reports failures: {matrix}"));
            }
            let found = [field("best_rounds")?, field("median_rounds")?, field("worst_rounds")?];
            if self.pins && found != SWEEP_PINS {
                problems.push(format!(
                    "{what}: best/median/worst rounds {found:?} != pinned {SWEEP_PINS:?}"
                ));
            }
            Some(SweepDigest { rounds: found, executed, summary })
        });
        if digest.is_none() {
            problems.push(format!("{what}: no usable sweep_done summary"));
        }
        if !problems.is_empty() {
            // Jobs the stream never reported, and jobs of a sweep that
            // failed as a whole, count as failed.
            let missing = SWEEP_SEEDS.saturating_sub(jobs);
            report.attempted += missing;
            report.failed = failed_before + jobs.max(SWEEP_SEEDS);
            report.problems.extend(problems);
        }
        digest
    }

    /// Serves the request repeatedly until `seconds` would be exceeded (at
    /// least once).
    fn untraced(&self, seconds: u64) -> Report {
        let mut report = Report::new(END_TO_END);
        let scenario = self.product().scenario_list()[0].clone();
        let setup = setup_median(|| scenario.prepare());
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let (mut times, mut throughputs, mut first) = (Vec::new(), Vec::new(), None);
        loop {
            let pass_start = Instant::now();
            let served = guarded("corridor_sweep_serve", || self.serve());
            match served {
                Ok(served) => {
                    if let Some(digest) = self.check(&served, &mut report) {
                        times.push(served.run.as_secs_f64());
                        throughputs.push(digest.executed as f64 / served.run.as_secs_f64());
                        first.get_or_insert(digest.rounds);
                    }
                }
                Err(e) => {
                    report.attempted += SWEEP_SEEDS;
                    report.failed += SWEEP_SEEDS;
                    report.problems.push(e);
                }
            }
            if start.elapsed() + pass_start.elapsed() > budget {
                break;
            }
        }
        let rounds = first.unwrap_or_default();
        let m = &mut report.metrics;
        m.set("run_s", median(&times));
        m.set("sim_rounds_per_s", median(&throughputs));
        m.set("setup_s", setup);
        m.set("rounds.p50", rounds[1] as f64);
        report.extra.push(("rounds.max", rounds[2] as f64, "rounds"));
        set_peak_rss(&mut report);
        report
    }

    /// One served sweep (the end-to-end stream); the same product through
    /// the pool unobserved and observed by a [`JobClock`], in pairs that
    /// alternate which goes first, until `seconds` would be exceeded (at
    /// least one pair); then a serial replay of the first [`REPLAY_JOBS`]
    /// jobs through a traced topology.
    fn traced(&self, seconds: u64) -> Report {
        let mut report = Report::new(PER_LAYER);
        let what = "corridor_sweep_serve";
        let budget = Duration::from_secs(seconds);
        let start = Instant::now();
        let served = guarded(what, || self.serve());
        let digest = match &served {
            Ok(served) => self.check(served, &mut report),
            Err(e) => {
                report.problems.push(e.clone());
                None
            }
        };
        let product = self.product();
        let scenario = product.scenario_list()[0].clone();
        let pool = SweepPool::new().workers(SWEEP_WORKERS);
        let (mut plain_times, mut observed_times) = (Vec::new(), Vec::new());
        let mut reference: Option<Vec<SeedMatrix>> = None;
        let mut observed: Option<(Vec<JobSpan>, Instant, Instant)> = None;
        for pair in 0.. {
            let pair_start = Instant::now();
            for observe in [pair % 2 == 1, pair % 2 == 0] {
                let clock = JobClock::default();
                let begin = Instant::now();
                let run = guarded(what, || {
                    if observe {
                        pool.run_observed(&product, &clock)
                    } else {
                        pool.run(&product)
                    }
                });
                let returned = Instant::now();
                let matrices = match run {
                    Ok(matrices) => matrices,
                    Err(e) => {
                        report.problems.push(e);
                        continue;
                    }
                };
                let times = if observe { &mut observed_times } else { &mut plain_times };
                times.push((returned - begin).as_secs_f64());
                if observe && observed.is_none() {
                    observed = Some((clock.into_spans(), begin, returned));
                }
                match &reference {
                    None => reference = Some(matrices),
                    Some(first) if format!("{first:?}") != format!("{matrices:?}") => {
                        report.problems.push(format!("{what}: repeated or observed sweeps differ"))
                    }
                    Some(_) => {}
                }
            }
            if start.elapsed() + pair_start.elapsed() > budget {
                break;
            }
        }
        let (Some(reference), Some((spans, begin, returned))) = (reference, observed) else {
            for (name, _) in PER_LAYER {
                report.metrics.set(name, 0.0);
            }
            return report;
        };
        let matrix = &reference[0];
        if let Some(digest) = &digest {
            let merged = Json::from(vec![matrix_digest(matrix)]);
            if merged != digest.summary {
                report.problems.push(format!(
                    "{what}: sweep_done summary {} != merged matrix {merged}",
                    digest.summary
                ));
            }
        }

        // Serial replay through the traced topology: graph and engine times.
        let graph = Arc::new(scenario.topology().build());
        let nodes = graph.node_count();
        let params = Params::scaled(nodes);
        let (mut graph_spans, mut callback, mut wall) = (Spans::default(), Spans::default(), 0.0);
        let (mut entries, mut replay_tx) = (0u64, 0u64);
        for run in matrix.runs.iter().take(REPLAY_JOBS) {
            let (topology, record) = TracedTopology::new(Arc::clone(&graph));
            let replay = guarded(what, || {
                let t = Instant::now();
                let out = broadcast_single_on(
                    topology,
                    NodeId::new(0),
                    SWEEP_PAYLOAD,
                    &params,
                    run.seed,
                    CollisionMode::Detection,
                    Pacing::Segment,
                    &FaultPlan::none(),
                );
                TracedRun {
                    run: t.elapsed(),
                    completion: out.completion_round,
                    stats: out.stats,
                    phases: out.phases.into(),
                    peak_state: out.peak_state_bytes,
                    nodes,
                    record: Rc::clone(&record),
                }
            });
            match replay {
                Ok(replay) => {
                    let o = &run.outcome;
                    let seeded = format!("{what} replay seed {}", run.seed);
                    let mut problems = outcome_problems(
                        &seeded,
                        replay.completion,
                        o.cap,
                        &replay.phases,
                        &replay.stats,
                    );
                    problems.extend(
                        replay.problems(&seeded, (o.completion_round, &o.stats, &o.phases)),
                    );
                    if replay.peak_state != o.peak_state_bytes {
                        problems.push(format!("{seeded}: traced peak state differs from untraced"));
                    }
                    report.job(problems);
                    graph_spans.absorb(&record.graph_spans());
                    callback.absorb(&record.callback_spans());
                    wall += replay.run.as_secs_f64();
                    entries += record.entries();
                    replay_tx += replay.stats.transmissions;
                }
                Err(e) => report.job(vec![e]),
            }
        }

        // Checks and sums over every job of the sweep (all repeats are equal).
        let mut stats = RunStats::default();
        let mut phases = Phases::default();
        let (mut node_rounds, mut peak) = (0u64, 0usize);
        for run in &matrix.runs {
            let (o, s, p) = (&run.outcome, &run.outcome.stats, &run.outcome.phases);
            let seeded = format!("{what} seed {}", run.seed);
            report.job(outcome_problems(&seeded, o.completion_round, o.cap, p, s));
            for (acc, x) in [
                (&mut stats.rounds, s.rounds),
                (&mut stats.transmissions, s.transmissions),
                (&mut stats.deliveries, s.deliveries),
                (&mut stats.collisions, s.collisions),
                (&mut stats.observe_skips, s.observe_skips),
                (&mut stats.act_skips, s.act_skips),
                (&mut stats.idle_fastforward, s.idle_fastforward),
                (&mut stats.erased, s.erased),
                (&mut stats.retries, s.retries),
                (&mut stats.fallback_rounds, s.fallback_rounds),
                (&mut stats.ring_repairs, s.ring_repairs),
                (&mut stats.regional_repairs, s.regional_repairs),
                (&mut phases.wave, p.wave),
                (&mut phases.construct, p.construct),
                (&mut phases.label, p.label),
                (&mut phases.disseminate, p.disseminate),
                (&mut phases.handoff, p.handoff),
                (&mut phases.repair, p.repair),
                (&mut phases.fallback, p.fallback),
                (&mut phases.status, p.status),
            ] {
                *acc += x;
            }
            node_rounds += nodes as u64 * s.rounds;
            peak = peak.max(run.outcome.peak_state_bytes);
        }
        set_counters(&mut report, &stats, &phases, node_rounds);
        let sweep = SweepTimes::new(&spans, begin, returned);
        let m = &mut report.metrics;
        m.set("engine.entries_per_tx", entries as f64 / replay_tx.max(1) as f64);
        m.set("graph.calls", graph_spans.count() as f64);
        m.set("graph.entries", entries as f64);
        m.set("core.peak_state_mb", peak as f64 / 1e6);
        m.set("trace.overhead", median(&observed_times) / median(&plain_times) - 1.0);
        sweep.set(&mut report);
        let (lines, bytes) =
            served.as_ref().map_or((0, 0), |s| (s.text.lines().count(), s.text.len()));
        report.metrics.set("sweep.lines_out", lines as f64);
        report.metrics.set("sweep.bytes_out", bytes as f64);
        TimeSplit {
            wall,
            graph: graph_spans.secs(),
            callback: callback.secs(),
            calls: graph_spans.count(),
            entries,
        }
        .set(&mut report);
        let job_list = spans
            .iter()
            .map(|s| {
                let us = |t: Instant| (t - begin).as_micros() as u64;
                Json::from(vec![s.worker as u64, s.order, us(s.start), us(s.end)])
            })
            .collect::<Vec<_>>();
        report.spans = Some(Json::obj([
            ("workload", Json::from(what)),
            ("request", Json::from(self.line.clone())),
            ("graph.with_neighbors.self", graph_spans.to_json()),
            ("engine.callback", callback.to_json()),
            ("sweep.jobs.worker_order_start_us_end_us", Json::from(job_list)),
        ]));
        report
    }
}

/// The digest of a merged matrix in the shape the server's `sweep_done`
/// summary carries, for comparing the two.
fn matrix_digest(matrix: &SeedMatrix) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, Json::from);
    Json::obj([
        ("label", Json::from(matrix.label.clone())),
        ("runs", Json::from(matrix.len())),
        ("failures", Json::from(matrix.failures())),
        ("all_within_caps", Json::from(matrix.all_within_caps())),
        ("best_rounds", opt(matrix.best_rounds())),
        ("median_rounds", opt(matrix.median_rounds())),
        ("p95_rounds", opt(matrix.p95_rounds())),
        ("worst_rounds", opt(matrix.worst_rounds())),
        ("mean_rounds", matrix.mean_rounds().map_or(Json::Null, Json::from)),
    ])
}

/// The sweep layer's timings from the per-job spans of one observed run
/// that began at `begin` and returned at `returned`.
struct SweepTimes {
    job_ns: Vec<u64>,
    busy: Vec<f64>,
    sched: f64,
    tail: f64,
    wall: f64,
}

impl SweepTimes {
    fn new(spans: &[JobSpan], begin: Instant, returned: Instant) -> Self {
        let mut by_worker: Vec<Vec<JobSpan>> = vec![Vec::new(); SWEEP_WORKERS];
        for s in spans {
            if s.worker >= by_worker.len() {
                by_worker.resize(s.worker + 1, Vec::new());
            }
            by_worker[s.worker].push(*s);
        }
        let mut busy = Vec::new();
        let mut sched = 0.0;
        for jobs in &mut by_worker {
            jobs.sort_by_key(|s| s.start);
            let mut prev_end = begin;
            let mut worker_busy = 0.0;
            for s in jobs.iter() {
                sched += s.start.saturating_duration_since(prev_end).as_secs_f64();
                worker_busy += (s.end - s.start).as_secs_f64();
                prev_end = s.end;
            }
            busy.push(worker_busy);
        }
        let last = spans.iter().map(|s| s.end).max().unwrap_or(returned);
        SweepTimes {
            job_ns: spans.iter().map(|s| (s.end - s.start).as_nanos() as u64).collect(),
            busy,
            sched,
            tail: returned.saturating_duration_since(last).as_secs_f64(),
            wall: (returned - begin).as_secs_f64(),
        }
    }

    fn set(&self, report: &mut Report) {
        let m = &mut report.metrics;
        let total: f64 = self.busy.iter().sum();
        let mean = total / self.busy.len().max(1) as f64;
        let max = self.busy.iter().copied().fold(0.0, f64::max);
        m.set("sweep.job_ms.p50", nearest_rank(&self.job_ns, 0.5) as f64 / 1e6);
        m.set("sweep.job_ms.p99", nearest_rank(&self.job_ns, 0.99) as f64 / 1e6);
        m.set("sweep.busy_fraction", total / (self.wall * self.busy.len().max(1) as f64));
        m.set("sweep.sched_s", self.sched);
        m.set("sweep.tail_s", self.tail);
        m.set("sweep.imbalance", max / mean.max(f64::MIN_POSITIVE));
    }
}
