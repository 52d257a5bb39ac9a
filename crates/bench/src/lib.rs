//! # bench — the experiment harness
//!
//! Shared measurement utilities for the `fig_*` bench targets, which
//! regenerate the theorem-derived tables of `DESIGN.md` §2. Each bench
//! prints a table: rows = swept parameter, columns = algorithms, cells =
//! mean ± σ of the completion round over [`SEEDS`] seeds (`FAIL xN` cells
//! count runs that exhausted [`MAX_ROUNDS`]).
//!
//! This crate is also the workspace's *assembly point*: it is the only crate
//! depending on every other one, so the repo-root `tests/` (end-to-end
//! integration tests) and `examples/` (scenario walkthroughs) are wired into
//! it via explicit `[[test]]`/`[[example]]` entries in its `Cargo.toml`.
//!
//! ## Layout
//!
//! * this library — graph recipes ([`chain_with_n`]), sweep-friendly
//!   parameters ([`bench_params`]), one `run_*` wrapper per measured
//!   algorithm, and table formatting ([`header`], [`row`], [`cell`],
//!   [`mean_std`]);
//! * `benches/fig_*.rs` — one experiment per file (`harness = false`, plain
//!   `main`), named after the table it regenerates: e.g. `fig_single_vs_d`
//!   sweeps diameter for Theorem 1.1 against Decay and CR-style,
//!   `fig_multi_vs_k` sweeps message count for Theorems 1.2/1.3 against
//!   routing, `fig_fast_collision_audit` audits the Lemma 3.5 refinement;
//! * `benches/micro.rs` — criterion microbenchmarks of the GF(2) kernels and
//!   the simulator round loop.
//!
//! ## Running
//!
//! ```console
//! cargo bench --bench fig_single_vs_n   # one table
//! cargo bench                           # everything (minutes, release-built)
//! ```
//!
//! Measured protocols run under [`bench_params`], which lowers the
//! construction constants so diameter sweeps finish in seconds; resulting
//! fallbacks/violations are part of what the tables report, not hidden.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use broadcast::decay::{DecayBroadcast, DecayMsg};
use broadcast::multi_message::{broadcast_known, BatchMode, KnownRunOpts};
use broadcast::schedule::SlowKey;
use broadcast::{Params, Scenario, TopologySpec, Workload};
use radio_sim::graph::Traversal;
use radio_sim::{CollisionMode, FaultPlan, Graph, NodeId, Simulator};
use rlnc::gf2::BitVec;

/// Number of seeds per cell (kept small so `cargo bench` stays quick).
pub const SEEDS: u64 = 3;

/// Sweep-friendly parameters: like [`Params::scaled`] but with the
/// construction constants at the low end, so diameter sweeps finish in
/// seconds. Construction softness under these constants is part of what the
/// experiments measure (fallbacks/violations are reported, not hidden).
pub fn bench_params(n: usize) -> Params {
    let mut p = Params::scaled(n);
    p.decay_phases = 3;
    p.recruit_iterations = 2 * p.log_n;
    p.assignment_epochs = p.log_n / 2 + 4;
    p
}

/// A hard cap for open-ended runs.
pub const MAX_ROUNDS: u64 = 4_000_000;

/// Mean and standard deviation of the `Some` entries; `None` marks failures.
pub fn mean_std(xs: &[Option<u64>]) -> (f64, f64, usize) {
    let ok: Vec<f64> = xs.iter().flatten().map(|&x| x as f64).collect();
    let fails = xs.len() - ok.len();
    if ok.is_empty() {
        return (f64::NAN, f64::NAN, fails);
    }
    let mean = ok.iter().sum::<f64>() / ok.len() as f64;
    let var = ok.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / ok.len() as f64;
    (mean, var.sqrt(), fails)
}

/// Formats a `(mean, std, fails)` cell.
pub fn cell(stats: (f64, f64, usize)) -> String {
    let (mean, std, fails) = stats;
    if mean.is_nan() {
        return format!("FAIL x{fails}");
    }
    if fails > 0 {
        format!("{mean:.0}±{std:.0} ({fails} fail)")
    } else {
        format!("{mean:.0}±{std:.0}")
    }
}

/// Prints a table header.
pub fn header(title: &str, columns: &[&str]) {
    println!("\n=== {title} ===");
    print!("{:>14}", "param");
    for c in columns {
        print!(" | {c:>18}");
    }
    println!();
}

/// Prints one table row.
pub fn row(param: &str, cells: &[String]) {
    print!("{param:>14}");
    for c in cells {
        print!(" | {c:>18}");
    }
    println!();
}

/// Exact diameter of `g`.
pub fn diameter(g: &Graph) -> u32 {
    g.bfs(NodeId::new(0)).max_level()
}

/// Test payloads for k-message runs.
pub fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64((i.wrapping_mul(0x9E37) + 1) & 0xFFFF, 32)).collect()
}

/// Measured completion round of the Theorem 1.1 pipeline.
pub fn run_ghk_single(g: &Graph, params: &Params, seed: u64) -> Option<u64> {
    Scenario::new(TopologySpec::custom(g.clone()), Workload::Single { payload: 0xFEED })
        .params(params.clone())
        .seed(seed)
        .run()
        .completion_round
}

/// Measured completion round of BGI Decay.
pub fn run_decay(g: &Graph, params: &Params, seed: u64) -> Option<u64> {
    let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
        DecayBroadcast::new(params, (id.index() == 0).then_some(DecayMsg(1)))
    });
    sim.run_until(MAX_ROUNDS, |ns| ns.iter().all(DecayBroadcast::is_informed))
}

/// Measured completion round of the CR-style baseline.
pub fn run_cr(g: &Graph, params: &Params, seed: u64) -> Option<u64> {
    let d = diameter(g);
    let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
        baselines::cr::CrBroadcast::new(
            params,
            d,
            (id.index() == 0).then_some(baselines::cr::CrMsg(1)),
        )
    });
    sim.run_until(MAX_ROUNDS, |ns| ns.iter().all(baselines::cr::CrBroadcast::is_informed))
}

/// Measured completion round of the known-topology GST broadcast (k = 1),
/// the Gasieniec–Peleg–Xin reference point.
pub fn run_gpx_known(g: &Graph, params: &Params, seed: u64) -> Option<u64> {
    broadcast_known(
        g,
        NodeId::new(0),
        &payloads(1),
        params,
        seed,
        KnownRunOpts::new().with_max_rounds(MAX_ROUNDS),
        &FaultPlan::none(),
    )
    .completion_round
}

/// Measured completion round of Theorem 1.2 (known topology, k messages).
pub fn run_known_k(g: &Graph, params: &Params, seed: u64, k: usize, key: SlowKey) -> Option<u64> {
    broadcast_known(
        g,
        NodeId::new(0),
        &payloads(k),
        params,
        seed,
        KnownRunOpts::new().with_slow_key(key).with_max_rounds(MAX_ROUNDS),
        &FaultPlan::none(),
    )
    .completion_round
}

/// Measured completion round of Theorem 1.3 (unknown topology, k messages).
pub fn run_unknown_k(
    g: &Graph,
    params: &Params,
    seed: u64,
    k: usize,
    mode: BatchMode,
) -> Option<u64> {
    let workload = Workload::MultiUnknown { messages: payloads(k), batch: mode };
    Scenario::new(TopologySpec::custom(g.clone()), workload)
        .params(params.clone())
        .seed(seed)
        .run()
        .completion_round
}

/// Measured completion round of the routing (no-coding) baseline.
pub fn run_routing_k(g: &Graph, params: &Params, seed: u64, k: usize) -> Option<u64> {
    use baselines::routing::RoutingNode;
    use broadcast::schedule::{SchedLabels, ScheduleConfig};
    let mut rng = radio_sim::rng::stream_rng(seed, 777);
    let (tree, _) = gst::build_gst(
        g,
        &[NodeId::new(0)],
        &mut rng,
        &gst::BuildConfig::for_nodes(g.node_count()),
    );
    let vd = gst::VirtualDistances::compute(g, &tree);
    let cfg = ScheduleConfig::from_params(params);
    let words: Vec<u64> = (0..k as u64).collect();
    let mut sim = Simulator::new(g.clone(), CollisionMode::NoDetection, seed, |id| {
        let node = RoutingNode::new(cfg, SchedLabels::from_gst(&tree, &vd, id), k);
        if id.index() == 0 {
            node.with_messages(&words)
        } else {
            node
        }
    });
    sim.run_until(MAX_ROUNDS, |ns| ns.iter().all(RoutingNode::is_complete))
}

/// Cluster-chain with ~fixed node budget and the requested cluster count.
pub fn chain_with_n(clusters: usize, n_target: usize) -> Graph {
    let size = (n_target / clusters).max(2);
    radio_sim::graph::generators::cluster_chain(clusters, size)
}
