//! Million-node streamed broadcast: Theorem 1.1 over a hashed unit-disk
//! deployment of 1,000,000 nodes whose CSR (~1.8 GB) is never built — the
//! engine pulls neighborhoods on demand from an `ImplicitGraph` (spatial
//! bucket index + scaled hot-neighborhood cache, `O(n)` resident) while
//! `peak_state_bytes` stays a quarter of the materialized cost. The run
//! borrows the graph, so the cache's hit/miss counters are printed after.
//!
//! This is the same configuration as the `m1_million_disk_single` entry of
//! `BENCH_pipeline.json` (schema 6): `broadcast_single_on` gets the
//! arguments `Scenario::run` passes for a `StreamedUnitDisk` spec (source 0,
//! collision detection, segment pacing, no faults), with the same leaned
//! recruiting constant (`2·log n` iterations instead of the default
//! `4·log n` — at this scale the default doubles the round count without
//! changing the outcome at the pinned seed). Expect a run of the order of forty minutes
//! on one core (44,940 rounds, ~90M transmissions at mean degree ~452);
//! the bench pins its exact round count.
//!
//! ```sh
//! cargo run --release --example million_stream
//! ```

use broadcast::single_message::broadcast_single_on;
use broadcast::{Pacing, Params};
use radio_sim::{CollisionMode, FaultPlan, ImplicitGraph, NodeId};
use std::time::Instant;

fn main() {
    let (n, radius) = (1_000_000usize, 0.012f64);
    let mut params = Params::scaled(n);
    params.recruit_iterations = 2 * params.log_n;
    let graph = ImplicitGraph::unit_disk(n, radius, 2026);
    println!("streaming {n} nodes (disk r={radius}) — no CSR is ever materialized...");

    let t = Instant::now();
    let out = broadcast_single_on(
        &graph,
        NodeId::new(0),
        0xFEED,
        &params,
        1,
        CollisionMode::Detection,
        Pacing::Segment,
        &FaultPlan::none(),
    );
    let wall = t.elapsed().as_secs_f64();

    // What the same run would pin resident if the disk were materialized:
    // the expected CSR bytes ((n+1)·4 + 2m·4, m = n²·π·r²/2) on top of the
    // identical node state.
    let est_m = (n as f64 * n as f64 * std::f64::consts::PI * radius * radius / 2.0) as usize;
    let csr_bytes = (n + 1) * 4 + 2 * est_m * 4;
    println!(
        "completed: {:?} rounds (cap {}) in {wall:.1}s; peak state {:.0} MB \
         (a materialized CSR alone would add {:.0} MB); act skips {}; transmissions {}",
        out.completion_round,
        out.plan.total_rounds(),
        out.peak_state_bytes as f64 / 1e6,
        csr_bytes as f64 / 1e6,
        out.stats.act_skips,
        out.stats.transmissions,
    );
    let cache = graph.cache_stats();
    println!(
        "neighborhood cache: {} hits, {} misses ({:.1}% hit rate)",
        cache.hits,
        cache.misses,
        100.0 * cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
    );
    assert!(out.completion_round.is_some(), "streamed million-node run must complete");
    assert!(out.stats.act_skips > 0, "the wake fast path never engaged");
    assert!(
        4 * out.peak_state_bytes < csr_bytes + out.peak_state_bytes,
        "peak state {} is not well below the materialized cost {}",
        out.peak_state_bytes,
        csr_bytes + out.peak_state_bytes,
    );
}
