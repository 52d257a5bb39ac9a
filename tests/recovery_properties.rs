//! Property tests for the staged recovery ladder's counter invariants
//! (`RunStats::{ring_repairs, regional_repairs, fallback_rounds}` and the
//! rung-3 entry round in `Detail`), over randomized topologies, seeds and
//! fault plans:
//!
//! * **Clean runs are ladder-free.** Without a declared `FaultPlan` the
//!   recovery machinery must be provably inert: every recovery counter
//!   zero and no fallback entry round — on top of the exact bit-identity
//!   pins in `tests/fault_degradation.rs`, this holds over *arbitrary*
//!   topologies and seeds, not just the four historical scenarios.
//! * **Rungs are monotone.** On both the Theorem 1.1 and the Theorem 1.3
//!   pipeline, the ladder escalates strictly in order:
//!   nonzero `fallback_rounds` implies a rung-2 regional repair was
//!   attempted, which implies a rung-1 ring repair was attempted. A run
//!   that flooded without first trying local repair is the regression this
//!   property exists to catch.
//! * **Counters replay bit-identically.** A faulted run is a pure function
//!   of (scenario, seed): re-running it must reproduce the full `RunStats`
//!   including every recovery counter, for randomly drawn fault plans (the
//!   fixed-plan matrix lives in `tests/determinism.rs`).

use broadcast::multi_message::BatchMode;
use broadcast::{Detail, Scenario, TopologySpec, Workload};
use proptest::prelude::*;
use radio_sim::{FaultPlan, RunStats};
use rlnc::gf2::BitVec;

/// A small random topology: cluster chains and grids cover deep and
/// shallow diameter regimes without making proptest cases expensive.
fn topology(pick: u8, a: usize, b: usize) -> TopologySpec {
    if pick % 2 == 0 {
        TopologySpec::ClusterChain { clusters: 2 + a % 4, size: 3 + b % 3 }
    } else {
        TopologySpec::Grid { w: 3 + a % 3, h: 3 + b % 3 }
    }
}

/// A random single-class fault plan harsh enough to exercise the ladder on
/// some draws (jammers sit near the middle of every generated topology).
fn fault_plan(pick: u8, p: f64, period: u64) -> FaultPlan {
    match pick % 4 {
        0 => FaultPlan::none().with_erasure(0.05 + p * 0.25),
        1 => FaultPlan::none().with_jammer(4, 1 + period % 3, 0),
        2 => FaultPlan::none().with_churn(1 + period % 2, 0.0, 0.005 + p * 0.02),
        _ => FaultPlan::none().with_erasure(0.1 + p * 0.2).with_jammer(4, 2, 0),
    }
}

/// One of the two pipelines that carry a recovery ladder: Theorem 1.1, or
/// Theorem 1.3 with three messages in one batch.
fn workload(pick: u8) -> Workload {
    if pick % 2 == 0 {
        Workload::Single { payload: 7 }
    } else {
        let messages = (0..3u64).map(|i| BitVec::from_u64(i * 5 + 1, 16)).collect();
        Workload::MultiUnknown { messages, batch: BatchMode::FullK }
    }
}

/// The ladder/fallback counters of a run.
fn rungs(stats: &RunStats) -> (u64, u64, u64) {
    (stats.ring_repairs, stats.regional_repairs, stats.fallback_rounds)
}

/// The rung-3 entry round recorded in the typed detail (`None` for
/// workloads without a recovery ladder).
fn fallback_entry(detail: &Detail) -> Option<u64> {
    match detail {
        Detail::Single { fallback_entry, .. } => *fallback_entry,
        Detail::MultiUnknown { fallback_entry, .. } => *fallback_entry,
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn clean_runs_never_touch_the_ladder(
        pick in 0u8..4, a in 0usize..8, b in 0usize..8, seed in 0u64..500,
    ) {
        let out = Scenario::new(topology(pick, a, b), Workload::Single { payload: 7 })
            .seed(seed)
            .run();
        prop_assert_eq!(rungs(&out.stats), (0, 0, 0), "clean run fired the ladder");
        prop_assert_eq!(out.stats.retries, 0);
        prop_assert_eq!(out.stats.votes_overturned, 0);
        prop_assert_eq!(fallback_entry(&out.detail), None);
    }

    #[test]
    fn clean_multi_runs_never_touch_the_ladder(
        pick in 0u8..4, a in 0usize..8, seed in 0u64..500,
    ) {
        let msgs: Vec<BitVec> = (0..3u64).map(|i| BitVec::from_u64(i * 5 + 1, 16)).collect();
        let out = Scenario::new(
            topology(pick, a, a),
            Workload::MultiUnknown { messages: msgs, batch: BatchMode::FullK },
        )
        .seed(seed)
        .run();
        prop_assert_eq!(rungs(&out.stats), (0, 0, 0), "clean multi run fired the ladder");
        prop_assert_eq!(fallback_entry(&out.detail), None);
    }

    #[test]
    fn ladder_rungs_are_monotone_and_replay_exactly(
        wpick in 0u8..2, tpick in 0u8..4, a in 0usize..8, b in 0usize..8,
        fpick in 0u8..4, p in 0.0f64..1.0, period in 1u64..4,
        seed in 0u64..500,
    ) {
        let scenario = Scenario::new(topology(tpick, a, b), workload(wpick))
            .faults(fault_plan(fpick, p, period))
            .seed(seed);
        let out = scenario.clone().run();
        let (ring, regional, fallback) = rungs(&out.stats);
        // Escalation is strictly ordered: global flood only after a
        // regional attempt, regional only after a ring-local attempt.
        if fallback > 0 {
            prop_assert!(regional > 0, "fallback without a rung-2 attempt: {:?}", out.stats);
        }
        if regional > 0 {
            prop_assert!(ring > 0, "rung 2 without a rung-1 attempt: {:?}", out.stats);
        }
        // The entry round is recorded exactly when rung 3 armed.
        let entry = fallback_entry(&out.detail);
        prop_assert_eq!(entry.is_some(), fallback > 0, "fallback_entry out of sync");
        if let (Some(entry), Some(done)) = (entry, out.completion_round) {
            prop_assert!(entry <= done, "rung 3 armed after completion");
        }
        // Faulted runs are pure functions of (scenario, seed).
        let replay = scenario.run();
        prop_assert_eq!(out.completion_round, replay.completion_round, "completion diverged");
        prop_assert_eq!(&out.stats, &replay.stats, "recovery counters diverged on replay");
    }
}
