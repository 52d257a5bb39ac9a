//! Degradation suite: how the adaptive GHK pipelines hold up against the
//! Decay baseline under seeded adversarial channels (ROADMAP item 3 — the
//! paper's robustness story, exercised for the first time).
//!
//! Two halves:
//!
//! * **Bit-identity.** `FaultPlan::none()` must keep every historical round
//!   pin — corridor 677, unit-disk 2146, telemetry 3308, firmware 5011 —
//!   and the full channel trace, so the fault layer is provably invisible
//!   when disabled.
//! * **Degradation pins.** GHK-vs-Decay completion under erasure
//!   p ∈ {0.05, 0.2}, one scheduled jammer, 1% per-round edge churn,
//!   unit-disk mobility at two epoch lengths, and a combined
//!   erasure+jammer plan on the corridor and grid specs. Exact per-seed
//!   completion rounds are pinned (runs are deterministic, so any drift is
//!   a semantic change); cap-outs are recorded as `None` through the
//!   [`SeedMatrix`].
//!
//! The finding these pins freeze: with the staged recovery ladder
//! (status-beep majority voting, one handoff retry, then ring-local
//! repair → regional re-dissemination → no-knowledge Decay fallback) the
//! adaptive Theorem 1.1 pipeline completes on **every** seed of **every**
//! fault class on both topologies, within its worst-case cap. Faults still
//! corrupt the collision/silence signals the phase machinery feeds on —
//! which is why the faulted runs land one to two orders of magnitude above
//! Decay (which merely slows down) — but they no longer strand the run,
//! and the ladder keeps the tail local: on the deep corridor, where the
//! recovery PR's retry-then-flood scheme landed up to 250× Decay, repairing
//! only the failed ring before escalating holds every seed within 60×.
//! (The shallow grid keeps the 250× bound: its paired Decay runs finish in
//! tens of rounds, so the ratio is dominated by Decay's head start rather
//! than by recovery cost.) Collision detection's clean-channel
//! round-complexity still costs resilience; the recovery ladder caps that
//! cost at degradation instead of failure.

use broadcast::multi_message::BatchMode;
use broadcast::{Algo, Detail, Scenario, SeedMatrix, TopologySpec, Workload};
use radio_sim::FaultPlan;
use rlnc::gf2::BitVec;

/// The emergency-alert corridor (E1): 20 cliques of 6, diameter-dominated.
fn corridor() -> TopologySpec {
    TopologySpec::ClusterChain { clusters: 20, size: 6 }
}

/// The firmware-update grid (E3 family): shallow, well-connected.
fn grid() -> TopologySpec {
    TopologySpec::Grid { w: 6, h: 6 }
}

/// The bench's multi-message payloads.
fn payloads(k: usize) -> Vec<BitVec> {
    (0..k as u64).map(|i| BitVec::from_u64(0xBEE0 + i, 32)).collect()
}

/// Per-seed completion rounds of a matrix, in sweep order.
fn completions(m: &SeedMatrix) -> Vec<Option<u64>> {
    m.runs.iter().map(|r| r.outcome.completion_round).collect()
}

/// Pins one GHK-vs-Decay degradation scenario: both algorithms swept over
/// seeds 1..4 under the same fault plan, exact completion rounds asserted.
/// Completed GHK runs must also stay within the theorem's worst-case cap.
fn pin_degradation(
    spec: TopologySpec,
    plan: FaultPlan,
    ghk_expected: [Option<u64>; 3],
    decay_expected: [Option<u64>; 3],
) {
    let ghk = Scenario::new(spec.clone(), Workload::Single { payload: 0xA1E57 })
        .faults(plan.clone())
        .seeds(1..4);
    let decay = Scenario::new(spec, Workload::Baseline(Algo::Decay { payload: 0xA1E57 }))
        .round_cap(100_000)
        .faults(plan)
        .seeds(1..4);
    assert_eq!(completions(&ghk), ghk_expected, "GHK drifted: {}", ghk.report());
    assert_eq!(completions(&decay), decay_expected, "Decay drifted: {}", decay.report());
    for run in &ghk.runs {
        if run.outcome.completion_round.is_some() {
            assert!(
                run.outcome.completed_within_cap(),
                "seed {} completed beyond the worst-case cap",
                run.seed
            );
        }
    }
}

/// 5% Bernoulli packet erasure per (transmitter, receiver) copy.
fn erase05() -> FaultPlan {
    FaultPlan::none().with_erasure(0.05)
}

/// 20% erasure — a heavily lossy channel.
fn erase20() -> FaultPlan {
    FaultPlan::none().with_erasure(0.2)
}

/// One jammer parked on node 30, injecting collisions every other round.
fn one_jammer() -> FaultPlan {
    FaultPlan::none().with_jammer(30, 2, 0)
}

/// 1% per-round edge churn (links flap independently each round).
fn churn1pct() -> FaultPlan {
    FaultPlan::none().with_churn(1, 0.0, 0.01)
}

/// The combined adversary: lossy channel *and* a scheduled jammer at once,
/// so erased signal and fabricated collisions corrupt the status reads in
/// both directions simultaneously — the plan most likely to need the
/// ladder's structural rungs rather than voting alone.
fn erase05_plus_jammer() -> FaultPlan {
    FaultPlan::none().with_erasure(0.05).with_jammer(30, 2, 0)
}

/// Unit-disk mobility on the 120-node corridor: positions re-sampled every
/// `epoch` rounds at radius 0.4 (well above the ~0.11 connectivity
/// threshold for 120 uniform nodes), so the chain the pipeline constructed
/// over is repeatedly replaced by a fresh random deployment.
fn corridor_mobility(epoch: u64) -> FaultPlan {
    FaultPlan::none().with_mobility(0.4, epoch)
}

/// Unit-disk mobility for the 36-node grid (radius 0.35 vs its ~0.18
/// connectivity threshold).
fn grid_mobility(epoch: u64) -> FaultPlan {
    FaultPlan::none().with_mobility(0.35, epoch)
}

// ---------------------------------------------------------------------------
// Corridor: before the recovery layer, every fault class capped the deep
// 20-cluster pipeline out (all pins were `None`); now voting, handoff
// retries and the Decay fallback carry every seed to bounded completion.
// ---------------------------------------------------------------------------

#[test]
fn corridor_recovers_under_light_erasure() {
    pin_degradation(
        corridor(),
        erase05(),
        [Some(2241), Some(4313), Some(2572)],
        [Some(157), Some(157), Some(163)],
    );
}

#[test]
fn corridor_recovers_under_heavy_erasure() {
    pin_degradation(
        corridor(),
        erase20(),
        [Some(6183), Some(6180), Some(6224)],
        [Some(199), Some(169), Some(169)],
    );
}

#[test]
fn corridor_recovers_under_one_jammer() {
    pin_degradation(
        corridor(),
        one_jammer(),
        [Some(3494), Some(3551), Some(3514)],
        [Some(149), Some(148), Some(148)],
    );
}

#[test]
fn corridor_recovers_under_churn() {
    pin_degradation(
        corridor(),
        churn1pct(),
        [Some(4485), Some(3822), Some(3810)],
        [Some(627), Some(218), Some(1255)],
    );
}

#[test]
fn corridor_recovers_under_fast_mobility() {
    // Epoch 8: the deployment re-samples faster than any single phase
    // window, so the pipeline effectively runs over a time-averaged dense
    // graph — construction completes at near-clean speed.
    pin_degradation(
        corridor(),
        corridor_mobility(8),
        [Some(1010), Some(986), Some(982)],
        [Some(34), Some(20), Some(34)],
    );
}

#[test]
fn corridor_recovers_under_slow_mobility() {
    // Epoch 128: each deployment lives long enough for real phase progress,
    // then is yanked away — the worst cadence for structure-carrying
    // pipelines (re-learn per epoch) while structure-free Decay just rides
    // each fresh small-diameter unit disk.
    pin_degradation(
        corridor(),
        corridor_mobility(128),
        [Some(5444), Some(5266), Some(4724)],
        [Some(154), Some(152), Some(139)],
    );
}

/// The combined adversary runs corridor recovery end to end: every seed
/// climbs the ladder (rung-1 ring repair observed on all three), which is
/// the `ring_repairs > 0` acceptance pin for this PR.
#[test]
fn corridor_recovers_under_combined_erasure_and_jamming() {
    pin_degradation(
        corridor(),
        erase05_plus_jammer(),
        [Some(4724), Some(5333), Some(3507)],
        [Some(149), Some(155), Some(148)],
    );
    let ghk = Scenario::new(corridor(), Workload::Single { payload: 0xA1E57 })
        .faults(erase05_plus_jammer())
        .seeds(1..4);
    for run in &ghk.runs {
        assert!(
            run.outcome.stats.ring_repairs > 0,
            "seed {}: combined faults must push recovery through rung 1 \
             (stats: {:?})",
            run.seed,
            run.outcome.stats
        );
    }
}

// ---------------------------------------------------------------------------
// Grid: erasure and churn already mostly spared the shallow grid; the
// recovery layer closes the remaining gaps (the churn seed that used to cap
// out, and the every-other-round jammer that used to break the pipeline).
// ---------------------------------------------------------------------------

#[test]
fn grid_recovers_under_light_erasure() {
    pin_degradation(
        grid(),
        erase05(),
        [Some(964), Some(4007), Some(2401)],
        [Some(29), Some(20), Some(32)],
    );
}

#[test]
fn grid_recovers_under_heavy_erasure() {
    pin_degradation(
        grid(),
        erase20(),
        [Some(2196), Some(2475), Some(3853)],
        [Some(26), Some(32), Some(31)],
    );
}

#[test]
fn grid_recovers_under_one_jammer() {
    pin_degradation(
        grid(),
        one_jammer(),
        [Some(3349), Some(3396), Some(3051)],
        [Some(44), Some(22), Some(44)],
    );
}

#[test]
fn grid_recovers_under_churn() {
    pin_degradation(
        grid(),
        churn1pct(),
        [Some(2566), Some(3407), Some(2422)],
        [Some(25), Some(28), Some(38)],
    );
}

#[test]
fn grid_recovers_under_fast_mobility() {
    pin_degradation(
        grid(),
        grid_mobility(8),
        [Some(1617), Some(1555), Some(1307)],
        [Some(16), Some(32), Some(18)],
    );
}

#[test]
fn grid_recovers_under_slow_mobility() {
    pin_degradation(
        grid(),
        grid_mobility(128),
        [Some(2876), Some(3843), Some(6223)],
        [Some(32), Some(27), Some(44)],
    );
}

#[test]
fn grid_recovers_under_combined_erasure_and_jamming() {
    pin_degradation(
        grid(),
        erase05_plus_jammer(),
        [Some(3784), Some(3785), Some(4309)],
        [Some(44), Some(27), Some(32)],
    );
}

// ---------------------------------------------------------------------------
// Theorem 1.3: the multi-message pipeline climbs the same staged ladder
// (window replay → regional FEC flood → no-knowledge fallback). Exact
// completions and recovery counters are pinned per seed, so any change to
// the rounds the ladder executes shows here.
// ---------------------------------------------------------------------------

/// A seed's recovery counters:
/// `(retries, votes_overturned, ring_repairs, regional_repairs, fallback_rounds)`.
type Recovery = (u64, u64, u64, u64, u64);

/// Pins one faulted Theorem 1.3 scenario (8 messages in generations of 4,
/// FEC repair 2) over seeds 1..4: completion rounds, recovery counters and
/// the rung-3 entry round. Cap-outs must have run exactly to the cap.
fn pin_multi_degradation(
    spec: TopologySpec,
    plan: FaultPlan,
    expected: [Option<u64>; 3],
    recovery: [Recovery; 3],
    entries: [Option<u64>; 3],
) {
    let m = Scenario::new(
        spec,
        Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::Generations(4) },
    )
    .faults(plan)
    .fec_repair(2)
    .seeds(1..4);
    assert_eq!(completions(&m), expected, "Theorem 1.3 drifted: {}", m.report());
    for (run, (want, entry)) in m.runs.iter().zip(recovery.iter().zip(entries)) {
        let s = &run.outcome.stats;
        let got =
            (s.retries, s.votes_overturned, s.ring_repairs, s.regional_repairs, s.fallback_rounds);
        assert_eq!(got, *want, "seed {}: recovery counters drifted", run.seed);
        let Detail::MultiUnknown { fallback_entry, .. } = run.outcome.detail else {
            panic!("seed {}: expected Theorem 1.3 detail", run.seed);
        };
        assert_eq!(fallback_entry, entry, "seed {}: fallback entry drifted", run.seed);
        match run.outcome.completion_round {
            Some(_) => assert!(run.outcome.completed_within_cap(), "seed {} beyond cap", run.seed),
            None => assert_eq!(s.rounds, run.outcome.cap, "seed {} capped short", run.seed),
        }
    }
}

/// Every corridor seed exhausts rungs 1–2 and completes in the rung-3 flood.
#[test]
fn multi_corridor_recovers_under_light_erasure() {
    pin_multi_degradation(
        corridor(),
        erase05(),
        [Some(17003), Some(16040), Some(16932)],
        [(1, 0, 9, 9, 198), (1, 0, 4, 4, 1479), (1, 0, 10, 10, 1760)],
        [Some(16805), Some(14561), Some(15172)],
    );
}

/// The jammed grid covers the other ladder outcomes: rung 3 completing
/// (seed 1), rungs 1–2 recovering without a fallback (seed 2), and a
/// fallback that runs to the cap without completing (seed 3).
#[test]
fn multi_grid_under_one_jammer() {
    pin_multi_degradation(
        grid(),
        one_jammer(),
        [Some(8729), Some(8898), None],
        [(1, 0, 2, 2, 536), (1, 0, 2, 2, 0), (1, 0, 2, 2, 57071)],
        [Some(8193), None, Some(8185)],
    );
}

/// The acceptance headline in executable form: under **each** fault class on
/// **both** topologies, the adaptive pipeline completes on every seed where
/// Decay completes (same fault plan, same master seeds), within its
/// worst-case cap, and within a bounded multiple of the paired Decay run —
/// degradation with a bounded constant, not failure. The corridor bound is
/// 60× (the recovery ladder's headline win — it was 250× when the only
/// recovery was retry-then-global-flood); the shallow grid keeps 250×
/// because its paired Decay runs finish in tens of rounds, making the
/// ratio mostly Decay's head start.
/// A (topology, Decay-ratio bound, mobility-plan builder) row of the
/// headline matrix below.
type RatioSpec = (TopologySpec, u64, fn(u64) -> FaultPlan);

#[test]
fn adaptive_pipeline_completes_within_bounded_decay_ratio_under_every_fault_class() {
    let specs: [RatioSpec; 2] = [(corridor(), 60, corridor_mobility), (grid(), 250, grid_mobility)];
    for (spec, ratio, mobility) in specs {
        for plan in [
            erase05(),
            erase20(),
            one_jammer(),
            churn1pct(),
            erase05_plus_jammer(),
            mobility(8),
            mobility(128),
        ] {
            let ghk = Scenario::new(spec.clone(), Workload::Single { payload: 0xA1E57 })
                .faults(plan.clone())
                .seeds(1..4);
            let decay =
                Scenario::new(spec.clone(), Workload::Baseline(Algo::Decay { payload: 0xA1E57 }))
                    .round_cap(100_000)
                    .faults(plan.clone())
                    .seeds(1..4);
            assert!(
                decay.all_completed(),
                "Decay failed under {}: {}",
                plan.label(),
                decay.report()
            );
            assert!(ghk.all_completed(), "GHK failed under {}: {}", plan.label(), ghk.report());
            assert!(ghk.all_within_caps(), "a GHK run exceeded its cap under {}", plan.label());
            for (g, d) in ghk.runs.iter().zip(&decay.runs) {
                let (g_done, d_done) = (
                    g.outcome.completion_round.expect("checked"),
                    d.outcome.completion_round.expect("checked"),
                );
                assert!(
                    g_done <= ratio * d_done,
                    "seed {} under {}: GHK took {g_done} rounds vs Decay {d_done} (> {ratio}x)",
                    g.seed,
                    plan.label()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-identity: a `FaultPlan::none()` scenario is byte-for-byte the run the
// repo has pinned since before the fault layer existed.
// ---------------------------------------------------------------------------

/// Runs a scenario plain and with an explicit empty plan; asserts the full
/// trace (completion + every `RunStats` field) is identical and returns the
/// completion round.
fn none_plan_is_invisible(scenario: Scenario) -> Option<u64> {
    let plain = scenario.clone().run();
    let none = scenario.faults(FaultPlan::none()).run();
    assert_eq!(plain.completion_round, none.completion_round, "completion diverged");
    assert_eq!(plain.stats, none.stats, "channel trace diverged");
    assert_eq!(plain.phases, none.phases, "phase accounting diverged");
    none.completion_round
}

#[test]
fn none_plan_keeps_the_corridor_pin_at_677() {
    let done = none_plan_is_invisible(
        Scenario::new(corridor(), Workload::Single { payload: 0xA1E57 }).seed(1),
    );
    assert_eq!(done, Some(677));
}

#[test]
fn none_plan_keeps_the_unit_disk_pin_at_2146() {
    let done = none_plan_is_invisible(
        Scenario::new(
            TopologySpec::UnitDisk { n: 80, radius: 0.18, graph_seed: 2024 },
            Workload::Single { payload: 0xFEED },
        )
        .seed(1),
    );
    assert_eq!(done, Some(2146));
}

#[test]
fn none_plan_keeps_the_telemetry_pin_at_3308() {
    let done = none_plan_is_invisible(
        Scenario::new(
            TopologySpec::ClusterChain { clusters: 6, size: 6 },
            Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::FullK },
        )
        .seed(11),
    );
    assert_eq!(done, Some(3308));
}

#[test]
fn none_plan_keeps_the_firmware_pin_at_5011() {
    let done = none_plan_is_invisible(
        Scenario::new(
            grid(),
            Workload::MultiUnknown { messages: payloads(8), batch: BatchMode::Generations(4) },
        )
        .seed(3),
    );
    assert_eq!(done, Some(5011));
}
