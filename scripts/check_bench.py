#!/usr/bin/env python3
"""Perf-smoke gate over BENCH_pipeline.json.

Fails CI when the wake-hint fast path silently regresses to dense stepping
(`act_skips == 0` on a pipeline entry), when a pipeline's round count drifts
above its pinned regression budget (mirroring tests/regression_rounds.rs for
the exact bench seeds), when the idle microbench speedup collapses, or —
since the Scenario-facade migration (schema 2) — when an entry's declarative
scenario descriptor (topology label, workload kind, seed, and, since the
fault layer landed in schema 3, the fault-plan label) or any required field
is missing or drifts from the pinned declaration. Schema 3 also requires the
fault counters (`erased`/`jammed`/`churn_events`) on every entry and pins a
lossy `multi_unknown` run whose erasure must actually have fired. Schema 4
(the recovery layer) adds the recovery counters
(`retries`/`votes_overturned`/`fallback_rounds`) to every entry, pins a
degraded-corridor run under heavy erasure, requires every faulted entry to
show fault *or* recovery activity, and requires the degraded corridor
specifically to have exercised the recovery machinery — a faulted bench
whose recovery layer never fires is the fault-blindness bug this schema
exists to catch. Schema 5 (the staged recovery ladder) adds the
`ring_repairs`/`regional_repairs` rung counters to every entry, a
degraded-mobility grid entry, a 60x-Decay budget on the degraded corridor
(down from the recovery PR's 250x headline — the ladder repairs the failed
ring locally instead of flooding globally), and requires at least one
degraded entry to have fired a rung-1 ring repair. Schema 6 (streamed
topologies) adds the memory-accounting columns
(`streamed`/`peak_state_bytes`/`materialized_topology_bytes`) to every
entry, a million-node streamed unit-disk pipeline run with a pinned
wall-clock budget, and gates every streamed entry on `peak_state_bytes`
staying below a quarter of the materialized CSR cost — a streamed run
that silently materialized its topology would blow that ratio. Schema 7
(the sharded sweep service) adds the `sweep` section: the E1 corridor
swept over 64 seeds serially and on the work-stealing pool, gated on the
shard-merged matrix being bit-identical to the serial one (the measurement
re-proves the executor's contract), on the deterministic best/worst round
pins, and — only when the runner actually has more than one worker — on a
parallel speedup materializing.

Usage: python3 scripts/check_bench.py [path/to/BENCH_pipeline.json]
"""

import json
import sys

EXPECTED_SCHEMA = 7

# Every field each pipeline entry must carry (schema 6).
REQUIRED_ENTRY_FIELDS = (
    "name",
    "scenario",
    "rounds",
    "cap",
    "wall_ms",
    "transmissions",
    "deliveries",
    "observe_skips",
    "act_skips",
    "idle_fastforward",
    "erased",
    "jammed",
    "churn_events",
    "retries",
    "votes_overturned",
    "ring_repairs",
    "regional_repairs",
    "fallback_rounds",
    "streamed",
    "peak_state_bytes",
    "materialized_topology_bytes",
)
REQUIRED_SCENARIO_FIELDS = ("topology", "workload", "seed", "faults")

# The declarative scenario each entry must have run — the bench declares its
# runs through the Scenario facade, and these descriptors pin the declaration
# itself (a silently swapped topology or seed would otherwise still pass the
# round pins by luck).
EXPECTED_SCENARIOS = {
    "e1_corridor_single": {
        "topology": "cluster_chain(20x6)",
        "workload": "single",
        "seed": 1,
        "faults": "none",
    },
    "e2_unit_disk_single": {
        "topology": "unit_disk(80,r=0.18,g=2024)",
        "workload": "single",
        "seed": 1,
        "faults": "none",
    },
    "multi_telemetry_backhaul": {
        "topology": "cluster_chain(6x6)",
        "workload": "multi_unknown",
        "seed": 11,
        "faults": "none",
    },
    "multi_firmware_grid": {
        "topology": "grid(6x6)",
        "workload": "multi_unknown",
        "seed": 3,
        "faults": "none",
    },
    "multi_lossy_telemetry": {
        "topology": "cluster_chain(6x6)",
        "workload": "multi_unknown",
        "seed": 11,
        "faults": "erase(0.05)",
    },
    "e1_degraded_corridor": {
        "topology": "cluster_chain(20x6)",
        "workload": "single",
        "seed": 1,
        "faults": "erase(0.2)",
    },
    "e3_degraded_mobile_grid": {
        "topology": "grid(6x6)",
        "workload": "single",
        "seed": 1,
        "faults": "mobile(r0.35,e32)",
    },
    "m1_million_disk_single": {
        "topology": "stream:unit_disk(1000000,r=0.012,g=2026)",
        "workload": "single",
        "seed": 1,
        "faults": "none",
    },
}

# Entries that must have streamed their topology (scenario declared a
# `stream:` spec and the bench must not have materialized it behind the
# declaration's back).
MUST_STREAM = ("m1_million_disk_single",)

# A streamed entry's peak resident bytes (topology term + node state) must
# stay below this fraction of the full materialized cost — the CSR the spec
# would build plus the identical node state. A streamed run that silently
# materialized its topology lands far above it (the million-node entry
# would report ~58% instead of ~22%).
MAX_STREAMED_PEAK_RATIO = 0.25

# Wall-clock ceilings (ms) for entries whose runtime is itself the headline:
# generous multiples of the measured local wall to absorb CI-runner jitter,
# but tight enough that an accidental O(n·m) regression (or a fallen-off
# fast path) in the million-node run fails loudly instead of stalling CI.
WALL_BUDGETS_MS = {
    # Measured 2,546 s on a 2-vCPU box with a second m1 run on the other
    # core, after the sort-free unit-disk scan (44,940 rounds, ~38G act
    # skips + 90M transmissions at mean degree ~452); ~2x that figure.
    "m1_million_disk_single": 5_100_000.0,
}

# Faulted entries that must show nonzero *recovery-counter* activity
# (retries, a ladder rung, or fallback rounds): scenarios harsh enough that
# a clean-looking run means the recovery layer silently failed to engage.
# Lightly faulted entries (e.g. 5% erasure) may legitimately recover through
# voting and fec-rate adaptation alone, and mobility re-samples the topology
# without corrupting the channel (windows stretch but rarely fail), so
# neither class is required to trip these counters.
MUST_EXERCISE_RECOVERY = ("e1_degraded_corridor",)

# Round budgets for the bench's fixed seeds; generous versions of the pins in
# tests/regression_rounds.rs (which sweep several seeds).
ROUND_BUDGETS = {
    "e1_corridor_single": 2_200,
    "e2_unit_disk_single": 4_800,
    "multi_telemetry_backhaul": 7_000,
    "multi_firmware_grid": 12_500,
    "multi_lossy_telemetry": 7_000,
    # 60x the paired Decay run (199 rounds at this seed/plan) — the staged
    # ladder's headline: the recovery PR's retry-then-flood scheme needed a
    # 250x allowance here.
    "e1_degraded_corridor": 11_940,
    "e3_degraded_mobile_grid": 4_000,
    "m1_million_disk_single": 60_000,
}

# Exact round counts at the bench's fixed seeds. Runs are deterministic, so
# any drift here means the executed round sequence changed — the segment
# scheduler and the Scenario facade both promise bit-identity with the
# per-round legacy entry points (the corridor has been exactly 677 since
# PR 2). An intentional algorithm change must update these pins explicitly.
EXPECTED_ROUNDS = {
    "e1_corridor_single": 677,
    "e2_unit_disk_single": 2_146,
    "multi_telemetry_backhaul": 3_308,
    "multi_firmware_grid": 5_011,
    # Down from 3366: the measured-erasure fec-repair adaptation and the
    # erasure-asymmetry voting shortcut landed together (recovery PR).
    # Unchanged by the schema-5 windowed estimator: the erasure rate here is
    # steady, so the sliding window sees what the cumulative totals saw.
    "multi_lossy_telemetry": 3_267,
    # The staged ladder replaced the deep retry backoff (3 retries at
    # doubled budgets, then a global flood) with one retry plus ring-local
    # and regional repair rungs.
    "e1_degraded_corridor": 6_183,
    "e3_degraded_mobile_grid": 1_955,
    # The million-node streamed disk: deterministic like every other entry;
    # drift means the streamed neighborhood order (or the pipeline itself)
    # changed.
    "m1_million_disk_single": 44_940,
}

MIN_MICROBENCH_SPEEDUP = 50.0

# The schema-7 sweep section: required fields and deterministic pins. The
# corridor sweep over seeds 0..64 is seed-deterministic, so its best/worst
# completion rounds are exact pins like EXPECTED_ROUNDS; wall clocks are
# machine-dependent and only sanity-bounded.
REQUIRED_SWEEP_FIELDS = (
    "name",
    "topology",
    "workload",
    "seeds",
    "workers",
    "serial_wall_ms",
    "parallel_wall_ms",
    "speedup",
    "merged_matches_serial",
    "best_rounds",
    "worst_rounds",
)
EXPECTED_SWEEP = {
    "name": "sweep_corridor_single",
    "topology": "cluster_chain(20x6)",
    "workload": "single",
    "seeds": 64,
    "best_rounds": 582,
    "worst_rounds": 1168,
}
# Generous ceiling for the serial corridor sweep (~127 ms on the 1-core
# reference box): a blown budget means the facade's prepare-once path
# regressed to per-seed topology rebuilds (or worse).
MAX_SWEEP_SERIAL_WALL_MS = 30_000.0


def check_sweep(data, failures):
    """The schema-7 parallel-sweep gates."""
    sweep = data.get("sweep")
    if sweep is None:
        failures.append("missing the schema-7 'sweep' section")
        return
    missing = [f for f in REQUIRED_SWEEP_FIELDS if f not in sweep]
    if missing:
        failures.append(f"sweep: missing required fields {missing}")
        return
    for field, want in EXPECTED_SWEEP.items():
        got = sweep[field]
        if got != want:
            failures.append(
                f"sweep: {field} = {got!r} != pinned {want!r} — the declared "
                "sweep (or its deterministic outcome) changed"
            )
    if sweep["merged_matches_serial"] is not True:
        failures.append(
            "sweep: merged_matches_serial is not true — the work-stealing "
            "executor's shard-merged matrix diverged from the serial sweep"
        )
    if sweep["workers"] < 1:
        failures.append(f"sweep: nonsensical worker count {sweep['workers']}")
    # The speedup gate only binds when the pool actually had parallelism to
    # spend: on a one-core runner serial and parallel take the same path.
    if sweep["workers"] > 1 and sweep["speedup"] <= 1.0:
        failures.append(
            f"sweep: {sweep['workers']} workers yielded speedup "
            f"{sweep['speedup']:.2f}x <= 1x — the pool adds threads without "
            "adding throughput"
        )
    if sweep["serial_wall_ms"] > MAX_SWEEP_SERIAL_WALL_MS:
        failures.append(
            f"sweep: serial_wall_ms {sweep['serial_wall_ms']:.0f} exceeds "
            f"{MAX_SWEEP_SERIAL_WALL_MS:.0f} — the serial sweep path regressed"
        )


def check_entry(entry, failures):
    name = entry.get("name", "<unnamed>")
    missing = [f for f in REQUIRED_ENTRY_FIELDS if f not in entry]
    if missing:
        failures.append(f"{name}: missing required fields {missing}")
        return
    scenario = entry["scenario"]
    missing = [f for f in REQUIRED_SCENARIO_FIELDS if f not in scenario]
    if missing:
        failures.append(f"{name}: scenario descriptor missing fields {missing}")
        return
    expected_scenario = EXPECTED_SCENARIOS.get(name)
    if expected_scenario is None:
        failures.append(f"{name}: no pinned scenario declaration for this entry")
    else:
        for field, want in expected_scenario.items():
            got = scenario[field]
            if got != want:
                failures.append(
                    f"{name}: scenario.{field} = {got!r} != pinned {want!r} — "
                    "the bench's declared scenario changed"
                )
    if entry["act_skips"] <= 0:
        failures.append(
            f"{name}: act_skips == 0 — the pipeline fell off the "
            "wake-hint fast path (dense stepping)"
        )
    budget = ROUND_BUDGETS.get(name)
    if budget is None:
        failures.append(f"{name}: no pinned round budget for this entry")
    elif entry["rounds"] > budget:
        failures.append(
            f"{name}: {entry['rounds']} rounds exceeds the pinned "
            f"budget {budget}"
        )
    expected = EXPECTED_ROUNDS.get(name)
    if expected is not None and entry["rounds"] != expected:
        failures.append(
            f"{name}: {entry['rounds']} rounds != pinned {expected} — "
            "the executed round sequence changed; update the pin only "
            "for an intentional algorithm change"
        )
    if entry["rounds"] > entry["cap"]:
        failures.append(
            f"{name}: {entry['rounds']} rounds exceeds the worst-case "
            f"cap {entry['cap']}"
        )
    faults = scenario.get("faults", "none")
    fault_activity = entry["erased"] + entry["jammed"] + entry["churn_events"]
    recovery_activity = (
        entry["retries"]
        + entry["votes_overturned"]
        + entry["ring_repairs"]
        + entry["regional_repairs"]
        + entry["fallback_rounds"]
    )
    if "erase(" in faults and entry["erased"] <= 0:
        failures.append(
            f"{name}: declares erasure ({faults}) but erased == 0 — "
            "the fault layer never fired"
        )
    if faults != "none" and fault_activity + recovery_activity == 0:
        failures.append(
            f"{name}: faulted entry ({faults}) reports zero fault and "
            "recovery activity — the run was effectively fault-free"
        )
    if name in MUST_EXERCISE_RECOVERY and (
        entry["retries"]
        + entry["ring_repairs"]
        + entry["regional_repairs"]
        + entry["fallback_rounds"]
        == 0
    ):
        failures.append(
            f"{name}: degraded entry never exercised the recovery "
            "machinery (no retries, ladder rungs or fallback rounds) — "
            "the pipeline is fault-blind again"
        )
    if (
        entry["fallback_rounds"] > 0
        and entry["ring_repairs"] + entry["regional_repairs"] == 0
    ):
        failures.append(
            f"{name}: fallback fired without any ladder rung — rung order "
            "must be monotone (ring-local, then regional, then global)"
        )
    if faults == "none" and fault_activity + recovery_activity:
        failures.append(
            f"{name}: fault-free entry reports nonzero fault or "
            "recovery counters"
        )
    check_memory(entry, name, scenario, failures)


def check_memory(entry, name, scenario, failures):
    """The schema-6 memory columns: streamed declarations must match the
    scenario, peak accounting must be present, and streamed entries must
    stay lean."""
    streamed = entry["streamed"]
    declared_streamed = scenario["topology"].startswith("stream:")
    if streamed != declared_streamed:
        failures.append(
            f"{name}: streamed = {streamed} but the declared topology is "
            f"{scenario['topology']!r} — the bench ran a different kind of "
            "topology than it declared"
        )
    if name in MUST_STREAM and not streamed:
        failures.append(f"{name}: entry is required to stream its topology")
    peak = entry["peak_state_bytes"]
    csr = entry["materialized_topology_bytes"]
    if peak <= 0 or csr <= 0:
        failures.append(f"{name}: memory accounting missing (peak {peak}, csr {csr})")
        return
    if streamed:
        ratio = peak / (csr + peak)
        if ratio > MAX_STREAMED_PEAK_RATIO:
            failures.append(
                f"{name}: peak_state_bytes {peak} is {ratio:.0%} of the "
                f"materialized cost ({csr} CSR + identical state) — above "
                f"the {MAX_STREAMED_PEAK_RATIO:.0%} ceiling; the streamed "
                "topology was likely silently materialized"
            )
    wall_budget = WALL_BUDGETS_MS.get(name)
    if wall_budget is not None and entry["wall_ms"] > wall_budget:
        failures.append(
            f"{name}: wall_ms {entry['wall_ms']:.0f} exceeds the pinned "
            f"budget {wall_budget:.0f} — the flagship run regressed"
        )


def main() -> int:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_pipeline.json"
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)

    failures = []
    schema = data.get("schema")
    if schema != EXPECTED_SCHEMA:
        failures.append(f"schema {schema} != expected {EXPECTED_SCHEMA}")

    seen = set()
    for entry in data.get("entries", []):
        seen.add(entry.get("name"))
        check_entry(entry, failures)

    missing = set(ROUND_BUDGETS) - seen
    if missing:
        failures.append(f"missing pipeline entries: {sorted(missing)}")

    # The ladder's whole point is repairing locally before escalating: at
    # least one degraded entry must have fired a rung-1 ring repair, or the
    # staged ladder has silently degenerated back to flood-only recovery.
    degraded = [
        e
        for e in data.get("entries", [])
        if e.get("scenario", {}).get("faults", "none") != "none"
    ]
    if degraded and not any(e.get("ring_repairs", 0) > 0 for e in degraded):
        failures.append(
            "no degraded entry fired a ring-local repair (ring_repairs == 0 "
            "everywhere) — the recovery ladder's first rung never engages"
        )

    micro = data.get("idle_microbench", {})
    speedup = micro.get("speedup", 0.0)
    if speedup < MIN_MICROBENCH_SPEEDUP:
        failures.append(
            f"idle microbench speedup {speedup:.1f}x below the "
            f"{MIN_MICROBENCH_SPEEDUP:.0f}x floor"
        )

    check_sweep(data, failures)

    if failures:
        print(f"{path}: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1

    sweep = data["sweep"]
    print(
        f"{path}: OK — "
        + ", ".join(
            f"{e['name']}={e['rounds']}r/{e['act_skips']}skips"
            for e in data["entries"]
        )
        + f"; microbench {speedup:.0f}x"
        + f"; sweep {sweep['speedup']:.2f}x on {sweep['workers']} worker(s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
