//! The adaptive (quiescence-driven) driver skeleton shared by the Theorem 1.1
//! and Theorem 1.3 pipelines.
//!
//! Both pipelines run the same machine: a collision wave, parallel per-ring
//! GST construction, then ring-by-ring dissemination with handoffs. Open-ended
//! phases interleave dedicated *status rounds* in which exactly the nodes with
//! pending work transmit a content-free beep, and the driver advances the
//! shared phase cursor once the channel stays silent (see `single_message`
//! for the in-model justification). This module holds that machine once:
//!
//! * [`Cursor`] — the shared per-round directive every node reads: idle, a
//!   published work [`Segment`], or a status probe.
//! * `Pump` — owns the simulator and the cursor cell; publishes segments,
//!   runs status rounds (majority-voted under faults, see [`vote_quiet`]),
//!   runs the open-ended `window` loop, and tracks completion, the worst-case
//!   round pool and the resident-state peak. It is generic over the node
//!   type through the crate-private `PipelineNode` trait.
//! * The recovery policy — the handoff retry ([`HANDOFF_RETRIES`]), the
//!   staged [`Ladder`] and its rung-3 no-knowledge fallback — written once as
//!   generic functions over the crate-private `PipelineDriver` trait, which
//!   each pipeline implements with only what differs: its handoff window,
//!   its rung-1 ring repair and its rung-2 regional window.
//! * The construction skip loop: [`ConsProbe`] enumerates the construction
//!   status probes, [`answer_cons_probe`] evaluates one against a node's
//!   construction state, and [`drive_construction`] skips quiescent rank
//!   blocks, epochs and recruiting tails through the [`ConsDriver`] hooks.
//!
//! ## Segment pacing
//!
//! The pump does not set the cursor and step the simulator once per round.
//! It *publishes* a whole [`Segment`] — the simulator round it starts at,
//! its length, and the phase position of its first round — and executes it
//! with `Simulator::run_segment`, which runs on the engine's wake-list fast
//! path (acts cost `O(awake)`; fully-idle stretches fast-forward in `O(1)`).
//! Nodes derive their per-round phase position from the published segment
//! (`pos.advanced(round - start)`), and their `next_wake` hints are *clamped
//! to the segment end*: every node is polled again on the first round after
//! the segment, which is exactly when the driver publishes the next segment
//! or runs a status round. That clamp is the invariant that makes arbitrary
//! driver decisions (probe outcomes, block skips, early phase closure) safe
//! under wake hints — a sleeping node can never miss a cursor change,
//! because every cursor change happens at a round where everyone is awake.
//!
//! Mid-segment completion detection stays exact: `run_segment` stops after
//! any round that delivered a packet (the only rounds in which a
//! reception-driven completion predicate can flip), the pump re-scans, and
//! resumes the remainder. The executed round sequence is bit-identical to
//! per-round stepping — [`Pacing::PerStep`] keeps that regime available for
//! the equivalence suites.

use crate::construction::{ConstructionSchedule, GstConstructionNode};
use crate::params::Params;
use crate::run::Phases;
use radio_sim::trace::RoundStats;
use radio_sim::{Action, NodeId, Observation, Protocol, Simulator, Topology, Wake};
use std::cell::Cell;
use std::rc::Rc;

/// How an adaptive pipeline driver pumps the simulator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Pacing {
    /// Publish batched work [`Segment`]s and run them through the engine's
    /// wake-list fast path (the default; rounds cost `O(awake)`).
    #[default]
    Segment,
    /// Poll every node every round (cursor-mode nodes answer `Wake::Now`),
    /// reproducing the pre-segment behavior round for round. Kept for the
    /// segment-vs-per-step equivalence suites and for A/B benchmarks.
    PerStep,
}

/// A phase position that can be advanced by a number of work rounds — the
/// geometry half of a [`Segment`].
pub trait Advance: Copy {
    /// The position `delta` work rounds later (same phase, offset shifted).
    fn advanced(self, delta: u64) -> Self;
}

/// A published run of consecutive work rounds sharing one schedule geometry.
///
/// The driver sets the shared cursor cell to a segment *once*; every node
/// then resolves the phase position of simulator round `r` in
/// `start <= r < start + len` as `pos.advanced(r - start)` and may hint
/// itself asleep up to (but never past) `end()`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment<P> {
    /// Simulator round of the segment's first work round.
    pub start: u64,
    /// Number of consecutive work rounds published.
    pub len: u64,
    /// Phase position of round `start`.
    pub pos: P,
}

impl<P: Advance> Segment<P> {
    /// First simulator round *after* the segment — the round at which every
    /// node's clamped wake hint fires and the driver publishes its next step.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The phase position of simulator round `round`, or `None` outside the
    /// segment.
    pub fn pos_at(&self, round: u64) -> Option<P> {
        (self.start..self.end()).contains(&round).then(|| self.pos.advanced(round - self.start))
    }
}

/// The shared per-round directive: what kind of round the pipeline is in.
///
/// All nodes observe the same status-round transcript (via the idealized
/// echo, see the `single_message` module docs), so they all hold the same
/// cursor; the cell materializes that shared knowledge without touching the
/// `Protocol` trait. `P` is the pipeline's phase position, `Q` its status
/// probe.
///
/// Work rounds are published as whole [`Segment`]s (start round + schedule
/// geometry, set once per batch): nodes resolve a round's phase position
/// from the segment, and their wake hints may sleep them through the rounds
/// of the segment in which they are provably inert — never past its end, so
/// every cursor change finds all nodes awake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cursor<P, Q> {
    /// Before the first round.
    Idle,
    /// A published segment of work rounds of the current phase.
    Work(Segment<P>),
    /// A status round probing for pending work.
    Status(Q),
}

/// Shared handle to a pipeline's current [`Cursor`].
pub type CursorCell<P, Q> = Rc<Cell<Cursor<P, Q>>>;

/// How an adaptive open-ended window closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowEnd {
    /// The status probe quiesced (or the run completed): the phase's work is
    /// done and the cursor may advance.
    Quiesced,
    /// The budget ran out with the probe still busy. Under faults this is a
    /// *failed handoff* — the confirmation the driver was waiting for never
    /// came — and triggers the retry-with-backoff path.
    Exhausted,
}

/// Status reads a majority vote spans: the triggering read plus up to
/// `VOTE_WINDOW - 1` confirmation rounds.
pub const VOTE_WINDOW: u32 = 3;

/// Failed-handoff re-publications (with doubled budgets) before a driver
/// gives up on re-running the window verbatim and climbs the recovery
/// [`Ladder`]. One retry: with a staged ladder behind it, a second verbatim
/// re-run at 4–8× budget is strictly worse than a rung-1 ring-local repair.
pub const HANDOFF_RETRIES: u32 = 1;

/// Shared bookkeeping of the staged recovery ladder.
///
/// When a handoff window exhausts its [`HANDOFF_RETRIES`], the drivers no
/// longer jump straight to the no-knowledge Decay flood; they shed structure
/// *incrementally* (the Czumaj–Davies regime of graceful operation with
/// progressively less knowledge):
///
/// * **rung 1 — ring-local repair**: re-run only the failed ring's
///   construction/dissemination with fresh budget, keeping every other
///   ring's GST intact, then retry the handoff;
/// * **rung 2 — regional re-dissemination**: a Decay flood confined to the
///   failed ring ± 1, covering churn/mobility that moved the frontier out of
///   the ring bookkeeping;
/// * **rung 3 — the global no-knowledge flood**, reached only after rungs
///   1–2 fail, with its entry round recorded.
///
/// The ladder enforces the rung order: the drivers gate each rung on the
/// previous one having been attempted at least once in the run, so the
/// recovery counters (`ring_repairs`, `regional_repairs`, `fallback_rounds`
/// in `RunStats`) are monotone — a nonzero rung-3 count implies nonzero
/// rung-2 and rung-1 counts. Like every recovery path it is armed only under
/// a declared fault plan; `FaultPlan::none()` runs never touch it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ladder {
    ring_attempted: bool,
    regional_attempted: bool,
    fallback_entry: Option<u64>,
}

impl Ladder {
    /// A ladder with no rungs climbed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a rung-1 (ring-local repair) attempt.
    pub fn ring(&mut self) {
        self.ring_attempted = true;
    }

    /// Records a rung-2 (regional re-dissemination) attempt.
    pub fn regional(&mut self) {
        debug_assert!(self.ring_attempted, "rung 2 armed before rung 1 was attempted");
        self.regional_attempted = true;
    }

    /// Whether rung 1 has been attempted in this run.
    pub fn ring_attempted(&self) -> bool {
        self.ring_attempted
    }

    /// Whether rung 2 has been attempted in this run.
    pub fn regional_attempted(&self) -> bool {
        self.regional_attempted
    }

    /// Whether the global flood (rung 3) may be armed: both lower rungs have
    /// been attempted.
    pub fn may_fall_back(&self) -> bool {
        self.ring_attempted && self.regional_attempted
    }

    /// Records the round the rung-3 flood entered (first arming wins).
    pub fn arm_fallback(&mut self, round: u64) {
        debug_assert!(self.may_fall_back(), "rung 3 armed before rungs 1-2 were attempted");
        if self.fallback_entry.is_none() {
            self.fallback_entry = Some(round);
        }
    }

    /// The round the rung-3 flood entered, `None` if the run never fell
    /// back.
    pub fn fallback_entry(&self) -> Option<u64> {
        self.fallback_entry
    }
}

/// Number of recent dissemination-window samples the sliding-window erasure
/// estimator averages over.
pub const LOSS_WINDOW: usize = 4;

/// Sliding-window erasure estimator driving the multi-message pipeline's
/// handoff FEC repair rate.
///
/// PR 7 adapted the `fec_repair` knob to the *cumulative* erased/delivered
/// totals, so the repair schedule ratcheted toward maximum aggression after
/// any bursty interval and never relaxed. This estimator keeps the same
/// gate-compression map ([`windowed_repair`]) but feeds it only the last
/// [`LOSS_WINDOW`] per-window `(erased, delivered)` deltas, so a burst ages
/// out of the estimate after `LOSS_WINDOW` clean windows and the repair
/// schedule relaxes back to the configured knob.
#[derive(Clone, Debug)]
pub struct LossEstimator {
    knob: u32,
    samples: [(u64, u64); LOSS_WINDOW],
    next: usize,
    last: (u64, u64),
}

impl LossEstimator {
    /// An estimator with configured repair ceiling `knob` and an empty
    /// sample window.
    pub fn new(knob: u32) -> Self {
        LossEstimator { knob, samples: [(0, 0); LOSS_WINDOW], next: 0, last: (0, 0) }
    }

    /// Feeds the run's cumulative `(erased, delivered)` totals at a window
    /// boundary; the delta since the previous call becomes one sample,
    /// evicting the oldest. Returns the effective repair rate over the
    /// refreshed window.
    pub fn observe(&mut self, erased: u64, delivered: u64) -> u32 {
        let delta = (erased.saturating_sub(self.last.0), delivered.saturating_sub(self.last.1));
        self.last = (erased, delivered);
        self.samples[self.next] = delta;
        self.next = (self.next + 1) % LOSS_WINDOW;
        self.effective()
    }

    /// The effective repair rate for the current window contents.
    pub fn effective(&self) -> u32 {
        let (erased, delivered) =
            self.samples.iter().fold((0u64, 0u64), |(e, d), s| (e + s.0, d + s.1));
        windowed_repair(self.knob, erased, delivered)
    }
}

/// The gate-compression map from measured erasures to a handoff repair rate:
/// halves `knob` (toward `1`, the most aggressive repair emission) per
/// doubling of `erased` above ~1% of the observed traffic. Clean windows
/// (`erased == 0`) and the paper's full-cycle gate (`knob == 0`) pass
/// through untouched.
pub fn windowed_repair(knob: u32, erased: u64, delivered: u64) -> u32 {
    if knob == 0 || erased == 0 {
        return knob;
    }
    let total = erased + delivered;
    let mut gate = total.div_ceil(100).max(1);
    let mut r = knob;
    while r > 1 && erased >= gate {
        r /= 2;
        gate *= 2;
    }
    r
}

/// Whether a round's status read was touched by a channel-level fault (an
/// erased packet copy or a jam injection) and its verdict is therefore
/// suspect. Topology churn does not corrupt a status read: the transmit
/// census is taken before the channel resolves.
fn fault_touched(r: &RoundStats) -> bool {
    r.erased + r.jammed > 0
}

/// What the channel actually rendered to listeners in a status round: quiet
/// iff nobody heard a packet or a collision. Unlike the transmit census this
/// is what an in-model observer could know on a faulted channel — an erased
/// beep renders quiet, a jam renders busy.
fn rendered_quiet(r: &RoundStats) -> bool {
    r.deliveries + r.collisions == 0
}

/// Outcome of a majority-voted quiescence decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VoteOutcome {
    /// The voted verdict: `true` = the probe quiesced.
    pub quiet: bool,
    /// Whether the vote overturned the single-round decision the pre-voting
    /// driver would have taken on `first` alone.
    pub overturned: bool,
}

/// Whether a status read decides its verdict on its own, and if so which.
/// `None` means the read is ambiguous and needs confirmation.
///
/// * A fault-clean read keeps the channel-census verdict
///   (`transmitters == 0`) untouched.
/// * An erasure-only read (`jammed == 0`) that rendered *busy* is
///   authoritative busy: erasure deletes signal but never fabricates it, so
///   audible activity is real. Only an erasure-touched read that rendered
///   quiet is suspect (the beeps may all have been erased).
/// * A jam-touched read decides nothing by itself — jams fabricate
///   collisions, so both renderings are suspect.
fn self_deciding(r: &RoundStats) -> Option<bool> {
    if !fault_touched(r) {
        return Some(r.transmitters == 0);
    }
    (r.jammed == 0 && !rendered_quiet(r)).then_some(false)
}

/// Majority-voted quiescence verdict over a small window of status reads.
///
/// `first` is the status round the caller just executed. A self-deciding
/// read (see `self_deciding`: fault-clean, or audibly busy under
/// erasure-only faults) keeps its verdict untouched — on a run without
/// faults every read is clean, so the voting layer is provably bit-identical
/// to the single-round driver. An ambiguous read is demoted to what the
/// channel actually rendered to listeners and confirmed by up to
/// [`VOTE_WINDOW`]` - 1` re-probes via `revote`: the first self-deciding
/// re-read is authoritative, otherwise the majority of the renderings wins
/// (ties count as busy — the conservative direction, since a busy verdict
/// only keeps the window open).
///
/// `votable` must be `false` for *consuming* probes (the take-style
/// wave-progress and new-activation reads): re-probing them would eat the
/// dirty flag the first read already consumed, so their single-round verdict
/// stands.
pub fn vote_quiet(
    first: RoundStats,
    votable: bool,
    mut revote: impl FnMut() -> RoundStats,
) -> VoteOutcome {
    let census_quiet = first.transmitters == 0;
    if !votable {
        return VoteOutcome { quiet: census_quiet, overturned: false };
    }
    if let Some(quiet) = self_deciding(&first) {
        return VoteOutcome { quiet, overturned: quiet != census_quiet };
    }
    let mut quiet_votes = usize::from(rendered_quiet(&first));
    let mut reads = 1usize;
    let mut authoritative = None;
    while reads < VOTE_WINDOW as usize {
        let r = revote();
        reads += 1;
        if let Some(verdict) = self_deciding(&r) {
            authoritative = Some(verdict);
            break;
        }
        quiet_votes += usize::from(rendered_quiet(&r));
    }
    let quiet = authoritative.unwrap_or(2 * quiet_votes > reads);
    VoteOutcome { quiet, overturned: quiet != census_quiet }
}

/// Runs a pipeline node's `act` and, in debug builds, checks its wake-hint
/// contract: a node whose hint postponed past `round` must not transmit if
/// polled anyway (the dense and per-step A/B paths poll everyone).
pub(crate) fn checked_act<N: Protocol>(
    node: &mut N,
    id: u32,
    round: u64,
    act: impl FnOnce(&mut N) -> Action<N::Msg>,
) -> Action<N::Msg> {
    let hinted_idle = cfg!(debug_assertions)
        && match node.next_wake(round) {
            Wake::Now => false,
            Wake::At(r) => r > round,
            Wake::Idle => true,
        };
    let action = act(node);
    debug_assert!(
        !(hinted_idle && action.is_transmit()),
        "hinted-idle node {id} transmitted at round {round}"
    );
    action
}

/// A pipeline observation as one sub-protocol sees it: packets `pick`
/// rejects are silence to it; collisions and self-transmits pass through.
pub(crate) fn narrow<M, S>(
    obs: &Observation<M>,
    pick: impl FnOnce(&M) -> Option<S>,
) -> Observation<S> {
    match obs {
        Observation::Message(p) => pick(p).map_or(Observation::Silence, Observation::packet),
        Observation::Collision => Observation::Collision,
        Observation::SelfTransmit => Observation::SelfTransmit,
        Observation::Silence => Observation::Silence,
    }
}

/// Construction status probes: what a dedicated status round asks the
/// nodes. Probes address ring-local boundaries/ranks, so one probe covers
/// every ring at once (parallel ring constructions share the phase cursor).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConsProbe {
    /// "Are you an unassigned blue of this `(boundary, rank)`?"
    OpenBlue {
        /// Ring-local blue level.
        boundary: u32,
        /// Rank subproblem.
        rank: u32,
    },
    /// "An unassigned blue of rank strictly below `rank`?"
    /// (a potential Stage III adopter).
    OpenBlueBelow {
        /// Ring-local blue level.
        boundary: u32,
        /// Rank subproblem.
        rank: u32,
    },
    /// "An active red of this boundary?"
    ActiveRed {
        /// Ring-local blue level.
        boundary: u32,
    },
    /// "Did you activate since the last status round?"
    NewActivation,
    /// "A loner blue with a Stage Ib announcement pending?"
    LonerBlue {
        /// Ring-local blue level.
        boundary: u32,
    },
    /// "A red that would participate in recruiting `part`?"
    PartRed {
        /// Ring-local blue level.
        boundary: u32,
        /// Recruiting part 1–3.
        part: u8,
    },
    /// "A red actually participating in the running part?"
    PartParticipant,
    /// "A blue whose recruiting run is still unresolved?"
    UnresolvedBlue,
    /// "A red ranked this epoch (Stage III announcer)?"
    NewlyRanked {
        /// Ring-local blue level.
        boundary: u32,
    },
}

/// Evaluates a construction status probe against one node's construction
/// state: `true` means the node transmits a beep in that status round.
pub fn answer_cons_probe(c: &mut GstConstructionNode, probe: ConsProbe) -> bool {
    match probe {
        ConsProbe::OpenBlue { boundary, rank } => c.probe_open_blue(boundary, rank),
        ConsProbe::OpenBlueBelow { boundary, rank } => c.probe_open_blue_below(boundary, rank),
        ConsProbe::ActiveRed { boundary } => c.probe_active_red(boundary),
        ConsProbe::NewActivation => c.take_new_activation(),
        ConsProbe::LonerBlue { boundary } => c.probe_loner_blue(boundary),
        ConsProbe::PartRed { boundary, part } => c.probe_part_red(boundary, part),
        ConsProbe::PartParticipant => c.probe_part_participant(),
        ConsProbe::UnresolvedBlue => c.probe_unresolved_blue(),
        ConsProbe::NewlyRanked { boundary } => c.probe_newly_ranked_red(boundary),
    }
}

/// The driver-side hooks [`drive_construction`] needs.
pub trait ConsDriver {
    /// Runs one construction status round for `probe`, charged against the
    /// driver's construction status budget. `Some(true)` iff the channel
    /// stayed silent; `None` once the budget is exhausted (the loop bails
    /// out and the fixed-schedule cap takes over).
    fn cons_quiet(&mut self, probe: ConsProbe) -> Option<bool>;

    /// Runs `len` slotted construction work rounds starting at (unslotted)
    /// schedule round `start`: two simulator rounds per schedule round, one
    /// per ring parity.
    fn cons_run(&mut self, start: u64, len: u64);

    /// Whether the enclosing pipeline already completed (early exit).
    fn finished(&self) -> bool;
}

/// The construction phase driver: parallel per-ring GST construction with
/// quiescence skipping. Rank blocks with no open blues are skipped outright;
/// Identify ends when activations stop; epochs end when every blue is
/// assigned or no red is active; recruiting parts end when no red
/// participates or every blue's run resolved; Stage Ib/III run only when
/// they have announcers (and, for Stage III, adopters).
///
/// The caller is responsible for running the per-node construction epilogue
/// (`GstConstructionNode::finalize`) afterwards — the adaptive loop may have
/// skipped the later blocks through which the fixed schedule reaches that
/// state lazily.
pub fn drive_construction(d: &mut impl ConsDriver, cons: ConstructionSchedule) {
    let iteration = cons.recruit_iteration_rounds();
    let iterations = cons.recruit_rounds() / iteration;
    let phase_len = u64::from(cons.phase_len());
    let ident_phases = cons.decay_step() / phase_len.max(1);
    for boundary in (1..=cons.d_bound).rev() {
        for rank in (1..=cons.max_rank()).rev() {
            if d.finished() {
                return;
            }
            match d.cons_quiet(ConsProbe::OpenBlue { boundary, rank }) {
                Some(true) => continue, // no open blues anywhere: skip block
                Some(false) => {}
                None => return,
            }
            // Identify prologue, phase by phase until activations stop.
            let block = cons.rank_block_start(boundary, rank);
            for ph in 0..ident_phases {
                d.cons_run(block + ph * phase_len, phase_len);
                match d.cons_quiet(ConsProbe::NewActivation) {
                    Some(true) => break,
                    Some(false) => {}
                    None => return,
                }
            }
            for epoch in 0..cons.epochs() {
                match d.cons_quiet(ConsProbe::OpenBlue { boundary, rank }) {
                    Some(true) => break, // every blue assigned
                    Some(false) => {}
                    None => return,
                }
                match d.cons_quiet(ConsProbe::ActiveRed { boundary }) {
                    Some(true) => break, // no red left to assign them
                    Some(false) => {}
                    None => return,
                }
                let e0 = cons.epoch_start(boundary, rank, epoch);
                d.cons_run(e0, 1); // Stage Ia beacons
                match d.cons_quiet(ConsProbe::LonerBlue { boundary }) {
                    Some(true) => {} // no loners: skip Stage Ib
                    Some(false) => d.cons_run(e0 + 1, cons.decay_step()),
                    None => return,
                }
                for part in 1..=3u8 {
                    match d.cons_quiet(ConsProbe::PartRed { boundary, part }) {
                        Some(true) => continue, // no reds for this part
                        Some(false) => {}
                        None => return,
                    }
                    let p0 =
                        e0 + 1 + cons.decay_step() + u64::from(part - 1) * cons.recruit_rounds();
                    for i in 0..iterations {
                        d.cons_run(p0 + i * iteration, iteration);
                        let probe = if i == 0 {
                            ConsProbe::PartParticipant
                        } else {
                            ConsProbe::UnresolvedBlue
                        };
                        match d.cons_quiet(probe) {
                            Some(true) => break,
                            Some(false) => {}
                            None => return,
                        }
                    }
                }
                // Stage III runs only with announcers *and* adopters.
                match d.cons_quiet(ConsProbe::NewlyRanked { boundary }) {
                    Some(true) => continue,
                    Some(false) => {}
                    None => return,
                }
                match d.cons_quiet(ConsProbe::OpenBlueBelow { boundary, rank }) {
                    Some(true) => continue,
                    Some(false) => {}
                    None => return,
                }
                d.cons_run(
                    e0 + 1 + cons.decay_step() + 3 * cons.recruit_rounds(),
                    cons.decay_step(),
                );
            }
        }
    }
}

/// Status rounds the construction driver can spend, per the formula PR 2
/// established: per rank block one rank-skip probe, one per Identify phase,
/// and per epoch the open-blue / active-red / loner probes, per-part gates
/// plus one probe per recruiting iteration, and the two Stage III gates.
pub fn cons_status_budget(params: &crate::params::Params, cons: &ConstructionSchedule) -> u64 {
    let iterations = u64::from(params.recruit_iterations.max(1));
    let per_epoch_status = 5 + 3 * (1 + iterations);
    let per_rank_status =
        1 + u64::from(params.decay_phases) + u64::from(cons.epochs()) * per_epoch_status;
    u64::from(cons.d_bound) * u64::from(params.max_rank()) * per_rank_status
}

/// The node side of the skeleton: what the [`Pump`] needs from a pipeline's
/// protocol state.
pub(crate) trait PipelineNode: Protocol {
    /// The pipeline's phase position (the geometry of a work [`Segment`]).
    type Pos: Advance;
    /// The pipeline's status probe.
    type Probe: Copy;

    /// The 2-slotted construction work position at slotted `offset`.
    fn construct(offset: u64) -> Self::Pos;

    /// The probe carrying a construction status probe.
    fn cons(probe: ConsProbe) -> Self::Probe;

    /// Whether answering `probe` consumes a dirty flag (the take-style
    /// wave-progress and new-activation reads): such probes are never
    /// re-probed by a vote.
    fn consuming(probe: Self::Probe) -> bool;

    /// The completion predicate: the node holds every message.
    fn complete(&self) -> bool;

    /// Resident bytes of the node's protocol state (struct granularity).
    fn resident_bytes(&self) -> usize;
}

/// Rounds-by-phase counter a window charges its work rounds to.
pub(crate) type Count = fn(&mut Phases) -> &mut u64;

/// The simulator pump both adaptive drivers run on: it owns the simulator
/// and the shared cursor cell, advances phases on status-round quiescence,
/// and tracks completion, the worst-case round pool, the recovery [`Ladder`]
/// and the resident-state peak.
pub(crate) struct Pump<N: PipelineNode, T: Topology> {
    pub(crate) sim: Simulator<N, T>,
    cursor: CursorCell<N::Pos, N::Probe>,
    beep: u64,
    quiescence_slack: u32,
    /// The plan's worst-case cap (`total_rounds()`).
    cap: u64,
    pub(crate) completion: Option<u64>,
    /// Whether the recovery paths (status voting, handoff retry, the staged
    /// ladder) are armed — true exactly when the simulator carries a fault
    /// plan, so `FaultPlan::none()` runs stay bit-identical by construction.
    pub(crate) recovery: bool,
    pub(crate) ladder: Ladder,
    /// Rounds actually spent, by phase.
    pub(crate) phases: Phases,
    /// Status-round budget of the budgeted phase in progress (construction,
    /// labeling, or a rung-1 repair). The driver refills it on entering such
    /// a phase; `status_quiet` and every vote re-probe draw from it, so a
    /// phase's status accounting cannot outgrow its cap just because votes
    /// fired. Re-probes in unbudgeted windows draw from a budget nobody reads
    /// before its next refill.
    pub(crate) status_left: u64,
    /// Peak of the phase-boundary node-state samples (see `sample_state`).
    peak_nodes: usize,
}

impl<N: PipelineNode, T: Topology> Pump<N, T> {
    /// A pump over `sim`, whose nodes all read `cursor`; `cap` is the plan's
    /// worst-case total and `status_left` the construction status budget.
    pub(crate) fn new(
        sim: Simulator<N, T>,
        cursor: CursorCell<N::Pos, N::Probe>,
        params: &Params,
        cap: u64,
        status_left: u64,
    ) -> Self {
        Pump {
            completion: sim.nodes().iter().all(N::complete).then_some(0),
            recovery: sim.has_faults(),
            sim,
            cursor,
            beep: u64::from(params.beep_interval.max(1)),
            quiescence_slack: params.quiescence_slack,
            cap,
            ladder: Ladder::new(),
            phases: Phases::default(),
            status_left,
            peak_nodes: 0,
        }
    }

    /// Moves the shared cursor: every cell change force-wakes all nodes
    /// (their hints were computed against the outgoing cell).
    fn publish(&mut self, cursor: Cursor<N::Pos, N::Probe>) {
        self.sim.wake_all();
        self.cursor.set(cursor);
    }

    /// Runs the driver echo `f` on every node (an idealized status-round
    /// announcement, like the finalize and retire sweeps).
    pub(crate) fn echo(&mut self, mut f: impl FnMut(&mut N)) {
        for i in 0..self.sim.nodes().len() {
            f(self.sim.node_mut(NodeId::new(i)));
        }
    }

    /// Samples the resident protocol state (an `O(n)` sweep, run only at
    /// phase boundaries) and folds it into the peak. The phase structure
    /// makes boundary sampling exact enough: sub-states are created and
    /// retired only at the boundaries the driver itself publishes.
    pub(crate) fn sample_state(&mut self) {
        let nodes: usize = self.sim.nodes().iter().map(N::resident_bytes).sum();
        self.peak_nodes = self.peak_nodes.max(nodes);
    }

    /// Peak resident bytes of topology plus sampled protocol state.
    pub(crate) fn peak_state_bytes(&self) -> usize {
        self.sim.graph().resident_bytes() + self.peak_nodes
    }

    /// Records completion at the current round if every node is complete.
    pub(crate) fn scan(&mut self) {
        if self.completion.is_none() && self.sim.nodes().iter().all(N::complete) {
            self.completion = Some(self.sim.round());
        }
    }

    fn exec(&mut self, cursor: Cursor<N::Pos, N::Probe>) -> RoundStats {
        self.publish(cursor);
        let stats = self.sim.step();
        // Completion flips only when a packet arrives, so the O(n) all-nodes
        // scan is needed only after delivery rounds.
        if stats.deliveries > 0 {
            self.scan();
        }
        stats
    }

    /// Publishes `len` consecutive work rounds starting at phase position
    /// `pos` as one [`Segment`] and runs them through the engine's wake fast
    /// path. Stops after any round that delivered a packet to re-evaluate
    /// completion (exactly the per-step driver's delivery-gated scan), then
    /// resumes the remainder; aborts once complete. Returns the number of
    /// rounds actually executed.
    pub(crate) fn exec_segment(&mut self, pos: N::Pos, len: u64) -> u64 {
        let start = self.sim.round();
        self.publish(Cursor::Work(Segment { start, len, pos }));
        let mut run = 0u64;
        while run < len && !self.done() {
            let seg = self.sim.run_segment(len - run, true);
            run += seg.rounds;
            if seg.stopped_on_delivery {
                self.scan();
            }
        }
        run
    }

    pub(crate) fn done(&self) -> bool {
        self.completion.is_some()
    }

    /// Rounds left under the plan's worst-case cap — the pool the recovery
    /// paths (handoff retries, ladder rungs, the fallback flood) draw from.
    pub(crate) fn budget_left(&self) -> u64 {
        self.cap.saturating_sub(self.sim.round())
    }

    /// Runs one status round; `true` iff the probe quiesced.
    ///
    /// On a fault-free run the verdict is the single-round channel census
    /// ("did anybody transmit?"). With faults armed, a fault-touched read is
    /// demoted to the channel's listener-side rendering and majority-voted
    /// over a small window of re-probes (see [`vote_quiet`]); consuming
    /// probes are never re-probed.
    pub(crate) fn quiet(&mut self, probe: N::Probe) -> bool {
        self.phases.status += 1;
        let first = self.exec(Cursor::Status(probe));
        if !self.recovery {
            return first.transmitters == 0;
        }
        let v = vote_quiet(first, !N::consuming(probe), || {
            self.phases.status += 1;
            self.status_left = self.status_left.saturating_sub(1);
            self.exec(Cursor::Status(probe))
        });
        if v.overturned {
            self.sim.stats_mut().votes_overturned += 1;
        }
        v.quiet
    }

    /// A status round charged against `status_left`; `None` once that budget
    /// is exhausted.
    pub(crate) fn status_quiet(&mut self, probe: N::Probe) -> Option<bool> {
        if self.status_left == 0 {
            return None;
        }
        self.status_left -= 1;
        Some(self.quiet(probe))
    }

    /// One adaptive open-ended window: a `beep_interval`-round work segment,
    /// one status round, until the probe has stayed quiet for
    /// `quiescence_slack` consecutive status rounds or `budget` (work +
    /// status rounds, including any vote re-probes) is exhausted. With
    /// `probe_first`, the probe runs before any work — a window with nothing
    /// pending collapses to a single status round (the handoff-skip case).
    ///
    /// Returns whether the window ended on quiescence or by exhausting its
    /// budget with the probe still busy — the failed-handoff signal the retry
    /// logic keys on.
    pub(crate) fn window(
        &mut self,
        budget: u64,
        probe: N::Probe,
        probe_first: bool,
        pos_at: impl Fn(u64) -> N::Pos,
        count: Count,
    ) -> WindowEnd {
        let slack = self.quiescence_slack.max(1);
        let start = self.sim.round();
        let mut offset = 0u64;
        let mut quiet_streak = 0u32;
        let spent = |sim: &Simulator<N, T>| sim.round() - start;
        if probe_first && !self.done() && self.quiet(probe) {
            return WindowEnd::Quiesced;
        }
        while spent(&self.sim) < budget && !self.done() {
            let run = self.exec_segment(pos_at(offset), self.beep.min(budget - spent(&self.sim)));
            *count(&mut self.phases) += run;
            offset += run;
            if spent(&self.sim) >= budget || self.done() {
                break;
            }
            if self.quiet(probe) {
                quiet_streak += 1;
                if quiet_streak >= slack {
                    return WindowEnd::Quiesced;
                }
            } else {
                quiet_streak = 0;
            }
        }
        if self.done() {
            WindowEnd::Quiesced
        } else {
            WindowEnd::Exhausted
        }
    }
}

/// The main construction phase: every ring at once, 2-slotted by ring
/// parity, status rounds drawn from `status_left`.
impl<N: PipelineNode, T: Topology> ConsDriver for Pump<N, T> {
    fn cons_quiet(&mut self, probe: ConsProbe) -> Option<bool> {
        self.status_quiet(N::cons(probe))
    }

    fn cons_run(&mut self, start: u64, len: u64) {
        // One segment covering the whole 2-slotted sub-window; the shared
        // skip loop only ever requests runs within a single construction
        // schedule segment, which is what keeps `may_act_in` hints valid
        // across the batch.
        let run = self.exec_segment(N::construct(2 * start), 2 * len);
        self.phases.construct += run;
    }

    fn finished(&self) -> bool {
        self.done()
    }
}

/// What differs between the pipelines' recovery paths. `at` is the ring
/// (Theorem 1.1) or window (Theorem 1.3) whose handoff failed.
pub(crate) trait PipelineDriver {
    /// The pipeline's node type.
    type Node: PipelineNode;
    /// The topology the run is over.
    type Topo: Topology;
    /// Phase position of the rung-3 fallback flood's first round.
    const FALLBACK: <Self::Node as PipelineNode>::Pos;

    /// The shared pump.
    fn pump(&mut self) -> &mut Pump<Self::Node, Self::Topo>;

    /// The plan's cap on one handoff window.
    fn handoff_budget(&self) -> u64;

    /// Runs the handoff window after `at` with `budget`, charging its work
    /// rounds to `count`.
    fn handoff(&mut self, at: u32, budget: u64, count: Count) -> WindowEnd;

    /// Rung 1 past the shared bookkeeping: repair the failed ring locally
    /// and replay its handoff, every budget clamped to the pump's
    /// `budget_left()`. `true` iff the run completed or the handoff
    /// quiesced.
    fn repair(&mut self, at: u32) -> bool;

    /// Rung 2's regional re-dissemination window, with `budget` already
    /// clamped to the remaining pool.
    fn regional(&mut self, at: u32, budget: u64) -> WindowEnd;
}

/// Runs the handoff after `at` with retry-and-backoff: a window that
/// exhausts its budget while the receiving roots still beep is a *failed*
/// handoff, re-published with a doubled budget (drawn from the worst-case
/// pool) instead of advancing the cursor into a dead phase. Once the retries
/// are spent the driver climbs the recovery [`Ladder`] for `at`. Returns
/// `false` iff both lower rungs failed too: the caller abandons its ring
/// loop toward [`finish_ladder`], preserving the remaining budget.
///
/// Once the ladder has fired, the channel has already proven persistently
/// degraded: later failed handoffs skip the retry and climb immediately
/// instead of burning the backoff pool per ring.
pub(crate) fn handoff_with_retry<D: PipelineDriver>(d: &mut D, at: u32) -> bool {
    let mut budget = d.handoff_budget();
    let max_retries = if d.pump().ladder.ring_attempted() { 0 } else { HANDOFF_RETRIES };
    let mut attempt = 0u32;
    loop {
        if d.handoff(at, budget, |p| &mut p.handoff) == WindowEnd::Quiesced || !d.pump().recovery {
            return true;
        }
        if attempt >= max_retries {
            break;
        }
        attempt += 1;
        budget = (budget * 2).min(d.pump().budget_left());
        if budget == 0 {
            break;
        }
        d.pump().sim.stats_mut().retries += 1;
    }
    climb_ladder(d, at)
}

/// Climbs rungs 1–2 for `at`; `true` iff a rung recovered the handoff (or
/// the run completed outright).
fn climb_ladder<D: PipelineDriver>(d: &mut D, at: u32) -> bool {
    ring_repair(d, at) || d.pump().done() || regional_repair(d, at) || d.pump().done()
}

/// Rung 1 of the recovery [`Ladder`]: ring-local repair, armed only while
/// the worst-case pool has rounds left.
fn ring_repair<D: PipelineDriver>(d: &mut D, at: u32) -> bool {
    let pump = d.pump();
    if pump.budget_left() == 0 {
        return false;
    }
    pump.ladder.ring();
    pump.sim.stats_mut().ring_repairs += 1;
    d.repair(at)
}

/// Rung 2 of the recovery [`Ladder`]: regional re-dissemination, budgeted at
/// two handoff windows from the remaining pool.
fn regional_repair<D: PipelineDriver>(d: &mut D, at: u32) -> bool {
    let pump = d.pump();
    if pump.budget_left() == 0 {
        return false;
    }
    pump.ladder.regional();
    pump.sim.stats_mut().regional_repairs += 1;
    let budget = (2 * d.handoff_budget()).min(d.pump().budget_left());
    d.regional(at, budget) == WindowEnd::Quiesced
}

/// The staged-ladder epilogue: a faulted run that ends incomplete climbs any
/// rung it has not yet attempted — anchored at `frontier`, the last ring or
/// window — before the last resort. Rung 3, the no-knowledge Decay fallback
/// (the Czumaj–Davies regime), is reached only after rungs 1–2 both fired
/// and failed: every holder floods on the Decay schedule and every node
/// adopts ring-agnostically. True to the no-knowledge regime, rung 3 has no
/// status beeps: a vote the faults corrupt must not silence the last-resort
/// phase, so only the delivery-gated completion scan (or the cap) ends it.
///
/// # The cap argument
///
/// Why a run's executed rounds stay within the plan's `total_rounds()`:
///
/// * **Fault-free runs.** Nothing votes and nothing retries. Every phase
///   stops at its own plan cap: a window checks `spent < budget` before each
///   work segment and status round, segments are cut to the budget left, and
///   the construction and labeling loops draw status rounds from their plan
///   budgets. The caps sum to `total_rounds()`.
/// * **Recovery draws.** `budget_left()` is `total_rounds()` minus the rounds
///   executed so far, and every recovery draw is clamped to it: a retry runs
///   `min(2·budget, budget_left())`; rung 1's construction work, replay and
///   handoff windows each run `min(cap, budget_left())`, and its
///   construction status rounds stop once `budget_left()` is 0; rung 2 runs
///   `min(2·handoff, budget_left())`. A retry or rung is not armed at all
///   once `budget_left()` is 0. Rung 3 runs exactly `budget_left()` rounds,
///   so a run that reaches it and does not complete stops at
///   `total_rounds()` exactly.
/// * **Vote re-probes.** On a faulted run, the status round that passed a
///   window's `spent < budget` check can add up to [`VOTE_WINDOW`]` - 1`
///   re-probes past it, and a `probe_first` window runs its first probe
///   (with its re-probes) even on a zero budget. A clamped window therefore
///   overruns its budget by at most [`VOTE_WINDOW`] rounds. Once the cap is
///   passed, `budget_left()` saturates at 0: no further retry or rung arms,
///   but the rest of a rung already under way still runs on zero budgets,
///   where only a `probe_first` window adds rounds. Recovery draws alone
///   thus end at most `2·VOTE_WINDOW - 1` rounds past `total_rounds()`.
///
/// What this does not cover: the main pipeline's own broadcast,
/// dissemination and handoff windows run at their fixed plan caps, each
/// overrunnable by vote re-probes as above. When a retry or rung recovers a
/// handoff, the later windows spend their full caps on top of what recovery
/// drew from the pool, so such a run stays within `total_rounds()` only
/// while earlier phases left enough of their caps unspent. Adaptive phases
/// usually leave most of them, but nothing forces it; the tests check the
/// cap per run.
pub(crate) fn finish_ladder<D: PipelineDriver>(d: &mut D, frontier: u32) {
    if !d.pump().recovery || d.pump().done() {
        return;
    }
    if !d.pump().ladder.ring_attempted() {
        let _ = ring_repair(d, frontier);
    }
    if !d.pump().done() && !d.pump().ladder.regional_attempted() {
        let _ = regional_repair(d, frontier);
    }
    let pump = d.pump();
    let left = pump.budget_left();
    if pump.done() || !pump.ladder.may_fall_back() || left == 0 {
        return;
    }
    pump.ladder.arm_fallback(pump.sim.round());
    let run = pump.exec_segment(D::FALLBACK, left);
    pump.phases.fallback += run;
    pump.sim.stats_mut().fallback_rounds += run;
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_sim::{CollisionMode, FaultPlan, Graph};
    use rand::rngs::SmallRng;

    /// A node that never transmits and never completes: the fake driver's
    /// windows burn real simulator rounds without touching the channel.
    struct Mute;

    impl Protocol for Mute {
        type Msg = ();

        fn act(&mut self, _: u64, _: &mut SmallRng) -> Action<()> {
            Action::Listen
        }

        fn observe(&mut self, _: u64, _: Observation<()>, _: &mut SmallRng) {}
    }

    impl Advance for u64 {
        fn advanced(self, delta: u64) -> u64 {
            self + delta
        }
    }

    impl PipelineNode for Mute {
        type Pos = u64;
        type Probe = ConsProbe;

        fn construct(offset: u64) -> u64 {
            offset
        }

        fn cons(probe: ConsProbe) -> ConsProbe {
            probe
        }

        fn consuming(_: ConsProbe) -> bool {
            false
        }

        fn complete(&self) -> bool {
            false
        }

        fn resident_bytes(&self) -> usize {
            0
        }
    }

    /// A scripted pipeline whose windows spend their whole budget and never
    /// quiesce; rung 1 spends up to 50 rounds and recovers iff
    /// `ring_recovers`. Every call is logged as `(what, budget, budget_left)`.
    struct Fake {
        pump: Pump<Mute, Graph>,
        log: Vec<(&'static str, u64, u64)>,
        ring_recovers: bool,
    }

    impl Fake {
        fn new(cap: u64, faults: FaultPlan) -> Self {
            let g = Graph::from_edges(2, [(0, 1)]).unwrap();
            let sim = Simulator::new_with_faults(g, CollisionMode::Detection, 1, faults, |_| Mute);
            let cursor = Rc::new(Cell::new(Cursor::Idle));
            let pump = Pump::new(sim, cursor, &Params::scaled(2), cap, 0);
            Fake { pump, log: Vec::new(), ring_recovers: false }
        }

        fn faulted(cap: u64) -> Self {
            Fake::new(cap, FaultPlan::none().with_erasure(0.1))
        }

        fn burn(&mut self, what: &'static str, budget: u64) {
            self.log.push((what, budget, self.pump.budget_left()));
            self.pump.exec_segment(0, budget);
        }

        fn calls(&self) -> Vec<&'static str> {
            self.log.iter().map(|c| c.0).collect()
        }

        fn rungs(&self) -> (u64, u64, u64, u64) {
            let s = self.pump.sim.stats();
            (s.retries, s.ring_repairs, s.regional_repairs, s.fallback_rounds)
        }
    }

    impl PipelineDriver for Fake {
        type Node = Mute;
        type Topo = Graph;
        const FALLBACK: u64 = 0;

        fn pump(&mut self) -> &mut Pump<Mute, Graph> {
            &mut self.pump
        }

        fn handoff_budget(&self) -> u64 {
            100
        }

        fn handoff(&mut self, _: u32, budget: u64, _: Count) -> WindowEnd {
            self.burn("handoff", budget);
            WindowEnd::Exhausted
        }

        fn repair(&mut self, _: u32) -> bool {
            self.burn("ring", self.pump.budget_left().min(50));
            self.ring_recovers
        }

        fn regional(&mut self, _: u32, budget: u64) -> WindowEnd {
            self.burn("regional", budget);
            WindowEnd::Exhausted
        }
    }

    #[test]
    fn one_retry_before_the_first_climb_and_none_after() {
        let mut f = Fake::faulted(10_000);
        f.ring_recovers = true;
        assert!(handoff_with_retry(&mut f, 0));
        assert!(handoff_with_retry(&mut f, 1));
        assert_eq!(f.calls(), ["handoff", "handoff", "ring", "handoff", "ring"]);
        assert_eq!(f.log[1].1, 200, "the retry doubles the handoff budget");
        assert_eq!(f.rungs(), (1, 2, 0, 0));
    }

    #[test]
    fn failed_rungs_climb_in_order_and_rung_3_takes_the_remainder() {
        let mut f = Fake::faulted(10_000);
        assert!(!handoff_with_retry(&mut f, 0), "both rungs failed: abandon the pipeline");
        assert_eq!(f.calls(), ["handoff", "handoff", "ring", "regional"]);
        assert_eq!(f.log[3].1, 200, "rung 2 runs two handoff windows");
        let (round, left) = (f.pump.sim.round(), f.pump.budget_left());
        finish_ladder(&mut f, 0);
        assert_eq!(f.log.len(), 4, "attempted rungs do not fire again");
        assert_eq!(f.rungs(), (1, 1, 1, left));
        assert_eq!(f.pump.phases.fallback, left);
        assert_eq!(f.pump.ladder.fallback_entry(), Some(round));
        assert_eq!(f.pump.budget_left(), 0, "rung 3 ends exactly at the cap");
    }

    #[test]
    fn epilogue_climbs_unattempted_rungs_first() {
        let mut f = Fake::faulted(10_000);
        finish_ladder(&mut f, 3);
        assert_eq!(f.calls(), ["ring", "regional"]);
        assert_eq!(f.rungs(), (0, 1, 1, 10_000 - 250));
        assert_eq!(f.pump.sim.round(), 10_000);
    }

    #[test]
    fn every_budget_is_clamped_to_the_pool() {
        // 100 + 200 (retry) + 50 (rung 1) leaves 30 of 380 for rung 2, and
        // nothing for rung 3.
        let mut f = Fake::faulted(380);
        assert!(!handoff_with_retry(&mut f, 0));
        finish_ladder(&mut f, 0);
        assert_eq!(
            f.log,
            [("handoff", 100, 380), ("handoff", 200, 280), ("ring", 50, 80), ("regional", 30, 30)]
        );
        assert!(f.log.iter().all(|&(_, budget, left)| budget <= left));
        assert_eq!(f.pump.ladder.fallback_entry(), None);
        assert_eq!(f.pump.sim.round(), 380);
        // An empty pool arms no rung at all.
        let mut f = Fake::faulted(150);
        assert!(!handoff_with_retry(&mut f, 0));
        assert_eq!(f.log, [("handoff", 100, 150), ("handoff", 50, 50)]);
        assert_eq!(f.rungs(), (1, 0, 0, 0));
    }

    #[test]
    fn clean_runs_never_retry_or_climb() {
        let mut f = Fake::new(10_000, FaultPlan::none());
        assert!(handoff_with_retry(&mut f, 0));
        finish_ladder(&mut f, 0);
        assert_eq!(f.calls(), ["handoff"]);
        assert_eq!(f.rungs(), (0, 0, 0, 0));
    }

    #[test]
    fn ladder_rungs_are_monotone() {
        let mut l = Ladder::new();
        assert!(!l.ring_attempted() && !l.regional_attempted() && !l.may_fall_back());
        l.ring();
        assert!(l.ring_attempted() && !l.may_fall_back());
        l.regional();
        assert!(l.may_fall_back());
        assert_eq!(l.fallback_entry(), None);
        l.arm_fallback(42);
        assert_eq!(l.fallback_entry(), Some(42));
        // First arming wins: a re-arm never rewrites the recorded entry.
        l.arm_fallback(99);
        assert_eq!(l.fallback_entry(), Some(42));
    }

    #[test]
    fn windowed_repair_passthrough_cases() {
        assert_eq!(windowed_repair(0, 500, 500), 0);
        assert_eq!(windowed_repair(4, 0, 1000), 4);
        // Below ~1% of traffic the knob is untouched.
        assert_eq!(windowed_repair(4, 5, 995), 4);
    }

    #[test]
    fn windowed_repair_compresses_per_doubling() {
        // 10% erasure over 1000 copies: gate 10 -> 20 -> 40 -> 80 -> 160,
        // erased 100 crosses 10/20/40/80, so an 8-knob halves to 1.
        assert_eq!(windowed_repair(8, 100, 900), 1);
        assert_eq!(windowed_repair(4, 15, 985), 2);
    }

    #[test]
    fn loss_estimator_relaxes_after_a_burst() {
        let mut est = LossEstimator::new(4);
        assert_eq!(est.effective(), 4, "empty window keeps the configured knob");
        // A bursty interval: 20% of copies erased.
        let during_burst = est.observe(200, 800);
        assert!(during_burst < 4, "burst must tighten the repair gate, got {during_burst}");
        // Clean windows afterwards: same cumulative erasure total, fresh
        // deliveries. The cumulative estimator would stay pinned at
        // `during_burst` forever; the sliding window ages the burst out.
        let mut last = during_burst;
        for w in 1..=LOSS_WINDOW as u64 {
            let relaxed = est.observe(200, 800 + w * 1000);
            assert!(relaxed >= last, "repair rate must relax monotonically after the burst");
            last = relaxed;
        }
        assert_eq!(last, 4, "a fully clean window must restore the configured knob");
    }

    #[test]
    fn loss_estimator_matches_windowed_repair_on_window_sums() {
        let mut est = LossEstimator::new(8);
        est.observe(50, 450);
        let eff = est.observe(80, 900);
        // Window holds the deltas (50, 450) and (30, 450).
        assert_eq!(eff, windowed_repair(8, 80, 900));
    }
}
