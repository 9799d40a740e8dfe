//! Closed-loop auto-scaling: DS2 + a placement strategy + the simulator.
//!
//! Drives the experiments of §6.4: the simulation runs under a variable
//! rate schedule; every policy interval DS2 re-evaluates the optimal
//! parallelism from live task metrics, and when the recommendation
//! changes (and the activation period has elapsed since the last action),
//! the job is reconfigured — a new physical graph is expanded and the
//! configured placement strategy computes a new plan.
//!
//! # Durability
//!
//! Every decision runs one protocol: *decide → journal → apply*. A
//! policy — DS2 with the placement search, the failure detector, the
//! safety governor, the shedder, the migration planner — decides a
//! [`DecisionRecord`]; the loop journals it to a write-ahead
//! [`DecisionJournal`] and applies it, the one step that deploys, sheds,
//! migrates and advances the fencing epoch ([`capsys_sim::EpochFence`]).
//! Reconfigurations are two-phase: `Prepare` is journaled before the
//! cluster is touched, `Commit` after. Replay is just apply:
//! [`ClosedLoop::recover_from_journal`] re-simulates from t=0 and, at each
//! decision point, applies the journal's due record instead of deciding,
//! so a controller killed anywhere — even between `Prepare` and `Commit` —
//! resumes with a byte-identical trace and goes live past the journal
//! tail. A superseded zombie fails with [`ControllerError::FencedEpoch`],
//! leaving the cluster untouched.

use std::collections::{HashMap, VecDeque};

use capsys_ds2::{Ds2Config, Ds2Controller};
use capsys_model::{
    Cluster, OperatorId, PhysicalGraph, Placement, PlanDiff, RateSchedule, StateModel, TaskId,
    TaskMove, WorkerId,
};
use capsys_placement::{PlacementContext, PlacementStrategy, SearchDescriptor};
use capsys_queries::Query;
use capsys_sim::{
    sanitize_rates, EpochFence, FaultPlan, KillPoint, MetricPoint, ModelSkew, SimConfig, SimError,
    Simulation, TaskRateStats, TaskTransfer,
};
use capsys_util::json::{Json, ToJson};
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;

use crate::guard::{GuardConfig, PlanSnapshot, RollbackEvent, RollbackRequest, SafetyGovernor};
use crate::journal::{DecisionJournal, DecisionRecord, RedeployReason};
use crate::recovery::{
    backoff, descends, place_with_ladder, place_with_movemin, FailureDetector, LadderRung,
    RecoveryConfig, RecoveryEvent, MAX_RETRIES,
};
use crate::shed::{ShedConfig, ShedController, ShedEvent, ShedRequest};
use crate::ControllerError;

/// One reconfiguration event in a closed-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingEvent {
    /// Simulated time of the action, seconds.
    pub time: f64,
    /// New per-operator parallelism.
    pub parallelism: Vec<usize>,
    /// Total slots after the action.
    pub slots: usize,
}

impl ToJson for ScalingEvent {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("time".into(), Json::Num(self.time)),
            (
                "parallelism".into(),
                Json::Arr(
                    self.parallelism
                        .iter()
                        .map(|&p| Json::Num(p as f64))
                        .collect(),
                ),
            ),
            ("slots".into(), Json::Num(self.slots as f64)),
        ])
    }
}

/// Incremental-migration policy settings (see
/// [`ClosedLoop::with_incremental_migration`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationConfig {
    /// Absolute cost tolerance of the minimum-movement search: the
    /// migration target may cost at most `epsilon` more (on the cost
    /// vector's maximum component, each dimension in `[0, 1]`) than the
    /// best plan the search found.
    pub epsilon: f64,
    /// Tasks moved per wave. Each wave pauses only its own tasks while
    /// their state drains.
    pub wave_size: usize,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            epsilon: 0.05,
            wave_size: 2,
        }
    }
}

/// One completed state-transfer wave, as recorded in the trace: a wave
/// of an incremental migration, or (wave 0) the full restore of a
/// whole-plan redeploy when state-transfer charging is enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrationWave {
    /// Fencing epoch of the reconfiguration the wave belongs to.
    pub epoch: u64,
    /// Zero-based wave index within that reconfiguration.
    pub wave: usize,
    /// Tasks whose state this wave transferred.
    pub tasks_moved: usize,
    /// State bytes transferred.
    pub bytes: u64,
    /// Paused-task seconds charged while the wave drained (one paused
    /// task for one second = 1.0).
    pub downtime: f64,
    /// Simulated time the wave finished draining.
    pub completed_at: f64,
}

impl ToJson for MigrationWave {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("wave".into(), Json::Num(self.wave as f64)),
            ("tasks_moved".into(), Json::Num(self.tasks_moved as f64)),
            ("bytes".into(), Json::Num(self.bytes as f64)),
            ("downtime".into(), Json::Num(self.downtime)),
            ("completed_at".into(), Json::Num(self.completed_at)),
        ])
    }
}

/// What one policy window of [`ClosedLoop::step`] observed — the
/// per-window summary a fleet-level driver consumes to compute
/// cross-shard contention and aggregate goodput without touching the
/// shard's internals.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Controller time at the end of the window, seconds.
    pub time: f64,
    /// Average admitted source throughput over the window, records/s.
    pub avg_throughput: f64,
    /// Average target rate over the window, records/s.
    pub avg_target: f64,
    /// Average source backpressure over the window, in `[0, 1]`.
    pub avg_backpressure: f64,
    /// Per-worker CPU utilization over the window, in `[0, 1]`
    /// (indexed by this shard's cluster worker ids).
    pub worker_cpu_util: Vec<f64>,
    /// Per-worker heartbeat bits at the end of the window.
    pub worker_alive: Vec<bool>,
}

/// The trace of a closed-loop run.
#[derive(Debug, Clone)]
pub struct ClosedLoopTrace {
    /// All metric samples, in time order across reconfigurations.
    pub points: Vec<MetricPoint>,
    /// Scaling actions DS2 took.
    pub events: Vec<ScalingEvent>,
    /// Completed failure recoveries (empty unless recovery was enabled
    /// via [`ClosedLoop::with_recovery`]).
    pub recovery_events: Vec<RecoveryEvent>,
    /// Governor rollbacks (empty unless the safety governor was enabled
    /// via [`ClosedLoop::with_guard`]).
    pub rollback_events: Vec<RollbackEvent>,
    /// Task-rate samples the metrics-ingestion sanitizer clamped before
    /// they could reach DS2 or the governor.
    pub sanitized_samples: u64,
    /// Completed state-transfer waves (empty unless state-transfer
    /// charging was enabled via [`ClosedLoop::with_state_transfer`]).
    pub migration_waves: Vec<MigrationWave>,
    /// Applied admission-shedding changes (empty unless overload
    /// protection was enabled via [`ClosedLoop::with_shedding`]).
    pub shed_events: Vec<ShedEvent>,
    /// Final per-operator parallelism.
    pub final_parallelism: Vec<usize>,
}

impl ClosedLoopTrace {
    /// Number of scaling actions taken.
    pub fn num_scalings(&self) -> usize {
        self.events.len()
    }

    /// Average throughput over samples in `[from, to)` seconds.
    pub fn avg_throughput(&self, from: f64, to: f64) -> f64 {
        self.avg_over(from, to, |p| p.source_throughput)
    }

    /// Average target rate over samples in `[from, to)` seconds.
    pub fn avg_target(&self, from: f64, to: f64) -> f64 {
        self.avg_over(from, to, |p| p.target_rate)
    }

    /// Average of `f` over samples in `[from, to)` seconds (0 if none).
    fn avg_over(&self, from: f64, to: f64, f: impl Fn(&MetricPoint) -> f64) -> f64 {
        let pts: Vec<&MetricPoint> = self
            .points
            .iter()
            .filter(|p| p.time >= from && p.time < to)
            .collect();
        if pts.is_empty() {
            return 0.0;
        }
        pts.iter().map(|p| f(p)).sum::<f64>() / pts.len() as f64
    }

    /// Mean time to recover across completed recoveries: detector
    /// declaration to replacement-plan deployment, simulated seconds.
    /// `None` when no recovery completed.
    pub fn mttr(&self) -> Option<f64> {
        if self.recovery_events.is_empty() {
            return None;
        }
        let sum: f64 = self.recovery_events.iter().map(|e| e.time_to_recover).sum();
        Some(sum / self.recovery_events.len() as f64)
    }

    /// Number of governor rollbacks — the oscillation counter a bounded
    /// churn guarantee is stated over.
    pub fn oscillations(&self) -> usize {
        self.rollback_events.len()
    }

    /// Total paused-task seconds across all completed state-transfer
    /// waves (one task paused for one second = 1.0). The per-wave
    /// breakdown is in [`ClosedLoopTrace::migration_waves`].
    pub fn downtime(&self) -> f64 {
        // Fold from +0.0: `Iterator::sum` for f64 starts at -0.0, which
        // leaks a negative zero into reports when no waves ran.
        self.migration_waves
            .iter()
            .fold(0.0, |acc, w| acc + w.downtime)
    }

    /// Total state bytes moved across all completed state-transfer
    /// waves.
    pub fn bytes_moved(&self) -> u64 {
        self.migration_waves.iter().map(|w| w.bytes).sum()
    }

    /// Total simulated seconds spent running regressed canary plans:
    /// for each rollback, deploy of the canary to its restoration.
    pub fn time_in_degraded(&self) -> f64 {
        // Fold from +0.0: `Iterator::sum` for f64 starts at -0.0, which
        // leaks a negative zero into reports when nothing rolled back.
        self.rollback_events
            .iter()
            .fold(0.0, |acc, e| acc + e.degraded_for)
    }

    /// Total simulated seconds spent shedding (shed fraction above
    /// zero), up to `end` (the run's horizon — an engaged shed with no
    /// later release event is charged through to `end`).
    pub fn time_shedding(&self, end: f64) -> f64 {
        let mut total = 0.0;
        let mut engaged_at: Option<f64> = None;
        for ev in &self.shed_events {
            match (engaged_at, ev.to_fraction > 0.0) {
                (None, true) => engaged_at = Some(ev.time),
                (Some(t0), false) => {
                    total += (ev.time - t0).max(0.0);
                    engaged_at = None;
                }
                _ => {}
            }
        }
        if let Some(t0) = engaged_at {
            total += (end - t0).max(0.0);
        }
        total
    }

    /// Integral of the throughput shortfall `max(0, target - throughput)`
    /// over samples in `[from, to)`, in records. Each sample is weighted
    /// by the gap to the previous sample, so the first sample in range
    /// contributes nothing.
    pub fn throughput_loss_area(&self, from: f64, to: f64) -> f64 {
        let mut area = 0.0;
        let mut prev: Option<f64> = None;
        for p in self.points.iter().filter(|p| p.time >= from && p.time < to) {
            if let Some(t) = prev {
                area += (p.target_rate - p.source_throughput).max(0.0) * (p.time - t).max(0.0);
            }
            prev = Some(p.time);
        }
        area
    }

    /// Maximum slots occupied at any point in `[from, to)`.
    pub fn max_slots(&self, from: f64, to: f64) -> usize {
        let mut slots = self
            .events
            .iter()
            .rev()
            .find(|e| e.time < from)
            .map(|e| e.slots)
            .unwrap_or(0);
        let mut max = slots;
        for e in self.events.iter().filter(|e| e.time >= from && e.time < to) {
            slots = e.slots;
            max = max.max(slots);
        }
        max
    }

    /// Serializes the full trace as canonical JSON. Two traces are equal
    /// iff their serializations are byte-identical (`Json` encodes floats
    /// shortest-roundtrip), which is what the crash-recovery sweep diffs
    /// against its golden run.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("points".into(), self.points.to_json()),
            ("events".into(), self.events.to_json()),
            ("recovery_events".into(), self.recovery_events.to_json()),
            ("rollback_events".into(), self.rollback_events.to_json()),
            (
                "sanitized_samples".into(),
                Json::Num(self.sanitized_samples as f64),
            ),
            ("migration_waves".into(), self.migration_waves.to_json()),
            ("shed_events".into(), self.shed_events.to_json()),
            (
                "final_parallelism".into(),
                Json::Arr(
                    self.final_parallelism
                        .iter()
                        .map(|&p| Json::Num(p as f64))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A closed-loop DS2 + placement runner.
pub struct ClosedLoop<'a> {
    query: Query,
    cluster: &'a Cluster,
    strategy: &'a dyn PlacementStrategy,
    ds2: Ds2Controller,
    sim_config: SimConfig,
    schedule: RateSchedule,
    rng: SmallRng,
    // Live state.
    time: f64,
    physical: PhysicalGraph,
    placement: Placement,
    sim: Simulation,
    last_action: f64,
    events: Vec<ScalingEvent>,
    points: Vec<MetricPoint>,
    /// Rolling window of recent task metrics `(window seconds, rates)`;
    /// DS2 decisions average over it so short-window noise and
    /// burst-cycle aliasing do not flip the parallelism ceiling.
    recent: VecDeque<(f64, Vec<TaskRateStats>)>,
    /// Global-time fault schedule; re-installed (shifted) into every
    /// replacement simulation.
    fault_plan: Option<FaultPlan>,
    /// Self-healing state when recovery is enabled.
    recovery: Option<RecoveryState>,
    /// The reconfiguration safety governor, when enabled.
    guard: Option<SafetyGovernor>,
    /// Applied governor rollbacks, for the trace.
    rollback_events: Vec<RollbackEvent>,
    /// The overload admission controller, when enabled.
    shedder: Option<ShedController>,
    /// Applied shed changes, for the trace.
    shed_events: Vec<ShedEvent>,
    /// Deploy-time view of the fault plan's model-skew fault.
    skew: Option<SkewState>,
    /// Task-rate samples clamped by the ingestion sanitizer so far.
    sanitized: u64,
    /// Retained records per key group when state-transfer charging is
    /// on: sizes every task's state for restores and migrations.
    state_transfer: Option<f64>,
    /// Incremental-migration policy, when enabled.
    migration_cfg: Option<MigrationConfig>,
    /// The in-flight incremental migration, if one is running.
    migration: Option<MigrationState>,
    /// Trace bookkeeping for the state-transfer wave draining right now.
    open_wave: Option<OpenWave>,
    /// Completed state-transfer waves, for the trace.
    migration_waves: Vec<MigrationWave>,
    // Durability state.
    /// Epoch of the current deployment (0 = initial). Burned (advanced)
    /// by every `Prepare`, even one whose deployment later fails, so
    /// each `Prepare` in a journal carries a distinct epoch.
    epoch: u64,
    /// The cluster-side fence live deployments must win. Share one fence
    /// between two controllers (see [`ClosedLoop::with_fence`]) to model
    /// a zombie racing its replacement.
    fence: EpochFence,
    /// Every decision taken so far, in order; the journal's in-memory
    /// twin. `log.len()` is the next record's sequence number.
    log: Vec<DecisionRecord>,
    /// Write-ahead sink; `None` runs without durability.
    sink: Option<DecisionJournal>,
    /// Decisions still to be replayed (crash recovery). Empty = live.
    replay: VecDeque<DecisionRecord>,
    /// Time of the last journaled decision at recovery (`-inf` for a
    /// fresh run); disarms wall-clock kill points the crashed run
    /// already survived or died to.
    resume_time: f64,
    /// Injected controller-kill point, taken from the fault plan.
    kill: Option<KillPoint>,
}

/// Live state of the self-healing policy.
struct RecoveryState {
    config: RecoveryConfig,
    detector: FailureDetector,
    pending: Option<PendingRecovery>,
    events: Vec<RecoveryEvent>,
}

/// Controller-side state of a [`ModelSkew`] fault.
struct SkewState {
    fault: ModelSkew,
    /// The `(parallelism, assignment)` live when the skew began. That
    /// plan's behavior has been *measured*, so re-deploying it (a
    /// rollback) is unskewed; anything else deployed after the onset is
    /// a prediction of a stale model and runs skewed. Captured at the
    /// first window boundary past the onset.
    trusted: Option<(Vec<usize>, Vec<usize>)>,
}

/// Live state of an in-flight incremental migration.
struct MigrationState {
    /// The migration's fencing epoch.
    epoch: u64,
    /// The rung reported in the recovery event at commit.
    rung: LadderRung,
    /// Target plan; becomes `self.placement` at commit.
    target: Placement,
    /// Every task relocation, in ascending task order; waves are
    /// contiguous `wave_len`-sized chunks of this list.
    moves: Vec<TaskMove>,
    /// Tasks per wave (at least 1).
    wave_len: usize,
    /// Waves landed so far. Until all have, wave `landed` is draining.
    landed: usize,
    /// Workers already down when the migration was planned. A *new*
    /// death invalidates the target plan and abandons the migration.
    known_down_at_start: Vec<WorkerId>,
}

/// Trace bookkeeping for the state-transfer wave draining right now.
struct OpenWave {
    epoch: u64,
    wave: usize,
    tasks: usize,
    bytes: u64,
    /// `paused_task_seconds()` of the draining simulation at wave start.
    paused_base: f64,
}

/// A detected failure awaiting a successful re-placement.
struct PendingRecovery {
    /// Workers covered by this recovery, each with the time its
    /// heartbeat first went missing (grows if more die while pending).
    workers: Vec<(WorkerId, f64)>,
    /// Simulated time of the first detection.
    detected_at: f64,
    /// Failed re-placement attempts so far.
    attempts: usize,
    /// Earliest simulated time of the next attempt (exponential backoff).
    next_attempt_at: f64,
}

/// How many policy windows the metrics average spans.
const METRICS_WINDOWS: usize = 12;

/// Slack when matching journaled decision times against the replaying
/// loop's clock. Both sides derive from identical float arithmetic, so
/// this guards only against encoding bugs, not real drift.
const REPLAY_TIME_EPS: f64 = 1e-6;

fn replay_due(record_time: f64, now: f64) -> bool {
    (record_time - now).abs() <= REPLAY_TIME_EPS
}

/// Where a decision being applied comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// Taken now by this controller's policies.
    Live,
    /// Re-applied from the journal of a crashed run.
    Journal,
}

/// What the journal says became of a replayed two-phase decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Its `Commit` follows.
    Committed,
    /// A `Retry` follows: the crashed run failed to deploy it.
    Abandoned,
    /// Live, or in doubt at the journal tail: it commits itself.
    Open,
}

/// The policy request a `Rollback` or `Shed` record answers.
enum Verdict<'r> {
    Rollback(&'r RollbackRequest),
    Shed(&'r ShedRequest),
}

fn unrequested(kind: &str) -> ControllerError {
    ControllerError::JournalReplay(format!("a {kind} record can only answer a {kind} request"))
}

fn worker_ids(placement: &Placement) -> Vec<usize> {
    placement.assignment().iter().map(|w| w.0).collect()
}

fn placement_of(assignment: &[usize]) -> Placement {
    Placement::new(assignment.iter().map(|&w| WorkerId(w)).collect())
}

fn restore_rng(state: [u64; 4]) -> Result<SmallRng, ControllerError> {
    SmallRng::try_from_state(state).ok_or_else(|| {
        ControllerError::JournalReplay("journaled RNG state is invalid (all zero)".into())
    })
}

/// Moves `sim` to `epoch`. A live decision must win the shared fence —
/// a stale epoch means this controller was superseded and surfaces as
/// [`ControllerError::FencedEpoch`]. A replayed one stamps the epoch
/// unfenced: the journal, not the fence, is the authority on what was
/// deployed.
fn fence_epoch(
    fence: &EpochFence,
    sim: &mut Simulation,
    epoch: u64,
    origin: Origin,
) -> Result<(), ControllerError> {
    match origin {
        Origin::Live => sim.bind_epoch(fence, epoch).map_err(|e| match e {
            SimError::StaleEpoch { attempted, current } => {
                ControllerError::FencedEpoch { attempted, current }
            }
            other => ControllerError::Sim(other),
        }),
        Origin::Journal => {
            sim.stamp_epoch(epoch);
            Ok(())
        }
    }
}

/// Whether a failed re-placement should be retried with backoff rather
/// than aborting the run. Fencing, injected kills, and journal faults
/// must propagate — retrying them would mask a superseded or dead
/// controller.
fn retryable(e: &ControllerError) -> bool {
    matches!(
        e,
        ControllerError::Placement(_) | ControllerError::Model(_) | ControllerError::Sim(_)
    )
}

/// Time-weighted average of task metrics across windows.
fn average_rates(recent: &VecDeque<(f64, Vec<TaskRateStats>)>) -> Vec<TaskRateStats> {
    let total: f64 = recent.iter().map(|(t, _)| *t).sum();
    let n = recent.back().map(|(_, r)| r.len()).unwrap_or(0);
    let mut avg = vec![TaskRateStats::default(); n];
    if total <= 0.0 {
        return avg;
    }
    for (t, rates) in recent {
        let w = t / total;
        for (a, r) in avg.iter_mut().zip(rates) {
            a.observed_rate += w * r.observed_rate;
            a.true_rate += w * r.true_rate;
            a.observed_output_rate += w * r.observed_output_rate;
            a.true_output_rate += w * r.true_output_rate;
            a.busy_fraction += w * r.busy_fraction;
        }
    }
    avg
}

impl<'a> ClosedLoop<'a> {
    /// Builds a closed loop starting from the query's current parallelism
    /// and an initial plan chosen by `strategy`.
    ///
    /// `schedule` is the aggregate source-rate schedule; it is split
    /// across sources by the query's mix.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        query: &Query,
        cluster: &'a Cluster,
        strategy: &'a dyn PlacementStrategy,
        ds2_config: Ds2Config,
        sim_config: SimConfig,
        schedule: RateSchedule,
        seed: u64,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let physical = query.physical();
        let rate_now = schedule.rate_at(0.0).max(1.0);
        let loads = query
            .load_model_at(&physical, rate_now)
            .map_err(ControllerError::Model)?;
        let ctx = PlacementContext {
            logical: query.logical(),
            physical: &physical,
            cluster,
            loads: &loads,
        };
        let placement = strategy
            .place(&ctx, &mut rng)
            .map_err(ControllerError::Placement)?;
        // Decision zero: the initial deployment, with the RNG state
        // after the initial search — recovery rebuilds the loop from
        // this record without re-running the search.
        let init = DecisionRecord::Init {
            seed,
            query: query.name().to_string(),
            workers: cluster.num_workers(),
            parallelism: query.logical().parallelism_vector(),
            assignment: worker_ids(&placement),
            rng: rng.state(),
        };
        Self::from_init(
            query,
            cluster,
            strategy,
            ds2_config,
            sim_config,
            schedule,
            physical,
            init,
            VecDeque::new(),
            f64::NEG_INFINITY,
        )
    }

    /// Rebuilds a controller from a crashed run's journal.
    ///
    /// The caller supplies the same inputs the crashed run was
    /// constructed with — the journal records decisions, not the whole
    /// world. The recovered loop re-simulates from t=0 and feeds each
    /// journaled decision, when its time comes, through the same apply
    /// step a live decision takes (restoring the journaled RNG state
    /// instead of re-running placement searches); past the journal tail
    /// it goes live. With the same seeds and fault plan, its full trace
    /// is byte-identical to the uninterrupted run's. An in-doubt
    /// reconfiguration (a `Prepare` at the tail — the crash hit between
    /// `Prepare` and `Commit`) is rolled forward; one the crashed run
    /// abandoned (a `Retry` follows it) is not deployed. Re-attach the
    /// fault plan and recovery config after this call, exactly as for a
    /// fresh loop; a wall-clock kill point at or before the resume time
    /// is automatically disarmed.
    #[allow(clippy::too_many_arguments)]
    pub fn recover_from_journal(
        query: &Query,
        cluster: &'a Cluster,
        strategy: &'a dyn PlacementStrategy,
        ds2_config: Ds2Config,
        sim_config: SimConfig,
        schedule: RateSchedule,
        journal_text: &str,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        let parsed = crate::journal::parse_journal(journal_text)?;
        let resume_time = parsed.records.last().map(|r| r.time()).unwrap_or(0.0);
        let mut replay: VecDeque<DecisionRecord> = parsed.records.into();
        let Some(init) = replay.pop_front() else {
            return Err(ControllerError::JournalReplay(
                "journal is empty — nothing to recover".into(),
            ));
        };
        Self::from_init(
            query,
            cluster,
            strategy,
            ds2_config,
            sim_config,
            schedule,
            query.physical(),
            init,
            replay,
            resume_time,
        )
    }

    /// The one construction path: checks the `Init` record against the
    /// caller's inputs and deploys its plan in a fresh simulation.
    /// `physical` is the query's physical graph; `replay` holds the
    /// journaled decisions still to re-apply (empty for a fresh loop).
    #[allow(clippy::too_many_arguments)]
    fn from_init(
        query: &Query,
        cluster: &'a Cluster,
        strategy: &'a dyn PlacementStrategy,
        ds2_config: Ds2Config,
        sim_config: SimConfig,
        schedule: RateSchedule,
        physical: PhysicalGraph,
        init: DecisionRecord,
        replay: VecDeque<DecisionRecord>,
        resume_time: f64,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        let DecisionRecord::Init {
            query: ref journal_query,
            workers,
            ref parallelism,
            ref assignment,
            rng,
            ..
        } = init
        else {
            return Err(ControllerError::JournalReplay(
                "journal does not start with an init record".into(),
            ));
        };
        if journal_query != query.name() {
            return Err(ControllerError::JournalReplay(format!(
                "journal was written for query `{journal_query}`, not `{}`",
                query.name()
            )));
        }
        if workers != cluster.num_workers() {
            return Err(ControllerError::JournalReplay(format!(
                "journal expects {workers} workers, cluster has {}",
                cluster.num_workers()
            )));
        }
        if *parallelism != query.logical().parallelism_vector() {
            return Err(ControllerError::JournalReplay(format!(
                "journal starts at parallelism {parallelism:?}, query is at {:?}",
                query.logical().parallelism_vector()
            )));
        }
        let rng = restore_rng(rng)?;
        let placement = placement_of(assignment);
        placement.validate(&physical, cluster).map_err(|e| {
            ControllerError::JournalReplay(format!("journaled initial placement is invalid: {e}"))
        })?;
        let sim = Simulation::new(
            query.logical(),
            &physical,
            cluster,
            &placement,
            &query.schedules_from(&schedule),
            sim_config.clone(),
        )
        .map_err(ControllerError::Sim)?;
        Ok(ClosedLoop {
            query: query.clone(),
            cluster,
            strategy,
            ds2: Ds2Controller::new(ds2_config),
            sim_config,
            schedule,
            rng,
            time: 0.0,
            physical,
            placement,
            sim,
            last_action: f64::NEG_INFINITY,
            events: Vec::new(),
            points: Vec::new(),
            recent: VecDeque::new(),
            fault_plan: None,
            recovery: None,
            guard: None,
            rollback_events: Vec::new(),
            shedder: None,
            shed_events: Vec::new(),
            skew: None,
            sanitized: 0,
            state_transfer: None,
            migration_cfg: None,
            migration: None,
            open_wave: None,
            migration_waves: Vec::new(),
            epoch: 0,
            fence: EpochFence::new(),
            log: vec![init],
            sink: None,
            replay,
            resume_time,
            kill: None,
        })
    }

    /// Installs a deterministic fault schedule (global simulated time).
    /// The schedule survives reconfigurations: every replacement
    /// simulation gets the not-yet-fired suffix, shifted to its local
    /// clock, plus the chaos state accumulated so far. A
    /// [`KillPoint`] in the plan arms the controller-kill switch.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Result<Self, ControllerError> {
        self.sim
            .install_faults(plan.clone())
            .map_err(ControllerError::Sim)?;
        self.kill = plan.controller_kill;
        self.skew = plan.model_skew.map(|fault| SkewState {
            fault,
            trusted: None,
        });
        self.fault_plan = Some(plan);
        Ok(self)
    }

    /// Enables the reconfiguration safety governor: every scaling
    /// redeploy becomes a canary judged against the pre-deploy baseline,
    /// regressions roll back to the last-known-good plan (journaled as
    /// `Rollback` records), regressed plans are quarantined, and a
    /// growing cooldown damps churn. The current deployment is the
    /// first trusted plan. Re-attach with the same
    /// [`GuardConfig::baseline_mode`] to a loop built by
    /// [`ClosedLoop::recover_from_journal`] — replay drives the governor
    /// through the same transitions the crashed run took. Never fails.
    pub fn with_guard(mut self, config: GuardConfig) -> Result<Self, ControllerError> {
        let initial = self.snapshot();
        self.guard = Some(SafetyGovernor::new(config, initial));
        Ok(self)
    }

    /// Enables overload protection: when sustained backpressure shows
    /// the offered load exceeding the demonstrated sustainable capacity,
    /// a bounded fraction of offered traffic is shed at the sources.
    /// Every change to the shed fraction is journaled as a two-phase
    /// `Shed` record, so a recovered controller replays the same
    /// admission decisions. Re-attach to a loop built by
    /// [`ClosedLoop::recover_from_journal`]. Never fails.
    pub fn with_shedding(mut self, _config: ShedConfig) -> Result<Self, ControllerError> {
        self.shedder = Some(ShedController::default());
        Ok(self)
    }

    /// Enables failure detection and self-healing re-placement.
    pub fn with_recovery(mut self, config: RecoveryConfig) -> Self {
        self.recovery = Some(RecoveryState {
            detector: FailureDetector::new(self.cluster.num_workers()),
            config,
            pending: None,
            events: Vec::new(),
        });
        self
    }

    /// Charges state movement as real simulated traffic. Every task's
    /// state is sized by the deterministic [`StateModel`] (operator type
    /// and key skew, `retained_records` retained records per key group),
    /// and every whole-plan redeploy becomes a restore-from-savepoint:
    /// all stateful tasks of the new plan pause while their state loads
    /// from their target worker's disk. Completed restores appear as
    /// waves in [`ClosedLoopTrace::migration_waves`]. Re-attach to a
    /// loop built by [`ClosedLoop::recover_from_journal`] with the same
    /// value.
    pub fn with_state_transfer(mut self, retained_records: f64) -> Result<Self, ControllerError> {
        if !retained_records.is_finite() || retained_records < 0.0 {
            return Err(ControllerError::InvalidConfig(
                "retained_records must be finite and non-negative".into(),
            ));
        }
        self.state_transfer = Some(retained_records);
        Ok(self)
    }

    /// Enables incremental task migration for recovery re-placements.
    /// Instead of restarting the whole job on a fresh plan, the
    /// controller picks a minimum-movement target within
    /// `config.epsilon` of the best survivable plan and moves only the
    /// differing tasks, in waves of `config.wave_size`, pausing only
    /// the moving wave while its state drains. Each migration is
    /// journaled as `MigratePrepare` / per-wave `MigrateStep`s /
    /// `MigrateCommit` and is crash-recoverable at every record.
    /// Requires [`ClosedLoop::with_state_transfer`]. Scalings and
    /// governor rollbacks stay whole-plan.
    pub fn with_incremental_migration(
        mut self,
        config: MigrationConfig,
    ) -> Result<Self, ControllerError> {
        if self.state_transfer.is_none() {
            return Err(ControllerError::InvalidConfig(
                "incremental migration requires state-transfer charging \
                 (call with_state_transfer first)"
                    .into(),
            ));
        }
        if !config.epsilon.is_finite() || config.epsilon < 0.0 {
            return Err(ControllerError::InvalidConfig(
                "migration epsilon must be finite and non-negative".into(),
            ));
        }
        if config.wave_size == 0 {
            return Err(ControllerError::InvalidConfig(
                "migration wave_size must be at least 1".into(),
            ));
        }
        self.migration_cfg = Some(config);
        Ok(self)
    }

    /// Attaches a write-ahead decision journal. Decisions already taken
    /// (at minimum the initial deployment; for a recovered loop, the
    /// whole replayed history as it is consumed) are written through, so
    /// the sink must be fresh. Attach before [`ClosedLoop::run`].
    pub fn with_journal(mut self, mut sink: DecisionJournal) -> Result<Self, ControllerError> {
        if sink.next_seq() != 0 {
            return Err(ControllerError::InvalidConfig(
                "journal sink already holds records; a recovered loop re-journals \
                 its whole history into a fresh sink itself"
                    .into(),
            ));
        }
        for rec in &self.log {
            sink.append(rec)?;
        }
        self.sink = Some(sink);
        Ok(self)
    }

    /// Shares an external epoch fence — the cluster-side "who may
    /// reconfigure" state. Deployments from this loop must advance the
    /// fence past its current epoch or fail with
    /// [`ControllerError::FencedEpoch`]. Hand clones of one fence to two
    /// controllers to model a zombie racing the controller that
    /// superseded it.
    pub fn with_fence(mut self, fence: EpochFence) -> Self {
        self.fence = fence;
        self
    }

    /// Current simulated time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The current placement plan.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The fencing epoch of the current deployment (0 = initial).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch fence this controller deploys through.
    pub fn fence(&self) -> &EpochFence {
        &self.fence
    }

    /// Sets a worker's cross-job contention multiplier on the live
    /// simulation (`1.0` = uncontended). A fleet driver calls this each
    /// window to charge the shard for the CPU its neighbours consume on
    /// shared workers; the factor survives redeployments like the other
    /// chaos state.
    pub fn set_contention(&mut self, w: WorkerId, factor: f64) {
        self.sim.set_contention(w, factor);
    }

    /// Revokes a worker from this shard's pool: the arbiter reassigned
    /// it, so from this shard's perspective the worker fails — the
    /// failure detector declares it down and the normal recovery
    /// machinery re-places its tasks on the shard's remaining workers.
    /// The revocation survives redeployments (failed-worker state is
    /// carried across), so the shard never places tasks there again
    /// unless the arbiter returns the worker via
    /// [`ClosedLoop::restore_worker`].
    pub fn revoke_worker(&mut self, w: WorkerId) {
        self.sim.fail_worker(w);
    }

    /// Returns a previously revoked (or crashed) worker to service.
    pub fn restore_worker(&mut self, w: WorkerId) {
        self.sim.restore_worker(w);
    }

    /// The current deployment, frozen for the governor.
    fn snapshot(&self) -> PlanSnapshot {
        PlanSnapshot {
            parallelism: self.query.logical().parallelism_vector(),
            assignment: self.placement.assignment().iter().map(|w| w.0).collect(),
            epoch: self.epoch,
        }
    }

    /// Workers the failure detector currently considers down (empty when
    /// recovery is disabled).
    fn known_down(&self) -> Vec<WorkerId> {
        self.recovery
            .as_ref()
            .map(|r| r.detector.down_workers())
            .unwrap_or_default()
    }

    /// Per-worker free slots with the given workers excluded.
    fn free_slots(&self, down: &[WorkerId]) -> Vec<usize> {
        let mut free = vec![self.cluster.slots_per_worker(); self.cluster.num_workers()];
        for w in down {
            if let Some(s) = free.get_mut(w.0) {
                *s = 0;
            }
        }
        free
    }

    /// Journals a decision. A live decision enforces any armed
    /// controller-kill point: the record reaches the sink (and is
    /// flushed) *before* the kill fires, so a killed controller's last
    /// decision is exactly the last line of its journal. A replayed
    /// decision is re-journaled verbatim and never trips a kill point —
    /// the controller that wrote it already survived past it.
    fn journal(&mut self, rec: DecisionRecord, origin: Origin) -> Result<(), ControllerError> {
        let seq = self.log.len() as u64;
        if let Some(sink) = &mut self.sink {
            sink.append(&rec)?;
        }
        let killed = origin == Origin::Live
            && match self.kill {
                Some(KillPoint::AfterRecord(k)) => seq == k,
                Some(KillPoint::MidReconfig(e)) => matches!(
                    &rec,
                    DecisionRecord::Prepare { epoch, .. }
                    | DecisionRecord::Rollback { epoch, .. }
                    | DecisionRecord::Shed { epoch, .. }
                    | DecisionRecord::MigratePrepare { epoch, .. } if *epoch == e
                ),
                _ => false,
            };
        self.log.push(rec);
        if killed {
            return Err(ControllerError::ControllerKilled {
                seq: self.log.len() as u64,
                time: self.time,
            });
        }
        Ok(())
    }

    /// Runs the loop for `duration` simulated seconds.
    pub fn run(mut self, duration: f64) -> Result<ClosedLoopTrace, ControllerError> {
        let interval = self.policy_window();
        let end = self.time + duration;
        while self.time < end - 1e-9 {
            let window = interval.min(end - self.time);
            self.step(window)?;
        }
        self.into_trace()
    }

    /// The loop's natural policy window: the DS2 policy interval,
    /// floored at one simulation tick. [`ClosedLoop::run`] advances in
    /// windows of this size; an external driver stepping the loop via
    /// [`ClosedLoop::step`] must use the same window for journal replay
    /// times to line up.
    pub fn policy_window(&self) -> f64 {
        self.ds2.config.policy_interval.max(self.sim_config.tick)
    }

    /// Advances the loop one policy window of `window` simulated
    /// seconds: simulate, observe, and make at most one control
    /// decision. This is exactly one iteration of [`ClosedLoop::run`]'s
    /// loop, exposed so a fleet-level driver can interleave many shard
    /// controllers in lockstep on one global clock.
    pub fn step(&mut self, window: f64) -> Result<StepReport, ControllerError> {
        let mut report = self.sim.advance(window, 0.0);
        self.time += window;
        let summary = StepReport {
            time: self.time,
            avg_throughput: report.avg_throughput,
            avg_target: report.avg_target,
            avg_backpressure: report.avg_backpressure,
            worker_cpu_util: std::mem::take(&mut report.worker_cpu_util),
            worker_alive: std::mem::take(&mut report.worker_alive),
        };

        // Injected wall-clock controller kill: the process dies at the
        // next window boundary. Replayed spans are immune (the crashed
        // controller survived them up to its journal tail), as is
        // anything at or before a recovered loop's resume point.
        if let Some(KillPoint::AtTime(t)) = self.kill {
            if self.replay.is_empty() && self.time + 1e-9 >= t && t > self.resume_time {
                return Err(ControllerError::ControllerKilled {
                    seq: self.log.len() as u64,
                    time: self.time,
                });
            }
        }

        for mut p in std::mem::take(&mut report.points) {
            p.time = self.time;
            self.points.push(p);
        }
        // Ingestion sanitizer: clamp poisoned samples before the rates
        // can reach DS2.
        let mut task_rates = std::mem::take(&mut report.task_rates);
        self.sanitized += sanitize_rates(&mut task_rates) as u64;
        self.recent.push_back((window, task_rates));
        while self.recent.len() > METRICS_WINDOWS {
            self.recent.pop_front();
        }

        // A model-skew fault makes the *plan model* stale, not the
        // cluster: the plan live at the onset keeps its measured
        // behavior, so remember it as the trusted rollback target.
        if let Some(skew) = &mut self.skew {
            if skew.trusted.is_none() && self.time + 1e-9 >= skew.fault.time {
                skew.trusted = Some((
                    self.query.logical().parallelism_vector(),
                    worker_ids(&self.placement),
                ));
            }
        }

        // Failure detection: heartbeats ride the metrics report, with
        // out-of-band activity evidence so a partitioned worker (still
        // running, fenced writes landing) is classified isolated rather
        // than crashed — re-placing its tasks would double-place them.
        if let Some(rec) = &mut self.recovery {
            let det = rec.detector.observe_with_evidence(
                &summary.worker_alive,
                &report.worker_activity,
                report.metrics_ok,
                self.time,
            );
            for w in det.newly_down {
                let since = rec.detector.stale_since(w).unwrap_or(self.time);
                match &mut rec.pending {
                    Some(p) => {
                        if !p.workers.iter().any(|(pw, _)| *pw == w) {
                            p.workers.push((w, since));
                        }
                    }
                    None => {
                        rec.pending = Some(PendingRecovery {
                            workers: vec![(w, since)],
                            detected_at: self.time,
                            attempts: 0,
                            next_attempt_at: self.time,
                        });
                    }
                }
            }
        }

        // Whole-plan restores: close the trace's open wave once the
        // restore finishes draining.
        if self.migration.is_none() && self.open_wave.is_some() && !self.sim.state_transfer_active()
        {
            self.close_open_wave();
        }

        // An in-flight incremental migration owns the control loop: one
        // wave at a time, journaled as it lands. Scaling, the governor,
        // and new recovery attempts wait for its commit (or
        // abandonment); failure detection above keeps running.
        if self.migration.is_some() {
            self.advance_migration()?;
            return Ok(summary);
        }

        // Recovery re-placement, with bounded exponential backoff.
        let attempt_due = self
            .recovery
            .as_ref()
            .and_then(|r| r.pending.as_ref())
            .is_some_and(|p| self.time + 1e-9 >= p.next_attempt_at);
        if attempt_due {
            self.attempt_recovery()?;
        }

        // Overload protection: the admission controller sizes the shed
        // fraction from this window's metrics. It runs even while a
        // recovery is pending and is exempt from governor cooldown and
        // the activation period — shedding is load control, not a plan
        // change, and an overloaded job cannot wait for either clock. It
        // does not touch `last_action`: scaling out is the real fix and
        // must not be delayed by a shed. Offered load is measured at the
        // sources, pre-shed.
        let offered = self.schedule.rate_at(self.time).max(0.0);
        let shed_req = match &mut self.shedder {
            Some(shed) => shed.observe_window(
                self.time,
                report.avg_throughput,
                offered,
                report.avg_backpressure,
            ),
            None => None,
        };
        if let Some(req) = shed_req {
            let live = DecisionRecord::Shed {
                epoch: self.epoch + 1,
                time: self.time,
                fraction: req.fraction,
                rng: self.rng.state(),
            };
            if let Some((rec, origin)) = self.decide(
                "shed change",
                true,
                |r| {
                    matches!(r, DecisionRecord::Shed { fraction, .. }
                        if (fraction - req.fraction).abs() <= 1e-12)
                },
                |_| Ok(Some(live)),
            )? {
                self.apply(rec, origin, Some(Verdict::Shed(&req)))?;
            }
        }

        // DS2 policy evaluation. A pending recovery takes priority:
        // scaling decisions wait until the job is re-placed.
        if self.recovery.as_ref().is_some_and(|r| r.pending.is_some()) {
            return Ok(summary);
        }

        // Safety governor: judge the current probation window before the
        // policy decides anything. A rollback verdict preempts DS2 and is
        // exempt from the activation period — a regressed canary must not
        // linger because the loop just acted.
        let verdict = match &mut self.guard {
            Some(gov) => gov.observe_window(
                self.time,
                report.avg_throughput,
                report.avg_target,
                report.avg_backpressure,
            ),
            None => None,
        };
        if let Some(req) = verdict {
            let live = DecisionRecord::Rollback {
                epoch: self.epoch + 1,
                time: self.time,
                from_epoch: req.regressed.epoch,
                parallelism: req.to.parallelism.clone(),
                assignment: req.to.assignment.clone(),
                rng: self.rng.state(),
            };
            if let Some((rec, origin)) = self.decide(
                "governor rollback",
                true,
                |r| {
                    matches!(r, DecisionRecord::Rollback { from_epoch, parallelism, assignment, .. }
                        if *from_epoch == req.regressed.epoch
                            && *parallelism == req.to.parallelism
                            && *assignment == req.to.assignment)
                },
                |_| Ok(Some(live)),
            )? {
                self.apply(rec, origin, Some(Verdict::Rollback(&req)))?;
            }
            return Ok(summary);
        }
        // Hysteresis: no reconfiguration of any kind inside the
        // post-rollback cooldown.
        if self
            .guard
            .as_ref()
            .is_some_and(|g| g.in_cooldown(self.time))
        {
            return Ok(summary);
        }
        if self.time - self.last_action < self.ds2.config.activation_period {
            return Ok(summary);
        }
        // On replay the journaled Prepare stands in for both the DS2
        // evaluation and the placement search.
        if let Some((rec, origin)) = self.decide(
            "scaling decision",
            false,
            |r| {
                matches!(
                    r,
                    DecisionRecord::Prepare {
                        reason: RedeployReason::Scaling,
                        ..
                    }
                )
            },
            Self::decide_scaling,
        )? {
            self.apply(rec, origin, None)?;
        }
        Ok(summary)
    }

    /// Finishes the run: checks every journaled decision was consumed
    /// and assembles the trace. Call after the final
    /// [`ClosedLoop::step`] (or let [`ClosedLoop::run`] do both).
    pub fn into_trace(self) -> Result<ClosedLoopTrace, ControllerError> {
        if !self.replay.is_empty() {
            // The journal records decisions from beyond this run's end:
            // the caller replayed with a shorter horizon. Surface it
            // rather than silently dropping journaled decisions.
            return Err(ControllerError::JournalReplay(format!(
                "{} journaled decision(s) left unreplayed at the end of the run",
                self.replay.len()
            )));
        }
        Ok(ClosedLoopTrace {
            points: self.points,
            events: self.events,
            recovery_events: self.recovery.map(|r| r.events).unwrap_or_default(),
            rollback_events: self.rollback_events,
            shed_events: self.shed_events,
            sanitized_samples: self.sanitized,
            migration_waves: self.migration_waves,
            final_parallelism: self.query.logical().parallelism_vector(),
        })
    }

    /// The decision to apply now. While replaying it is the journal's
    /// next record, which must be due now and pass `journaled` — the
    /// check against the request this loop re-derived. Past the journal
    /// tail it is whatever `live` decides. With `required` unset the
    /// journaled run may have decided nothing here, so a record due
    /// later stays on the cursor; any other mismatch is a divergence.
    fn decide(
        &mut self,
        what: &str,
        required: bool,
        journaled: impl Fn(&DecisionRecord) -> bool,
        live: impl FnOnce(&mut Self) -> Result<Option<DecisionRecord>, ControllerError>,
    ) -> Result<Option<(DecisionRecord, Origin)>, ControllerError> {
        let Some(front) = self.replay.front() else {
            return Ok(live(self)?.map(|rec| (rec, Origin::Live)));
        };
        let due = replay_due(front.time(), self.time);
        if due && journaled(front) {
            return Ok(self.replay.pop_front().map(|rec| (rec, Origin::Journal)));
        }
        if due || required || front.time() < self.time {
            return Err(ControllerError::JournalReplay(format!(
                "{what} at t={:.3}, but the journal's next decision is a different one from \
                 t={:.3}: the replay diverged from the run that wrote the journal",
                self.time,
                front.time()
            )));
        }
        Ok(None)
    }

    /// The DS2 policy step: a scaling `Prepare` when DS2 recommends a
    /// new parallelism that fits the free slots and is not quarantined.
    fn decide_scaling(&mut self) -> Result<Option<DecisionRecord>, ControllerError> {
        let rates = average_rates(&self.recent);
        let rate_now = self.schedule.rate_at(self.time).max(1.0);
        let targets: HashMap<OperatorId, f64> = self.query.source_rates(rate_now);
        let decision = self
            .ds2
            .decide(self.query.logical(), &self.physical, &rates, &targets)
            .map_err(ControllerError::Ds2)?;
        if !decision.changed {
            return Ok(None);
        }
        let down = self.known_down();
        let capacity_ok = if down.is_empty() {
            self.cluster.check_capacity(decision.total_tasks()).is_ok()
        } else {
            decision.total_tasks() <= self.free_slots(&down).iter().sum::<usize>()
        };
        // Quarantine veto *before* the placement search: vetoing after
        // it would consume RNG with no journal record and fork any
        // replay of this run.
        if !capacity_ok
            || self
                .guard
                .as_ref()
                .is_some_and(|g| g.is_quarantined(&decision.parallelism, self.time))
        {
            return Ok(None);
        }
        self.decide_prepare(decision.parallelism, rate_now, RedeployReason::Scaling)
            .map(Some)
    }

    /// Runs the placement search for `parallelism` — the degradation
    /// ladder on the survivors when workers are down, otherwise the
    /// configured strategy — into the `Prepare` that would deploy it. A
    /// failed search leaves the running deployment untouched.
    fn decide_prepare(
        &mut self,
        parallelism: Vec<usize>,
        rate_now: f64,
        reason: RedeployReason,
    ) -> Result<DecisionRecord, ControllerError> {
        let query = self
            .query
            .with_parallelism(&parallelism)
            .map_err(ControllerError::Model)?;
        let physical = query.physical();
        let loads = query
            .load_model_at(&physical, rate_now)
            .map_err(ControllerError::Model)?;
        let ctx = PlacementContext {
            logical: query.logical(),
            physical: &physical,
            cluster: self.cluster,
            loads: &loads,
        };
        let down = self.known_down();
        let (placement, rung, search) = match (&self.recovery, down.is_empty()) {
            (Some(rec), false) => {
                let mut search = rec.config.search.clone();
                search.free_slots = Some(self.free_slots(&down));
                let (p, r) = place_with_ladder(&ctx, &search, &mut self.rng)
                    .map_err(ControllerError::Placement)?;
                (p, r, Some(SearchDescriptor::of(&search)))
            }
            _ => (
                self.strategy
                    .place(&ctx, &mut self.rng)
                    .map_err(ControllerError::Placement)?,
                LadderRung::Caps,
                self.strategy.search_descriptor(),
            ),
        };
        Ok(DecisionRecord::Prepare {
            epoch: self.epoch + 1,
            time: self.time,
            reason,
            parallelism,
            assignment: worker_ids(&placement),
            rung,
            rate: rate_now,
            rng: self.rng.state(),
            search,
        })
    }

    /// Plans an incremental migration for the pending recovery: a
    /// minimum-movement target within the configured tolerance of the
    /// best survivable plan. `Ok(None)` when migration is off or the
    /// search cannot produce a tolerance band (infeasible or budget
    /// exhausted): the caller falls back to a whole-plan redeploy.
    fn decide_migration(&self, rate_now: f64) -> Result<Option<DecisionRecord>, ControllerError> {
        let (Some(cfg), Some(retained), Some(rec)) =
            (&self.migration_cfg, self.state_transfer, &self.recovery)
        else {
            return Ok(None);
        };
        let mut search = rec.config.search.clone();
        search.free_slots = Some(self.free_slots(&self.known_down()));
        let state = StateModel::derive(self.query.logical(), &self.physical, retained)
            .map_err(ControllerError::Model)?;
        let loads = self
            .query
            .load_model_at(&self.physical, rate_now)
            .map_err(ControllerError::Model)?;
        let ctx = PlacementContext {
            logical: self.query.logical(),
            physical: &self.physical,
            cluster: self.cluster,
            loads: &loads,
        };
        let (target, diff) =
            match place_with_movemin(&ctx, &search, cfg.epsilon, &self.placement, &state) {
                Ok(found) => found,
                Err(e) if descends(&e) => return Ok(None),
                Err(e) => return Err(ControllerError::Placement(e)),
            };
        Ok(Some(DecisionRecord::MigratePrepare {
            epoch: self.epoch + 1,
            time: self.time,
            reason: RedeployReason::Recovery,
            parallelism: self.query.logical().parallelism_vector(),
            assignment: worker_ids(&target),
            rung: LadderRung::Caps,
            moved: diff.moves().iter().map(|m| m.task.0).collect(),
            wave_len: cfg.wave_size,
            rate: rate_now,
            rng: self.rng.state(),
            search: Some(SearchDescriptor::of(&search)),
        }))
    }

    /// A failed re-placement attempt as a `Retry`: exponential backoff,
    /// or give-up once [`MAX_RETRIES`] attempts are spent. `None` without
    /// a pending recovery.
    fn decide_retry(&self) -> Option<DecisionRecord> {
        let rec = self.recovery.as_ref()?;
        let attempts = rec.pending.as_ref()?.attempts + 1;
        let gave_up = attempts > MAX_RETRIES;
        Some(DecisionRecord::Retry {
            time: self.time,
            attempts,
            gave_up,
            next_attempt_at: (!gave_up).then(|| self.time + backoff(attempts)),
            rng: self.rng.state(),
        })
    }

    /// Runs one re-placement attempt for the pending recovery: an
    /// incremental migration when enabled, otherwise a whole-plan
    /// redeploy. A retryable failure — of the search or of the deploy
    /// after its `Prepare` — backs off exponentially (a journaled
    /// `Retry`) and, once [`MAX_RETRIES`] attempts are spent, gives up and
    /// lets the job continue degraded: the loop never crashes on an
    /// unplaceable cluster. Fencing and injected kills propagate.
    fn attempt_recovery(&mut self) -> Result<(), ControllerError> {
        let decided = self.decide(
            "recovery attempt",
            true,
            |r| {
                matches!(
                    r,
                    DecisionRecord::Retry { .. }
                        | DecisionRecord::MigratePrepare { .. }
                        | DecisionRecord::Prepare {
                            reason: RedeployReason::Recovery,
                            ..
                        }
                )
            },
            |me| {
                let rate_now = me.schedule.rate_at(me.time).max(1.0);
                let planned = match me.decide_migration(rate_now) {
                    Ok(Some(migration)) => Ok(migration),
                    Ok(None) => me.decide_prepare(
                        me.query.logical().parallelism_vector(),
                        rate_now,
                        RedeployReason::Recovery,
                    ),
                    Err(e) => Err(e),
                };
                match planned {
                    Err(e) if retryable(&e) => Ok(me.decide_retry()),
                    other => other.map(Some),
                }
            },
        )?;
        let Some((rec, origin)) = decided else {
            return Ok(());
        };
        match self.apply(rec, origin, None) {
            Err(e) if origin == Origin::Live && retryable(&e) => {
                if let Some(retry) = self.decide_retry() {
                    self.apply(retry, Origin::Live, None)?;
                }
            }
            other => other?,
        }
        // A migration with nothing to move commits right away.
        self.advance_migration()
    }

    /// Drives the in-flight migration forward: abandons it if a fresh
    /// worker death invalidated the target plan, waits while the current
    /// wave drains, then journals the landed wave's `MigrateStep` (which
    /// starts the next wave) and, once every wave has landed, the
    /// `MigrateCommit`.
    fn advance_migration(&mut self) -> Result<(), ControllerError> {
        while let Some(mig) = &self.migration {
            let (epoch, landed) = (mig.epoch, mig.landed);
            let waves = mig.moves.len().div_ceil(mig.wave_len);
            // A worker dying *mid-migration* invalidates the target plan
            // (it may assign tasks to the new corpse): abandon it as a
            // failed attempt. The detector has already folded the new
            // death into the pending recovery, so the next attempt
            // re-plans against the updated survivor set.
            let down = self.known_down();
            let invalidated = down.iter().any(|w| !mig.known_down_at_start.contains(w));
            if !invalidated && self.sim.state_transfer_active() {
                return Ok(()); // the current wave is still draining
            }
            let time = self.time;
            let decided = if invalidated {
                self.decide(
                    "migration abandonment",
                    true,
                    |r| matches!(r, DecisionRecord::Retry { .. }),
                    |me| Ok(me.decide_retry()),
                )?
            } else if landed < waves {
                self.decide(
                    "migration wave",
                    true,
                    |r| {
                        matches!(r, DecisionRecord::MigrateStep { epoch: e, wave, .. }
                            if *e == epoch && *wave == landed)
                    },
                    |_| {
                        Ok(Some(DecisionRecord::MigrateStep {
                            epoch,
                            wave: landed,
                            time,
                        }))
                    },
                )?
            } else {
                self.decide(
                    "migration commit",
                    true,
                    |r| matches!(r, DecisionRecord::MigrateCommit { epoch: e, .. } if *e == epoch),
                    |_| Ok(Some(DecisionRecord::MigrateCommit { epoch, time })),
                )?
            };
            let Some((rec, origin)) = decided else {
                return Ok(());
            };
            self.apply(rec, origin, None)?;
        }
        Ok(())
    }

    /// Applies one decision, live or replayed. This is the only code
    /// that changes the simulation, the placement or the epoch in
    /// response to a decision:
    ///
    /// 1. restore the RNG state and epoch the record carries — live the
    ///    loop's own post-search state and freshly burned epoch;
    /// 2. journal the record (see [`ClosedLoop::journal`]);
    /// 3. on replay, peek at a two-phase record's fate: its `Commit`
    ///    follows (committed); a `Retry` follows (abandoned — the
    ///    crashed run failed to deploy it, so it is not deployed and the
    ///    `Retry` is applied instead); or it is the journal tail (in
    ///    doubt — roll it forward);
    /// 4. deploy, set the shed fraction, or begin the migration — live
    ///    under the epoch fence, replayed by stamping the journaled
    ///    epoch;
    /// 5. consume the journal's `Commit`, or write one live;
    /// 6. settle the trace and policy bookkeeping.
    ///
    /// `verdict` is the governor or admission-controller request that a
    /// `Rollback` or `Shed` answers.
    fn apply(
        &mut self,
        rec: DecisionRecord,
        origin: Origin,
        verdict: Option<Verdict<'_>>,
    ) -> Result<(), ControllerError> {
        match &rec {
            DecisionRecord::Prepare {
                epoch,
                parallelism,
                assignment,
                rng,
                ..
            }
            | DecisionRecord::Rollback {
                epoch,
                parallelism,
                assignment,
                rng,
                ..
            } => {
                // Only a recovery `Prepare` may be abandoned by a `Retry`.
                let (rollback, recovery) = match (&rec, verdict) {
                    (DecisionRecord::Prepare { reason, .. }, _) => {
                        (None, *reason == RedeployReason::Recovery)
                    }
                    (_, Some(Verdict::Rollback(req))) => (Some(req), false),
                    _ => return Err(unrequested("rollback")),
                };
                let epoch = *epoch;
                let plan = self.plan(parallelism, assignment, origin)?;
                self.rng = restore_rng(*rng)?;
                self.epoch = epoch;
                self.journal(rec.clone(), origin)?;
                let fate = self.fate(epoch, origin, recovery)?;
                if fate == Fate::Abandoned {
                    return match self.replay.pop_front() {
                        Some(retry) => self.apply(retry, Origin::Journal, None),
                        None => Ok(()),
                    };
                }
                self.deploy(plan, epoch, origin)?;
                self.commit(epoch, fate)?;
                match (rec, rollback) {
                    (_, Some(req)) => self.finish_rollback(req, epoch),
                    (DecisionRecord::Prepare { rung, .. }, _) if recovery => {
                        self.finish_recovery(rung)
                    }
                    (DecisionRecord::Prepare { parallelism, .. }, _) => {
                        self.events.push(ScalingEvent {
                            time: self.time,
                            parallelism,
                            slots: self.physical.num_tasks(),
                        });
                        let snap = self.snapshot();
                        if let Some(gov) = &mut self.guard {
                            gov.on_scaling_deploy(self.time, snap);
                        }
                    }
                    _ => {}
                }
            }
            DecisionRecord::Shed {
                epoch,
                fraction,
                rng,
                ..
            } => {
                let Some(Verdict::Shed(req)) = verdict else {
                    return Err(unrequested("shed"));
                };
                let (epoch, fraction) = (*epoch, *fraction);
                self.rng = restore_rng(*rng)?;
                self.epoch = epoch;
                self.journal(rec, origin)?;
                let fate = self.fate(epoch, origin, false)?;
                // No plan change and no sim swap: the fence binds on the
                // running simulation, exactly like a migration.
                fence_epoch(&self.fence, &mut self.sim, epoch, origin)?;
                let from_fraction = self.sim.shed_fraction();
                self.sim.set_shed_fraction(fraction);
                self.commit(epoch, fate)?;
                self.finish_shed(req, epoch, from_fraction);
            }
            DecisionRecord::MigratePrepare {
                epoch,
                parallelism,
                assignment,
                rung,
                moved,
                wave_len,
                rng,
                ..
            } => {
                let (epoch, rung, wave_len) = (*epoch, *rung, (*wave_len).max(1));
                if *parallelism != self.query.logical().parallelism_vector() {
                    return Err(ControllerError::JournalReplay(
                        "journaled migration changes parallelism — migrations move tasks, \
                         they do not scale"
                            .into(),
                    ));
                }
                let target = placement_of(assignment);
                target.validate(&self.physical, self.cluster).map_err(|e| {
                    ControllerError::JournalReplay(format!("migration target is invalid: {e}"))
                })?;
                let retained = self.state_transfer.ok_or_else(|| {
                    ControllerError::JournalReplay(
                        "journal contains a migration but state-transfer charging is not \
                         configured"
                            .into(),
                    )
                })?;
                let state = StateModel::derive(self.query.logical(), &self.physical, retained)
                    .map_err(ControllerError::Model)?;
                let diff = PlanDiff::between(&self.placement, &target, &state)
                    .map_err(ControllerError::Model)?;
                if !diff
                    .moves()
                    .iter()
                    .map(|m| m.task.0)
                    .eq(moved.iter().copied())
                {
                    return Err(ControllerError::JournalReplay(
                        "journaled move set does not match the difference between the \
                         incumbent and target plans"
                            .into(),
                    ));
                }
                self.rng = restore_rng(*rng)?;
                self.epoch = epoch;
                self.journal(rec, origin)?;
                // The live simulation keeps running across the migration,
                // but the migration itself must win the fence: a
                // superseded zombie must not move tasks around.
                fence_epoch(&self.fence, &mut self.sim, epoch, origin)?;
                self.migration = Some(MigrationState {
                    epoch,
                    rung,
                    target,
                    moves: diff.moves().to_vec(),
                    wave_len,
                    landed: 0,
                    known_down_at_start: self.known_down(),
                });
                self.start_wave()?;
            }
            DecisionRecord::MigrateStep { .. } => {
                self.journal(rec, origin)?;
                // The draining wave has landed: trace it, start the next.
                self.close_open_wave();
                if let Some(m) = &mut self.migration {
                    m.landed += 1;
                }
                self.start_wave()?;
            }
            DecisionRecord::MigrateCommit { .. } => {
                let mig = self.migration.take();
                self.journal(rec, origin)?;
                if let Some(mig) = mig {
                    self.placement = mig.target;
                    self.last_action = self.time;
                    self.finish_recovery(mig.rung);
                }
            }
            DecisionRecord::Retry {
                attempts,
                gave_up,
                next_attempt_at,
                rng,
                ..
            } => {
                let (attempts, gave_up, next_attempt_at) = (*attempts, *gave_up, *next_attempt_at);
                self.rng = restore_rng(*rng)?;
                self.journal(rec, origin)?;
                // A failed attempt abandons any in-flight migration: its
                // tasks unpause in place.
                if self.migration.take().is_some() {
                    self.sim.cancel_state_transfer();
                    self.open_wave = None;
                }
                if let Some(state) = &mut self.recovery {
                    if gave_up {
                        state.pending = None;
                    } else if let Some(p) = &mut state.pending {
                        p.attempts = attempts;
                        if let Some(t) = next_attempt_at {
                            p.next_attempt_at = t;
                        }
                    }
                }
            }
            DecisionRecord::Init { .. } | DecisionRecord::Commit { .. } => {
                return Err(ControllerError::JournalReplay(
                    "init and commit records are not decisions of their own".into(),
                ));
            }
        }
        Ok(())
    }

    /// What became of the just-journaled two-phase decision of `epoch`.
    /// A live decision, or a replayed one at the journal tail, is
    /// `Open`: it writes its own `Commit`. `may_abandon` says whether a
    /// following `Retry` may mark it abandoned — only a recovery
    /// re-placement fails softly.
    fn fate(&self, epoch: u64, origin: Origin, may_abandon: bool) -> Result<Fate, ControllerError> {
        if origin == Origin::Live {
            return Ok(Fate::Open);
        }
        match self.replay.front() {
            None => Ok(Fate::Open),
            Some(DecisionRecord::Commit { epoch: e, .. }) if *e == epoch => Ok(Fate::Committed),
            Some(DecisionRecord::Retry { .. }) if may_abandon => Ok(Fate::Abandoned),
            Some(other) => Err(ControllerError::JournalReplay(format!(
                "the decision of epoch {epoch} is followed by a decision from t={:.3} that does \
                 not settle it",
                other.time()
            ))),
        }
    }

    /// Phase two: re-journals the replayed `Commit` of a committed
    /// decision; otherwise — live, or rolling an in-doubt decision
    /// forward as the surviving controller — journals the `Commit` live.
    fn commit(&mut self, epoch: u64, fate: Fate) -> Result<(), ControllerError> {
        if fate == Fate::Committed {
            if let Some(commit) = self.replay.pop_front() {
                return self.journal(commit, Origin::Journal);
            }
        }
        let commit = DecisionRecord::Commit {
            epoch,
            time: self.time,
        };
        self.journal(commit, Origin::Live)
    }

    /// Resolves a decision's plan into a deployable query, physical
    /// graph and placement, checked against the cluster.
    fn plan(
        &self,
        parallelism: &[usize],
        assignment: &[usize],
        origin: Origin,
    ) -> Result<(Query, PhysicalGraph, Placement), ControllerError> {
        let invalid = |e: capsys_model::ModelError| match origin {
            Origin::Live => ControllerError::Model(e),
            Origin::Journal => {
                ControllerError::JournalReplay(format!("journaled plan is invalid: {e}"))
            }
        };
        let query = self.query.with_parallelism(parallelism).map_err(invalid)?;
        let physical = query.physical();
        let placement = placement_of(assignment);
        placement
            .validate(&physical, self.cluster)
            .map_err(invalid)?;
        Ok((query, physical, placement))
    }

    /// Resolves the pending recovery into trace events.
    fn finish_recovery(&mut self, rung: LadderRung) {
        if let Some(rec) = &mut self.recovery {
            if let Some(p) = rec.pending.take() {
                for &(w, since) in &p.workers {
                    rec.events.push(RecoveryEvent {
                        worker: w,
                        stale_since: since,
                        detected_at: p.detected_at,
                        detection_lag: p.detected_at - since,
                        recovered_at: self.time,
                        time_to_recover: self.time - since,
                        plans_tried: p.attempts + 1,
                        rung,
                    });
                }
            }
        }
        // A recovery redeploy is forced, never canaried: the governor
        // aborts any probation and adopts the forced plan as trusted.
        let snap = self.snapshot();
        if let Some(gov) = &mut self.guard {
            gov.on_recovery_deploy(self.time, snap);
        }
    }

    /// Starts the in-flight migration's next wave inside the running
    /// simulation — nothing restarts; only the wave's tasks pause while
    /// their state drains. Does nothing once every wave has landed.
    fn start_wave(&mut self) -> Result<(), ControllerError> {
        let Some(m) = &self.migration else {
            return Ok(());
        };
        let start = m.landed * m.wave_len;
        if start >= m.moves.len() {
            return Ok(());
        }
        let chunk = &m.moves[start..(start + m.wave_len).min(m.moves.len())];
        let transfers: Vec<TaskTransfer> = chunk
            .iter()
            .map(|m| TaskTransfer {
                task: m.task.0,
                to: m.to.0,
                bytes: m.bytes as f64,
            })
            .collect();
        let wave = OpenWave {
            epoch: m.epoch,
            wave: m.landed,
            tasks: chunk.len(),
            bytes: chunk.iter().map(|m| m.bytes).sum(),
            paused_base: self.sim.paused_task_seconds(),
        };
        self.sim
            .begin_state_transfer(&transfers, false)
            .map_err(ControllerError::Sim)?;
        self.open_wave = Some(wave);
        Ok(())
    }

    /// Closes the trace's open state-transfer wave against the current
    /// simulation's paused-seconds clock.
    fn close_open_wave(&mut self) {
        if let Some(w) = self.open_wave.take() {
            self.migration_waves.push(MigrationWave {
                epoch: w.epoch,
                wave: w.wave,
                tasks_moved: w.tasks,
                bytes: w.bytes,
                downtime: (self.sim.paused_task_seconds() - w.paused_base).max(0.0),
                completed_at: self.time,
            });
        }
    }

    /// Swaps in a new deployment: a fresh simulation (the
    /// restart-from-savepoint analogue) with the chaos state accumulated
    /// so far and the unfired fault-schedule suffix carried over. The new
    /// simulation takes `epoch` through [`fence_epoch`]: a live deploy
    /// that loses the fence leaves the current deployment untouched.
    fn deploy(
        &mut self,
        (query, physical, placement): (Query, PhysicalGraph, Placement),
        epoch: u64,
        origin: Origin,
    ) -> Result<(), ControllerError> {
        // Shift the schedule so the new simulation continues at the
        // current wall-clock position.
        let offset = self.time;
        let shifted = shift_schedule(&self.schedule, offset);
        let mut sim = Simulation::new(
            query.logical(),
            &physical,
            self.cluster,
            &placement,
            &query.schedules_from(&shifted),
            self.sim_config.clone(),
        )
        .map_err(ControllerError::Sim)?;
        // Chaos state accumulated before the restart must survive it.
        let old = &self.sim;
        for (w, f) in old.failed_workers().iter().enumerate() {
            if *f {
                sim.fail_worker(WorkerId(w));
            }
        }
        for (w, s) in old.slowdowns().iter().enumerate() {
            if *s > 1.0 {
                sim.set_slowdown(WorkerId(w), *s);
            }
        }
        sim.set_blackout(old.in_blackout());
        sim.set_shed_fraction(old.shed_fraction());
        for (w, on) in old.partitioned_workers().iter().enumerate() {
            if *on {
                sim.set_partitioned(WorkerId(w), true);
            }
        }
        for (w, f) in old.net_degrades().iter().enumerate() {
            if *f < 1.0 {
                sim.set_net_degrade(WorkerId(w), *f);
            }
        }
        for (w, c) in old.contentions().iter().enumerate() {
            if *c > 1.0 {
                sim.set_contention(WorkerId(w), *c);
            }
        }
        if let Some(plan) = &self.fault_plan {
            sim.install_faults(plan.shifted(offset))
                .map_err(ControllerError::Sim)?;
        }
        // Deploys after the model-skew onset run on the stale model
        // unless they restore the trusted (measured) plan.
        if let Some(skew) = &self.skew {
            if self.time + 1e-9 >= skew.fault.time {
                let key = (query.logical().parallelism_vector(), worker_ids(&placement));
                if skew.trusted.as_ref() != Some(&key) {
                    sim.set_model_skew(skew.fault.factor);
                }
            }
        }
        // With state-transfer charging on, a whole-plan redeploy is a
        // restore-from-savepoint: every stateful task of the new plan
        // pauses while its state loads from its target worker's disk.
        let mut restore_wave = None;
        if let Some(retained) = self.state_transfer {
            let state = StateModel::derive(query.logical(), &physical, retained)
                .map_err(ControllerError::Model)?;
            let transfers: Vec<TaskTransfer> = (0..physical.num_tasks())
                .filter_map(|t| {
                    let bytes = state.state_bytes(TaskId(t));
                    (bytes > 0).then(|| TaskTransfer {
                        task: t,
                        to: placement.worker_of(TaskId(t)).0,
                        bytes: bytes as f64,
                    })
                })
                .collect();
            if !transfers.is_empty() {
                let bytes: u64 = transfers.iter().map(|t| t.bytes as u64).sum();
                sim.begin_state_transfer(&transfers, true)
                    .map_err(ControllerError::Sim)?;
                restore_wave = Some(OpenWave {
                    epoch,
                    wave: 0,
                    tasks: transfers.len(),
                    bytes,
                    paused_base: 0.0,
                });
            }
        }
        fence_epoch(&self.fence, &mut sim, epoch, origin)?;
        // A still-draining wave of the outgoing deployment ends here:
        // close it against the old simulation before it is dropped.
        self.close_open_wave();
        self.query = query;
        self.physical = physical;
        self.placement = placement;
        self.sim = sim;
        self.open_wave = restore_wave;
        self.last_action = self.time;
        self.recent.clear();
        Ok(())
    }

    /// Settles a completed rollback: quarantine and cooldown bookkeeping
    /// in the governor, plus a [`RollbackEvent`] on the trace.
    fn finish_rollback(&mut self, req: &RollbackRequest, to_epoch: u64) {
        let cooldown_until = match &mut self.guard {
            Some(gov) => gov.on_rollback(self.time, req),
            None => self.time,
        };
        self.rollback_events.push(RollbackEvent {
            time: self.time,
            from_epoch: req.regressed.epoch,
            to_epoch,
            deployed_at: req.deployed_at,
            degraded_for: self.time - req.deployed_at,
            baseline_tracking: req.baseline_tracking,
            observed_tracking: req.observed_tracking,
            cooldown_until,
        });
    }

    /// Settles an applied shed change: admission-controller bookkeeping
    /// plus a [`ShedEvent`] on the trace. `from_fraction` is the
    /// fraction in force before this change.
    fn finish_shed(&mut self, req: &ShedRequest, epoch: u64, from_fraction: f64) {
        if let Some(shed) = &mut self.shedder {
            shed.on_applied(req.fraction);
        }
        self.shed_events.push(ShedEvent {
            time: self.time,
            epoch,
            from_fraction,
            to_fraction: req.fraction,
            offered: req.offered,
            capacity: req.capacity,
        });
    }
}

/// Shifts a schedule left by `offset` seconds (the new simulation's t=0
/// corresponds to global time `offset`).
fn shift_schedule(schedule: &RateSchedule, offset: f64) -> RateSchedule {
    match schedule {
        RateSchedule::Constant(r) => RateSchedule::Constant(*r),
        RateSchedule::Steps(steps) => {
            let mut shifted: Vec<(f64, f64)> = Vec::new();
            let mut current = steps.first().map(|&(_, r)| r).unwrap_or(0.0);
            for &(t, r) in steps {
                if t <= offset {
                    current = r;
                } else {
                    shifted.push((t - offset, r));
                }
            }
            shifted.insert(0, (0.0, current));
            RateSchedule::Steps(shifted)
        }
        RateSchedule::SquareWave {
            high,
            low,
            period_sec,
        } => {
            // Re-express as steps covering a long horizon.
            let mut steps = Vec::new();
            let horizon = 100.0 * period_sec;
            let mut t = 0.0;
            while t < horizon {
                let global = t + offset;
                let phase = (global / period_sec).floor() as i64;
                let rate = if phase % 2 == 0 { *high } else { *low };
                steps.push((t, rate));
                let next_boundary = ((global / period_sec).floor() + 1.0) * period_sec;
                t = next_boundary - offset;
            }
            RateSchedule::Steps(steps)
        }
        RateSchedule::Program(p) => RateSchedule::Program(p.shifted(offset)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_core::SearchConfig;
    use capsys_model::{RateProgram, TaskId, WorkerSpec};
    use capsys_placement::{CapsStrategy, FlinkDefault};
    use capsys_queries::q1_sliding;
    use capsys_sim::{FaultEvent, FaultKind};
    use capsys_util::forall;
    use capsys_util::prop::{ints, vec_of, Config};
    use std::time::Duration;

    fn small_cluster() -> Cluster {
        Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap()
    }

    fn fast_ds2() -> Ds2Config {
        Ds2Config {
            activation_period: 20.0,
            policy_interval: 5.0,
            max_parallelism: 8,
            headroom: 1.0,
        }
    }

    #[test]
    fn shift_schedule_preserves_rates() {
        let s = RateSchedule::Steps(vec![(0.0, 10.0), (100.0, 20.0), (200.0, 5.0)]);
        let shifted = shift_schedule(&s, 150.0);
        assert_eq!(shifted.rate_at(0.0), 20.0);
        assert_eq!(shifted.rate_at(49.0), 20.0);
        assert_eq!(shifted.rate_at(50.0), 5.0);
        let w = RateSchedule::SquareWave {
            high: 100.0,
            low: 40.0,
            period_sec: 60.0,
        };
        let ws = shift_schedule(&w, 90.0);
        // Global t=90 is in the low phase (60..120).
        assert_eq!(ws.rate_at(0.0), 40.0);
        assert_eq!(ws.rate_at(29.0), 40.0);
        assert_eq!(ws.rate_at(30.0), 100.0);
    }

    /// Builds a sorted integer-valued step schedule from generated
    /// pairs. Integer-valued times keep float subtraction exact, so the
    /// shift properties below can assert strict equality: for reals,
    /// `(t - a) - b` and `t - (a + b)` differ by an ulp.
    fn steps_from(pairs: &[(u32, u32)]) -> RateSchedule {
        let mut s: Vec<(f64, f64)> = pairs
            .iter()
            .map(|&(t, r)| (t as f64, (r + 1) as f64))
            .collect();
        s.sort_by(|a, b| a.0.total_cmp(&b.0));
        RateSchedule::Steps(s)
    }

    #[test]
    fn prop_shift_by_zero_is_identity() {
        forall!(Config::default().cases(64), (
            pairs in vec_of((ints(0u32..400), ints(0u32..1000)), 1..=6),
            probe in ints(0u32..500),
        ) => {
            let sched = steps_from(pairs);
            let shifted = shift_schedule(&sched, 0.0);
            assert_eq!(
                sched.rate_at(*probe as f64),
                shifted.rate_at(*probe as f64),
                "shift-by-0 changed the rate at t={probe} for {sched:?}"
            );
        });
    }

    #[test]
    fn prop_shifts_compose() {
        forall!(Config::default().cases(64), (
            pairs in vec_of((ints(0u32..400), ints(0u32..1000)), 1..=6),
            a in ints(0u32..200),
            b in ints(0u32..200),
            probe in ints(0u32..500),
        ) => {
            let sched = steps_from(pairs);
            let twice = shift_schedule(&shift_schedule(&sched, *a as f64), *b as f64);
            let once = shift_schedule(&sched, (*a + *b) as f64);
            assert_eq!(
                twice.rate_at(*probe as f64),
                once.rate_at(*probe as f64),
                "shift {a} then {b} != shift {} at t={probe} for {sched:?}",
                a + b
            );
        });
    }

    #[test]
    fn closed_loop_scales_up_on_rate_increase() {
        // Start tiny (parallelism 1 everywhere) and let DS2 grow the job.
        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        let cluster = small_cluster();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            fast_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let trace = loop_.run(300.0).unwrap();
        assert!(trace.num_scalings() >= 1, "DS2 never scaled");
        let final_tasks: usize = trace.final_parallelism.iter().sum();
        assert!(
            final_tasks > 4,
            "parallelism did not grow: {:?}",
            trace.final_parallelism
        );
        // After convergence the job should track the target.
        let late_tp = trace.avg_throughput(200.0, 300.0);
        let late_target = trace.avg_target(200.0, 300.0);
        assert!(
            late_tp >= 0.85 * late_target,
            "converged throughput {late_tp} vs target {late_target}"
        );
    }

    #[test]
    fn closed_loop_with_random_placement_also_runs() {
        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        let cluster = small_cluster();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = FlinkDefault;
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            fast_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            3,
        )
        .unwrap();
        let trace = loop_.run(200.0).unwrap();
        assert!(!trace.points.is_empty());
    }

    /// Builds a chaos run: q1 at its paper parallelism on 6 workers, a
    /// seeded crash of the worker hosting task 0 at t=60s, recovery
    /// enabled. Returns the victim and the trace.
    fn chaos_run(recovery: RecoveryConfig) -> (WorkerId, ClosedLoopTrace) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            Ds2Config {
                activation_period: 60.0,
                ..fast_ds2()
            },
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let victim = loop_.placement().worker_of(TaskId(0));
        let plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])
        .unwrap();
        let trace = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(recovery)
            .run(300.0)
            .unwrap();
        (victim, trace)
    }

    #[test]
    fn chaos_crash_is_detected_and_recovered() {
        let (victim, trace) = chaos_run(RecoveryConfig::default());
        assert_eq!(trace.recovery_events.len(), 1, "one recovery expected");
        let ev = &trace.recovery_events[0];
        assert_eq!(ev.worker, victim);
        assert!(
            ev.detected_at > 60.0,
            "detected before the crash: {}",
            ev.detected_at
        );
        assert!(
            ev.detected_at <= 90.0,
            "detection took too long: {}",
            ev.detected_at
        );
        assert_eq!(ev.plans_tried, 1);
        assert_eq!(ev.rung, LadderRung::Caps);
        // With miss_threshold 2 and 5s windows, declaration trails the
        // first silent heartbeat by one window.
        assert!(ev.detection_lag > 0.0, "no detection lag recorded");
        assert!(ev.time_to_recover >= ev.detection_lag);
        assert_eq!(trace.mttr(), Some(ev.time_to_recover));
        // After recovery settles, the job tracks >= 95% of its target on
        // the surviving workers.
        let tp = trace.avg_throughput(ev.recovered_at + 60.0, 300.0);
        let tgt = trace.avg_target(ev.recovered_at + 60.0, 300.0);
        assert!(
            tp >= 0.95 * tgt,
            "post-recovery throughput {tp} below 95% of target {tgt}"
        );
        // The outage left a visible loss footprint.
        assert!(trace.throughput_loss_area(60.0, ev.recovered_at + 30.0) > 0.0);
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let (v1, t1) = chaos_run(RecoveryConfig::default());
        let (v2, t2) = chaos_run(RecoveryConfig::default());
        assert_eq!(v1, v2);
        assert_eq!(t1.recovery_events, t2.recovery_events);
        assert_eq!(t1.events, t2.events);
        assert_eq!(t1.points, t2.points);
    }

    #[test]
    fn zero_search_budget_degrades_to_round_robin() {
        // A recovery policy whose CAPS rungs get no time at all must fall
        // through to the round-robin rung, never error.
        let cfg = RecoveryConfig {
            search: SearchConfig {
                time_budget: Some(Duration::ZERO),
                ..SearchConfig::auto_tuned()
            },
            ..RecoveryConfig::default()
        };
        let (victim, trace) = chaos_run(cfg);
        assert_eq!(trace.recovery_events.len(), 1);
        let ev = &trace.recovery_events[0];
        assert_eq!(ev.worker, victim);
        assert_eq!(ev.rung, LadderRung::RoundRobin);
        // Even the degraded plan keeps the job alive.
        let tp = trace.avg_throughput(ev.recovered_at + 60.0, 300.0);
        assert!(tp > 0.0, "round-robin recovery produced no throughput");
    }

    #[test]
    fn activation_period_limits_scaling_frequency() {
        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        let cluster = small_cluster();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let cfg = Ds2Config {
            activation_period: 1000.0,
            ..fast_ds2()
        };
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            cfg,
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let trace = loop_.run(120.0).unwrap();
        // Only the very first evaluation can fire.
        assert!(trace.num_scalings() <= 1);
    }

    // ---- durability ----------------------------------------------------

    /// The chaos scenario of `chaos_run` with a journal attached and an
    /// optional controller kill. Returns the run outcome and the journal
    /// text (which survives the loop's death).
    fn journaled_chaos_run(
        kill: Option<KillPoint>,
    ) -> (Result<ClosedLoopTrace, ControllerError>, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            Ds2Config {
                activation_period: 60.0,
                ..fast_ds2()
            },
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let victim = loop_.placement().worker_of(TaskId(0));
        let mut plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])
        .unwrap();
        if let Some(k) = kill {
            plan = plan.with_controller_kill(k).unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let result = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(RecoveryConfig::default())
            .with_journal(journal)
            .unwrap()
            .run(300.0);
        (result, buf.text())
    }

    /// Recovers from `journal_text` and runs to the scenario's end,
    /// returning the trace and the recovered run's (fresh) journal.
    fn recover_and_finish(journal_text: &str) -> (ClosedLoopTrace, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::recover_from_journal(
            &query,
            &cluster,
            &strategy,
            Ds2Config {
                activation_period: 60.0,
                ..fast_ds2()
            },
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            journal_text,
        )
        .unwrap();
        // The same fault plan the crashed run had, minus its kill.
        let victim = loop_.placement().worker_of(TaskId(0));
        let plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])
        .unwrap();
        let (journal, buf) = DecisionJournal::in_memory();
        let trace = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(RecoveryConfig::default())
            .with_journal(journal)
            .unwrap()
            .run(300.0)
            .unwrap();
        (trace, buf.text())
    }

    #[test]
    fn journaled_mcts_decision_rederives_byte_identically() {
        // ISSUE acceptance: a Prepare journaled by an MCTS-backed
        // strategy records backend + seed + budget, and re-running the
        // search they describe re-derives the journaled assignment
        // byte-for-byte.
        use capsys_core::{CapsSearch, MctsConfig, SearchBackend};

        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        let cluster = small_cluster();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let mcts_search = SearchConfig {
            node_budget: Some(20_000),
            backend: SearchBackend::Mcts(MctsConfig::seeded(0xFEED)),
            ..SearchConfig::auto_tuned()
        };
        let strategy = CapsStrategy::new(mcts_search.clone());
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            fast_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let (journal, buf) = DecisionJournal::in_memory();
        loop_.with_journal(journal).unwrap().run(150.0).unwrap();

        let parsed = crate::journal::parse_journal(&buf.text()).unwrap();
        let mut checked = 0;
        for rec in &parsed.records {
            let DecisionRecord::Prepare {
                parallelism,
                assignment,
                rate,
                search,
                ..
            } = rec
            else {
                continue;
            };
            let desc = search
                .as_ref()
                .expect("the CAPS strategy must journal its search descriptor");
            assert_eq!(desc.backend, "mcts");
            assert_eq!(desc.seed, Some(0xFEED));
            assert_eq!(desc.node_budget, Some(20_000));
            // Re-run the journaled search: the descriptor pins backend,
            // seed, and budget; the rest of the configuration comes from
            // the strategy, exactly as recovery reconstructs the loop.
            let q = q1_sliding().with_parallelism(parallelism).unwrap();
            let p = q.physical();
            let loads = q.load_model_at(&p, *rate).unwrap();
            let config = SearchConfig {
                node_budget: desc.node_budget,
                backend: SearchBackend::Mcts(MctsConfig::seeded(desc.seed.unwrap())),
                ..mcts_search.clone()
            };
            let outcome = CapsSearch::new(q.logical(), &p, &cluster, &loads)
                .unwrap()
                .run(&config)
                .unwrap();
            let rederived: Vec<usize> = outcome
                .best_plan()
                .unwrap()
                .assignment()
                .iter()
                .map(|w| w.0)
                .collect();
            assert_eq!(
                &rederived, assignment,
                "journaled MCTS plan must re-derive byte-identically"
            );
            checked += 1;
        }
        assert!(checked >= 1, "scenario journaled no Prepare records");
    }

    #[test]
    fn journal_records_prepare_commit_pairs() {
        let (result, text) = journaled_chaos_run(None);
        result.unwrap();
        let parsed = crate::journal::parse_journal(&text).unwrap();
        assert!(!parsed.torn);
        assert!(matches!(parsed.records[0], DecisionRecord::Init { .. }));
        let mut last_epoch = 0u64;
        let mut prepares = 0;
        let mut i = 1;
        while i < parsed.records.len() {
            match &parsed.records[i] {
                DecisionRecord::Prepare { epoch, .. } => {
                    prepares += 1;
                    assert!(*epoch > last_epoch, "epochs must increase strictly");
                    last_epoch = *epoch;
                    // Every applied prepare is immediately committed.
                    match parsed.records.get(i + 1) {
                        Some(DecisionRecord::Commit { epoch: e, .. }) => assert_eq!(e, epoch),
                        Some(DecisionRecord::Retry { .. }) => {} // abandoned
                        other => panic!("prepare followed by {other:?}"),
                    }
                    i += 2;
                }
                DecisionRecord::Retry { .. } => i += 1,
                other => panic!("unexpected record {other:?}"),
            }
        }
        assert!(prepares >= 1, "the crash recovery must journal a prepare");
    }

    #[test]
    fn kill_at_each_decision_recovers_byte_identically() {
        // The headline property, sampled at three decision points (the
        // exhaustive sweep lives in exp_recovery): a controller killed
        // right after journaling record k, then recovered from the
        // journal, finishes with a byte-identical trace — and writes a
        // byte-identical journal.
        let (baseline, golden_journal) = journaled_chaos_run(None);
        let golden = baseline.unwrap().to_json().to_string();
        let n = golden_journal.lines().count() as u64;
        assert!(n >= 3, "scenario too quiet to test kills ({n} records)");
        // First prepare's sequence number: killing there is a kill
        // between Prepare and Commit.
        let parsed = crate::journal::parse_journal(&golden_journal).unwrap();
        let prepare_seq = parsed
            .records
            .iter()
            .position(|r| matches!(r, DecisionRecord::Prepare { .. }))
            .expect("no prepare in golden journal") as u64;
        for k in [1, prepare_seq, n - 1] {
            let (result, partial) = journaled_chaos_run(Some(KillPoint::AfterRecord(k)));
            match result {
                Err(ControllerError::ControllerKilled { seq, .. }) => assert_eq!(seq, k + 1),
                other => panic!("kill at record {k} did not fire: {other:?}"),
            }
            assert_eq!(
                partial.lines().count() as u64,
                k + 1,
                "journal must hold exactly the records up to the kill"
            );
            let (trace, rewritten) = recover_and_finish(&partial);
            assert_eq!(
                trace.to_json().to_string(),
                golden,
                "recovered trace diverged after kill at record {k}"
            );
            assert_eq!(
                rewritten, golden_journal,
                "recovered journal diverged after kill at record {k}"
            );
        }
    }

    #[test]
    fn kill_between_prepare_and_commit_rolls_forward() {
        let (baseline, golden_journal) = journaled_chaos_run(None);
        let golden = baseline.unwrap().to_json().to_string();
        let parsed = crate::journal::parse_journal(&golden_journal).unwrap();
        let first_epoch = parsed
            .records
            .iter()
            .find_map(|r| match r {
                DecisionRecord::Prepare { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .expect("no prepare in golden journal");
        let (result, partial) = journaled_chaos_run(Some(KillPoint::MidReconfig(first_epoch)));
        assert!(
            matches!(result, Err(ControllerError::ControllerKilled { .. })),
            "mid-reconfiguration kill did not fire"
        );
        // The journal tail is the in-doubt Prepare.
        let tail = crate::journal::parse_journal(&partial).unwrap();
        assert!(
            matches!(tail.records.last(), Some(DecisionRecord::Prepare { epoch, .. }) if *epoch == first_epoch),
            "journal tail is not the prepared epoch"
        );
        // Recovery rolls it forward and the run finishes identically.
        let (trace, rewritten) = recover_and_finish(&partial);
        assert_eq!(trace.to_json().to_string(), golden);
        assert_eq!(rewritten, golden_journal);
    }

    // ---- incremental migration -----------------------------------------

    /// Retained records per key group for the migration scenarios:
    /// sizes the sliding window's state at 100 MB per subtask.
    const RETAINED_RECORDS: f64 = 2e5;

    fn migration_ds2() -> Ds2Config {
        // A huge activation period keeps DS2 quiet: the journal holds
        // only the crash recovery, whichever form it takes.
        Ds2Config {
            activation_period: 1000.0,
            ..fast_ds2()
        }
    }

    fn migration_config() -> MigrationConfig {
        MigrationConfig {
            epsilon: 0.05,
            wave_size: 1,
        }
    }

    /// The chaos scenario with state-transfer charging (and optionally
    /// incremental migration), a journal, and an optional kill.
    fn migration_run(
        kill: Option<KillPoint>,
        incremental: bool,
    ) -> (Result<ClosedLoopTrace, ControllerError>, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            migration_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let victim = loop_.placement().worker_of(TaskId(0));
        let mut plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])
        .unwrap();
        if let Some(k) = kill {
            plan = plan.with_controller_kill(k).unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let mut loop_ = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(RecoveryConfig::default())
            .with_state_transfer(RETAINED_RECORDS)
            .unwrap();
        if incremental {
            loop_ = loop_
                .with_incremental_migration(migration_config())
                .unwrap();
        }
        let result = loop_.with_journal(journal).unwrap().run(300.0);
        (result, buf.text())
    }

    /// Recovers the incremental-migration scenario from `journal_text`
    /// and runs to its end.
    fn migration_recover_and_finish(journal_text: &str) -> (ClosedLoopTrace, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::recover_from_journal(
            &query,
            &cluster,
            &strategy,
            migration_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            journal_text,
        )
        .unwrap();
        let victim = loop_.placement().worker_of(TaskId(0));
        let plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])
        .unwrap();
        let (journal, buf) = DecisionJournal::in_memory();
        let trace = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_recovery(RecoveryConfig::default())
            .with_state_transfer(RETAINED_RECORDS)
            .unwrap()
            .with_incremental_migration(migration_config())
            .unwrap()
            .with_journal(journal)
            .unwrap()
            .run(300.0)
            .unwrap();
        (trace, buf.text())
    }

    #[test]
    fn incremental_migration_moves_less_and_pauses_less() {
        let (whole, _) = migration_run(None, false);
        let whole = whole.unwrap();
        let (inc, text) = migration_run(None, true);
        let inc = inc.unwrap();
        // Both recovered the crash exactly once.
        assert_eq!(whole.recovery_events.len(), 1);
        assert_eq!(inc.recovery_events.len(), 1);
        // The whole-plan redeploy reloads every stateful byte; the
        // migration moves only the displaced tasks'.
        assert!(inc.bytes_moved() > 0, "migration moved no state");
        assert!(
            inc.bytes_moved() < whole.bytes_moved(),
            "incremental moved {} bytes, whole-plan restored {}",
            inc.bytes_moved(),
            whole.bytes_moved()
        );
        assert!(whole.downtime() > 0.0, "whole-plan restore paused nothing");
        assert!(
            inc.downtime() < whole.downtime(),
            "incremental downtime {} not below whole-plan {}",
            inc.downtime(),
            whole.downtime()
        );
        // Per-wave accounting sums to the trace total.
        let sum: f64 = inc.migration_waves.iter().map(|w| w.downtime).sum();
        assert_eq!(inc.downtime(), sum);

        // Journal protocol: one MigratePrepare, one MigrateStep per
        // moved task (wave_size 1), one MigrateCommit — and the move
        // set is exactly the tasks whose worker changed relative to the
        // incumbent (the last whole-plan deploy before the migration).
        let parsed = crate::journal::parse_journal(&text).unwrap();
        let mut incumbent = match &parsed.records[0] {
            DecisionRecord::Init { assignment, .. } => assignment.clone(),
            other => panic!("journal does not start with init: {other:?}"),
        };
        let mut migrate = None;
        for r in &parsed.records {
            match r {
                DecisionRecord::Prepare { assignment, .. } => incumbent = assignment.clone(),
                DecisionRecord::MigratePrepare {
                    epoch,
                    assignment,
                    moved,
                    ..
                } => {
                    migrate = Some((*epoch, assignment.clone(), moved.clone()));
                    break;
                }
                _ => {}
            }
        }
        let (migrate_epoch, target_assignment, moved) =
            migrate.expect("no migrate-prepare journaled");
        let steps = parsed
            .records
            .iter()
            .filter(|r| matches!(r, DecisionRecord::MigrateStep { .. }))
            .count();
        assert_eq!(steps, moved.len(), "one step per task at wave_size 1");
        assert_eq!(
            parsed
                .records
                .iter()
                .filter(|r| matches!(r, DecisionRecord::MigrateCommit { .. }))
                .count(),
            1
        );
        assert!(
            !moved.is_empty() && moved.len() < incumbent.len(),
            "migration should move some but not all tasks: {moved:?}"
        );
        assert_eq!(incumbent.len(), target_assignment.len());
        for t in 0..incumbent.len() {
            if moved.contains(&t) {
                assert_ne!(
                    incumbent[t], target_assignment[t],
                    "task {t} journaled as moved but kept its worker"
                );
            } else {
                assert_eq!(
                    incumbent[t], target_assignment[t],
                    "task {t} moved without being journaled"
                );
            }
        }
        // Migration waves land in order, one trace entry each. (Waves
        // from earlier whole-plan restores carry other epochs.)
        let wave_list: Vec<usize> = inc
            .migration_waves
            .iter()
            .filter(|w| w.epoch == migrate_epoch)
            .map(|w| w.wave)
            .collect();
        assert_eq!(wave_list, (0..steps).collect::<Vec<_>>());
    }

    #[test]
    fn whole_plan_restores_are_traced_as_waves() {
        let (whole, text) = migration_run(None, false);
        let whole = whole.unwrap();
        // Every whole-plan deploy — the early DS2 downscale and the
        // crash-recovery redeploy — reloads the full state model. The
        // operator's total state is parallelism-invariant:
        // state_bytes_per_record (4000) x retained records.
        let total_state = (4000.0 * RETAINED_RECORDS) as u64;
        assert_eq!(whole.migration_waves.len(), 2);
        for wave in &whole.migration_waves {
            assert_eq!(wave.wave, 0, "whole-plan restores are single-wave");
            assert_eq!(wave.bytes, total_state);
            assert!(wave.downtime > 0.0, "restore paused nothing: {wave:?}");
            // A restore reloads exactly the stateful tasks: the window
            // operator's subtasks at the parallelism its deploy chose.
            let parsed = crate::journal::parse_journal(&text).unwrap();
            let parallelism = parsed
                .records
                .iter()
                .find_map(|r| match r {
                    DecisionRecord::Prepare {
                        epoch, parallelism, ..
                    } if *epoch == wave.epoch => Some(parallelism.clone()),
                    _ => None,
                })
                .expect("restore wave without a matching prepare");
            assert_eq!(wave.tasks_moved, parallelism[2]);
        }
        let sum: f64 = whole.migration_waves.iter().map(|w| w.downtime).sum();
        assert_eq!(whole.downtime(), sum);
        // The recovery restore completed after the crash at t=60.
        assert!(whole.migration_waves[1].completed_at > 60.0);
    }

    #[test]
    fn no_state_transfer_means_no_waves() {
        let (_, trace) = chaos_run(RecoveryConfig::default());
        assert!(trace.migration_waves.is_empty());
        assert_eq!(trace.downtime(), 0.0);
        assert_eq!(trace.bytes_moved(), 0);
    }

    #[test]
    fn migration_kill_sweep_recovers_byte_identically() {
        // Kill after every migration record — after the MigratePrepare
        // (in-doubt migration rolls forward whole), after each
        // MigrateStep (mid-wave: the remaining waves roll forward), and
        // after the MigrateCommit — plus the journal tail. Every
        // recovery must finish with a byte-identical trace and rewrite
        // a byte-identical journal.
        let (baseline, golden_journal) = migration_run(None, true);
        let golden = baseline.unwrap().to_json().to_string();
        let parsed = crate::journal::parse_journal(&golden_journal).unwrap();
        let n = golden_journal.lines().count() as u64;
        let mut kill_seqs: Vec<u64> = Vec::new();
        let mut migrate_epoch = None;
        for (i, r) in parsed.records.iter().enumerate() {
            match r {
                DecisionRecord::MigratePrepare { epoch, .. } => {
                    migrate_epoch = Some(*epoch);
                    kill_seqs.push(i as u64);
                }
                DecisionRecord::MigrateStep { .. } | DecisionRecord::MigrateCommit { .. } => {
                    kill_seqs.push(i as u64);
                }
                _ => {}
            }
        }
        assert!(
            kill_seqs.len() >= 3,
            "migration journaled too few records to sweep: {kill_seqs:?}"
        );
        kill_seqs.push(n - 1);
        for &k in &kill_seqs {
            let (result, partial) = migration_run(Some(KillPoint::AfterRecord(k)), true);
            match result {
                Err(ControllerError::ControllerKilled { seq, .. }) => assert_eq!(seq, k + 1),
                other => panic!("kill at record {k} did not fire: {other:?}"),
            }
            assert_eq!(
                partial.lines().count() as u64,
                k + 1,
                "journal must hold exactly the records up to the kill"
            );
            let (trace, rewritten) = migration_recover_and_finish(&partial);
            assert_eq!(
                trace.to_json().to_string(),
                golden,
                "recovered trace diverged after kill at record {k}"
            );
            assert_eq!(
                rewritten, golden_journal,
                "recovered journal diverged after kill at record {k}"
            );
        }
        // Mid-reconfiguration kill on the migration's own epoch: the
        // controller dies at the MigratePrepare and the whole migration
        // rolls forward in the recovered run.
        let epoch = migrate_epoch.expect("no migrate-prepare in golden journal");
        let (result, partial) = migration_run(Some(KillPoint::MidReconfig(epoch)), true);
        assert!(
            matches!(result, Err(ControllerError::ControllerKilled { .. })),
            "mid-migration kill did not fire"
        );
        let tail = crate::journal::parse_journal(&partial).unwrap();
        assert!(
            matches!(
                tail.records.last(),
                Some(DecisionRecord::MigratePrepare { epoch: e, .. }) if *e == epoch
            ),
            "journal tail is not the in-doubt migrate-prepare"
        );
        let (trace, rewritten) = migration_recover_and_finish(&partial);
        assert_eq!(trace.to_json().to_string(), golden);
        assert_eq!(rewritten, golden_journal);
    }

    #[test]
    fn migration_builders_validate_their_inputs() {
        let query = q1_sliding();
        let cluster = small_cluster();
        let strategy = CapsStrategy::default();
        let build = || {
            ClosedLoop::new(
                &query,
                &cluster,
                &strategy,
                fast_ds2(),
                SimConfig {
                    duration: 1.0,
                    warmup: 0.0,
                    ..SimConfig::default()
                },
                RateSchedule::Constant(1000.0),
                7,
            )
            .unwrap()
        };
        // Incremental migration without state-transfer charging would
        // migrate zero-byte state: reject it outright.
        assert!(matches!(
            build().with_incremental_migration(MigrationConfig::default()),
            Err(ControllerError::InvalidConfig(_))
        ));
        assert!(matches!(
            build().with_state_transfer(f64::NAN),
            Err(ControllerError::InvalidConfig(_))
        ));
        assert!(matches!(
            build().with_state_transfer(-1.0),
            Err(ControllerError::InvalidConfig(_))
        ));
        let armed = build().with_state_transfer(RETAINED_RECORDS).unwrap();
        assert!(matches!(
            armed.with_incremental_migration(MigrationConfig {
                epsilon: f64::INFINITY,
                wave_size: 1,
            }),
            Err(ControllerError::InvalidConfig(_))
        ));
        let armed = build().with_state_transfer(RETAINED_RECORDS).unwrap();
        assert!(matches!(
            armed.with_incremental_migration(MigrationConfig {
                epsilon: 0.05,
                wave_size: 0,
            }),
            Err(ControllerError::InvalidConfig(_))
        ));
    }

    #[test]
    fn stale_epoch_deployment_is_fenced() {
        // A controller whose fence has been advanced from outside (a
        // newer controller superseded it) must fail its next deployment
        // with FencedEpoch, not retry or deploy.
        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        let cluster = small_cluster();
        let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            fast_ds2(),
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Constant(target),
            7,
        )
        .unwrap();
        let fence = loop_.fence().clone();
        fence.advance_to(1000).unwrap();
        match loop_.run(300.0) {
            Err(ControllerError::FencedEpoch { attempted, current }) => {
                assert!(attempted <= 1000);
                assert_eq!(current, 1000);
            }
            other => panic!("expected FencedEpoch, got {other:?}"),
        }
    }

    #[test]
    fn recovery_validates_journal_against_inputs() {
        let (result, text) = journaled_chaos_run(None);
        result.unwrap();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let small = small_cluster();
        let strategy = CapsStrategy::default();
        let cfg = Ds2Config {
            activation_period: 60.0,
            ..fast_ds2()
        };
        let sim_cfg = SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        };
        // Wrong worker count.
        let err = ClosedLoop::recover_from_journal(
            &q1_sliding(),
            &small,
            &strategy,
            cfg.clone(),
            sim_cfg.clone(),
            RateSchedule::Constant(1000.0),
            &text,
        )
        .err()
        .expect("recovery on the wrong cluster must fail");
        assert!(matches!(err, ControllerError::JournalReplay(_)), "{err}");
        // Wrong starting parallelism.
        let err = ClosedLoop::recover_from_journal(
            &q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap(),
            &cluster,
            &strategy,
            cfg,
            sim_cfg,
            RateSchedule::Constant(1000.0),
            &text,
        )
        .err()
        .expect("recovery with the wrong parallelism must fail");
        assert!(matches!(err, ControllerError::JournalReplay(_)), "{err}");
    }

    /// A governed scenario that reliably rolls back: the model goes
    /// stale at t=70, a rate step at t=80 goads DS2 onto the stale
    /// model, and the governor restores the trusted plan. Returns the
    /// trace and the journal text.
    fn guard_run(seed: u64, guard: bool) -> (ClosedLoopTrace, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let base = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let plan = FaultPlan::new(vec![])
            .unwrap()
            .with_model_skew(ModelSkew {
                time: 70.0,
                factor: 3.5,
            })
            .unwrap();
        let mut loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            Ds2Config {
                activation_period: 60.0,
                ..fast_ds2()
            },
            SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            RateSchedule::Steps(vec![(0.0, base), (80.0, 1.8 * base)]),
            seed,
        )
        .unwrap()
        .with_fault_plan(plan)
        .unwrap();
        if guard {
            loop_ = loop_.with_guard(GuardConfig::default()).unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let trace = loop_.with_journal(journal).unwrap().run(200.0).unwrap();
        (trace, buf.text())
    }

    #[test]
    fn prop_rollback_keeps_epochs_monotonic_and_seqs_contiguous() {
        forall!(Config::default().cases(6), (
            seed in ints(0u64..1000),
        ) => {
            let (trace, text) = guard_run(*seed, true);
            assert!(
                !trace.rollback_events.is_empty(),
                "scenario must roll back (seed {seed})"
            );
            // Frame level: sequence numbers are contiguous from 0.
            for (i, line) in text.lines().enumerate() {
                let frame = Json::parse(line).unwrap();
                assert_eq!(
                    frame.get("seq").and_then(Json::as_f64),
                    Some(i as f64),
                    "sequence gap at journal line {i} (seed {seed})"
                );
            }
            // Record level: every epoch-burning record — Prepare or
            // Rollback alike — uses a strictly increasing epoch.
            let parsed = crate::journal::parse_journal(&text).unwrap();
            assert!(!parsed.torn);
            let mut last = 0u64;
            let mut saw_rollback = false;
            for rec in &parsed.records {
                let e = match rec {
                    DecisionRecord::Prepare { epoch, .. } => *epoch,
                    DecisionRecord::Rollback { epoch, .. } => {
                        saw_rollback = true;
                        *epoch
                    }
                    _ => continue,
                };
                assert!(
                    e > last,
                    "epoch {e} did not increase past {last} (seed {seed})"
                );
                last = e;
            }
            assert!(saw_rollback, "journal holds no rollback record (seed {seed})");
        });
    }

    #[test]
    fn prop_no_redeploy_inside_cooldown() {
        forall!(Config::default().cases(6), (
            seed in ints(0u64..1000),
        ) => {
            let (trace, _) = guard_run(*seed, true);
            assert!(!trace.rollback_events.is_empty(), "scenario must roll back");
            for rb in &trace.rollback_events {
                for ev in &trace.events {
                    assert!(
                        ev.time <= rb.time + 1e-9 || ev.time + 1e-9 >= rb.cooldown_until,
                        "scaling redeploy at t={} inside cooldown ({}, {}) (seed {seed})",
                        ev.time,
                        rb.time,
                        rb.cooldown_until
                    );
                }
                for other in &trace.rollback_events {
                    assert!(
                        other.time <= rb.time + 1e-9 || other.time + 1e-9 >= rb.cooldown_until,
                        "rollback at t={} inside another rollback's cooldown (seed {seed})",
                        other.time
                    );
                }
            }
        });
    }

    #[test]
    fn prop_quarantined_plan_never_redeployed_before_ttl() {
        forall!(Config::default().cases(6), (
            seed in ints(0u64..1000),
        ) => {
            let (trace, text) = guard_run(*seed, true);
            let parsed = crate::journal::parse_journal(&text).unwrap();
            let ttl = crate::guard::QUARANTINE_TTL;
            for rb in &trace.rollback_events {
                // The regressed plan is the Prepare that burned the
                // rollback's from_epoch.
                let regressed = parsed
                    .records
                    .iter()
                    .find_map(|r| match r {
                        DecisionRecord::Prepare {
                            epoch, parallelism, ..
                        } if *epoch == rb.from_epoch => Some(parallelism.clone()),
                        _ => None,
                    })
                    .expect("rollback's from_epoch has a journaled prepare");
                for ev in &trace.events {
                    if ev.time > rb.time && ev.time < rb.time + ttl {
                        assert_ne!(
                            ev.parallelism, regressed,
                            "quarantined plan redeployed at t={} before its TTL (seed {seed})",
                            ev.time
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn idle_guard_leaves_the_trace_byte_identical() {
        // Healthy scenario (no skew): every canary commits, so the
        // governed run must behave — and serialize — exactly like the
        // unguarded one.
        let run = |guard: bool| {
            let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
            let cluster = small_cluster();
            let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
            let strategy = CapsStrategy::default();
            let mut loop_ = ClosedLoop::new(
                &query,
                &cluster,
                &strategy,
                fast_ds2(),
                SimConfig {
                    duration: 1.0,
                    warmup: 0.0,
                    ..SimConfig::default()
                },
                RateSchedule::Constant(target),
                7,
            )
            .unwrap();
            if guard {
                loop_ = loop_.with_guard(GuardConfig::default()).unwrap();
            }
            loop_.run(200.0).unwrap()
        };
        let off = run(false);
        let on = run(true);
        assert!(on.num_scalings() >= 1, "scenario must actually reconfigure");
        assert!(
            on.rollback_events.is_empty(),
            "healthy canaries must commit"
        );
        assert_eq!(off.to_json().to_string(), on.to_json().to_string());
    }

    #[test]
    fn governed_crash_recovery_is_byte_identical() {
        // Kill the governed scenario right after its first Rollback
        // record: recovery must re-derive the same verdict, finish the
        // interrupted rollback, and reproduce the golden trace and
        // journal byte-for-byte.
        let (golden_trace, golden_journal) = guard_run(7, true);
        assert!(!golden_trace.rollback_events.is_empty());
        let golden = golden_trace.to_json().to_string();
        let parsed = crate::journal::parse_journal(&golden_journal).unwrap();
        let rollback_at = parsed
            .records
            .iter()
            .position(|r| matches!(r, DecisionRecord::Rollback { .. }))
            .expect("governed journal holds a rollback") as u64;

        let rerun = |kill: Option<KillPoint>,
                     journal_text: Option<&str>|
         -> (Result<ClosedLoopTrace, ControllerError>, String) {
            let query = q1_sliding();
            let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
            let base = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
            let strategy = CapsStrategy::default();
            let schedule = RateSchedule::Steps(vec![(0.0, base), (80.0, 1.8 * base)]);
            let ds2 = Ds2Config {
                activation_period: 60.0,
                ..fast_ds2()
            };
            let sim_cfg = SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            };
            let loop_ = match journal_text {
                None => {
                    ClosedLoop::new(&query, &cluster, &strategy, ds2, sim_cfg, schedule, 7).unwrap()
                }
                Some(t) => ClosedLoop::recover_from_journal(
                    &query, &cluster, &strategy, ds2, sim_cfg, schedule, t,
                )
                .unwrap(),
            };
            let mut plan = FaultPlan::new(vec![])
                .unwrap()
                .with_model_skew(ModelSkew {
                    time: 70.0,
                    factor: 3.5,
                })
                .unwrap();
            if let Some(k) = kill {
                plan = plan.with_controller_kill(k).unwrap();
            }
            let (journal, buf) = DecisionJournal::in_memory();
            let result = loop_
                .with_fault_plan(plan)
                .unwrap()
                .with_guard(GuardConfig::default())
                .unwrap()
                .with_journal(journal)
                .unwrap()
                .run(200.0);
            (result, buf.text())
        };

        // Die with the Rollback at the journal tail (in doubt).
        let (result, partial) = rerun(Some(KillPoint::AfterRecord(rollback_at)), None);
        assert!(
            matches!(result, Err(ControllerError::ControllerKilled { .. })),
            "kill after the rollback record did not fire"
        );
        let tail = crate::journal::parse_journal(&partial).unwrap();
        assert!(
            matches!(tail.records.last(), Some(DecisionRecord::Rollback { .. })),
            "partial journal does not end at the in-doubt rollback"
        );
        let (recovered, rewritten) = rerun(None, Some(&partial));
        assert_eq!(recovered.unwrap().to_json().to_string(), golden);
        assert_eq!(rewritten, golden_journal);
    }

    /// A flash crowd far beyond any deployable capacity: base rate at
    /// half capacity, one trapezoid episode multiplying it by 8 for a
    /// minute. DS2 is pinned (huge activation period) so overload
    /// protection is the only control that can act. Returns the run
    /// outcome and the journal text.
    fn shed_run(
        kill: Option<KillPoint>,
        journal_text: Option<&str>,
    ) -> (Result<ClosedLoopTrace, ControllerError>, String) {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let base = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
        let strategy = CapsStrategy::default();
        let schedule = RateSchedule::Program(RateProgram {
            base,
            origin: 0.0,
            growth_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 0.0,
            diurnal_phase: 0.0,
            flashes: vec![capsys_model::FlashCrowd {
                start: 60.0,
                ramp: 5.0,
                hold: 60.0,
                decay: 5.0,
                magnitude: 7.0,
            }],
            horizon: 240.0,
        });
        let ds2 = Ds2Config {
            activation_period: 1e6,
            ..fast_ds2()
        };
        let sim_cfg = SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        };
        let loop_ = match journal_text {
            None => {
                ClosedLoop::new(&query, &cluster, &strategy, ds2, sim_cfg, schedule, 7).unwrap()
            }
            Some(t) => ClosedLoop::recover_from_journal(
                &query, &cluster, &strategy, ds2, sim_cfg, schedule, t,
            )
            .unwrap(),
        };
        let mut plan = FaultPlan::new(vec![]).unwrap();
        if let Some(k) = kill {
            plan = plan.with_controller_kill(k).unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let result = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_shedding(ShedConfig::default())
            .unwrap()
            .with_journal(journal)
            .unwrap()
            .run(200.0);
        (result, buf.text())
    }

    #[test]
    fn shedding_engages_and_releases_under_a_flash_crowd() {
        let (result, journal) = shed_run(None, None);
        let trace = result.unwrap();
        assert!(
            !trace.shed_events.is_empty(),
            "an 8x flash crowd must engage overload protection"
        );
        let first = &trace.shed_events[0];
        assert!(
            first.to_fraction > 0.0 && first.to_fraction < 1.0,
            "engage fraction {} out of range",
            first.to_fraction
        );
        assert!(
            first.offered > first.capacity,
            "shedding engaged while offered {} fit capacity {}",
            first.offered,
            first.capacity
        );
        let last = trace.shed_events.last().unwrap();
        assert_eq!(
            last.to_fraction, 0.0,
            "full admission must be restored once the crowd decays"
        );
        assert!(
            trace.time_shedding(200.0) > 0.0,
            "the trace must account the shedding span"
        );
        // While shedding, admitted pressure is relieved: after the first
        // engage, backpressure returns below the engage threshold well
        // before the crowd decays (an unshedded run pins it near 1).
        let engaged_at = first.time;
        assert!(
            trace.points.iter().any(|p| p.time > engaged_at
                && p.time < 120.0
                && p.backpressure < crate::shed::ENGAGE_THRESHOLD),
            "shedding never relieved backpressure during the crowd"
        );
        // Every shed decision is journaled and committed.
        let parsed = crate::journal::parse_journal(&journal).unwrap();
        let sheds: Vec<u64> = parsed
            .records
            .iter()
            .filter_map(|r| match r {
                DecisionRecord::Shed { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert_eq!(sheds.len(), trace.shed_events.len());
        for e in sheds {
            assert!(
                parsed
                    .records
                    .iter()
                    .any(|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == e)),
                "shed epoch {e} has no commit"
            );
        }
    }

    #[test]
    fn idle_shedder_leaves_the_trace_byte_identical() {
        // Healthy scenario: offered load always fits, so the armed
        // admission controller must never act — and the trace must
        // serialize exactly like the unprotected run's.
        let run = |shed: bool| {
            let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
            let cluster = small_cluster();
            let target = q1_sliding().capacity_rate(&cluster, 0.5).unwrap();
            let strategy = CapsStrategy::default();
            let mut loop_ = ClosedLoop::new(
                &query,
                &cluster,
                &strategy,
                fast_ds2(),
                SimConfig {
                    duration: 1.0,
                    warmup: 0.0,
                    ..SimConfig::default()
                },
                RateSchedule::Constant(target),
                7,
            )
            .unwrap();
            if shed {
                loop_ = loop_.with_shedding(ShedConfig::default()).unwrap();
            }
            loop_.run(200.0).unwrap()
        };
        let off = run(false);
        let on = run(true);
        assert!(on.num_scalings() >= 1, "scenario must actually reconfigure");
        assert!(on.shed_events.is_empty(), "healthy load must not be shed");
        assert_eq!(off.to_json().to_string(), on.to_json().to_string());
    }

    #[test]
    fn shed_crash_recovery_is_byte_identical() {
        // Kill the run right after its first Shed record — the change is
        // in doubt. Recovery must re-derive the same admission verdict,
        // roll the shed forward, and reproduce the golden trace and
        // journal byte-for-byte.
        let (golden_result, golden_journal) = shed_run(None, None);
        let golden_trace = golden_result.unwrap();
        assert!(!golden_trace.shed_events.is_empty());
        let golden = golden_trace.to_json().to_string();
        let shed_at = crate::journal::parse_journal(&golden_journal)
            .unwrap()
            .records
            .iter()
            .position(|r| matches!(r, DecisionRecord::Shed { .. }))
            .expect("journal holds a shed record") as u64;

        let (result, partial) = shed_run(Some(KillPoint::AfterRecord(shed_at)), None);
        assert!(
            matches!(result, Err(ControllerError::ControllerKilled { .. })),
            "kill after the shed record did not fire"
        );
        let tail = crate::journal::parse_journal(&partial).unwrap();
        assert!(
            matches!(tail.records.last(), Some(DecisionRecord::Shed { .. })),
            "partial journal does not end at the in-doubt shed"
        );
        let (recovered, rewritten) = shed_run(None, Some(&partial));
        assert_eq!(recovered.unwrap().to_json().to_string(), golden);
        assert_eq!(rewritten, golden_journal);
    }

    /// An adversarial end-to-end scenario: a [`capsys_sim::WorkloadEngine`]
    /// program (diurnal swing, a flash crowd, organic growth) drives a
    /// loop with scaling, the drift-aware governor, and overload
    /// protection all armed.
    fn hostile_run(
        seed: u64,
        kill: Option<KillPoint>,
        journal_text: Option<&str>,
    ) -> (Result<ClosedLoopTrace, ControllerError>, String) {
        use capsys_sim::{WorkloadConfig, WorkloadEngine};
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).unwrap();
        let base = q1_sliding().capacity_rate(&cluster, 0.4).unwrap();
        let strategy = CapsStrategy::default();
        let engine = WorkloadEngine::new(WorkloadConfig {
            seed,
            horizon: 200.0,
            base_rate: base,
            diurnal_amplitude: (0.1, 0.3),
            flashes: 1,
            flash_magnitude: (2.0, 5.0),
            growth_per_sec: (0.0, base * 0.002),
            ..WorkloadConfig::default()
        })
        .unwrap();
        let schedule = engine.generate(&[OperatorId(0)]).unwrap().pop().unwrap().1;
        let ds2 = Ds2Config {
            activation_period: 40.0,
            ..fast_ds2()
        };
        let sim_cfg = SimConfig {
            duration: 1.0,
            warmup: 0.0,
            ..SimConfig::default()
        };
        let loop_ = match journal_text {
            None => {
                ClosedLoop::new(&query, &cluster, &strategy, ds2, sim_cfg, schedule, seed).unwrap()
            }
            Some(t) => ClosedLoop::recover_from_journal(
                &query, &cluster, &strategy, ds2, sim_cfg, schedule, t,
            )
            .unwrap(),
        };
        let mut plan = FaultPlan::new(vec![]).unwrap();
        if let Some(k) = kill {
            plan = plan.with_controller_kill(k).unwrap();
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let result = loop_
            .with_fault_plan(plan)
            .unwrap()
            .with_guard(GuardConfig::default())
            .unwrap()
            .with_shedding(ShedConfig::default())
            .unwrap()
            .with_journal(journal)
            .unwrap()
            .run(200.0);
        (result, buf.text())
    }

    #[test]
    fn prop_hostile_runs_are_sane_and_replay_byte_identically() {
        forall!(Config::default().cases(3), (
            seed in ints(0u64..500),
        ) => {
            let (result, journal_a) = hostile_run(*seed, None, None);
            let trace = result.unwrap();
            // Sanity: hostile traffic never poisons the metric stream.
            for p in &trace.points {
                assert!(p.source_throughput.is_finite() && p.source_throughput >= 0.0);
                assert!(p.target_rate.is_finite() && p.target_rate >= 0.0);
                assert!((0.0..=1.0).contains(&p.backpressure));
                assert!(p.latency.is_finite() && p.latency >= 0.0);
            }
            // (No blanket "no rollbacks" assert here: under diurnal
            // swings DS2 can scale in at a trough, and a plan that then
            // saturates as the cycle swings back up is a *genuine*
            // regression. The flash-crowd/growth false-positive
            // discrimination is pinned by the guard unit tests and the
            // controlled A/B scenarios of `exp_hostile`.)
            let golden = trace.to_json().to_string();
            // Same seed, same world: byte-identical trace and journal.
            let (again, journal_b) = hostile_run(*seed, None, None);
            assert_eq!(again.unwrap().to_json().to_string(), golden);
            assert_eq!(journal_b, journal_a);
            // Crash mid-trace and recover: still byte-identical.
            let records = journal_a.lines().count() as u64;
            if records >= 2 {
                let (dead, partial) =
                    hostile_run(*seed, Some(KillPoint::AfterRecord(records / 2)), None);
                assert!(
                    matches!(dead, Err(ControllerError::ControllerKilled { .. })),
                    "mid-journal kill did not fire (seed {seed})"
                );
                let (recovered, rewritten) = hostile_run(*seed, None, Some(&partial));
                assert_eq!(
                    recovered.unwrap().to_json().to_string(),
                    golden,
                    "crash recovery diverged from the golden hostile run (seed {seed})"
                );
                assert_eq!(rewritten, journal_a);
            }
        });
    }
}
