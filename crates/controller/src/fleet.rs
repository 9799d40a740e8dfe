//! Sharded multi-tenant control plane with lease-fenced controller
//! failover.
//!
//! Multiple tenant jobs share one heterogeneous worker fleet. Each job
//! is governed by its own **shard controller** — an ordinary
//! [`ClosedLoop`] running over the sub-cluster of workers the global
//! [`Arbiter`] granted at admission — and a [`FleetController`] drives
//! all shards in lockstep on one global clock:
//!
//! * **Leases.** Every shard controller holds a lease from the
//!   arbiter's [`crate::LeaseTable`]: an epoch-fenced term, journaled
//!   in the arbiter's WAL. The holder renews each window; when a shard
//!   controller is killed or partitioned (the
//!   [`capsys_sim::DeciderFault`] classes of the fault plan), its lease
//!   expires and a standby acquires the next term, recovers the dead
//!   controller's decision journal
//!   ([`ClosedLoop::recover_from_journal`]) — including mid-migration,
//!   mid-reconfiguration tails — and catches up to the fleet clock by
//!   replaying the recorded per-window history. Split-brain is
//!   impossible by construction: a zombie's stamp carries a stale term
//!   and fails the [`crate::LeaseTable::check`] barrier
//!   ([`ControllerError::LeaseFenced`]).
//! * **Contention.** Pools overlap. Each window the fleet sums every
//!   shard's per-worker CPU utilization and charges each shard a
//!   contention factor `1 + alpha * (others' utilization)` on its
//!   shared workers ([`ClosedLoop::set_contention`]) — the
//!   cross-job interference CAPSys's single-job model abstracts away.
//!   The factors (and arbiter revocations) applied before each window
//!   are recorded per shard as [`WindowRecord`]s, which makes the whole
//!   fleet run — including failover catch-up — deterministic and
//!   offline-replayable byte-for-byte ([`replay_shard`]). Because the
//!   factors come from the previous window, the shards' simulators
//!   share nothing inside a window, and
//!   [`FleetController::step_window`] ticks them in parallel.
//! * **Arbitration.** The arbiter admits tenants against slot
//!   capacity, and when a shared worker stays overloaded it revokes the
//!   worker from the lowest-weight tenant; the fleet applies the
//!   revocation as a permanent local failure
//!   ([`ClosedLoop::revoke_worker`]) that the shard's own recovery
//!   machinery re-places around. The arbiter itself journals every
//!   action and is crash-recoverable mid-run ([`Arbiter::recover`]);
//!   an arbiter kill in the fault plan exercises that path live.
//!
//! Control-plane faults only ever remove *deciders*; the data plane
//! (the simulated jobs) keeps running through every outage, which is
//! why a recovered shard steps through the outage windows during
//! catch-up: the journal + history are sufficient to reconstruct the
//! exact trajectory the uninterrupted controller would have produced.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, PoisonError};
use std::thread::JoinHandle;

use capsys_model::{Cluster, RateSchedule, WorkerId};
use capsys_placement::PlacementStrategy;
use capsys_queries::Query;
use capsys_sim::{DeciderFaultKind, DeciderTarget, FaultPlan, KillPoint, SimConfig, Simulation};
use capsys_util::journal::SharedBuf;
use capsys_util::json::{obj, Json, ToJson};
use capsys_util::sync::{hardware_threads, Mutex};

use capsys_ds2::Ds2Config;

use crate::arbiter::{Arbiter, ArbiterConfig};
use crate::closed_loop::{ClosedLoop, StepReport};
use crate::journal::DecisionJournal;
use crate::recovery::RecoveryConfig;
use crate::ControllerError;

/// One tenant job submitted to the fleet.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Tenant name (also the shard-controller name prefix).
    pub name: String,
    /// The job's query, at its initial parallelism.
    pub query: Query,
    /// Aggregate source-rate schedule (global clock).
    pub schedule: RateSchedule,
    /// DS2 settings; `policy_interval` must equal the fleet window.
    pub ds2: Ds2Config,
    /// Simulator settings for this shard.
    pub sim: SimConfig,
    /// Seed for this shard's placement searches.
    pub seed: u64,
    /// Tenant weight (higher = more protected from revocation).
    pub weight: f64,
    /// Workers requested at admission.
    pub requested_workers: usize,
    /// Self-healing settings for the shard controller.
    pub recovery: RecoveryConfig,
    /// Data-plane faults for this shard, on the global clock. The
    /// fleet installs any decider kill targeting this shard as the
    /// plan's `controller_kill`.
    pub faults: Option<FaultPlan>,
}

/// Fleet-level policy.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Arbiter policy; `num_workers` is overwritten with the global
    /// cluster size at [`FleetWorld::build`].
    pub arbiter: ArbiterConfig,
    /// Contention coupling strength: a shard sees CPU costs scaled by
    /// `1 + alpha * (co-tenants' utilization)` on shared workers.
    pub alpha: f64,
    /// The global lockstep window, seconds. Must equal every admitted
    /// job's policy window.
    pub window: f64,
    /// Control-plane faults: only `decider_faults` are consulted
    /// (shard-controller / arbiter kills and partitions).
    pub control_faults: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            arbiter: ArbiterConfig::default(),
            alpha: 0.5,
            window: 5.0,
            control_faults: FaultPlan::default(),
        }
    }
}

/// The control inputs a shard received before one fleet window: the
/// per-local-worker contention factors and any workers revoked that
/// window. Recorded by the fleet and replayed verbatim during failover
/// catch-up and offline verification — the shard-external half of the
/// decision journal.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Contention factor per shard-local worker (`>= 1`).
    pub factors: Vec<f64>,
    /// Shard-local indices of workers revoked by the arbiter this
    /// window.
    pub revoked: Vec<usize>,
}

impl ToJson for WindowRecord {
    fn to_json(&self) -> Json {
        obj(vec![
            (
                "factors",
                Json::Arr(self.factors.iter().map(|&f| Json::Num(f)).collect()),
            ),
            (
                "revoked",
                Json::Arr(self.revoked.iter().map(|&w| Json::Num(w as f64)).collect()),
            ),
        ])
    }
}

/// A standby takeover of a shard whose controller died or was cut off.
#[derive(Debug, Clone, PartialEq)]
pub struct TakeoverEvent {
    /// The shard taken over.
    pub shard: usize,
    /// The new lease term.
    pub term: u64,
    /// When the previous holder was lost (kill or partition start).
    pub lost_at: f64,
    /// When the standby acquired the lease and went live.
    pub acquired_at: f64,
}

impl TakeoverEvent {
    /// Control-plane mean-time-to-recovery for this takeover.
    pub fn mttr(&self) -> f64 {
        self.acquired_at - self.lost_at
    }
}

/// An applied arbiter revocation, stamped with fleet time.
#[derive(Debug, Clone, PartialEq)]
pub struct RevocationEvent {
    /// Fleet time of the revocation.
    pub time: f64,
    /// The shard that lost the worker.
    pub shard: usize,
    /// Global worker index.
    pub worker: usize,
    /// Shard-local worker index.
    pub local: usize,
}

/// Per-shard results of a fleet run.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Tenant name.
    pub name: String,
    /// Time-integrated observed throughput (records).
    pub goodput: f64,
    /// Time-integrated target throughput (records).
    pub target: f64,
    /// Windows actually stepped on the final live controller.
    pub windows_stepped: usize,
    /// The final trace, serialized (`ClosedLoopTrace::to_json`).
    pub trace_json: String,
    /// The final decision-journal text (the standby's journal after a
    /// takeover — it re-journals the full history).
    pub journal: String,
    /// The recorded per-window control inputs.
    pub history: Vec<WindowRecord>,
}

/// Fleet-wide results of a run.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Final fleet time.
    pub time: f64,
    /// Windows driven.
    pub windows: usize,
    /// Per-shard outcomes, in shard order.
    pub shards: Vec<ShardOutcome>,
    /// Standby takeovers, in order.
    pub takeovers: Vec<TakeoverEvent>,
    /// Incumbent re-acquisitions after a lease lapsed without a
    /// competing takeover (e.g. during an arbiter partition).
    pub reacquisitions: u64,
    /// Zombie stamps refused by the lease barrier.
    pub fenced_attempts: u64,
    /// Zombie stamps that *passed* the barrier while another holder was
    /// live. Must be zero — split-brain is impossible by construction.
    pub split_brain_stamps: u64,
    /// Applied revocations, in order.
    pub revocations: Vec<RevocationEvent>,
    /// Times the arbiter was killed and rebuilt from its own log.
    pub arbiter_recoveries: u64,
    /// The arbiter's final WAL text.
    pub arbiter_log: String,
}

/// The immutable world a fleet runs in: per-shard sub-clusters carved
/// from the global fleet at admission, and the shared placement
/// strategy. Built once and borrowed by the [`FleetController`] (whose
/// shard loops borrow the clusters).
pub struct FleetWorld {
    clusters: Vec<Cluster>,
    strategy: Box<dyn PlacementStrategy>,
    pools: Vec<Vec<usize>>,
    jobs: Vec<JobSpec>,
    rejected: Vec<String>,
}

impl std::fmt::Debug for FleetWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetWorld")
            .field("shards", &self.pools.len())
            .field("pools", &self.pools)
            .field("rejected", &self.rejected)
            .finish_non_exhaustive()
    }
}

impl FleetWorld {
    /// Runs admission for `jobs` against the global cluster and builds
    /// the per-shard sub-clusters. Jobs the arbiter rejects are recorded
    /// in [`FleetWorld::rejected`] and dropped. Returns the world, the
    /// arbiter (mid-log, to hand to [`FleetController::new`]), and the
    /// arbiter's WAL buffer.
    pub fn build(
        global: &Cluster,
        jobs: Vec<JobSpec>,
        strategy: Box<dyn PlacementStrategy>,
        config: &FleetConfig,
    ) -> Result<(FleetWorld, Arbiter, SharedBuf), ControllerError> {
        let arbiter_cfg = ArbiterConfig {
            num_workers: global.num_workers(),
            ..config.arbiter.clone()
        };
        let buf = SharedBuf::new();
        let mut arbiter = Arbiter::new(arbiter_cfg, Box::new(buf.clone()))?;
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        for job in jobs {
            match arbiter.admit(&job.name, job.requested_workers, job.weight)? {
                Some(_) => admitted.push(job),
                None => rejected.push(job.name),
            }
        }
        let pools: Vec<Vec<usize>> = arbiter.shards().iter().map(|s| s.pool.clone()).collect();
        let mut clusters = Vec::with_capacity(pools.len());
        for pool in &pools {
            let specs = pool
                .iter()
                .map(|&g| global.worker(WorkerId(g)).spec.clone())
                .collect();
            clusters.push(Cluster::heterogeneous(specs)?);
        }
        Ok((
            FleetWorld {
                clusters,
                strategy,
                pools,
                jobs: admitted,
                rejected,
            },
            arbiter,
            buf,
        ))
    }

    /// Admitted jobs, in shard order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Each shard's granted pool (global worker indices, as admitted).
    pub fn pools(&self) -> &[Vec<usize>] {
        &self.pools
    }

    /// Each shard's sub-cluster.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// Names of jobs the arbiter rejected at admission.
    pub fn rejected(&self) -> &[String] {
        &self.rejected
    }
}

/// A former leaseholder cut off from the control plane; when its
/// partition heals it attempts one stamp with its stale credentials.
#[derive(Debug, Clone)]
struct Zombie {
    holder: String,
    term: u64,
    heal_at: f64,
}

/// Live runtime state of one shard.
struct ShardRuntime<'a> {
    live: Option<ClosedLoop<'a>>,
    journal_buf: SharedBuf,
    holder_gen: u64,
    term: u64,
    /// Set while the holder is dead (killed) awaiting takeover.
    lost_at: Option<f64>,
    /// Set while the holder is partitioned from the control plane.
    partition_until: Option<f64>,
    zombie: Option<Zombie>,
    /// Windows applied to `live` so far.
    stepped: usize,
    history: Vec<WindowRecord>,
    /// Last measured per-local-worker CPU utilization (frozen while the
    /// decider is out — the data plane keeps running).
    last_contrib: Vec<f64>,
    goodput: f64,
    target: f64,
    partitions: Vec<(f64, f64)>,
}

impl std::fmt::Debug for ShardRuntime<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRuntime")
            .field("live", &self.live.is_some())
            .field("term", &self.term)
            .field("stepped", &self.stepped)
            .finish_non_exhaustive()
    }
}

/// What a catch-up / step drive ended with.
struct DriveEnd {
    stepped: usize,
    last: Option<StepReport>,
    killed: bool,
}

/// The sharded fleet controller. See the module docs.
#[derive(Debug)]
pub struct FleetController<'a> {
    world: &'a FleetWorld,
    arbiter: Arbiter,
    arbiter_buf: SharedBuf,
    config: FleetConfig,
    time: f64,
    window_index: usize,
    shards: Vec<ShardRuntime<'a>>,
    takeovers: Vec<TakeoverEvent>,
    revocations: Vec<RevocationEvent>,
    reacquisitions: u64,
    fenced_attempts: u64,
    split_brain_stamps: u64,
    arbiter_recoveries: u64,
    arbiter_kill_done: bool,
    /// Threads the tick phase of each window uses at most: the
    /// machine's available parallelism.
    threads: usize,
    /// Ticks the stepping shards' simulators each window.
    ticks: TickPool<Simulation>,
}

fn holder_name(job: &str, generation: u64) -> String {
    format!("{job}-ctrl-{generation}")
}

/// Builds a fresh shard controller over its sub-cluster, with the
/// shard's data-plane faults, `kill` armed as the controller kill, the
/// job's recovery config, and a fresh in-memory decision journal.
fn build_loop<'a>(
    job: &JobSpec,
    cluster: &'a Cluster,
    strategy: &'a dyn PlacementStrategy,
    kill: Option<KillPoint>,
) -> Result<(ClosedLoop<'a>, SharedBuf), ControllerError> {
    let mut plan = job.faults.clone().unwrap_or_default();
    plan.controller_kill = kill;
    let (journal, buf) = DecisionJournal::in_memory();
    let lp = ClosedLoop::new(
        &job.query,
        cluster,
        strategy,
        job.ds2.clone(),
        job.sim.clone(),
        job.schedule.clone(),
        job.seed,
    )?
    .with_fault_plan(plan)?
    .with_recovery(job.recovery.clone())
    .with_journal(journal)?;
    Ok((lp, buf))
}

/// Rebuilds a shard controller from a dead holder's journal. The kill
/// point is disarmed (the standby must survive what killed the
/// primary); everything else is re-attached exactly as for a fresh
/// loop, plus a fresh journal the recovered history is re-written into.
fn recover_loop<'a>(
    job: &JobSpec,
    cluster: &'a Cluster,
    strategy: &'a dyn PlacementStrategy,
    journal_text: &str,
) -> Result<(ClosedLoop<'a>, SharedBuf), ControllerError> {
    let plan = job
        .faults
        .clone()
        .unwrap_or_default()
        .without_controller_kill();
    let (journal, buf) = DecisionJournal::in_memory();
    let lp = ClosedLoop::recover_from_journal(
        &job.query,
        cluster,
        strategy,
        job.ds2.clone(),
        job.sim.clone(),
        job.schedule.clone(),
        journal_text,
    )?
    .with_fault_plan(plan)?
    .with_recovery(job.recovery.clone())
    .with_journal(journal)?;
    Ok((lp, buf))
}

/// Applies one recorded window's fleet-side inputs to `lp`: its
/// contention factors, then its revocations. The first step of every
/// shard window, in [`drive`] and in the lockstep window alike.
fn prepare_window(lp: &mut ClosedLoop<'_>, rec: &WindowRecord) {
    for (i, &f) in rec.factors.iter().enumerate() {
        lp.set_contention(WorkerId(i), f);
    }
    for &i in &rec.revoked {
        lp.revoke_worker(WorkerId(i));
    }
}

/// The outcome of a shard window's controller half: its report, or
/// `None` when an injected controller kill fired, which ends the
/// controller's drive. Any other error propagates.
fn finish_window(
    step: Result<StepReport, ControllerError>,
) -> Result<Option<StepReport>, ControllerError> {
    match step {
        Ok(report) => Ok(Some(report)),
        Err(ControllerError::ControllerKilled { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Steps `lp` through history windows `from..to`, one after another on
/// the caller's thread: each window's recorded inputs, then a whole
/// [`ClosedLoop::step`]. A controller kill mid-drive stops the drive
/// (`killed`); any other error propagates.
fn drive(
    lp: &mut ClosedLoop<'_>,
    history: &[WindowRecord],
    from: usize,
    to: usize,
    window: f64,
) -> Result<DriveEnd, ControllerError> {
    let mut end = DriveEnd {
        stepped: from,
        last: None,
        killed: false,
    };
    for rec in history.iter().take(to).skip(from) {
        prepare_window(lp, rec);
        match finish_window(lp.step(window))? {
            Some(report) => {
                end.stepped += 1;
                end.last = Some(report);
            }
            None => {
                end.killed = true;
                return Ok(end);
            }
        }
    }
    Ok(end)
}

/// A finished tick on its way back to the caller: `(slot, item,
/// panicked)`.
type Done<T> = (usize, T, bool);

/// The queue that deals a window's items to threads, and whether the
/// pool is closing.
struct Deal<T> {
    items: VecDeque<(usize, T)>,
    closed: bool,
}

/// The fleet's tick workers. [`TickPool::tick_all`] ticks a window's
/// items on up to `threads` threads, the caller's among them; one thread
/// (or one item) ticks inline and spawns nothing. The first call with
/// more spawns the helper threads, which live until the pool drops and
/// joins them. Items travel by value: dealt from one shared queue,
/// ticked, and sent back, so no thread borrows anything past a call and
/// no `unsafe` is needed. The items share nothing, and each is ticked by
/// exactly one thread, so the outcome depends neither on `threads` nor
/// on scheduling.
struct TickPool<T> {
    tick: Arc<dyn Fn(&mut T) + Send + Sync>,
    deal: Arc<(Mutex<Deal<T>>, Condvar)>,
    /// Where helpers send finished items; `None` until they spawn.
    done: Option<Receiver<Done<T>>>,
    helpers: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> TickPool<T> {
    fn new(tick: impl Fn(&mut T) + Send + Sync + 'static) -> TickPool<T> {
        TickPool {
            tick: Arc::new(tick),
            deal: Arc::new((
                Mutex::new(Deal {
                    items: VecDeque::new(),
                    closed: false,
                }),
                Condvar::new(),
            )),
            done: None,
            helpers: Vec::new(),
        }
    }

    /// Ticks every present item once and puts it back in its slot. A
    /// panicking tick is caught on the thread that ran it, its item
    /// still comes back, and the call is
    /// [`ControllerError::SimulationPanicked`] once every item is back.
    fn tick_all(&mut self, items: &mut [Option<T>], threads: usize) -> Result<(), ControllerError> {
        let present = items.iter().flatten().count();
        let mut panicked = false;
        if threads <= 1 || present <= 1 {
            for item in items.iter_mut().flatten() {
                panicked |= catch_unwind(AssertUnwindSafe(|| (self.tick)(item))).is_err();
            }
        } else {
            if self.done.is_none() {
                self.spawn(threads.min(items.len()) - 1);
            }
            let (deal, ready) = &*self.deal;
            deal.lock().items.extend(
                items
                    .iter_mut()
                    .enumerate()
                    .filter_map(|(k, item)| Some((k, item.take()?))),
            );
            ready.notify_all();
            let mut pending = present;
            // The caller ticks too, until the queue runs dry. The guard
            // drops at the end of the `let`: the lock is held only to
            // take the next item, never while ticking it.
            loop {
                let next = deal.lock().items.pop_front();
                let Some((k, mut item)) = next else { break };
                panicked |= catch_unwind(AssertUnwindSafe(|| (self.tick)(&mut item))).is_err();
                items[k] = Some(item);
                pending -= 1;
            }
            while pending > 0 {
                // A helper catches every panic, so only a pool whose
                // helpers are all gone can fail to hand an item back.
                let Some(Ok((k, item, p))) = self.done.as_ref().map(Receiver::recv) else {
                    return Err(ControllerError::SimulationPanicked);
                };
                panicked |= p;
                items[k] = Some(item);
                pending -= 1;
            }
        }
        if panicked {
            return Err(ControllerError::SimulationPanicked);
        }
        Ok(())
    }

    /// Starts up to `count` helpers. A helper that fails to start only
    /// slows the windows: the caller ticks whatever no helper takes.
    fn spawn(&mut self, count: usize) {
        let (tx, rx) = mpsc::channel();
        for _ in 0..count {
            let (tick, deal, tx) = (Arc::clone(&self.tick), Arc::clone(&self.deal), tx.clone());
            let helper = std::thread::Builder::new()
                .name("fleet-tick".into())
                .spawn(move || help(&*tick, &deal, &tx));
            match helper {
                Ok(h) => self.helpers.push(h),
                Err(_) => break,
            }
        }
        self.done = Some(rx);
    }
}

/// A helper's life: take the next dealt item, tick it, send it back;
/// wait while the queue is empty, and return once the pool closes.
fn help<T>(
    tick: &(dyn Fn(&mut T) + Send + Sync),
    (deal, ready): &(Mutex<Deal<T>>, Condvar),
    done: &Sender<Done<T>>,
) {
    loop {
        let (k, mut item) = {
            let mut queue = deal.lock();
            loop {
                if let Some(next) = queue.items.pop_front() {
                    break next;
                }
                if queue.closed {
                    return;
                }
                queue = ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let panicked = catch_unwind(AssertUnwindSafe(|| tick(&mut item))).is_err();
        if done.send((k, item, panicked)).is_err() {
            return;
        }
    }
}

impl<T> Drop for TickPool<T> {
    fn drop(&mut self) {
        let (deal, ready) = &*self.deal;
        deal.lock().closed = true;
        ready.notify_all();
        for h in self.helpers.drain(..) {
            // Every tick's panic is caught inside the helper, so a join
            // has nothing to report.
            let _ = h.join();
        }
    }
}

impl<T> std::fmt::Debug for TickPool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickPool")
            .field("helpers", &self.helpers.len())
            .finish_non_exhaustive()
    }
}

/// Offline verification: rebuilds one shard from its final journal and
/// recorded history, re-drives every window, and returns the replayed
/// `(trace_json, journal_text)`. With the same inputs, both must be
/// byte-identical to the live run's — the fleet's convergence proof.
pub fn replay_shard(
    job: &JobSpec,
    cluster: &Cluster,
    strategy: &dyn PlacementStrategy,
    journal_text: &str,
    history: &[WindowRecord],
    window: f64,
) -> Result<(String, String), ControllerError> {
    let (mut lp, buf) = recover_loop(job, cluster, strategy, journal_text)?;
    let end = drive(&mut lp, history, 0, history.len(), window)?;
    if end.killed {
        return Err(ControllerError::JournalReplay(
            "replayed shard died mid-drive despite a disarmed kill point".into(),
        ));
    }
    let trace = lp.into_trace()?;
    Ok((trace.to_json().to_string(), buf.text()))
}

impl<'a> FleetController<'a> {
    /// Builds the fleet: one shard controller per admitted job, each
    /// holding a fresh lease at term 1. Decider kills from
    /// `config.control_faults` are armed on the targeted shard
    /// controllers; decider partitions are enforced by the fleet clock.
    pub fn new(
        world: &'a FleetWorld,
        arbiter: Arbiter,
        arbiter_buf: SharedBuf,
        config: FleetConfig,
    ) -> Result<FleetController<'a>, ControllerError> {
        if !config.window.is_finite() || config.window <= 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "fleet window must be positive and finite, got {}",
                config.window
            )));
        }
        if !config.alpha.is_finite() || config.alpha < 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "contention alpha must be finite and non-negative, got {}",
                config.alpha
            )));
        }
        for fault in &config.control_faults.decider_faults {
            match fault.target {
                DeciderTarget::Shard(s) if s >= world.jobs.len() => {
                    return Err(ControllerError::InvalidConfig(format!(
                        "decider fault targets shard {s}, fleet has {}",
                        world.jobs.len()
                    )));
                }
                DeciderTarget::Arbiter => {
                    if let DeciderFaultKind::Kill(kp) = &fault.kind {
                        if !matches!(kp, KillPoint::AtTime(_)) {
                            return Err(ControllerError::InvalidConfig(
                                "arbiter kills must be KillPoint::AtTime".into(),
                            ));
                        }
                    }
                }
                DeciderTarget::Shard(_) => {}
            }
        }
        let window = config.window;
        let mut arbiter = arbiter;
        let mut shards = Vec::with_capacity(world.jobs.len());
        for (s, job) in world.jobs.iter().enumerate() {
            let expected = job.ds2.policy_interval.max(job.sim.tick);
            if (expected - config.window).abs() > 1e-9 {
                return Err(ControllerError::InvalidConfig(format!(
                    "job `{}` has policy window {expected}, fleet window is {} — \
                     lockstep requires them equal",
                    job.name, config.window
                )));
            }
            let kill = config.control_faults.decider_kill(DeciderTarget::Shard(s));
            let partitions = config
                .control_faults
                .decider_partitions(DeciderTarget::Shard(s));
            let (lp, journal_buf) =
                build_loop(job, &world.clusters[s], world.strategy.as_ref(), kill)?;
            let holder = holder_name(&job.name, 0);
            let term = arbiter.acquire_lease(s, &holder, 0.0)?;
            shards.push(ShardRuntime {
                live: Some(lp),
                journal_buf,
                holder_gen: 0,
                term,
                lost_at: None,
                partition_until: None,
                zombie: None,
                stepped: 0,
                history: Vec::new(),
                last_contrib: vec![0.0; world.pools[s].len()],
                goodput: 0.0,
                target: 0.0,
                partitions,
            });
        }
        Ok(FleetController {
            world,
            arbiter,
            arbiter_buf,
            config,
            time: 0.0,
            window_index: 0,
            shards,
            takeovers: Vec::new(),
            revocations: Vec::new(),
            reacquisitions: 0,
            fenced_attempts: 0,
            split_brain_stamps: 0,
            arbiter_recoveries: 0,
            arbiter_kill_done: false,
            threads: hardware_threads(),
            ticks: TickPool::new(move |sim: &mut Simulation| sim.advance_ticks(window, 0.0)),
        })
    }

    /// Current fleet time.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// The arbiter (live lease table, pools, tenancy).
    pub fn arbiter(&self) -> &Arbiter {
        &self.arbiter
    }

    /// Takeovers so far.
    pub fn takeovers(&self) -> &[TakeoverEvent] {
        &self.takeovers
    }

    /// Whether the arbiter is partitioned away at time `t`.
    fn arbiter_cut(&self, t: f64) -> bool {
        self.config
            .control_faults
            .decider_partitions(DeciderTarget::Arbiter)
            .iter()
            .any(|&(from, until)| t + 1e-9 >= from && t < until)
    }

    /// Kills and recovers the arbiter when its kill point is due: the
    /// in-memory arbiter is dropped and rebuilt from its WAL, and the
    /// rebuilt state is checked against the lost one — a divergence is
    /// a [`ControllerError::Journal`] (the log failed its one job).
    fn process_arbiter_kill(&mut self, t: f64) -> Result<(), ControllerError> {
        if self.arbiter_kill_done {
            return Ok(());
        }
        let Some(KillPoint::AtTime(kt)) = self
            .config
            .control_faults
            .decider_kill(DeciderTarget::Arbiter)
        else {
            return Ok(());
        };
        if t + 1e-9 < kt {
            return Ok(());
        }
        self.arbiter_kill_done = true;
        let text = self.arbiter_buf.text();
        let recovered = Arbiter::recover(&text, Box::new(self.arbiter_buf.clone()))?;
        let same = recovered.shards() == self.arbiter.shards()
            && recovered.tenancy() == self.arbiter.tenancy()
            && recovered.rejections() == self.arbiter.rejections()
            && (0..recovered.num_shards()).all(|s| {
                recovered.leases().term(s) == self.arbiter.leases().term(s)
                    && recovered.leases().holder(s) == self.arbiter.leases().holder(s)
                    && recovered.leases().expires_at(s) == self.arbiter.leases().expires_at(s)
            });
        if !same {
            return Err(ControllerError::Journal(
                "arbiter recovered from its WAL diverged from the live state".into(),
            ));
        }
        self.arbiter = recovered;
        self.arbiter_recoveries += 1;
        Ok(())
    }

    /// Per-shard control-plane transitions at a window boundary `t`:
    /// zombie stamps, partition heal, standby takeover, partition
    /// onset, lease renewal.
    fn control_transitions(
        &mut self,
        s: usize,
        t: f64,
        arbiter_cut: bool,
    ) -> Result<(), ControllerError> {
        // 1. A healed zombie attempts one stamp with stale credentials.
        if !arbiter_cut {
            if let Some(z) = self.shards[s].zombie.clone() {
                if t + 1e-9 >= z.heal_at {
                    match self.arbiter.check_lease(s, &z.holder, z.term, t) {
                        Err(ControllerError::LeaseFenced { .. }) => self.fenced_attempts += 1,
                        Ok(()) => self.split_brain_stamps += 1,
                        Err(e) => return Err(e),
                    }
                    self.shards[s].zombie = None;
                }
            }
        }

        // 2. Partition heal: the incumbent comes back. If its lease
        // survived the outage it renews (or re-acquires after a lapse)
        // and catches up the windows it missed; if a standby took over
        // meanwhile, the incumbent became a zombie in step 3 below and
        // `partition_until` was already cleared.
        if let Some(until) = self.shards[s].partition_until {
            if t + 1e-9 >= until && !arbiter_cut {
                self.shards[s].partition_until = None;
                self.shards[s].lost_at = None;
                let holder = holder_name(&self.world.jobs[s].name, self.shards[s].holder_gen);
                let term = self.shards[s].term;
                match self.arbiter.renew_lease(s, &holder, term, t) {
                    Ok(()) => {}
                    Err(ControllerError::LeaseFenced { .. }) => {
                        // Lapsed but uncontested: re-acquire a new term.
                        self.shards[s].term = self.arbiter.acquire_lease(s, &holder, t)?;
                        self.reacquisitions += 1;
                    }
                    Err(e) => return Err(e),
                }
                self.catch_up_live(s, t)?;
            }
        }

        // 3. Standby takeover: the holder is out (dead or partitioned)
        // and its lease has expired.
        let out = self.shards[s].lost_at.is_some() || self.shards[s].partition_until.is_some();
        if out && !arbiter_cut && self.arbiter.leases().is_expired(s, t) {
            let lost_at = self.shards[s].lost_at.unwrap_or(t);
            if self.shards[s].partition_until.is_some() {
                // The cut incumbent becomes a zombie; it will try one
                // stale stamp when its partition heals.
                let until = self.shards[s].partition_until.take().unwrap_or(t);
                self.shards[s].zombie = Some(Zombie {
                    holder: holder_name(&self.world.jobs[s].name, self.shards[s].holder_gen),
                    term: self.shards[s].term,
                    heal_at: until,
                });
                self.shards[s].live = None;
            }
            self.shards[s].holder_gen += 1;
            let holder = holder_name(&self.world.jobs[s].name, self.shards[s].holder_gen);
            let term = self.arbiter.acquire_lease(s, &holder, t)?;
            self.shards[s].term = term;
            let journal_text = self.shards[s].journal_buf.text();
            let (lp, buf) = recover_loop(
                &self.world.jobs[s],
                &self.world.clusters[s],
                self.world.strategy.as_ref(),
                &journal_text,
            )?;
            self.shards[s].live = Some(lp);
            self.shards[s].journal_buf = buf;
            self.shards[s].stepped = 0;
            self.shards[s].lost_at = None;
            self.catch_up_live(s, t)?;
            self.takeovers.push(TakeoverEvent {
                shard: s,
                term,
                lost_at,
                acquired_at: t,
            });
        }

        // 4. Partition onset. A partition cuts off the *current*
        // holder process, so the window is consumed once it fires — a
        // standby that takes over during the window is a different
        // process and is not cut by it.
        if self.shards[s].live.is_some()
            && self.shards[s].partition_until.is_none()
            && self.shards[s].lost_at.is_none()
        {
            let due = self.shards[s]
                .partitions
                .iter()
                .position(|&(from, until)| t + 1e-9 >= from && t < until);
            if let Some(i) = due {
                let (from, until) = self.shards[s].partitions.remove(i);
                self.shards[s].partition_until = Some(until);
                self.shards[s].lost_at = Some(from);
            }
        }

        // 5. Lease renewal by a live, reachable holder.
        if self.shards[s].live.is_some()
            && self.shards[s].partition_until.is_none()
            && self.shards[s].lost_at.is_none()
            && !arbiter_cut
        {
            let holder = holder_name(&self.world.jobs[s].name, self.shards[s].holder_gen);
            let term = self.shards[s].term;
            match self.arbiter.renew_lease(s, &holder, term, t) {
                Ok(()) => {}
                Err(ControllerError::LeaseFenced { .. }) => {
                    // Lapsed during an arbiter outage: re-acquire.
                    self.shards[s].term = self.arbiter.acquire_lease(s, &holder, t)?;
                    self.reacquisitions += 1;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drives shard `s`'s live loop through every recorded window it has
    /// not yet stepped (failover / post-partition catch-up). A kill
    /// firing mid-catch-up puts the shard back in the dead state.
    fn catch_up_live(&mut self, s: usize, t: f64) -> Result<(), ControllerError> {
        let sh = &mut self.shards[s];
        let Some(lp) = sh.live.as_mut() else {
            return Ok(());
        };
        let end = drive(
            lp,
            &sh.history,
            sh.stepped,
            sh.history.len(),
            self.config.window,
        )?;
        sh.stepped = end.stepped;
        if let Some(report) = end.last {
            sh.last_contrib = report.worker_cpu_util;
        }
        if end.killed {
            sh.live = None;
            sh.lost_at = Some(t);
        }
        Ok(())
    }

    /// Per-global-worker total CPU utilization, from every shard's last
    /// measured contribution (frozen across decider outages — the data
    /// plane keeps running).
    fn global_util(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.arbiter.config().num_workers];
        for (s, sh) in self.shards.iter().enumerate() {
            for (i, &u) in sh.last_contrib.iter().enumerate() {
                total[self.world.pools[s][i]] += u;
            }
        }
        total
    }

    /// Advances the whole fleet one lockstep window, in three phases:
    ///
    /// 1. in shard order, arbiter kill, failover transitions and lease
    ///    checks, then the contention factors and revocations of the
    ///    window applied to every stepping shard;
    /// 2. every stepping shard's simulator ticks the window, in
    ///    parallel on up to the machine's available parallelism of
    ///    threads (the caller's among them);
    /// 3. in shard order, each stepped shard's controller observes its
    ///    window and decides.
    ///
    /// A shard's simulator reads nothing another shard writes during
    /// phase 2, so the outcome is the same on any number of threads. A
    /// simulator that panics in phase 2 is
    /// [`ControllerError::SimulationPanicked`].
    pub fn step_window(&mut self) -> Result<(), ControllerError> {
        let t = self.time;
        self.process_arbiter_kill(t)?;
        let arbiter_cut = self.arbiter_cut(t);
        for s in 0..self.shards.len() {
            self.control_transitions(s, t, arbiter_cut)?;
        }

        // Contention factors for this window, from last window's
        // measured utilization; then arbiter overload reconciliation.
        let total = self.global_util();
        let revocations = if arbiter_cut {
            Vec::new()
        } else {
            self.arbiter.observe_utilization(&total, t)?
        };
        for s in 0..self.shards.len() {
            let factors: Vec<f64> = self.shards[s]
                .last_contrib
                .iter()
                .enumerate()
                .map(|(i, &own)| {
                    let others = (total[self.world.pools[s][i]] - own).max(0.0);
                    1.0 + self.config.alpha * others
                })
                .collect();
            let mut revoked = Vec::new();
            for r in revocations.iter().filter(|r| r.shard == s) {
                if let Some(local) = self.world.pools[s].iter().position(|&g| g == r.worker) {
                    revoked.push(local);
                    self.revocations.push(RevocationEvent {
                        time: t,
                        shard: s,
                        worker: r.worker,
                        local,
                    });
                }
            }
            self.shards[s]
                .history
                .push(WindowRecord { factors, revoked });
        }

        // Pre-pass, in shard order: the lease barrier gates the step (a
        // holder whose term went stale must not drive the shard), then
        // the stepping shard's window inputs are applied.
        let mut stepping = vec![false; self.shards.len()];
        for (s, on) in stepping.iter_mut().enumerate() {
            let partitioned = self.shards[s].partition_until.is_some();
            let dead = self.shards[s].lost_at.is_some() && !partitioned;
            if self.shards[s].live.is_none() || partitioned || dead {
                continue;
            }
            if !arbiter_cut {
                let holder = holder_name(&self.world.jobs[s].name, self.shards[s].holder_gen);
                let term = self.shards[s].term;
                match self.arbiter.check_lease(s, &holder, term, t) {
                    Ok(()) => {}
                    Err(ControllerError::LeaseFenced { .. }) => {
                        // Superseded: stand down without a stamp.
                        self.fenced_attempts += 1;
                        self.shards[s].live = None;
                        self.shards[s].lost_at = Some(t);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
            let sh = &mut self.shards[s];
            if let (Some(lp), Some(rec)) = (sh.live.as_mut(), sh.history.get(sh.stepped)) {
                prepare_window(lp, rec);
                *on = true;
            }
        }

        // Tick phase: the stepping shards' simulators advance the window
        // in parallel. Each is lent to the tick pool by value and handed
        // back to its shard; nothing else crosses threads, and nothing
        // shard-external changes until the observe pass.
        let window = self.config.window;
        let mut sims: Vec<Option<Simulation>> = self
            .shards
            .iter_mut()
            .zip(&stepping)
            .map(|(sh, &on)| {
                let lp = sh.live.as_mut().filter(|_| on)?;
                lp.lend_simulation(window)
            })
            .collect();
        let ticked = self.ticks.tick_all(&mut sims, self.threads);
        for (sh, sim) in self.shards.iter_mut().zip(sims) {
            if let (Some(lp), Some(sim)) = (sh.live.as_mut(), sim) {
                lp.return_simulation(sim);
            }
        }
        ticked?;

        // Observe pass, in shard order: the controller half of each
        // stepped shard's window.
        for (sh, _) in self.shards.iter_mut().zip(&stepping).filter(|&(_, &on)| on) {
            let Some(lp) = sh.live.as_mut() else { continue };
            match finish_window(lp.observe(window))? {
                Some(report) => {
                    sh.stepped += 1;
                    sh.goodput += report.avg_throughput * window;
                    sh.target += report.avg_target * window;
                    sh.last_contrib = report.worker_cpu_util;
                }
                None => {
                    sh.live = None;
                    sh.lost_at = Some(self.time + window);
                }
            }
        }

        self.time += self.config.window;
        self.window_index += 1;
        Ok(())
    }

    /// Runs the fleet for `duration` seconds (whole windows).
    pub fn run(&mut self, duration: f64) -> Result<(), ControllerError> {
        let end = self.time + duration;
        while self.time < end - 1e-9 {
            self.step_window()?;
        }
        Ok(())
    }

    /// Finishes the run: any shard whose controller is still out gets a
    /// final forced recovery (so every shard yields a full trace), live
    /// shards catch up any missed windows, and every shard's trace and
    /// journal are serialized into the outcome.
    pub fn finish(mut self) -> Result<FleetOutcome, ControllerError> {
        let mut outcomes = Vec::with_capacity(self.shards.len());
        for s in 0..self.shards.len() {
            // Bring the shard to the fleet clock whatever state its
            // controller is in. Two attempts: a live primary with an
            // armed kill can still die on the first catch-up; the
            // recovery pass disarms the kill.
            for _attempt in 0..2 {
                if self.shards[s].live.is_none() {
                    let journal_text = self.shards[s].journal_buf.text();
                    let (lp, buf) = recover_loop(
                        &self.world.jobs[s],
                        &self.world.clusters[s],
                        self.world.strategy.as_ref(),
                        &journal_text,
                    )?;
                    self.shards[s].live = Some(lp);
                    self.shards[s].journal_buf = buf;
                    self.shards[s].stepped = 0;
                }
                self.catch_up_live(s, self.time)?;
                if self.shards[s].live.is_some() {
                    break;
                }
            }
            let sh = &mut self.shards[s];
            let Some(lp) = sh.live.take() else {
                return Err(ControllerError::JournalReplay(format!(
                    "shard {s} died again during final catch-up despite a disarmed kill"
                )));
            };
            let trace = lp.into_trace()?;
            outcomes.push(ShardOutcome {
                name: self.world.jobs[s].name.clone(),
                goodput: sh.goodput,
                target: sh.target,
                windows_stepped: sh.stepped,
                trace_json: trace.to_json().to_string(),
                journal: sh.journal_buf.text(),
                history: std::mem::take(&mut sh.history),
            });
        }
        Ok(FleetOutcome {
            time: self.time,
            windows: self.window_index,
            shards: outcomes,
            takeovers: self.takeovers,
            reacquisitions: self.reacquisitions,
            fenced_attempts: self.fenced_attempts,
            split_brain_stamps: self.split_brain_stamps,
            revocations: self.revocations,
            arbiter_recoveries: self.arbiter_recoveries,
            arbiter_log: self.arbiter_buf.text(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{parse_journal, DecisionRecord};
    use capsys_core::SearchConfig;
    use capsys_model::WorkerSpec;
    use capsys_placement::FlinkDefault;
    use capsys_queries::q1_sliding;
    use capsys_sim::DeciderFault;
    use std::time::Duration;

    fn global_cluster() -> Cluster {
        Cluster::homogeneous(6, WorkerSpec::m5d_2xlarge(8)).unwrap()
    }

    /// Zero search budget: the recovery ladder deterministically
    /// descends to round-robin, independent of wall-clock speed.
    fn fast_recovery() -> RecoveryConfig {
        RecoveryConfig {
            search: SearchConfig {
                time_budget: Some(Duration::ZERO),
                ..SearchConfig::auto_tuned()
            },
            ..RecoveryConfig::default()
        }
    }

    fn job(name: &str, seed: u64, weight: f64) -> JobSpec {
        let query = q1_sliding().with_parallelism(&[1, 1, 1, 1]).unwrap();
        JobSpec {
            name: name.into(),
            query,
            schedule: RateSchedule::Constant(400.0),
            ds2: Ds2Config {
                activation_period: 20.0,
                policy_interval: 5.0,
                max_parallelism: 8,
                headroom: 1.0,
            },
            sim: SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            seed,
            weight,
            requested_workers: 4,
            recovery: fast_recovery(),
            faults: None,
        }
    }

    fn fleet_config(control_faults: FaultPlan) -> FleetConfig {
        FleetConfig {
            arbiter: ArbiterConfig {
                max_tenancy: 2,
                lease_duration: 12.0,
                overload_util: 5.0, // effectively off unless a test lowers it
                overload_windows: 2,
                min_pool: 2,
                ..ArbiterConfig::default()
            },
            alpha: 0.5,
            window: 5.0,
            control_faults,
        }
    }

    fn build_fleet(config: &FleetConfig, jobs: Vec<JobSpec>) -> (FleetWorld, Arbiter, SharedBuf) {
        FleetWorld::build(&global_cluster(), jobs, Box::new(FlinkDefault), config).unwrap()
    }

    #[test]
    fn two_tenant_fleet_runs_in_lockstep_with_contention() {
        let config = fleet_config(FaultPlan::default());
        let (world, arbiter, buf) =
            build_fleet(&config, vec![job("ten-a", 3, 1.0), job("ten-b", 5, 2.0)]);
        // 6 workers, two 4-worker pools at max_tenancy 2: they overlap.
        let overlap: Vec<usize> = world.pools()[0]
            .iter()
            .filter(|g| world.pools()[1].contains(g))
            .copied()
            .collect();
        assert!(
            !overlap.is_empty(),
            "pools {:?} must overlap",
            world.pools()
        );
        let mut fleet = FleetController::new(&world, arbiter, buf, config.clone()).unwrap();
        fleet.run(60.0).unwrap();
        assert!(fleet.takeovers().is_empty());
        assert_eq!(fleet.arbiter().leases().term(0), 1);
        assert_eq!(fleet.arbiter().leases().term(1), 1);
        let out = fleet.finish().unwrap();
        assert_eq!(out.windows, 12);
        assert_eq!(out.split_brain_stamps, 0);
        assert_eq!(out.fenced_attempts, 0);
        for sh in &out.shards {
            assert_eq!(sh.history.len(), 12);
            assert_eq!(sh.windows_stepped, 12);
            assert!(sh.goodput > 0.0, "{} produced nothing", sh.name);
            assert!(sh
                .history
                .iter()
                .all(|w| w.factors.iter().all(|&f| f >= 1.0)));
        }
        // Both tenants are loaded, so shared workers see factors > 1
        // from the second window on.
        let contended = out.shards.iter().any(|sh| {
            sh.history
                .iter()
                .skip(1)
                .any(|w| w.factors.iter().any(|&f| f > 1.0))
        });
        assert!(contended, "overlapping loaded tenants never contended");
    }

    #[test]
    fn killed_shard_controller_fails_over_and_replays_byte_identically() {
        let mut faults = FaultPlan::default();
        faults = faults
            .with_decider_fault(DeciderFault {
                target: DeciderTarget::Shard(0),
                kind: DeciderFaultKind::Kill(KillPoint::AtTime(20.0)),
            })
            .unwrap();
        let config = fleet_config(faults);
        let (world, arbiter, buf) =
            build_fleet(&config, vec![job("ten-a", 3, 1.0), job("ten-b", 5, 2.0)]);
        let mut fleet = FleetController::new(&world, arbiter, buf, config.clone()).unwrap();
        fleet.run(100.0).unwrap();
        let takeovers = fleet.takeovers().to_vec();
        assert_eq!(takeovers.len(), 1, "expected exactly one takeover");
        assert_eq!(takeovers[0].shard, 0);
        assert_eq!(takeovers[0].term, 2);
        assert!(
            takeovers[0].mttr() <= config.arbiter.lease_duration + 2.0 * config.window,
            "MTTR {} exceeds the lease bound",
            takeovers[0].mttr()
        );
        let out = fleet.finish().unwrap();
        assert_eq!(out.split_brain_stamps, 0);
        // The survivor's lease stayed at term 1; the recovered shard is
        // at term 2.
        assert_eq!(out.takeovers[0].term, 2);
        // Offline proof: rebuild each shard from its final journal and
        // recorded history; trace and journal must be byte-identical.
        for (s, sh) in out.shards.iter().enumerate() {
            let (trace, journal) = replay_shard(
                &world.jobs()[s],
                &world.clusters()[s],
                &FlinkDefault,
                &sh.journal,
                &sh.history,
                config.window,
            )
            .unwrap();
            assert_eq!(trace, sh.trace_json, "shard {s} trace diverged on replay");
            assert_eq!(journal, sh.journal, "shard {s} journal diverged on replay");
        }
    }

    #[test]
    fn partitioned_holder_is_fenced_as_zombie_on_heal() {
        let mut faults = FaultPlan::default();
        faults = faults
            .with_decider_fault(DeciderFault {
                target: DeciderTarget::Shard(1),
                kind: DeciderFaultKind::Partition {
                    from: 20.0,
                    until: 60.0,
                },
            })
            .unwrap();
        let config = fleet_config(faults);
        let (world, arbiter, buf) =
            build_fleet(&config, vec![job("ten-a", 3, 1.0), job("ten-b", 5, 2.0)]);
        let mut fleet = FleetController::new(&world, arbiter, buf, config.clone()).unwrap();
        fleet.run(100.0).unwrap();
        let out = fleet.finish().unwrap();
        // The cut holder's lease (renewed last at t=20) expired at t=32;
        // the standby took over while the partition still held, and the
        // healed zombie's stamp was fenced.
        assert_eq!(out.takeovers.len(), 1);
        assert_eq!(out.takeovers[0].shard, 1);
        assert!(out.fenced_attempts >= 1, "zombie stamp was never fenced");
        assert_eq!(out.split_brain_stamps, 0);
    }

    #[test]
    fn arbiter_kill_recovers_from_its_own_log_mid_run() {
        let mut faults = FaultPlan::default();
        faults = faults
            .with_decider_fault(DeciderFault {
                target: DeciderTarget::Arbiter,
                kind: DeciderFaultKind::Kill(KillPoint::AtTime(30.0)),
            })
            .unwrap();
        let config = fleet_config(faults);
        let (world, arbiter, buf) =
            build_fleet(&config, vec![job("ten-a", 3, 1.0), job("ten-b", 5, 2.0)]);
        let mut fleet = FleetController::new(&world, arbiter, buf, config.clone()).unwrap();
        fleet.run(60.0).unwrap();
        let out = fleet.finish().unwrap();
        assert_eq!(out.arbiter_recoveries, 1);
        assert!(out.takeovers.is_empty());
        assert_eq!(out.split_brain_stamps, 0);
    }

    /// Every deterministic surface of a fleet run, for byte comparison.
    type Surfaces = (
        Vec<(String, String, Vec<WindowRecord>)>,
        String,
        Vec<TakeoverEvent>,
        [u64; 4],
    );

    fn surfaces(out: &FleetOutcome) -> Surfaces {
        (
            out.shards
                .iter()
                .map(|sh| {
                    (
                        sh.trace_json.clone(),
                        sh.journal.clone(),
                        sh.history.clone(),
                    )
                })
                .collect(),
            out.arbiter_log.clone(),
            out.takeovers.clone(),
            [
                out.fenced_attempts,
                out.split_brain_stamps,
                out.reacquisitions,
                out.arbiter_recoveries,
            ],
        )
    }

    #[test]
    fn tick_phase_thread_count_leaves_every_surface_byte_identical() {
        // Tenant 0 scales in its first window and dies between that
        // Prepare and its Commit; tenant 1's holder is cut off past its
        // lease; the arbiter dies and recovers from its log.
        let faults = [
            (
                DeciderTarget::Shard(0),
                DeciderFaultKind::Kill(KillPoint::MidReconfig(1)),
            ),
            (
                DeciderTarget::Shard(1),
                DeciderFaultKind::Partition {
                    from: 20.0,
                    until: 60.0,
                },
            ),
            (
                DeciderTarget::Arbiter,
                DeciderFaultKind::Kill(KillPoint::AtTime(30.0)),
            ),
        ]
        .into_iter()
        .try_fold(FaultPlan::default(), |plan, (target, kind)| {
            plan.with_decider_fault(DeciderFault { target, kind })
        })
        .unwrap();
        let config = fleet_config(faults);
        let mut hot = job("ten-a", 3, 1.0);
        hot.schedule = RateSchedule::Constant(3000.0);
        let mut jobs = vec![hot, job("ten-b", 5, 2.0), job("ten-c", 7, 1.5)];
        // Per-tick CPU jitter: every tick draws from the simulator's
        // RNG, so a shard ticked twice, or not at all, shows in its
        // trace even at a steady rate.
        for (seed, j) in (1..).zip(&mut jobs) {
            j.sim = j.sim.clone().with_noise(0.05, seed);
        }
        let run = |threads: usize| {
            let (world, arbiter, buf) = build_fleet(&config, jobs.clone());
            let mut fleet = FleetController::new(&world, arbiter, buf, config.clone()).unwrap();
            fleet.threads = threads;
            fleet.run(100.0).unwrap();
            let out = fleet.finish().unwrap();
            (world, out)
        };

        let (world, base) = run(1);
        assert!(base.takeovers.iter().any(|t| t.shard == 0 && t.term == 2));
        assert!(base.takeovers.iter().any(|t| t.shard == 1));
        assert!(
            base.fenced_attempts >= 1,
            "the zombie stamp was never fenced"
        );
        assert_eq!(base.arbiter_recoveries, 1);
        assert_eq!(base.split_brain_stamps, 0);
        let rolled_forward = parse_journal(&base.shards[0].journal)
            .unwrap()
            .records
            .iter()
            .any(|r| matches!(r, DecisionRecord::Commit { epoch: 1, .. }));
        assert!(
            rolled_forward,
            "the in-doubt Prepare was not rolled forward"
        );
        for (s, sh) in base.shards.iter().enumerate() {
            let replayed = replay_shard(
                &world.jobs()[s],
                &world.clusters()[s],
                &FlinkDefault,
                &sh.journal,
                &sh.history,
                config.window,
            )
            .unwrap();
            assert_eq!(replayed, (sh.trace_json.clone(), sh.journal.clone()));
        }

        let expected = surfaces(&base);
        for threads in [2, 3, 8] {
            assert!(
                surfaces(&run(threads).1) == expected,
                "the fleet diverged on {threads} tick-phase threads"
            );
        }
    }

    #[test]
    fn tick_phase_returns_a_panicking_tick_as_an_error() {
        for threads in [1, 2, 3] {
            let mut pool = TickPool::new(|x: &mut i32| {
                if *x == 2 {
                    panic!("induced tick panic");
                }
                *x += 10;
            });
            let mut items = [0, 1, 2, 3].map(Some);
            let out = pool.tick_all(&mut items, threads);
            assert_eq!(out, Err(ControllerError::SimulationPanicked));
            assert_eq!(items, [10, 11, 2, 13].map(Some), "on {threads} threads");
            // The helpers outlive the panic: the next window ticks whole.
            let mut next = [Some(4), None, Some(5)];
            assert_eq!(pool.tick_all(&mut next, threads), Ok(()));
            assert_eq!(next, [Some(14), None, Some(15)], "on {threads} threads");
        }
    }

    /// A three-tenant fleet ticking on `threads` threads.
    fn three_tenant_fleet(
        world: &FleetWorld,
        arbiter: Arbiter,
        buf: SharedBuf,
        threads: usize,
    ) -> FleetController<'_> {
        let config = fleet_config(FaultPlan::default());
        let mut fleet = FleetController::new(world, arbiter, buf, config).unwrap();
        fleet.threads = threads;
        fleet
    }

    #[test]
    fn tick_phase_keeps_one_helper_per_extra_thread_across_windows() {
        let config = fleet_config(FaultPlan::default());
        let jobs = vec![
            job("ten-a", 3, 1.0),
            job("ten-b", 5, 2.0),
            job("ten-c", 7, 1.5),
        ];
        for (threads, helpers) in [(1, 0), (2, 1), (3, 2), (8, 2)] {
            let (world, arbiter, buf) = build_fleet(&config, jobs.clone());
            let mut fleet = three_tenant_fleet(&world, arbiter, buf, threads);
            fleet.run(20.0).unwrap();
            let first: Vec<_> = fleet
                .ticks
                .helpers
                .iter()
                .map(|h| h.thread().id())
                .collect();
            assert_eq!(first.len(), helpers, "on {threads} threads");
            fleet.run(20.0).unwrap();
            let later: Vec<_> = fleet
                .ticks
                .helpers
                .iter()
                .map(|h| h.thread().id())
                .collect();
            assert_eq!(first, later, "helpers were replaced on {threads} threads");
        }
    }

    #[test]
    fn tick_phase_helpers_are_joined_when_the_fleet_drops() {
        let config = fleet_config(FaultPlan::default());
        let jobs = vec![
            job("ten-a", 3, 1.0),
            job("ten-b", 5, 2.0),
            job("ten-c", 7, 1.5),
        ];
        let (world, arbiter, buf) = build_fleet(&config, jobs);
        let mut fleet = three_tenant_fleet(&world, arbiter, buf, 3);
        fleet.run(20.0).unwrap();
        assert_eq!(fleet.ticks.helpers.len(), 2);
        // Each helper holds the deal queue until its thread returns.
        let deal = Arc::downgrade(&fleet.ticks.deal);
        assert_eq!(deal.strong_count(), 3);
        drop(fleet);
        assert_eq!(deal.strong_count(), 0, "a helper outlived its fleet");
    }

    #[test]
    fn mismatched_policy_window_is_rejected() {
        let config = fleet_config(FaultPlan::default());
        let mut bad = job("ten-a", 3, 1.0);
        bad.ds2.policy_interval = 7.0;
        let (world, arbiter, buf) = build_fleet(&config, vec![bad]);
        assert!(matches!(
            FleetController::new(&world, arbiter, buf, config),
            Err(ControllerError::InvalidConfig(_))
        ));
    }
}
