//! The fluid-flow simulation engine.
//!
//! The engine advances time in fixed ticks. Each tick it:
//!
//! 1. computes every task's *desired* processing volume from the records
//!    available in its input queues (or the source schedule) and the free
//!    space in its output queues (bounded queues are what propagates
//!    backpressure upstream, like Flink's credit-based flow control);
//! 2. resolves *contention* on every worker with a max-min fair
//!    (water-filling) allocation of the worker's CPU cores, disk
//!    bandwidth, and outbound NIC bandwidth among its tasks — the three
//!    shared resources whose saturation the CAPSys paper identifies as
//!    the cause of co-location penalties (§3.3);
//! 3. moves records: dequeues from input channels proportionally to
//!    their occupancy and enqueues outputs according to each channel's
//!    per-record share.
//!
//! Only cross-worker channels charge the NIC, mirroring Eq. 8 of the
//! paper. Sources that cannot place records (full downstream queues or
//! their own throttling) accumulate *backpressure*, reported as the
//! fraction of time sources spend throttled — Flink's
//! backpressured-time metric, which the paper reports.

use std::borrow::Cow;
use std::collections::HashMap;

use capsys_model::{
    Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, PhysicalGraph, Placement,
    RateSchedule,
};
use capsys_util::rng::SmallRng;
use capsys_util::rng::{Rng, SeedableRng};

use crate::config::{
    SimConfig, BUFFER_SECS, BURST_DUTY, BURST_PERIOD, METRICS_INTERVAL, QUEUE_CAPACITY,
};
use crate::error::SimError;
use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::metrics::{MetricPoint, SimulationReport, SourceStats, TaskRateStats};

/// A source task counts as backpressured in a tick when it admitted less
/// than this fraction of its target volume — mirroring Flink's
/// backpressured-time-per-second metric, which the paper reports instead
/// of raw throughput deficit.
const BACKPRESSURE_SLACK: f64 = 0.99;

/// Residual bytes below which a state-transfer flow counts as drained,
/// absorbing float round-off from per-tick bandwidth slicing.
const TRANSFER_EPS: f64 = 1e-9;

/// Static, per-task simulation state.
#[derive(Debug, Clone)]
struct TaskState {
    worker: usize,
    op: usize,
    cpu_unit: f64,
    io_unit: f64,
    /// Outbound bytes per processed record over cross-worker channels.
    net_unit: f64,
    /// Extra seconds of flight time per processed record from link
    /// latency on cross-worker channels (0 for datacenter-local links).
    lat_unit: f64,
    selectivity: f64,
    burst_amp: f64,
    is_source: bool,
    /// Source generation share: `1 / parallelism` of its operator.
    gen_share: f64,
    in_channels: Vec<usize>,
    /// `(channel index, records pushed per processed record)`.
    out_pushes: Vec<(usize, f64)>,
}

/// A bounded point-to-point queue between two tasks.
#[derive(Debug, Clone)]
struct ChannelState {
    q: f64,
    cap: f64,
}

/// One task's state relocation (or in-place restore) within a state
/// transfer — the unit of a migration wave.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTransfer {
    /// The task index (its `TaskId.0`).
    pub task: usize,
    /// Destination worker. Equal to the task's current worker for an
    /// in-place restore (a whole-plan redeploy reloading every stateful
    /// task from local disk).
    pub to: usize,
    /// State bytes that must drain before the task may resume.
    pub bytes: f64,
}

/// In-flight progress of one [`TaskTransfer`].
#[derive(Debug, Clone)]
struct TransferFlow {
    task: usize,
    from: usize,
    to: usize,
    remaining: f64,
}

/// Extracts a task's per-record unit cost for one resource dimension.
type ResourceUnitFn = fn(&TaskState, f64) -> f64;

/// Per-worker resource capacities, per second.
#[derive(Debug, Clone, Copy)]
struct WorkerCaps {
    cpu: f64,
    io: f64,
    net: f64,
}

/// Accumulators for one reporting window.
///
/// Per-source figures are dense arrays indexed by operator id, with a
/// seen flag per operator: resetting zero-fills in place and every sum
/// over sources runs in operator-id order.
#[derive(Debug, Clone, Default)]
struct WindowAcc {
    time: f64,
    admitted: f64,
    target: f64,
    in_flight_time: f64,
    cpu_use: Vec<f64>,
    io_use: Vec<f64>,
    net_use: Vec<f64>,
    /// Whether any task of this operator reported as a source.
    src_seen: Vec<bool>,
    src_admitted: Vec<f64>,
    src_target: Vec<f64>,
    /// Source-task-seconds spent backpressured, per source operator.
    src_bp_time: Vec<f64>,
    /// Total source-task-seconds observed, per source operator.
    src_time: Vec<f64>,
    task_processed: Vec<f64>,
    task_busy: Vec<f64>,
    task_capacity_time: Vec<f64>,
}

impl WindowAcc {
    fn new(workers: usize, tasks: usize, operators: usize) -> WindowAcc {
        WindowAcc {
            cpu_use: vec![0.0; workers],
            io_use: vec![0.0; workers],
            net_use: vec![0.0; workers],
            src_seen: vec![false; operators],
            src_admitted: vec![0.0; operators],
            src_target: vec![0.0; operators],
            src_bp_time: vec![0.0; operators],
            src_time: vec![0.0; operators],
            task_processed: vec![0.0; tasks],
            task_busy: vec![0.0; tasks],
            task_capacity_time: vec![0.0; tasks],
            ..WindowAcc::default()
        }
    }

    /// Zeroes every accumulator in place, keeping the buffers.
    fn reset(&mut self) {
        self.time = 0.0;
        self.admitted = 0.0;
        self.target = 0.0;
        self.in_flight_time = 0.0;
        self.src_seen.fill(false);
        for v in [
            &mut self.cpu_use,
            &mut self.io_use,
            &mut self.net_use,
            &mut self.src_admitted,
            &mut self.src_target,
            &mut self.src_bp_time,
            &mut self.src_time,
            &mut self.task_processed,
            &mut self.task_busy,
            &mut self.task_capacity_time,
        ] {
            v.fill(0.0);
        }
    }

    /// Records one source task's tick: `admitted` records against
    /// `target` offered, backpressured when it admitted less than
    /// [`BACKPRESSURE_SLACK`] of `admit_target`.
    fn add_source(&mut self, op: usize, admitted: f64, target: f64, admit_target: f64, tick: f64) {
        self.admitted += admitted;
        self.target += target;
        self.src_seen[op] = true;
        self.src_admitted[op] += admitted;
        self.src_target[op] += target;
        self.src_time[op] += tick;
        if admit_target > 0.0 && admitted < BACKPRESSURE_SLACK * admit_target {
            self.src_bp_time[op] += tick;
        }
    }

    /// Aggregate backpressured-time fraction over all source operators.
    fn backpressure_fraction(&self) -> f64 {
        let seen = |v: &[f64]| -> f64 {
            v.iter()
                .zip(&self.src_seen)
                .filter(|(_, &s)| s)
                .map(|(&x, _)| x)
                .sum()
        };
        let total = seen(&self.src_time);
        if total <= 0.0 {
            return 0.0;
        }
        let bp = seen(&self.src_bp_time);
        // `+ 0.0` normalizes a negative zero produced by the division.
        (bp / total).clamp(0.0, 1.0) + 0.0
    }
}

/// Max-min allocation buffers for one worker, reused across workers and
/// ticks.
#[derive(Debug, Default)]
struct AllocScratch {
    /// Records each task may process this tick.
    allowed: Vec<f64>,
    /// Records each task could process given its contention.
    potential: Vec<f64>,
    /// Per-record unit cost of the resource being allocated.
    units: Vec<f64>,
    demands: Vec<f64>,
    alloc: Vec<f64>,
    order: Vec<usize>,
}

impl AllocScratch {
    /// Grows every buffer to hold `tasks` entries.
    fn reserve(&mut self, tasks: usize) {
        for v in [
            &mut self.allowed,
            &mut self.potential,
            &mut self.units,
            &mut self.demands,
            &mut self.alloc,
        ] {
            v.reserve(tasks.saturating_sub(v.len()));
        }
        self.order.reserve(tasks.saturating_sub(self.order.len()));
    }
}

/// The scalar figures of one interval's [`MetricPoint`], as
/// [`Simulation::advance_ticks`] records them; the point's per-worker
/// utilizations sit in `Simulation::point_utils`.
#[derive(Debug, Clone, Copy)]
struct PointHead {
    time: f64,
    source_throughput: f64,
    target_rate: f64,
    backpressure: f64,
    latency: f64,
}

/// A contention-aware stream-processing simulation bound to one
/// deployment (graph + cluster + placement).
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    time: f64,
    tasks: Vec<TaskState>,
    channels: Vec<ChannelState>,
    workers: Vec<WorkerCaps>,
    /// Per source task: index into `schedules`.
    task_schedule: Vec<Option<usize>>,
    schedules: Vec<(usize, RateSchedule)>,
    rng: SmallRng,
    // Scratch buffers reused across ticks.
    desired: Vec<f64>,
    avail: Vec<f64>,
    rate: Vec<f64>,
    capacity_rate: Vec<f64>,
    cpu_eff: Vec<f64>,
    worker_tasks: Vec<Vec<usize>>,
    /// Workers currently failed (their tasks process nothing).
    failed: Vec<bool>,
    /// Per-worker CPU-cost multiplier (1.0 = healthy, > 1 = straggler).
    slowdown: Vec<f64>,
    /// Per-worker cross-job contention multiplier (1.0 = uncontended,
    /// > 1 = co-located tenants are stealing cycles). Composes
    /// multiplicatively with `slowdown`: chaos stragglers and tenant
    /// contention are independent effects.
    contention: Vec<f64>,
    /// Per-worker NIC-bandwidth multiplier (1.0 = healthy, < 1 = a
    /// degraded link).
    net_degrade: Vec<f64>,
    /// Per-worker network-partition flags. A partitioned worker keeps
    /// running, but its cross-worker channels freeze and its heartbeat
    /// goes missing from reports.
    partitioned: Vec<bool>,
    /// Fraction of offered source load intentionally dropped at
    /// admission, in `[0, 0.95]`. Shed records do not count as
    /// backpressure — the overload controller chose to drop them.
    shed_fraction: f64,
    /// Per-worker one-way link latency, seconds (from the cluster spec).
    link_lats: Vec<f64>,
    /// Per-channel frozen flags for the current tick (a cross-worker
    /// channel with a partitioned endpoint moves no records).
    frozen: Vec<bool>,
    /// Whether any flag in `frozen` may be set.
    any_frozen: bool,
    /// Global CPU-cost multiplier for a mispredicted deployment (1.0 =
    /// the cost model was right; > 1 = the plan runs slower than
    /// modeled). Set by the controller at deploy time under a
    /// [`crate::ModelSkew`] fault.
    model_skew: f64,
    /// Scheduled fault events, applied tick by tick.
    injector: Option<FaultInjector>,
    /// Whether a metric blackout is currently active.
    blackout: bool,
    // Cumulative conservation counters.
    total_admitted: f64,
    total_sunk: f64,
    /// Channel endpoints `(from task, to task)`, kept for re-deriving
    /// `net_unit`s after a migration reassigns tasks.
    channel_ends: Vec<(usize, usize)>,
    /// Per-task `out_bytes_per_record`, kept for the same re-derivation.
    out_bytes: Vec<f64>,
    /// In-flight state transfer, when a migration wave (or a whole-plan
    /// restore) is draining.
    transfer: Option<Vec<TransferFlow>>,
    /// Per-task paused flag: true while the task's state drains.
    paused: Vec<bool>,
    /// Cumulative paused task-seconds since construction.
    paused_secs: f64,
    /// Per-worker disk bytes charged to state draining this tick.
    drain_io: Vec<f64>,
    /// Per-worker NIC bytes charged to state draining this tick.
    drain_net: Vec<f64>,
    /// Per-task scheduled generation rate (records/s, scaled by the
    /// task's share) at the start of the last tick; 0 for non-sources.
    src_gen: Vec<f64>,
    /// Simulated time `src_gen` was evaluated at.
    src_gen_time: f64,
    /// Records buffered in channel queues at the end of the last tick.
    tick_in_flight: f64,
    /// Per-worker disk/NIC budgets left for state draining this tick.
    budget_io: Vec<f64>,
    budget_net: Vec<f64>,
    alloc_scratch: AllocScratch,
    /// Interval and report accumulators, reused across `advance_ticks`
    /// calls.
    interval_acc: WindowAcc,
    report_acc: WindowAcc,
    /// Interval samples of the last `advance_ticks`, turned into
    /// [`MetricPoint`]s by `take_report`. Kept across calls, so a steady
    /// window reuses their buffers.
    point_heads: Vec<PointHead>,
    /// Per-worker CPU, then disk, then NIC utilization of each sample in
    /// `point_heads`: `3 * workers` values per sample.
    point_utils: Vec<f64>,
}

// The fleet advances shard simulations on worker threads: an `Rc` or
// `RefCell` field must fail the build here, not there.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Simulation>();
};

impl Simulation {
    /// Builds a simulation for the given deployment.
    ///
    /// `schedules` maps each source operator to its input rate schedule;
    /// every source operator of the graph must be covered.
    pub fn new(
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        cluster: &Cluster,
        placement: &Placement,
        schedules: &HashMap<OperatorId, RateSchedule>,
        config: SimConfig,
    ) -> Result<Simulation, SimError> {
        config.validate()?;
        placement.validate(physical, cluster)?;
        for src in logical.sources() {
            if !schedules.contains_key(&src) {
                return Err(SimError::MissingSchedule(
                    logical.operator(src).name.clone(),
                ));
            }
        }

        let mut sched_list: Vec<(usize, RateSchedule)> = Vec::new();
        let mut sched_index: HashMap<usize, usize> = HashMap::new();
        for (op, sched) in schedules {
            sched_index.insert(op.0, sched_list.len());
            sched_list.push((op.0, sched.clone()));
        }

        // Group each producer's channels by downstream operator (one
        // group per logical out-edge), in ascending operator id, keeping
        // channel-index order within a group. The graph lists them in
        // channel-index order, edge by edge, so only a producer whose
        // out-edges are not in operator order needs the stable sort.
        let n_tasks = physical.num_tasks();
        let d_op = |ci: usize| physical.task_operator(physical.channels()[ci].to).0;
        let out_chans: Vec<Cow<'_, [usize]>> = physical
            .tasks()
            .iter()
            .map(|t| {
                let chans = physical.out_channel_indices(t.id);
                if chans.is_sorted_by_key(|&ci| d_op(ci)) {
                    Cow::Borrowed(chans)
                } else {
                    let mut sorted = chans.to_vec();
                    sorted.sort_by_key(|&ci| d_op(ci));
                    Cow::Owned(sorted)
                }
            })
            .collect();
        let mut group_len = vec![0usize; physical.channels().len()];
        for chans in &out_chans {
            for group in chans.chunk_by(|&a, &b| d_op(a) == d_op(b)) {
                for &ci in group {
                    group_len[ci] = group.len();
                }
            }
        }

        // Size each channel queue by the time it should buffer (the
        // buffer-debloating analogue): capacity = peak channel rate x
        // BUFFER_SECS, floored at QUEUE_CAPACITY records.
        let peak_rates: HashMap<OperatorId, f64> = schedules
            .iter()
            .map(|(&op, s)| (op, s.peak_rate()))
            .collect();
        let peak_loads = LoadModel::derive(logical, physical, &peak_rates)?;
        let mut channels: Vec<ChannelState> = Vec::with_capacity(physical.channels().len());
        for (ci, ch) in physical.channels().iter().enumerate() {
            let out_rate = peak_loads.task_output_rate(ch.from);
            // Share of the producer's output carried by this channel.
            let share = match ch.pattern {
                ConnectionPattern::Broadcast => 1.0,
                _ => 1.0 / group_len[ci] as f64,
            };
            let cap = (out_rate * share * BUFFER_SECS).max(QUEUE_CAPACITY);
            channels.push(ChannelState { q: 0.0, cap });
        }

        let link_lats: Vec<f64> = cluster
            .workers()
            .iter()
            .map(|w| w.spec.link_latency.max(0.0))
            .collect();

        let mut tasks = Vec::with_capacity(n_tasks);
        let mut task_schedule = Vec::with_capacity(n_tasks);
        for t in physical.tasks() {
            let op = logical.operator(t.operator);
            let w = placement.worker_of(t.id);

            // Per-channel record shares, summed group by group.
            let chans = &out_chans[t.id.0];
            let mut out_pushes = Vec::with_capacity(chans.len());
            let mut net_unit = 0.0;
            let mut lat_unit = 0.0;
            for &ci in chans.iter() {
                let ch = physical.channels()[ci];
                let share = match ch.pattern {
                    // Broadcast replicates the full output stream to
                    // every downstream task.
                    ConnectionPattern::Broadcast => op.profile.selectivity,
                    _ => op.profile.selectivity / group_len[ci] as f64,
                };
                out_pushes.push((ci, share));
                let dest = placement.worker_of(ch.to);
                if dest != w {
                    net_unit += share * op.profile.out_bytes_per_record;
                    lat_unit += share * (link_lats[w.0] + link_lats[dest.0]);
                }
            }

            let is_source = op.kind.is_source();
            task_schedule.push(if is_source {
                sched_index.get(&t.operator.0).copied()
            } else {
                None
            });
            tasks.push(TaskState {
                worker: w.0,
                op: t.operator.0,
                cpu_unit: op.profile.cpu_per_record,
                io_unit: op.profile.state_bytes_per_record,
                net_unit,
                lat_unit,
                selectivity: op.profile.selectivity,
                burst_amp: op.profile.cpu_burst_amplitude,
                is_source,
                gen_share: 1.0 / op.parallelism as f64,
                in_channels: physical.in_channel_indices(t.id).to_vec(),
                out_pushes,
            });
        }

        let workers: Vec<WorkerCaps> = cluster
            .workers()
            .iter()
            .map(|w| WorkerCaps {
                cpu: w.spec.cpu_cores,
                io: w.spec.disk_bandwidth,
                net: w.spec.network_bandwidth,
            })
            .collect();

        let mut worker_tasks = vec![Vec::new(); workers.len()];
        for (i, t) in tasks.iter().enumerate() {
            worker_tasks[t.worker].push(i);
        }

        let channel_ends: Vec<(usize, usize)> = physical
            .channels()
            .iter()
            .map(|ch| (ch.from.0, ch.to.0))
            .collect();
        let out_bytes: Vec<f64> = physical
            .tasks()
            .iter()
            .map(|t| logical.operator(t.operator).profile.out_bytes_per_record)
            .collect();

        let n = tasks.len();
        let n_workers = workers.len();
        let n_ops = logical.num_operators();
        Ok(Simulation {
            rng: SmallRng::seed_from_u64(config.seed),
            config,
            time: 0.0,
            desired: vec![0.0; n],
            avail: vec![0.0; n],
            rate: vec![0.0; n],
            capacity_rate: vec![0.0; n],
            cpu_eff: vec![0.0; n],
            frozen: vec![false; channels.len()],
            any_frozen: false,
            tasks,
            channels,
            failed: vec![false; workers.len()],
            slowdown: vec![1.0; workers.len()],
            contention: vec![1.0; workers.len()],
            net_degrade: vec![1.0; workers.len()],
            partitioned: vec![false; workers.len()],
            shed_fraction: 0.0,
            link_lats,
            model_skew: 1.0,
            injector: None,
            blackout: false,
            workers,
            task_schedule,
            schedules: sched_list,
            worker_tasks,
            total_admitted: 0.0,
            total_sunk: 0.0,
            channel_ends,
            out_bytes,
            transfer: None,
            paused: vec![false; n],
            paused_secs: 0.0,
            drain_io: vec![0.0; n_workers],
            drain_net: vec![0.0; n_workers],
            src_gen: vec![0.0; n],
            src_gen_time: 0.0,
            tick_in_flight: 0.0,
            budget_io: vec![0.0; n_workers],
            budget_net: vec![0.0; n_workers],
            alloc_scratch: AllocScratch::default(),
            interval_acc: WindowAcc::new(n_workers, n, n_ops),
            report_acc: WindowAcc::new(n_workers, n, n_ops),
            point_heads: Vec::new(),
            point_utils: Vec::new(),
        })
    }

    /// Fails a worker: its tasks stop processing until
    /// [`Simulation::restore_worker`]. Queued records survive (they sit
    /// in channel buffers), so upstream backpressure builds immediately —
    /// the signal an adaptive controller reacts to.
    pub fn fail_worker(&mut self, w: capsys_model::WorkerId) {
        if let Some(f) = self.failed.get_mut(w.0) {
            *f = true;
        }
    }

    /// Restores a failed worker.
    pub fn restore_worker(&mut self, w: capsys_model::WorkerId) {
        if let Some(f) = self.failed.get_mut(w.0) {
            *f = false;
        }
    }

    /// Whether a worker is currently failed.
    pub fn is_failed(&self, w: capsys_model::WorkerId) -> bool {
        self.failed.get(w.0).copied().unwrap_or(false)
    }

    /// Installs a fault schedule; events fire as the simulation advances
    /// past their times. Replaces any previously installed plan.
    pub fn install_faults(&mut self, plan: FaultPlan) -> Result<(), SimError> {
        plan.validate(self.workers.len())?;
        self.injector = Some(FaultInjector::new(plan));
        Ok(())
    }

    /// Sets a worker's CPU slowdown factor (`1.0` = healthy, `>1` =
    /// straggler). Used by controllers re-applying chaos state after a
    /// redeployment.
    pub fn set_slowdown(&mut self, w: capsys_model::WorkerId, factor: f64) {
        if let Some(s) = self.slowdown.get_mut(w.0) {
            *s = factor.max(1.0);
        }
    }

    /// Per-worker failure flags (ground truth, not the detector's view).
    pub fn failed_workers(&self) -> &[bool] {
        &self.failed
    }

    /// Per-worker CPU slowdown factors.
    pub fn slowdowns(&self) -> &[f64] {
        &self.slowdown
    }

    /// Sets a worker's cross-job contention multiplier (`1.0` =
    /// uncontended, `>1` = co-located tenant jobs are consuming a share
    /// of the worker's CPU). Clamped to `>= 1`; non-finite resets to
    /// `1.0`. Used by a fleet-level controller to charge each shard for
    /// the load its neighbours place on shared workers, and re-applied
    /// after a redeployment like the other chaos state.
    pub fn set_contention(&mut self, w: capsys_model::WorkerId, factor: f64) {
        if let Some(c) = self.contention.get_mut(w.0) {
            *c = if factor.is_finite() {
                factor.max(1.0)
            } else {
                1.0
            };
        }
    }

    /// Per-worker cross-job contention multipliers (1.0 = uncontended).
    pub fn contentions(&self) -> &[f64] {
        &self.contention
    }

    /// Sets a worker's NIC-bandwidth multiplier, clamped into
    /// `(0, 1]` (`1.0` = healthy link). Used by controllers re-applying
    /// chaos state after a redeployment.
    pub fn set_net_degrade(&mut self, w: capsys_model::WorkerId, factor: f64) {
        if let Some(d) = self.net_degrade.get_mut(w.0) {
            *d = if factor.is_finite() {
                factor.clamp(1e-6, 1.0)
            } else {
                1.0
            };
        }
    }

    /// Per-worker NIC-bandwidth multipliers (1.0 = healthy).
    pub fn net_degrades(&self) -> &[f64] {
        &self.net_degrade
    }

    /// Forces a worker's network-partition flag. Used by controllers
    /// carrying chaos state across a redeployment.
    pub fn set_partitioned(&mut self, w: capsys_model::WorkerId, on: bool) {
        if let Some(p) = self.partitioned.get_mut(w.0) {
            *p = on;
        }
    }

    /// Per-worker network-partition flags (ground truth).
    pub fn partitioned_workers(&self) -> &[bool] {
        &self.partitioned
    }

    /// Sets the admission shed fraction: every source admits
    /// `offered x (1 - fraction)`. Clamped into `[0, 0.95]` — shedding
    /// everything would starve the pipeline of the very signal that
    /// releases the shed. Shed records are intentional drops and do not
    /// count as backpressure; the reported target rate stays the
    /// *offered* rate so controllers can see the load they are hiding
    /// from the job.
    pub fn set_shed_fraction(&mut self, fraction: f64) {
        self.shed_fraction = if fraction.is_finite() {
            fraction.clamp(0.0, 0.95)
        } else {
            0.0
        };
    }

    /// The current admission shed fraction.
    pub fn shed_fraction(&self) -> f64 {
        self.shed_fraction
    }

    /// Sets the deployment-wide model-skew multiplier (clamped to
    /// `>= 1`): every task's effective per-record CPU cost is scaled by
    /// it, modeling a plan whose true service rates fall short of what
    /// the cost model predicted.
    pub fn set_model_skew(&mut self, factor: f64) {
        self.model_skew = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
    }

    /// The deployment-wide model-skew multiplier (1.0 = unskewed).
    pub fn model_skew(&self) -> f64 {
        self.model_skew
    }

    /// Whether a metric blackout is currently active.
    pub fn in_blackout(&self) -> bool {
        self.blackout
    }

    /// Forces the metric-blackout flag. Used by controllers carrying
    /// chaos state across a redeployment (the replacement simulation must
    /// resume mid-blackout when the old one was in one).
    pub fn set_blackout(&mut self, on: bool) {
        self.blackout = on;
    }

    /// Starts a state transfer: each listed task pauses and its state
    /// drains through the involved workers' disk/NIC before the task
    /// resumes on its destination worker. With `pause_all` every task in
    /// the job pauses for the duration (a stop-the-world whole-plan
    /// redeploy); otherwise only the listed tasks pause (an incremental
    /// migration wave).
    ///
    /// The drain runs at the bottleneck of the live endpoints' spare
    /// bandwidth each tick: source disk (and source NIC when the move
    /// crosses workers) and destination disk. Moving off a failed worker
    /// drains at the destination's disk alone — the checkpoint-restore
    /// analogue. A flow with no live endpoint stalls until a worker
    /// returns.
    pub fn begin_state_transfer(
        &mut self,
        transfers: &[TaskTransfer],
        pause_all: bool,
    ) -> Result<(), SimError> {
        if self.transfer.is_some() {
            return Err(SimError::InvalidTransfer(
                "a state transfer is already in progress".into(),
            ));
        }
        let mut seen = vec![false; self.tasks.len()];
        let mut flows = Vec::with_capacity(transfers.len());
        for tr in transfers {
            if tr.task >= self.tasks.len() {
                return Err(SimError::InvalidTransfer(format!(
                    "task {} out of range (job has {} tasks)",
                    tr.task,
                    self.tasks.len()
                )));
            }
            if tr.to >= self.workers.len() {
                return Err(SimError::InvalidTransfer(format!(
                    "destination worker {} out of range (cluster has {} workers)",
                    tr.to,
                    self.workers.len()
                )));
            }
            if seen[tr.task] {
                return Err(SimError::InvalidTransfer(format!(
                    "task {} listed twice in one transfer",
                    tr.task
                )));
            }
            if !tr.bytes.is_finite() || tr.bytes < 0.0 {
                return Err(SimError::InvalidTransfer(format!(
                    "task {} transfer size must be finite and non-negative, got {}",
                    tr.task, tr.bytes
                )));
            }
            seen[tr.task] = true;
            flows.push(TransferFlow {
                task: tr.task,
                from: self.tasks[tr.task].worker,
                to: tr.to,
                remaining: tr.bytes,
            });
        }
        if pause_all {
            for p in &mut self.paused {
                *p = true;
            }
        } else {
            for f in &flows {
                self.paused[f.task] = true;
            }
        }
        self.transfer = Some(flows);
        Ok(())
    }

    /// Abandons an in-flight state transfer: tasks unpause in place and
    /// no move is applied. Used when a reconfiguration is rolled back
    /// mid-wave.
    pub fn cancel_state_transfer(&mut self) {
        self.transfer = None;
        for p in &mut self.paused {
            *p = false;
        }
    }

    /// Whether a state transfer is currently draining.
    pub fn state_transfer_active(&self) -> bool {
        self.transfer.is_some()
    }

    /// Cumulative paused task-seconds since construction: the sim's own
    /// measure of migration downtime.
    pub fn paused_task_seconds(&self) -> f64 {
        self.paused_secs
    }

    /// Advances the in-flight transfer by one tick, charging drained
    /// bytes against the involved workers' disk/NIC budgets. Budgets are
    /// granted sequentially in flow order, so concurrent flows through
    /// one worker share its bandwidth deterministically.
    fn progress_transfer(&mut self, tick: f64) {
        for v in self.drain_io.iter_mut() {
            *v = 0.0;
        }
        for v in self.drain_net.iter_mut() {
            *v = 0.0;
        }
        let Some(flows) = &mut self.transfer else {
            return;
        };
        let budget_io = &mut self.budget_io;
        let budget_net = &mut self.budget_net;
        for (w, c) in self.workers.iter().enumerate() {
            budget_io[w] = c.io * tick;
            budget_net[w] = c.net * self.net_degrade[w] * tick;
        }
        let mut all_done = true;
        for flow in flows.iter_mut() {
            if flow.remaining <= 0.0 {
                continue;
            }
            let cross = flow.to != flow.from;
            if cross && (self.partitioned[flow.from] || self.partitioned[flow.to]) {
                // State cannot cross a network partition; the drain
                // stalls until the partition heals.
                all_done = false;
                continue;
            }
            let mut bw = f64::INFINITY;
            let mut constrained = false;
            if !self.failed[flow.from] {
                constrained = true;
                bw = bw.min(budget_io[flow.from]);
                if cross {
                    bw = bw.min(budget_net[flow.from]);
                }
            }
            if cross && !self.failed[flow.to] {
                constrained = true;
                bw = bw.min(budget_io[flow.to]);
            }
            if !constrained {
                // No live endpoint: the drain stalls until one returns.
                all_done = false;
                continue;
            }
            let moved = bw.min(flow.remaining).max(0.0);
            if moved > 0.0 {
                if !self.failed[flow.from] {
                    budget_io[flow.from] -= moved;
                    self.drain_io[flow.from] += moved;
                    if cross {
                        budget_net[flow.from] -= moved;
                        self.drain_net[flow.from] += moved;
                    }
                }
                if cross && !self.failed[flow.to] {
                    budget_io[flow.to] -= moved;
                    self.drain_io[flow.to] += moved;
                }
                flow.remaining -= moved;
            }
            if flow.remaining > TRANSFER_EPS {
                all_done = false;
            } else {
                flow.remaining = 0.0;
            }
        }
        if all_done {
            self.finish_transfer();
        }
    }

    /// Applies a completed transfer: moved tasks land on their
    /// destination workers, network units are re-derived for the new
    /// colocations, and every paused task resumes this tick.
    fn finish_transfer(&mut self) {
        let Some(flows) = self.transfer.take() else {
            return;
        };
        let mut changed = false;
        for f in &flows {
            if f.to != f.from {
                self.tasks[f.task].worker = f.to;
                changed = true;
            }
        }
        if changed {
            for v in &mut self.worker_tasks {
                v.clear();
            }
            for (i, t) in self.tasks.iter().enumerate() {
                self.worker_tasks[t.worker].push(i);
            }
            self.recompute_net_units();
        }
        for p in &mut self.paused {
            *p = false;
        }
    }

    /// Current worker index of every task, reflecting any completed
    /// migrations.
    pub fn task_workers(&self) -> Vec<usize> {
        self.tasks.iter().map(|t| t.worker).collect()
    }

    #[cfg(test)]
    fn net_units(&self) -> Vec<f64> {
        self.tasks.iter().map(|t| t.net_unit).collect()
    }

    /// Re-derives each task's `net_unit` from its outgoing channel
    /// shares, charging bytes only on channels that now cross workers.
    /// Summation follows `out_pushes` order — grouped by ascending
    /// downstream operator id, channel index within a group, the order
    /// the constructor accumulated in — so an unmoved task's unit is
    /// bit-identical to its original, in every instance.
    fn recompute_net_units(&mut self) {
        for i in 0..self.tasks.len() {
            let w = self.tasks[i].worker;
            let mut unit = 0.0;
            let mut lat = 0.0;
            for k in 0..self.tasks[i].out_pushes.len() {
                let (ci, share) = self.tasks[i].out_pushes[k];
                let downstream = self.channel_ends[ci].1;
                let dw = self.tasks[downstream].worker;
                if dw != w {
                    unit += share * self.out_bytes[i];
                    lat += share * (self.link_lats[w] + self.link_lats[dw]);
                }
            }
            self.tasks[i].net_unit = unit;
            self.tasks[i].lat_unit = lat;
        }
    }

    /// Applies every fault event due at the current time.
    fn apply_due_faults(&mut self) {
        let Some(injector) = &mut self.injector else {
            return;
        };
        for ev in injector.due(self.time) {
            match ev.kind {
                FaultKind::Crash(w) => {
                    if let Some(f) = self.failed.get_mut(w.0) {
                        *f = true;
                    }
                }
                FaultKind::Restore(w) => {
                    if let Some(f) = self.failed.get_mut(w.0) {
                        *f = false;
                    }
                }
                FaultKind::StragglerStart { worker, factor } => {
                    if let Some(s) = self.slowdown.get_mut(worker.0) {
                        *s = factor.max(1.0);
                    }
                }
                FaultKind::StragglerEnd(w) => {
                    if let Some(s) = self.slowdown.get_mut(w.0) {
                        *s = 1.0;
                    }
                }
                FaultKind::BlackoutStart => self.blackout = true,
                FaultKind::BlackoutEnd => self.blackout = false,
                FaultKind::LinkDegradeStart { worker, factor } => {
                    if let Some(d) = self.net_degrade.get_mut(worker.0) {
                        *d = factor.clamp(1e-6, 1.0);
                    }
                }
                FaultKind::LinkDegradeEnd(w) => {
                    if let Some(d) = self.net_degrade.get_mut(w.0) {
                        *d = 1.0;
                    }
                }
                FaultKind::PartitionStart(w) => {
                    if let Some(p) = self.partitioned.get_mut(w.0) {
                        *p = true;
                    }
                }
                FaultKind::PartitionEnd(w) => {
                    if let Some(p) = self.partitioned.get_mut(w.0) {
                        *p = false;
                    }
                }
            }
        }
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Total records admitted by sources since construction.
    pub fn total_admitted(&self) -> f64 {
        self.total_admitted
    }

    /// Total records absorbed by sinks since construction.
    pub fn total_sunk(&self) -> f64 {
        self.total_sunk
    }

    /// Records currently buffered in channel queues.
    pub fn in_flight(&self) -> f64 {
        self.channels.iter().map(|c| c.q).sum()
    }

    /// Runs for `config.duration`, excluding `config.warmup` from the
    /// averages.
    pub fn run(&mut self) -> SimulationReport {
        let (duration, warmup) = (self.config.duration, self.config.warmup);
        self.advance(duration, warmup)
    }

    /// Advances the simulation by `duration` seconds and reports metrics,
    /// excluding the first `warmup` seconds of the window from averages:
    /// [`Simulation::advance_ticks`] followed by
    /// [`Simulation::take_report`].
    ///
    /// State (queues, clock) carries over between calls, so closed-loop
    /// controllers can alternate `advance` with reconfiguration.
    pub fn advance(&mut self, duration: f64, warmup: f64) -> SimulationReport {
        self.advance_ticks(duration, warmup);
        self.take_report()
    }

    /// Ticks `duration` seconds, accumulating the window's metrics
    /// (excluding the first `warmup` seconds from averages) inside the
    /// simulation; [`Simulation::take_report`] turns them into a report.
    ///
    /// Allocates nothing once its buffers are warm: a previous window at
    /// least as long, or [`Simulation::reserve_window`], sized them. This
    /// is what lets a caller tick many simulations on worker threads
    /// without those threads growing allocator arenas. Call
    /// `take_report` before the next `advance_ticks`, which discards an
    /// untaken report.
    pub fn advance_ticks(&mut self, duration: f64, warmup: f64) {
        self.point_heads.clear();
        self.point_utils.clear();
        self.reserve_window(duration);
        let (steps, interval_steps) = self.window_steps(duration);
        let warmup_steps = (warmup / self.config.tick).round() as usize;

        // The accumulators live in `self` so their buffers outlive the
        // call; the loop borrows them out.
        let mut interval = std::mem::take(&mut self.interval_acc);
        let mut report = std::mem::take(&mut self.report_acc);
        interval.reset();
        report.reset();

        for step in 0..steps {
            self.step_into(&mut interval);
            if step >= warmup_steps {
                // Merge the tick we just recorded into the report window.
                self.merge_last_tick(&mut report);
            }
            if (step + 1) % interval_steps == 0 || step + 1 == steps {
                self.flush_point(&mut interval);
            }
        }

        self.interval_acc = interval;
        self.report_acc = report;
    }

    /// Sizes every buffer [`Simulation::advance_ticks`] writes for a
    /// `duration`-second window, so that call allocates nothing. A
    /// caller that ticks the simulation on a worker thread calls this on
    /// its own thread first, so that any growth happens there.
    pub fn reserve_window(&mut self, duration: f64) {
        let (steps, interval_steps) = self.window_steps(duration);
        let points = steps.div_ceil(interval_steps);
        self.point_heads.reserve(points);
        self.point_utils.reserve(points * 3 * self.workers.len());
        let widest = self.worker_tasks.iter().map(Vec::len).max().unwrap_or(0);
        self.alloc_scratch.reserve(widest);
    }

    /// Ticks in a `duration`-second window, and ticks per metrics
    /// interval; both at least one.
    fn window_steps(&self, duration: f64) -> (usize, usize) {
        let tick = self.config.tick;
        let steps = (duration / tick).round().max(1.0) as usize;
        let interval_steps = (METRICS_INTERVAL / tick).round().max(1.0) as usize;
        (steps, interval_steps)
    }

    /// The report of the last [`Simulation::advance_ticks`]: its
    /// interval points, post-warm-up averages, per-task rates (with the
    /// installed plan's metric noise, drawn from the simulation's RNG)
    /// and end-of-window liveness.
    pub fn take_report(&mut self) -> SimulationReport {
        let w = self.workers.len();
        let points = self
            .point_heads
            .iter()
            .enumerate()
            .map(|(k, h)| {
                let utils = &self.point_utils[3 * w * k..3 * w * (k + 1)];
                MetricPoint {
                    time: h.time,
                    source_throughput: h.source_throughput,
                    target_rate: h.target_rate,
                    backpressure: h.backpressure,
                    latency: h.latency,
                    worker_cpu_util: utils[..w].to_vec(),
                    worker_io_util: utils[w..2 * w].to_vec(),
                    worker_net_util: utils[2 * w..].to_vec(),
                }
            })
            .collect();
        self.point_heads.clear();
        self.point_utils.clear();
        let mut out = self.build_report(points, &self.report_acc);
        self.apply_metric_noise(&mut out);
        out
    }

    /// Perturbs reported task rates with the installed plan's metric
    /// noise (deterministic given the simulation seed). Models lossy or
    /// jittery metric pipelines without touching the true dynamics.
    fn apply_metric_noise(&mut self, report: &mut SimulationReport) {
        let noise = self
            .injector
            .as_ref()
            .map(|i| i.metric_noise())
            .unwrap_or(0.0);
        if noise <= 0.0 {
            return;
        }
        for tr in &mut report.task_rates {
            let jitter: f64 = self.rng.gen_range(-1.0..1.0);
            let m = (1.0 + noise * jitter).max(0.0);
            tr.observed_rate *= m;
            tr.true_rate *= m;
            tr.observed_output_rate *= m;
            tr.true_output_rate *= m;
        }
    }

    /// Advances one tick, accumulating into `acc`.
    fn step_into(&mut self, acc: &mut WindowAcc) {
        self.apply_due_faults();
        let tick = self.config.tick;
        let t = self.time;
        // State draining happens before task scheduling each tick: the
        // bytes it moves have priority over record traffic, so the
        // allocator below sees reduced disk/NIC caps.
        self.progress_transfer(tick);
        self.paused_secs += self.paused.iter().filter(|&&p| p).count() as f64 * tick;

        // Cross-worker channels with a partitioned endpoint move no
        // records this tick; intra-worker traffic on a partitioned
        // worker keeps flowing (the worker is running, just unreachable).
        // Once every partition has healed, one tick clears the flags;
        // later ticks neither clear nor read them (`flows`).
        if self.partitioned.iter().any(|&p| p) {
            for (ci, &(from, to)) in self.channel_ends.iter().enumerate() {
                let wf = self.tasks[from].worker;
                let wt = self.tasks[to].worker;
                self.frozen[ci] = wf != wt && (self.partitioned[wf] || self.partitioned[wt]);
            }
            self.any_frozen = true;
        } else if self.any_frozen {
            self.frozen.fill(false);
            self.any_frozen = false;
        }

        // Effective per-record CPU cost: bursts, straggler slowdown,
        // plus optional jitter.
        let burst_on = (t % BURST_PERIOD) < BURST_DUTY * BURST_PERIOD;
        for (i, task) in self.tasks.iter().enumerate() {
            let mut u = task.cpu_unit
                * self.slowdown[task.worker]
                * self.contention[task.worker]
                * self.model_skew;
            if burst_on && task.burst_amp > 0.0 {
                u *= 1.0 + task.burst_amp;
            }
            if self.config.noise > 0.0 {
                let jitter: f64 = self.rng.gen_range(-1.0..1.0);
                u *= 1.0 + self.config.noise * jitter;
            }
            self.cpu_eff[i] = u;
        }

        // Each source's scheduled generation rate, evaluated once per
        // tick and shared by admission and the metrics below.
        for (i, task) in self.tasks.iter().enumerate() {
            self.src_gen[i] = if task.is_source {
                task.schedule_rate(&self.schedules, &self.task_schedule, i, t) * task.gen_share
            } else {
                0.0
            };
        }
        self.src_gen_time = t;

        // Desired volume per task (records this tick).
        for i in 0..self.tasks.len() {
            if self.paused[i] {
                // Migrating: the task processes nothing while its state
                // drains. Queued input stays put, so backpressure builds
                // upstream exactly as during a worker failure.
                self.desired[i] = 0.0;
                self.avail[i] = 0.0;
                continue;
            }
            let task = &self.tasks[i];
            let supply = if task.is_source {
                // Overload shedding drops a fraction of the offered
                // load at admission, before it ever enters a queue.
                self.src_gen[i] * tick * (1.0 - self.shed_fraction)
            } else {
                // Fold from +0.0: `Iterator::sum` on an empty input
                // yields -0.0, and frozen inputs must look empty.
                let avail: f64 = task
                    .in_channels
                    .iter()
                    .filter(|&&c| self.flows(c))
                    .fold(0.0f64, |acc, &c| acc + self.channels[c].q);
                self.avail[i] = avail;
                avail
            };
            // `min(free / share)` over the out-channels, with one division
            // per run of equal shares: dividing by a positive constant
            // rounds monotonically, so `min(free) / share` is exactly the
            // run's smallest quotient.
            let mut out_limit = f64::INFINITY;
            let (mut run_share, mut run_free) = (1.0, f64::INFINITY);
            for &(ci, share) in &task.out_pushes {
                if share > 0.0 {
                    let free = if self.flows(ci) {
                        (self.channels[ci].cap - self.channels[ci].q).max(0.0)
                    } else {
                        0.0
                    };
                    if share != run_share {
                        out_limit = out_limit.min(run_free / run_share);
                        run_share = share;
                        run_free = free;
                    } else {
                        run_free = run_free.min(free);
                    }
                }
            }
            out_limit = out_limit.min(run_free / run_share);
            self.desired[i] = supply.min(out_limit).max(0.0);
        }

        // Contention: per-worker max-min fair allocation per resource.
        for w in 0..self.workers.len() {
            self.allocate_worker(w, tick);
        }

        // Movement, phase 1: every consumer dequeues from its unfrozen
        // in-channels in proportion to their start-of-tick occupancy.
        // Each channel has exactly one consumer, and no push lands
        // before phase 2, so every dequeue reads the queue that
        // consumer's `avail` summed and can be applied in place.
        for i in 0..self.tasks.len() {
            let (x, avail) = (self.rate[i], self.avail[i]);
            let task = &self.tasks[i];
            if !task.is_source && x > 0.0 && avail > 0.0 {
                for &c in &task.in_channels {
                    if self.flows(c) {
                        let q = &mut self.channels[c].q;
                        *q = (*q - x * *q / avail).max(0.0);
                    }
                }
            }
        }

        // Movement, phase 2: pushes. Capacity cannot be exceeded because
        // `out_limit` reserved space against the start-of-tick occupancy
        // and dequeues only freed more room.
        for i in 0..self.tasks.len() {
            let x = self.rate[i];
            let task = &self.tasks[i];
            for &(ci, share) in &task.out_pushes {
                let ch = &mut self.channels[ci];
                debug_assert!(ch.q + x * share <= ch.cap + 1e-6, "queue overflow");
                ch.q = (ch.q + x * share).min(ch.cap);
            }
            if task.is_source {
                self.total_admitted += x;
            }
            if task.out_pushes.is_empty() && !task.is_source {
                self.total_sunk += x;
            }
        }

        // Accumulate metrics.
        acc.time += tick;
        for i in 0..self.tasks.len() {
            let x = self.rate[i];
            let task = &self.tasks[i];
            if task.is_source {
                // The reported target stays the *offered* rate; only
                // the backpressure check compares against the admitted
                // share — shed records are intentional drops.
                let target = self.src_gen[i] * tick;
                let admit_target = target * (1.0 - self.shed_fraction);
                acc.add_source(task.op, x, target, admit_target, tick);
            }
            acc.task_processed[i] += x;
            if self.capacity_rate[i] > 0.0 {
                acc.task_busy[i] += (x / self.capacity_rate[i]).min(tick);
            }
            acc.task_capacity_time[i] += self.capacity_rate[i] * tick;
            let w = task.worker;
            acc.cpu_use[w] += x * self.cpu_eff[i] / (self.workers[w].cpu * tick) * tick;
            acc.io_use[w] += x * task.io_unit / (self.workers[w].io * tick) * tick;
            acc.net_use[w] +=
                x * task.net_unit / (self.workers[w].net * self.net_degrade[w] * tick) * tick;
            // Records crossing high-latency links spend extra time in
            // flight (0 for datacenter-local links).
            acc.in_flight_time += x * task.lat_unit;
        }
        // State draining shows up as real disk/NIC utilization.
        for w in 0..self.workers.len() {
            acc.io_use[w] += self.drain_io[w] / self.workers[w].io;
            acc.net_use[w] += self.drain_net[w] / (self.workers[w].net * self.net_degrade[w]);
        }
        self.tick_in_flight = self.in_flight();
        acc.in_flight_time += self.tick_in_flight * tick;

        self.time += tick;
    }

    /// Whether channel `c` moves records this tick, i.e. is not frozen.
    /// Reads no flag while no partition has frozen any.
    fn flows(&self, c: usize) -> bool {
        !self.any_frozen || !self.frozen[c]
    }

    /// The raw (unthrottled) target generation volume of a source task at
    /// time `t`, in records/s scaled by the task's share.
    fn desired_target(&self, i: usize, t: f64) -> f64 {
        let task = &self.tasks[i];
        task.schedule_rate(&self.schedules, &self.task_schedule, i, t) * task.gen_share
    }

    /// Merges the tick [`Simulation::step_into`] just ran into `report`.
    ///
    /// `step_into` writes into the interval accumulator only; to avoid
    /// double bookkeeping the engine re-derives the per-tick deltas from
    /// the last tick's rates, which are still in the scratch buffers.
    fn merge_last_tick(&self, report: &mut WindowAcc) {
        let tick = self.config.tick;
        // The report reads source schedules at `time - tick`, which can
        // sit an ulp off the tick's start once the clock has advanced;
        // the tick's cached rates stand in only where the two agree.
        let t = self.time - tick;
        let cached = t == self.src_gen_time;
        report.time += tick;
        for i in 0..self.tasks.len() {
            let x = self.rate[i];
            let task = &self.tasks[i];
            if task.is_source {
                let gen = if cached {
                    self.src_gen[i]
                } else {
                    self.desired_target(i, t)
                };
                let target = gen * tick;
                let admit_target = target * (1.0 - self.shed_fraction);
                report.add_source(task.op, x, target, admit_target, tick);
            }
            report.task_processed[i] += x;
            if self.capacity_rate[i] > 0.0 {
                report.task_busy[i] += (x / self.capacity_rate[i]).min(tick);
            }
            report.task_capacity_time[i] += self.capacity_rate[i] * tick;
            let w = task.worker;
            report.cpu_use[w] += x * self.cpu_eff[i] / self.workers[w].cpu;
            report.io_use[w] += x * task.io_unit / self.workers[w].io;
            report.net_use[w] += x * task.net_unit / (self.workers[w].net * self.net_degrade[w]);
            report.in_flight_time += x * task.lat_unit;
        }
        for w in 0..self.workers.len() {
            report.io_use[w] += self.drain_io[w] / self.workers[w].io;
            report.net_use[w] += self.drain_net[w] / (self.workers[w].net * self.net_degrade[w]);
        }
        report.in_flight_time += self.tick_in_flight * tick;
    }

    /// Max-min fair allocation of worker `w`'s resources for this tick.
    fn allocate_worker(&mut self, w: usize, tick: f64) {
        let caps = self.workers[w];
        let ids = &self.worker_tasks[w];
        if ids.is_empty() {
            return;
        }
        if self.failed[w] {
            for &i in ids {
                self.rate[i] = 0.0;
                self.capacity_rate[i] = 0.0;
            }
            return;
        }
        let resources: [(f64, ResourceUnitFn); 3] = [
            (caps.cpu * tick, |_t, cpu_eff| cpu_eff),
            ((caps.io * tick - self.drain_io[w]).max(0.0), |t, _| {
                t.io_unit
            }),
            (
                (caps.net * self.net_degrade[w] * tick - self.drain_net[w]).max(0.0),
                |t, _| t.net_unit,
            ),
        ];

        // allowed[k] / potential[k] in records for this tick.
        let s = &mut self.alloc_scratch;
        s.allowed.clear();
        s.allowed.resize(ids.len(), f64::INFINITY);
        s.potential.clear();
        s.potential.resize(ids.len(), f64::INFINITY);
        for (cap, unit_of) in resources {
            s.units.clear();
            s.units.extend(
                ids.iter()
                    .map(|&i| unit_of(&self.tasks[i], self.cpu_eff[i])),
            );
            s.demands.clear();
            s.demands
                .extend(ids.iter().zip(&s.units).map(|(&i, &u)| self.desired[i] * u));
            let n_active = s.units.iter().filter(|&&u| u > 0.0).count().max(1) as f64;
            let (level, residual) = waterfill_into(&s.demands, cap, &mut s.alloc, &mut s.order);
            for (k, &u) in s.units.iter().enumerate() {
                if u <= 0.0 {
                    continue;
                }
                s.allowed[k] = s.allowed[k].min(s.alloc[k] / u);
                let pot = if level.is_finite() {
                    s.alloc[k].max(level)
                } else {
                    s.alloc[k] + residual / n_active
                };
                s.potential[k] = s.potential[k].min(pot / u);
            }
        }
        for (k, &i) in ids.iter().enumerate() {
            let (mut allowed, mut potential) = (s.allowed[k], s.potential[k]);
            // A task is one thread (one slot = one processing thread,
            // §2.1), so it can use at most one core regardless of how
            // idle the rest of the worker is.
            if self.cpu_eff[i] > 0.0 {
                let core_cap = tick / self.cpu_eff[i];
                allowed = allowed.min(core_cap);
                potential = potential.min(core_cap);
            }
            self.rate[i] = self.desired[i].min(allowed).max(0.0);
            // `potential` is records per tick; expose capacity in
            // records per second.
            self.capacity_rate[i] = if potential.is_finite() {
                potential / tick
            } else {
                // No resource consumption at all: capacity is unbounded;
                // expose the desired volume to keep busy-time meaningful.
                (self.desired[i] / tick).max(1.0)
            };
        }
    }

    /// Records one interval sample into `point_heads` and `point_utils`
    /// and resets the interval accumulator.
    fn flush_point(&mut self, acc: &mut WindowAcc) {
        let dt = acc.time.max(self.config.tick);
        let throughput = acc.admitted / dt;
        self.point_heads.push(PointHead {
            time: self.time,
            source_throughput: throughput,
            target_rate: acc.target / dt,
            backpressure: acc.backpressure_fraction(),
            latency: if throughput > 0.0 {
                acc.in_flight_time / dt / throughput
            } else {
                0.0
            },
        });
        for used in [&acc.cpu_use, &acc.io_use, &acc.net_use] {
            self.point_utils.extend(used.iter().map(|u| u / dt));
        }
        acc.reset();
    }

    /// Builds the final report from the post-warmup accumulator.
    fn build_report(&self, points: Vec<MetricPoint>, acc: &WindowAcc) -> SimulationReport {
        let dt = acc.time.max(self.config.tick);
        let throughput = acc.admitted / dt;
        let mut per_source = HashMap::new();
        for op in (0..acc.src_seen.len()).filter(|&op| acc.src_seen[op]) {
            let admitted = acc.src_admitted[op];
            let target = acc.src_target[op];
            let bp = acc.src_bp_time[op];
            let total = acc.src_time[op].max(1e-9);
            per_source.insert(
                OperatorId(op),
                SourceStats {
                    throughput: admitted / dt,
                    target: target / dt,
                    backpressure: (bp / total).clamp(0.0, 1.0) + 0.0,
                },
            );
        }
        let task_rates: Vec<TaskRateStats> = (0..self.tasks.len())
            .map(|i| {
                let processed = acc.task_processed[i];
                let busy = acc.task_busy[i];
                let sel = self.tasks[i].selectivity;
                let true_rate = if busy > 0.0 {
                    processed / busy
                } else {
                    acc.task_capacity_time[i] / dt
                };
                TaskRateStats {
                    observed_rate: processed / dt,
                    true_rate,
                    observed_output_rate: processed * sel / dt,
                    true_output_rate: true_rate * sel,
                    busy_fraction: (busy / dt).clamp(0.0, 1.0),
                }
            })
            .collect();

        SimulationReport {
            points,
            avg_throughput: throughput,
            avg_target: acc.target / dt,
            avg_backpressure: acc.backpressure_fraction(),
            avg_latency: if throughput > 0.0 {
                acc.in_flight_time / dt / throughput
            } else {
                0.0
            },
            worker_cpu_util: acc.cpu_use.iter().map(|u| u / dt).collect(),
            worker_io_util: acc.io_use.iter().map(|u| u / dt).collect(),
            worker_net_util: acc.net_use.iter().map(|u| u / dt).collect(),
            per_source,
            task_rates,
            // A partitioned worker's heartbeat goes missing exactly
            // like a crashed one's: from outside the partition the two
            // are indistinguishable.
            worker_alive: self
                .failed
                .iter()
                .zip(&self.partitioned)
                .map(|(f, p)| !f && !p)
                .collect(),
            // Out-of-band activity evidence: a partitioned worker keeps
            // running (its fenced state-store writes still land), so its
            // activity bit stays `true` even though its heartbeat is
            // missing. A crashed worker produces nothing. The failure
            // detector uses this to tell isolation from death.
            worker_activity: self.failed.iter().map(|f| !f).collect(),
            metrics_ok: !self.blackout,
        }
    }

    /// Queue occupancy of every channel, for invariant checks.
    pub fn queue_occupancies(&self) -> Vec<f64> {
        self.channels.iter().map(|c| c.q).collect()
    }

    /// Queue capacity of every channel, in records.
    pub fn queue_capacities(&self) -> Vec<f64> {
        self.channels.iter().map(|c| c.cap).collect()
    }
}

impl TaskState {
    fn schedule_rate(
        &self,
        schedules: &[(usize, RateSchedule)],
        task_schedule: &[Option<usize>],
        i: usize,
        t: f64,
    ) -> f64 {
        match task_schedule[i] {
            Some(s) => schedules[s].1.rate_at(t),
            None => 0.0,
        }
    }
}

/// Max-min fair (water-filling) allocation of `cap` among `demands`,
/// written into `alloc`; `order` is sort scratch.
///
/// Returns `(level, residual)`: `level` is the fair-share water level
/// when the capacity binds (`∞` otherwise) and `residual` is the
/// unallocated capacity.
fn waterfill_into(
    demands: &[f64],
    cap: f64,
    alloc: &mut Vec<f64>,
    order: &mut Vec<usize>,
) -> (f64, f64) {
    alloc.clear();
    let total: f64 = demands.iter().sum();
    if total <= cap {
        alloc.extend_from_slice(demands);
        return (f64::INFINITY, cap - total);
    }
    // Ascending demand, ties by index: the order a stable sort gives,
    // from an in-place sort that never allocates.
    order.clear();
    order.extend(0..demands.len());
    order.sort_unstable_by(|&a, &b| demands[a].total_cmp(&demands[b]).then(a.cmp(&b)));
    alloc.resize(demands.len(), 0.0);
    let mut remaining = cap;
    for (pos, &idx) in order.iter().enumerate() {
        let left = (demands.len() - pos) as f64;
        if demands[idx] * left <= remaining {
            alloc[idx] = demands[idx];
            remaining -= demands[idx];
        } else {
            // All remaining tasks (including this one) get the level.
            let level = remaining / left;
            for &rest in &order[pos..] {
                alloc[rest] = level;
            }
            return (level, 0.0);
        }
    }
    // Numerically possible only when total ≈ cap: everything allocated.
    (f64::INFINITY, remaining.max(0.0))
}

/// The allocating water-fill `waterfill_into` replaced, kept as the
/// reference its differential test compares against.
#[cfg(test)]
fn waterfill(demands: &[f64], cap: f64) -> (Vec<f64>, f64, f64) {
    let total: f64 = demands.iter().sum();
    if total <= cap {
        return (demands.to_vec(), f64::INFINITY, cap - total);
    }
    let mut order: Vec<usize> = (0..demands.len()).collect();
    order.sort_by(|&a, &b| demands[a].total_cmp(&demands[b]));
    let mut alloc = vec![0.0; demands.len()];
    let mut remaining = cap;
    for (pos, &idx) in order.iter().enumerate() {
        let left = (demands.len() - pos) as f64;
        if demands[idx] * left <= remaining {
            alloc[idx] = demands[idx];
            remaining -= demands[idx];
        } else {
            // All remaining tasks (including this one) get the level.
            let level = remaining / left;
            for &rest in &order[pos..] {
                alloc[rest] = level;
            }
            return (alloc, level, 0.0);
        }
    }
    // Numerically possible only when total ≈ cap: everything allocated.
    (alloc, f64::INFINITY, remaining.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, LogicalGraphBuilder, OperatorKind, ResourceProfile, WorkerId, WorkerSpec,
    };

    fn build(
        profiles: &[(OperatorKind, usize, ResourceProfile)],
        cluster: &Cluster,
        assignment: &[usize],
        rate: f64,
    ) -> (
        LogicalGraph,
        PhysicalGraph,
        Placement,
        HashMap<OperatorId, RateSchedule>,
    ) {
        let mut b: LogicalGraphBuilder = LogicalGraph::builder("t");
        let mut prev = None;
        for (i, (kind, par, prof)) in profiles.iter().enumerate() {
            let id = b.operator(format!("op{i}"), *kind, *par, *prof);
            if let Some(p) = prev {
                b.edge(p, id, ConnectionPattern::Rebalance);
            }
            prev = Some(id);
        }
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let plan = Placement::new(assignment.iter().map(|&w| WorkerId(w)).collect());
        plan.validate(&p, cluster).unwrap();
        let mut sch = HashMap::new();
        for s in g.sources() {
            sch.insert(s, RateSchedule::Constant(rate));
        }
        (g, p, plan, sch)
    }

    fn worker(cores: f64) -> WorkerSpec {
        WorkerSpec::new(4, cores, 100e6, 1e9)
    }

    #[test]
    fn uncontended_pipeline_reaches_target() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    2,
                    ResourceProfile::new(1e-4, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 1, 1],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let r = sim.run();
        assert!(
            r.avg_backpressure < 0.01,
            "backpressure {}",
            r.avg_backpressure
        );
        assert!(
            (r.avg_throughput - 1000.0).abs() / 1000.0 < 0.02,
            "tp {}",
            r.avg_throughput
        );
        assert!(r.meets_target(0.98));
    }

    #[test]
    fn cpu_saturation_throttles_throughput() {
        // One worker with 1 core; map needs 2 core-seconds per 1000 recs at
        // 1000 rec/s target -> can only do ~500 rec/s.
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(0.002, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let r = sim.run();
        assert!(
            (r.avg_throughput - 500.0).abs() / 500.0 < 0.1,
            "throughput {} should be ~500",
            r.avg_throughput
        );
        assert!(r.avg_backpressure > 0.4, "bp {}", r.avg_backpressure);
    }

    #[test]
    fn colocated_heavy_tasks_contend_spread_tasks_do_not() {
        // Two heavy map tasks each needing a full core at target rate.
        let heavy = ResourceProfile::new(0.001, 0.0, 10.0, 1.0);
        let src = ResourceProfile::new(0.0, 0.0, 10.0, 1.0);
        let sink = ResourceProfile::new(0.0, 0.0, 0.0, 1.0);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let ops = [
            (OperatorKind::Source, 1, src),
            (OperatorKind::Stateless, 2, heavy),
            (OperatorKind::Sink, 1, sink),
        ];
        // Tasks: s0 m0 m1 k0. Target 2000 total -> each map needs 1 core.
        let (g, p, spread, sch) = build(&ops, &c, &[0, 0, 1, 1], 2000.0);
        let mut sim = Simulation::new(&g, &p, &c, &spread, &sch, SimConfig::short()).unwrap();
        let r_spread = sim.run();
        let (g2, p2, colocated, sch2) = build(&ops, &c, &[0, 1, 1, 0], 2000.0);
        let mut sim2 =
            Simulation::new(&g2, &p2, &c, &colocated, &sch2, SimConfig::short()).unwrap();
        let r_col = sim2.run();
        assert!(
            r_spread.avg_throughput > 1.5 * r_col.avg_throughput,
            "spread {} vs colocated {}",
            r_spread.avg_throughput,
            r_col.avg_throughput
        );
        assert!(r_col.avg_backpressure > 0.3);
        assert!(r_spread.avg_backpressure < 0.05);
    }

    #[test]
    fn disk_contention_matches_shape() {
        // Stateful tasks co-located on one disk-limited worker.
        let stateful = ResourceProfile::new(1e-5, 100_000.0, 10.0, 1.0);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 100e6, 1e9)).unwrap();
        let ops = [
            (
                OperatorKind::Source,
                1,
                ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
            ),
            (OperatorKind::Window, 2, stateful),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
            ),
        ];
        // Each window task at 1000 rec/s needs 100 MB/s = full disk.
        let (g, p, spread, sch) = build(&ops, &c, &[0, 0, 1, 1], 2000.0);
        let r_spread = Simulation::new(&g, &p, &c, &spread, &sch, SimConfig::short())
            .unwrap()
            .run();
        let (g2, p2, col, sch2) = build(&ops, &c, &[0, 1, 1, 0], 2000.0);
        let r_col = Simulation::new(&g2, &p2, &c, &col, &sch2, SimConfig::short())
            .unwrap()
            .run();
        assert!(r_spread.avg_throughput > 1.5 * r_col.avg_throughput);
    }

    #[test]
    fn network_only_charged_across_workers() {
        // Same pipeline, colocated vs split across workers: only the split
        // placement shows network utilization.
        let big = ResourceProfile::new(1e-6, 0.0, 1e6, 1.0);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 100e6, 1e9)).unwrap();
        let ops = [
            (OperatorKind::Source, 1, big),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(1e-6, 0.0, 0.0, 1.0),
            ),
        ];
        let (g, p, local, sch) = build(&ops, &c, &[0, 0], 100.0);
        let r_local = Simulation::new(&g, &p, &c, &local, &sch, SimConfig::short())
            .unwrap()
            .run();
        let (g2, p2, remote, sch2) = build(&ops, &c, &[0, 1], 100.0);
        let r_remote = Simulation::new(&g2, &p2, &c, &remote, &sch2, SimConfig::short())
            .unwrap()
            .run();
        assert!(r_local.worker_net_util[0] < 1e-9);
        assert!(r_remote.worker_net_util[0] > 0.05);
    }

    #[test]
    fn network_cap_throttles_cross_worker_traffic() {
        // 1 MB/record at 200 rec/s = 200 MB/s over a 100 MB/s NIC.
        let big = ResourceProfile::new(1e-6, 0.0, 1e6, 1.0);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 100e6, 100e6)).unwrap();
        let ops = [
            (OperatorKind::Source, 1, big),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(1e-6, 0.0, 0.0, 1.0),
            ),
        ];
        let (g, p, remote, sch) = build(&ops, &c, &[0, 1], 200.0);
        let r = Simulation::new(&g, &p, &c, &remote, &sch, SimConfig::short())
            .unwrap()
            .run();
        assert!(
            (r.avg_throughput - 100.0).abs() / 100.0 < 0.1,
            "throughput {} should be NIC-limited to ~100",
            r.avg_throughput
        );
    }

    #[test]
    fn queues_respect_bounds_and_conservation() {
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(0.01, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.run();
        for (q, cap) in sim.queue_occupancies().iter().zip(sim.queue_capacities()) {
            assert!(
                *q >= -1e-9 && *q <= cap + 1e-9,
                "queue {q} out of bounds (cap {cap})"
            );
        }
        // Selectivity is 1 everywhere: admitted = sunk + in flight (plus
        // records inside no queue, which do not exist in the fluid model).
        let balance = sim.total_admitted() - sim.total_sunk() - sim.in_flight();
        assert!(
            balance.abs() < 1e-6 * sim.total_admitted().max(1.0),
            "conservation violated: {balance}"
        );
    }

    #[test]
    fn selectivity_scales_downstream_volume() {
        let c = Cluster::homogeneous(1, worker(4.0)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(1e-6, 0.0, 10.0, 0.25),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let r = sim.run();
        // Sink sees a quarter of the input volume.
        let sink_task = r.task_rates.last().unwrap();
        assert!(
            (sink_task.observed_rate - 250.0).abs() / 250.0 < 0.05,
            "sink rate {}",
            sink_task.observed_rate
        );
    }

    #[test]
    fn ds2_style_true_rate_reflects_capacity() {
        // A map capped at 500 rec/s by its single core: observed 500,
        // true rate ~500 (it is busy all the time).
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(0.002, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let r = sim.run();
        let map = &r.task_rates[1];
        assert!((map.observed_rate - 500.0).abs() / 500.0 < 0.1);
        assert!(
            (map.true_rate - 500.0).abs() / 500.0 < 0.15,
            "true {}",
            map.true_rate
        );
        assert!(map.busy_fraction > 0.9);
        // An idle-ish source has true rate far above its observed rate.
        let src = &r.task_rates[0];
        assert!(src.true_rate >= src.observed_rate * 0.99);
    }

    #[test]
    fn variable_rate_schedule_is_followed() {
        let c = Cluster::homogeneous(1, worker(4.0)).unwrap();
        let mut b = LogicalGraph::builder("v");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            1,
            ResourceProfile::new(0.0, 0.0, 1.0, 1.0),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            1,
            ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
        );
        b.edge(s, k, ConnectionPattern::Rebalance);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let plan = Placement::new(vec![WorkerId(0), WorkerId(0)]);
        let mut sch = HashMap::new();
        sch.insert(s, RateSchedule::Steps(vec![(0.0, 100.0), (30.0, 400.0)]));
        let mut sim = Simulation::new(
            &g,
            &p,
            &c,
            &plan,
            &sch,
            SimConfig {
                duration: 60.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
        )
        .unwrap();
        let r = sim.run();
        let early: Vec<&MetricPoint> = r.points.iter().filter(|pt| pt.time <= 30.0).collect();
        let late: Vec<&MetricPoint> = r.points.iter().filter(|pt| pt.time > 35.0).collect();
        let avg = |pts: &[&MetricPoint]| {
            pts.iter().map(|p| p.source_throughput).sum::<f64>() / pts.len() as f64
        };
        assert!((avg(&early) - 100.0).abs() < 10.0);
        assert!((avg(&late) - 400.0).abs() < 20.0);
    }

    #[test]
    fn advance_preserves_state_across_calls() {
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(0.01, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 0, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.advance(10.0, 0.0);
        let t1 = sim.time();
        let inflight = sim.in_flight();
        sim.advance(10.0, 0.0);
        assert!((sim.time() - t1 - 10.0).abs() < 1e-9);
        assert!(inflight > 0.0, "bottleneck should leave records in flight");
    }

    #[test]
    fn missing_schedule_is_rejected() {
        let c = Cluster::homogeneous(1, worker(4.0)).unwrap();
        let (g, p, plan, _) = build(
            &[
                (OperatorKind::Source, 1, ResourceProfile::zero()),
                (OperatorKind::Sink, 1, ResourceProfile::zero()),
            ],
            &c,
            &[0, 0],
            100.0,
        );
        let err =
            Simulation::new(&g, &p, &c, &plan, &HashMap::new(), SimConfig::short()).unwrap_err();
        assert!(matches!(err, SimError::MissingSchedule(_)));
    }

    #[test]
    fn noise_changes_results_deterministically_per_seed() {
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let ops = [
            (
                OperatorKind::Source,
                1,
                ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Stateless,
                1,
                ResourceProfile::new(0.0015, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
            ),
        ];
        let run = |seed: u64| {
            let (g, p, plan, sch) = build(&ops, &c, &[0, 0, 0], 1000.0);
            let cfg = SimConfig::short().with_noise(0.2, seed);
            Simulation::new(&g, &p, &c, &plan, &sch, cfg)
                .unwrap()
                .run()
                .avg_throughput
        };
        let a1 = run(1);
        let a1_again = run(1);
        let a2 = run(2);
        assert_eq!(a1, a1_again, "same seed must reproduce exactly");
        assert_ne!(a1, a2, "different seeds should differ");
    }

    #[test]
    fn failed_worker_stops_processing_and_backpressures() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(1e-6, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(1e-4, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(1e-6, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 1, 0],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let before = sim.advance(20.0, 5.0);
        assert!(before.meets_target(0.95));
        // Kill the worker hosting the map task.
        sim.fail_worker(capsys_model::WorkerId(1));
        assert!(sim.is_failed(capsys_model::WorkerId(1)));
        let during = sim.advance(20.0, 5.0);
        assert!(
            during.avg_backpressure > 0.8,
            "failure should backpressure the source: {}",
            during.avg_backpressure
        );
        // Restore: processing resumes.
        sim.restore_worker(capsys_model::WorkerId(1));
        let after = sim.advance(30.0, 10.0);
        assert!(
            after.avg_throughput > 0.9 * 1000.0,
            "recovered {}",
            after.avg_throughput
        );
    }

    #[test]
    fn waterfill_basic_properties() {
        // Under capacity: everyone gets their demand.
        let (a, level, residual) = waterfill(&[1.0, 2.0], 10.0);
        assert_eq!(a, vec![1.0, 2.0]);
        assert!(level.is_infinite());
        assert!((residual - 7.0).abs() < 1e-12);
        // Over capacity: max-min fair.
        let (a, level, residual) = waterfill(&[9.0, 1.0, 2.0], 6.0);
        assert!((a[1] - 1.0).abs() < 1e-12, "small demand fully served");
        assert!(
            (a[0] + a[1] + a[2] - 6.0).abs() < 1e-9,
            "capacity exhausted"
        );
        assert!(a[0] >= a[2], "larger demand gets at least as much");
        assert!(level.is_finite());
        assert_eq!(residual, 0.0);
        // Equal demands split evenly.
        let (a, _, _) = waterfill(&[5.0, 5.0], 6.0);
        assert!((a[0] - 3.0).abs() < 1e-12);
        assert!((a[1] - 3.0).abs() < 1e-12);
    }

    /// src(w0) -> stateless x2 (w0, w1) -> sink(w1), light CPU.
    fn transfer_fixture(
        c: &Cluster,
    ) -> (
        LogicalGraph,
        PhysicalGraph,
        Placement,
        HashMap<OperatorId, RateSchedule>,
    ) {
        build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    2,
                    ResourceProfile::new(1e-4, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
                ),
            ],
            c,
            &[0, 0, 1, 1],
            1000.0,
        )
    }

    #[test]
    fn transfer_drains_at_disk_bottleneck_and_moves_the_task() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        // 50 MB at a 100 MB/s disk bottleneck (NIC is 10x wider) = 0.5 s
        // = 5 ticks; the task resumes within the completing tick, so 4
        // ticks of downtime are charged.
        sim.begin_state_transfer(
            &[TaskTransfer {
                task: 1,
                to: 1,
                bytes: 50e6,
            }],
            false,
        )
        .unwrap();
        assert!(sim.state_transfer_active());
        sim.advance(1.0, 0.0);
        assert!(!sim.state_transfer_active());
        assert!(
            (sim.paused_task_seconds() - 0.4).abs() < 1e-9,
            "downtime {}",
            sim.paused_task_seconds()
        );
        assert_eq!(sim.task_workers(), vec![0, 1, 1, 1]);
        // The re-derived network units match a fresh deployment of the
        // post-move placement bit-for-bit.
        let moved_plan = Placement::new(vec![WorkerId(0), WorkerId(1), WorkerId(1), WorkerId(1)]);
        let fresh = Simulation::new(&g, &p, &c, &moved_plan, &sch, SimConfig::short()).unwrap();
        assert_eq!(sim.net_units(), fresh.net_units());
    }

    #[test]
    fn pause_all_charges_downtime_for_every_task() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.begin_state_transfer(
            &[TaskTransfer {
                task: 1,
                to: 1,
                bytes: 50e6,
            }],
            true,
        )
        .unwrap();
        sim.advance(1.0, 0.0);
        // Four paused ticks x all four tasks.
        assert!(
            (sim.paused_task_seconds() - 1.6).abs() < 1e-9,
            "downtime {}",
            sim.paused_task_seconds()
        );
    }

    #[test]
    fn moving_off_a_failed_worker_restores_at_the_target_disk() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.fail_worker(WorkerId(0));
        sim.begin_state_transfer(
            &[TaskTransfer {
                task: 1,
                to: 1,
                bytes: 50e6,
            }],
            false,
        )
        .unwrap();
        // Only the target's disk gates the restore: still 5 ticks.
        sim.advance(0.4, 0.0);
        assert!(sim.state_transfer_active());
        sim.advance(0.1, 0.0);
        assert!(!sim.state_transfer_active());
        assert_eq!(sim.task_workers(), vec![0, 1, 1, 1]);
    }

    #[test]
    fn transfer_with_no_live_endpoint_stalls_until_restore() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.fail_worker(WorkerId(0));
        sim.fail_worker(WorkerId(1));
        sim.begin_state_transfer(
            &[TaskTransfer {
                task: 1,
                to: 1,
                bytes: 50e6,
            }],
            false,
        )
        .unwrap();
        sim.advance(2.0, 0.0);
        assert!(
            sim.state_transfer_active(),
            "drain progressed with no live endpoint"
        );
        sim.restore_worker(WorkerId(1));
        sim.advance(0.5, 0.0);
        assert!(!sim.state_transfer_active());
    }

    #[test]
    fn cancel_unpauses_in_place_without_moving() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.begin_state_transfer(
            &[TaskTransfer {
                task: 1,
                to: 1,
                bytes: 50e6,
            }],
            false,
        )
        .unwrap();
        sim.advance(0.2, 0.0);
        sim.cancel_state_transfer();
        assert!(!sim.state_transfer_active());
        assert_eq!(sim.task_workers(), vec![0, 0, 1, 1]);
        let before = sim.paused_task_seconds();
        sim.advance(1.0, 0.0);
        assert_eq!(sim.paused_task_seconds(), before);
    }

    #[test]
    fn invalid_transfers_are_rejected() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        // A rejected request must leave no transfer behind, so probing
        // repeatedly on one simulation is fine.
        let mut bad = |t: TaskTransfer| {
            matches!(
                sim.begin_state_transfer(&[t], false),
                Err(SimError::InvalidTransfer(_))
            )
        };
        assert!(bad(TaskTransfer {
            task: 9,
            to: 0,
            bytes: 1.0
        }));
        assert!(bad(TaskTransfer {
            task: 0,
            to: 9,
            bytes: 1.0
        }));
        assert!(bad(TaskTransfer {
            task: 0,
            to: 0,
            bytes: f64::NAN
        }));
        assert!(bad(TaskTransfer {
            task: 0,
            to: 0,
            bytes: -1.0
        }));
        let dup = TaskTransfer {
            task: 0,
            to: 1,
            bytes: 1.0,
        };
        assert!(matches!(
            sim.begin_state_transfer(&[dup, dup], false),
            Err(SimError::InvalidTransfer(_))
        ));
        sim.begin_state_transfer(&[dup], false).unwrap();
        assert!(matches!(
            sim.begin_state_transfer(&[dup], false),
            Err(SimError::InvalidTransfer(_))
        ));
    }

    #[test]
    fn partition_freezes_cross_worker_traffic_and_heartbeats() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let before = sim.advance(20.0, 5.0);
        assert!(before.meets_target(0.95));
        assert!(before.worker_alive.iter().all(|&a| a));
        sim.set_partitioned(WorkerId(1), true);
        assert!(sim.partitioned_workers()[1]);
        let during = sim.advance(20.0, 5.0);
        // The worker is alive but unreachable: its heartbeat is gone
        // while global metrics stay observable, and sources choke on
        // the frozen cross-worker channels.
        assert!(!during.worker_alive[1]);
        assert!(during.worker_alive[0]);
        assert!(during.metrics_ok);
        assert!(
            during.avg_backpressure > 0.8,
            "partition should backpressure the source: {}",
            during.avg_backpressure
        );
        assert!(
            during.avg_throughput < 100.0,
            "tp {}",
            during.avg_throughput
        );
        sim.set_partitioned(WorkerId(1), false);
        let after = sim.advance(30.0, 10.0);
        assert!(after.worker_alive[1]);
        assert!(
            after.avg_throughput > 0.9 * 1000.0,
            "healed {}",
            after.avg_throughput
        );
    }

    #[test]
    fn partition_fault_events_fire_and_heal_on_schedule() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        let faults = FaultPlan::new(vec![
            crate::fault::FaultEvent {
                time: 10.0,
                kind: FaultKind::PartitionStart(WorkerId(1)),
            },
            crate::fault::FaultEvent {
                time: 20.0,
                kind: FaultKind::PartitionEnd(WorkerId(1)),
            },
        ])
        .unwrap();
        sim.install_faults(faults).unwrap();
        let r1 = sim.advance(15.0, 0.0);
        assert!(!r1.worker_alive[1], "partition should be active at t=15");
        let r2 = sim.advance(15.0, 0.0);
        assert!(r2.worker_alive[1], "partition should have healed by t=30");
    }

    #[test]
    fn link_degrade_throttles_cross_worker_traffic() {
        // 1 MB/record at 200 rec/s over a 1 GB/s NIC: uncontended until
        // the link degrades to 10% (100 MB/s -> 100 rec/s).
        let big = ResourceProfile::new(1e-6, 0.0, 1e6, 1.0);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e9, 1e9)).unwrap();
        let ops = [
            (OperatorKind::Source, 1, big),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(1e-6, 0.0, 0.0, 1.0),
            ),
        ];
        let (g, p, remote, sch) = build(&ops, &c, &[0, 1], 200.0);
        let mut sim = Simulation::new(&g, &p, &c, &remote, &sch, SimConfig::short()).unwrap();
        let before = sim.advance(20.0, 5.0);
        assert!(before.meets_target(0.95));
        sim.set_net_degrade(WorkerId(0), 0.1);
        assert_eq!(sim.net_degrades()[0], 0.1);
        let during = sim.advance(20.0, 5.0);
        assert!(
            (during.avg_throughput - 100.0).abs() / 100.0 < 0.15,
            "degraded link should cap at ~100 rec/s, got {}",
            during.avg_throughput
        );
        assert!(
            during.worker_net_util[0] > 0.9,
            "utilization is measured against the degraded cap: {}",
            during.worker_net_util[0]
        );
        sim.set_net_degrade(WorkerId(0), 1.0);
        let after = sim.advance(20.0, 5.0);
        assert!(after.meets_target(0.95), "tp {}", after.avg_throughput);
    }

    #[test]
    fn shedding_cuts_admission_without_backpressure() {
        // Capacity ~500 rec/s at an offered 1000: unshedded the source
        // backpressures; shedding 60% admits 400 < 500 and the
        // backpressure signal clears while the reported target stays
        // the full offered rate.
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let ops = [
            (
                OperatorKind::Source,
                1,
                ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Stateless,
                1,
                ResourceProfile::new(0.002, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
            ),
        ];
        let (g, p, plan, sch) = build(&ops, &c, &[0, 0, 0], 1000.0);
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.set_shed_fraction(0.6);
        assert_eq!(sim.shed_fraction(), 0.6);
        let r = sim.run();
        assert!(
            (r.avg_throughput - 400.0).abs() / 400.0 < 0.1,
            "shedded admission should be ~400, got {}",
            r.avg_throughput
        );
        assert!(
            (r.avg_target - 1000.0).abs() / 1000.0 < 0.05,
            "target stays the offered rate: {}",
            r.avg_target
        );
        assert!(
            r.avg_backpressure < 0.05,
            "shed drops are not backpressure: {}",
            r.avg_backpressure
        );
        // Releasing the shed brings the overload (and its signal) back.
        sim.set_shed_fraction(0.0);
        let back = sim.advance(20.0, 5.0);
        assert!(back.avg_backpressure > 0.4, "bp {}", back.avg_backpressure);
        // Out-of-range requests clamp instead of poisoning the engine.
        sim.set_shed_fraction(f64::NAN);
        assert_eq!(sim.shed_fraction(), 0.0);
        sim.set_shed_fraction(2.0);
        assert_eq!(sim.shed_fraction(), 0.95);
    }

    #[test]
    fn link_latency_adds_to_reported_latency_only_across_workers() {
        let spec = WorkerSpec::new(4, 4.0, 100e6, 1e9).with_link_latency(0.05);
        let c = Cluster::homogeneous(2, spec).unwrap();
        let ops = [
            (
                OperatorKind::Source,
                1,
                ResourceProfile::new(1e-6, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(1e-6, 0.0, 0.0, 1.0),
            ),
        ];
        let (g, p, local, sch) = build(&ops, &c, &[0, 0], 100.0);
        let r_local = Simulation::new(&g, &p, &c, &local, &sch, SimConfig::short())
            .unwrap()
            .run();
        let (g2, p2, remote, sch2) = build(&ops, &c, &[0, 1], 100.0);
        let r_remote = Simulation::new(&g2, &p2, &c, &remote, &sch2, SimConfig::short())
            .unwrap()
            .run();
        // The cross-worker hop pays both endpoints' one-way latency:
        // 0.05 + 0.05 = 0.1 s per record on top of queueing delay.
        assert!(
            r_remote.avg_latency > r_local.avg_latency + 0.09,
            "remote {} vs local {}",
            r_remote.avg_latency,
            r_local.avg_latency
        );
    }

    #[test]
    fn heterogeneous_workers_differ_in_capacity() {
        use capsys_model::HardwareProfile;
        let base = WorkerSpec::new(4, 1.0, 100e6, 1e9);
        let slow = HardwareProfile::slow_cpu().apply(base);
        let c = Cluster::heterogeneous(vec![base, slow]).unwrap();
        let ops = [
            (
                OperatorKind::Source,
                1,
                ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Stateless,
                1,
                ResourceProfile::new(0.002, 0.0, 10.0, 1.0),
            ),
            (
                OperatorKind::Sink,
                1,
                ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
            ),
        ];
        // The 0.002 s/record map saturates a full core at 500 rec/s and
        // the slow worker's half core at 250 rec/s.
        let (g, p, on_fast, sch) = build(&ops, &c, &[0, 0, 0], 1000.0);
        let r_fast = Simulation::new(&g, &p, &c, &on_fast, &sch, SimConfig::short())
            .unwrap()
            .run();
        let (g2, p2, on_slow, sch2) = build(&ops, &c, &[0, 1, 0], 1000.0);
        let r_slow = Simulation::new(&g2, &p2, &c, &on_slow, &sch2, SimConfig::short())
            .unwrap()
            .run();
        assert!(
            (r_fast.avg_throughput - 500.0).abs() / 500.0 < 0.1,
            "fast {}",
            r_fast.avg_throughput
        );
        assert!(
            (r_slow.avg_throughput - 250.0).abs() / 250.0 < 0.1,
            "slow {}",
            r_slow.avg_throughput
        );
    }

    #[test]
    fn idle_hostile_knobs_leave_the_run_byte_identical() {
        // Setting shed to zero, degrade to one, and partition to false
        // must be arithmetic no-ops, not merely approximate ones —
        // replay byte-determinism depends on it.
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let cfg = SimConfig::short();
        let mut a = Simulation::new(&g, &p, &c, &plan, &sch, cfg.clone()).unwrap();
        let mut b = Simulation::new(&g, &p, &c, &plan, &sch, cfg).unwrap();
        b.set_shed_fraction(0.0);
        b.set_net_degrade(WorkerId(0), 1.0);
        b.set_partitioned(WorkerId(1), false);
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra.avg_throughput.to_bits(), rb.avg_throughput.to_bits());
        assert_eq!(ra.avg_backpressure.to_bits(), rb.avg_backpressure.to_bits());
        assert_eq!(ra.avg_latency.to_bits(), rb.avg_latency.to_bits());
        assert_eq!(a.total_admitted().to_bits(), b.total_admitted().to_bits());
        assert_eq!(a.total_sunk().to_bits(), b.total_sunk().to_bits());
    }

    #[test]
    fn empty_transfer_leaves_the_run_byte_identical() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let cfg = SimConfig::short();
        let mut a = Simulation::new(&g, &p, &c, &plan, &sch, cfg.clone()).unwrap();
        let mut b = Simulation::new(&g, &p, &c, &plan, &sch, cfg).unwrap();
        b.begin_state_transfer(&[], false).unwrap();
        let ra = a.run();
        let rb = b.run();
        assert_eq!(b.paused_task_seconds(), 0.0);
        assert_eq!(ra.avg_throughput.to_bits(), rb.avg_throughput.to_bits());
        assert_eq!(ra.avg_backpressure.to_bits(), rb.avg_backpressure.to_bits());
        assert_eq!(a.total_admitted().to_bits(), b.total_admitted().to_bits());
        assert_eq!(a.total_sunk().to_bits(), b.total_sunk().to_bits());
    }

    /// A CPU-bound single-worker pipeline saturating at ~500 rec/s.
    fn saturated_fixture(
        c: &Cluster,
    ) -> (
        LogicalGraph,
        PhysicalGraph,
        Placement,
        HashMap<OperatorId, RateSchedule>,
    ) {
        build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(0.0, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(0.002, 0.0, 10.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(0.0, 0.0, 0.0, 1.0),
                ),
            ],
            c,
            &[0, 0, 0],
            1000.0,
        )
    }

    #[test]
    fn contention_scales_cpu_cost_like_a_slowdown() {
        // On a saturated pipeline, contention 2.0 must halve throughput
        // exactly like slowdown 2.0 does — both scale the same cpu_eff
        // term, so the two runs are byte-identical.
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = saturated_fixture(&c);
        let cfg = SimConfig::short();
        let mut contended = Simulation::new(&g, &p, &c, &plan, &sch, cfg.clone()).unwrap();
        contended.set_contention(WorkerId(0), 2.0);
        let mut slowed = Simulation::new(&g, &p, &c, &plan, &sch, cfg).unwrap();
        slowed.set_slowdown(WorkerId(0), 2.0);
        let rc = contended.run();
        let rs = slowed.run();
        assert!(
            (rc.avg_throughput - 250.0).abs() / 250.0 < 0.1,
            "contended throughput {} should be ~250",
            rc.avg_throughput
        );
        assert_eq!(rc.avg_throughput.to_bits(), rs.avg_throughput.to_bits());
        assert_eq!(rc.avg_backpressure.to_bits(), rs.avg_backpressure.to_bits());
    }

    #[test]
    fn contention_composes_multiplicatively_with_slowdown() {
        let c = Cluster::homogeneous(1, WorkerSpec::new(4, 1.0, 100e6, 1e9)).unwrap();
        let (g, p, plan, sch) = saturated_fixture(&c);
        let cfg = SimConfig::short();
        let mut both = Simulation::new(&g, &p, &c, &plan, &sch, cfg.clone()).unwrap();
        both.set_slowdown(WorkerId(0), 2.0);
        both.set_contention(WorkerId(0), 2.0);
        let mut quad = Simulation::new(&g, &p, &c, &plan, &sch, cfg).unwrap();
        quad.set_slowdown(WorkerId(0), 4.0);
        let rb = both.run();
        let rq = quad.run();
        assert_eq!(rb.avg_throughput.to_bits(), rq.avg_throughput.to_bits());
    }

    #[test]
    fn contention_clamps_and_unit_factor_is_a_byte_identical_noop() {
        let c = Cluster::homogeneous(2, worker(4.0)).unwrap();
        let (g, p, plan, sch) = transfer_fixture(&c);
        let cfg = SimConfig::short();
        let mut a = Simulation::new(&g, &p, &c, &plan, &sch, cfg.clone()).unwrap();
        let mut b = Simulation::new(&g, &p, &c, &plan, &sch, cfg).unwrap();
        b.set_contention(WorkerId(0), 1.0);
        b.set_contention(WorkerId(1), 0.25); // clamps up to 1.0
        b.set_contention(WorkerId(1), f64::NAN); // resets to 1.0
        assert!(b.contentions().iter().all(|&f| f == 1.0));
        let ra = a.run();
        let rb = b.run();
        assert_eq!(ra.avg_throughput.to_bits(), rb.avg_throughput.to_bits());
        assert_eq!(ra.avg_backpressure.to_bits(), rb.avg_backpressure.to_bits());
        assert_eq!(a.total_admitted().to_bits(), b.total_admitted().to_bits());
    }

    #[test]
    fn worker_activity_distinguishes_partition_from_crash() {
        let c = Cluster::homogeneous(3, worker(4.0)).unwrap();
        let (g, p, plan, sch) = build(
            &[
                (
                    OperatorKind::Source,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Stateless,
                    1,
                    ResourceProfile::new(1e-4, 0.0, 100.0, 1.0),
                ),
                (
                    OperatorKind::Sink,
                    1,
                    ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
                ),
            ],
            &c,
            &[0, 1, 2],
            1000.0,
        );
        let mut sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
        sim.fail_worker(WorkerId(0));
        sim.set_partitioned(WorkerId(1), true);
        let r = sim.run();
        // Heartbeats: both the crashed and the partitioned worker look
        // dead from outside.
        assert_eq!(r.worker_alive, vec![false, false, true]);
        // Activity evidence separates them: the partitioned worker is
        // still running, the crashed one is not.
        assert_eq!(r.worker_activity, vec![false, true, true]);
    }

    #[test]
    fn waterfill_into_matches_the_allocating_reference() {
        // Values from a small pool make ties and zero demands common;
        // capacities cycle through binding, non-binding, exactly-equal
        // and arbitrary.
        let pool = [0.0, 0.5, 1.0, 2.5, 3.0];
        let mut rng = SmallRng::seed_from_u64(0x0057_a7e5);
        let (mut alloc, mut order) = (Vec::new(), Vec::new());
        for case in 0..4000 {
            let n = rng.gen_range(0..12usize);
            let demands: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.6) {
                        pool[rng.gen_range(0..pool.len())]
                    } else {
                        rng.gen_range(0.0..10.0)
                    }
                })
                .collect();
            let total: f64 = demands.iter().sum();
            let cap = match case % 4 {
                0 => total * rng.gen_range(0.0..1.0),
                1 => total + rng.gen_range(0.0..5.0),
                2 => total,
                _ => rng.gen_range(0.0..20.0),
            };
            let (want, want_level, want_residual) = waterfill(&demands, cap);
            let (level, residual) = waterfill_into(&demands, cap, &mut alloc, &mut order);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let case = format!("demands {demands:?} cap {cap}");
            assert_eq!(bits(&alloc), bits(&want), "alloc, {case}");
            assert_eq!(level.to_bits(), want_level.to_bits(), "level, {case}");
            assert_eq!(residual.to_bits(), want_residual.to_bits(), "{case}");
        }
    }

    #[test]
    fn fan_out_net_units_are_deterministic_across_instances() {
        // One source fans out to three operators of parallelism 3, 7
        // and 11 on another worker: its net unit sums three unequal
        // groups of channel shares, so the sum order shows in the bits.
        let mut b: LogicalGraphBuilder = LogicalGraph::builder("fan-out");
        let src = b.operator(
            "src",
            OperatorKind::Source,
            1,
            ResourceProfile::new(1e-5, 0.0, 123.0, 0.7),
        );
        let sink = b.operator(
            "sink",
            OperatorKind::Sink,
            1,
            ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
        );
        for (i, par) in [3usize, 7, 11].into_iter().enumerate() {
            let op = b.operator(
                format!("map{i}"),
                OperatorKind::Stateless,
                par,
                ResourceProfile::new(1e-5, 0.0, 50.0, 1.0),
            );
            b.edge(src, op, ConnectionPattern::Rebalance);
            b.edge(op, sink, ConnectionPattern::Rebalance);
        }
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(32, 4.0, 100e6, 1e9)).unwrap();
        let plan = Placement::new(
            (0..p.num_tasks())
                .map(|t| WorkerId(usize::from(t != 0)))
                .collect(),
        );
        let mut sch = HashMap::new();
        sch.insert(src, RateSchedule::Constant(1000.0));
        let units = || {
            let sim = Simulation::new(&g, &p, &c, &plan, &sch, SimConfig::short()).unwrap();
            let units = sim.net_units();
            units.iter().map(|u| u.to_bits()).collect::<Vec<_>>()
        };
        let first = units();
        for _ in 0..8 {
            assert_eq!(units(), first, "net units differ between instances");
        }
        // Groups are summed in ascending downstream-operator id.
        let mut want = 0.0;
        for k in [3.0, 7.0, 11.0] {
            for _ in 0..k as usize {
                want += 0.7 / k * 123.0;
            }
        }
        assert_eq!(first[0], f64::to_bits(want));
    }
}
