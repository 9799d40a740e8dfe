//! Deterministic fault injection (the chaos harness).
//!
//! A [`FaultPlan`] is a time-ordered list of fault events — worker
//! crashes and restores, per-worker stragglers (CPU slowdown factors),
//! and metric blackouts — plus an optional multiplicative metric-noise
//! amplitude. Plans are either written by hand or generated from a
//! [`ChaosConfig`] with a seeded RNG, so any chaos scenario can be
//! replayed byte-for-byte: the same seed always yields the same
//! schedule, and the engine applies events on its fixed tick grid.
//!
//! The [`FaultInjector`] is the engine-side cursor over a plan; the
//! simulation polls it each tick inside `advance()` and applies due
//! events before resources are allocated.

use capsys_model::WorkerId;
use capsys_util::rng::{Rng, SeedableRng, SliceRandom, SmallRng};

use crate::error::SimError;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The worker stops processing (its tasks' rates drop to zero).
    Crash(WorkerId),
    /// A crashed worker resumes processing.
    Restore(WorkerId),
    /// The worker's effective per-record CPU cost is multiplied by
    /// `factor` (> 1 slows it down) until [`FaultKind::StragglerEnd`].
    StragglerStart {
        /// The slowed worker.
        worker: WorkerId,
        /// CPU cost multiplier, `>= 1`.
        factor: f64,
    },
    /// Ends a straggler episode on the worker.
    StragglerEnd(WorkerId),
    /// Metric reports stop carrying heartbeats (`metrics_ok = false`)
    /// until [`FaultKind::BlackoutEnd`].
    BlackoutStart,
    /// Metric reporting resumes.
    BlackoutEnd,
    /// The worker's NIC bandwidth is multiplied by `factor` (in
    /// `(0, 1]`; smaller is worse) until [`FaultKind::LinkDegradeEnd`]
    /// — a flaky or oversubscribed link rather than a dead one.
    LinkDegradeStart {
        /// The worker whose link degrades.
        worker: WorkerId,
        /// NIC-bandwidth multiplier, in `(0, 1]`.
        factor: f64,
    },
    /// Ends a link-degrade episode on the worker.
    LinkDegradeEnd(WorkerId),
    /// The worker is cut off from the network until
    /// [`FaultKind::PartitionEnd`]: its metric reports go stale (the
    /// per-worker analogue of a blackout, riding the same heartbeat
    /// path) and traffic on its cross-worker channels freezes, while
    /// the worker itself keeps running.
    PartitionStart(WorkerId),
    /// Heals the network partition on the worker.
    PartitionEnd(WorkerId),
}

/// A fault at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the fault, seconds.
    pub time: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// Where a controller-crash fault fires. The simulator itself ignores
/// kill points — they target the *controller process* driving it; the
/// closed loop reads them from its installed plan and dies
/// deterministically at the designated point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KillPoint {
    /// Die at the first policy window whose end time reaches `t`
    /// seconds (checked before any decision of that window).
    AtTime(f64),
    /// Die immediately after appending journal record number `seq`
    /// (zero-based). Landing on a `Prepare` record kills the controller
    /// *between* Prepare and Commit — the torn-reconfiguration case.
    AfterRecord(u64),
    /// Die after journaling the `Prepare` of reconfiguration `epoch`,
    /// before its `Commit` — the targeted mid-reconfiguration crash.
    MidReconfig(u64),
}

/// Which control-plane decider a fault targets. The simulation engine
/// ignores decider faults entirely — they aim at the processes *making*
/// placement decisions, not at the workers executing them — and the
/// fleet-level control plane reads them from its installed plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeciderTarget {
    /// The shard controller governing tenant shard `index`.
    Shard(usize),
    /// The global arbiter reconciling cross-shard placement.
    Arbiter,
}

/// What happens to the targeted decider.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeciderFaultKind {
    /// The decider process dies at the kill point — the same semantics
    /// as [`FaultPlan::controller_kill`], scoped to one decider of a
    /// sharded control plane. A standby must take over its lease.
    Kill(KillPoint),
    /// The decider is cut off from the fleet between `from` and
    /// `until` (global simulated seconds): it cannot renew its lease,
    /// its shard sees no decisions, and any stamp the stale holder
    /// attempts after its lease expires must be fenced — the
    /// split-brain probe.
    Partition {
        /// Partition onset, seconds.
        from: f64,
        /// Partition heal time, seconds (`> from`).
        until: f64,
    },
}

/// One decider fault: a target and what befalls it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeciderFault {
    /// Which decider.
    pub target: DeciderTarget,
    /// What happens to it.
    pub kind: DeciderFaultKind,
}

/// A model-skew fault: from `time` onward the cost model mispredicts,
/// so any plan deployed *after* that moment runs with its effective
/// per-record CPU cost multiplied by `factor`. The plan that was
/// already running when the skew began keeps its observed (unskewed)
/// behavior — it has been measured, not predicted — which is exactly
/// what makes rolling back to it recover throughput.
///
/// Like [`KillPoint`], the simulation engine ignores this field; the
/// closed loop reads it from its installed plan and applies the skew
/// at deploy time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSkew {
    /// Global simulated time the misprediction begins, seconds.
    pub time: f64,
    /// Effective CPU-cost multiplier for plans deployed after `time`,
    /// `>= 1`.
    pub factor: f64,
}

/// A deterministic, replayable schedule of faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Events in non-decreasing time order.
    pub events: Vec<FaultEvent>,
    /// Relative multiplicative noise applied to reported task rates, in
    /// `[0, 1)`. Zero reports exact metrics.
    pub metric_noise: f64,
    /// Optional controller-crash point. Ignored by the simulation
    /// engine; honored by the closed loop driving it.
    pub controller_kill: Option<KillPoint>,
    /// Optional model-skew fault. Ignored by the simulation engine;
    /// honored by the closed loop at deploy time.
    pub model_skew: Option<ModelSkew>,
    /// Control-plane decider faults (shard-controller / arbiter kills
    /// and partitions). Ignored by the simulation engine; honored by a
    /// fleet controller driving many shards.
    pub decider_faults: Vec<DeciderFault>,
}

impl FaultPlan {
    /// Builds a plan from events, sorting them by time. Event times must
    /// be finite and non-negative; ties keep their given order.
    pub fn new(mut events: Vec<FaultEvent>) -> Result<FaultPlan, SimError> {
        for e in &events {
            if !e.time.is_finite() || e.time < 0.0 {
                return Err(SimError::InvalidFaultPlan(format!(
                    "event time {} is not a finite non-negative number",
                    e.time
                )));
            }
            if let FaultKind::StragglerStart { factor, .. } = e.kind {
                if !factor.is_finite() || factor < 1.0 {
                    return Err(SimError::InvalidFaultPlan(format!(
                        "straggler factor {factor} must be finite and >= 1"
                    )));
                }
            }
            if let FaultKind::LinkDegradeStart { factor, .. } = e.kind {
                if !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
                    return Err(SimError::InvalidFaultPlan(format!(
                        "link-degrade factor {factor} must be finite and in (0, 1]"
                    )));
                }
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        Ok(FaultPlan {
            events,
            metric_noise: 0.0,
            controller_kill: None,
            model_skew: None,
            decider_faults: Vec::new(),
        })
    }

    /// An empty plan (no faults, exact metrics).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sets the metric-noise amplitude, returning the modified plan.
    pub fn with_metric_noise(mut self, noise: f64) -> Result<FaultPlan, SimError> {
        if !(0.0..1.0).contains(&noise) {
            return Err(SimError::InvalidFaultPlan(format!(
                "metric noise must be in [0,1), got {noise}"
            )));
        }
        self.metric_noise = noise;
        Ok(self)
    }

    /// Sets the controller-crash point, returning the modified plan.
    pub fn with_controller_kill(mut self, kill: KillPoint) -> Result<FaultPlan, SimError> {
        if let KillPoint::AtTime(t) = kill {
            if !t.is_finite() || t < 0.0 {
                return Err(SimError::InvalidFaultPlan(format!(
                    "controller kill time {t} is not a finite non-negative number"
                )));
            }
        }
        self.controller_kill = Some(kill);
        Ok(self)
    }

    /// Sets the model-skew fault, returning the modified plan.
    pub fn with_model_skew(mut self, skew: ModelSkew) -> Result<FaultPlan, SimError> {
        if !skew.time.is_finite() || skew.time < 0.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "model skew time {} is not a finite non-negative number",
                skew.time
            )));
        }
        if !skew.factor.is_finite() || skew.factor < 1.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "model skew factor {} must be finite and >= 1",
                skew.factor
            )));
        }
        self.model_skew = Some(skew);
        Ok(self)
    }

    /// Adds a control-plane decider fault, returning the modified plan.
    ///
    /// Rejected: non-finite or negative kill times, partitions with
    /// `until <= from`, a second kill on the same target (a process
    /// dies once per run), and overlapping partitions on one target
    /// (the fleet keeps one isolation flag per decider).
    pub fn with_decider_fault(mut self, fault: DeciderFault) -> Result<FaultPlan, SimError> {
        match fault.kind {
            DeciderFaultKind::Kill(kill) => {
                if let KillPoint::AtTime(t) = kill {
                    if !t.is_finite() || t < 0.0 {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "decider kill time {t} is not a finite non-negative number"
                        )));
                    }
                }
                if self.decider_faults.iter().any(|f| {
                    f.target == fault.target && matches!(f.kind, DeciderFaultKind::Kill(_))
                }) {
                    return Err(SimError::InvalidFaultPlan(format!(
                        "decider {:?} already has a kill point (a process dies once per run)",
                        fault.target
                    )));
                }
            }
            DeciderFaultKind::Partition { from, until } => {
                if !from.is_finite() || !until.is_finite() || from < 0.0 || until <= from {
                    return Err(SimError::InvalidFaultPlan(format!(
                        "decider partition window ({from}, {until}) must satisfy \
                         0 <= from < until with both finite"
                    )));
                }
                let overlaps = self.decider_faults.iter().any(|f| {
                    f.target == fault.target
                        && matches!(f.kind,
                            DeciderFaultKind::Partition { from: s, until: e }
                                if from < e && s < until)
                });
                if overlaps {
                    return Err(SimError::InvalidFaultPlan(format!(
                        "decider {:?} has overlapping partition windows",
                        fault.target
                    )));
                }
            }
        }
        self.decider_faults.push(fault);
        Ok(self)
    }

    /// The kill point aimed at a decider, if any.
    pub fn decider_kill(&self, target: DeciderTarget) -> Option<KillPoint> {
        self.decider_faults.iter().find_map(|f| match f.kind {
            DeciderFaultKind::Kill(k) if f.target == target => Some(k),
            _ => None,
        })
    }

    /// All partition windows aimed at a decider, time-sorted.
    pub fn decider_partitions(&self, target: DeciderTarget) -> Vec<(f64, f64)> {
        let mut windows: Vec<(f64, f64)> = self
            .decider_faults
            .iter()
            .filter_map(|f| match f.kind {
                DeciderFaultKind::Partition { from, until } if f.target == target => {
                    Some((from, until))
                }
                _ => None,
            })
            .collect();
        windows.sort_by(|a, b| a.0.total_cmp(&b.0));
        windows
    }

    /// Removes the controller-crash point. A recovered controller that
    /// already died at an [`KillPoint::AtTime`] point must strip it
    /// before resuming, or the same deterministic kill fires again.
    pub fn without_controller_kill(mut self) -> FaultPlan {
        self.controller_kill = None;
        self
    }

    /// Generates a plan from a seeded RNG: same config and worker count,
    /// same schedule, always.
    ///
    /// Classes are drawn in a fixed order: crashes, stragglers,
    /// blackouts, then the controller kill and the model skew. Link
    /// degrades, partitions and decider faults are not generated; write
    /// them as explicit events ([`FaultPlan::new`],
    /// [`FaultPlan::with_decider_fault`]).
    ///
    /// Drawn windows of one class that overlap on one worker (crashes
    /// cycle their victims when there are more crashes than workers,
    /// and stragglers pick theirs freely), or overlapping blackouts, are
    /// merged into one window from the earliest start to the latest end
    /// that keeps the earliest window's factor, so every generated plan
    /// passes [`FaultPlan::validate`].
    pub fn generate(config: &ChaosConfig, num_workers: usize) -> Result<FaultPlan, SimError> {
        config.validate()?;
        if num_workers == 0 {
            return Err(SimError::InvalidFaultPlan("no workers to fault".into()));
        }
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Crash distinct workers (cycling when there are more crashes
        // than workers) so concurrent crashes cannot stack on one victim.
        let mut victims: Vec<usize> = (0..num_workers).collect();
        victims.shuffle(&mut rng);
        let mut crashes = Vec::with_capacity(config.crashes);
        for k in 0..config.crashes {
            let w = victims[k % num_workers];
            let at = rng.gen_range(0.0..config.horizon * 0.7);
            let downtime = rng.gen_range(config.crash_downtime.0..=config.crash_downtime.1);
            crashes.push((w, at, at + downtime, ()));
        }
        let mut stragglers = Vec::with_capacity(config.stragglers);
        for _ in 0..config.stragglers {
            let w = rng.gen_range(0..num_workers);
            let at = rng.gen_range(0.0..config.horizon * 0.7);
            let dur = rng.gen_range(config.straggler_duration.0..=config.straggler_duration.1);
            let factor = rng.gen_range(config.slowdown.0..=config.slowdown.1);
            stragglers.push((w, at, at + dur, factor));
        }
        let mut blackouts = Vec::with_capacity(config.blackouts);
        for _ in 0..config.blackouts {
            let at = rng.gen_range(0.0..config.horizon * 0.7);
            let dur = rng.gen_range(config.blackout_duration.0..=config.blackout_duration.1);
            blackouts.push((0, at, at + dur, ()));
        }
        let mut events = Vec::new();
        for (w, start, end, ()) in merge_windows(crashes) {
            events.push(FaultEvent {
                time: start,
                kind: FaultKind::Crash(WorkerId(w)),
            });
            events.push(FaultEvent {
                time: end,
                kind: FaultKind::Restore(WorkerId(w)),
            });
        }
        for (w, start, end, factor) in merge_windows(stragglers) {
            let worker = WorkerId(w);
            events.push(FaultEvent {
                time: start,
                kind: FaultKind::StragglerStart { worker, factor },
            });
            events.push(FaultEvent {
                time: end,
                kind: FaultKind::StragglerEnd(worker),
            });
        }
        for (_, start, end, ()) in merge_windows(blackouts) {
            events.push(FaultEvent {
                time: start,
                kind: FaultKind::BlackoutStart,
            });
            events.push(FaultEvent {
                time: end,
                kind: FaultKind::BlackoutEnd,
            });
        }
        let mut plan = FaultPlan::new(events)?.with_metric_noise(config.metric_noise)?;
        if config.controller_kills > 0 {
            // One seeded controller crash inside the observable window.
            // (The crash point is a single process death; "how many
            // kills" beyond one only makes sense across successive
            // recovered runs, which re-draw their own plans.)
            let at = rng.gen_range(0.0..config.horizon * 0.7);
            plan = plan.with_controller_kill(KillPoint::AtTime(at))?;
        }
        if config.model_skews > 0 {
            // Drawn after the classes above so enabling the skew never
            // perturbs the crash/straggler/blackout/kill schedule of
            // the same seed.
            let at = rng.gen_range(0.0..config.horizon * 0.7);
            let factor = rng.gen_range(config.skew_factor.0..=config.skew_factor.1);
            plan = plan.with_model_skew(ModelSkew { time: at, factor })?;
        }
        Ok(plan)
    }

    /// The plan seen from a simulation restarted at global time
    /// `offset`: past events are dropped (their *state* must be
    /// re-applied by the restarting controller), future events shift
    /// left.
    pub fn shifted(&self, offset: f64) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .filter(|e| e.time > offset)
                .map(|e| FaultEvent {
                    time: e.time - offset,
                    kind: e.kind,
                })
                .collect(),
            metric_noise: self.metric_noise,
            // A kill point in the past has already fired (the
            // controller died); one in the future stays armed on the
            // global clock, which the controller — not the restarted
            // simulation — tracks.
            controller_kill: self.controller_kill,
            // Model skew also lives on the global clock: the controller
            // decides at each deploy whether the skew is active.
            model_skew: self.model_skew,
            // Decider faults are fleet-level machinery on the global
            // clock too — the fleet, not a restarted per-shard
            // simulation, tracks them.
            decider_faults: self.decider_faults.clone(),
        }
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.metric_noise == 0.0
            && self.controller_kill.is_none()
            && self.model_skew.is_none()
            && self.decider_faults.is_empty()
    }

    /// Checks that every referenced worker exists and that no worker
    /// carries incoherently overlapping fault windows.
    ///
    /// Events are time-sorted, so a single stateful scan suffices.
    /// Orphan `Restore`/`*End` events are legal — [`FaultPlan::shifted`]
    /// drops past `Start`s whose state the restarting controller
    /// re-applies — and a straggler or link degrade may overlap a crash
    /// (a slow worker can still die). What is rejected is any pair of
    /// same-kind windows on one worker, or two overlapping blackouts
    /// (the engine keeps one flag per worker per kind, and one for
    /// blackouts, so the inner window's end would silently cancel the
    /// outer one) and a crash overlapping a partition on the same
    /// worker (a dead worker cannot also be "running but unreachable";
    /// the two disagree about what the restore path must re-establish).
    pub fn validate(&self, num_workers: usize) -> Result<(), SimError> {
        let mut crashed = vec![false; num_workers];
        let mut straggling = vec![false; num_workers];
        let mut degraded = vec![false; num_workers];
        let mut partitioned = vec![false; num_workers];
        let mut blackout = false;
        let check = |w: WorkerId| {
            if w.0 >= num_workers {
                Err(SimError::InvalidFaultPlan(format!(
                    "fault references worker {} but the cluster has {num_workers}",
                    w.0
                )))
            } else {
                Ok(w.0)
            }
        };
        for e in &self.events {
            match e.kind {
                FaultKind::Crash(w) => {
                    let w = check(w)?;
                    if crashed[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} crashes at t={} while already crashed \
                             (overlapping crash windows)",
                            e.time
                        )));
                    }
                    if partitioned[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} crashes at t={} inside a network partition \
                             (crash and partition windows must not overlap)",
                            e.time
                        )));
                    }
                    crashed[w] = true;
                }
                FaultKind::Restore(w) => crashed[check(w)?] = false,
                FaultKind::StragglerStart { worker: w, .. } => {
                    let w = check(w)?;
                    if straggling[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} starts a straggler episode at t={} while one \
                             is already open (overlapping straggler windows)",
                            e.time
                        )));
                    }
                    straggling[w] = true;
                }
                FaultKind::StragglerEnd(w) => straggling[check(w)?] = false,
                FaultKind::LinkDegradeStart { worker: w, .. } => {
                    let w = check(w)?;
                    if degraded[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} starts a link degrade at t={} while one is \
                             already open (overlapping link-degrade windows)",
                            e.time
                        )));
                    }
                    degraded[w] = true;
                }
                FaultKind::LinkDegradeEnd(w) => degraded[check(w)?] = false,
                FaultKind::PartitionStart(w) => {
                    let w = check(w)?;
                    if partitioned[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} is partitioned at t={} while already \
                             partitioned (overlapping partition windows)",
                            e.time
                        )));
                    }
                    if crashed[w] {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "worker {w} is partitioned at t={} inside a crash window \
                             (crash and partition windows must not overlap)",
                            e.time
                        )));
                    }
                    partitioned[w] = true;
                }
                FaultKind::PartitionEnd(w) => partitioned[check(w)?] = false,
                FaultKind::BlackoutStart => {
                    if blackout {
                        return Err(SimError::InvalidFaultPlan(format!(
                            "a blackout starts at t={} while one is already open \
                             (overlapping blackout windows)",
                            e.time
                        )));
                    }
                    blackout = true;
                }
                FaultKind::BlackoutEnd => blackout = false,
            }
        }
        Ok(())
    }
}

/// Merges the `(key, start, end, payload)` windows that overlap (or
/// touch) another window of the same key into one window from the
/// earliest start to the latest end, keeping the earliest window's
/// payload. Returns the windows sorted by key, then start.
fn merge_windows<P>(mut windows: Vec<(usize, f64, f64, P)>) -> Vec<(usize, f64, f64, P)> {
    windows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut merged: Vec<(usize, f64, f64, P)> = Vec::with_capacity(windows.len());
    for window in windows {
        match merged.last_mut() {
            Some(last) if last.0 == window.0 && window.1 <= last.2 => {
                last.2 = last.2.max(window.2);
            }
            _ => merged.push(window),
        }
    }
    merged
}

/// Parameters for deterministic random fault-schedule generation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// RNG seed; the whole schedule is a pure function of this config.
    pub seed: u64,
    /// Time window faults are injected into, seconds. Fault *starts* are
    /// drawn from the first 70% of the horizon so effects are observable.
    pub horizon: f64,
    /// Number of worker crashes.
    pub crashes: usize,
    /// Crash downtime range `(min, max)`, seconds.
    pub crash_downtime: (f64, f64),
    /// Number of straggler episodes.
    pub stragglers: usize,
    /// Straggler CPU-cost multiplier range, each `>= 1`.
    pub slowdown: (f64, f64),
    /// Straggler episode duration range, seconds.
    pub straggler_duration: (f64, f64),
    /// Number of metric blackouts.
    pub blackouts: usize,
    /// Blackout duration range, seconds.
    pub blackout_duration: (f64, f64),
    /// Relative metric noise amplitude in `[0, 1)`.
    pub metric_noise: f64,
    /// Number of controller crashes (0 or 1; the generated plan holds
    /// at most one [`KillPoint`], drawn in the first 70% of the
    /// horizon — a process dies once per run).
    pub controller_kills: usize,
    /// Number of model-skew faults (0 or 1; the generated plan holds at
    /// most one [`ModelSkew`], its onset drawn in the first 70% of the
    /// horizon — the cost model goes stale once per run).
    pub model_skews: usize,
    /// Model-skew CPU-cost multiplier range, each `>= 1`. Only used
    /// when `model_skews > 0`.
    pub skew_factor: (f64, f64),
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 7,
            horizon: 300.0,
            crashes: 1,
            crash_downtime: (60.0, 120.0),
            stragglers: 1,
            slowdown: (2.0, 4.0),
            straggler_duration: (30.0, 60.0),
            blackouts: 1,
            blackout_duration: (5.0, 15.0),
            metric_noise: 0.0,
            controller_kills: 0,
            model_skews: 0,
            skew_factor: (2.0, 4.0),
        }
    }
}

impl ChaosConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        let range_ok = |(lo, hi): (f64, f64), name: &str| {
            if lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi {
                Ok(())
            } else {
                Err(SimError::InvalidFaultPlan(format!(
                    "{name} range ({lo}, {hi}) must satisfy 0 < min <= max"
                )))
            }
        };
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "horizon must be positive, got {}",
                self.horizon
            )));
        }
        if self.crashes > 0 {
            range_ok(self.crash_downtime, "crash_downtime")?;
        }
        if self.stragglers > 0 {
            range_ok(self.straggler_duration, "straggler_duration")?;
            let (lo, hi) = self.slowdown;
            if !(lo.is_finite() && hi.is_finite() && lo >= 1.0 && lo <= hi) {
                return Err(SimError::InvalidFaultPlan(format!(
                    "slowdown range ({lo}, {hi}) must satisfy 1 <= min <= max"
                )));
            }
        }
        if self.blackouts > 0 {
            range_ok(self.blackout_duration, "blackout_duration")?;
        }
        if !(0.0..1.0).contains(&self.metric_noise) {
            return Err(SimError::InvalidFaultPlan(format!(
                "metric_noise must be in [0,1), got {}",
                self.metric_noise
            )));
        }
        if self.controller_kills > 1 {
            return Err(SimError::InvalidFaultPlan(format!(
                "controller_kills must be 0 or 1, got {}",
                self.controller_kills
            )));
        }
        if self.model_skews > 1 {
            return Err(SimError::InvalidFaultPlan(format!(
                "model_skews must be 0 or 1, got {}",
                self.model_skews
            )));
        }
        if self.model_skews > 0 {
            let (lo, hi) = self.skew_factor;
            if !(lo.is_finite() && hi.is_finite() && lo >= 1.0 && lo <= hi) {
                return Err(SimError::InvalidFaultPlan(format!(
                    "skew_factor range ({lo}, {hi}) must satisfy 1 <= min <= max"
                )));
            }
        }
        Ok(())
    }
}

/// The engine-side cursor over a [`FaultPlan`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    next: usize,
}

impl FaultInjector {
    /// Binds an injector to a plan.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, next: 0 }
    }

    /// All events due at or before `now` (with a small slack so events
    /// on tick boundaries fire on that tick), advancing the cursor.
    pub fn due(&mut self, now: f64) -> &[FaultEvent] {
        let start = self.next;
        while self.next < self.plan.events.len() && self.plan.events[self.next].time <= now + 1e-9 {
            self.next += 1;
        }
        &self.plan.events[start..self.next]
    }

    /// The metric-noise amplitude of the underlying plan.
    pub fn metric_noise(&self) -> f64 {
        self.plan.metric_noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ChaosConfig {
            crashes: 2,
            stragglers: 2,
            blackouts: 2,
            ..ChaosConfig::default()
        };
        let a = FaultPlan::generate(&cfg, 6).unwrap();
        let b = FaultPlan::generate(&cfg, 6).unwrap();
        assert_eq!(a, b, "same seed must yield the same schedule");
        let c = FaultPlan::generate(
            &ChaosConfig {
                seed: 8,
                ..cfg.clone()
            },
            6,
        )
        .unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn every_generated_plan_validates() {
        // Shapes whose drawn windows overlap often: more crashes than
        // workers, several stragglers on few workers, several blackouts.
        let shapes = [(2, 2, 2, 6), (0, 2, 0, 2), (3, 0, 0, 2), (4, 4, 4, 3)];
        let mut merged = 0;
        for (crashes, stragglers, blackouts, workers) in shapes {
            for seed in 0..1000 {
                let cfg = ChaosConfig {
                    seed,
                    crashes,
                    stragglers,
                    blackouts,
                    ..ChaosConfig::default()
                };
                let plan = FaultPlan::generate(&cfg, workers).unwrap();
                if let Err(e) = plan.validate(workers) {
                    panic!(
                        "seed {seed}, shape {crashes}/{stragglers}/{blackouts} on {workers}: {e}"
                    );
                }
                if plan.events.len() < 2 * (crashes + stragglers + blackouts) {
                    merged += 1;
                }
            }
        }
        assert!(merged > 0, "no drawn windows overlapped");
    }

    #[test]
    fn overlapping_blackouts_are_rejected() {
        let at = |time, kind| FaultEvent { time, kind };
        let plan = FaultPlan::new(vec![
            at(10.0, FaultKind::BlackoutStart),
            at(12.0, FaultKind::BlackoutStart),
            at(15.0, FaultKind::BlackoutEnd),
            at(20.0, FaultKind::BlackoutEnd),
        ])
        .unwrap();
        let err = plan.validate(1).unwrap_err().to_string();
        assert!(err.contains("overlapping blackout windows"), "{err}");
        // Back-to-back blackouts and an orphan end (a shifted plan) stay
        // legal.
        let plan = FaultPlan::new(vec![
            at(5.0, FaultKind::BlackoutEnd),
            at(10.0, FaultKind::BlackoutStart),
            at(12.0, FaultKind::BlackoutEnd),
            at(12.5, FaultKind::BlackoutStart),
            at(20.0, FaultKind::BlackoutEnd),
        ])
        .unwrap();
        plan.validate(1).unwrap();
    }

    #[test]
    fn events_are_sorted_and_paired() {
        let cfg = ChaosConfig {
            crashes: 3,
            stragglers: 1,
            blackouts: 1,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, 4).unwrap();
        assert_eq!(plan.events.len(), 2 * (3 + 1 + 1));
        for pair in plan.events.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        // Every crash has a matching restore of the same worker.
        let crashes: Vec<WorkerId> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Crash(w) => Some(w),
                _ => None,
            })
            .collect();
        for w in crashes {
            assert!(plan.events.iter().any(|e| e.kind == FaultKind::Restore(w)));
        }
    }

    #[test]
    fn shifted_drops_past_and_rebases_future() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                time: 10.0,
                kind: FaultKind::Crash(WorkerId(0)),
            },
            FaultEvent {
                time: 50.0,
                kind: FaultKind::Restore(WorkerId(0)),
            },
        ])
        .unwrap();
        let s = plan.shifted(20.0);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].time, 30.0);
        assert_eq!(s.events[0].kind, FaultKind::Restore(WorkerId(0)));
    }

    #[test]
    fn shifted_by_zero_is_identity_for_future_events() {
        let cfg = ChaosConfig {
            crashes: 2,
            stragglers: 1,
            blackouts: 1,
            metric_noise: 0.1,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, 6).unwrap();
        // Generated event times are drawn from open-below ranges, so
        // every event sits strictly after t=0 and survives the filter.
        assert!(plan.events.iter().all(|e| e.time > 0.0));
        assert_eq!(plan.shifted(0.0), plan);
    }

    #[test]
    fn shifted_drops_events_at_or_before_the_offset() {
        // An event exactly at the offset belongs to the *past*: its
        // state (here, the blackout start) must be re-applied by the
        // restarting controller, not replayed by the new simulation.
        let plan = FaultPlan::new(vec![
            FaultEvent {
                time: 10.0,
                kind: FaultKind::BlackoutStart,
            },
            FaultEvent {
                time: 20.0,
                kind: FaultKind::BlackoutEnd,
            },
        ])
        .unwrap();
        let s = plan.shifted(10.0);
        assert_eq!(s.events.len(), 1);
        assert_eq!(s.events[0].time, 10.0);
        assert_eq!(s.events[0].kind, FaultKind::BlackoutEnd);
        // Shifting past the last event empties the schedule entirely.
        assert!(plan.shifted(20.0).events.is_empty());
    }

    #[test]
    fn shifted_plans_stay_valid() {
        let cfg = ChaosConfig {
            crashes: 3,
            stragglers: 2,
            blackouts: 1,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, 5).unwrap();
        plan.validate(5).unwrap();
        for offset in [0.0, 25.0, 100.0, 1000.0] {
            let s = plan.shifted(offset);
            // Worker references and time ordering both survive the
            // rebase, so a restarted engine can consume the plan as-is.
            s.validate(5).unwrap();
            for pair in s.events.windows(2) {
                assert!(pair[0].time <= pair[1].time);
            }
            assert!(s.events.iter().all(|e| e.time >= 0.0));
        }
    }

    #[test]
    fn shifting_composes_additively() {
        // Integer times keep `t - a - b == t - (a + b)` exact, so the
        // two-hop restart (crash at a, crash again at a+b) must land on
        // byte-identical plans either way.
        let events: Vec<FaultEvent> = (1..=8)
            .map(|k| FaultEvent {
                time: (k * 10) as f64,
                kind: if k % 2 == 1 {
                    FaultKind::Crash(WorkerId(k % 3))
                } else {
                    FaultKind::Restore(WorkerId((k - 1) % 3))
                },
            })
            .collect();
        let plan = FaultPlan::new(events)
            .unwrap()
            .with_metric_noise(0.05)
            .unwrap()
            .with_controller_kill(KillPoint::AfterRecord(4))
            .unwrap();
        let a = 15.0;
        let b = 30.0;
        assert_eq!(plan.shifted(a).shifted(b), plan.shifted(a + b));
        // The composed view keeps only events after a+b, rebased.
        let s = plan.shifted(a + b);
        assert_eq!(s.events.len(), 4);
        assert_eq!(s.events[0].time, 50.0 - (a + b));
        assert_eq!(s.metric_noise, 0.05);
        assert_eq!(s.controller_kill, Some(KillPoint::AfterRecord(4)));
    }

    #[test]
    fn injector_advances_monotonically() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                time: 1.0,
                kind: FaultKind::BlackoutStart,
            },
            FaultEvent {
                time: 2.0,
                kind: FaultKind::BlackoutEnd,
            },
        ])
        .unwrap();
        let mut inj = FaultInjector::new(plan);
        assert!(inj.due(0.5).is_empty());
        assert_eq!(inj.due(1.0).len(), 1);
        assert!(inj.due(1.5).is_empty());
        assert_eq!(inj.due(10.0).len(), 1);
        assert!(inj.due(20.0).is_empty());
    }

    #[test]
    fn controller_kill_generation_and_shifting() {
        let cfg = ChaosConfig {
            controller_kills: 1,
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, 4).unwrap();
        let Some(KillPoint::AtTime(t)) = plan.controller_kill else {
            panic!(
                "expected a seeded AtTime kill, got {:?}",
                plan.controller_kill
            );
        };
        assert!((0.0..cfg.horizon * 0.7).contains(&t));
        // Same seed, same kill point.
        assert_eq!(
            FaultPlan::generate(&cfg, 4).unwrap().controller_kill,
            plan.controller_kill
        );
        // Adding a kill must not perturb the rest of the schedule.
        let base = FaultPlan::generate(&ChaosConfig::default(), 4).unwrap();
        assert_eq!(base.events, plan.events);
        // Kill points ride `shifted` unchanged (the controller tracks
        // the global clock) and count toward non-emptiness.
        assert_eq!(plan.shifted(50.0).controller_kill, plan.controller_kill);
        assert!(!FaultPlan::none()
            .with_controller_kill(KillPoint::AfterRecord(3))
            .unwrap()
            .is_empty());
        assert!(FaultPlan::none()
            .with_controller_kill(KillPoint::MidReconfig(1))
            .unwrap()
            .without_controller_kill()
            .is_empty());
        assert!(FaultPlan::none()
            .with_controller_kill(KillPoint::AtTime(-3.0))
            .is_err());
        assert!(FaultPlan::generate(
            &ChaosConfig {
                controller_kills: 2,
                ..ChaosConfig::default()
            },
            4
        )
        .is_err());
    }

    #[test]
    fn model_skew_generation_and_shifting() {
        let cfg = ChaosConfig {
            model_skews: 1,
            skew_factor: (2.0, 3.0),
            ..ChaosConfig::default()
        };
        let plan = FaultPlan::generate(&cfg, 4).unwrap();
        let Some(skew) = plan.model_skew else {
            panic!("expected a seeded model skew");
        };
        assert!((0.0..cfg.horizon * 0.7).contains(&skew.time));
        assert!((2.0..=3.0).contains(&skew.factor));
        // Same seed, same skew.
        assert_eq!(
            FaultPlan::generate(&cfg, 4).unwrap().model_skew,
            plan.model_skew
        );
        // Enabling the skew must not perturb the rest of the schedule
        // (it is drawn after every other fault class).
        let base = FaultPlan::generate(&ChaosConfig::default(), 4).unwrap();
        assert_eq!(base.events, plan.events);
        assert_eq!(base.controller_kill, plan.controller_kill);
        // Skews ride `shifted` unchanged (deploy-time decision on the
        // global clock) and count toward non-emptiness.
        assert_eq!(plan.shifted(50.0).model_skew, plan.model_skew);
        assert!(!FaultPlan::none()
            .with_model_skew(ModelSkew {
                time: 10.0,
                factor: 2.0
            })
            .unwrap()
            .is_empty());
        // Invalid skews are rejected.
        assert!(FaultPlan::none()
            .with_model_skew(ModelSkew {
                time: -1.0,
                factor: 2.0
            })
            .is_err());
        assert!(FaultPlan::none()
            .with_model_skew(ModelSkew {
                time: 0.0,
                factor: 0.5
            })
            .is_err());
        assert!(FaultPlan::generate(
            &ChaosConfig {
                model_skews: 2,
                ..ChaosConfig::default()
            },
            4
        )
        .is_err());
        assert!(FaultPlan::generate(
            &ChaosConfig {
                model_skews: 1,
                skew_factor: (0.5, 2.0),
                ..ChaosConfig::default()
            },
            4
        )
        .is_err());
    }

    #[test]
    fn overlapping_windows_on_one_worker_are_rejected() {
        let w = WorkerId(0);
        let ev = |time, kind| FaultEvent { time, kind };
        let expect_err = |events: Vec<FaultEvent>, needle: &str| {
            let err = FaultPlan::new(events).unwrap().validate(2).unwrap_err();
            let msg = format!("{err}");
            assert!(msg.contains(needle), "expected {needle:?} in {msg:?}");
        };
        // Crash inside a partition, and the mirror image.
        expect_err(
            vec![
                ev(10.0, FaultKind::PartitionStart(w)),
                ev(15.0, FaultKind::Crash(w)),
                ev(20.0, FaultKind::PartitionEnd(w)),
                ev(30.0, FaultKind::Restore(w)),
            ],
            "inside a network partition",
        );
        expect_err(
            vec![
                ev(10.0, FaultKind::Crash(w)),
                ev(15.0, FaultKind::PartitionStart(w)),
                ev(20.0, FaultKind::Restore(w)),
                ev(30.0, FaultKind::PartitionEnd(w)),
            ],
            "inside a crash window",
        );
        // Same-kind windows nested on one worker.
        expect_err(
            vec![
                ev(10.0, FaultKind::Crash(w)),
                ev(15.0, FaultKind::Crash(w)),
                ev(20.0, FaultKind::Restore(w)),
                ev(30.0, FaultKind::Restore(w)),
            ],
            "overlapping crash windows",
        );
        expect_err(
            vec![
                ev(
                    10.0,
                    FaultKind::StragglerStart {
                        worker: w,
                        factor: 2.0,
                    },
                ),
                ev(
                    15.0,
                    FaultKind::StragglerStart {
                        worker: w,
                        factor: 3.0,
                    },
                ),
                ev(20.0, FaultKind::StragglerEnd(w)),
                ev(30.0, FaultKind::StragglerEnd(w)),
            ],
            "overlapping straggler windows",
        );
        expect_err(
            vec![
                ev(
                    10.0,
                    FaultKind::LinkDegradeStart {
                        worker: w,
                        factor: 0.5,
                    },
                ),
                ev(
                    15.0,
                    FaultKind::LinkDegradeStart {
                        worker: w,
                        factor: 0.5,
                    },
                ),
                ev(20.0, FaultKind::LinkDegradeEnd(w)),
                ev(30.0, FaultKind::LinkDegradeEnd(w)),
            ],
            "overlapping link-degrade windows",
        );
        expect_err(
            vec![
                ev(10.0, FaultKind::PartitionStart(w)),
                ev(15.0, FaultKind::PartitionStart(w)),
                ev(20.0, FaultKind::PartitionEnd(w)),
                ev(30.0, FaultKind::PartitionEnd(w)),
            ],
            "overlapping partition windows",
        );
        // A straggler overlapping a crash stays legal (a slow worker
        // can still die), same-kind windows on *different* workers are
        // independent, sequential windows on one worker are fine, and
        // orphan ends (shifted plans) never trip the scan.
        FaultPlan::new(vec![
            ev(
                10.0,
                FaultKind::StragglerStart {
                    worker: w,
                    factor: 2.0,
                },
            ),
            ev(12.0, FaultKind::Crash(w)),
            ev(20.0, FaultKind::Restore(w)),
            ev(25.0, FaultKind::StragglerEnd(w)),
        ])
        .unwrap()
        .validate(2)
        .unwrap();
        FaultPlan::new(vec![
            ev(10.0, FaultKind::PartitionStart(w)),
            ev(12.0, FaultKind::PartitionStart(WorkerId(1))),
            ev(20.0, FaultKind::PartitionEnd(w)),
            ev(25.0, FaultKind::PartitionEnd(WorkerId(1))),
        ])
        .unwrap()
        .validate(2)
        .unwrap();
        FaultPlan::new(vec![
            ev(10.0, FaultKind::Crash(w)),
            ev(20.0, FaultKind::Restore(w)),
            ev(30.0, FaultKind::Crash(w)),
            ev(40.0, FaultKind::Restore(w)),
        ])
        .unwrap()
        .validate(2)
        .unwrap();
        FaultPlan::new(vec![
            ev(5.0, FaultKind::Restore(w)),
            ev(6.0, FaultKind::PartitionEnd(w)),
            ev(7.0, FaultKind::StragglerEnd(w)),
            ev(8.0, FaultKind::LinkDegradeEnd(w)),
        ])
        .unwrap()
        .validate(2)
        .unwrap();
    }

    #[test]
    fn link_degrade_factors_are_validated() {
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(FaultPlan::new(vec![FaultEvent {
                time: 0.0,
                kind: FaultKind::LinkDegradeStart {
                    worker: WorkerId(0),
                    factor: bad,
                },
            }])
            .is_err());
        }
    }

    #[test]
    fn decider_faults_are_validated() {
        // Manual plans: duplicate kills and overlapping partitions on
        // one target are rejected; distinct targets are independent.
        let kill = |t| DeciderFault {
            target: t,
            kind: DeciderFaultKind::Kill(KillPoint::AfterRecord(3)),
        };
        let part = |t, from, until| DeciderFault {
            target: t,
            kind: DeciderFaultKind::Partition { from, until },
        };
        let plan = FaultPlan::none()
            .with_decider_fault(kill(DeciderTarget::Shard(0)))
            .unwrap()
            .with_decider_fault(kill(DeciderTarget::Arbiter))
            .unwrap()
            .with_decider_fault(part(DeciderTarget::Shard(1), 10.0, 20.0))
            .unwrap()
            .with_decider_fault(part(DeciderTarget::Shard(1), 20.0, 30.0))
            .unwrap();
        assert!(!plan.is_empty());
        assert_eq!(
            plan.decider_kill(DeciderTarget::Shard(0)),
            Some(KillPoint::AfterRecord(3))
        );
        assert_eq!(plan.decider_kill(DeciderTarget::Shard(1)), None);
        assert_eq!(
            plan.decider_partitions(DeciderTarget::Shard(1)),
            vec![(10.0, 20.0), (20.0, 30.0)]
        );
        assert!(plan.decider_partitions(DeciderTarget::Arbiter).is_empty());
        assert!(plan
            .clone()
            .with_decider_fault(kill(DeciderTarget::Shard(0)))
            .is_err());
        assert!(plan
            .clone()
            .with_decider_fault(part(DeciderTarget::Shard(1), 15.0, 25.0))
            .is_err());
        assert!(FaultPlan::none()
            .with_decider_fault(part(DeciderTarget::Shard(0), 10.0, 10.0))
            .is_err());
        assert!(FaultPlan::none()
            .with_decider_fault(part(DeciderTarget::Shard(0), -1.0, 10.0))
            .is_err());
        assert!(FaultPlan::none()
            .with_decider_fault(kill(DeciderTarget::Shard(0)))
            .unwrap()
            .with_decider_fault(DeciderFault {
                target: DeciderTarget::Shard(0),
                kind: DeciderFaultKind::Kill(KillPoint::AtTime(f64::NAN)),
            })
            .is_err());
        // Decider faults ride `shifted` unchanged: they live on the
        // global fleet clock.
        assert_eq!(plan.shifted(40.0).decider_faults, plan.decider_faults);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        assert!(FaultPlan::new(vec![FaultEvent {
            time: -1.0,
            kind: FaultKind::BlackoutStart,
        }])
        .is_err());
        assert!(FaultPlan::new(vec![FaultEvent {
            time: 0.0,
            kind: FaultKind::StragglerStart {
                worker: WorkerId(0),
                factor: 0.5,
            },
        }])
        .is_err());
        assert!(FaultPlan::none().with_metric_noise(1.0).is_err());
        let bad = ChaosConfig {
            slowdown: (0.5, 2.0),
            ..ChaosConfig::default()
        };
        assert!(FaultPlan::generate(&bad, 2).is_err());
        assert!(FaultPlan::generate(&ChaosConfig::default(), 0).is_err());
        let refers = FaultPlan::new(vec![FaultEvent {
            time: 0.0,
            kind: FaultKind::Crash(WorkerId(9)),
        }])
        .unwrap();
        assert!(refers.validate(2).is_err());
        assert!(refers.validate(10).is_ok());
    }
}
