//! Failure detection and self-healing re-placement.
//!
//! The paper's controller assumes a healthy cluster; this module adds the
//! machinery to survive an unhealthy one:
//!
//! * [`FailureDetector`] — a heartbeat/staleness detector fed from the
//!   per-window liveness bits the simulator reports. A worker is declared
//!   down after [`MISS_THRESHOLD`] consecutive *observed* windows without a
//!   heartbeat; windows inside a metric blackout are unobserved and
//!   freeze every staleness clock (a telemetry outage must not read as a
//!   whole-cluster failure).
//! * [`place_with_ladder`] — the graceful-degradation ladder used to
//!   re-place the job on the surviving workers. Rung 1 runs the full
//!   auto-tuned CAPS search (the search's `time_budget` covers its
//!   tuning); if that exhausts its budget or proves infeasible,
//!   rung 2 retries with unbounded thresholds in first-feasible mode
//!   (any plan beats no plan); if even that fails, rung 3 deals tasks
//!   round-robin across the remaining free slots. The ladder only errors
//!   when the survivors genuinely lack slot capacity.
//! * [`backoff`] — bounded retry ([`MAX_RETRIES`] attempts) with
//!   exponential backoff between re-placement attempts, mirroring
//!   restart-strategy backoff in production stream processors.

use capsys_core::{min_movement_plan, CapsError, CapsSearch, SearchConfig, Thresholds};
use capsys_model::{ModelError, Placement, PlanDiff, StateModel, WorkerId};
use capsys_placement::{CapsStrategy, PlacementContext, PlacementError, PlacementStrategy};
use capsys_util::json::{Json, ToJson};
use capsys_util::rng::SmallRng;

/// Consecutive observed windows without a heartbeat before a worker is
/// declared down. `1` would react fastest but confuse a single lost
/// report with a crash.
pub const MISS_THRESHOLD: usize = 2;

/// Re-placement attempts per failure before giving up and continuing
/// degraded. Each attempt walks the whole ladder.
pub const MAX_RETRIES: usize = 3;

/// Simulated seconds before the first retry.
pub const INITIAL_BACKOFF: f64 = 5.0;

/// Multiplier applied to the backoff after each failed attempt.
pub const BACKOFF_FACTOR: f64 = 2.0;

/// What one detector observation concluded.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Detection {
    /// Workers newly declared down this window.
    pub newly_down: Vec<WorkerId>,
    /// Workers whose heartbeat reappeared after being declared down.
    pub newly_up: Vec<WorkerId>,
    /// Workers newly classified as *isolated* this window: heartbeat
    /// missing past the threshold, but out-of-band activity evidence
    /// (fenced state-store writes still landing) proves the worker is
    /// running behind a partition. An isolated worker is NOT declared
    /// down — re-placing its tasks while the originals still run would
    /// double-place them and split the job's state.
    pub newly_isolated: Vec<WorkerId>,
}

/// Heartbeat/staleness failure detector.
///
/// Heartbeats ride the metrics reports: a worker that is alive at the end
/// of a reporting window has its `worker_alive` bit set. The detector
/// counts consecutive missing heartbeats per worker and declares a
/// failure at [`MISS_THRESHOLD`].
#[derive(Debug, Clone)]
pub struct FailureDetector {
    misses: Vec<usize>,
    down: Vec<bool>,
    /// Workers currently classified as isolated (running behind a
    /// partition) rather than down.
    isolated: Vec<bool>,
    /// Observation time of the first missed heartbeat of the current
    /// streak, per worker.
    stale_since: Vec<Option<f64>>,
}

impl FailureDetector {
    /// A detector for `num_workers` workers, all initially presumed up.
    pub fn new(num_workers: usize) -> FailureDetector {
        FailureDetector {
            misses: vec![0; num_workers],
            down: vec![false; num_workers],
            isolated: vec![false; num_workers],
            stale_since: vec![None; num_workers],
        }
    }

    /// Feeds one reporting window observed at simulated time `now`,
    /// with out-of-band activity evidence. `metrics_ok == false` marks
    /// the window unobserved (metric blackout): no staleness clock
    /// moves.
    ///
    /// `worker_activity[w] == true` means worker `w` demonstrably did
    /// work this window even if its heartbeat is missing — its fenced
    /// state-store writes kept arriving. Such a worker is *partitioned*,
    /// not crashed: at the miss threshold it is classified isolated
    /// (reported once via [`Detection::newly_isolated`]) instead of
    /// down, so the caller never re-places tasks that are still running
    /// on the far side of the partition. A worker whose activity
    /// evidence disappears is handled as a crash — its accumulated
    /// staleness declares it down on the next observed window. Workers
    /// beyond `worker_activity.len()` are treated as showing no
    /// activity (the legacy crash presumption).
    pub fn observe_with_evidence(
        &mut self,
        worker_alive: &[bool],
        worker_activity: &[bool],
        metrics_ok: bool,
        now: f64,
    ) -> Detection {
        let mut det = Detection::default();
        if !metrics_ok {
            return det;
        }
        for (w, alive) in worker_alive.iter().enumerate() {
            if w >= self.misses.len() {
                break;
            }
            if *alive {
                self.misses[w] = 0;
                self.stale_since[w] = None;
                self.isolated[w] = false;
                if self.down[w] {
                    self.down[w] = false;
                    det.newly_up.push(WorkerId(w));
                }
            } else {
                if self.misses[w] == 0 {
                    self.stale_since[w] = Some(now);
                }
                self.misses[w] += 1;
                let active = worker_activity.get(w).copied().unwrap_or(false);
                if self.misses[w] >= MISS_THRESHOLD {
                    if active {
                        if !self.isolated[w] && !self.down[w] {
                            self.isolated[w] = true;
                            det.newly_isolated.push(WorkerId(w));
                        }
                    } else if !self.down[w] {
                        self.down[w] = true;
                        self.isolated[w] = false;
                        det.newly_down.push(WorkerId(w));
                    }
                }
            }
        }
        det
    }

    /// When the current missing-heartbeat streak of `w` started, if one
    /// is running.
    pub fn stale_since(&self, w: WorkerId) -> Option<f64> {
        self.stale_since.get(w.0).copied().flatten()
    }

    /// Whether a worker is currently considered down.
    pub fn is_down(&self, w: WorkerId) -> bool {
        self.down.get(w.0).copied().unwrap_or(false)
    }

    /// Whether a worker is currently classified as isolated (running
    /// behind a partition, heartbeat missing, activity present).
    pub fn is_isolated(&self, w: WorkerId) -> bool {
        self.isolated.get(w.0).copied().unwrap_or(false)
    }

    /// Every worker currently classified as isolated.
    pub fn isolated_workers(&self) -> Vec<WorkerId> {
        self.isolated
            .iter()
            .enumerate()
            .filter_map(|(w, i)| i.then_some(WorkerId(w)))
            .collect()
    }

    /// Every worker currently considered down.
    pub fn down_workers(&self) -> Vec<WorkerId> {
        self.down
            .iter()
            .enumerate()
            .filter_map(|(w, d)| d.then_some(WorkerId(w)))
            .collect()
    }

    /// How many consecutive observed windows `w`'s heartbeat has been
    /// missing.
    pub fn staleness(&self, w: WorkerId) -> usize {
        self.misses.get(w.0).copied().unwrap_or(0)
    }
}

/// Which rung of the degradation ladder produced a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// The full auto-tuned CAPS search succeeded.
    Caps,
    /// CAPS with unbounded thresholds, first feasible plan.
    RelaxedCaps,
    /// Round-robin over the remaining free slots.
    RoundRobin,
}

impl LadderRung {
    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            LadderRung::Caps => "caps",
            LadderRung::RelaxedCaps => "relaxed-caps",
            LadderRung::RoundRobin => "round-robin",
        }
    }

    /// The inverse of [`LadderRung::name`], for journal decoding.
    pub fn from_name(name: &str) -> Option<LadderRung> {
        match name {
            "caps" => Some(LadderRung::Caps),
            "relaxed-caps" => Some(LadderRung::RelaxedCaps),
            "round-robin" => Some(LadderRung::RoundRobin),
            _ => None,
        }
    }
}

/// Recovery-policy settings. The detector and retry policy are the
/// constants above.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Base search configuration for the ladder's CAPS rungs. Its
    /// `free_slots` is overwritten with the surviving workers' slots at
    /// recovery time.
    pub search: SearchConfig,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            search: SearchConfig::auto_tuned(),
        }
    }
}

/// Backoff delay before attempt `attempt` (0-based; attempt 0 runs
/// immediately on detection).
pub fn backoff(attempt: usize) -> f64 {
    if attempt == 0 {
        return 0.0;
    }
    INITIAL_BACKOFF * BACKOFF_FACTOR.powi(attempt as i32 - 1)
}

/// One completed recovery, as recorded in the closed-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The worker whose failure triggered this recovery.
    pub worker: WorkerId,
    /// Simulated time the worker's heartbeat first went missing.
    pub stale_since: f64,
    /// Simulated time the detector declared it down.
    pub detected_at: f64,
    /// `detected_at - stale_since`: the staleness the detector required
    /// before acting.
    pub detection_lag: f64,
    /// Simulated time the replacement plan was deployed.
    pub recovered_at: f64,
    /// `recovered_at - stale_since`: first silence to repaired plan (the
    /// MTTR numerator).
    pub time_to_recover: f64,
    /// Placement attempts made (1 = first attempt succeeded).
    pub plans_tried: usize,
    /// The ladder rung that produced the deployed plan.
    pub rung: LadderRung,
}

impl ToJson for RecoveryEvent {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("worker".into(), Json::Num(self.worker.0 as f64)),
            ("stale_since".into(), Json::Num(self.stale_since)),
            ("detected_at".into(), Json::Num(self.detected_at)),
            ("detection_lag".into(), Json::Num(self.detection_lag)),
            ("recovered_at".into(), Json::Num(self.recovered_at)),
            ("time_to_recover".into(), Json::Num(self.time_to_recover)),
            ("plans_tried".into(), Json::Num(self.plans_tried as f64)),
            ("rung".into(), Json::Str(self.rung.name().to_string())),
        ])
    }
}

/// Places the job via the graceful-degradation ladder.
///
/// Tries, in order: auto-tuned CAPS (rung 1), relaxed-threshold
/// first-feasible CAPS (rung 2), round-robin over free slots (rung 3).
/// Budget exhaustion and infeasibility descend the ladder; any other
/// error (an invalid model, say) propagates. The only error the ladder
/// itself returns is genuine lack of slot capacity.
pub fn place_with_ladder(
    ctx: &PlacementContext<'_>,
    search: &SearchConfig,
    rng: &mut SmallRng,
) -> Result<(Placement, LadderRung), PlacementError> {
    // Rung 1: the full search, its tuning included in the time budget.
    match CapsStrategy::new(search.clone()).place(ctx, rng) {
        Ok(p) => return Ok((p, LadderRung::Caps)),
        Err(e) if descends(&e) => {}
        Err(e) => return Err(e),
    }

    // Rung 2: any feasible plan beats no plan.
    let relaxed = SearchConfig {
        thresholds: Some(Thresholds::unbounded()),
        first_feasible: true,
        max_plans: 1,
        ..search.clone()
    };
    match CapsStrategy::new(relaxed).place(ctx, rng) {
        Ok(p) => return Ok((p, LadderRung::RelaxedCaps)),
        Err(e) if descends(&e) => {}
        Err(e) => return Err(e),
    }

    // Rung 3: deterministic round-robin over whatever slots remain.
    round_robin_free(ctx, search.free_slots.as_deref()).map(|p| (p, LadderRung::RoundRobin))
}

/// Minimum-movement re-placement for incremental migration: runs the
/// full CAPS search (its tuning included in the time budget, like rung 1
/// of the ladder) and, among the feasible plans within `epsilon`
/// of the optimum, picks the one cheapest to reach from `incumbent` —
/// fewest state bytes moved, ties broken by move count, then plan cost.
/// Errors that would descend the ladder are returned as-is; the caller
/// falls back to a whole-plan redeploy.
pub fn place_with_movemin(
    ctx: &PlacementContext<'_>,
    search: &SearchConfig,
    epsilon: f64,
    incumbent: &Placement,
    state: &StateModel,
) -> Result<(Placement, PlanDiff), PlacementError> {
    let mut cfg = search.clone();
    // The tolerance band needs a population of feasible plans to choose
    // from; first-feasible or a one-plan cap would collapse the band to
    // the optimum alone.
    cfg.first_feasible = false;
    cfg.max_plans = cfg.max_plans.max(4096);
    let caps = CapsSearch::new(ctx.logical, ctx.physical, ctx.cluster, ctx.loads)
        .map_err(PlacementError::Caps)?;
    let outcome =
        min_movement_plan(&caps, &cfg, epsilon, incumbent, state).map_err(PlacementError::Caps)?;
    Ok((outcome.chosen.plan, outcome.diff))
}

/// Whether a CAPS failure should descend to the next rung instead of
/// propagating.
pub(crate) fn descends(e: &PlacementError) -> bool {
    matches!(
        e,
        PlacementError::Caps(CapsError::NoFeasiblePlan | CapsError::BudgetExhausted)
    )
}

/// Deals tasks round-robin across workers, honoring per-worker free-slot
/// counts (`None` = every slot of every worker is free). Fails only when
/// the free slots cannot hold the tasks.
pub fn round_robin_free(
    ctx: &PlacementContext<'_>,
    free_slots: Option<&[usize]>,
) -> Result<Placement, PlacementError> {
    let per_worker = ctx.cluster.slots_per_worker();
    let mut remaining: Vec<usize> = match free_slots {
        Some(f) => f.iter().map(|&s| s.min(per_worker)).collect(),
        None => vec![per_worker; ctx.cluster.num_workers()],
    };
    remaining.resize(ctx.cluster.num_workers(), 0);
    let tasks = ctx.physical.num_tasks();
    let slots: usize = remaining.iter().sum();
    if slots < tasks {
        return Err(PlacementError::Model(ModelError::InsufficientSlots {
            tasks,
            slots,
        }));
    }
    let mut assignment = vec![WorkerId(0); tasks];
    let mut w = 0usize;
    for slot in assignment.iter_mut() {
        while remaining[w] == 0 {
            w = (w + 1) % remaining.len();
        }
        *slot = WorkerId(w);
        remaining[w] -= 1;
        w = (w + 1) % remaining.len();
    }
    let plan = Placement::new(assignment);
    plan.validate(ctx.physical, ctx.cluster)?;
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, ResourceProfile, WorkerSpec,
    };
    use capsys_util::rng::SeedableRng;
    use std::collections::HashMap;
    use std::time::Duration;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let h = b.operator(
            "win",
            OperatorKind::Window,
            4,
            ResourceProfile::new(0.002, 500.0, 50.0, 0.5),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
        );
        b.edge(s, h, ConnectionPattern::Rebalance);
        b.edge(h, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(3, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn detector_requires_consecutive_misses() {
        let mut d = FailureDetector::new(2);
        // One miss: not yet down.
        let det = d.observe_with_evidence(&[true, false], &[], true, 5.0);
        assert!(det.newly_down.is_empty());
        assert_eq!(d.staleness(WorkerId(1)), 1);
        assert_eq!(d.stale_since(WorkerId(1)), Some(5.0));
        // Heartbeat returns: clock resets.
        let det = d.observe_with_evidence(&[true, true], &[], true, 10.0);
        assert!(det.newly_down.is_empty() && det.newly_up.is_empty());
        assert_eq!(d.staleness(WorkerId(1)), 0);
        assert_eq!(d.stale_since(WorkerId(1)), None);
        // Two consecutive misses: declared down, exactly once.
        d.observe_with_evidence(&[true, false], &[], true, 15.0);
        let det = d.observe_with_evidence(&[true, false], &[], true, 20.0);
        assert_eq!(det.newly_down, vec![WorkerId(1)]);
        assert_eq!(d.stale_since(WorkerId(1)), Some(15.0));
        let det = d.observe_with_evidence(&[true, false], &[], true, 25.0);
        assert!(det.newly_down.is_empty());
        assert!(d.is_down(WorkerId(1)));
        // Recovery is reported.
        let det = d.observe_with_evidence(&[true, true], &[], true, 30.0);
        assert_eq!(det.newly_up, vec![WorkerId(1)]);
        assert!(!d.is_down(WorkerId(1)));
    }

    #[test]
    fn blackout_windows_freeze_staleness() {
        let mut d = FailureDetector::new(1);
        d.observe_with_evidence(&[false], &[], true, 5.0);
        // Blackout windows must not advance (nor reset) the clock.
        for i in 0..5 {
            let det = d.observe_with_evidence(&[false], &[], false, 10.0 + i as f64);
            assert!(det.newly_down.is_empty());
        }
        assert_eq!(d.staleness(WorkerId(0)), 1);
        assert_eq!(d.stale_since(WorkerId(0)), Some(5.0));
        let det = d.observe_with_evidence(&[false], &[], true, 20.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
    }

    #[test]
    fn blackout_exactly_at_threshold_window_defers_declaration() {
        // The worker's miss count stands one short of the threshold and
        // the window that would tip it over is a blackout: the
        // declaration must wait for the next *observed* window, and the
        // staleness clock must still point at the first missed
        // heartbeat, not at the blackout or the declaration window.
        let mut d = FailureDetector::new(1);
        let det = d.observe_with_evidence(&[false], &[], true, 5.0);
        assert!(det.newly_down.is_empty());
        assert_eq!(d.staleness(WorkerId(0)), 1);
        // This window would have been miss #2 == threshold, but it is
        // unobserved.
        let det = d.observe_with_evidence(&[false], &[], false, 10.0);
        assert!(det.newly_down.is_empty());
        assert!(!d.is_down(WorkerId(0)));
        assert_eq!(d.staleness(WorkerId(0)), 1);
        // The first observed window after the blackout declares it.
        let det = d.observe_with_evidence(&[false], &[], true, 15.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
        assert_eq!(d.stale_since(WorkerId(0)), Some(5.0));
    }

    #[test]
    fn restore_resets_staleness_clock_for_next_outage() {
        // A worker that comes back after being declared down must start
        // its next outage with a fresh staleness clock: the second
        // declaration's stale_since belongs to the second outage, and
        // the full threshold must elapse again.
        let mut d = FailureDetector::new(1);
        d.observe_with_evidence(&[false], &[], true, 5.0);
        let det = d.observe_with_evidence(&[false], &[], true, 10.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
        assert_eq!(d.stale_since(WorkerId(0)), Some(5.0));
        // Heartbeat returns: fully healthy again.
        let det = d.observe_with_evidence(&[true], &[], true, 15.0);
        assert_eq!(det.newly_up, vec![WorkerId(0)]);
        assert_eq!(d.staleness(WorkerId(0)), 0);
        assert_eq!(d.stale_since(WorkerId(0)), None);
        // Second outage: one miss is again not enough...
        let det = d.observe_with_evidence(&[false], &[], true, 20.0);
        assert!(det.newly_down.is_empty());
        assert!(!d.is_down(WorkerId(0)));
        // ...and the new streak's clock starts at the new first miss.
        let det = d.observe_with_evidence(&[false], &[], true, 25.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
        assert_eq!(d.stale_since(WorkerId(0)), Some(20.0));
    }

    #[test]
    fn activity_evidence_classifies_partition_not_crash() {
        let mut d = FailureDetector::new(2);
        // Worker 0 crashes (no heartbeat, no activity); worker 1 is
        // partitioned (no heartbeat, but its fenced writes keep landing).
        d.observe_with_evidence(&[false, false], &[false, true], true, 5.0);
        let det = d.observe_with_evidence(&[false, false], &[false, true], true, 10.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
        assert_eq!(det.newly_isolated, vec![WorkerId(1)]);
        assert!(d.is_down(WorkerId(0)));
        assert!(!d.is_down(WorkerId(1)), "isolated workers are not down");
        assert!(d.is_isolated(WorkerId(1)));
        assert_eq!(d.isolated_workers(), vec![WorkerId(1)]);
        // Isolation is reported exactly once.
        let det = d.observe_with_evidence(&[false, false], &[false, true], true, 15.0);
        assert!(det.newly_isolated.is_empty() && det.newly_down.is_empty());
        // The partition heals: heartbeat returns, isolation clears
        // without ever having triggered a re-placement.
        let det = d.observe_with_evidence(&[false, true], &[false, true], true, 20.0);
        assert!(det.newly_up.is_empty(), "worker 1 was never declared down");
        assert!(!d.is_isolated(WorkerId(1)));
        assert_eq!(d.staleness(WorkerId(1)), 0);
    }

    #[test]
    fn isolated_worker_whose_activity_stops_is_declared_down() {
        // A partition that turns into a crash: once the activity
        // evidence disappears, the accumulated staleness declares the
        // worker down on the next observed window.
        let mut d = FailureDetector::new(1);
        d.observe_with_evidence(&[false], &[true], true, 5.0);
        let det = d.observe_with_evidence(&[false], &[true], true, 10.0);
        assert_eq!(det.newly_isolated, vec![WorkerId(0)]);
        let det = d.observe_with_evidence(&[false], &[false], true, 15.0);
        assert_eq!(det.newly_down, vec![WorkerId(0)]);
        assert!(!d.is_isolated(WorkerId(0)));
        assert_eq!(
            d.stale_since(WorkerId(0)),
            Some(5.0),
            "one continuous streak"
        );
    }

    #[test]
    fn observe_without_evidence_keeps_legacy_crash_presumption() {
        // A missing heartbeat with no evidence channel is a crash.
        let mut a = FailureDetector::new(2);
        for (t, alive) in [
            (5.0, [true, false]),
            (10.0, [false, false]),
            (15.0, [false, false]),
        ] {
            let da = a.observe_with_evidence(&alive, &[], true, t);
            assert!(da.newly_isolated.is_empty());
        }
        assert!(a.is_down(WorkerId(0)) && a.is_down(WorkerId(1)));
    }

    #[test]
    fn ladder_rung1_on_healthy_cluster() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let (plan, rung) = place_with_ladder(&ctx, &SearchConfig::auto_tuned(), &mut rng).unwrap();
        assert_eq!(rung, LadderRung::Caps);
        plan.validate(&p, &c).unwrap();
    }

    #[test]
    fn ladder_falls_to_round_robin_on_zero_budget() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let cfg = SearchConfig {
            time_budget: Some(Duration::ZERO),
            ..SearchConfig::auto_tuned()
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let (plan, rung) = place_with_ladder(&ctx, &cfg, &mut rng).unwrap();
        assert_eq!(rung, LadderRung::RoundRobin);
        plan.validate(&p, &c).unwrap();
    }

    #[test]
    fn movemin_on_zero_budget_is_budget_exhausted() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let (incumbent, _) =
            place_with_ladder(&ctx, &SearchConfig::auto_tuned(), &mut rng).unwrap();
        let state = StateModel::derive(&g, &p, 1000.0).unwrap();
        let cfg = SearchConfig {
            time_budget: Some(Duration::ZERO),
            ..SearchConfig::auto_tuned()
        };
        match place_with_movemin(&ctx, &cfg, 0.05, &incumbent, &state) {
            Err(e) => {
                assert!(matches!(
                    e,
                    PlacementError::Caps(CapsError::BudgetExhausted)
                ));
                assert!(descends(&e));
            }
            Ok(_) => panic!("a zero time budget placed a plan"),
        }
    }

    #[test]
    fn round_robin_respects_free_slots() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        // Worker 1 is down: its slots are unavailable.
        let plan = round_robin_free(&ctx, Some(&[4, 0, 4])).unwrap();
        let counts = plan.worker_counts(3);
        assert_eq!(counts[1], 0);
        assert_eq!(counts.iter().sum::<usize>(), p.num_tasks());
        // 8 tasks across two workers with 4 slots each: both full.
        assert_eq!(counts[0], 4);
        assert_eq!(counts[2], 4);
    }

    #[test]
    fn round_robin_reports_insufficient_capacity() {
        let (g, p, c, lm) = fixture();
        let ctx = PlacementContext {
            logical: &g,
            physical: &p,
            cluster: &c,
            loads: &lm,
        };
        let err = round_robin_free(&ctx, Some(&[4, 0, 0])).unwrap_err();
        assert!(matches!(
            err,
            PlacementError::Model(ModelError::InsufficientSlots { .. })
        ));
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff(0), 0.0);
        assert_eq!(backoff(1), 5.0);
        assert_eq!(backoff(2), 10.0);
        assert_eq!(backoff(3), 20.0);
    }
}
