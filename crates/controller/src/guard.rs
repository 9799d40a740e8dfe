//! The reconfiguration safety governor: canary probation, regression
//! detection, quarantine, and hysteresis.
//!
//! CAPSys's closed loop trusts its cost model: once CAPS picks a plan
//! the controller deploys it and moves on. This module is the safety
//! layer for when that trust is misplaced — interference, stale
//! profiles, or an outright mispredicting model (the simulator's
//! `ModelSkew` fault) can make an "optimal" plan regress in practice.
//!
//! The governor is a deterministic state machine fed one sample per
//! policy window:
//!
//! ```text
//!            on_scaling_deploy (baseline established)
//!   Baseline ─────────────────────────────────────────▶ Probation
//!      ▲                                                   │
//!      │  Committed: canary met (1-θ)·baseline             │ after
//!      ├───────────────────────────────────────────────────┤ probation
//!      │  RolledBack: canary regressed → restore           │ windows
//!      │  last-known-good, quarantine the canary,          │
//!      │  start (exponentially growing) cooldown           │
//!      └───────────────────────────────────────────────────┘
//! ```
//!
//! *Baseline* tracks a rolling window of tracking ratio
//! (throughput / DS2 target) and backpressure for the trusted plan.
//! A scaling redeploy snapshots that baseline and enters *Probation*:
//! the new plan is a canary judged after [`PROBATION_WINDOWS`] policy
//! windows. A canary whose average tracking ratio falls more than
//! [`REGRESSION_THRESHOLD`] below the baseline (or whose backpressure
//! rises by more than the threshold) is *regressed*: the governor asks
//! the closed loop to restore the last-known-good plan through the
//! same two-phase epoch-fenced redeploy as any other reconfiguration,
//! journaled as a `Rollback` record. The regressed plan is quarantined
//! (TTL-based, matched on its parallelism vector — the placement
//! search is deterministic, so the same recommendation reproduces the
//! same plan) and a cooldown suppresses further scaling actions; the
//! cooldown grows exponentially with consecutive rollbacks, and a hard
//! cap on total rollbacks bounds oscillation outright.
//!
//! Recovery redeploys are never canaried: a failure re-placement is
//! forced, not chosen, and judging it against a healthy-cluster
//! baseline would guarantee a spurious rollback. A recovery during
//! probation aborts the probation.
//!
//! Determinism: every transition is a pure function of the journaled
//! decision sequence and the simulated metrics, both of which replay
//! byte-identically after a crash — so a recovered governor lands in
//! exactly the state the dead one was in.

use std::collections::VecDeque;

use capsys_util::json::{Json, ToJson};

/// Small slack for time comparisons on window boundaries, matching the
/// closed loop's fault-injection slack.
const TIME_EPS: f64 = 1e-9;

/// How the governor judges a canary against its pre-deploy baseline.
///
/// The tracking ratio (throughput / DS2 target) bakes the *offered
/// load* into the judgment: if a flash crowd triples the sources while
/// a canary is on probation, its tracking ratio collapses even though
/// the plan is delivering every record the hardware can — and the
/// absolute comparison rolls back a perfectly good plan. Drift-aware
/// judgment normalizes by load: it asks whether the canary still
/// delivers the *demonstrated capacity* of the trusted plan, and only
/// treats backpressure as damning when the offered load is one the
/// trusted plan had shown it could absorb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Raw comparison of tracking ratio and backpressure against the
    /// baseline averages. Vulnerable to false rollbacks under load
    /// growth; kept for A/B experiments (`exp_hostile`).
    Absolute,
    /// Load-normalized comparison (the default). With `C` the rolling
    /// mean throughput the trusted plan demonstrated, a canary is
    /// regressed iff
    ///
    /// * its throughput falls below `(1-θ)·min(target, C)` — it fails
    ///   to deliver even the demonstrated capacity, at a load where
    ///   that capacity was expected — or
    /// * its backpressure rises past the baseline by more than `θ`
    ///   *while the offered load is within `C·(1+θ)`* — pressure at a
    ///   load the trusted plan had absorbed cleanly.
    ///
    /// A flash crowd or organic growth pushes `target` far above `C`:
    /// the throughput clause then only demands the demonstrated
    /// capacity, and the backpressure clause is gated off entirely.
    DriftAware,
}

/// Policy windows a canary plan is observed before judgment.
pub const PROBATION_WINDOWS: usize = 3;

/// Relative regression that triggers a rollback (`θ`): the canary is
/// regressed when its tracking ratio falls below `(1 - θ) · baseline`,
/// or its backpressure exceeds the baseline by more than `θ`.
pub const REGRESSION_THRESHOLD: f64 = 0.1;

/// Baseline samples required before a deploy can be judged (also the
/// rolling-average length). A deploy without enough baseline is adopted
/// unjudged, as the loop did before the governor existed.
pub const BASELINE_WINDOWS: usize = 3;

/// How long a regressed plan stays quarantined, seconds.
pub const QUARANTINE_TTL: f64 = 600.0;

/// Cooldown after a rollback during which no scaling redeploy is
/// attempted, seconds.
pub const COOLDOWN: f64 = 30.0;

/// Multiplicative cooldown growth per consecutive rollback.
pub const COOLDOWN_FACTOR: f64 = 2.0;

/// Hard cap on rollbacks per run; beyond it the governor stops rolling
/// back (bounding oscillation) and leaves plans unjudged.
pub const MAX_ROLLBACKS: usize = 3;

/// Settings of the safety governor. Every other policy value is one of
/// the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardConfig {
    /// How canaries are judged: load-normalized ([`BaselineMode::DriftAware`],
    /// the default) or raw ([`BaselineMode::Absolute`]).
    pub baseline_mode: BaselineMode,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            baseline_mode: BaselineMode::DriftAware,
        }
    }
}

/// A deployed plan, frozen for comparison and restoration.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSnapshot {
    /// Per-operator parallelism.
    pub parallelism: Vec<usize>,
    /// Task-to-worker assignment (raw worker indices).
    pub assignment: Vec<usize>,
    /// The fencing epoch the plan was deployed under.
    pub epoch: u64,
}

/// What the governor asks the closed loop to do when a canary regresses.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackRequest {
    /// The last-known-good plan to restore.
    pub to: PlanSnapshot,
    /// The regressed canary being undone.
    pub regressed: PlanSnapshot,
    /// When the canary was deployed.
    pub deployed_at: f64,
    /// Average tracking ratio of the pre-deploy baseline.
    pub baseline_tracking: f64,
    /// Average tracking ratio observed during probation.
    pub observed_tracking: f64,
}

/// One applied rollback, surfaced on the closed-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RollbackEvent {
    /// Simulated time the rollback was applied (also when the
    /// regression was detected — judgment and restore share a window).
    pub time: f64,
    /// Epoch of the regressed canary deployment.
    pub from_epoch: u64,
    /// Fresh epoch of the restore deployment.
    pub to_epoch: u64,
    /// When the regressed canary had been deployed.
    pub deployed_at: f64,
    /// Seconds spent degraded: deploy of the canary to its rollback.
    pub degraded_for: f64,
    /// Average tracking ratio of the pre-deploy baseline.
    pub baseline_tracking: f64,
    /// Average tracking ratio observed during probation.
    pub observed_tracking: f64,
    /// End of the post-rollback cooldown.
    pub cooldown_until: f64,
}

impl ToJson for RollbackEvent {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("time".into(), Json::Num(self.time)),
            ("from_epoch".into(), Json::Num(self.from_epoch as f64)),
            ("to_epoch".into(), Json::Num(self.to_epoch as f64)),
            ("deployed_at".into(), Json::Num(self.deployed_at)),
            ("degraded_for".into(), Json::Num(self.degraded_for)),
            (
                "baseline_tracking".into(),
                Json::Num(self.baseline_tracking),
            ),
            (
                "observed_tracking".into(),
                Json::Num(self.observed_tracking),
            ),
            ("cooldown_until".into(), Json::Num(self.cooldown_until)),
        ])
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Probation {
    /// The canary under judgment.
    plan: PlanSnapshot,
    /// The plan to restore if the canary regresses.
    prior: PlanSnapshot,
    deployed_at: f64,
    baseline_tracking: f64,
    baseline_backpressure: f64,
    /// Mean throughput the trusted plan demonstrated over the baseline
    /// window — the load-normalized yardstick of `DriftAware` judgment.
    baseline_capacity: f64,
    windows: usize,
    sum_tracking: f64,
    sum_backpressure: f64,
    sum_throughput: f64,
    sum_target: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum Phase {
    Baseline,
    Probation(Box<Probation>),
}

#[derive(Debug, Clone, PartialEq)]
struct QuarantineEntry {
    parallelism: Vec<usize>,
    expires_at: f64,
}

/// The reconfiguration safety governor (see module docs).
#[derive(Debug, Clone)]
pub struct SafetyGovernor {
    config: GuardConfig,
    phase: Phase,
    /// Rolling `(tracking ratio, backpressure, throughput)` samples of
    /// the trusted plan; untouched while a canary is on probation.
    baseline: VecDeque<(f64, f64, f64)>,
    /// The most recent plan the governor trusts: the initial
    /// deployment, then every committed canary (and every forced
    /// recovery or unjudged deployment — they are running, so they are
    /// what a rollback must not undo).
    last_known_good: PlanSnapshot,
    quarantine: Vec<QuarantineEntry>,
    cooldown_until: f64,
    consecutive_rollbacks: usize,
    rollbacks_total: usize,
}

impl SafetyGovernor {
    /// A governor trusting `initial` (the epoch-0 deployment).
    pub fn new(config: GuardConfig, initial: PlanSnapshot) -> SafetyGovernor {
        SafetyGovernor {
            config,
            phase: Phase::Baseline,
            baseline: VecDeque::new(),
            last_known_good: initial,
            quarantine: Vec::new(),
            cooldown_until: f64::NEG_INFINITY,
            consecutive_rollbacks: 0,
            rollbacks_total: 0,
        }
    }

    /// The governor's configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Feeds one policy window's aggregate metrics. Returns a rollback
    /// request when a canary just failed probation; the caller applies
    /// the restore deployment and then reports it via
    /// [`SafetyGovernor::on_rollback`].
    pub fn observe_window(
        &mut self,
        time: f64,
        throughput: f64,
        target: f64,
        backpressure: f64,
    ) -> Option<RollbackRequest> {
        self.quarantine.retain(|q| q.expires_at > time + TIME_EPS);
        // A poisoned window (non-finite metrics escaped the sanitizer)
        // is skipped rather than judged.
        if !throughput.is_finite() || !target.is_finite() || !backpressure.is_finite() {
            return None;
        }
        let tracking = if target > TIME_EPS {
            (throughput / target).max(0.0)
        } else {
            1.0
        };
        let backpressure = backpressure.clamp(0.0, 1.0);
        match &mut self.phase {
            Phase::Baseline => {
                self.baseline
                    .push_back((tracking, backpressure, throughput.max(0.0)));
                while self.baseline.len() > BASELINE_WINDOWS {
                    self.baseline.pop_front();
                }
                None
            }
            Phase::Probation(p) => {
                p.windows += 1;
                p.sum_tracking += tracking;
                p.sum_backpressure += backpressure;
                p.sum_throughput += throughput.max(0.0);
                p.sum_target += target.max(0.0);
                if p.windows < PROBATION_WINDOWS {
                    return None;
                }
                let observed_tracking = p.sum_tracking / p.windows as f64;
                let observed_bp = p.sum_backpressure / p.windows as f64;
                let observed_throughput = p.sum_throughput / p.windows as f64;
                let observed_target = p.sum_target / p.windows as f64;
                let theta = REGRESSION_THRESHOLD;
                let regressed = match self.config.baseline_mode {
                    BaselineMode::Absolute => {
                        observed_tracking < (1.0 - theta) * p.baseline_tracking
                            || observed_bp > p.baseline_backpressure + theta
                    }
                    BaselineMode::DriftAware => {
                        // The canary only owes what the trusted plan
                        // demonstrated it could deliver; backpressure
                        // only convicts at a load the trusted plan had
                        // absorbed. See `BaselineMode` docs.
                        let sustainable = observed_target.min(p.baseline_capacity);
                        observed_throughput < (1.0 - theta) * sustainable
                            || (observed_bp > p.baseline_backpressure + theta
                                && observed_target <= p.baseline_capacity * (1.0 + theta))
                    }
                };
                let p = *p.clone();
                self.phase = Phase::Baseline;
                if !regressed {
                    // Committed: the canary is the new trusted plan.
                    self.last_known_good = p.plan;
                    self.consecutive_rollbacks = 0;
                    self.baseline.clear();
                    self.baseline
                        .push_back((observed_tracking, observed_bp, observed_throughput));
                    return None;
                }
                if self.rollbacks_total >= MAX_ROLLBACKS {
                    // Rollback budget exhausted: stay put (the canary
                    // keeps running, unjudged and untrusted) rather
                    // than oscillate further.
                    return None;
                }
                // RolledBack: the trusted plan's baseline samples stay
                // valid — it is the plan being restored.
                Some(RollbackRequest {
                    to: self.last_known_good.clone(),
                    regressed: p.plan,
                    deployed_at: p.deployed_at,
                    baseline_tracking: p.baseline_tracking,
                    observed_tracking,
                })
            }
        }
    }

    /// Reports a scaling redeploy: `new` just went live at `time`. With
    /// enough baseline the canary enters probation; without, it is
    /// adopted unjudged (pre-governor behavior).
    pub fn on_scaling_deploy(&mut self, time: f64, new: PlanSnapshot) {
        let (baseline_tracking, baseline_backpressure, baseline_capacity, enough) =
            match &self.phase {
                // A canary replaced mid-probation (DS2 re-scaled before
                // judgment): the replacement is judged against the original
                // baseline, and the rollback target stays the plan trusted
                // before the first canary.
                Phase::Probation(p) => (
                    p.baseline_tracking,
                    p.baseline_backpressure,
                    p.baseline_capacity,
                    true,
                ),
                Phase::Baseline => {
                    let n = self.baseline.len();
                    if n >= BASELINE_WINDOWS {
                        let (st, sb, sc) = self
                            .baseline
                            .iter()
                            .fold((0.0, 0.0, 0.0), |(st, sb, sc), (t, b, c)| {
                                (st + t, sb + b, sc + c)
                            });
                        (st / n as f64, sb / n as f64, sc / n as f64, true)
                    } else {
                        (0.0, 0.0, 0.0, false)
                    }
                }
            };
        if !enough {
            self.last_known_good = new;
            self.baseline.clear();
            self.phase = Phase::Baseline;
            return;
        }
        let prior = self.last_known_good.clone();
        self.phase = Phase::Probation(Box::new(Probation {
            plan: new,
            prior,
            deployed_at: time,
            baseline_tracking,
            baseline_backpressure,
            baseline_capacity,
            windows: 0,
            sum_tracking: 0.0,
            sum_backpressure: 0.0,
            sum_throughput: 0.0,
            sum_target: 0.0,
        }));
    }

    /// Reports a recovery redeploy: forced re-placements are never
    /// canaried, and any running probation is aborted (the cluster the
    /// baseline was measured on no longer exists).
    pub fn on_recovery_deploy(&mut self, _time: f64, new: PlanSnapshot) {
        self.phase = Phase::Baseline;
        self.baseline.clear();
        self.last_known_good = new;
    }

    /// Reports an applied rollback: quarantines the regressed plan,
    /// bumps the rollback counters, and starts the cooldown. Returns
    /// the end of the cooldown.
    pub fn on_rollback(&mut self, time: f64, req: &RollbackRequest) -> f64 {
        self.quarantine.push(QuarantineEntry {
            parallelism: req.regressed.parallelism.clone(),
            expires_at: time + QUARANTINE_TTL,
        });
        self.consecutive_rollbacks += 1;
        self.rollbacks_total += 1;
        let growth = COOLDOWN_FACTOR.powi(self.consecutive_rollbacks as i32 - 1);
        self.cooldown_until = time + COOLDOWN * growth;
        // The restored plan is (still) the trusted one; its baseline
        // samples were not polluted during probation.
        self.phase = Phase::Baseline;
        self.cooldown_until
    }

    /// Whether scaling actions are suppressed at `time` (hysteresis
    /// after a rollback).
    pub fn in_cooldown(&self, time: f64) -> bool {
        time + TIME_EPS < self.cooldown_until
    }

    /// Whether a plan with this parallelism vector is quarantined at
    /// `time`. Matching is by parallelism: the placement search is
    /// deterministic, so re-approving the same recommendation would
    /// reproduce the same regressed plan.
    pub fn is_quarantined(&self, parallelism: &[usize], time: f64) -> bool {
        self.quarantine
            .iter()
            .any(|q| q.parallelism == parallelism && q.expires_at > time + TIME_EPS)
    }

    /// Whether a canary is currently on probation.
    pub fn in_probation(&self) -> bool {
        matches!(self.phase, Phase::Probation(_))
    }

    /// The plan the governor currently trusts.
    pub fn last_known_good(&self) -> &PlanSnapshot {
        &self.last_known_good
    }

    /// Total rollbacks performed this run.
    pub fn rollbacks(&self) -> usize {
        self.rollbacks_total
    }

    /// Rollbacks since the last committed canary.
    pub fn consecutive_rollbacks(&self) -> usize {
        self.consecutive_rollbacks
    }

    /// End of the current cooldown (`-inf` before the first rollback).
    pub fn cooldown_until(&self) -> f64 {
        self.cooldown_until
    }

    /// Live (unexpired) quarantine entries as of the last observed
    /// window.
    pub fn quarantine_len(&self) -> usize {
        self.quarantine.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(par: &[usize], epoch: u64) -> PlanSnapshot {
        PlanSnapshot {
            parallelism: par.to_vec(),
            assignment: par.iter().enumerate().map(|(i, _)| i).collect(),
            epoch,
        }
    }

    fn governor() -> SafetyGovernor {
        SafetyGovernor::new(GuardConfig::default(), snap(&[1, 1], 0))
    }

    /// Feeds `n` baseline windows of the given quality.
    fn feed(g: &mut SafetyGovernor, t0: f64, n: usize, tp: f64, tgt: f64, bp: f64) -> f64 {
        let mut t = t0;
        for _ in 0..n {
            t += 5.0;
            assert!(g.observe_window(t, tp, tgt, bp).is_none());
        }
        t
    }

    #[test]
    fn healthy_canary_is_committed() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        assert!(g.in_probation());
        // Canary performs like the baseline: committed after 3 windows.
        let t = feed(&mut g, t, 3, 985.0, 1000.0, 0.01);
        assert!(!g.in_probation());
        assert_eq!(g.last_known_good(), &snap(&[2, 2], 1));
        assert_eq!(g.rollbacks(), 0);
        assert!(!g.in_cooldown(t));
    }

    #[test]
    fn regressed_canary_rolls_back_quarantines_and_cools_down() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        // Two quiet probation windows, then judgment on the third.
        let t2 = feed(&mut g, t, 2, 500.0, 1000.0, 0.4);
        let req = g.observe_window(t2 + 5.0, 500.0, 1000.0, 0.4).unwrap();
        let t3 = t2 + 5.0;
        assert_eq!(req.to, snap(&[1, 1], 0), "restores the trusted plan");
        assert_eq!(req.regressed, snap(&[2, 2], 1));
        assert_eq!(req.deployed_at, t);
        assert!(req.observed_tracking < 0.9 * req.baseline_tracking);

        let until = g.on_rollback(t3, &req);
        assert_eq!(until, t3 + 30.0, "first cooldown is the base cooldown");
        assert!(g.in_cooldown(t3 + 29.0));
        assert!(!g.in_cooldown(t3 + 30.0));
        assert!(g.is_quarantined(&[2, 2], t3 + 1.0));
        assert!(!g.is_quarantined(&[3, 3], t3 + 1.0));
        assert!(
            !g.is_quarantined(&[2, 2], t3 + 600.0),
            "quarantine expires after its TTL"
        );
        assert_eq!(g.rollbacks(), 1);
        assert_eq!(g.last_known_good(), &snap(&[1, 1], 0));
    }

    #[test]
    fn consecutive_rollbacks_grow_cooldown_exponentially_until_cap() {
        let mut g = governor();
        let mut t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        let mut cooldowns = Vec::new();
        for epoch in 1..=4u64 {
            g.on_scaling_deploy(t, snap(&[2, epoch as usize], epoch));
            t = feed(&mut g, t, 2, 400.0, 1000.0, 0.5);
            t += 5.0;
            match g.observe_window(t, 400.0, 1000.0, 0.5) {
                Some(req) => cooldowns.push(g.on_rollback(t, &req) - t),
                None => {
                    // Cap reached: MAX_ROLLBACKS=3, fourth regression
                    // is left alone.
                    assert_eq!(g.rollbacks(), 3);
                    assert_eq!(cooldowns, vec![30.0, 60.0, 120.0]);
                    // Re-arm the baseline for the loop's next deploy.
                    feed(&mut g, t, 3, 990.0, 1000.0, 0.01);
                    return;
                }
            }
            // Refill the baseline (kept from the restored plan, but the
            // deploy below needs it anyway).
            t = feed(&mut g, t, 3, 990.0, 1000.0, 0.01);
        }
        panic!("rollback cap never engaged");
    }

    #[test]
    fn commit_resets_consecutive_rollbacks() {
        let mut g = governor();
        let mut t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        t = feed(&mut g, t, 2, 400.0, 1000.0, 0.5);
        t += 5.0;
        let req = g.observe_window(t, 400.0, 1000.0, 0.5).unwrap();
        g.on_rollback(t, &req);
        assert_eq!(g.consecutive_rollbacks(), 1);
        // A healthy canary commits and resets the streak.
        t = feed(&mut g, t, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[3, 3], 2));
        t = feed(&mut g, t, 3, 995.0, 1000.0, 0.01);
        assert_eq!(g.consecutive_rollbacks(), 0);
        // Rebuild the baseline for the committed plan, then regress.
        t = feed(&mut g, t, 3, 995.0, 1000.0, 0.01);
        // The next rollback starts from the base cooldown again.
        g.on_scaling_deploy(t, snap(&[4, 4], 3));
        t = feed(&mut g, t, 2, 300.0, 1000.0, 0.6);
        t += 5.0;
        let req = g.observe_window(t, 300.0, 1000.0, 0.6).unwrap();
        assert_eq!(g.on_rollback(t, &req) - t, 30.0);
    }

    #[test]
    fn backpressure_rise_alone_triggers_rollback() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.0);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        // Tracking holds but backpressure jumps past the threshold.
        let t2 = feed(&mut g, t, 2, 980.0, 1000.0, 0.3);
        assert!(g.observe_window(t2 + 5.0, 980.0, 1000.0, 0.3).is_some());
    }

    #[test]
    fn recovery_aborts_probation_and_adopts_the_forced_plan() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        assert!(g.in_probation());
        g.on_recovery_deploy(t + 5.0, snap(&[2, 1], 2));
        assert!(!g.in_probation());
        assert_eq!(g.last_known_good(), &snap(&[2, 1], 2));
        // Post-recovery deploys need a fresh baseline before probation.
        g.on_scaling_deploy(t + 10.0, snap(&[3, 3], 3));
        assert!(!g.in_probation(), "insufficient baseline: adopted unjudged");
        assert_eq!(g.last_known_good(), &snap(&[3, 3], 3));
    }

    #[test]
    fn chained_canary_keeps_the_original_rollback_target() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        // One probation window, then DS2 re-scales before judgment.
        assert!(g.observe_window(t + 5.0, 700.0, 1000.0, 0.2).is_none());
        g.on_scaling_deploy(t + 10.0, snap(&[3, 3], 2));
        assert!(g.in_probation());
        let t2 = feed(&mut g, t + 10.0, 2, 400.0, 1000.0, 0.5);
        let req = g.observe_window(t2 + 5.0, 400.0, 1000.0, 0.5).unwrap();
        assert_eq!(req.to, snap(&[1, 1], 0), "target predates both canaries");
        assert_eq!(req.regressed, snap(&[3, 3], 2), "the live canary is undone");
    }

    #[test]
    fn poisoned_windows_are_skipped_not_judged() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        for bad in [f64::NAN, f64::INFINITY] {
            assert!(g.observe_window(t + 5.0, bad, 1000.0, 0.0).is_none());
        }
        // Probation did not advance: three good windows still needed.
        let t2 = feed(&mut g, t, 2, 990.0, 1000.0, 0.01);
        assert!(g.in_probation());
        assert!(g.observe_window(t2 + 5.0, 990.0, 1000.0, 0.01).is_none());
        assert!(!g.in_probation());
    }

    /// A governor in the given judgment mode, with a healthy baseline
    /// at 990/1000 already fed and a canary deployed at `t`.
    fn on_probation(mode: BaselineMode) -> (SafetyGovernor, f64) {
        let config = GuardConfig {
            baseline_mode: mode,
            ..GuardConfig::default()
        };
        let mut g = SafetyGovernor::new(config, snap(&[1, 1], 0));
        let t = feed(&mut g, 0.0, 3, 990.0, 1000.0, 0.01);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        (g, t)
    }

    #[test]
    fn flash_crowd_fools_absolute_but_not_drift_aware() {
        // Offered load triples during probation. The canary still
        // delivers the demonstrated ~990 rec/s and queues fill
        // (backpressure 0.6) — the hardware is saturated, the plan is
        // fine.
        for (mode, expect_rollback) in [
            (BaselineMode::Absolute, true),
            (BaselineMode::DriftAware, false),
        ] {
            let (mut g, t) = on_probation(mode);
            let t2 = feed(&mut g, t, 2, 990.0, 3000.0, 0.6);
            let verdict = g.observe_window(t2 + 5.0, 990.0, 3000.0, 0.6);
            assert_eq!(
                verdict.is_some(),
                expect_rollback,
                "{mode:?}: tracking collapsed to 0.33 from load alone"
            );
        }
    }

    #[test]
    fn organic_growth_fools_absolute_but_not_drift_aware() {
        // Load drifts up 50% during probation; throughput grows past
        // the old capacity (the canary added parallelism) but tracking
        // still slips below the absolute bar.
        for (mode, expect_rollback) in [
            (BaselineMode::Absolute, true),
            (BaselineMode::DriftAware, false),
        ] {
            let (mut g, t) = on_probation(mode);
            let t2 = feed(&mut g, t, 2, 1150.0, 1500.0, 0.05);
            let verdict = g.observe_window(t2 + 5.0, 1150.0, 1500.0, 0.05);
            assert_eq!(verdict.is_some(), expect_rollback, "{mode:?}");
        }
    }

    #[test]
    fn drift_aware_still_catches_true_regression() {
        // Steady load, throughput halves: a genuine plan regression is
        // judged identically in both modes — and within one probation
        // window (judgment fires on the `PROBATION_WINDOWS`-th sample).
        for mode in [BaselineMode::Absolute, BaselineMode::DriftAware] {
            let (mut g, t) = on_probation(mode);
            let t2 = feed(&mut g, t, 2, 500.0, 1000.0, 0.4);
            let req = g.observe_window(t2 + 5.0, 500.0, 1000.0, 0.4);
            assert!(req.is_some(), "{mode:?} must catch a real regression");
            assert_eq!(req.unwrap().to, snap(&[1, 1], 0));
        }
    }

    #[test]
    fn drift_aware_catches_backpressure_rise_at_absorbed_load() {
        // Same load the trusted plan absorbed cleanly, but the canary
        // builds pressure: the gated backpressure clause still fires.
        let (mut g, t) = on_probation(BaselineMode::DriftAware);
        let t2 = feed(&mut g, t, 2, 980.0, 1000.0, 0.3);
        assert!(g.observe_window(t2 + 5.0, 980.0, 1000.0, 0.3).is_some());
    }

    #[test]
    fn zero_target_counts_as_fully_tracking() {
        let mut g = governor();
        let t = feed(&mut g, 0.0, 3, 0.0, 0.0, 0.0);
        g.on_scaling_deploy(t, snap(&[2, 2], 1));
        let t2 = feed(&mut g, t, 2, 0.0, 0.0, 0.0);
        assert!(
            g.observe_window(t2 + 5.0, 0.0, 0.0, 0.0).is_none(),
            "an idle pipeline never regresses"
        );
        assert_eq!(g.last_known_good(), &snap(&[2, 2], 1));
    }
}
