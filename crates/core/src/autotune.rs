//! Threshold auto-tuning (§5.2).
//!
//! Threshold-based pruning requires a factor `α⃗`, and the paper's goal is
//! the *minimum feasible* threshold: tight enough to return the most
//! resource-balanced plan, loose enough that a plan exists. The
//! auto-tuner proceeds in two phases:
//!
//! 1. **Per-dimension minimum.** For each dimension in isolation (the
//!    other two disabled), start from the tightest possible bound and
//!    relax it geometrically by [`RELAX_FACTOR`] until a feasible plan
//!    exists.
//! 2. **Joint relaxation.** Feasibility per dimension does not imply
//!    joint feasibility, so starting from the phase-1 vector, all three
//!    thresholds are relaxed together until a plan satisfying all of them
//!    exists.
//!
//! The tuner has no clock of its own. [`SearchConfig::time_budget`]
//! bounds tuning and search together; a run whose budget runs out while
//! tuning fails with [`CapsError::BudgetExhausted`]. Without a time
//! budget no tuning decision reads the clock, and tuning is bounded in
//! nodes (see [`AutoTuner`]).
//!
//! Both phases walk their grid with one routine, `scan`, which answers
//! most grid steps without a search. Feasibility is monotone in `α⃗`:
//!
//! * every probe that finds a witness plan caches its cost vector, and a
//!   later step whose thresholds admit a cached witness is feasible;
//! * a probe that exhausts its tree without a plan also reports, per
//!   dimension, the smallest load that crossed the bound on a pruned
//!   branch (the IDA* next-bound rule, Korf 1985). A later step whose
//!   exact load bound stays below that overflow in every dimension that
//!   recorded one prunes every branch the failed search pruned, so it
//!   fails too and is skipped.
//!
//! Both rules are exact, so the tuner stops at the same grid point, with
//! the same iteration count, as one search per step would; only the
//! number of searches drops. A probe that aborts on its node budget
//! reports no overflow and relaxes exactly one step.
//!
//! Probes take their operator order from
//! [`CapsSearch::exploration_order`]. Phase 1's network probes, the
//! only ones bounded on α_net alone, explore upstream-first: a channel's
//! network load is known only once both of its ends are placed, and the
//! §4.4.2 order would place a wide operator long before its last
//! neighbour. Whether a step is feasible does not depend on the order,
//! so the tuned thresholds, `per_dimension` and `iterations` do not
//! either, unless a probe aborts; witnesses, overflows and with them
//! `probe_searches` and `cache_hits` may differ.

use std::time::{Duration, Instant};

use capsys_util::fixed::Fixed64;

use crate::cost::{CostVector, Thresholds};
use crate::error::CapsError;
use crate::search::{CapsSearch, Probe, SearchConfig};

/// The relaxation factor of both phases, the paper's 1.1.
pub const RELAX_FACTOR: f64 = 1.1;

/// The first non-zero threshold a scan tries once its value is below
/// it: a geometric relaxation cannot leave zero on its own.
pub const RELAX_SEED: f64 = 0.01;

/// Dimensions whose aggregate demand is below this fraction of the
/// cluster capacity are left unconstrained (`α = ∞`): an under-pressure
/// dimension cannot produce contention, and tight thresholds on it would
/// push the search toward plans that trade real balance (e.g. CPU) for
/// irrelevant balance (e.g. network on an idle NIC).
pub const PRESSURE_FLOOR: f64 = 0.05;

/// Configuration of the threshold auto-tuner.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoTuneConfig {
    /// Node budget per feasibility probe (probes run on one thread). A
    /// probe that exhausts the budget without finding a plan is treated
    /// as infeasible and the threshold is relaxed further — a
    /// conservative early exit that keeps tuning fast on very large plan
    /// spaces.
    pub probe_node_budget: usize,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        AutoTuneConfig {
            probe_node_budget: 2_000_000,
        }
    }
}

/// The outcome of threshold auto-tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuneReport {
    /// The minimum jointly feasible threshold vector.
    pub thresholds: Thresholds,
    /// Phase-1 per-dimension minima `[α_cpu, α_io, α_net]`.
    pub per_dimension: [f64; 3],
    /// Total grid steps probed (searches plus cache hits).
    pub iterations: usize,
    /// Steps answered by an actual first-feasible search.
    pub probe_searches: usize,
    /// Steps answered without searching: a cached witness fits, or the
    /// last failed search's overflow proves the step fails.
    pub cache_hits: usize,
    /// Total tuning time.
    pub elapsed: Duration,
}

/// What one tuning run has learned so far, shared by both phases.
#[derive(Default)]
struct Probes {
    /// Cost vectors of witness plans found by earlier probes. Any
    /// thresholds a cached witness satisfies are feasible.
    witnesses: Vec<CostVector>,
    iterations: usize,
    searches: usize,
    hits: usize,
}

/// Whether a grid step provably fails: its exact load `bound` stays
/// below the failed search's `overflow` in every dimension that recorded
/// one (`Fixed64::MAX` marks a dimension no pruned branch crossed).
///
/// The caller only asks about steps at least as loose as the failed one,
/// so every branch that search kept is kept again, and every branch it
/// cut crossed some dimension at a load of at least `overflow` — still
/// above `bound`. The tree, and its lack of a plan, is unchanged.
fn still_fails(bound: [Fixed64; 3], overflow: [Fixed64; 3]) -> bool {
    bound
        .iter()
        .zip(&overflow)
        .all(|(b, o)| *o == Fixed64::MAX || b < o)
}

/// The threshold auto-tuner.
///
/// Tuning is bounded in nodes whatever the clock does. One scan probes
/// at most 51 grid steps: its start value, then [`RELAX_SEED`] ·
/// [`RELAX_FACTOR`]^k for k = 0..=48 (0.0100 up to 0.9702), then 1, where
/// a failed step proves that no plan exists. Phase 1 scans at most the
/// three dimensions and phase 2 scans once, so a tuning run takes at most
/// 204 grid steps. Each step runs at most one first-feasible search
/// ([`CapsSearch::find_witness`], on one thread), which aborts once it
/// has visited [`AutoTuneConfig::probe_node_budget`] nodes (or
/// [`SearchConfig::node_budget`], if smaller): a tuning run visits at
/// most 204 × budget nodes.
pub struct AutoTuner {
    probe_node_budget: usize,
}

impl AutoTuner {
    /// Creates an auto-tuner with the given configuration.
    pub fn new(config: &AutoTuneConfig) -> AutoTuner {
        AutoTuner {
            probe_node_budget: config.probe_node_budget,
        }
    }

    /// Runs both tuning phases for the given search instance.
    ///
    /// `base` supplies the search settings (reordering, budgets) used
    /// for the feasibility probes, which run on one thread whatever its
    /// thread count. Its `time_budget`, if
    /// set, bounds the whole tuning run.
    pub fn tune(
        &self,
        search: &CapsSearch<'_>,
        base: &SearchConfig,
    ) -> Result<AutoTuneReport, CapsError> {
        self.tune_until(search, base, base.time_budget.map(|b| Instant::now() + b))
    }

    /// [`AutoTuner::tune`] against a deadline fixed by the caller, so
    /// that [`CapsSearch::run`] tunes and searches under one clock.
    pub(crate) fn tune_until(
        &self,
        search: &CapsSearch<'_>,
        base: &SearchConfig,
        deadline: Option<Instant>,
    ) -> Result<AutoTuneReport, CapsError> {
        let start = Instant::now();
        let mut probes = Probes::default();
        let mut probe = SearchConfig {
            node_budget: Some(
                base.node_budget
                    .unwrap_or(usize::MAX)
                    .min(self.probe_node_budget),
            ),
            ..base.clone()
        };

        // Phase 1: per-dimension minima with the other dimensions disabled.
        let pressure = search.cost_model().pressure();
        let mut per_dimension = [f64::INFINITY; 3];
        for dim in 0..3 {
            if pressure[dim] < PRESSURE_FLOOR {
                continue;
            }
            let mut alpha = [f64::INFINITY; 3];
            alpha[dim] = search.cost_model().tightest_cost(dim);
            per_dimension[dim] = scan(search, &mut probe, deadline, &mut probes, alpha)?[dim];
        }

        // Phase 2: joint relaxation of the active thresholds.
        let joint = scan(search, &mut probe, deadline, &mut probes, per_dimension)?;

        Ok(AutoTuneReport {
            thresholds: Thresholds::new(joint[0], joint[1], joint[2]),
            per_dimension,
            iterations: probes.iterations,
            probe_searches: probes.searches,
            cache_hits: probes.hits,
            elapsed: start.elapsed(),
        })
    }
}

/// Walks one relaxation grid from `alpha` to its first feasible point.
/// Each step relaxes every finite component ([`relax`]); infinite
/// components stay disabled.
///
/// A step costs one first-feasible search unless a cached witness fits
/// it or the last failed search's overflow proves it fails (see the
/// module docs). Every step counts as one iteration either way, so the
/// walk is the one-search-per-step scan of §5.2. Each search gets the
/// time left until `deadline`; a search that fails with the deadline
/// passed fails the scan with [`CapsError::BudgetExhausted`].
fn scan(
    search: &CapsSearch<'_>,
    probe: &mut SearchConfig,
    deadline: Option<Instant>,
    probes: &mut Probes,
    mut alpha: [f64; 3],
) -> Result<[f64; 3], CapsError> {
    let model = search.cost_model();
    // The overflow of the last failed search; it covers the steps after
    // it until one's bound reaches it in some dimension.
    let mut overflow = None;
    loop {
        probes.iterations += 1;
        let th = Thresholds::new(alpha[0], alpha[1], alpha[2]);
        if probes.witnesses.iter().any(|w| w.within(&th)) {
            probes.hits += 1;
            return Ok(alpha);
        }
        if overflow.is_some_and(|o| still_fails(model.load_bound(&th), o)) {
            probes.hits += 1;
        } else {
            probes.searches += 1;
            probe.time_budget = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            match search.find_witness(&th, probe)? {
                Probe::Feasible(w) => {
                    probes.witnesses.push(w.cost);
                    return Ok(alpha);
                }
                Probe::Infeasible { overflow: o } => overflow = o,
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(CapsError::BudgetExhausted);
            }
        }
        if alpha.iter().all(|a| !a.is_finite() || *a >= 1.0) {
            // C_i <= 1 holds for every plan, so a search that exhausts
            // its tree with every active threshold at 1 proves that no
            // plan exists at all. One that aborted on its node budget
            // (no overflow) proves nothing.
            return Err(match overflow {
                Some(_) => CapsError::NoFeasiblePlan,
                None => CapsError::BudgetExhausted,
            });
        }
        alpha = alpha.map(|a| if a.is_finite() { relax(a) } else { a });
    }
}

/// One relaxation step: geometric growth by [`RELAX_FACTOR`], clamped
/// at 1, bootstrapped by [`RELAX_SEED`] below the seed.
fn relax(alpha: f64) -> f64 {
    if alpha < RELAX_SEED {
        RELAX_SEED
    } else {
        (alpha * RELAX_FACTOR).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, ResourceProfile, WorkerSpec,
    };
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        fixture_on(2)
    }

    /// The 8-task pipeline of [`fixture`] on `workers` workers of 4 slots.
    fn fixture_on(workers: usize) -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
        let mut b = LogicalGraph::builder("q");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            2,
            ResourceProfile::new(0.0005, 0.0, 100.0, 1.0),
        );
        let h = b.operator(
            "heavy",
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
        let c = Cluster::homogeneous(workers, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn tuned_thresholds_are_feasible() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        assert!(matches!(
            search.find_witness(&report.thresholds, &base).unwrap(),
            Probe::Feasible(_)
        ));
        assert!(report.iterations >= 2, "at least one probe per phase");
    }

    #[test]
    fn tuned_thresholds_are_near_minimal() {
        // Tightening the active dimensions by more than one relaxation
        // step must make the search infeasible (minimality up to step
        // granularity), unless the tuner already sits at the analytic
        // floor where tightening is a no-op.
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        let th = report.thresholds;
        let factor = RELAX_FACTOR.powi(2);
        let floor: Vec<f64> = (0..3)
            .map(|d| search.cost_model().tightest_cost(d))
            .collect();
        let at_floor = |v: f64, f: f64| !v.is_finite() || v <= f + 1e-12;
        if at_floor(th.cpu, floor[0]) && at_floor(th.io, floor[1]) && at_floor(th.net, floor[2]) {
            // Already minimal by construction.
            return;
        }
        let tighter = Thresholds::new(th.cpu / factor, th.io / factor, th.net / factor);
        assert!(
            !matches!(
                search.find_witness(&tighter, &base).unwrap(),
                Probe::Feasible(_)
            ),
            "thresholds {th:?} were not minimal"
        );
    }

    #[test]
    fn full_run_with_autotuning_attaches_report() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search.run(&SearchConfig::auto_tuned()).unwrap();
        assert!(out.autotune.is_some());
        assert!(!out.feasible.is_empty());
        let best = out.best_scored().unwrap();
        assert!(best.cost.within(&out.thresholds));
    }

    #[test]
    fn per_dimension_minima_do_not_exceed_joint_thresholds() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        assert!(report.thresholds.cpu >= report.per_dimension[0] - 1e-12);
        assert!(report.thresholds.io >= report.per_dimension[1] - 1e-12);
        assert!(report.thresholds.net >= report.per_dimension[2] - 1e-12);
    }

    #[test]
    fn every_grid_step_is_a_search_or_a_hit() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig::auto_tuned();
        let report = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap();
        assert_eq!(report.probe_searches + report.cache_hits, report.iterations);
        assert!(report.probe_searches >= 1);
    }

    #[test]
    fn still_fails_needs_every_recorded_dimension_below_its_overflow() {
        let fx = Fixed64::from_bits;
        let none = Fixed64::MAX;
        let overflow = [fx(10), none, fx(20)];
        assert!(still_fails([fx(9), fx(1_000), fx(19)], overflow));
        // An unrecorded dimension never blocks the skip, even unbounded.
        assert!(still_fails([fx(9), none, fx(19)], overflow));
        // Reaching the overflow in one recorded dimension may admit the
        // branch that crossed it.
        assert!(!still_fails([fx(10), fx(0), fx(19)], overflow));
        assert!(!still_fails([fx(0), fx(0), fx(20)], overflow));
        assert!(!still_fails([fx(0), fx(0), none], overflow));
    }

    #[test]
    fn a_scan_from_zero_probes_at_most_51_steps() {
        let mut alpha = 0.0;
        let mut steps = 1;
        while alpha < 1.0 {
            alpha = relax(alpha);
            steps += 1;
        }
        assert_eq!(alpha, 1.0);
        assert_eq!(steps, 51);
    }

    #[test]
    fn a_node_budget_that_cuts_every_probe_is_not_infeasibility() {
        // On 3 workers, tuning needs 14 nodes per probe. Below that, the
        // last probe of a scan aborts with plans still in its tree: the
        // run must report the budget, not a proof that no plan exists.
        let (g, p, c, lm) = fixture_on(3);
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let budgeted = |budget| SearchConfig {
            node_budget: Some(budget),
            ..SearchConfig::auto_tuned()
        };
        for budget in 0..=13 {
            assert_eq!(
                search.run(&budgeted(budget)).unwrap_err(),
                CapsError::BudgetExhausted,
                "budget {budget}"
            );
        }
        let out = search.run(&budgeted(14)).unwrap();
        assert!(!out.feasible.is_empty());
    }

    #[test]
    fn zero_time_budget_exhausts_tuning_and_run() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let base = SearchConfig {
            time_budget: Some(Duration::ZERO),
            ..SearchConfig::auto_tuned()
        };
        let err = AutoTuner::new(&base.auto_tune)
            .tune(&search, &base)
            .unwrap_err();
        assert_eq!(err, CapsError::BudgetExhausted);
        assert_eq!(search.run(&base).unwrap_err(), CapsError::BudgetExhausted);
    }
}
