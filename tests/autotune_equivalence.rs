//! Reference equivalence of the threshold auto-tuner.
//!
//! `AutoTuner::tune` answers most grid steps without a search: a cached
//! witness plan proves a step feasible, and a failed search's overflow
//! proves the steps after it infeasible. Both are claimed exact. This
//! test holds the tuner against the §5.2 algorithm as the paper states
//! it, a plain scan with one first-feasible search per grid step, and
//! requires the same thresholds, phase-1 minima, iteration count and
//! error kind, with no more searches.

use std::collections::HashMap;
use std::mem::discriminant;

use capsys::caps::{
    AutoTuneConfig, AutoTuner, CapsError, CapsSearch, CostVector, Dimension, Probe, SearchConfig,
    Thresholds,
};
use capsys::model::{
    Cluster, ConnectionPattern, LogicalGraph, OperatorId, OperatorKind, PhysicalGraph,
    ResourceProfile, WorkerSpec,
};
use capsys::queries::all_queries;
use capsys_util::forall;
use capsys_util::prop::{floats, ints, vec_of, Config};

/// Node budget small enough that early probes on the paper's queries
/// abort before their first feasible leaf.
const TINY_BUDGET: usize = 60;

/// What the plain scan saw.
#[derive(Debug, Default)]
struct Reference {
    thresholds: Option<Thresholds>,
    per_dimension: [f64; 3],
    iterations: usize,
    searches: usize,
    /// Probes that ran out of node budget; they count as infeasible.
    aborted: usize,
}

/// The §5.2 tuner with one first-feasible search per grid step: phase 1
/// relaxes each pressured dimension alone from its tightest cost, phase
/// 2 relaxes the finite phase-1 minima together. With `reuse_witnesses`
/// a step that a stored witness plan satisfies is answered by it, as the
/// tuner does; this matters only when probes abort, since a witness
/// proves feasibility that a budget-cut search can miss.
fn plain_scan(
    search: &CapsSearch<'_>,
    base: &SearchConfig,
    reuse_witnesses: bool,
    r: &mut Reference,
) -> Result<(), CapsError> {
    let cfg = &base.auto_tune;
    let probe_base = SearchConfig {
        node_budget: Some(
            base.node_budget
                .unwrap_or(usize::MAX)
                .min(cfg.probe_node_budget),
        ),
        ..base.clone()
    };
    let relax = |a: f64, factor: f64| (if a < cfg.seed { cfg.seed } else { a * factor }).min(1.0);
    let mut witnesses: Vec<CostVector> = Vec::new();
    let mut feasible = |th: &Thresholds, r: &mut Reference| -> Result<bool, CapsError> {
        r.iterations += 1;
        if reuse_witnesses && witnesses.iter().any(|w| w.within(th)) {
            return Ok(true);
        }
        r.searches += 1;
        match search.find_witness(th, &probe_base, None)? {
            Probe::Feasible(w) => {
                witnesses.push(w.cost);
                Ok(true)
            }
            Probe::Infeasible { overflow } => {
                if overflow.is_none() {
                    r.aborted += 1;
                }
                Ok(false)
            }
        }
    };

    let pressure = search.cost_model().pressure();
    r.per_dimension = [f64::INFINITY; 3];
    for dim in 0..3 {
        if pressure[dim] < cfg.min_pressure {
            continue;
        }
        let mut alpha = search.cost_model().tightest_cost(dim);
        loop {
            let th = Thresholds::unbounded().with(Dimension::ALL[dim], alpha);
            if feasible(&th, r)? {
                r.per_dimension[dim] = alpha;
                break;
            }
            if alpha >= 1.0 {
                return Err(CapsError::NoFeasiblePlan);
            }
            alpha = relax(alpha, cfg.phase1_factor);
        }
    }

    let [cpu, io, net] = r.per_dimension;
    let mut th = Thresholds::new(cpu, io, net);
    let step = |v: f64| {
        if v.is_finite() {
            relax(v, cfg.phase2_factor)
        } else {
            v
        }
    };
    loop {
        if feasible(&th, r)? {
            r.thresholds = Some(th);
            return Ok(());
        }
        if [th.cpu, th.io, th.net]
            .iter()
            .all(|v| !v.is_finite() || *v >= 1.0)
        {
            return Err(CapsError::NoFeasiblePlan);
        }
        th = Thresholds::new(step(th.cpu), step(th.io), step(th.net));
    }
}

/// Tunes `search` both ways and asserts they agree; returns the number
/// of reference probes that aborted on their node budget.
fn assert_equivalent(
    label: &str,
    search: &CapsSearch<'_>,
    base: &SearchConfig,
    reuse_witnesses: bool,
) -> usize {
    let tuned = AutoTuner::new(&base.auto_tune).tune(search, base);
    let mut reference = Reference::default();
    let outcome = plain_scan(search, base, reuse_witnesses, &mut reference);
    match (&tuned, &outcome) {
        (Ok(report), Ok(())) => {
            assert_eq!(
                Some(report.thresholds),
                reference.thresholds,
                "{label}: thresholds"
            );
            assert_eq!(
                report.per_dimension, reference.per_dimension,
                "{label}: per_dimension"
            );
            assert_eq!(
                report.iterations, reference.iterations,
                "{label}: iterations"
            );
            assert!(
                report.probe_searches <= reference.searches,
                "{label}: {} searches against the plain scan's {}",
                report.probe_searches,
                reference.searches
            );
            assert_eq!(
                report.probe_searches + report.cache_hits,
                report.iterations,
                "{label}: every step is a search or a hit"
            );
        }
        (Err(a), Err(b)) => assert_eq!(discriminant(a), discriminant(b), "{label}: {a} vs {b}"),
        (a, b) => panic!("{label}: tuner gave {a:?}, plain scan gave {b:?}"),
    }
    reference.aborted
}

/// The paper's six queries on 8 × r5d.xlarge at three utilizations.
fn for_each_paper_query(mut f: impl FnMut(&str, &CapsSearch<'_>)) {
    let cluster = Cluster::homogeneous(8, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    for query in all_queries() {
        let physical = query.physical();
        for utilization in [0.4, 0.7, 0.9] {
            let rate = query
                .capacity_rate(&cluster, utilization)
                .expect("capacity rate");
            let loads = query.load_model_at(&physical, rate).expect("load model");
            let search =
                CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
            f(&format!("{} at {utilization}", query.name()), &search);
        }
    }
}

#[test]
fn tuner_matches_plain_scan_on_paper_queries() {
    let base = SearchConfig::auto_tuned();
    for_each_paper_query(|label, search| {
        // The plain scan reuses nothing, which matches the tuner only if
        // no probe is cut short by its node budget; none is here.
        let aborted = assert_equivalent(label, search, &base, false);
        assert_eq!(aborted, 0, "{label}: a probe hit probe_node_budget");
    });
}

#[test]
fn budget_aborted_probes_relax_exactly_one_step() {
    let base = SearchConfig {
        auto_tune: AutoTuneConfig {
            probe_node_budget: TINY_BUDGET,
            ..AutoTuneConfig::default()
        },
        ..SearchConfig::auto_tuned()
    };
    let mut aborted = 0;
    for_each_paper_query(|label, search| {
        aborted += assert_equivalent(label, search, &base, true);
    });
    assert!(aborted > 0, "the tiny budget never cut a probe short");
}

/// A random linear dataflow of 2-4 operators on 2-4 homogeneous workers
/// with a spare slot each.
fn random_problem(ops: &[(usize, f64, f64, f64)], workers: usize) -> (LogicalGraph, Cluster) {
    let n = ops.len();
    let mut b = LogicalGraph::builder("prop");
    let mut prev = None;
    for (i, &(par, cpu, io, out)) in ops.iter().enumerate() {
        let kind = match i {
            0 => OperatorKind::Source,
            _ if i + 1 == n => OperatorKind::Sink,
            _ => OperatorKind::Stateless,
        };
        let id = b.operator(
            format!("op{i}"),
            kind,
            par,
            ResourceProfile::new(cpu, io, out, 1.0),
        );
        if let Some(p) = prev {
            b.edge(p, id, ConnectionPattern::Hash);
        }
        prev = Some(id);
    }
    let g = b.build().expect("valid linear graph");
    let slots = g.total_tasks().div_ceil(workers) + 1;
    let cluster = Cluster::homogeneous(workers, WorkerSpec::new(slots, 2.0, 1e8, 1e9))
        .expect("valid cluster");
    (g, cluster)
}

#[test]
fn tuner_matches_plain_scan_on_random_fixtures() {
    forall!(Config::default().cases(24), (
        ops in vec_of(
            (ints(1usize..=4), floats(1e-5..2e-3), floats(0.0..5000.0), floats(1.0..1000.0)),
            2..=4,
        ),
        workers in ints(2usize..=4),
        rate in floats(100.0..3000.0),
        budget in ints(0usize..=2),
    ) => {
        let (g, cluster) = random_problem(ops, *workers);
        let physical = PhysicalGraph::expand(&g);
        let rates: HashMap<OperatorId, f64> =
            g.sources().into_iter().map(|s| (s, *rate)).collect();
        let loads = capsys::model::LoadModel::derive(&g, &physical, &rates).expect("load model");
        let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
        // One case in three runs with a tiny probe budget.
        let tiny = *budget == 0;
        let mut base = SearchConfig::auto_tuned();
        if tiny {
            base.auto_tune.probe_node_budget = 8;
        }
        let aborted = assert_equivalent("random fixture", &search, &base, tiny);
        if !tiny {
            assert_eq!(aborted, 0, "a default-budget probe aborted");
        }
    });
}
