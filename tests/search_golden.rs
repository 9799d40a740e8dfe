//! Search golden test: the single-threaded CAPS search on the paper's
//! six queries, and on one network-pressed instance, must produce a
//! byte-identical outcome — thresholds, the stored plans in their
//! returned (`cmp_scored`) order, the pareto front, the recommended
//! plan and the traversal statistics — checked against the golden file
//! under `tests/golden/`. The stored plans and the recommended plan are
//! the same at every thread count (`tests/thread_count_outcomes.rs`);
//! the statistics are pinned at one thread.
//!
//! Every float is written with `{:?}`, which prints the shortest string
//! that parses back to the same bits. Wall-clock fields (`elapsed`) are
//! left out; everything else at `threads: 1` is a pure function of the
//! problem.
//!
//! If a change intentionally alters search output, regenerate with:
//!
//! ```text
//! CAPSYS_BLESS=1 cargo test --test search_golden
//! ```

use std::fmt::Write as _;

use capsys::caps::{
    CapsSearch, Probe, RunStats, ScoredPlan, SearchConfig, SearchOutcome, Thresholds, RELAX_FACTOR,
    RELAX_SEED,
};
use capsys::model::{Cluster, WorkerSpec};
use capsys::queries::{all_queries, q3_inf};

const GOLDEN_PATH: &str = "tests/golden/search_outcomes.txt";
const GOLDEN: &str = include_str!("golden/search_outcomes.txt");

/// Node budget of the budgeted run: small enough to abort on every
/// query, large enough to store a few plans first.
const NODE_BUDGET: usize = 400;

/// Tag of the network-pressed instance (see [`run_network_pressed`]).
const NET_NAME: &str = "Q3-inf-net";

fn plan_line(s: &ScoredPlan) -> String {
    let workers: Vec<usize> = s.plan.assignment().iter().map(|w| w.0).collect();
    format!(
        "{workers:?} cost {:?} {:?} {:?}",
        s.cost.cpu, s.cost.io, s.cost.net
    )
}

fn write_stats(out: &mut String, tag: &str, s: &RunStats) {
    writeln!(
        out,
        "{tag} stats nodes {} pruned {} plans_found {} threads {} aborted {}",
        s.nodes, s.pruned, s.plans_found, s.threads, s.aborted
    )
    .unwrap();
}

fn write_plans(out: &mut String, tag: &str, what: &str, plans: &[ScoredPlan]) {
    writeln!(out, "{tag} {what} {}", plans.len()).unwrap();
    for (i, s) in plans.iter().enumerate() {
        writeln!(out, "{tag} {what}[{i}] {}", plan_line(s)).unwrap();
    }
}

fn write_outcome(out: &mut String, tag: &str, o: &SearchOutcome) {
    let t = o.thresholds;
    writeln!(out, "{tag} thresholds {:?} {:?} {:?}", t.cpu, t.io, t.net).unwrap();
    let order: Vec<usize> = o.order.iter().map(|op| op.0).collect();
    writeln!(out, "{tag} order {order:?} pressure {:?}", o.pressure).unwrap();
    write_plans(out, tag, "feasible", &o.feasible);
    write_plans(out, tag, "pareto", &o.pareto);
    match o.best_scored() {
        Some(best) => writeln!(out, "{tag} best {}", plan_line(best)).unwrap(),
        None => writeln!(out, "{tag} best none").unwrap(),
    }
    write_stats(out, tag, &o.stats);
}

/// Q1–Q6 on 8 × r5d.xlarge (32 slots), each driven at 70% of the
/// cluster's capacity (so the tuner has pressure to work against) and
/// searched four ways at `threads: 1`: auto-tuned (the CAPSys default),
/// a first-feasible probe at the tuned thresholds, an exhaustive
/// incumbent-pruned run, and a node-budgeted exhaustive run.
fn run_searches() -> String {
    let cluster = Cluster::homogeneous(8, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let mut out = String::new();
    for query in all_queries() {
        let physical = query.physical();
        let rate = query.capacity_rate(&cluster, 0.7).expect("capacity rate");
        let loads = query.load_model_at(&physical, rate).expect("load model");
        let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
        let name = query.name().to_string();
        writeln!(out, "query {name} tasks {}", physical.num_tasks()).unwrap();

        let tuned = search
            .run(&SearchConfig::auto_tuned().with_threads(1))
            .expect("auto-tuned search runs");
        let report = tuned.autotune.expect("auto-tuning ran");
        writeln!(
            out,
            "{name}.tuned autotune per_dimension {:?} iterations {} probe_searches {} cache_hits {}",
            report.per_dimension, report.iterations, report.probe_searches, report.cache_hits
        )
        .unwrap();
        write_outcome(&mut out, &format!("{name}.tuned"), &tuned);

        let probe = search
            .run(&SearchConfig::with_thresholds(tuned.thresholds).first_feasible())
            .expect("probe runs");
        write_outcome(&mut out, &format!("{name}.probe"), &probe);

        let incumbent = search
            .run(&SearchConfig::exhaustive().incumbent_pruned())
            .expect("incumbent-pruned search runs");
        write_outcome(&mut out, &format!("{name}.incumbent"), &incumbent);

        let budgeted = search
            .run(&SearchConfig {
                node_budget: Some(NODE_BUDGET),
                ..SearchConfig::exhaustive()
            })
            .expect("budgeted search runs");
        write_outcome(&mut out, &format!("{name}.budget"), &budgeted);
    }
    run_network_pressed(&mut out);
    out
}

/// Q3-inf at parallelism [1, 3, 3, 18, 1] on 11 × r5d.xlarge (44
/// slots), driven at 70% of that cluster's capacity. Network pressure
/// stays below `PRESSURE_FLOOR` for every paper query above, but not here,
/// so the tuner runs phase-1 probes with α_net as the only finite
/// threshold. Pinned at `threads: 1`: the auto-tuned run; the tuner's
/// probe (witness or overflow, order and statistics) at the phase-1
/// α_net minimum and at the grid step below it; and the default search
/// (store-bound pruned) at that network-only threshold vector.
fn run_network_pressed(out: &mut String) {
    let name = NET_NAME;
    let query = q3_inf()
        .with_parallelism(&[1, 3, 3, 18, 1])
        .expect("valid parallelism");
    let physical = query.physical();
    let cluster = Cluster::homogeneous(11, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let rate = query.capacity_rate(&cluster, 0.7).expect("capacity rate");
    let loads = query.load_model_at(&physical, rate).expect("load model");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
    writeln!(out, "query {name} tasks {}", physical.num_tasks()).unwrap();

    let config = SearchConfig::auto_tuned().with_threads(1);
    let tuned = search.run(&config).expect("auto-tuned search runs");
    let report = tuned.autotune.expect("auto-tuning ran");
    writeln!(
        out,
        "{name}.tuned autotune per_dimension {:?} iterations {} probe_searches {} cache_hits {}",
        report.per_dimension, report.iterations, report.probe_searches, report.cache_hits
    )
    .unwrap();
    write_outcome(out, &format!("{name}.tuned"), &tuned);

    // Walk the tuner's phase-1 network grid up to its minimum.
    let tune = &config.auto_tune;
    let min = report.per_dimension[2];
    let mut below = None;
    let mut alpha = search.cost_model().tightest_cost(2);
    while alpha < min {
        below = Some(alpha);
        alpha = if alpha < RELAX_SEED {
            RELAX_SEED
        } else {
            (alpha * RELAX_FACTOR).min(1.0)
        };
    }
    assert_eq!(alpha, min, "the phase-1 minimum lies on the grid");
    let below = below.expect("the minimum is not the first grid step");

    let probe_base = SearchConfig {
        node_budget: Some(tune.probe_node_budget),
        ..config.clone()
    };
    for (step, alpha) in [("min", min), ("below", below)] {
        let tag = format!("{name}.net_{step}");
        let th = Thresholds::new(f64::INFINITY, f64::INFINITY, alpha);
        match search.find_witness(&th, &probe_base).expect("probe runs") {
            Probe::Feasible(w) => writeln!(out, "{tag} alpha {alpha:?} witness {}", plan_line(&w)),
            Probe::Infeasible { overflow } => {
                let bits = overflow.map(|o| o.map(|l| l.to_bits()));
                writeln!(out, "{tag} alpha {alpha:?} overflow {bits:?}")
            }
        }
        .unwrap();
        // The same first-feasible search, for its order and statistics.
        let probe = search
            .run(&SearchConfig {
                max_plans: 1,
                ..SearchConfig::with_thresholds(th).first_feasible()
            })
            .expect("probe runs");
        let order: Vec<usize> = probe.order.iter().map(|op| op.0).collect();
        writeln!(out, "{tag} order {order:?}").unwrap();
        write_stats(out, &tag, &probe.stats);
    }

    let net_only = Thresholds::new(f64::INFINITY, f64::INFINITY, min);
    let full = search
        .run(&SearchConfig {
            thresholds: Some(net_only),
            ..config
        })
        .expect("network-only search runs");
    write_outcome(out, &format!("{name}.net_full"), &full);
}

#[test]
fn search_outcomes_match_committed_golden() {
    let got = run_searches();
    if std::env::var_os("CAPSYS_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("golden file is writable");
        return;
    }
    assert!(
        got == GOLDEN,
        "search output changed; if intentional, regenerate {GOLDEN_PATH} (see module docs)"
    );
}

#[test]
fn golden_covers_every_run_kind() {
    // Each query's budgeted run aborts and its probe stops at one plan;
    // otherwise the golden would not pin the paths it claims to.
    let got = run_searches();
    for query in all_queries() {
        let name = query.name();
        let line = |kind: &str| {
            got.lines()
                .find(|l| l.starts_with(&format!("{name}.{kind} stats ")))
                .unwrap_or_else(|| panic!("{name}.{kind} stats line"))
                .to_string()
        };
        assert!(
            line("budget").ends_with("aborted true"),
            "{name} budget aborts"
        );
        assert!(
            line("tuned").ends_with("aborted false"),
            "{name} tuned completes"
        );
        assert!(
            got.contains(&format!("{name}.probe feasible 1\n")),
            "{name} probe stores one witness"
        );
    }
    // The network-pressed instance tunes α_net, finds a witness at its
    // phase-1 minimum and proves the step below infeasible.
    let line = |prefix: String| {
        got.lines()
            .find(|l| l.starts_with(&prefix))
            .unwrap_or_else(|| panic!("{prefix} line"))
            .to_string()
    };
    let autotune = line(format!("{NET_NAME}.tuned autotune per_dimension "));
    assert!(
        !autotune.contains("inf]"),
        "{NET_NAME} tunes the network dimension: {autotune}"
    );
    assert!(line(format!("{NET_NAME}.net_min alpha ")).contains(" witness "));
    assert!(line(format!("{NET_NAME}.net_below alpha ")).contains(" overflow Some("));
    assert!(line(format!("{NET_NAME}.net_full stats ")).ends_with("aborted false"));
}
