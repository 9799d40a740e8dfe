//! Anytime search quality: DFS vs MCTS best-cost-versus-budget curves.
//!
//! Runs the DFS backend (one thread) and the MCTS backend side by side on
//! a family of pipelines at 16, 64, 256, and 1024 tasks under a shared
//! node budget, and records each backend's *anytime curve* — the best
//! feasible `max_component` cost as a function of nodes spent — to
//! `BENCH_anytime.json` at the repository root (`target/` under
//! `--smoke`).
//!
//! The instance family is chosen so the two backends genuinely separate:
//!
//! * At 16 tasks the plan space is exhaustible, so the DFS optimum is
//!   ground truth; MCTS (which fully expands every narrow node) must
//!   reach the *identical* best cost, bit for bit, for every seed.
//! * At 256 and 1024 tasks the mid-pipeline operator carries Zipf-skewed
//!   per-task loads ([`apply_skew`] placement groups) and the CPU
//!   threshold sits a small margin above the fractional lower bound
//!   `total_load / workers`. Feasible plans therefore require *load*-aware
//!   packing of the heavy group tasks, but the DFS enumerates rows in
//!   slot-balanced order — blind to loads until the threshold finally
//!   prunes deep in the tree — so within the budget it exhausts without
//!   a single feasible leaf, while MCTS rollouts scored by the CAPS cost
//!   model are steered toward spread-out heavy tasks and find feasible
//!   plans with budget to spare.
//!
//! `--smoke` (used by `ci.sh`) runs seeds 7/11/23 and self-asserts the
//! separation: MCTS == DFS optimum at 16 tasks, MCTS feasible where the
//! DFS reports budget exhaustion at 256/1024, every anytime curve
//! monotone non-increasing, and a same-seed replay byte-identical.

use std::collections::HashMap;
use std::time::Instant;

use capsys_bench::banner;
use capsys_core::{
    CapsSearch, CostModel, MctsConfig, SearchBackend, SearchConfig, SearchOutcome, Thresholds,
};
use capsys_model::{
    apply_skew, Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
    PhysicalGraph, ResourceProfile, SkewSpec, WorkerSpec,
};
use capsys_util::fixed::Fixed64;
use capsys_util::json::{obj, Json};

/// Seeds exercised by both modes; `ci.sh` relies on these exact values.
const SEEDS: [u64; 3] = [7, 11, 23];

/// One benchmark instance.
struct Case {
    name: &'static str,
    tasks: usize,
    workers: usize,
    logical: LogicalGraph,
    rates: HashMap<OperatorId, f64>,
    /// Shared node budget for both backends (DFS-comparable units).
    node_budget: usize,
    /// `None` => unbounded thresholds (the 16-task ground-truth case);
    /// `Some(m)` => CPU threshold at `(1 + m) ×` the fractional lower
    /// bound `total_cpu_load / workers`.
    cpu_margin: Option<f64>,
    /// MCTS rollout greediness for this case.
    greedy_bias: f64,
    /// Smoke-mode expectation: the DFS must exhaust its budget without
    /// finding any feasible plan, while MCTS must find one.
    expect_separation: bool,
}

/// The 16-task ground-truth case: four homogeneous operators on four
/// workers, exhaustible by the DFS, unbounded thresholds.
fn case16() -> Case {
    let mut b = LogicalGraph::builder("any16");
    let s = b.operator(
        "src",
        OperatorKind::Source,
        4,
        ResourceProfile::new(0.0004, 0.0, 80.0, 1.0),
    );
    let f = b.operator(
        "filter",
        OperatorKind::Stateless,
        4,
        ResourceProfile::new(0.0008, 0.0, 10.0, 0.6),
    );
    let h = b.operator(
        "agg",
        OperatorKind::Window,
        4,
        ResourceProfile::new(0.0015, 400.0, 40.0, 0.5),
    );
    let k = b.operator(
        "sink",
        OperatorKind::Sink,
        4,
        ResourceProfile::new(0.0001, 0.0, 0.0, 1.0),
    );
    b.edge(s, f, ConnectionPattern::Rebalance);
    b.edge(f, h, ConnectionPattern::Hash);
    b.edge(h, k, ConnectionPattern::Hash);
    let logical = b.build().expect("16-task graph");
    let mut rates = HashMap::new();
    rates.insert(OperatorId(0), 800.0);
    Case {
        name: "t16",
        tasks: 16,
        workers: 4,
        logical,
        rates,
        node_budget: 600_000,
        cpu_margin: None,
        greedy_bias: 0.3,
        expect_separation: false,
    }
}

/// A Zipf-skewed pipeline: `src -> work -> sink` where `work` carries a
/// Zipf(s) per-task input distribution and is split into `groups`
/// placement-group operators. Group parallelisms are deliberately *not*
/// divisible by the worker count, so no slot-balanced row is load
/// balanced and feasibility under a tight CPU margin requires the
/// anti-balanced packings the DFS visits last.
#[allow(clippy::too_many_arguments)]
fn skewed_case(
    name: &'static str,
    src_par: usize,
    work_par: usize,
    sink_par: usize,
    groups: usize,
    workers: usize,
    rate: f64,
    node_budget: usize,
    cpu_margin: f64,
    expect_separation: bool,
) -> Case {
    let mut b = LogicalGraph::builder(name);
    let s = b.operator(
        "src",
        OperatorKind::Source,
        src_par,
        ResourceProfile::new(0.0002, 0.0, 60.0, 1.0),
    );
    let w = b.operator(
        "work",
        OperatorKind::Window,
        work_par,
        ResourceProfile::new(0.004, 200.0, 30.0, 0.5),
    );
    let k = b.operator(
        "sink",
        OperatorKind::Sink,
        sink_par,
        ResourceProfile::new(0.0002, 0.0, 0.0, 1.0),
    );
    b.edge(s, w, ConnectionPattern::Hash);
    b.edge(w, k, ConnectionPattern::Hash);
    let base = b.build().expect("skewed base graph");
    let skew = apply_skew(&base, &[SkewSpec::zipf(w, work_par, 1.1)], groups)
        .expect("skew transformation");
    let mut rates = HashMap::new();
    rates.insert(OperatorId(0), rate);
    Case {
        name,
        tasks: src_par + work_par + sink_par,
        workers,
        logical: skew.logical,
        rates,
        node_budget,
        cpu_margin: Some(cpu_margin),
        greedy_bias: 0.85,
        expect_separation,
    }
}

fn cases() -> Vec<Case> {
    vec![
        case16(),
        // 64 tasks: curve comparison only (no separation claim) — the
        // space is already too big to exhaust but small enough that the
        // DFS sometimes stumbles onto feasible corners.
        skewed_case("t64", 8, 42, 14, 6, 8, 2000.0, 400_000, 0.30, false),
        // 256 and 1024 tasks: the DFS must exhaust its budget with zero
        // feasible plans while MCTS finds one within the same budget.
        // The margins were calibrated empirically: one notch looser and
        // the DFS stumbles onto feasible corners (at 0.12 / 0.09 it
        // finds thousands), one notch tighter and the feasible set thins
        // out beyond what cost-guided sampling reaches in budget.
        skewed_case("t256", 16, 216, 24, 8, 8, 4000.0, 1_500_000, 0.10, true),
        skewed_case("t1024", 32, 928, 64, 8, 16, 8000.0, 1_200_000, 0.07, true),
    ]
}

fn parse_args() -> bool {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other} (supported: --smoke)");
                std::process::exit(2);
            }
        }
    }
    smoke
}

fn best_cost(out: &SearchOutcome) -> Option<f64> {
    out.feasible
        .iter()
        .map(|s| s.cost.max_component())
        .min_by(|a, b| a.partial_cmp(b).expect("finite costs"))
}

/// Renders everything a run must reproduce under the same seed and
/// budget into one comparable string.
fn determinism_surface(out: &SearchOutcome) -> String {
    let assignments: Vec<Vec<usize>> = out
        .feasible
        .iter()
        .map(|s| s.plan.assignment().iter().map(|w| w.0).collect())
        .collect();
    let costs: Vec<[u64; 3]> = out
        .feasible
        .iter()
        .map(|s| {
            [
                s.cost.cpu.to_bits(),
                s.cost.io.to_bits(),
                s.cost.net.to_bits(),
            ]
        })
        .collect();
    format!(
        "assignments={assignments:?} costs={costs:?} anytime={:?} report={:?} nodes={}",
        out.anytime, out.mcts, out.stats.nodes
    )
}

fn curve_json(out: &SearchOutcome) -> Json {
    Json::Arr(
        out.anytime
            .iter()
            .map(|p| {
                obj(vec![
                    ("nodes", Json::Num(p.nodes as f64)),
                    ("cost", Json::Num(p.cost)),
                ])
            })
            .collect(),
    )
}

fn assert_monotone(out: &SearchOutcome, label: &str) {
    for pair in out.anytime.windows(2) {
        assert!(
            pair[1].cost < pair[0].cost && pair[1].nodes >= pair[0].nodes,
            "{label}: anytime curve must be monotone non-increasing"
        );
    }
}

fn main() {
    let smoke = parse_args();
    banner(
        "exp_search",
        "anytime search quality: DFS vs MCTS under a node budget",
        "§4.4 / §5.1",
    );
    let started = Instant::now();
    let mut case_records = Vec::new();

    for case in cases() {
        let physical = PhysicalGraph::expand(&case.logical);
        assert_eq!(
            physical.num_tasks(),
            case.tasks,
            "{}: task count",
            case.name
        );
        let slots = case.tasks.div_ceil(case.workers);
        let cluster = Cluster::homogeneous(case.workers, WorkerSpec::new(slots, 4.0, 1e8, 1e9))
            .expect("cluster");
        let loads = LoadModel::derive(&case.logical, &physical, &case.rates).expect("load model");
        let model = CostModel::new(&physical, &cluster, &loads).expect("cost model");

        // CPU threshold: a small margin above the fractional lower bound
        // `total / workers`, expressed in cost space so the search's own
        // threshold-to-load inversion is exercised.
        let total_cpu: f64 = (0..case.tasks)
            .map(|t| model.task_load(capsys_model::TaskId(t))[0].to_f64())
            .sum();
        let ideal = total_cpu / case.workers as f64;
        let thresholds = match case.cpu_margin {
            None => Thresholds::unbounded(),
            Some(margin) => {
                let bound = Fixed64::from_f64(ideal * (1.0 + margin));
                Thresholds::new(model.load_to_cost(0, bound), f64::INFINITY, f64::INFINITY)
            }
        };

        let search = CapsSearch::new(&case.logical, &physical, &cluster, &loads).expect("search");
        let base = SearchConfig {
            max_plans: 16,
            node_budget: Some(case.node_budget),
            ..SearchConfig::with_thresholds(thresholds)
        };

        let dfs_started = Instant::now();
        let dfs = search.run(&base.clone()).expect("dfs run");
        let dfs_secs = dfs_started.elapsed().as_secs_f64();
        let dfs_best = best_cost(&dfs);
        assert_monotone(&dfs, case.name);
        println!(
            "[{}] dfs: nodes={} plans={} aborted={} best={:?} ({dfs_secs:.2}s)",
            case.name, dfs.stats.nodes, dfs.stats.plans_found, dfs.stats.aborted, dfs_best
        );

        let mut mcts_records = Vec::new();
        let mut first_seed_surface = None;
        for seed in SEEDS {
            let cfg = SearchConfig {
                backend: SearchBackend::Mcts(MctsConfig {
                    greedy_bias: case.greedy_bias,
                    ..MctsConfig::seeded(seed)
                }),
                ..base.clone()
            };
            let run_started = Instant::now();
            let out = search.run(&cfg).expect("mcts run");
            let secs = run_started.elapsed().as_secs_f64();
            let best = best_cost(&out);
            assert_monotone(&out, case.name);
            let report = out.mcts.as_ref().expect("mcts report");
            println!(
                "[{}] mcts seed {seed}: nodes={} playouts={} feasible_rollouts={} best={best:?} ({secs:.2}s)",
                case.name, out.stats.nodes, report.iterations, report.feasible_rollouts
            );
            if smoke && seed == SEEDS[0] {
                // Same seed + same budget must replay byte-identically,
                // even after the DFS ran in between.
                let replay = search.run(&cfg).expect("mcts replay");
                assert_eq!(
                    determinism_surface(&out),
                    determinism_surface(&replay),
                    "{}: same-seed MCTS replay diverged",
                    case.name
                );
                first_seed_surface = Some(determinism_surface(&out));
            }
            mcts_records.push((seed, out, best, secs));
        }
        drop(first_seed_surface);

        if smoke {
            if case.cpu_margin.is_none() {
                // Ground-truth case: the DFS exhausts the space and MCTS
                // must land on the identical optimum for every seed.
                assert!(!dfs.stats.aborted, "{}: DFS must exhaust", case.name);
                let dfs_opt = dfs_best.expect("DFS optimum");
                for (seed, _, best, _) in &mcts_records {
                    let b = best.unwrap_or(f64::INFINITY);
                    assert_eq!(
                        b.to_bits(),
                        dfs_opt.to_bits(),
                        "{}: seed {seed} MCTS best {b} != DFS optimum {dfs_opt}",
                        case.name
                    );
                }
            }
            if case.expect_separation {
                assert!(
                    dfs.stats.aborted && dfs.feasible.is_empty(),
                    "{}: DFS was expected to exhaust its budget with no \
                     feasible plan (found {})",
                    case.name,
                    dfs.stats.plans_found
                );
                for (seed, out, best, _) in &mcts_records {
                    assert!(
                        best.is_some() && out.stats.nodes <= case.node_budget + case.workers,
                        "{}: seed {seed} MCTS found no feasible plan in budget",
                        case.name
                    );
                }
            }
        }

        let mcts_json: Vec<Json> = mcts_records
            .iter()
            .map(|(seed, out, best, secs)| {
                let report = out.mcts.as_ref().expect("mcts report");
                obj(vec![
                    ("seed", Json::Num(*seed as f64)),
                    ("nodes", Json::Num(out.stats.nodes as f64)),
                    ("playouts", Json::Num(report.iterations as f64)),
                    (
                        "feasible_rollouts",
                        Json::Num(report.feasible_rollouts as f64),
                    ),
                    ("feasible", Json::Bool(best.is_some())),
                    ("best_cost", best.map(Json::Num).unwrap_or(Json::Null)),
                    ("seconds", Json::Num(*secs)),
                    ("anytime", curve_json(out)),
                ])
            })
            .collect();

        case_records.push(obj(vec![
            ("name", Json::Str(case.name.to_string())),
            ("tasks", Json::Num(case.tasks as f64)),
            ("workers", Json::Num(case.workers as f64)),
            ("node_budget", Json::Num(case.node_budget as f64)),
            (
                "cpu_margin",
                case.cpu_margin.map(Json::Num).unwrap_or(Json::Null),
            ),
            ("separation_expected", Json::Bool(case.expect_separation)),
            (
                "dfs",
                obj(vec![
                    ("nodes", Json::Num(dfs.stats.nodes as f64)),
                    ("plans_found", Json::Num(dfs.stats.plans_found as f64)),
                    ("aborted", Json::Bool(dfs.stats.aborted)),
                    ("feasible", Json::Bool(dfs_best.is_some())),
                    ("best_cost", dfs_best.map(Json::Num).unwrap_or(Json::Null)),
                    ("seconds", Json::Num(dfs_secs)),
                    ("anytime", curve_json(&dfs)),
                ]),
            ),
            ("mcts", Json::Arr(mcts_json)),
        ]));
    }

    let record = obj(vec![
        ("schema", Json::Str("capsys/bench-anytime/v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        (
            "seeds",
            Json::Arr(SEEDS.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("cases", Json::Arr(case_records)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let path = capsys_bench::bench_record_path("BENCH_anytime.json", smoke);
    std::fs::write(&path, record.to_pretty() + "\n").expect("write BENCH_anytime.json");
    println!("\nwrote {}", path.display());

    // The record must round-trip and carry the keys downstream tooling
    // (and the acceptance criteria) rely on.
    let raw = std::fs::read_to_string(&path).expect("re-read BENCH_anytime.json");
    let parsed = Json::parse(&raw).expect("BENCH_anytime.json must parse");
    for key in ["schema", "smoke", "seeds", "cases"] {
        assert!(parsed.get(key).is_some(), "missing key {key:?}");
    }
    let cases_arr = parsed
        .get("cases")
        .and_then(|c| c.as_array())
        .expect("cases");
    assert_eq!(cases_arr.len(), 4, "expected 4 cases");
    for c in cases_arr {
        for key in ["name", "dfs", "mcts", "node_budget"] {
            assert!(c.get(key).is_some(), "case missing key {key:?}");
        }
    }
    println!("exp_search done in {:.1}s", started.elapsed().as_secs_f64());
}
