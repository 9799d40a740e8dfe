//! Search-performance trajectory: nodes/sec, wall time, thread scaling,
//! and auto-tune probe counts, recorded so successive versions compare.
//!
//! Runs the CAPS search on a Table-2-scale topology (Q3-inf ×2 on an
//! 8-worker cluster; `--smoke` shrinks to Q3-inf on 5 workers) across
//! `threads ∈ {1, 2, 4, 8}`, then times threshold auto-tuning and
//! records how many of its grid steps needed a search. Results are written to
//! `BENCH_search.json` at the repository root so successive PRs leave a
//! comparable perf record.
//!
//! v2 additions: every scaling row reports the dead-state memo hits and
//! re-verifies the exact fixed-point accumulator (stored costs must equal
//! a from-scratch recost bit-for-bit); a dedicated section measures the
//! memo on a 64-task symmetric topology, where cross-layer transpositions
//! actually occur; and the 1.5× parallel-speedup gate is honest — it is
//! *skipped with an explicit marker* (recorded in BENCH_search.json next
//! to `hardware_threads`) when the machine cannot physically provide a
//! speedup, instead of silently passing or failing on single-core
//! runners.
//!
//! The smoke mode sanity-checks the run: the feasible plan count must be
//! identical across thread counts.

use std::collections::HashMap;
use std::time::Instant;

use capsys_bench::banner;
use capsys_core::{AutoTuner, CapsSearch, SearchConfig, Thresholds};
use capsys_model::{
    Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind, PhysicalGraph,
    ResourceProfile, WorkerSpec,
};
use capsys_queries::q3_inf;
use capsys_util::json::{obj, Json};

/// Hard floor on the 4-thread speedup when ≥ 4 hardware threads exist.
const MIN_SPEEDUP_4T: f64 = 1.5;

/// Network threshold for the symmetric-topology memo section. CPU and
/// I/O are symmetric there (every complete plan balances them exactly),
/// so only the net dimension prunes. `0.2` sits below the first-witness
/// cost of ~0.47 but above the best collocated plans, leaving a thin
/// feasible set (~8.6k plans) inside a tree small enough to explore
/// completely with the memo both on and off.
const SYM_NET_ALPHA: f64 = 0.2;

/// A 64-task chain of sixteen *identical* operators (4 tasks each)
/// joined by hash shuffles. Every task carries the same exact load, so
/// the search reaches equal states down many different prefixes — the
/// cross-layer transpositions the dead-state memo exists to catch, which
/// heterogeneous queries like Q3-inf almost never produce. The deep
/// chain (many memoizable layer boundaries) is what makes the effect
/// large.
fn symmetric_query() -> (LogicalGraph, HashMap<OperatorId, f64>) {
    let mut b = LogicalGraph::builder("sym64");
    let profile = ResourceProfile::new(0.001, 0.0, 100.0, 1.0);
    let src = b.operator("src", OperatorKind::Source, 4, profile);
    let mut prev = src;
    for i in 1..=14 {
        let op = b.operator(&format!("map{i}"), OperatorKind::Stateless, 4, profile);
        b.edge(prev, op, ConnectionPattern::Hash);
        prev = op;
    }
    let sink = b.operator("sink", OperatorKind::Sink, 4, profile);
    b.edge(prev, sink, ConnectionPattern::Hash);
    let mut rates = HashMap::new();
    rates.insert(src, 1000.0);
    (b.build().expect("symmetric graph"), rates)
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

/// Fastest of the timed reps. On a shared runner, scheduler noise only
/// ever *adds* wall time, so the minimum is the robust estimator of what
/// the search can actually sustain — a median would bounce with the
/// machine's load average.
fn best(xs: Vec<f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn main() {
    let smoke = parse_args();
    banner(
        "Search perf",
        "nodes/sec, thread scaling, auto-tune probes",
        "§5.1-5.2",
    );

    let (query, num_workers, alpha, reps) = if smoke {
        (q3_inf(), 5usize, Thresholds::new(0.5, 0.5, f64::INFINITY), 5)
    } else {
        (
            q3_inf().scaled(2).expect("scaling"),
            8usize,
            Thresholds::new(0.35, f64::INFINITY, f64::INFINITY),
            2,
        )
    };
    let cluster = Cluster::homogeneous(num_workers, WorkerSpec::r5d_xlarge(4)).expect("cluster");
    let physical = query.physical();
    let loads = query.load_model(&physical).expect("loads");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!(
        "{}: {} tasks on {} workers x {} slots, alpha=({}, {}, {}), {} hardware threads\n",
        if smoke { "Q3-inf (smoke)" } else { "Q3-inf x2" },
        physical.num_tasks(),
        cluster.num_workers(),
        cluster.slots_per_worker(),
        alpha.cpu,
        alpha.io,
        alpha.net,
        hardware_threads,
    );

    // --- Thread-scaling sweep -------------------------------------------
    let header = format!(
        "{:<8} {:>10} {:>12} {:>14} {:>10} {:>10} {:>6}",
        "threads", "wall_ms", "nodes", "nodes/sec", "plans", "memo_hits", "exact"
    );
    println!("{header}");
    capsys_bench::rule(&header);

    let mut scaling = Vec::new();
    let mut wall_by_threads = HashMap::new();
    let mut plan_counts = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        // A realistic cap: CAPS deployments keep a shortlist of the best
        // plans, not every feasible leaf. The capped store also exercises
        // the schedule-independent truncation path under load.
        let config = SearchConfig {
            threads,
            max_plans: 64,
            ..SearchConfig::with_thresholds(alpha)
        };
        // One untimed warmup: the first run after a topology switch pays
        // for page faults and frequency ramp-up, which would skew a
        // small-rep median.
        search.run(&config).expect("warmup runs");
        let mut walls = Vec::new();
        let mut last = None;
        for _ in 0..reps {
            let out = search.run(&config).expect("search runs");
            assert!(!out.stats.aborted, "scaling run must complete");
            walls.push(out.stats.elapsed.as_secs_f64() * 1e3);
            last = Some(out);
        }
        let out = last.expect("at least one rep");
        // Exact-accumulator audit: every stored cost came from the
        // incremental fixed-point accumulator; a from-scratch recost of
        // the same plan must reproduce it bit-for-bit, not within an
        // epsilon.
        let exact = out.feasible.iter().all(|sp| {
            let recost = search.cost_model().cost(&physical, &sp.plan);
            [
                (recost.cpu, sp.cost.cpu),
                (recost.io, sp.cost.io),
                (recost.net, sp.cost.net),
            ]
            .iter()
            .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        assert!(
            exact,
            "incremental accumulator drifted from from-scratch recost at {threads} threads"
        );
        let wall_ms = best(walls);
        let nodes_per_sec = out.stats.nodes as f64 / (wall_ms / 1e3);
        println!(
            "{:<8} {:>10.1} {:>12} {:>14.0} {:>10} {:>10} {:>6}",
            threads,
            wall_ms,
            out.stats.nodes,
            nodes_per_sec,
            out.stats.plans_found,
            out.stats.memo_hits,
            exact
        );
        wall_by_threads.insert(threads, wall_ms);
        plan_counts.push(out.stats.plans_found);
        scaling.push(obj(vec![
            ("threads", Json::Num(threads as f64)),
            ("wall_ms", Json::Num(wall_ms)),
            ("nodes", Json::Num(out.stats.nodes as f64)),
            ("nodes_per_sec", Json::Num(nodes_per_sec)),
            ("plans_found", Json::Num(out.stats.plans_found as f64)),
            ("memo_hits", Json::Num(out.stats.memo_hits as f64)),
            ("exact_accumulator", Json::Bool(exact)),
        ]));
    }

    let identical = plan_counts.iter().all(|&c| c == plan_counts[0]);
    assert!(
        identical,
        "plan counts diverged across thread counts: {plan_counts:?}"
    );
    let speedup = |t: usize| wall_by_threads[&1] / wall_by_threads[&t];
    if hardware_threads > 1 {
        println!(
            "\nspeedup: 2t {:.2}x, 4t {:.2}x, 8t {:.2}x",
            speedup(2),
            speedup(4),
            speedup(8)
        );
    } else {
        // On a single-hardware-thread machine the per-thread ratios are
        // pure scheduler noise around 1.0; printing or recording them
        // would invite reading meaning into noise, so they are
        // suppressed entirely and only the skip marker is kept.
        println!("\nspeedup columns suppressed: 1 hardware thread");
    }

    // --- Auto-tune -------------------------------------------------------
    let tune_base = SearchConfig::auto_tuned();
    let t0 = Instant::now();
    let tuned = AutoTuner::new(&tune_base.auto_tune)
        .tune(&search, &tune_base)
        .expect("auto-tune");
    let tune_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!(
        "auto-tune: {:.1} ms, {} grid steps ({} searches + {} cache hits)",
        tune_ms, tuned.iterations, tuned.probe_searches, tuned.cache_hits
    );

    // --- Speedup gate ----------------------------------------------------
    // The 1.5× floor only makes sense when 4 hardware threads exist; on
    // smaller runners the gate is *skipped*, and the skip is recorded in
    // BENCH_search.json so a passing record from a single-core CI box
    // cannot be mistaken for a measured speedup.
    let speedup_gate = if hardware_threads >= 4 {
        assert!(
            speedup(4) >= MIN_SPEEDUP_4T,
            "4-thread speedup {:.2}x below the {MIN_SPEEDUP_4T}x floor",
            speedup(4)
        );
        format!("enforced: {:.2}x >= {MIN_SPEEDUP_4T}x", speedup(4))
    } else {
        let marker = format!(
            "skipped: {hardware_threads} hw thread{}",
            if hardware_threads == 1 { "" } else { "s" }
        );
        println!("speedup gate {marker} (need >= 4 for the {MIN_SPEEDUP_4T}x floor)");
        marker
    };

    // --- Dead-state memo on a symmetric topology ------------------------
    // Q3-inf's heterogeneous loads almost never produce equal exact load
    // multisets down two different prefixes, so the memo is idle there
    // (by design — that is the honest number for realistic queries). The
    // transpositions it exists for come from *symmetric* topologies:
    // identical operators make states reached in different layer orders
    // coincide exactly. This section measures that effect on a 64-task
    // chain of identical operators and gates on the memo actually firing.
    let (sym_query, sym_rates) = symmetric_query();
    let sym_physical = PhysicalGraph::expand(&sym_query);
    let sym_cluster = Cluster::homogeneous(2, WorkerSpec::r5d_xlarge(32)).expect("sym cluster");
    let sym_loads =
        LoadModel::derive(&sym_query, &sym_physical, &sym_rates).expect("sym loads");
    let sym_search =
        CapsSearch::new(&sym_query, &sym_physical, &sym_cluster, &sym_loads).expect("sym search");
    let sym_alpha = Thresholds::new(f64::INFINITY, f64::INFINITY, SYM_NET_ALPHA);
    println!(
        "\nsymmetric memo: {} tasks on {} workers x {} slots, alpha.net={}",
        sym_physical.num_tasks(),
        sym_cluster.num_workers(),
        sym_cluster.slots_per_worker(),
        SYM_NET_ALPHA,
    );
    let mut sym_rows = Vec::new();
    let mut sym_outcomes = Vec::new();
    for memo_on in [true, false] {
        let base = SearchConfig {
            threads: 1,
            max_plans: 64,
            ..SearchConfig::with_thresholds(sym_alpha)
        };
        let config = if memo_on { base } else { base.without_memo() };
        let t0 = Instant::now();
        let out = sym_search.run(&config).expect("symmetric search runs");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(!out.stats.aborted, "symmetric run must complete");
        println!(
            "  memo {:<3}  wall {:>8.1} ms  nodes {:>9}  plans {:>6}  hits {:>7}",
            if memo_on { "on" } else { "off" },
            wall_ms,
            out.stats.nodes,
            out.stats.plans_found,
            out.stats.memo_hits
        );
        sym_rows.push(obj(vec![
            ("memo", Json::Bool(memo_on)),
            ("wall_ms", Json::Num(wall_ms)),
            ("nodes", Json::Num(out.stats.nodes as f64)),
            ("plans_found", Json::Num(out.stats.plans_found as f64)),
            ("memo_hits", Json::Num(out.stats.memo_hits as f64)),
        ]));
        sym_outcomes.push(out);
    }
    let (with_memo, without_memo) = (&sym_outcomes[0], &sym_outcomes[1]);
    assert_eq!(
        with_memo.stats.plans_found, without_memo.stats.plans_found,
        "memo changed the feasible plan count"
    );
    assert_eq!(
        with_memo.feasible.len(),
        without_memo.feasible.len(),
        "memo changed the stored plan count"
    );
    for (a, b) in with_memo.feasible.iter().zip(&without_memo.feasible) {
        assert_eq!(a.plan, b.plan, "memo changed a stored plan");
    }
    assert!(
        with_memo.stats.plans_found > 0,
        "symmetric topology must have a feasible set at alpha.net={SYM_NET_ALPHA}"
    );
    assert!(
        with_memo.stats.memo_hits > 0,
        "memo never fired on the symmetric topology"
    );
    assert!(
        with_memo.stats.nodes <= without_memo.stats.nodes,
        "memo increased the node count"
    );
    let hit_rate = with_memo.stats.memo_hits as f64 / without_memo.stats.nodes as f64;
    let nodes_saved = without_memo.stats.nodes - with_memo.stats.nodes;
    println!(
        "  {} hits pruned {} of {} nodes ({:.1}%)",
        with_memo.stats.memo_hits,
        nodes_saved,
        without_memo.stats.nodes,
        100.0 * nodes_saved as f64 / without_memo.stats.nodes as f64
    );

    // --- Record ----------------------------------------------------------
    let generated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let record = obj(vec![
        ("schema", Json::Str("capsys/bench-search/v3".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("generated_unix", Json::Num(generated_unix as f64)),
        ("hardware_threads", Json::Num(hardware_threads as f64)),
        (
            "topology",
            obj(vec![
                ("query", Json::Str(query.name().into())),
                ("tasks", Json::Num(physical.num_tasks() as f64)),
                ("workers", Json::Num(cluster.num_workers() as f64)),
                (
                    "slots_per_worker",
                    Json::Num(cluster.slots_per_worker() as f64),
                ),
            ]),
        ),
        (
            "alpha",
            obj(vec![
                ("cpu", Json::Num(alpha.cpu)),
                ("io", Json::Num(alpha.io)),
                ("net", Json::Num(alpha.net)),
            ]),
        ),
        ("scaling", Json::Arr(scaling)),
        (
            "speedup",
            obj(if hardware_threads > 1 {
                vec![
                    ("t2", Json::Num(speedup(2))),
                    ("t4", Json::Num(speedup(4))),
                    ("t8", Json::Num(speedup(8))),
                    ("gate", Json::Str(speedup_gate.clone())),
                ]
            } else {
                vec![("gate", Json::Str(speedup_gate.clone()))]
            }),
        ),
        (
            "symmetric_memo",
            obj(vec![
                ("tasks", Json::Num(sym_physical.num_tasks() as f64)),
                ("workers", Json::Num(sym_cluster.num_workers() as f64)),
                ("alpha_net", Json::Num(SYM_NET_ALPHA)),
                ("runs", Json::Arr(sym_rows)),
                ("hit_rate", Json::Num(hit_rate)),
                ("nodes_saved", Json::Num(nodes_saved as f64)),
            ]),
        ),
        (
            "autotune",
            obj(vec![
                ("ms", Json::Num(tune_ms)),
                ("iterations", Json::Num(tuned.iterations as f64)),
                ("probe_searches", Json::Num(tuned.probe_searches as f64)),
                ("cache_hits", Json::Num(tuned.cache_hits as f64)),
                (
                    "thresholds",
                    obj(vec![
                        ("cpu", Json::Num(tuned.thresholds.cpu)),
                        ("io", Json::Num(tuned.thresholds.io)),
                        ("net", Json::Num(tuned.thresholds.net)),
                    ]),
                ),
            ]),
        ),
        (
            "determinism",
            obj(vec![
                ("plans_found", Json::Num(plan_counts[0] as f64)),
                ("identical_across_threads", Json::Bool(identical)),
            ]),
        ),
    ]);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, record.to_pretty() + "\n").expect("write BENCH_search.json");

    // Validate what landed on disk: a malformed record must fail the run.
    let raw = std::fs::read_to_string(path).expect("re-read BENCH_search.json");
    let parsed = Json::parse(&raw).expect("BENCH_search.json must parse");
    for key in [
        "schema",
        "mode",
        "hardware_threads",
        "topology",
        "alpha",
        "scaling",
        "speedup",
        "symmetric_memo",
        "autotune",
        "determinism",
    ] {
        assert!(
            parsed.get(key).is_some(),
            "BENCH_search.json is missing key {key:?}"
        );
    }
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("capsys/bench-search/v3")
    );
    // The skip marker (or enforcement record) must have landed on disk.
    assert!(
        parsed
            .get("speedup")
            .and_then(|s| s.get("gate"))
            .and_then(Json::as_str)
            .is_some_and(|g| g.starts_with("enforced") || g.starts_with("skipped")),
        "speedup gate marker missing from BENCH_search.json"
    );
    // On a 1-hardware-thread machine the gate must read `skipped` and
    // the per-thread speedup columns must be absent, not merely NaN or
    // noise-valued.
    if hardware_threads == 1 {
        let sp = parsed.get("speedup").expect("speedup section");
        assert!(
            sp.get("gate")
                .and_then(Json::as_str)
                .is_some_and(|g| g.starts_with("skipped")),
            "gate must read `skipped` with 1 hardware thread"
        );
        for key in ["t2", "t4", "t8"] {
            assert!(
                sp.get(key).is_none(),
                "speedup column {key:?} must be suppressed with 1 hardware thread"
            );
        }
    }
    assert_eq!(
        parsed
            .get("scaling")
            .and_then(Json::as_array)
            .map(|a| a.len()),
        Some(4)
    );

    println!("\nwrote {path}");
}
