//! The outcome of a CAPS search does not depend on the thread count.
//!
//! A multi-thread search starts on the caller's thread and splits only
//! once it outgrows `SPLIT_AFTER` nodes; a split search's threads offer
//! their plans to one store ranked by the total order `cmp_scored`, and
//! every visitor prunes against the full store's published worst cost.
//! None of that may show in the result: the stored plans, in order, the pareto
//! front and the recommended plan must be the same at 1, 2, 4 and 8
//! threads.
//!
//! Problems: the final searches of the paper's six queries at scales 1
//! and 2, each on the ⌈tasks / 4⌉ r5d.xlarge workers that just fit it,
//! at their tuned thresholds with the default store and store bound, and
//! the network-pressed Q3-inf instance of the search golden. Most of
//! these end within `SPLIT_AFTER` nodes; the rest split, and the test
//! checks that both kinds occur.

use capsys::caps::{AutoTuner, CapsSearch, SearchConfig, SearchOutcome, SPLIT_AFTER};
use capsys::model::{Cluster, WorkerSpec};
use capsys::queries::{all_queries, q3_inf, Query};

const THREADS: [usize; 3] = [2, 4, 8];

/// Runs the default final search of `search` at its tuned thresholds
/// (the tuner's probes run on one thread) on every thread count and
/// asserts the outcomes agree.
/// Returns whether the search outgrew `SPLIT_AFTER` nodes.
fn assert_thread_count_independent(label: &str, search: &CapsSearch<'_>) -> bool {
    let config = SearchConfig::auto_tuned();
    let thresholds = AutoTuner::new(&config.auto_tune)
        .tune(search, &config)
        .expect("tuning runs")
        .thresholds;
    let run = |threads: usize| -> SearchOutcome {
        search
            .run(&SearchConfig {
                thresholds: Some(thresholds),
                ..config.clone().with_threads(threads)
            })
            .expect("final search runs")
    };
    let base = run(1);
    assert!(
        !base.stats.aborted,
        "{label}: the one-thread search aborted"
    );
    assert!(base.best_scored().is_some(), "{label}: no plan");
    let large = base.stats.nodes > SPLIT_AFTER;
    for threads in THREADS {
        let out = run(threads);
        assert!(!out.stats.aborted, "{label}: aborted at {threads} threads");
        let expected = if large { threads } else { 1 };
        assert_eq!(out.stats.threads, expected, "{label}: {threads} threads");
        assert_eq!(
            out.best_scored(),
            base.best_scored(),
            "{label}: the recommended plan differs at {threads} threads"
        );
        assert_eq!(
            out.feasible, base.feasible,
            "{label}: the stored plans differ at {threads} threads"
        );
        assert_eq!(
            out.pareto, base.pareto,
            "{label}: the pareto front differs at {threads} threads"
        );
    }
    large
}

fn search_on_fitting_cluster(job: &Query, label: &str) -> bool {
    let physical = job.physical();
    let workers = physical.num_tasks().div_ceil(4);
    let cluster = Cluster::homogeneous(workers, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let loads = job.load_model(&physical).expect("load model");
    let search = CapsSearch::new(job.logical(), &physical, &cluster, &loads).expect("search");
    assert_thread_count_independent(label, &search)
}

#[test]
fn paper_queries_recommend_the_same_plan_at_every_thread_count() {
    let (mut small, mut large) = (0, 0);
    for query in all_queries() {
        for scale in [1, 2] {
            let job = query.scaled(scale).expect("scaled query");
            let label = format!("{} x{scale}", query.name());
            if search_on_fitting_cluster(&job, &label) {
                large += 1;
            } else {
                small += 1;
            }
        }
    }
    assert!(small > 0, "every search outgrew SPLIT_AFTER");
    assert!(large > 0, "no search outgrew SPLIT_AFTER");
}

#[test]
fn network_pressed_search_recommends_the_same_plan_at_every_thread_count() {
    // The search golden's Q3-inf-net: parallelism [1, 3, 3, 18, 1] on
    // 11 x r5d.xlarge at 70% of capacity, a 112 k-node final search.
    let query = q3_inf()
        .with_parallelism(&[1, 3, 3, 18, 1])
        .expect("valid parallelism");
    let physical = query.physical();
    let cluster = Cluster::homogeneous(11, WorkerSpec::r5d_xlarge(4)).expect("valid cluster");
    let rate = query.capacity_rate(&cluster, 0.7).expect("capacity rate");
    let loads = query.load_model_at(&physical, rate).expect("load model");
    let search = CapsSearch::new(query.logical(), &physical, &cluster, &loads).expect("search");
    assert!(assert_thread_count_independent("Q3-inf-net", &search));
}
