//! Differential battery for the exact fixed-point cost core.
//!
//! Three layers of agreement, each on randomly generated problems with
//! shrinking (`capsys_util::prop`; replay a failure with
//! `CAPSYS_PROP_SEED=<seed> cargo test <name>`):
//!
//! 1. The `Fixed64` accumulator itself: accumulate + undo in *any*
//!    order returns to the starting value **bit-exactly**, and
//!    `mul_int` distributes exactly over addition — the algebraic facts
//!    the search's incremental load bookkeeping rests on.
//! 2. The search: every stored plan's cost, produced by incremental
//!    accumulate/undo down the DFS, equals a from-scratch recost of the
//!    same plan **bit-for-bit** (`==` on the raw `f64` bits, not an
//!    epsilon).
//! 3. The legacy path: the fixed-point costs agree with a pure-`f64`
//!    recomputation from the raw `LoadModel` within `1e-9` relative,
//!    so the quantized core is a refinement of the old arithmetic, not
//!    a different model.

use std::collections::HashMap;

use capsys::caps::{CapsSearch, CostModel, SearchConfig, Thresholds};
use capsys::model::{
    enumerate_plans, Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
    PhysicalGraph, Placement, ResourceProfile, WorkerId, WorkerSpec,
};
use capsys_util::fixed::Fixed64;
use capsys_util::forall;
use capsys_util::prop::{floats, ints, vec_of, Config, FloatStrategy, IntStrategy, VecStrategy};
use capsys_util::rng::{SeedableRng, SliceRandom, SmallRng};

/// One quantization step of the Q31.32 representation.
const Q: f64 = 1.0 / (1u64 << 32) as f64;

/// Per-operator draw: (parallelism, cpu/rec, state B/rec, out B/rec,
/// selectivity). CPU per record is kept high enough that the CPU load
/// spread stays well clear of the quantization floor (see
/// `legacy_cost_tolerance`).
type OpDraw = (usize, f64, f64, f64, f64);

fn arb_ops() -> VecStrategy<(
    IntStrategy<usize>,
    FloatStrategy,
    FloatStrategy,
    FloatStrategy,
    FloatStrategy,
)> {
    vec_of(
        (
            ints(1usize..=4),
            floats(1e-4..5e-3),
            floats(0.0..5000.0),
            floats(1.0..1000.0),
            floats(0.1..1.5),
        ),
        2..=4,
    )
}

fn build_problem(ops: &[OpDraw], workers: usize, extra_slots: usize) -> (LogicalGraph, Cluster) {
    let n = ops.len();
    let mut b = LogicalGraph::builder("fxdiff");
    let mut prev = None;
    for (i, &(par, cpu, io, out, sel)) in ops.iter().enumerate() {
        let kind = if i == 0 {
            OperatorKind::Source
        } else if i + 1 == n {
            OperatorKind::Sink
        } else {
            OperatorKind::Stateless
        };
        let sel = if i + 1 == n { 1.0 } else { sel };
        let id = b.operator(
            format!("op{i}"),
            kind,
            par,
            ResourceProfile::new(cpu, io, out, sel),
        );
        if let Some(p) = prev {
            b.edge(p, id, ConnectionPattern::Hash);
        }
        prev = Some(id);
    }
    let g = b.build().expect("valid linear graph");
    let total = g.total_tasks();
    let slots = total.div_ceil(workers) + extra_slots;
    let cluster = Cluster::homogeneous(workers, WorkerSpec::new(slots, 2.0, 1e8, 1e9))
        .expect("valid cluster");
    (g, cluster)
}

fn loads_for(g: &LogicalGraph, physical: &PhysicalGraph, rate: f64) -> LoadModel {
    let rates: HashMap<OperatorId, f64> = g.sources().into_iter().map(|s| (s, rate)).collect();
    LoadModel::derive(g, physical, &rates).expect("load model")
}

fn cases() -> Config {
    Config::default().cases(24)
}

// --- Layer 1: the accumulator algebra -----------------------------------

#[test]
fn accumulate_and_undo_return_exactly_to_start() {
    forall!(cases(), (
        raw in vec_of(floats(-1e6..1e6), 1..=64),
        seed in ints(0u64..1_000_000),
    ) => {
        let vals: Vec<Fixed64> = raw.iter().map(|&x| Fixed64::from_f64(x)).collect();

        // Any fold order produces the same bits: integer addition is
        // associative and commutative, unlike f64 addition.
        let mut sorted = vals.clone();
        sorted.sort_by_key(|v| v.to_bits());
        let reference = sorted.iter().fold(Fixed64::ZERO, |a, &b| a + b);
        let mut acc = vals.iter().fold(Fixed64::ZERO, |a, &b| a + b);
        assert_eq!(acc.to_bits(), reference.to_bits(), "fold order changed the sum");

        // Undoing every element in a random order lands exactly on
        // zero, and redoing lands exactly on the sum — the invariant
        // the DFS relies on when it unwinds a placement row.
        let mut rng = SmallRng::seed_from_u64(*seed);
        let mut order: Vec<usize> = (0..vals.len()).collect();
        order.shuffle(&mut rng);
        for &i in &order {
            acc -= vals[i];
        }
        assert_eq!(acc.to_bits(), Fixed64::ZERO.to_bits(), "undo drifted off zero");
        for &i in &order {
            acc += vals[i];
        }
        assert_eq!(acc.to_bits(), reference.to_bits(), "redo drifted off the sum");
    });
}

#[test]
fn mul_int_distributes_exactly_over_addition() {
    forall!(cases(), (
        raw in vec_of(floats(0.0..1e5), 1..=32),
        k in ints(0i64..=16),
    ) => {
        // The network accumulator charges `rate × remote_channels`; the
        // search adds and removes such terms one channel at a time, so
        // k·(a+b) must equal k·a + k·b on the bit level.
        let vals: Vec<Fixed64> = raw.iter().map(|&x| Fixed64::from_f64(x)).collect();
        let term_sum = vals
            .iter()
            .fold(Fixed64::ZERO, |a, v| a + v.mul_int(*k));
        let sum_term = vals
            .iter()
            .fold(Fixed64::ZERO, |a, &v| a + v)
            .mul_int(*k);
        assert_eq!(term_sum.to_bits(), sum_term.to_bits());
    });
}

// --- Layer 2: incremental search cost == from-scratch recost, bit-exact --

/// Asserts every stored plan's cost vector is bit-identical to a
/// from-scratch recost by the model.
fn assert_bit_exact(search: &CapsSearch, physical: &PhysicalGraph, config: &SearchConfig) {
    let out = search.run(config).expect("search runs");
    let model = search.cost_model();
    for s in &out.feasible {
        let exact = model.cost(physical, &s.plan);
        for (got, want) in [
            (s.cost.cpu, exact.cpu),
            (s.cost.io, exact.io),
            (s.cost.net, exact.net),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "incremental cost {got:?} != recost {want:?} for {:?}",
                s.plan
            );
        }
    }
}

#[test]
fn incremental_search_costs_are_bit_identical_to_recost() {
    forall!(cases(), (
        ops in arb_ops(),
        workers in ints(2usize..=4),
        extra_slots in ints(2usize..=6),
    ) => {
        let (g, cluster) = build_problem(ops, *workers, *extra_slots);
        let physical = PhysicalGraph::expand(&g);
        let loads = loads_for(&g, &physical, 1000.0);
        let search = CapsSearch::new(&g, &physical, &cluster, &loads).expect("search");
        // Exhaustive exercises pure accumulate/undo; the thresholded
        // run exercises it under bound pruning; multi-threaded across
        // shared work units. All must store bit-exact costs.
        assert_bit_exact(&search, &physical, &SearchConfig {
            max_plans: 128,
            ..SearchConfig::exhaustive()
        });
        assert_bit_exact(&search, &physical, &SearchConfig {
            max_plans: 128,
            ..SearchConfig::with_thresholds(Thresholds::new(0.8, 0.8, 0.9))
        });
        assert_bit_exact(&search, &physical, &SearchConfig {
            max_plans: 128,
            threads: 4,
            ..SearchConfig::with_thresholds(Thresholds::new(0.8, 0.8, 0.9))
        });
    });
}

// --- Layer 3: agreement with the legacy pure-f64 path --------------------

/// The pre-fixed-point cost arithmetic: plain `f64` sums over the raw
/// `LoadModel`, normalized against the `f64` view of the load bounds.
fn legacy_cost(
    model: &CostModel,
    loads: &LoadModel,
    physical: &PhysicalGraph,
    plan: &Placement,
) -> [f64; 3] {
    let workers = model.num_workers();
    let mut worst = [0.0f64; 3];
    for w in 0..workers {
        let mut acc = [0.0f64; 3];
        for t in plan.tasks_on(WorkerId(w)) {
            let tl = loads.load(t);
            acc[0] += tl.cpu;
            acc[1] += tl.io;
            let fanout = physical.downstream(t).count();
            if fanout > 0 {
                let remote = physical
                    .downstream(t)
                    .filter(|ch| plan.worker_of(ch.to) != WorkerId(w))
                    .count();
                acc[2] += tl.net / fanout as f64 * remote as f64;
            }
        }
        for dim in 0..3 {
            worst[dim] = worst[dim].max(acc[dim]);
        }
    }
    let b = model.bounds();
    [0, 1, 2].map(|dim| {
        let denom = b.max[dim] - b.min[dim];
        if denom <= 0.0 {
            0.0
        } else {
            (worst[dim] - b.min[dim]) / denom
        }
    })
}

/// Agreement tolerance per dimension: `1e-9` relative, widened only by
/// the provable quantization bound. Each ingested load is within `Q/2`
/// of its `f64` source, so a bottleneck built from `n` tasks differs
/// from the `f64` sum by at most `(n + 2)·Q` before normalization
/// (the `+2` covers the quantized `L_min`/`L_max` bounds).
fn tolerance(num_tasks: usize, denom: f64) -> f64 {
    let quant = (num_tasks as f64 + 2.0) * Q / denom.max(Q);
    1e-9f64.max(quant)
}

#[test]
fn fixed_point_costs_agree_with_legacy_f64_path() {
    forall!(cases(), (
        ops in arb_ops(),
        workers in ints(2usize..=4),
        extra_slots in ints(2usize..=6),
    ) => {
        let (g, cluster) = build_problem(ops, *workers, *extra_slots);
        let physical = PhysicalGraph::expand(&g);
        let loads = loads_for(&g, &physical, 1000.0);
        let model = CostModel::new(&physical, &cluster, &loads).expect("model");
        let b = model.bounds();
        for plan in enumerate_plans(&physical, &cluster, 200).expect("plans") {
            let fx = model.cost(&physical, &plan);
            let legacy = legacy_cost(&model, &loads, &physical, &plan);
            for (dim, got) in [fx.cpu, fx.io, fx.net].into_iter().enumerate() {
                let denom = b.max[dim] - b.min[dim];
                let tol = tolerance(physical.num_tasks(), denom);
                assert!(
                    (got - legacy[dim]).abs() <= tol,
                    "dim {dim}: fixed {got} vs legacy {} (tol {tol}, denom {denom})",
                    legacy[dim]
                );
            }
        }
    });
}
