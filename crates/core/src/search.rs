//! The CAPS placement search (§4.3-4.4).
//!
//! The search walks the same outer/inner DFS tree as
//! [`capsys_model::PlanEnumerator`] (operators as outer layers, workers as
//! inner layers, symmetric-worker duplicate elimination) and adds:
//!
//! * **incremental load accounting** — per-worker `[L_cpu, L_io, L_net]`
//!   is maintained under `place`/`unplace`, with network traffic charged
//!   per cross-worker channel exactly as in Eq. 8;
//! * **threshold-based pruning** (§4.4.1) — a branch is cut as soon as any
//!   worker's accumulated load violates Eq. 10, which is sound because
//!   loads grow monotonically down the tree;
//! * **exploration reordering** (§4.4.2) — operators with the highest
//!   normalized resource consumption are explored first so that costly
//!   branches hit the threshold near the root; a first-feasible probe
//!   bounded on the network alone explores upstream-first instead
//!   ([`CapsSearch::exploration_order`]).

use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use capsys_model::{
    Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, PhysicalGraph, Placement,
    PlanEnumerator, PlanVisitor, TaskId,
};
use capsys_util::fixed::Fixed64;
use capsys_util::sync::hardware_threads;

use crate::autotune::{AutoTuneConfig, AutoTuneReport, AutoTuner};
use crate::cost::{CostModel, CostVector, Thresholds};
use crate::error::CapsError;
use crate::parallel::{DfsResult, Shared, SPLIT_AFTER};
use crate::pareto::pareto_front;

/// Slack when treating tiny `f64` denominators as degenerate in the
/// operator-reordering heuristic (reporting-side arithmetic only; the
/// search itself prunes on exact fixed-point mantissas).
const BOUND_EPS: f64 = 1e-9;

/// How often the DFS polls its shared state, the deadline, the stop
/// flag, the search-wide node count and the shared store bound: once
/// every `TIME_CHECK_MASK + 1` `place` calls (nodes). A raised flag, from
/// a first-feasible leaf or a thread that saw a budget run out, is thus
/// seen within that many nodes, and a run of `t` threads visits at most
/// `node_budget + t · (TIME_CHECK_MASK + 1)` nodes.
const TIME_CHECK_MASK: usize = 0x3FF;

/// Most threads [`SearchConfig::auto_tuned`] gives a search: the count
/// at which the split search's gain and the lock traffic on its one
/// shared plan store were measured (perfbench `place`, 2-vCPU VM). It
/// also bounds the threads that concurrent searches spawn, such as a
/// test harness running one search per core. Raise it only after paired
/// runs on a machine with more hardware threads.
const MAX_DEFAULT_THREADS: usize = 2;

/// Configuration of one CAPS search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Pruning thresholds; `None` runs threshold auto-tuning first (§5.2).
    pub thresholds: Option<Thresholds>,
    /// Explore operators in an order that prunes early
    /// ([`CapsSearch::exploration_order`]); `false` keeps operator-id
    /// order. CPU and I/O loads are known as soon as a task is placed,
    /// so resource-intensive operators go first (§4.4.2). A channel's
    /// network load is known only once both of its ends are placed, so a
    /// first-feasible probe whose only finite threshold is α_net places
    /// each operator after its upstream operators. The order never
    /// changes whether a plan exists.
    pub reorder: bool,
    /// Most threads the DFS (§5.1) may use. Every search starts on the
    /// caller's thread; one still running after
    /// [`SPLIT_AFTER`] nodes, at more than one
    /// thread, restarts split into DFS-ordered subtrees that the caller
    /// and `threads - 1` spawned threads claim from one shared cursor.
    /// The stored plans, the pareto front and the recommended plan do
    /// not depend on it (unless a budget cuts the run short); node
    /// counts do. First-feasible probes through
    /// [`CapsSearch::find_witness`] always run on one thread.
    pub threads: usize,
    /// Stop at the first feasible plan instead of exploring exhaustively.
    pub first_feasible: bool,
    /// Maximum number of feasible plans kept in memory. Further feasible
    /// plans still count in the statistics; stored plans are replaced only
    /// by cheaper ones.
    pub max_plans: usize,
    /// Abort after visiting this many tree nodes, counted over all
    /// threads: one thread stops at exactly this count, `t` threads
    /// within `t · 1024` nodes past it.
    pub node_budget: Option<usize>,
    /// Abort after this much wall-clock time from the start of the call.
    /// In [`CapsSearch::run`] it covers auto-tuning too: a budget that
    /// runs out while tuning fails the run with
    /// [`CapsError::BudgetExhausted`], and the search gets whatever time
    /// tuning left. `None` keeps every decision of the run independent
    /// of the clock.
    pub time_budget: Option<Duration>,
    /// Per-worker free slots, for placing onto a partially occupied or
    /// degraded cluster (e.g. after a worker failure). `None` uses every
    /// slot of every worker.
    pub free_slots: Option<Vec<usize>>,
    /// Auto-tuner settings used when `thresholds` is `None`.
    pub auto_tune: AutoTuneConfig,
    /// Store-bound pruning: once the plan store holds `max_plans`
    /// plans, cut every branch whose partial per-worker load already
    /// costs more than the worst stored plan's `max_component` in some
    /// dimension. It also cuts ties: a branch whose leading fully placed
    /// operators (in operator-id order) already rank after the worst
    /// stored plan's assignment, and whose partial cost already reaches
    /// that plan's (with the one operator left, if it is narrower than
    /// the cluster, charged the traffic it must receive). No leaf below
    /// such a branch can enter the store, so `feasible`, `pareto` and
    /// `best_scored` are exactly those of the unpruned run at the same
    /// `max_plans`, at every thread count; only `nodes`, `pruned` and
    /// `plans_found` shrink, and `plans_found` then counts the plans
    /// explored rather than every plan within the thresholds. A run in which a store cut fired
    /// reports no [`SearchOutcome::overflow`].
    pub incumbent_prune: bool,
}

impl SearchConfig {
    /// A search with explicit thresholds and otherwise default settings,
    /// except that store-bound pruning is off and it runs on one thread:
    /// every plan within the thresholds is explored and counted in
    /// `plans_found`, and `nodes` counts one traversal of the tree, which
    /// the plan-space experiments (paper Table 2) rely on.
    pub fn with_thresholds(thresholds: Thresholds) -> Self {
        SearchConfig {
            thresholds: Some(thresholds),
            incumbent_prune: false,
            threads: 1,
            ..SearchConfig::auto_tuned()
        }
    }

    /// A search that auto-tunes its thresholds first (the CAPSys
    /// default), then searches with store-bound pruning
    /// ([`SearchConfig::incumbent_prune`]): it keeps the same plans as
    /// the unpruned search and visits fewer nodes. A final search that
    /// outgrows [`SPLIT_AFTER`] nodes uses up to two
    /// of the machine's hardware threads; the tuner's probes stay on one.
    pub fn auto_tuned() -> Self {
        SearchConfig {
            thresholds: None,
            reorder: true,
            threads: hardware_threads().min(MAX_DEFAULT_THREADS),
            first_feasible: false,
            max_plans: 1024,
            node_budget: None,
            time_budget: None,
            free_slots: None,
            auto_tune: AutoTuneConfig::default(),
            incumbent_prune: true,
        }
    }

    /// An exhaustive, unpruned search that visits every distinct plan
    /// (no thresholds, no store-bound pruning).
    pub fn exhaustive() -> Self {
        SearchConfig::with_thresholds(Thresholds::unbounded())
    }

    /// Sets the thread count, returning the modified config.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Requests first-feasible mode, returning the modified config.
    pub fn first_feasible(mut self) -> Self {
        self.first_feasible = true;
        self
    }

    /// Enables store-bound pruning ([`SearchConfig::incumbent_prune`]),
    /// returning the modified config.
    pub fn incumbent_pruned(mut self) -> Self {
        self.incumbent_prune = true;
        self
    }
}

/// Total order on scored plans: `max_component` cost first, then the
/// plan's assignment vector as a deterministic tie-break. Using this
/// everywhere plans are ranked, truncated or returned makes the stored
/// plans, their order in [`SearchOutcome::feasible`] and
/// [`SearchOutcome::pareto`], and the recommended plan independent of
/// thread count and of which thread explored which subtree. Costs are
/// pure functions of exact fixed-point load mantissas, so equal plans
/// compare equal bit-for-bit no matter which schedule scored them.
pub(crate) fn cmp_scored(a: &ScoredPlan, b: &ScoredPlan) -> std::cmp::Ordering {
    a.cost
        .max_component()
        .partial_cmp(&b.cost.max_component())
        .expect("costs are finite")
        .then_with(|| a.plan.assignment().cmp(b.plan.assignment()))
}

/// A feasible plan together with its cost vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPlan {
    /// The placement plan.
    pub plan: Placement,
    /// Its cost `C⃗(f)`.
    pub cost: CostVector,
}

/// Statistics of one search run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunStats {
    /// Search tree nodes visited.
    pub nodes: usize,
    /// Branches pruned (threshold violations, store-bound cuts, tie
    /// cuts among them, and budget aborts).
    pub pruned: usize,
    /// Feasible plans discovered (including ones not stored). Under
    /// store-bound pruning, only the plans explored before their branch
    /// was cut: a plan that ties the full store's worst cost and ranks
    /// after it is mostly cut before it is reached, so it rarely counts.
    pub plans_found: usize,
    /// Wall-clock duration of the search phase.
    pub elapsed: Duration,
    /// Threads the search ran on: 1 unless a multi-thread DFS outgrew
    /// [`SPLIT_AFTER`] nodes and split.
    pub threads: usize,
    /// Whether the search stopped before fully exploring the tree — a
    /// node/time budget ran out or a cooperative stop fired. An aborted
    /// search may have missed feasible plans, so an *empty* outcome with
    /// `aborted` set means "budget exhausted", not "proven infeasible".
    pub aborted: bool,
}

/// The result of a CAPS search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Stored feasible plans (up to `max_plans`), in `cmp_scored`
    /// order: cheapest `max_component` first, ties by assignment.
    pub feasible: Vec<ScoredPlan>,
    /// The pareto front of the stored plans (§4.2 objective), in the
    /// same order.
    pub pareto: Vec<ScoredPlan>,
    /// Search statistics.
    pub stats: RunStats,
    /// The thresholds the search ran with.
    pub thresholds: Thresholds,
    /// Auto-tuning report, if auto-tuning ran.
    pub autotune: Option<AutoTuneReport>,
    /// The operator exploration order used.
    pub order: Vec<OperatorId>,
    /// Per-dimension pressure weights used for plan selection.
    pub pressure: [f64; 3],
    /// Per dimension, the smallest exact load that crossed the threshold
    /// bound on any pruned branch (`Fixed64::MAX` where none crossed).
    /// `None` unless the DFS explored its whole tree: an aborted run and
    /// a first-feasible stop leave it unset. So does a run in which a
    /// store-bound cut fired ([`SearchConfig::incumbent_prune`]): such a
    /// cut may hide a deeper threshold crossing, so the overflow
    /// describes threshold cuts only.
    ///
    /// Every plan this run's bound cut carries a load at or above the
    /// overflow in some dimension that recorded one, so a bound at least
    /// this run's and below `overflow` in each such dimension admits
    /// exactly this run's plans.
    pub overflow: Option<[Fixed64; 3]>,
}

/// The answer of a first-feasible probe ([`CapsSearch::find_witness`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Probe {
    /// A plan within the thresholds.
    Feasible(ScoredPlan),
    /// No plan was found. `overflow` is the exhausted run's
    /// [`SearchOutcome::overflow`]; `None` means the probe aborted on its
    /// node budget or deadline.
    Infeasible {
        /// Per-dimension minimum overflow load of the failed run.
        overflow: Option<[Fixed64; 3]>,
    },
}

impl SearchOutcome {
    /// The recommended plan: the plan of
    /// [`best_scored`](SearchOutcome::best_scored).
    pub fn best_plan(&self) -> Option<&Placement> {
        self.best_scored().map(|s| &s.plan)
    }

    /// The recommended plan with its cost.
    ///
    /// Costs are weighted by each dimension's *pressure* (aggregate
    /// demand over cluster capacity): imbalance along a dimension with
    /// ample headroom cannot hurt performance, so it should not veto a
    /// plan that balances the dimensions that do matter.
    ///
    /// The winner is the pareto plan with the smallest weighted maximum
    /// component, then the smallest maximum component, then the smallest
    /// CPU, I/O and network costs in that order, then the first under
    /// `cmp_scored` (the smallest assignment vector). The key is total,
    /// so the winner is a function of the stored plans alone, the same at
    /// every thread count.
    pub fn best_scored(&self) -> Option<&ScoredPlan> {
        let max_p = self
            .pressure
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let w = [
            self.pressure[0] / max_p,
            self.pressure[1] / max_p,
            self.pressure[2] / max_p,
        ];
        let key = |c: &crate::cost::CostVector| {
            let weighted = (c.cpu * w[0]).max(c.io * w[1]).max(c.net * w[2]);
            (weighted, c.max_component(), c.cpu, c.io, c.net)
        };
        self.pareto.iter().min_by(|a, b| {
            key(&a.cost)
                .partial_cmp(&key(&b.cost))
                .expect("costs are finite")
                .then_with(|| cmp_scored(a, b))
        })
    }
}

/// Edge shape relevant to network accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeShape {
    /// One-to-one channels between equal-parallelism operators.
    OneToOne,
    /// All-to-all channels (hash, rebalance, broadcast, degenerate forward).
    Mesh,
}

/// Static per-operator adjacency used by the incremental network model.
#[derive(Debug, Clone)]
pub(crate) struct OpTopology {
    /// Per-task `[cpu, io]` load of each operator's tasks (exact).
    task_load: Vec<[Fixed64; 2]>,
    /// Per-task, per-downstream-link output rate of each operator
    /// (exact).
    link_rate: Vec<Fixed64>,
    parallelism: Vec<usize>,
    /// `in_edges[o]` lists `(upstream op, shape)`.
    in_edges: Vec<Vec<(usize, EdgeShape)>>,
    /// `out_edges[o]` lists `(downstream op, shape)`.
    out_edges: Vec<Vec<(usize, EdgeShape)>>,
}

impl OpTopology {
    pub(crate) fn build(
        logical: &LogicalGraph,
        physical: &PhysicalGraph,
        model: &CostModel,
    ) -> OpTopology {
        let n_ops = physical.num_operators();
        let mut task_load = vec![[Fixed64::ZERO; 2]; n_ops];
        let mut link_rate = vec![Fixed64::ZERO; n_ops];
        let parallelism = physical.parallelism_vector();
        for op in 0..n_ops {
            let range = physical.operator_tasks(OperatorId(op));
            if let Some(first) = range.clone().next() {
                let l = model.task_load(TaskId(first));
                task_load[op] = [l[0], l[1]];
                link_rate[op] = model.link_rate(TaskId(first));
            }
        }
        let mut in_edges = vec![Vec::new(); n_ops];
        let mut out_edges = vec![Vec::new(); n_ops];
        for e in logical.edges() {
            let up = e.from.0;
            let down = e.to.0;
            let shape = match e.pattern {
                ConnectionPattern::Forward if parallelism[up] == parallelism[down] => {
                    EdgeShape::OneToOne
                }
                _ => EdgeShape::Mesh,
            };
            out_edges[up].push((down, shape));
            in_edges[down].push((up, shape));
        }
        OpTopology {
            task_load,
            link_rate,
            parallelism,
            in_edges,
            out_edges,
        }
    }
}

/// One prepared search problem: the exploration order (inside
/// `enumerator`), the exact per-dimension load bound and the
/// symmetry-deduplicated [`PlanEnumerator`], built by
/// [`CapsSearch::run_with_thresholds`] and explored by the DFS runner
/// (`crate::parallel`).
pub(crate) struct Problem<'a> {
    pub(crate) physical: &'a PhysicalGraph,
    pub(crate) model: &'a CostModel,
    pub(crate) topo: &'a OpTopology,
    pub(crate) enumerator: &'a PlanEnumerator,
    pub(crate) bound: [Fixed64; 3],
    pub(crate) config: &'a SearchConfig,
    pub(crate) deadline: Option<Instant>,
    pub(crate) start: Instant,
}

/// The pruning and plan-collection visitor driving the DFS.
pub(crate) struct CapsVisitor<'a> {
    physical: &'a PhysicalGraph,
    model: &'a CostModel,
    topo: &'a OpTopology,
    bound: [Fixed64; 3],
    num_workers: usize,
    // Dynamic state.
    cnt: Vec<Vec<usize>>,
    subtask_worker: Vec<Vec<usize>>,
    load: Vec<[Fixed64; 3]>,
    /// Flat arena of pending load deltas. Each `place` appends its deltas
    /// here and pushes the previous arena length onto `undo_marks`;
    /// `unplace` truncates back to the popped mark. One growing buffer
    /// instead of a `Vec<Vec<_>>` allocating per tree node. Deltas are
    /// exact fixed-point values, so apply+undo is a bit-exact no-op.
    delta_arena: Vec<(usize, [Fixed64; 3])>,
    undo_marks: Vec<usize>,
    // Results.
    /// Store-bound pruning ([`SearchConfig::incumbent_prune`]).
    store_prune: bool,
    /// Per-dimension exact load limits implied by `worst_cost` when
    /// `store_prune` is set; `Fixed64::MAX` while it is infinite.
    store_limit: [Fixed64; 3],
    /// The smallest worst stored cost of a full store that this visitor
    /// has seen, in the store or in the run's published bound
    /// (`f64::INFINITY` before). The worst cost only falls, so a leaf
    /// that costs more is rejected without taking the store's lock.
    worst_cost: f64,
    /// The full store's worst plan as this visitor last saw it under the
    /// store's lock, under store-bound pruning: its `max_component` cost
    /// (`f64::INFINITY` before the store fills, and always without
    /// store-bound pruning) and its per-task assignment, read together.
    /// The worst plan only falls under `cmp_scored`, so a leaf that loses
    /// to a stale pair loses to the current worst plan too
    /// ([`CapsVisitor::tie_cut`]).
    tie_cost: f64,
    tie_assignment: Vec<usize>,
    /// Per-worker scratch of the one-operator-left network bound.
    net_scratch: Vec<Fixed64>,
    /// Whether a store-bound cut fired, which voids the overflow.
    store_cut: bool,
    first_feasible: bool,
    // Budgets / cooperative stop.
    nodes: usize,
    node_budget: usize,
    /// Polled once every `TIME_CHECK_MASK + 1` nodes.
    deadline: Option<Instant>,
    /// The run's plan store, stop flag, node count and store bound; all
    /// but the store are polled with the deadline, and a first-feasible
    /// leaf raises the flag.
    shared: &'a Shared,
    /// Per dimension, the smallest load that crossed `bound` on a pruned
    /// branch (`Fixed64::MAX` while none has).
    overflow: [Fixed64; 3],
    aborted: bool,
}

impl<'a> CapsVisitor<'a> {
    /// A visitor for `ctx` that polls the run's `shared` state and stops
    /// after `node_budget` nodes of its own or of the run.
    pub(crate) fn new(
        ctx: &Problem<'a>,
        shared: &'a Shared,
        node_budget: usize,
    ) -> CapsVisitor<'a> {
        let (config, num_workers) = (ctx.config, ctx.model.num_workers());
        let n_ops = ctx.physical.num_operators();
        let mut visitor = CapsVisitor {
            physical: ctx.physical,
            model: ctx.model,
            topo: ctx.topo,
            bound: ctx.bound,
            num_workers,
            cnt: vec![vec![0; num_workers]; n_ops],
            subtask_worker: vec![Vec::new(); n_ops],
            load: vec![[Fixed64::ZERO; 3]; num_workers],
            delta_arena: Vec::with_capacity(256),
            undo_marks: Vec::with_capacity(64),
            store_prune: config.incumbent_prune,
            store_limit: [Fixed64::MAX; 3],
            worst_cost: f64::INFINITY,
            tie_cost: f64::INFINITY,
            tie_assignment: Vec::new(),
            net_scratch: Vec::with_capacity(num_workers),
            store_cut: false,
            first_feasible: config.first_feasible,
            nodes: 0,
            node_budget,
            deadline: ctx.deadline,
            shared,
            overflow: [Fixed64::MAX; 3],
            aborted: false,
        };
        visitor.read_store_bound();
        visitor
    }

    /// Whether this visitor stopped early on a budget or stop flag.
    pub(crate) fn was_aborted(&self) -> bool {
        self.aborted
    }

    /// Whether this visitor stopped because it used up its own node
    /// budget.
    pub(crate) fn ran_out_of_nodes(&self) -> bool {
        self.nodes > self.node_budget
    }

    /// Per dimension, the smallest load that crossed the threshold bound
    /// on any branch this visitor pruned (`Fixed64::MAX` where none did);
    /// `None` once a store-bound cut fired, since that cut may have
    /// hidden a threshold crossing deeper in its branch.
    pub(crate) fn overflow(&self) -> Option<[Fixed64; 3]> {
        (!self.store_cut).then_some(self.overflow)
    }

    /// The exact bottleneck loads of the current (complete) assignment.
    fn bottleneck_loads(&self) -> [Fixed64; 3] {
        let mut worst = [Fixed64::ZERO; 3];
        for l in &self.load {
            for dim in 0..3 {
                worst[dim] = worst[dim].max(l[dim]);
            }
        }
        worst
    }

    /// The cost vector implied by the current per-worker loads. Loads
    /// are exact mantissas, so this equals the cost model evaluated on
    /// the materialized placement bit-for-bit — no recosting needed.
    fn current_cost(&self) -> CostVector {
        self.model.cost_from_loads(self.bottleneck_loads())
    }

    fn should_stop(&mut self) -> bool {
        if !self.aborted && (self.nodes > self.node_budget || self.nodes & TIME_CHECK_MASK == 0) {
            // A poll adds the nodes since the last one (one interval) to
            // the shared count. A lone visitor's count never passes the
            // budget before its own does, so one thread stops exactly.
            let step = TIME_CHECK_MASK + 1;
            self.aborted = self.nodes > self.node_budget
                || self.shared.nodes.fetch_add(step, Ordering::Relaxed) + step > self.node_budget
                || self.deadline.is_some_and(|d| Instant::now() >= d)
                || self.shared.stop.load(Ordering::Relaxed);
            if !self.aborted {
                self.read_store_bound();
            }
        }
        self.aborted
    }

    /// Screens (and, under store-bound pruning, prunes) against the
    /// run's published store bound (`Shared::store_bound`) if it is
    /// tighter than what this visitor has seen.
    fn read_store_bound(&mut self) {
        let bound = f64::from_bits(self.shared.store_bound.load(Ordering::Relaxed));
        self.lower_worst_cost(bound);
    }

    /// Is operator `op` fully placed?
    fn is_placed(&self, op: usize) -> bool {
        self.subtask_worker[op].len() == self.topo.parallelism[op]
    }

    /// Computes the load deltas of placing `count` tasks of `op` on
    /// worker `w`, covering subtasks `[prefix, prefix + count)`, and
    /// appends them to the delta arena. Returns the arena index where
    /// this placement's deltas start.
    fn append_deltas(&mut self, w: usize, op: usize, count: usize) -> usize {
        // Take the arena out of `self` so the appending closure can hold
        // it mutably while the delta computation reads `self` fields.
        let mut arena = std::mem::take(&mut self.delta_arena);
        let start = arena.len();
        let mut add = |worker: usize, dim: usize, amount: Fixed64| {
            if amount == Fixed64::ZERO {
                return;
            }
            if let Some(entry) = arena[start..].iter_mut().find(|(dw, _)| *dw == worker) {
                entry.1[dim] += amount;
            } else {
                let mut d = [Fixed64::ZERO; 3];
                d[dim] = amount;
                arena.push((worker, d));
            }
        };

        // Every delta is an exact integer multiple of a per-op constant
        // (`mul_int` distributes over addition bit-exactly), so the sum
        // of deltas along any place/unplace path equals the from-scratch
        // per-channel accounting in `CostModel::worker_load`.
        let c = count as i64;
        let [cpu, io] = self.topo.task_load[op];
        add(w, 0, cpu.mul_int(c));
        add(w, 1, io.mul_int(c));

        let prefix = self.subtask_worker[op].len();

        // Outbound traffic of the newly placed tasks towards already
        // placed downstream operators.
        for &(down, shape) in &self.topo.out_edges[op] {
            if !self.is_placed(down) {
                continue;
            }
            let rate = self.topo.link_rate[op];
            match shape {
                EdgeShape::Mesh => {
                    let remote = (self.topo.parallelism[down] - self.cnt[down][w]) as i64;
                    add(w, 2, rate.mul_int(c * remote));
                }
                EdgeShape::OneToOne => {
                    for i in prefix..prefix + count {
                        if self.subtask_worker[down][i] != w {
                            add(w, 2, rate);
                        }
                    }
                }
            }
        }

        // Traffic from already placed upstream operators towards the newly
        // placed tasks: links that are now known to cross workers.
        for &(up, shape) in &self.topo.in_edges[op] {
            if !self.is_placed(up) {
                continue;
            }
            let rate = self.topo.link_rate[up];
            match shape {
                EdgeShape::Mesh => {
                    for w2 in 0..self.num_workers {
                        if w2 != w {
                            add(w2, 2, rate.mul_int(self.cnt[up][w2] as i64 * c));
                        }
                    }
                }
                EdgeShape::OneToOne => {
                    for i in prefix..prefix + count {
                        let uw = self.subtask_worker[up][i];
                        if uw != w {
                            add(uw, 2, rate);
                        }
                    }
                }
            }
        }

        drop(add);
        self.delta_arena = arena;
        start
    }

    /// Records a feasible plan, respecting the storage cap.
    fn record(&mut self, counts: &[Vec<usize>]) {
        let cost = self.current_cost();
        let mc = cost.max_component();
        // The incremental accumulator IS the stored cost: fixed-point
        // loads reach a leaf with the same mantissas on every schedule,
        // so `cmp_scored` is a schedule-independent total order with no
        // from-scratch recosting. A leaf that costs more than the worst
        // stored cost this visitor has seen is rejected without the lock;
        // the rest, ties among them, are screened under the lock by
        // cost and then by the subtask rows, which in operator-id order
        // are the plan's per-task assignment, before any plan is written.
        if mc > self.worst_cost {
            return;
        }
        let assignment = || self.subtask_worker.iter().flatten().copied();
        let mut store = self.shared.store.lock();
        if store.admits(mc, assignment()) {
            debug_assert!(
                Placement::from_op_counts(self.physical, counts).is_ok_and(|p| p
                    .assignment()
                    .iter()
                    .map(|w| w.0)
                    .eq(assignment()))
            );
            store.insert_assignment(cost, self.physical.num_tasks(), assignment());
        }
        let Some(worst) = store.worst() else {
            return;
        };
        let bound = worst.cost.max_component();
        if self.store_prune {
            self.tie_cost = bound;
            self.tie_assignment.clear();
            let worst = worst.plan.assignment().iter().map(|w| w.0);
            self.tie_assignment.extend(worst);
        }
        drop(store);
        // Costs are non-negative, and `+ 0.0` turns a -0.0 into 0.0, so
        // the bits order like the values.
        self.shared
            .store_bound
            .fetch_min((bound + 0.0).to_bits(), Ordering::Relaxed);
        self.lower_worst_cost(bound);
    }

    /// Lowers the worst stored cost this visitor screens leaves against
    /// to a full store's worst `max_component` cost, if below it. Under
    /// store-bound pruning it also turns that cost into per-dimension
    /// load limits. The inversion is exact and admits ties, so a branch
    /// over a limit holds only leaves whose cost exceeds that cost in
    /// that dimension — leaves the store would reject.
    fn lower_worst_cost(&mut self, worst: f64) {
        if worst < self.worst_cost {
            self.worst_cost = worst;
            if self.store_prune {
                for dim in 0..3 {
                    self.store_limit[dim] = self.model.cost_to_load(dim, worst);
                }
            }
        }
    }

    /// The tie cut, after a `place` of operator `op`: whether it
    /// completed `op` and the full store would reject every leaf below.
    /// The store limit admits ties, and most leaves of a long search tie
    /// the worst stored cost exactly, so `cmp_scored` rejects them on
    /// their assignment only at the leaf. The assignment lists tasks in
    /// operator-id order, so once the leading run of fully placed
    /// operators (ids `0..run`) compares greater than the worst plan's
    /// assignment on that prefix, every leaf below does too. If the
    /// partial bottleneck cost, which loads only raise, already reaches
    /// the worst plan's, every leaf below costs more or ties and loses on
    /// its assignment. The prefix only changes when `op` extends the run,
    /// so only then is it checked; the enumerator's skip of larger counts
    /// after a cut stays sound because a completing count is the largest
    /// one.
    fn tie_cut(&mut self, op: usize) -> bool {
        if !self.tie_cost.is_finite() || !self.is_placed(op) || !(0..op).all(|o| self.is_placed(o))
        {
            return false;
        }
        let n_ops = self.topo.parallelism.len();
        let run = (op + 1..n_ops)
            .find(|&o| !self.is_placed(o))
            .unwrap_or(n_ops);
        let tasks = self.topo.parallelism[..run].iter().sum();
        let prefix = self.subtask_worker[..run].iter().flatten();
        if !prefix.cmp(&self.tie_assignment[..tasks]).is_gt() {
            return false;
        }
        let mut loads = self.bottleneck_loads();
        if let Some(net) = self.last_operator_net_bound() {
            loads[2] = loads[2].max(net);
        }
        self.model.cost_from_loads(loads).max_component() >= self.tie_cost
    }

    /// A lower bound on the network bottleneck of every leaf below, when
    /// exactly one operator `d` is unplaced and it has fewer tasks than
    /// there are workers; `None` otherwise. At least `workers − par_d`
    /// workers then host none of `d`'s tasks, and each of them sends `d`
    /// all of its upstream tasks' traffic: `par_d` channels per task on a
    /// mesh edge, one on a one-to-one edge. Nothing else adds network load
    /// on such a worker, so its final load is exactly its load now plus
    /// that traffic, and the (`par_d` + 1)-th largest such sum bounds the
    /// bottleneck from below. The sums are the exact multiples the leaf's
    /// deltas add up to.
    fn last_operator_net_bound(&mut self) -> Option<Fixed64> {
        let mut unplaced = (0..self.topo.parallelism.len()).filter(|&o| !self.is_placed(o));
        let d = unplaced.next()?;
        if unplaced.next().is_some() || self.topo.parallelism[d] >= self.num_workers {
            return None;
        }
        let par = self.topo.parallelism[d];
        self.net_scratch.clear();
        for w in 0..self.num_workers {
            let mut net = self.load[w][2];
            for &(up, shape) in &self.topo.in_edges[d] {
                let channels = match shape {
                    EdgeShape::Mesh => par,
                    EdgeShape::OneToOne => 1,
                };
                net += self.topo.link_rate[up].mul_int((self.cnt[up][w] * channels) as i64);
            }
            self.net_scratch.push(net);
        }
        let (_, kth, _) = self
            .net_scratch
            .select_nth_unstable_by(par, |a, b| b.cmp(a));
        Some(*kth)
    }
}

impl PlanVisitor for CapsVisitor<'_> {
    fn place(&mut self, worker: usize, op: OperatorId, count: usize) -> bool {
        self.nodes += 1;
        if self.should_stop() {
            return false;
        }
        if count == 0 {
            // Places nothing: every delta would be zero, so no load,
            // count or undo mark changes (`unplace` skips it too).
            return true;
        }
        let start = self.append_deltas(worker, op.0, count);
        // Check Eq. 10 — and, when the store is full under store-bound
        // pruning, the store limit — on every worker the deltas touch.
        // Bounds are exact inversions of the cost predicate, so no
        // epsilon is needed; the store limit admits equality, so plans
        // tying the worst stored cost survive. A threshold cut also
        // lowers the dimension's overflow: any bound below it keeps this
        // branch cut.
        for &(w, d) in &self.delta_arena[start..] {
            for dim in 0..3 {
                let add = d[dim];
                if add > Fixed64::ZERO {
                    let next = self.load[w][dim] + add;
                    if next > self.bound[dim] {
                        self.overflow[dim] = self.overflow[dim].min(next);
                        self.delta_arena.truncate(start);
                        return false;
                    }
                    if next > self.store_limit[dim] {
                        self.store_cut = true;
                        self.delta_arena.truncate(start);
                        return false;
                    }
                }
            }
        }
        for i in start..self.delta_arena.len() {
            let (w, d) = self.delta_arena[i];
            for (load, add) in self.load[w].iter_mut().zip(&d) {
                *load += *add;
            }
        }
        self.cnt[op.0][worker] += count;
        self.subtask_worker[op.0].extend(std::iter::repeat_n(worker, count));
        self.undo_marks.push(start);
        if self.tie_cut(op.0) {
            self.store_cut = true;
            self.unplace(worker, op, count);
            return false;
        }
        true
    }

    fn unplace(&mut self, worker: usize, op: OperatorId, count: usize) {
        if count == 0 {
            return;
        }
        let start = self
            .undo_marks
            .pop()
            .expect("unplace without matching place");
        for i in start..self.delta_arena.len() {
            let (w, d) = self.delta_arena[i];
            for (load, sub) in self.load[w].iter_mut().zip(&d) {
                *load -= *sub;
            }
        }
        self.delta_arena.truncate(start);
        self.cnt[op.0][worker] -= count;
        let len = self.subtask_worker[op.0].len();
        self.subtask_worker[op.0].truncate(len - count);
    }

    fn leaf(&mut self, counts: &[Vec<usize>]) -> bool {
        if self.aborted {
            return false;
        }
        self.record(counts);
        if self.first_feasible {
            self.shared.stop.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// The CAPS search engine bound to one placement problem instance.
pub struct CapsSearch<'a> {
    logical: &'a LogicalGraph,
    physical: &'a PhysicalGraph,
    cluster: &'a Cluster,
    model: CostModel,
    topo: OpTopology,
}

impl<'a> CapsSearch<'a> {
    /// Builds a search instance for a physical graph, cluster, and load
    /// model. The logical graph supplies edge patterns for the network
    /// accounting.
    pub fn new(
        logical: &'a LogicalGraph,
        physical: &'a PhysicalGraph,
        cluster: &'a Cluster,
        loads: &LoadModel,
    ) -> Result<CapsSearch<'a>, CapsError> {
        let model = CostModel::new(physical, cluster, loads)?;
        let topo = OpTopology::build(logical, physical, &model);
        Ok(CapsSearch {
            logical,
            physical,
            cluster,
            model,
            topo,
        })
    }

    /// The cost model for this problem instance.
    pub fn cost_model(&self) -> &CostModel {
        &self.model
    }

    /// The operator order a search under `thresholds` and `config`
    /// explores: the identity order without [`SearchConfig::reorder`],
    /// else the §4.4.2 order, except for network-only probes.
    ///
    /// CPU and I/O loads are known as soon as a task is placed, so the
    /// §4.4.2 order (highest normalized resource consumption first) makes
    /// costly branches hit those thresholds near the root. Network load
    /// is known only once both ends of a channel are placed (Eq. 8). In
    /// the §4.4.2 order a wide operator goes first and its channels are
    /// charged only when its last neighbour is placed, often at the bottom
    /// of the tree. A first-feasible probe whose only finite threshold is
    /// α_net therefore explores upstream-first: each operator after all of
    /// its upstream operators, ready operators taken in §4.4.2 order.
    /// Every layer then closes all channels into the operator it places,
    /// and the narrow sources of a scaled-out job come first, at one or
    /// two branches each on identical workers. Whether a plan exists does
    /// not depend on the order, so the probe's answer stands; its witness
    /// and overflow may differ.
    ///
    /// Runs that keep a plan store stay in the §4.4.2 order at every
    /// threshold vector. A capped store breaks cost ties on the
    /// assignment vector, and which of several worker-symmetric
    /// assignments the enumerator emits depends on the order, so another
    /// order could keep other plans and recommend another one.
    pub fn exploration_order(
        &self,
        thresholds: &Thresholds,
        config: &SearchConfig,
    ) -> Vec<OperatorId> {
        let n_ops = self.physical.num_operators();
        if !config.reorder {
            return (0..n_ops).map(OperatorId).collect();
        }
        let heavy_first = self.heavy_first();
        let net_only =
            !thresholds.cpu.is_finite() && !thresholds.io.is_finite() && thresholds.net.is_finite();
        if !(config.first_feasible && net_only) {
            return heavy_first;
        }
        // The logical graph is acyclic, so every operator becomes ready.
        let mut placed = vec![false; n_ops];
        let mut order = Vec::with_capacity(n_ops);
        while let Some(next) = heavy_first
            .iter()
            .copied()
            .find(|op| !placed[op.0] && self.topo.in_edges[op.0].iter().all(|&(up, _)| placed[up]))
        {
            placed[next.0] = true;
            order.push(next);
        }
        order
    }

    /// The §4.4.2 order: operators with the highest normalized resource
    /// consumption first.
    fn heavy_first(&self) -> Vec<OperatorId> {
        let n_ops = self.physical.num_operators();
        let bounds = self.model.bounds();
        let mut scored: Vec<(f64, usize)> = (0..n_ops)
            .map(|op| {
                let p = self.topo.parallelism[op] as f64;
                let [cpu, io] = self.topo.task_load[op].map(Fixed64::to_f64);
                // Approximate the operator's aggregate network demand by
                // its full outbound rate.
                let range = self.physical.operator_tasks(OperatorId(op));
                let net = range
                    .clone()
                    .next()
                    .map(|first| self.model.task_load(TaskId(first))[2].to_f64())
                    .unwrap_or(0.0);
                let mut score = 0.0f64;
                for (dim, load) in [(0, cpu * p), (1, io * p), (2, net * p)] {
                    let denom = bounds.max[dim] - bounds.min[dim];
                    if denom > BOUND_EPS {
                        score = score.max(load / denom);
                    }
                }
                (score, op)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .expect("scores are finite")
                .then(a.1.cmp(&b.1))
        });
        scored.into_iter().map(|(_, op)| OperatorId(op)).collect()
    }

    /// Runs the search. If `config.thresholds` is `None`, threshold
    /// auto-tuning (§5.2) runs first and its report is attached to the
    /// outcome. One deadline, `config.time_budget` from now, bounds both.
    pub fn run(&self, config: &SearchConfig) -> Result<SearchOutcome, CapsError> {
        let deadline = config.time_budget.map(|b| Instant::now() + b);
        let (thresholds, report) = match config.thresholds {
            Some(t) => (t, None),
            None => {
                let tuner = AutoTuner::new(&config.auto_tune);
                let report = tuner.tune_until(self, config, deadline)?;
                (report.thresholds, Some(report))
            }
        };
        let mut outcome = self.run_until(&thresholds, config, deadline, SPLIT_AFTER)?;
        outcome.autotune = report;
        Ok(outcome)
    }

    /// Runs the search with explicit thresholds, skipping auto-tuning.
    pub fn run_with_thresholds(
        &self,
        thresholds: &Thresholds,
        config: &SearchConfig,
    ) -> Result<SearchOutcome, CapsError> {
        let deadline = config.time_budget.map(|b| Instant::now() + b);
        self.run_until(thresholds, config, deadline, SPLIT_AFTER)
    }

    /// [`CapsSearch::run_with_thresholds`], splitting a multi-thread DFS
    /// once it outgrows `split_after` nodes instead of [`SPLIT_AFTER`]:
    /// at 0, every multi-thread run splits, whatever its tree's size.
    #[cfg(test)]
    pub(crate) fn run_split_after(
        &self,
        thresholds: &Thresholds,
        config: &SearchConfig,
        split_after: usize,
    ) -> Result<SearchOutcome, CapsError> {
        let deadline = config.time_budget.map(|b| Instant::now() + b);
        self.run_until(thresholds, config, deadline, split_after)
    }

    /// [`CapsSearch::run_with_thresholds`] against a deadline fixed by
    /// the caller, splitting a multi-thread DFS after `split_after`
    /// nodes.
    fn run_until(
        &self,
        thresholds: &Thresholds,
        config: &SearchConfig,
        deadline: Option<Instant>,
        split_after: usize,
    ) -> Result<SearchOutcome, CapsError> {
        if config.threads == 0 {
            return Err(CapsError::InvalidConfig("threads must be >= 1".into()));
        }
        if config.max_plans == 0 {
            return Err(CapsError::InvalidConfig("max_plans must be >= 1".into()));
        }
        let order = self.exploration_order(thresholds, config);
        let bound = self.model.load_bound(thresholds);
        let start = Instant::now();

        // A zero (or already elapsed) budget cannot be honored by the
        // periodic deadline poll inside the DFS — small trees could finish
        // before the first poll. Abort up front so exhausted budgets
        // behave deterministically.
        if deadline.is_some_and(|d| start >= d) {
            return Ok(SearchOutcome {
                feasible: Vec::new(),
                pareto: Vec::new(),
                stats: RunStats {
                    elapsed: start.elapsed(),
                    threads: 1,
                    aborted: true,
                    ..RunStats::default()
                },
                thresholds: *thresholds,
                autotune: None,
                order,
                pressure: self.model.pressure(),
                overflow: None,
            });
        }

        let mut enumerator =
            PlanEnumerator::new(self.physical, self.cluster)?.with_order(order.clone())?;
        if let Some(free) = &config.free_slots {
            enumerator = enumerator.with_free_slots(free.clone())?;
        }

        let problem = Problem {
            physical: self.physical,
            model: &self.model,
            topo: &self.topo,
            enumerator: &enumerator,
            bound,
            config,
            deadline,
            start,
        };
        let DfsResult {
            plans: found,
            stats,
            overflow,
        } = crate::parallel::run(&problem, split_after)?;

        let pareto = pareto_front(&found);
        Ok(SearchOutcome {
            feasible: found,
            pareto,
            stats,
            thresholds: *thresholds,
            autotune: None,
            order,
            pressure: self.model.pressure(),
            overflow,
        })
    }

    /// Runs a first-feasible probe under `config`'s budgets: a witness
    /// plan, or the failed run's minimum overflow.
    ///
    /// The probe runs on the caller's thread whatever `config.threads`
    /// says: on several threads, the witness would be whichever plan a
    /// thread found first.
    ///
    /// Used by the auto-tuner (§5.2): the witness's cost vector lets
    /// later probes re-validate it against relaxed thresholds in
    /// O(plan-size), and the overflow lets it skip every relaxed
    /// threshold that provably still fails, without launching a search.
    pub fn find_witness(
        &self,
        thresholds: &Thresholds,
        config: &SearchConfig,
    ) -> Result<Probe, CapsError> {
        let probe = SearchConfig {
            thresholds: Some(*thresholds),
            first_feasible: true,
            max_plans: 1,
            incumbent_prune: false,
            threads: 1,
            ..config.clone()
        };
        let outcome = self.run_with_thresholds(thresholds, &probe)?;
        Ok(match outcome.feasible.into_iter().next() {
            Some(witness) => Probe::Feasible(witness),
            None => Probe::Infeasible {
                overflow: outcome.overflow,
            },
        })
    }

    /// The logical graph this search was built from.
    pub fn logical(&self) -> &LogicalGraph {
        self.logical
    }

    /// The physical graph this search places.
    pub fn physical(&self) -> &PhysicalGraph {
        self.physical
    }

    /// The worker cluster this search places onto.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{enumerate_plans, OperatorKind, ResourceProfile, WorkerSpec};
    use std::collections::HashMap;

    fn fixture() -> (LogicalGraph, PhysicalGraph, Cluster, LoadModel) {
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
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        (g, p, c, lm)
    }

    #[test]
    fn exhaustive_search_finds_all_plans() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let all = enumerate_plans(&p, &c, usize::MAX).unwrap();
        let out = search
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        assert_eq!(out.stats.plans_found, all.len());
        assert_eq!(out.feasible.len(), all.len());
        assert!(!out.pareto.is_empty());
    }

    #[test]
    fn incremental_cost_matches_full_cost_model() {
        // The costs the search computes incrementally must equal the cost
        // model evaluated on the materialized placement.
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        let model = search.cost_model();
        for scored in &out.feasible {
            let exact = model.cost(&p, &scored.plan);
            // Bit-for-bit: both sides are pure functions of the same
            // fixed-point load mantissas.
            assert_eq!(
                (exact.cpu, exact.io, exact.net),
                (scored.cost.cpu, scored.cost.io, scored.cost.net),
                "incremental cost diverged from from-scratch recost"
            );
        }
    }

    #[test]
    fn thresholds_filter_exactly() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let all = search
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        let th = Thresholds::new(0.5, 0.5, 0.8);
        let expected = all.feasible.iter().filter(|s| s.cost.within(&th)).count();
        let pruned = search
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::with_thresholds(th)
            })
            .unwrap();
        assert_eq!(pruned.stats.plans_found, expected, "pruning must be exact");
        assert!(pruned.stats.nodes <= all.stats.nodes);
    }

    #[test]
    fn store_cuts_void_the_overflow() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let config = SearchConfig::with_thresholds(Thresholds::new(0.5, 0.5, 0.8));
        let unpruned = search.run(&config).unwrap();
        assert!(unpruned
            .overflow
            .is_some_and(|o| o.iter().any(|l| !l.is_max())));
        // A store that never fills cuts nothing, so the overflow stands.
        let roomy = search.run(&config.clone().incumbent_pruned()).unwrap();
        assert_eq!(roomy.stats.nodes, unpruned.stats.nodes);
        assert_eq!(roomy.overflow, unpruned.overflow);
        // A one-plan store cuts branches whose threshold crossings it
        // never sees, so the run reports no overflow.
        let tight = search
            .run(
                &SearchConfig {
                    max_plans: 1,
                    ..config
                }
                .incumbent_pruned(),
            )
            .unwrap();
        assert!(tight.stats.nodes < unpruned.stats.nodes);
        assert!(!tight.stats.aborted);
        assert_eq!(tight.overflow, None);
    }

    #[test]
    fn reordering_preserves_the_plan_set() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let inf = f64::INFINITY;
        for th in [
            Thresholds::new(0.5, 0.5, 0.8),
            Thresholds::new(inf, inf, 0.8),
        ] {
            let with = search
                .run(&SearchConfig {
                    max_plans: usize::MAX / 2,
                    reorder: true,
                    ..SearchConfig::with_thresholds(th)
                })
                .unwrap();
            let without = search
                .run(&SearchConfig {
                    max_plans: usize::MAX / 2,
                    reorder: false,
                    ..SearchConfig::with_thresholds(th)
                })
                .unwrap();
            assert_ne!(with.order, without.order, "{th:?}: reordering is a no-op");
            assert!(with.stats.pruned > 0, "{th:?}: nothing pruned");
            assert_eq!(with.stats.plans_found, without.stats.plans_found);
            // Same canonical plan sets.
            let key = |plans: &[ScoredPlan]| {
                let mut ks: Vec<_> = plans
                    .iter()
                    .map(|s| s.plan.canonical_key(&p, c.num_workers()))
                    .collect();
                ks.sort();
                ks
            };
            assert_eq!(key(&with.feasible), key(&without.feasible), "{th:?}");
        }
        // A network-only probe explores upstream-first; the full run at
        // the same thresholds keeps the §4.4.2 order. They agree on
        // feasibility at every step of a grid that crosses from
        // infeasible to feasible.
        let mut answers = Vec::new();
        for step in 0..40 {
            let th = Thresholds::new(inf, inf, 0.05 * step as f64);
            let config = SearchConfig::auto_tuned();
            let probe = search.find_witness(&th, &config).unwrap();
            let full = search.run(&SearchConfig::with_thresholds(th)).unwrap();
            assert_ne!(
                search.exploration_order(&th, &config.first_feasible()),
                full.order
            );
            let feasible = matches!(probe, Probe::Feasible(_));
            assert_eq!(feasible, full.stats.plans_found > 0, "{th:?}");
            answers.push(feasible);
        }
        assert!(answers.contains(&true) && answers.contains(&false));
    }

    #[test]
    fn exploration_order_depends_on_the_active_thresholds() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let inf = f64::INFINITY;
        let net_only = Thresholds::new(inf, inf, 0.5);
        let full = SearchConfig::auto_tuned();
        let probe = full.clone().first_feasible();
        // The window operator (id 1) dominates cpu and io, so it goes
        // first whenever cpu or io is bounded, or nothing is, and in
        // every run that keeps a plan store.
        for (th, config) in [
            (Thresholds::unbounded(), &probe),
            (Thresholds::new(0.5, inf, inf), &probe),
            (Thresholds::new(inf, 0.5, 0.5), &probe),
            (net_only, &full),
        ] {
            let order = search.exploration_order(&th, config);
            assert_eq!(order[0], OperatorId(1), "{th:?}");
        }
        // A network-only probe explores upstream-first.
        assert_eq!(
            search.exploration_order(&net_only, &probe),
            [OperatorId(0), OperatorId(1), OperatorId(2)]
        );
        // Without reordering, the identity order.
        let plain = SearchConfig {
            reorder: false,
            ..probe
        };
        assert_eq!(
            search.exploration_order(&net_only, &plain),
            [OperatorId(0), OperatorId(1), OperatorId(2)]
        );
    }

    #[test]
    fn upstream_first_takes_ready_operators_in_heavy_first_order() {
        // Declared sink first, so the identity order is not upstream-first.
        let mut b = LogicalGraph::builder("join");
        let profile = |cpu| ResourceProfile::new(cpu, 0.0, 100.0, 1.0);
        let k = b.operator("sink", OperatorKind::Sink, 1, profile(0.0001));
        let light = b.operator("light", OperatorKind::Source, 1, profile(0.0001));
        let heavy = b.operator("heavy", OperatorKind::Source, 2, profile(0.001));
        let j = b.operator("join", OperatorKind::Join, 3, profile(0.002));
        b.edge(light, j, ConnectionPattern::Hash);
        b.edge(heavy, j, ConnectionPattern::Hash);
        b.edge(j, k, ConnectionPattern::Rebalance);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(2, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let rates = HashMap::from([(light, 1000.0), (heavy, 1000.0)]);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let inf = f64::INFINITY;
        let net_only = Thresholds::new(inf, inf, 0.5);
        let full = SearchConfig::auto_tuned();
        assert_eq!(search.exploration_order(&net_only, &full)[0], j);
        assert_eq!(
            search.exploration_order(&net_only, &full.first_feasible()),
            [heavy, light, j, k]
        );
    }

    #[test]
    fn first_feasible_stops_early() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&SearchConfig::exhaustive().first_feasible())
            .unwrap();
        assert_eq!(out.feasible.len(), 1);
        assert_eq!(out.stats.plans_found, 1);
    }

    #[test]
    fn best_plan_is_pareto_optimal_and_valid() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search.run(&SearchConfig::exhaustive()).unwrap();
        let best = out.best_scored().unwrap();
        best.plan.validate(&p, &c).unwrap();
        for other in &out.feasible {
            assert!(!other.cost.dominates(&best.cost), "best plan is dominated");
        }
    }

    #[test]
    fn infeasible_thresholds_find_nothing() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&SearchConfig::with_thresholds(Thresholds::new(
                0.0, 0.0, 0.0,
            )))
            .unwrap();
        assert_eq!(out.stats.plans_found, 0);
        assert!(out.best_plan().is_none());
        assert!(out.stats.pruned > 0);
    }

    #[test]
    fn node_budget_aborts() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&SearchConfig {
                node_budget: Some(5),
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        let full = search.run(&SearchConfig::exhaustive()).unwrap();
        assert!(out.stats.plans_found < full.stats.plans_found);

        // The budget counts the whole search, not each thread: a 24-task
        // pipeline on 8 x 4 slots has far more than `budget` nodes, so
        // every thread count aborts, one thread at exactly the budget and
        // `t` threads within one poll interval per thread past it.
        let mut b = LogicalGraph::builder("wide");
        let mut prev = None;
        for (name, kind, par) in [
            ("src", OperatorKind::Source, 4),
            ("map", OperatorKind::Stateless, 8),
            ("win", OperatorKind::Window, 8),
            ("sink", OperatorKind::Sink, 4),
        ] {
            let op = b.operator(name, kind, par, ResourceProfile::new(0.001, 0.0, 50.0, 1.0));
            if let Some(up) = prev {
                b.edge(up, op, ConnectionPattern::Rebalance);
            }
            prev = Some(op);
        }
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(8, WorkerSpec::new(4, 4.0, 1e8, 1e9)).unwrap();
        let mut rates = HashMap::new();
        rates.insert(OperatorId(0), 1000.0);
        let lm = LoadModel::derive(&g, &p, &rates).unwrap();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let budget = 20_000;
        for threads in [1, 2, 4] {
            let out = search
                .run(&SearchConfig {
                    node_budget: Some(budget),
                    threads,
                    ..SearchConfig::exhaustive()
                })
                .unwrap();
            assert!(out.stats.aborted, "{threads} threads");
            assert!(
                out.stats.nodes <= budget + threads * (TIME_CHECK_MASK + 1),
                "{threads} threads visited {} nodes",
                out.stats.nodes
            );
            if threads == 1 {
                assert_eq!(out.stats.nodes, budget);
            }
        }
    }

    #[test]
    fn zero_time_budget_aborts_deterministically() {
        // The DFS polls the deadline only every TIME_CHECK_MASK nodes, so
        // small trees could otherwise slip past an expired budget. A zero
        // budget must abort up front, every time.
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let out = search
            .run(&SearchConfig {
                time_budget: Some(Duration::ZERO),
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        assert!(out.stats.aborted);
        assert!(out.feasible.is_empty());
        assert_eq!(out.stats.nodes, 0);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let bad = SearchConfig {
            threads: 0,
            ..SearchConfig::exhaustive()
        };
        assert!(search.run(&bad).is_err());
        let bad = SearchConfig {
            max_plans: 0,
            ..SearchConfig::exhaustive()
        };
        assert!(search.run(&bad).is_err());
    }

    #[test]
    fn max_plans_cap_keeps_cheapest() {
        let (g, p, c, lm) = fixture();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let full = search
            .run(&SearchConfig {
                max_plans: usize::MAX / 2,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        let capped = search
            .run(&SearchConfig {
                max_plans: 3,
                ..SearchConfig::exhaustive()
            })
            .unwrap();
        assert_eq!(capped.feasible.len(), 3);
        assert_eq!(capped.stats.plans_found, full.stats.plans_found);
        // The cheapest plan overall must have survived the replacement
        // policy.
        let best_full = full.best_scored().unwrap().cost.max_component();
        let best_capped = capped.best_scored().unwrap().cost.max_component();
        assert!((best_full - best_capped).abs() < 1e-9);
    }

    #[test]
    fn last_operator_net_bound_is_the_true_minimum() {
        // A six-task source placed 3/1/1/1 on four workers feeds a
        // two-task sink over a mesh edge. A worker without a sink task
        // sends two channels per source task, so the loads it would
        // reach are [6r, 2r, 2r, 2r], and the third largest, 2r, is the
        // bound. Both sink tasks on worker 0 reach exactly it.
        let mut b = LogicalGraph::builder("fan-in");
        let s = b.operator(
            "src",
            OperatorKind::Source,
            6,
            ResourceProfile::new(1e-4, 0.0, 100.0, 1.0),
        );
        let k = b.operator(
            "sink",
            OperatorKind::Sink,
            2,
            ResourceProfile::new(1e-4, 0.0, 0.0, 1.0),
        );
        b.edge(s, k, ConnectionPattern::Hash);
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = Cluster::homogeneous(4, WorkerSpec::new(5, 4.0, 1e8, 1e9)).unwrap();
        let lm = LoadModel::derive(&g, &p, &HashMap::from([(OperatorId(0), 1000.0)])).unwrap();
        let search = CapsSearch::new(&g, &p, &c, &lm).unwrap();
        let config = SearchConfig::exhaustive();
        let enumerator = PlanEnumerator::new(&p, &c).unwrap();
        let problem = Problem {
            physical: &p,
            model: &search.model,
            topo: &search.topo,
            enumerator: &enumerator,
            bound: search.model.load_bound(&Thresholds::unbounded()),
            config: &config,
            deadline: None,
            start: Instant::now(),
        };
        let shared = Shared::new(1);
        let mut v = CapsVisitor::new(&problem, &shared, usize::MAX);
        for (w, count) in [3, 1, 1, 1].into_iter().enumerate() {
            assert!(v.place(w, OperatorId(0), count));
        }
        let bound = v.last_operator_net_bound().expect("one operator left");
        let sink = OperatorId(1);
        let mut minimum = Fixed64::MAX;
        for a in 0..4 {
            for b in a..4 {
                let placed: &[(usize, usize)] = if a == b { &[(a, 2)] } else { &[(a, 1), (b, 1)] };
                for &(w, count) in placed {
                    assert!(v.place(w, sink, count));
                }
                minimum = minimum.min(v.bottleneck_loads()[2]);
                for &(w, count) in placed.iter().rev() {
                    v.unplace(w, sink, count);
                }
            }
        }
        let rate = search.topo.link_rate[0];
        assert_eq!(bound, rate.mul_int(2));
        assert_eq!(bound, minimum);
        // Nothing has been sent yet: the bound is all lookahead.
        assert_eq!(v.bottleneck_loads()[2], Fixed64::ZERO);
    }
}
