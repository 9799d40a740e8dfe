//! Monte Carlo Tree Search over placement prefixes (UCT).
//!
//! The DFS backends exhaust the plan space within a budget; at fleet
//! scale (hundreds to thousands of tasks) the space explodes past any
//! budget and an exhaustive search returns nothing at all. The MCTS
//! backend is the *anytime* complement: it grows a tree over the same
//! canonical placement prefixes the [`PlanEnumerator`] walks — one outer
//! layer (operator) per tree level, one symmetry-deduplicated count row
//! per edge — and spends its budget where the CAPS cost signal says
//! plans are cheap, returning the best feasible plans it has whenever
//! the budget runs out.
//!
//! # Determinism
//!
//! The backend is deterministic by construction, like every other part
//! of the system:
//!
//! * it is single-threaded, so the playout sequence is a pure function
//!   of its inputs — `threads` is ignored;
//! * the only randomness is a private [`SmallRng`] seeded from
//!   [`MctsConfig::seed`]; nothing else in the process shares that
//!   stream, so interleaving MCTS and DFS runs cannot perturb it;
//! * node values accumulate in exact [`Fixed64`] arithmetic (saturating
//!   adds of identical summands in identical order), and UCT
//!   tie-breaks prefer the earliest child, so selection never depends
//!   on float summation order or container iteration order;
//! * rollout plans are scored by the exact [`CostModel`](crate::CostModel) load
//!   accounting, the same bit-for-bit costs the DFS computes.
//!
//! Hence a fixed seed and node budget reproduce the identical tree,
//! visit counts, best plan, and anytime curve on every run.
//!
//! # Transpositions
//!
//! Different prefixes can lead to isomorphic states (same multiset of
//! per-worker columns). Tree nodes stay path-specific, but their
//! visit/value statistics are shared through a table keyed by the
//! enumerator's worker-permutation-invariant
//! [`PlanEnumerator::prefix_hash`], with the exact sorted-column
//! multiset as the verification key — a hash collision can therefore
//! only merge *statistics* of genuinely equal states, never corrupt a
//! plan: best plans are tracked from materialized rollout placements
//! scored by the real cost model, independent of the guidance tree.

use std::collections::HashMap;
use std::time::Instant;

use capsys_model::{refine_groups, Placement, PlanEnumerator};
use capsys_util::fixed::Fixed64;
use capsys_util::rng::{Rng, SeedableRng, SmallRng};

use crate::error::CapsError;
use crate::search::{cmp_scored, AnytimePoint, RunStats, ScoredPlan};
use crate::store::PlanStore;
use crate::strategy::{BackendResult, Problem};

/// Default playout cap when neither a node nor a time budget is set.
pub const DEFAULT_ITERATIONS: usize = 4096;

/// UCT exploration constant `c` in `mean + c·√(ln N / n)`.
pub const EXPLORATION: f64 = std::f64::consts::SQRT_2;

/// When a node's canonical child-row count is at most this, all children
/// are enumerated up front (the node becomes exhaustive and UCT covers it
/// completely); wider nodes grow children by sampling.
pub const FULL_EXPAND_LIMIT: usize = 64;

/// Configuration of the MCTS backend.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsConfig {
    /// Seed of the backend's private RNG. Same seed + same node budget
    /// ⇒ byte-identical best plan, visit counts, and anytime curve.
    pub seed: u64,
    /// Probability a rollout row takes the balanced (fair-share) count
    /// instead of a uniform canonical count. `0` is fully random, `1`
    /// fully greedy; greedy-only rollouts lose full support over the
    /// plan space, so keep it below one when convergence matters.
    pub greedy_bias: f64,
    /// Playout cap. `None` runs until the node or time budget stops the
    /// search (or [`DEFAULT_ITERATIONS`] playouts when no budget is set
    /// at all).
    pub iterations: Option<usize>,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            seed: 0xCA95,
            greedy_bias: 0.7,
            iterations: None,
        }
    }
}

impl MctsConfig {
    /// A config with the given seed and otherwise default settings.
    pub fn seeded(seed: u64) -> Self {
        MctsConfig {
            seed,
            ..MctsConfig::default()
        }
    }

    fn validate(&self) -> Result<(), CapsError> {
        if !self.greedy_bias.is_finite() || !(0.0..=1.0).contains(&self.greedy_bias) {
            return Err(CapsError::InvalidConfig(format!(
                "mcts greedy_bias must be in [0, 1], got {}",
                self.greedy_bias
            )));
        }
        Ok(())
    }
}

/// Diagnostics of one MCTS run, exposed for determinism checks and the
/// anytime benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MctsReport {
    /// Playouts executed.
    pub iterations: usize,
    /// Rollouts whose completed plan satisfied the threshold bound
    /// (including repeats of already-stored plans).
    pub feasible_rollouts: usize,
    /// Tree nodes allocated (path-specific; transpositions share stats,
    /// not nodes).
    pub tree_nodes: usize,
    /// Times a new tree node attached to an existing transposition
    /// statistic instead of a fresh one.
    pub transposition_hits: usize,
    /// Visits recorded at the root.
    pub root_visits: u64,
    /// Root children in creation order: the canonical first-layer row
    /// and its visit count. Byte-identical across same-seed runs.
    pub root_children: Vec<(Vec<usize>, u64)>,
}

/// Shared visit/value statistic; transposed nodes point at one entry.
#[derive(Clone, Copy)]
struct Stat {
    visits: u64,
    total: Fixed64,
}

/// One path-specific tree node: the state after `layer` fixed rows.
struct Node {
    layer: usize,
    remaining: Vec<usize>,
    groups: Vec<usize>,
    /// `(canonical row, child node index)` in creation order.
    children: Vec<(Vec<usize>, usize)>,
    /// All canonical children are materialized; no sampling needed.
    exhausted: bool,
    /// Index into the shared statistics table.
    stat: usize,
}

/// The exact smallest count worker `w` may take so that the workers
/// after it can still absorb the rest under the symmetry caps
/// (non-increasing counts within a group). Unlike the enumerator's
/// optimistic floor this is exact, so a sampler honoring it never
/// dead-ends.
fn exact_floor(remaining: &[usize], groups: &[usize], w: usize, tasks_left: usize) -> usize {
    let raw_suffix: usize = remaining[w + 1..].iter().sum();
    let optimistic = tasks_left.saturating_sub(raw_suffix);
    let limit = remaining[w].min(tasks_left);
    for c in optimistic..=limit {
        if suffix_capacity(remaining, groups, w, c) + c >= tasks_left {
            return c;
        }
    }
    // Unreachable when the state is completable (the caller only visits
    // completable states); returning the cap keeps the walk total.
    limit
}

/// The maximum number of tasks workers `w+1..` can absorb if worker `w`
/// takes `c`, under the canonical non-increasing-within-group rule.
/// Greedy is optimal: shrinking an earlier count only tightens later
/// chain caps.
fn suffix_capacity(remaining: &[usize], groups: &[usize], w: usize, c: usize) -> usize {
    let mut chain_group = groups[w];
    let mut chain_cap = c;
    let mut total = 0usize;
    for w2 in w + 1..remaining.len() {
        let take = if groups[w2] == chain_group {
            remaining[w2].min(chain_cap)
        } else {
            chain_group = groups[w2];
            remaining[w2]
        };
        chain_cap = take;
        total += take;
    }
    total
}

/// Samples one canonical row placing `tasks` tasks onto the workers:
/// with probability `greedy_bias` a worker takes its balanced fair
/// share, otherwise a uniform count from the exact feasible range. Every
/// canonical row has positive probability whenever `greedy_bias < 1`.
fn sample_row(
    remaining: &[usize],
    groups: &[usize],
    tasks: usize,
    greedy_bias: f64,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let workers = remaining.len();
    let mut row = vec![0usize; workers];
    let mut tasks_left = tasks;
    for w in 0..workers {
        let group_cap = if w > 0 && groups[w] == groups[w - 1] {
            row[w - 1]
        } else {
            usize::MAX
        };
        let cap = remaining[w].min(tasks_left).min(group_cap);
        let floor = exact_floor(remaining, groups, w, tasks_left).min(cap);
        let c = if floor == cap {
            floor
        } else if rng.gen_bool(greedy_bias) {
            let suffix: usize = remaining[w + 1..].iter().sum();
            let slots = remaining[w] + suffix;
            let ideal = if slots == 0 {
                floor
            } else {
                ((tasks_left as f64 * remaining[w] as f64 / slots as f64).round() as usize)
                    .clamp(floor, cap)
            };
            ideal
        } else {
            rng.gen_range(floor..=cap)
        };
        row[w] = c;
        tasks_left -= c;
    }
    row
}

/// Enumerates every canonical row, or `None` once more than `limit`
/// exist. Uses the exact floor, so the recursion never dead-ends and the
/// row count is exact.
fn enumerate_rows(
    remaining: &[usize],
    groups: &[usize],
    tasks: usize,
    limit: usize,
) -> Option<Vec<Vec<usize>>> {
    fn rec(
        remaining: &[usize],
        groups: &[usize],
        w: usize,
        tasks_left: usize,
        row: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
        limit: usize,
    ) -> bool {
        if w == remaining.len() {
            if out.len() >= limit {
                return false;
            }
            out.push(row.clone());
            return true;
        }
        let group_cap = if w > 0 && groups[w] == groups[w - 1] {
            row[w - 1]
        } else {
            usize::MAX
        };
        let cap = remaining[w].min(tasks_left).min(group_cap);
        let floor = exact_floor(remaining, groups, w, tasks_left).min(cap);
        if floor > cap {
            return true;
        }
        for c in floor..=cap {
            if suffix_capacity(remaining, groups, w, c) + c < tasks_left {
                continue;
            }
            row[w] = c;
            if !rec(remaining, groups, w + 1, tasks_left - c, row, out, limit) {
                return false;
            }
            row[w] = 0;
        }
        true
    }
    let mut out = Vec::new();
    let mut row = vec![0usize; remaining.len()];
    if rec(remaining, groups, 0, tasks, &mut row, &mut out, limit) {
        Some(out)
    } else {
        None
    }
}

/// The exact sorted-column verification key of a prefix, matching the
/// multiset [`PlanEnumerator::prefix_hash`] summarizes: per worker, the
/// free slots after the prefix followed by each layer's count, columns
/// sorted, layer count prepended.
fn verify_key(free_slots: &[usize], rows: &[Vec<usize>]) -> Vec<u64> {
    let workers = free_slots.len();
    let mut columns: Vec<Vec<u64>> = (0..workers)
        .map(|w| {
            let placed: usize = rows.iter().map(|row| row[w]).sum();
            let mut col = Vec::with_capacity(rows.len() + 1);
            col.push((free_slots[w] - placed) as u64);
            col.extend(rows.iter().map(|row| row[w] as u64));
            col
        })
        .collect();
    columns.sort_unstable();
    let mut key = Vec::with_capacity(1 + workers * (rows.len() + 1));
    key.push(rows.len() as u64);
    for col in &columns {
        key.extend_from_slice(col);
    }
    key
}

/// Mutable search state threaded through one run.
struct Run<'a> {
    cfg: &'a MctsConfig,
    enumerator: &'a PlanEnumerator,
    rng: SmallRng,
    tree: Vec<Node>,
    stats: Vec<Stat>,
    /// `prefix_hash` → [(exact verify key, stat index)].
    transpositions: HashMap<u64, Vec<(Vec<u64>, usize)>>,
    /// Assignment-unit budget accounting, comparable to DFS `place`
    /// calls: one unit per (worker, operator, count) decision, i.e.
    /// `num_workers` units per applied row.
    node_units: usize,
    node_budget: usize,
    deadline: Option<Instant>,
    stopped: bool,
    // Results.
    store: PlanStore,
    found_keys: std::collections::HashSet<Vec<usize>>,
    plans_found: usize,
    feasible_rollouts: usize,
    transposition_hits: usize,
    best_cost: f64,
    anytime: Vec<AnytimePoint>,
}

impl Run<'_> {
    /// Registers the state after `rows` in the transposition table and
    /// returns its (possibly shared) statistic index.
    fn stat_for(&mut self, rows: &[Vec<usize>]) -> usize {
        let hash = self.enumerator.prefix_hash(rows);
        let key = verify_key(self.enumerator.free_slots(), rows);
        let bucket = self.transpositions.entry(hash).or_default();
        for (k, idx) in bucket.iter() {
            if *k == key {
                self.transposition_hits += 1;
                return *idx;
            }
        }
        let idx = self.stats.len();
        self.stats.push(Stat {
            visits: 0,
            total: Fixed64::ZERO,
        });
        bucket.push((key, idx));
        idx
    }

    /// Creates a child node of `parent` reached by `row`; `path_rows`
    /// are the rows leading to the parent.
    fn add_child(&mut self, parent: usize, path_rows: &[Vec<usize>], row: Vec<usize>) -> usize {
        let workers = row.len();
        let mut remaining = self.tree[parent].remaining.clone();
        for w in 0..workers {
            remaining[w] -= row[w];
        }
        let mut groups = self.tree[parent].groups.clone();
        refine_groups(&mut groups, &row);
        let mut rows = Vec::with_capacity(path_rows.len() + 1);
        rows.extend_from_slice(path_rows);
        rows.push(row.clone());
        let stat = self.stat_for(&rows);
        let layer = self.tree[parent].layer + 1;
        let idx = self.tree.len();
        self.tree.push(Node {
            layer,
            remaining,
            groups,
            children: Vec::new(),
            exhausted: false,
            stat,
        });
        self.tree[parent].children.push((row, idx));
        idx
    }

    /// Spends `units` of the node budget; returns `false` when the
    /// budget is exhausted (the in-flight playout is abandoned).
    fn spend(&mut self, units: usize) -> bool {
        self.node_units += units;
        if self.node_units > self.node_budget {
            self.stopped = true;
            return false;
        }
        true
    }

    /// Records a feasible rollout plan into the capped store.
    fn record(&mut self, plan: Placement, cost: crate::cost::CostVector) {
        self.feasible_rollouts += 1;
        let mc = cost.max_component();
        if mc < self.best_cost {
            self.best_cost = mc;
            self.anytime.push(AnytimePoint {
                nodes: self.node_units,
                cost: mc,
            });
        }
        let key: Vec<usize> = plan.assignment().iter().map(|w| w.0).collect();
        if self.found_keys.contains(&key) {
            return;
        }
        self.plans_found += 1;
        if !self.store.admits(mc, key.iter().copied()) {
            return;
        }
        if let Some(evicted) = self.store.insert(ScoredPlan { plan, cost }) {
            let old: Vec<usize> = evicted.plan.assignment().iter().map(|w| w.0).collect();
            self.found_keys.remove(&old);
        }
        self.found_keys.insert(key);
    }
}

/// Runs the MCTS backend on a prepared problem.
pub(crate) fn run(config: &MctsConfig, ctx: &Problem<'_>) -> Result<BackendResult, CapsError> {
    config.validate()?;
    let enumerator = ctx.enumerator;
    let order = enumerator.order();
    let layers = order.len();
    let workers = enumerator.free_slots().len();
    let layer_tasks: Vec<usize> = order
        .iter()
        .map(|op| enumerator.parallelism().get(op.0).copied().unwrap_or(0))
        .collect();
    let physical = ctx.physical;
    let model = ctx.model;
    let bound = ctx.bound;
    let n_ops = physical.num_operators();

    let unbudgeted = ctx.config.node_budget.is_none() && ctx.deadline.is_none();
    let max_iterations = config.iterations.unwrap_or(if unbudgeted {
        DEFAULT_ITERATIONS
    } else {
        usize::MAX
    });

    let mut run = Run {
        cfg: config,
        enumerator,
        rng: SmallRng::seed_from_u64(config.seed),
        tree: Vec::new(),
        stats: Vec::new(),
        transpositions: HashMap::new(),
        node_units: 0,
        node_budget: ctx.config.node_budget.unwrap_or(usize::MAX),
        deadline: ctx.deadline,
        stopped: false,
        store: PlanStore::new(ctx.config.max_plans),
        found_keys: std::collections::HashSet::new(),
        plans_found: 0,
        feasible_rollouts: 0,
        transposition_hits: 0,
        best_cost: f64::INFINITY,
        anytime: Vec::new(),
    };
    let root_stat = run.stat_for(&[]);
    run.tree.push(Node {
        layer: 0,
        remaining: enumerator.free_slots().to_vec(),
        groups: enumerator.initial_groups().to_vec(),
        children: Vec::new(),
        exhausted: false,
        stat: root_stat,
    });

    let mut iterations = 0usize;
    'outer: while iterations < max_iterations && !run.stopped {
        if let Some(d) = run.deadline {
            if Instant::now() >= d {
                run.stopped = true;
                break;
            }
        }
        iterations += 1;

        // Selection: descend until a complete plan or a fresh node.
        let mut cur = 0usize;
        let mut path_stats = vec![run.tree[0].stat];
        let mut rows: Vec<Vec<usize>> = Vec::with_capacity(layers);
        loop {
            if run.tree[cur].layer == layers {
                break;
            }
            if cur != 0 && run.stats[run.tree[cur].stat].visits == 0 {
                break;
            }
            let tasks = layer_tasks[run.tree[cur].layer];
            // Expansion.
            if run.tree[cur].children.is_empty() && !run.tree[cur].exhausted {
                let all = enumerate_rows(
                    &run.tree[cur].remaining,
                    &run.tree[cur].groups,
                    tasks,
                    FULL_EXPAND_LIMIT,
                );
                match all {
                    Some(all_rows) => {
                        for row in all_rows {
                            run.add_child(cur, &rows, row);
                        }
                        run.tree[cur].exhausted = true;
                    }
                    None => {
                        let row = sample_row(
                            &run.tree[cur].remaining,
                            &run.tree[cur].groups,
                            tasks,
                            run.cfg.greedy_bias,
                            &mut run.rng,
                        );
                        run.add_child(cur, &rows, row);
                    }
                }
            } else if !run.tree[cur].exhausted && run.rng.gen_bool(0.5) {
                // Progressive widening: propose one more canonical
                // row; duplicates fall through to UCT selection.
                let row = sample_row(
                    &run.tree[cur].remaining,
                    &run.tree[cur].groups,
                    tasks,
                    run.cfg.greedy_bias,
                    &mut run.rng,
                );
                if !run.tree[cur].children.iter().any(|(r, _)| *r == row) {
                    run.add_child(cur, &rows, row);
                }
            }
            if run.tree[cur].children.is_empty() {
                // No canonical row: an uncompletable state (can only
                // happen for degenerate inputs). Abandon the playout.
                continue 'outer;
            }
            // UCT over the children; unvisited children first, ties
            // to the earliest child.
            let parent_visits = run.stats[run.tree[cur].stat].visits.max(1);
            let ln_n = (parent_visits as f64).ln();
            let mut best_idx = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (i, (_, child)) in run.tree[cur].children.iter().enumerate() {
                let st = run.stats[run.tree[*child].stat];
                let score = if st.visits == 0 {
                    f64::INFINITY
                } else {
                    let mean = st
                        .total
                        .checked_div(Fixed64::from_int(st.visits as i64))
                        .unwrap_or(Fixed64::ZERO)
                        .to_f64();
                    mean + EXPLORATION * (ln_n / st.visits as f64).sqrt()
                };
                if score > best_score {
                    best_score = score;
                    best_idx = i;
                }
            }
            let (row, child) = {
                let (r, c) = &run.tree[cur].children[best_idx];
                (r.clone(), *c)
            };
            if !run.spend(workers) {
                break 'outer;
            }
            rows.push(row);
            path_stats.push(run.tree[child].stat);
            cur = child;
        }

        // Rollout: complete the prefix with sampled canonical rows.
        let mut remaining = run.tree[cur].remaining.clone();
        let mut groups = run.tree[cur].groups.clone();
        for layer in run.tree[cur].layer..layers {
            let row = sample_row(
                &remaining,
                &groups,
                layer_tasks[layer],
                run.cfg.greedy_bias,
                &mut run.rng,
            );
            if !run.spend(workers) {
                break 'outer;
            }
            for w in 0..workers {
                remaining[w] -= row[w];
            }
            refine_groups(&mut groups, &row);
            rows.push(row);
        }

        // Score the completed plan with the exact cost model.
        let mut counts = vec![vec![0usize; n_ops]; workers];
        for (l, row) in rows.iter().enumerate() {
            let op = order[l];
            for w in 0..workers {
                counts[w][op.0] = row[w];
            }
        }
        let plan = Placement::from_op_counts(physical, &counts).map_err(CapsError::Model)?;
        let loads = model.plan_loads(physical, &plan);
        let feasible = (0..3).all(|dim| loads[dim] <= bound[dim]);
        let cost = model.cost_from_loads(loads);

        // Backpropagate an exact Fixed64 reward: feasible plans
        // strictly dominate infeasible ones, cheaper plans score
        // higher. The f64→Fixed64 conversion is a pure function of
        // the exact cost, so accumulation stays deterministic.
        let mc = cost.max_component().max(0.0);
        let reward = Fixed64::from_f64(if feasible {
            1.0 + 1.0 / (1.0 + mc)
        } else {
            0.5 / (1.0 + mc)
        });
        for stat in &path_stats {
            let s = &mut run.stats[*stat];
            s.visits += 1;
            s.total = s.total.saturating_add(reward);
        }

        if feasible {
            run.record(plan, cost);
            if ctx.config.first_feasible {
                break;
            }
        }
    }

    let mut found = run.store.into_plans();
    found.sort_by(cmp_scored);
    // An empty MCTS outcome never proves infeasibility: the backend
    // samples, so "found nothing" always means "budget too small".
    let aborted = run.stopped || found.is_empty();
    let report = MctsReport {
        iterations,
        feasible_rollouts: run.feasible_rollouts,
        tree_nodes: run.tree.len(),
        transposition_hits: run.transposition_hits,
        root_visits: run.stats[run.tree[0].stat].visits,
        root_children: run.tree[0]
            .children
            .iter()
            .map(|(row, child)| (row.clone(), run.stats[run.tree[*child].stat].visits))
            .collect(),
    };
    Ok(BackendResult {
        plans: found,
        stats: RunStats {
            nodes: run.node_units,
            pruned: 0,
            plans_found: run.plans_found,
            elapsed: ctx.start.elapsed(),
            threads: 1,
            aborted,
        },
        anytime: run.anytime,
        mcts: Some(report),
        // Sampling never proves that a plan is absent.
        overflow: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_floor_respects_group_chains() {
        // Two workers in one group, 2 slots each, 3 tasks: worker 0 must
        // take at least 2 (worker 1 is chained to worker 0's count).
        let remaining = [2, 2];
        let groups = [0, 0];
        assert_eq!(exact_floor(&remaining, &groups, 0, 3), 2);
        // Separate groups: the raw floor (1) suffices.
        let groups = [0, 1];
        assert_eq!(exact_floor(&remaining, &groups, 0, 3), 1);
    }

    #[test]
    fn suffix_capacity_caps_same_group() {
        // w=0 takes 1; both successors share its group, so each absorbs
        // at most 1 despite 2 free slots.
        assert_eq!(suffix_capacity(&[2, 2, 2], &[0, 0, 0], 0, 1), 2);
        // Successors in a fresh group are uncapped.
        assert_eq!(suffix_capacity(&[2, 2, 2], &[0, 1, 1], 0, 1), 4);
    }

    #[test]
    fn enumerate_rows_matches_partition_count() {
        // 4 tasks over 3 interchangeable workers with 4 slots: the
        // partitions 4 / 3+1 / 2+2 / 2+1+1.
        let rows = enumerate_rows(&[4, 4, 4], &[0, 0, 0], 4, 64).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.iter().sum::<usize>(), 4);
            assert!(row.windows(2).all(|p| p[0] >= p[1]));
        }
        // The cap triggers.
        assert!(enumerate_rows(&[4, 4, 4], &[0, 0, 0], 4, 3).is_none());
    }

    #[test]
    fn sampled_rows_are_canonical_and_complete() {
        let mut rng = SmallRng::seed_from_u64(3);
        let remaining = [3, 3, 2, 2];
        let groups = [0, 0, 2, 3];
        for _ in 0..500 {
            let row = sample_row(&remaining, &groups, 6, 0.3, &mut rng);
            assert_eq!(row.iter().sum::<usize>(), 6);
            for w in 0..4 {
                assert!(row[w] <= remaining[w]);
                if w > 0 && groups[w] == groups[w - 1] {
                    assert!(row[w] <= row[w - 1]);
                }
            }
        }
    }

    #[test]
    fn sampler_covers_every_canonical_row() {
        let all = enumerate_rows(&[4, 4, 4], &[0, 0, 0], 4, 64).unwrap();
        let mut seen = std::collections::HashSet::new();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..2000 {
            seen.insert(sample_row(&[4, 4, 4], &[0, 0, 0], 4, 0.25, &mut rng));
        }
        for row in &all {
            assert!(seen.contains(row), "row {row:?} never sampled");
        }
        assert_eq!(
            seen.len(),
            all.len(),
            "sampler produced a non-canonical row"
        );
    }

    #[test]
    fn verify_key_is_permutation_invariant() {
        let a = verify_key(&[3, 3, 3], &[vec![2, 1, 0], vec![0, 1, 2]]);
        let b = verify_key(&[3, 3, 3], &[vec![0, 1, 2], vec![2, 1, 0]]);
        assert_eq!(a, b);
        let c = verify_key(&[3, 3, 3], &[vec![2, 1, 0], vec![1, 1, 1]]);
        assert_ne!(a, c);
    }
}
