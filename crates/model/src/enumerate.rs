//! Enumeration of distinct placement plans up to worker symmetry.
//!
//! Workers are homogeneous and tasks of the same operator are identical
//! (§4.1), so placement plans that differ only by a permutation of workers
//! or of same-operator tasks are equivalent. This module enumerates one
//! canonical representative per equivalence class using the same
//! outer/inner tree structure as the CAPS search (§4.3): the outer
//! recursion places one operator per layer, the inner recursion walks the
//! workers, and duplicate branches across symmetric workers are eliminated
//! eagerly by requiring non-increasing task counts within each group of
//! still-interchangeable workers.
//!
//! The [`PlanVisitor`] trait lets callers observe and prune the traversal;
//! the CAPS search in `capsys-core` builds its threshold pruning on top of
//! this exact traversal.

use crate::cluster::Cluster;
use crate::error::ModelError;
use crate::operator::OperatorId;
use crate::physical::PhysicalGraph;
use crate::placement::Placement;

/// Observer and pruning hook for the plan-space traversal.
///
/// The enumerator calls [`PlanVisitor::place`] each time it assigns
/// `count` tasks of an operator to a worker (an inner-search tree node).
/// Returning `false` prunes the branch; because per-worker load grows
/// monotonically with `count` (§4.4.1), the enumerator then skips all
/// larger counts for that worker. [`PlanVisitor::unplace`] is called on
/// backtrack for every `place` that returned `true`.
pub trait PlanVisitor {
    /// A node: `count` tasks of `op` tentatively placed on `worker`.
    ///
    /// Return `false` to prune (the enumerator will not call
    /// [`PlanVisitor::unplace`] for a pruned node).
    fn place(&mut self, worker: usize, op: OperatorId, count: usize) -> bool;

    /// Backtrack notification matching an accepted [`PlanVisitor::place`].
    fn unplace(&mut self, worker: usize, op: OperatorId, count: usize);

    /// A complete plan. `counts[w][o]` is the number of tasks of operator
    /// `o` on worker `w`.
    ///
    /// Return `false` to stop the entire traversal (e.g. first-feasible
    /// search or plan budgets).
    fn leaf(&mut self, counts: &[Vec<usize>]) -> bool;
}

/// Traversal statistics, mirroring the paper's Table 2 metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Inner-search tree nodes visited (accepted `place` calls).
    pub nodes: usize,
    /// Nodes pruned by the visitor.
    pub pruned: usize,
    /// Complete plans reached.
    pub plans: usize,
}

/// Depth-first enumerator over distinct placement plans.
#[derive(Clone)]
pub struct PlanEnumerator {
    num_workers: usize,
    slots: usize,
    /// Parallelism per operator, indexed by operator id.
    parallelism: Vec<usize>,
    /// Operator exploration order (outer-search layers).
    op_order: Vec<OperatorId>,
    /// Whether symmetric-worker duplicate elimination is enabled.
    symmetry: bool,
    /// If set, stop the outer search at this layer and report partial
    /// assignments as leaves.
    depth_limit: Option<usize>,
    /// Free slots per worker at the start of the search.
    free_slots: Vec<usize>,
    /// Initial interchangeability groups (contiguous runs share a group).
    initial_groups: Vec<usize>,
}

impl PlanEnumerator {
    /// Creates an enumerator for `physical` on `cluster`, exploring
    /// operators in topological (id) order.
    pub fn new(physical: &PhysicalGraph, cluster: &Cluster) -> Result<PlanEnumerator, ModelError> {
        cluster.check_capacity(physical.num_tasks())?;
        let parallelism = physical.parallelism_vector();
        let op_order = (0..parallelism.len()).map(OperatorId).collect();
        let num_workers = cluster.num_workers();
        Ok(PlanEnumerator {
            num_workers,
            slots: cluster.slots_per_worker(),
            parallelism,
            op_order,
            symmetry: true,
            depth_limit: None,
            free_slots: vec![cluster.slots_per_worker(); num_workers],
            initial_groups: vec![0; num_workers],
        })
    }

    /// Starts the search from a partially occupied cluster.
    ///
    /// `free[w]` is the number of slots still available on worker `w`.
    /// Workers with different free-slot counts stop being interchangeable;
    /// *every* worker becomes its own symmetry group (the occupying tasks
    /// may load workers differently in ways the enumerator cannot see).
    pub fn with_free_slots(mut self, free: Vec<usize>) -> Result<PlanEnumerator, ModelError> {
        if free.len() != self.num_workers {
            return Err(ModelError::InvalidParameter(format!(
                "free slots for {} workers, cluster has {}",
                free.len(),
                self.num_workers
            )));
        }
        for (w, &f) in free.iter().enumerate() {
            if f > self.slots {
                return Err(ModelError::InvalidParameter(format!(
                    "worker {w} free slots {f} exceed capacity {}",
                    self.slots
                )));
            }
        }
        self.initial_groups = (0..self.num_workers).collect();
        self.free_slots = free;
        Ok(self)
    }

    /// Enumerates the child prefixes of `prefix` that `visitor` admits:
    /// every assignment of the next outer layer with the given layers
    /// fixed, offered to `visitor.place` exactly as a full traversal
    /// offers them (the prefix's own rows first).
    ///
    /// The admitted children partition the leaves under `prefix` that the
    /// visitor would accept, so a parallel search can split the tree
    /// into work units without visiting any leaf twice or skipping one; and the visitor sees the
    /// same `place` calls for the layer as a traversal that never split
    /// there. A prefix that already fixes every layer is returned
    /// unchanged as its own single child. An admit-everything visitor
    /// yields every child; from the empty prefix, the depth-1 prefixes.
    pub fn expand_prefix<V: PlanVisitor>(
        &self,
        prefix: &[Vec<usize>],
        visitor: &mut V,
    ) -> Vec<Vec<Vec<usize>>> {
        if prefix.len() >= self.op_order.len() {
            return vec![prefix.to_vec()];
        }
        let depth = prefix.len() + 1;
        let mut limited = self.clone();
        limited.depth_limit = Some(depth);
        let mut v = PrefixCollect {
            inner: visitor,
            order: self.op_order.clone(),
            depth,
            out: Vec::new(),
        };
        limited.explore_with_prefix(prefix, &mut v);
        v.out
    }

    /// Runs the traversal with the first `prefix.len()` layers fixed.
    ///
    /// The visitor receives `place` calls for the prefix assignments too,
    /// so it can build up incremental state; if any prefix placement is
    /// pruned the traversal stops early. Matching `unplace` calls are
    /// issued before returning, leaving the visitor reusable.
    pub fn explore_with_prefix<V: PlanVisitor>(
        &self,
        prefix: &[Vec<usize>],
        visitor: &mut V,
    ) -> SearchStats {
        let mut st = self.new_state();
        let mut applied: Vec<(usize, OperatorId, usize)> = Vec::new();
        let mut pruned = false;
        'apply: for (layer, row) in prefix.iter().enumerate() {
            let op = self.op_order[layer];
            for (w, &c) in row.iter().enumerate() {
                if !visitor.place(w, op, c) {
                    st.stats.pruned += 1;
                    pruned = true;
                    break 'apply;
                }
                st.stats.nodes += 1;
                st.remaining[w] -= c;
                st.counts[w][op.0] = c;
                applied.push((w, op, c));
            }
            refine_groups(&mut st.group, row);
        }
        if !pruned {
            self.outer(prefix.len(), &mut st, visitor);
        }
        for (w, op, c) in applied.into_iter().rev() {
            visitor.unplace(w, op, c);
        }
        st.stats
    }

    /// Enables or disables duplicate elimination across symmetric workers.
    ///
    /// With symmetry disabled the enumerator visits every worker-labelled
    /// assignment, including plans equivalent up to worker permutation.
    /// This exists to quantify the benefit of the paper's duplicate
    /// elimination (§4.3) in ablation benchmarks.
    pub fn with_symmetry(mut self, enabled: bool) -> PlanEnumerator {
        self.symmetry = enabled;
        self
    }

    /// Overrides the operator exploration order (§4.4.2 reordering).
    ///
    /// `order` must be a permutation of all operator ids.
    pub fn with_order(mut self, order: Vec<OperatorId>) -> Result<PlanEnumerator, ModelError> {
        let mut seen = vec![false; self.parallelism.len()];
        if order.len() != self.parallelism.len() {
            return Err(ModelError::InvalidParameter(format!(
                "order has {} entries, expected {}",
                order.len(),
                self.parallelism.len()
            )));
        }
        for id in &order {
            if id.0 >= seen.len() || seen[id.0] {
                return Err(ModelError::InvalidParameter(format!(
                    "order is not a permutation: bad id {}",
                    id.0
                )));
            }
            seen[id.0] = true;
        }
        self.op_order = order;
        Ok(self)
    }

    /// The operator exploration order in use.
    pub fn order(&self) -> &[OperatorId] {
        &self.op_order
    }

    /// Runs the traversal, reporting every node and leaf to `visitor`.
    pub fn explore<V: PlanVisitor>(&self, visitor: &mut V) -> SearchStats {
        let mut state = self.new_state();
        self.outer(0, &mut state, visitor);
        state.stats
    }

    /// Fresh traversal state with all per-layer scratch buffers
    /// pre-allocated; the hot recursion below never allocates.
    fn new_state(&self) -> ExploreState {
        let layers = self.op_order.len();
        ExploreState {
            remaining: self.free_slots.clone(),
            counts: vec![vec![0usize; self.parallelism.len()]; self.num_workers],
            group: self.initial_groups.clone(),
            rows: vec![vec![0usize; self.num_workers]; layers],
            saved_groups: vec![vec![0usize; self.num_workers]; layers],
            stats: SearchStats::default(),
            stopped: false,
        }
    }
}

/// Collects the leaves of a depth-limited traversal as prefix rows,
/// passing placements through to `inner`; used by
/// [`PlanEnumerator::expand_prefix`].
struct PrefixCollect<'v, V> {
    inner: &'v mut V,
    order: Vec<OperatorId>,
    depth: usize,
    out: Vec<Vec<Vec<usize>>>,
}

impl<V: PlanVisitor> PlanVisitor for PrefixCollect<'_, V> {
    fn place(&mut self, worker: usize, op: OperatorId, count: usize) -> bool {
        self.inner.place(worker, op, count)
    }
    fn unplace(&mut self, worker: usize, op: OperatorId, count: usize) {
        self.inner.unplace(worker, op, count)
    }
    fn leaf(&mut self, counts: &[Vec<usize>]) -> bool {
        let prefix: Vec<Vec<usize>> = self.order[..self.depth]
            .iter()
            .map(|op| counts.iter().map(|row| row[op.0]).collect())
            .collect();
        self.out.push(prefix);
        true
    }
}

struct ExploreState {
    remaining: Vec<usize>,
    counts: Vec<Vec<usize>>,
    /// Group id per worker; workers with equal ids are interchangeable.
    group: Vec<usize>,
    /// Per-outer-layer scratch row (task counts per worker), reused
    /// across the whole traversal instead of allocated per layer visit.
    rows: Vec<Vec<usize>>,
    /// Per-outer-layer saved symmetry groups, restored on backtrack.
    saved_groups: Vec<Vec<usize>>,
    stats: SearchStats,
    stopped: bool,
}

impl PlanEnumerator {
    /// Outer search: one operator per layer.
    fn outer<V: PlanVisitor>(&self, layer: usize, st: &mut ExploreState, visitor: &mut V) {
        if st.stopped {
            return;
        }
        if layer == self.depth_limit.unwrap_or(self.op_order.len()) {
            st.stats.plans += 1;
            if !visitor.leaf(&st.counts) {
                st.stopped = true;
            }
            return;
        }
        let op = self.op_order[layer];
        let tasks = self.parallelism[op.0];
        self.inner(layer, op, 0, tasks, st, visitor);
    }

    /// Inner search: one worker per layer, with symmetry breaking. The
    /// per-layer row lives in `st.rows[layer]` (all-zero on entry and on
    /// exit), so recursion allocates nothing.
    fn inner<V: PlanVisitor>(
        &self,
        layer: usize,
        op: OperatorId,
        w: usize,
        tasks_left: usize,
        st: &mut ExploreState,
        visitor: &mut V,
    ) {
        if st.stopped {
            return;
        }
        if w == self.num_workers {
            if tasks_left == 0 {
                // Refine groups by this operator's counts and recurse.
                st.saved_groups[layer].copy_from_slice(&st.group);
                refine_groups(&mut st.group, &st.rows[layer]);
                for worker in 0..self.num_workers {
                    st.counts[worker][op.0] = st.rows[layer][worker];
                }
                self.outer(layer + 1, st, visitor);
                for worker in 0..self.num_workers {
                    st.counts[worker][op.0] = 0;
                }
                let (group, saved) = (&mut st.group, &st.saved_groups);
                group.copy_from_slice(&saved[layer]);
            }
            return;
        }

        // Symmetry cap: within a group, counts must be non-increasing.
        let group_cap = if self.symmetry && w > 0 && st.group[w] == st.group[w - 1] {
            st.rows[layer][w - 1]
        } else {
            usize::MAX
        };
        let cap = st.remaining[w].min(tasks_left).min(group_cap);

        // Feasibility floor: the workers after `w` must be able to absorb
        // the rest. Their symmetry caps only shrink capacity, so use raw
        // remaining slots as an optimistic bound.
        let suffix: usize = st.remaining[w + 1..].iter().sum();
        let floor = tasks_left.saturating_sub(suffix);
        if floor > cap {
            return;
        }

        // Visit candidate counts balanced-first: start from this worker's
        // fair share of the remaining tasks and fan out. The leaf set is
        // unchanged, but a first-feasible search reaches balanced plans
        // without wading through the degenerate co-locations that a plain
        // ascending order visits first.
        let slots_left = suffix + st.remaining[w];
        let ideal = if slots_left == 0 {
            floor
        } else {
            ((tasks_left as f64 * st.remaining[w] as f64 / slots_left as f64).round() as usize)
                .clamp(floor, cap)
        };
        // Monotone pruning: once a count fails the visitor, every larger
        // count would fail too.
        let mut min_failed = usize::MAX;
        for delta in 0..=(cap - floor) {
            for c in candidate_pair(ideal, delta, floor, cap) {
                if c >= min_failed {
                    continue;
                }
                if !visitor.place(w, op, c) {
                    st.stats.pruned += 1;
                    min_failed = c;
                    continue;
                }
                st.stats.nodes += 1;
                st.remaining[w] -= c;
                st.rows[layer][w] = c;
                self.inner(layer, op, w + 1, tasks_left - c, st, visitor);
                st.rows[layer][w] = 0;
                st.remaining[w] += c;
                visitor.unplace(w, op, c);
                if st.stopped {
                    return;
                }
            }
        }
    }
}

/// The counts at distance `delta` from `ideal` inside `[floor, cap]`,
/// below first.
fn candidate_pair(
    ideal: usize,
    delta: usize,
    floor: usize,
    cap: usize,
) -> impl Iterator<Item = usize> {
    let below = ideal.checked_sub(delta).filter(|c| *c >= floor);
    let above = if delta > 0 {
        ideal.checked_add(delta).filter(|c| *c <= cap)
    } else {
        None
    };
    below.into_iter().chain(above)
}

/// Splits groups so workers remain grouped only if they received the same
/// count for the operator just placed.
fn refine_groups(group: &mut [usize], row: &[usize]) {
    // In-place: `group[w]` is read before being overwritten and later
    // positions are untouched, so no scratch copy is needed.
    let mut next = 0usize;
    let mut prev_key: Option<(usize, usize)> = None;
    for w in 0..group.len() {
        let key = (group[w], row[w]);
        match prev_key {
            Some(pk) if pk == key => {}
            _ => {
                next = w;
                prev_key = Some(key);
            }
        }
        group[w] = next;
    }
}

/// A visitor that accepts everything and records every leaf.
struct CollectAll<'a> {
    physical: &'a PhysicalGraph,
    plans: Vec<Placement>,
    limit: usize,
}

impl PlanVisitor for CollectAll<'_> {
    fn place(&mut self, _worker: usize, _op: OperatorId, _count: usize) -> bool {
        true
    }

    fn unplace(&mut self, _worker: usize, _op: OperatorId, _count: usize) {}

    fn leaf(&mut self, counts: &[Vec<usize>]) -> bool {
        if let Ok(p) = Placement::from_op_counts(self.physical, counts) {
            self.plans.push(p);
        }
        self.plans.len() < self.limit
    }
}

/// A visitor that admits every placement and every leaf; the traversal's
/// own statistics count them.
struct AcceptAll;

impl PlanVisitor for AcceptAll {
    fn place(&mut self, _worker: usize, _op: OperatorId, _count: usize) -> bool {
        true
    }

    fn unplace(&mut self, _worker: usize, _op: OperatorId, _count: usize) {}

    fn leaf(&mut self, _counts: &[Vec<usize>]) -> bool {
        true
    }
}

/// Enumerates all distinct placement plans (up to symmetry), capped at
/// `limit` plans.
pub fn enumerate_plans(
    physical: &PhysicalGraph,
    cluster: &Cluster,
    limit: usize,
) -> Result<Vec<Placement>, ModelError> {
    let enumerator = PlanEnumerator::new(physical, cluster)?;
    let mut v = CollectAll {
        physical,
        plans: Vec::new(),
        limit,
    };
    enumerator.explore(&mut v);
    Ok(v.plans)
}

/// Counts all distinct placement plans (up to symmetry).
pub fn count_plans(physical: &PhysicalGraph, cluster: &Cluster) -> Result<usize, ModelError> {
    let enumerator = PlanEnumerator::new(physical, cluster)?;
    let stats = enumerator.explore(&mut AcceptAll);
    Ok(stats.plans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::WorkerSpec;
    use crate::logical::{ConnectionPattern, LogicalGraph};
    use crate::operator::{OperatorKind, ResourceProfile};

    fn chain(pars: &[usize]) -> PhysicalGraph {
        let mut b = LogicalGraph::builder("chain");
        let mut prev = b.operator(
            "op0",
            OperatorKind::Source,
            pars[0],
            ResourceProfile::zero(),
        );
        for (i, &p) in pars[1..].iter().enumerate() {
            let kind = if i + 2 == pars.len() {
                OperatorKind::Sink
            } else {
                OperatorKind::Stateless
            };
            let next = b.operator(format!("op{}", i + 1), kind, p, ResourceProfile::zero());
            b.edge(prev, next, ConnectionPattern::Rebalance);
            prev = next;
        }
        PhysicalGraph::expand(&b.build().unwrap())
    }

    fn cluster(workers: usize, slots: usize) -> Cluster {
        Cluster::homogeneous(workers, WorkerSpec::new(slots, 4.0, 1e8, 1e9)).unwrap()
    }

    #[test]
    fn two_singleton_ops_two_workers() {
        // Up to symmetry: {A,B | -} and {A | B}.
        let p = chain(&[1, 1]);
        let c = cluster(2, 2);
        assert_eq!(count_plans(&p, &c).unwrap(), 2);
    }

    #[test]
    fn single_operator_partitions() {
        // 4 identical tasks on 3 workers with 4 slots each: partitions of 4
        // into at most 3 parts: 4, 3+1, 2+2, 2+1+1 -> 4 plans.
        let mut b = LogicalGraph::builder("one");
        b.operator("src", OperatorKind::Source, 4, ResourceProfile::zero());
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        assert_eq!(count_plans(&p, &cluster(3, 4)).unwrap(), 4);
    }

    #[test]
    fn single_operator_with_slot_limit() {
        // 4 tasks, 3 workers, 2 slots: partitions of 4 with parts <= 2 and
        // at most 3 parts: 2+2, 2+1+1 -> 2 plans.
        let mut b = LogicalGraph::builder("one");
        b.operator("src", OperatorKind::Source, 4, ResourceProfile::zero());
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        assert_eq!(count_plans(&p, &cluster(3, 2)).unwrap(), 2);
    }

    #[test]
    fn plans_are_valid_and_distinct() {
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 2);
        let plans = enumerate_plans(&p, &c, usize::MAX).unwrap();
        assert!(!plans.is_empty());
        for plan in &plans {
            plan.validate(&p, &c).unwrap();
        }
        // All canonical keys distinct.
        let mut keys: Vec<_> = plans
            .iter()
            .map(|pl| pl.canonical_key(&p, c.num_workers()))
            .collect();
        let before = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), before, "duplicate plans enumerated");
    }

    #[test]
    fn enumeration_matches_brute_force_count() {
        // Brute force: assign each task to any worker, respect slots, count
        // distinct canonical keys; compare with the symmetric enumeration.
        let p = chain(&[2, 2]);
        let c = cluster(2, 2);
        let w = c.num_workers();
        let n = p.num_tasks();
        let mut keys = std::collections::HashSet::new();
        for code in 0..(w as u64).pow(n as u32) {
            let mut code = code;
            let mut assignment = Vec::with_capacity(n);
            for _ in 0..n {
                assignment.push(crate::WorkerId((code % w as u64) as usize));
                code /= w as u64;
            }
            let plan = Placement::new(assignment);
            if plan.validate(&p, &c).is_ok() {
                keys.insert(plan.canonical_key(&p, w));
            }
        }
        assert_eq!(count_plans(&p, &c).unwrap(), keys.len());
    }

    #[test]
    fn order_override_preserves_plan_count() {
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 2);
        let base = count_plans(&p, &c).unwrap();
        let e = PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_order(vec![OperatorId(1), OperatorId(2), OperatorId(0)])
            .unwrap();
        let stats = e.explore(&mut AcceptAll);
        assert_eq!(stats.plans, base);
    }

    #[test]
    fn with_order_rejects_non_permutations() {
        let p = chain(&[1, 1]);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        assert!(e.with_order(vec![OperatorId(0), OperatorId(0)]).is_err());
        let e = PlanEnumerator::new(&p, &c).unwrap();
        assert!(e.with_order(vec![OperatorId(0)]).is_err());
    }

    #[test]
    fn insufficient_slots_is_an_error() {
        let p = chain(&[4, 4]);
        let c = cluster(2, 2);
        assert!(PlanEnumerator::new(&p, &c).is_err());
    }

    #[test]
    fn early_stop_via_leaf_return() {
        struct StopAfter(usize, usize);
        impl PlanVisitor for StopAfter {
            fn place(&mut self, _: usize, _: OperatorId, _: usize) -> bool {
                true
            }
            fn unplace(&mut self, _: usize, _: OperatorId, _: usize) {}
            fn leaf(&mut self, _: &[Vec<usize>]) -> bool {
                self.1 += 1;
                self.1 < self.0
            }
        }
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 3);
        let total = count_plans(&p, &c).unwrap();
        assert!(total > 3);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let mut v = StopAfter(3, 0);
        let stats = e.explore(&mut v);
        assert_eq!(stats.plans, 3);
    }

    #[test]
    fn pruning_everything_finds_nothing() {
        struct PruneAll;
        impl PlanVisitor for PruneAll {
            fn place(&mut self, _: usize, _: OperatorId, count: usize) -> bool {
                count == 0
            }
            fn unplace(&mut self, _: usize, _: OperatorId, _: usize) {}
            fn leaf(&mut self, _: &[Vec<usize>]) -> bool {
                true
            }
        }
        let p = chain(&[2, 2]);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let stats = e.explore(&mut PruneAll);
        assert_eq!(stats.plans, 0);
        assert!(stats.pruned > 0);
    }

    #[test]
    fn symmetry_off_counts_labelled_plans() {
        // One operator with 2 tasks on 2 workers (2 slots each): symmetric
        // enumeration sees {2|0} and {1|1}; labelled enumeration adds {0|2}.
        let mut b = LogicalGraph::builder("one");
        b.operator("src", OperatorKind::Source, 2, ResourceProfile::zero());
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = cluster(2, 2);
        let sym = PlanEnumerator::new(&p, &c).unwrap().explore(&mut AcceptAll);
        let all = PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_symmetry(false)
            .explore(&mut AcceptAll);
        assert_eq!(sym.plans, 2);
        assert_eq!(all.plans, 3);
    }

    #[test]
    fn prefixes_cover_first_layer() {
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 3);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let prefixes = e.expand_prefix(&[], &mut AcceptAll);
        // Partitions of 2 over 3 symmetric workers: {2}, {1,1}.
        assert_eq!(prefixes.len(), 2);
        for pre in &prefixes {
            assert_eq!(pre.len(), 1);
            assert_eq!(pre[0].iter().sum::<usize>(), 2);
        }
    }

    #[test]
    fn prefix_exploration_partitions_the_space() {
        // The union of plans found under every depth-1 prefix must equal
        // the full enumeration.
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 3);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let total = count_plans(&p, &c).unwrap();
        let mut sum = 0;
        for pre in e.expand_prefix(&[], &mut AcceptAll) {
            let stats = e.explore_with_prefix(&pre, &mut AcceptAll);
            sum += stats.plans;
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn expand_prefix_partitions_the_subtree() {
        // Children of a prefix must partition exactly its subtree: the
        // plan counts under the children sum to the count under the
        // parent, recursively down to full depth.
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 3);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let total = count_plans(&p, &c).unwrap();
        let mut sum = 0;
        for pre in e.expand_prefix(&[], &mut AcceptAll) {
            for child in e.expand_prefix(&pre, &mut AcceptAll) {
                assert_eq!(child.len(), 2);
                assert_eq!(child[0], pre[0]);
                sum += e.explore_with_prefix(&child, &mut AcceptAll).plans;
            }
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn expand_prefix_offers_the_layer_to_the_visitor() {
        // A visitor that rejects more than one task of an operator per
        // worker: expanding drops the children it rejects, makes the same
        // `place` calls as an unsplit traversal of the layer, and the
        // admitted children still hold every plan it accepts.
        #[derive(Default)]
        struct AtMostOne {
            rejected: Vec<(usize, OperatorId, usize)>,
        }
        impl PlanVisitor for AtMostOne {
            fn place(&mut self, w: usize, op: OperatorId, c: usize) -> bool {
                if c > 1 {
                    self.rejected.push((w, op, c));
                }
                c <= 1
            }
            fn unplace(&mut self, _: usize, _: OperatorId, _: usize) {}
            fn leaf(&mut self, _: &[Vec<usize>]) -> bool {
                true
            }
        }
        let p = chain(&[2, 3, 1]);
        let c = cluster(3, 3);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let mut whole = AtMostOne::default();
        let accepted = e.explore(&mut whole).plans;
        assert!(accepted > 0);

        let mut split = AtMostOne::default();
        let units = e.expand_prefix(&[], &mut split);
        assert_eq!(
            units,
            vec![vec![vec![1, 1, 0]]],
            "{{2}} on one worker is cut"
        );
        let mut sum = 0;
        for pre in &units {
            let children = e.expand_prefix(pre, &mut split);
            assert!(children.iter().all(|ch| ch[1].iter().all(|&n| n <= 1)));
            for child in children {
                sum += e.explore_with_prefix(&child, &mut split).plans;
            }
        }
        assert_eq!(sum, accepted);
        // Each layer's rejections are made once, by the expansion that
        // offered it, exactly as the unsplit traversal made them.
        let mut a = whole.rejected.clone();
        let mut b = split.rejected.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn expand_prefix_at_full_depth_is_identity() {
        let p = chain(&[2, 2]);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        for pre in e.expand_prefix(&[], &mut AcceptAll) {
            for full in e.expand_prefix(&pre, &mut AcceptAll) {
                assert_eq!(full.len(), 2);
                assert_eq!(e.expand_prefix(&full, &mut AcceptAll), vec![full.clone()]);
            }
        }
    }

    #[test]
    fn prefix_exploration_is_reusable() {
        // A stateful visitor must come back to its initial state after
        // explore_with_prefix (place/unplace pairing).
        struct Balance(i64);
        impl PlanVisitor for Balance {
            fn place(&mut self, _: usize, _: OperatorId, c: usize) -> bool {
                self.0 += c as i64;
                true
            }
            fn unplace(&mut self, _: usize, _: OperatorId, c: usize) {
                self.0 -= c as i64;
            }
            fn leaf(&mut self, _: &[Vec<usize>]) -> bool {
                true
            }
        }
        let p = chain(&[2, 2]);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c).unwrap();
        let mut v = Balance(0);
        for pre in e.expand_prefix(&[], &mut AcceptAll) {
            e.explore_with_prefix(&pre, &mut v);
            assert_eq!(v.0, 0);
        }
    }

    #[test]
    fn free_slots_constrain_placement() {
        // 2 tasks, 2 workers, worker 0 has no free slots: everything on
        // worker 1.
        let mut b = LogicalGraph::builder("one");
        b.operator("src", OperatorKind::Source, 2, ResourceProfile::zero());
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_free_slots(vec![0, 2])
            .unwrap();
        let mut plans = Vec::new();
        struct Grab<'a>(&'a mut Vec<Vec<Vec<usize>>>);
        impl PlanVisitor for Grab<'_> {
            fn place(&mut self, _: usize, _: OperatorId, _: usize) -> bool {
                true
            }
            fn unplace(&mut self, _: usize, _: OperatorId, _: usize) {}
            fn leaf(&mut self, counts: &[Vec<usize>]) -> bool {
                self.0.push(counts.to_vec());
                true
            }
        }
        let stats = e.explore(&mut Grab(&mut plans));
        assert_eq!(stats.plans, 1);
        assert_eq!(plans[0][0][0], 0, "worker 0 is full");
        assert_eq!(plans[0][1][0], 2);
    }

    #[test]
    fn free_slots_break_symmetry() {
        // Same free slots but distinct groups: both labelled assignments
        // appear (2 tasks over 2 workers with 2 slots each -> 3 plans).
        let mut b = LogicalGraph::builder("one");
        b.operator("src", OperatorKind::Source, 2, ResourceProfile::zero());
        let g = b.build().unwrap();
        let p = PhysicalGraph::expand(&g);
        let c = cluster(2, 2);
        let e = PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_free_slots(vec![2, 2])
            .unwrap();
        let stats = e.explore(&mut AcceptAll);
        assert_eq!(stats.plans, 3, "distinct groups disable dedup");
        // Without free slots the two workers stay interchangeable.
        let e = PlanEnumerator::new(&p, &c).unwrap();
        assert_eq!(e.explore(&mut AcceptAll).plans, 2);
    }

    #[test]
    fn invalid_free_slots_rejected() {
        let p = chain(&[2, 2]);
        let c = cluster(2, 2);
        assert!(PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_free_slots(vec![1])
            .is_err());
        assert!(PlanEnumerator::new(&p, &c)
            .unwrap()
            .with_free_slots(vec![3, 1])
            .is_err());
    }

    #[test]
    fn refine_groups_splits_on_counts() {
        let mut group = vec![0, 0, 0, 0];
        refine_groups(&mut group, &[2, 2, 1, 0]);
        assert_eq!(group, vec![0, 0, 2, 3]);
        // Further refinement respects old groups.
        refine_groups(&mut group, &[1, 1, 1, 1]);
        assert_eq!(group, vec![0, 0, 2, 3]);
    }
}
