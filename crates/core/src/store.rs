//! The capped plan store shared by the DFS and MCTS backends.
//!
//! A store keeps the `cap` smallest plans it was offered under the total
//! order [`cmp_scored`], so a capped store is a function of the set of
//! plans offered, not of the order they came in. Plans sit in slots in
//! arrival order; once the store is full, a new plan enters only by
//! taking the slot of the worst stored plan, which keeps the slot order
//! of a linear worst-slot rescan. The worst slot is found through a
//! binary max-heap of slot indices, so a replacement costs `O(log cap)`
//! comparisons instead of a rescan of every slot.
//!
//! Both backends store each assignment at most once, so no two stored
//! plans compare equal and the worst plan is unique.

use std::cmp::Ordering;

use crate::search::{cmp_scored, ScoredPlan};

/// The `cap` best plans offered so far, in slot order.
pub(crate) struct PlanStore {
    cap: usize,
    slots: Vec<ScoredPlan>,
    /// Slot indices ordered as a binary max-heap under [`cmp_scored`],
    /// so `heap[0]` is the worst stored plan. Empty until the store
    /// first fills; built once then and kept full afterwards.
    heap: Vec<usize>,
}

impl PlanStore {
    /// An empty store holding at most `cap` plans.
    pub(crate) fn new(cap: usize) -> PlanStore {
        debug_assert!(cap > 0, "a plan store holds at least one plan");
        PlanStore {
            cap,
            slots: Vec::new(),
            heap: Vec::new(),
        }
    }

    /// The worst stored plan once the store is full; `None` before.
    pub(crate) fn worst(&self) -> Option<&ScoredPlan> {
        self.heap.first().map(|&slot| &self.slots[slot])
    }

    /// Whether a plan of cost `max_component` and per-task worker
    /// `assignment` would enter the store: always while it has a free
    /// slot, and otherwise exactly when the plan precedes the worst
    /// stored plan under [`cmp_scored`]. Takes the assignment as an
    /// iterator so a caller can screen a candidate before building its
    /// [`Placement`](capsys_model::Placement).
    pub(crate) fn admits(
        &self,
        max_component: f64,
        assignment: impl Iterator<Item = usize>,
    ) -> bool {
        let Some(worst) = self.worst() else {
            return true;
        };
        match max_component.partial_cmp(&worst.cost.max_component()) {
            Some(Ordering::Less) => true,
            Some(Ordering::Equal) => assignment
                .cmp(worst.plan.assignment().iter().map(|w| w.0))
                .is_lt(),
            _ => false,
        }
    }

    /// Stores a plan the store [`admits`](PlanStore::admits). A full
    /// store gives the worst plan's slot to `plan` and returns the
    /// evicted plan.
    pub(crate) fn insert(&mut self, plan: ScoredPlan) -> Option<ScoredPlan> {
        match self.heap.first() {
            None => {
                self.slots.push(plan);
                if self.slots.len() == self.cap {
                    self.heap = (0..self.cap).collect();
                    for i in (0..self.cap / 2).rev() {
                        self.sift_down(i);
                    }
                }
                None
            }
            Some(&slot) => {
                debug_assert!(cmp_scored(&plan, &self.slots[slot]).is_lt());
                let evicted = std::mem::replace(&mut self.slots[slot], plan);
                self.sift_down(0);
                Some(evicted)
            }
        }
    }

    /// The stored plans in slot order.
    pub(crate) fn into_plans(self) -> Vec<ScoredPlan> {
        self.slots
    }

    /// Restores the heap order below position `pos`, whose plan may now
    /// precede its children's.
    fn sift_down(&mut self, mut pos: usize) {
        let worse = |store: &PlanStore, a: usize, b: usize| {
            cmp_scored(&store.slots[store.heap[a]], &store.slots[store.heap[b]]).is_gt()
        };
        loop {
            let left = 2 * pos + 1;
            if left >= self.heap.len() {
                return;
            }
            let right = left + 1;
            let child = if right < self.heap.len() && worse(self, right, left) {
                right
            } else {
                left
            };
            if !worse(self, child, pos) {
                return;
            }
            self.heap.swap(pos, child);
            pos = child;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use capsys_model::{Placement, WorkerId};
    use capsys_util::forall;
    use capsys_util::prop::{ints, vec_of, Config};

    use super::*;
    use crate::cost::CostVector;

    /// The linear worst-slot rescan the store replaces, kept as the
    /// reference: same slots, same admission rule, worst re-found by a
    /// scan of every slot.
    struct RescanStore {
        cap: usize,
        slots: Vec<ScoredPlan>,
    }

    impl RescanStore {
        fn worst(&self) -> Option<usize> {
            if self.slots.len() < self.cap {
                return None;
            }
            (0..self.slots.len()).max_by(|&i, &j| cmp_scored(&self.slots[i], &self.slots[j]))
        }

        /// `None` when the plan was rejected, `Some(evicted)` otherwise.
        fn offer(&mut self, plan: ScoredPlan) -> Option<Option<ScoredPlan>> {
            match self.worst() {
                None => {
                    self.slots.push(plan);
                    Some(None)
                }
                Some(w) if cmp_scored(&plan, &self.slots[w]).is_lt() => {
                    Some(Some(std::mem::replace(&mut self.slots[w], plan)))
                }
                Some(_) => None,
            }
        }
    }

    /// A plan whose `max_component` is one of four exact levels, reached
    /// through different dimensions, so many offers tie on cost.
    fn plan(level: usize, dim: usize, assignment: &[usize]) -> ScoredPlan {
        let top = level as f64 * 0.25;
        let mut c = [top * 0.5; 3];
        c[dim] = top;
        ScoredPlan {
            plan: Placement::new(assignment.iter().map(|&w| WorkerId(w)).collect()),
            cost: CostVector {
                cpu: c[0],
                io: c[1],
                net: c[2],
            },
        }
    }

    #[test]
    fn heap_store_matches_the_linear_rescan() {
        // Six tasks on four workers: 4,096 assignments, so long offer
        // sequences share prefixes often and still overflow a 1,024-plan
        // store. Repeated assignments are dropped: the DFS emits each
        // assignment once, and MCTS skips one it already stores.
        forall!(Config::default().cases(16), (
            offers in vec_of((ints(0usize..=3), ints(0usize..=2), vec_of(ints(0usize..=3), 6..=6)), 0..=2500),
        ) => {
            let mut seen = HashSet::new();
            let offers: Vec<_> = offers.iter().filter(|(_, _, a)| seen.insert(a.clone())).collect();
            for cap in [1, 2, 3, 64, 1024] {
                let mut store = PlanStore::new(cap);
                let mut reference = RescanStore { cap, slots: Vec::new() };
                for (i, (level, dim, assignment)) in offers.iter().enumerate() {
                    let p = plan(*level, *dim, assignment);
                    let admitted = store.admits(p.cost.max_component(), assignment.iter().copied());
                    let evicted = admitted.then(|| store.insert(p.clone()));
                    assert_eq!(evicted, reference.offer(p), "cap {cap}, offer {i}");
                    assert_eq!(store.slots, reference.slots, "cap {cap}, offer {i}");
                    // The worst plan, and with it the store limit its
                    // `max_component` sets under store-bound pruning.
                    assert_eq!(
                        store.worst(),
                        reference.worst().map(|w| &reference.slots[w]),
                        "cap {cap}, offer {i}"
                    );
                }
            }
        });
    }
}
