//! Per-thread work-stealing deques (std-only `crossbeam-deque`
//! replacement).
//!
//! The parallel CAPS search gives every thread its own [`Worker`] deque:
//! the owner pushes and pops at the back (LIFO — the most recently split
//! work is hot in cache and deepest in the tree), while idle threads
//! steal from the front through a [`Stealer`] handle (FIFO — the oldest
//! unit is the coarsest remaining subtree, so one steal transfers the
//! most work). This mirrors the `crossbeam-deque` `Worker`/`Stealer`
//! split.
//!
//! The implementation sits behind the workspace's poison-free
//! [`crate::sync::Mutex`] rather than a lock-free Chase-Lev buffer:
//! work units are coarse (milliseconds of exploration each), so one
//! uncontended lock per transfer is noise. Steals use `try_lock` and
//! surface contention as [`Steal::Retry`], exactly like crossbeam's
//! transient-failure contract.

use std::collections::VecDeque;
use std::sync::Arc;

use crate::sync::Mutex;

/// Outcome of a [`Stealer::steal`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steal<T> {
    /// A work unit was taken.
    Success(T),
    /// The deque is empty.
    Empty,
    /// The deque was locked by its owner or another thief; retry.
    Retry,
}

/// The owner's handle to a work-stealing deque.
///
/// Cheap to move into the owning thread; hand out [`Stealer`]s to every
/// other thread before spawning.
#[derive(Debug)]
pub struct Worker<T> {
    shared: Arc<Mutex<VecDeque<T>>>,
}

/// A thief's handle to another thread's [`Worker`] deque.
#[derive(Debug)]
pub struct Stealer<T> {
    shared: Arc<Mutex<VecDeque<T>>>,
}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Worker::new_lifo()
    }
}

impl<T> Worker<T> {
    /// Creates an empty deque with LIFO owner semantics.
    pub fn new_lifo() -> Worker<T> {
        Worker {
            shared: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Pushes a work unit onto the owner's end (the back).
    pub fn push(&self, item: T) {
        self.shared.lock().push_back(item);
    }

    /// Pops the most recently pushed unit (LIFO).
    pub fn pop(&self) -> Option<T> {
        self.shared.lock().pop_back()
    }

    /// Creates a stealer handle for another thread.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Number of queued units.
    pub fn len(&self) -> usize {
        self.shared.lock().len()
    }

    /// True if no units are queued.
    pub fn is_empty(&self) -> bool {
        self.shared.lock().is_empty()
    }
}

impl<T> Stealer<T> {
    /// Attempts to steal the oldest unit (FIFO end).
    ///
    /// Returns [`Steal::Retry`] when the owner (or another thief) holds
    /// the lock right now; the caller should move on to the next victim
    /// and come back, rather than block behind an active deque.
    pub fn steal(&self) -> Steal<T> {
        match self.shared.try_lock() {
            Some(mut q) => match q.pop_front() {
                Some(v) => Steal::Success(v),
                None => Steal::Empty,
            },
            None => Steal::Retry,
        }
    }

    /// Number of queued units (snapshot; may be stale immediately).
    pub fn len(&self) -> usize {
        self.shared.lock().len()
    }

    /// True if no units are queued (snapshot; may be stale immediately).
    pub fn is_empty(&self) -> bool {
        self.shared.lock().is_empty()
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            shared: Arc::clone(&self.shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn owner_pops_lifo() {
        let w = Worker::new_lifo();
        assert!(w.is_empty());
        for i in 0..4 {
            w.push(i);
        }
        assert_eq!(w.len(), 4);
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        w.push(9);
        assert_eq!(w.pop(), Some(9));
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(0));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn thief_steals_fifo() {
        let w = Worker::new_lifo();
        let s = w.stealer();
        for i in 0..4 {
            w.push(i);
        }
        assert_eq!(s.steal(), Steal::Success(0));
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(s.steal(), Steal::Success(2));
        assert_eq!(s.steal(), Steal::<i32>::Empty);
    }

    #[test]
    fn stealers_clone_and_share() {
        let w = Worker::new_lifo();
        let s1 = w.stealer();
        let s2 = s1.clone();
        w.push(7);
        assert_eq!(s1.len(), 1);
        assert_eq!(s2.steal(), Steal::Success(7));
        assert!(s1.is_empty());
    }

    #[test]
    fn concurrent_steals_take_each_item_once() {
        let w = Worker::new_lifo();
        const N: usize = 10_000;
        for i in 0..N {
            w.push(i);
        }
        let sum = AtomicUsize::new(0);
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = w.stealer();
                let sum = &sum;
                let count = &count;
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            sum.fetch_add(v, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::thread::yield_now(),
                        Steal::Empty => break,
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), N);
        assert_eq!(sum.load(Ordering::Relaxed), N * (N - 1) / 2);
    }

    #[test]
    fn owner_and_thieves_interleave() {
        // Owner keeps producing and consuming while thieves drain; every
        // produced unit is consumed exactly once overall.
        let w = Worker::new_lifo();
        const N: usize = 4_000;
        let stolen = AtomicUsize::new(0);
        let popped = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let s = w.stealer();
                let stolen = &stolen;
                let popped = &popped;
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(_) => {
                            stolen.fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Retry => std::thread::yield_now(),
                        Steal::Empty => {
                            if popped.load(Ordering::Relaxed) + stolen.load(Ordering::Relaxed) >= N
                            {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for i in 0..N {
                w.push(i);
                if i % 3 == 0 {
                    if w.pop().is_some() {
                        popped.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Drain whatever the thieves left behind.
            while w.pop().is_some() {
                popped.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(
            stolen.load(Ordering::Relaxed) + popped.load(Ordering::Relaxed),
            N
        );
    }
}
