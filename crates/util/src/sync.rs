//! A poison-free lock wrapper over `std::sync` (std-only `parking_lot`
//! replacement).
//!
//! `parking_lot`'s ergonomic win is that `lock()` returns the guard
//! directly instead of a `Result` that is `unwrap()`ed at every call
//! site. This wrapper keeps that surface: a poisoned lock (a thread
//! panicked while holding it) hands back its value as it was, which
//! suits this workspace's shared state (the epoch fence and the fleet's
//! tick pool).

use std::sync::{self, LockResult, PoisonError};

fn ignore_poison<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A mutual-exclusion lock whose `lock()` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new lock holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }

    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> sync::MutexGuard<'_, T> {
        ignore_poison(self.0.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_counts_across_threads() {
        let m = Arc::new(Mutex::new(0usize));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 8000);
    }

    #[test]
    fn poisoned_lock_recovers_value() {
        let m = Arc::new(Mutex::new(7));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        // A poisoned std mutex would error; the wrapper recovers.
        assert_eq!(*m.lock(), 7);
    }
}
