//! Cluster-side epoch fencing for reconfigurations.
//!
//! Fencing tokens are the standard defense against zombie controllers:
//! every reconfiguration carries a monotonically increasing *epoch*, and
//! the cluster-resident fence refuses any epoch at or below the one it
//! has already accepted. The controller claims each live decision's
//! epoch here before that decision touches any state. A controller that
//! crashed, was replaced by a recovered instance, and then wakes up and
//! tries to keep driving the job gets a deterministic
//! [`SimError::StaleEpoch`] instead of silently clobbering the
//! recovered controller's deployment.
//!
//! The fence is shared: clones of an [`EpochFence`] observe the same
//! counter, modeling the cluster-resident token that outlives any one
//! controller process. Replay from a journal deliberately bypasses the
//! fence — the journal is the authority on which reconfigurations were
//! applied; the fence only gates *new* live attempts.

use std::sync::Arc;

use capsys_util::sync::Mutex;

use crate::error::SimError;

/// A shared, monotonically increasing reconfiguration epoch.
#[derive(Debug, Clone, Default)]
pub struct EpochFence {
    current: Arc<Mutex<u64>>,
}

impl EpochFence {
    /// A fence at epoch 0 (the initial deployment).
    pub fn new() -> EpochFence {
        EpochFence::default()
    }

    /// The highest epoch accepted so far.
    pub fn current(&self) -> u64 {
        *self.current.lock()
    }

    /// Accepts `epoch` iff it is strictly greater than the current one,
    /// advancing the fence. The check and the advance are one atomic
    /// step, so two racing controllers cannot both win the same epoch.
    pub fn advance_to(&self, epoch: u64) -> Result<(), SimError> {
        let mut cur = self.current.lock();
        if epoch <= *cur {
            return Err(SimError::StaleEpoch {
                attempted: epoch,
                current: *cur,
            });
        }
        *cur = epoch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fence_accepts_only_strictly_newer_epochs() {
        let fence = EpochFence::new();
        assert_eq!(fence.current(), 0);
        fence.advance_to(1).unwrap();
        fence.advance_to(2).unwrap();
        // Stale and duplicate epochs are both rejected without moving
        // the fence.
        assert_eq!(
            fence.advance_to(2),
            Err(SimError::StaleEpoch {
                attempted: 2,
                current: 2
            })
        );
        assert_eq!(
            fence.advance_to(1),
            Err(SimError::StaleEpoch {
                attempted: 1,
                current: 2
            })
        );
        assert_eq!(fence.current(), 2);
        // Gaps are fine: a recovered controller may jump past replayed
        // epochs in one step.
        fence.advance_to(10).unwrap();
        assert_eq!(fence.current(), 10);
    }

    #[test]
    fn clones_share_the_counter() {
        let fence = EpochFence::new();
        let zombie_view = fence.clone();
        fence.advance_to(5).unwrap();
        assert_eq!(zombie_view.current(), 5);
        assert!(zombie_view.advance_to(3).is_err());
    }
}
