//! The CAPSys end-to-end adaptive resource controller.
//!
//! Glues together the pieces of Figure 6 of the paper:
//!
//! * [`profiler`] — the cost-profiling phase (§5.1): one operator per
//!   worker, unit costs per record recovered from worker metrics;
//! * [`controller`] — the deployment pipeline: profile → DS2 parallelism
//!   → CAPS placement;
//! * [`closed_loop`] — the runtime loop for variable workloads (§6.4):
//!   DS2 re-evaluates every policy interval and reconfigurations re-run
//!   the placement strategy;
//! * [`recovery`] — self-healing under injected faults: heartbeat-based
//!   failure detection, backoff re-placement on the surviving workers,
//!   and a graceful-degradation ladder (CAPS → relaxed CAPS →
//!   round-robin) for when the search budget runs out;
//! * [`guard`] — the reconfiguration safety governor: canary probation
//!   for every scaling redeploy, regression detection against the
//!   pre-deploy baseline (load-normalized by default, so flash crowds
//!   and organic growth are not mistaken for plan regressions),
//!   journaled rollback to the last-known-good plan, TTL-based
//!   quarantine of regressed plans, and exponential cooldown hysteresis
//!   bounding reconfiguration churn;
//! * [`shed`] — overload protection: when measured ingest exceeds the
//!   demonstrated sustainable capacity, a bounded fraction of offered
//!   traffic is shed at the sources (journaled two-phase like any
//!   reconfiguration) and restored hysteretically once the load fits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod arbiter;
pub mod closed_loop;
pub mod controller;
pub mod fleet;
pub mod guard;
pub mod journal;
pub mod lease;
pub mod profiler;
pub mod recovery;
pub mod shed;

pub use arbiter::{Arbiter, ArbiterConfig, Revocation, ShardInfo};
pub use closed_loop::{
    ClosedLoop, ClosedLoopTrace, MigrationConfig, MigrationWave, ScalingEvent, StepReport,
};
pub use controller::{CapsysConfig, CapsysController, Deployment};
pub use fleet::{
    replay_shard, FleetConfig, FleetController, FleetOutcome, FleetWorld, JobSpec, RevocationEvent,
    ShardOutcome, TakeoverEvent, WindowRecord,
};
pub use guard::{BaselineMode, GuardConfig, PlanSnapshot, RollbackEvent, SafetyGovernor};
pub use journal::{DecisionJournal, DecisionRecord, ParsedJournal, RedeployReason};
pub use lease::LeaseTable;
pub use profiler::{profile_query, ProfileReport, ProfilerConfig};
pub use recovery::{
    place_with_ladder, place_with_movemin, round_robin_free, Detection, FailureDetector,
    LadderRung, RecoveryConfig, RecoveryEvent,
};
pub use shed::{ShedConfig, ShedController, ShedEvent, ShedRequest};

use capsys_ds2::Ds2Error;
use capsys_model::ModelError;
use capsys_placement::PlacementError;
use capsys_sim::SimError;

/// Errors produced by the CAPSys controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerError {
    /// An underlying model error.
    Model(ModelError),
    /// A simulator error.
    Sim(SimError),
    /// A DS2 error.
    Ds2(Ds2Error),
    /// A placement-strategy error.
    Placement(PlacementError),
    /// A reconfiguration carried a stale epoch and was fenced off: this
    /// controller is a zombie — another instance (typically one
    /// recovered from the journal) has deployed a newer epoch.
    FencedEpoch {
        /// The epoch this controller attempted to deploy.
        attempted: u64,
        /// The epoch the cluster fence already holds.
        current: u64,
    },
    /// The controller process was killed by an injected
    /// [`capsys_sim::KillPoint`]. The journal written so far survives;
    /// resume with [`ClosedLoop::recover_from_journal`].
    ControllerKilled {
        /// Journal records written before death (the next record would
        /// have had this sequence number).
        seq: u64,
        /// Simulated time of death.
        time: f64,
    },
    /// The write-ahead journal could not be written or read back.
    Journal(String),
    /// A journal replay diverged from the live run it claims to record
    /// (wrong query, mismatched decision times, an impossible record
    /// sequence).
    JournalReplay(String),
    /// A shard write carried a stale lease term and was fenced off: the
    /// writer's lease expired and a standby now holds a newer term. The
    /// control-plane analogue of [`ControllerError::FencedEpoch`].
    LeaseFenced {
        /// The shard whose lease was contested.
        shard: usize,
        /// The term the stale holder attempted to write under.
        attempted: u64,
        /// The term the lease table currently holds.
        current: u64,
    },
    /// A configuration value failed validation.
    InvalidConfig(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::Model(e) => write!(f, "model error: {e}"),
            ControllerError::Sim(e) => write!(f, "simulation error: {e}"),
            ControllerError::Ds2(e) => write!(f, "DS2 error: {e}"),
            ControllerError::Placement(e) => write!(f, "placement error: {e}"),
            ControllerError::FencedEpoch { attempted, current } => write!(
                f,
                "reconfiguration fenced: epoch {attempted} is stale (cluster is at {current}); \
                 this controller has been superseded"
            ),
            ControllerError::ControllerKilled { seq, time } => write!(
                f,
                "controller killed at t={time}s after {seq} journal record(s)"
            ),
            ControllerError::Journal(msg) => write!(f, "journal error: {msg}"),
            ControllerError::JournalReplay(msg) => write!(f, "journal replay error: {msg}"),
            ControllerError::LeaseFenced {
                shard,
                attempted,
                current,
            } => write!(
                f,
                "lease fenced: shard {shard} write under term {attempted} is stale \
                 (lease table is at term {current}); this shard controller has been superseded"
            ),
            ControllerError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl From<capsys_util::journal::JournalError> for ControllerError {
    fn from(e: capsys_util::journal::JournalError) -> Self {
        ControllerError::Journal(e.to_string())
    }
}

impl std::error::Error for ControllerError {}

impl From<ModelError> for ControllerError {
    fn from(e: ModelError) -> Self {
        ControllerError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ControllerError::from(ModelError::NoSource);
        assert!(e.to_string().contains("model"));
    }
}
