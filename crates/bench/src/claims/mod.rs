//! The robustness claims, one scenario each.
//!
//! Each submodule builds one claim's scenario from a [`Shape`] and a
//! seed, runs it, and returns an outcome whose `check()` makes every
//! assertion of the claim. The root package's `tests/claims.rs` runs
//! each claim on [`Shape::Smoke`] at the seeds in [`SEEDS`] (the guard
//! and hostile claims at seed 7), so `cargo test` checks them; the
//! `exp_*` binary of the same name runs [`Shape::Full`], prints the
//! tables EXPERIMENTS.md records, and checks the same outcome.
//!
//! A scenario that cannot even be built or run (an invalid
//! configuration, an unexpected controller error) is an `Err` of
//! `run`; a claim that does not hold is an `Err` of `check`.

use capsys_controller::{
    ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, GuardConfig, MigrationConfig,
    RecoveryConfig, ShedConfig,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, TaskId, WorkerId, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::{q1_sliding, Query};
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, KillPoint, SimConfig};

/// Returns `Err(message)` from the enclosing `check` unless `cond`
/// holds.
macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {{
        let holds: bool = $cond;
        if !holds {
            return Err(format!($($msg)+));
        }
    }};
}

pub mod chaos;
pub mod fleet;
pub mod guard;
pub mod hostile;
pub mod migrate;
pub mod recovery;

/// The size of a claim's scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The short runs `cargo test` checks at every seed of [`SEEDS`].
    Smoke,
    /// The runs the experiment binaries print for EXPERIMENTS.md.
    Full,
}

impl Shape {
    /// `smoke` for [`Shape::Smoke`], `full` otherwise.
    pub fn smoke_or(self, smoke: f64, full: f64) -> f64 {
        match self {
            Shape::Smoke => smoke,
            Shape::Full => full,
        }
    }
}

/// The seeds the claim tests run each multi-seed claim at.
pub const SEEDS: [u64; 3] = [7, 11, 23];

/// Why a scenario could not be run.
pub type Error = Box<dyn std::error::Error>;

/// A run's outcome and the journal text it left (which survives a
/// kill).
pub type JournaledRun = (Result<ClosedLoopTrace, ControllerError>, String);

/// One journaled closed-loop run: a job, its cluster and offered rate,
/// the faults it meets, and the controller features armed. Every claim
/// builds its runs from this, and so do the tests of the same
/// scenarios.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The job.
    pub query: Query,
    /// Its cluster.
    pub cluster: Cluster,
    /// The offered rate.
    pub schedule: RateSchedule,
    /// DS2's activation period, in seconds (5 s policy windows).
    pub activation_period: f64,
    /// The loop's seed.
    pub seed: u64,
    /// Seconds of simulated time.
    pub duration: f64,
    /// Injected faults.
    pub faults: Option<FaultPlan>,
    /// Failure detection and re-placement.
    pub recovery: Option<RecoveryConfig>,
    /// The safety governor.
    pub guard: Option<GuardConfig>,
    /// Overload shedding with the default policy.
    pub shed: bool,
    /// Charge reconfigurations for moving this many retained records of
    /// operator state.
    pub state_transfer: Option<f64>,
    /// Recover crashes by incremental task migration.
    pub migration: Option<MigrationConfig>,
}

impl Scenario {
    /// Q1-sliding at its paper parallelism on six r5d.xlarge workers,
    /// offered half their capacity; DS2 re-activates every 60 s and
    /// nothing else is armed.
    pub fn q1(seed: u64, duration: f64) -> Result<Self, Error> {
        let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
        Ok(Scenario {
            query: q1_sliding(),
            schedule: RateSchedule::Constant(q1_sliding().capacity_rate(&cluster, 0.5)?),
            cluster,
            activation_period: 60.0,
            seed,
            duration,
            faults: None,
            recovery: None,
            guard: None,
            shed: false,
            state_transfer: None,
            migration: None,
        })
    }

    /// The scenario's bare loop: no faults, features or journal.
    pub fn build_loop<'a>(
        &'a self,
        strategy: &'a CapsStrategy,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        ClosedLoop::new(
            &self.query,
            &self.cluster,
            strategy,
            ds2(self.activation_period),
            loop_sim(),
            self.schedule.clone(),
            self.seed,
        )
    }

    /// The scenario's bare loop rebuilt from a (possibly partial)
    /// journal.
    pub fn recover_loop<'a>(
        &'a self,
        strategy: &'a CapsStrategy,
        journal_text: &str,
    ) -> Result<ClosedLoop<'a>, ControllerError> {
        ClosedLoop::recover_from_journal(
            &self.query,
            &self.cluster,
            strategy,
            ds2(self.activation_period),
            loop_sim(),
            self.schedule.clone(),
            journal_text,
        )
    }

    /// The worker hosting task 0 in the initial placement.
    pub fn task0_worker(&self) -> Result<WorkerId, Error> {
        let strategy = CapsStrategy::default();
        Ok(self.build_loop(&strategy)?.placement().worker_of(TaskId(0)))
    }

    /// The scenario with its faults replaced by one crash, at `time`,
    /// of the worker hosting task 0 in the initial placement.
    pub fn with_task0_crash(self, time: f64) -> Result<Self, Error> {
        let kind = FaultKind::Crash(self.task0_worker()?);
        Ok(Scenario {
            faults: Some(FaultPlan::new(vec![FaultEvent { time, kind }])?),
            ..self
        })
    }

    /// Runs the scenario fresh (`journal_text` None) or recovered from
    /// `journal_text`, with an optional controller kill.
    fn run_with(
        &self,
        kill: Option<KillPoint>,
        journal_text: Option<&str>,
    ) -> Result<JournaledRun, Error> {
        let strategy = CapsStrategy::default();
        let mut loop_ = match journal_text {
            None => self.build_loop(&strategy)?,
            Some(t) => self.recover_loop(&strategy, t)?,
        };
        let mut faults = self.faults.clone();
        if let Some(k) = kill {
            faults = Some(faults.unwrap_or_default().with_controller_kill(k)?);
        }
        if let Some(plan) = faults {
            loop_ = loop_.with_fault_plan(plan)?;
        }
        if let Some(guard) = &self.guard {
            loop_ = loop_.with_guard(guard.clone())?;
        }
        if self.shed {
            loop_ = loop_.with_shedding(ShedConfig)?;
        }
        if let Some(recovery) = &self.recovery {
            loop_ = loop_.with_recovery(recovery.clone());
        }
        if let Some(retained) = self.state_transfer {
            loop_ = loop_.with_state_transfer(retained)?;
        }
        if let Some(migration) = &self.migration {
            loop_ = loop_.with_incremental_migration(migration.clone())?;
        }
        let (journal, buf) = DecisionJournal::in_memory();
        let result = loop_.with_journal(journal)?.run(self.duration);
        Ok((result, buf.text()))
    }

    /// Runs the scenario with a journal and an optional kill; returns
    /// the outcome and the journal text.
    pub fn run_journaled(&self, kill: Option<KillPoint>) -> Result<JournaledRun, Error> {
        self.run_with(kill, None)
    }

    /// Runs the scenario to its end and returns the trace.
    pub fn run(&self) -> Result<ClosedLoopTrace, Error> {
        Ok(self.run_with(None, None)?.0?)
    }

    /// Recovers from a (possibly partial) journal and runs to the
    /// scenario's end; returns the trace and the recovered run's
    /// journal.
    pub fn recover_and_finish(
        &self,
        journal_text: &str,
    ) -> Result<(ClosedLoopTrace, String), Error> {
        let (result, journal) = self.run_with(None, Some(journal_text))?;
        Ok((result?, journal))
    }
}

/// Every scenario ticks the simulator in 1 s steps with no warm-up of
/// its own.
fn loop_sim() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

/// DS2's policy window, in seconds.
const POLICY_INTERVAL: f64 = 5.0;

/// DS2 with 5 s policy windows, parallelism capped at 8, and no
/// headroom, re-activating every `activation_period` seconds.
fn ds2(activation_period: f64) -> Ds2Config {
    Ds2Config {
        activation_period,
        policy_interval: POLICY_INTERVAL,
        max_parallelism: 8,
        headroom: 1.0,
    }
}
