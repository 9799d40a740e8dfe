//! A contention-aware stream-processing simulator.
//!
//! This crate stands in for the Apache Flink clusters of the CAPSys paper
//! (EuroSys '25). It simulates a dataflow deployment — tasks placed on
//! workers, connected by bounded queues — with a fluid-flow model that
//! reproduces the contention effects the paper studies:
//!
//! * tasks co-located on a worker share its **CPU cores**, **disk
//!   bandwidth** (the RocksDB state backend analogue), and **outbound NIC
//!   bandwidth**, allocated max-min fairly each tick;
//! * bounded inter-task queues propagate **backpressure** upstream to the
//!   sources, like Flink's credit-based flow control;
//! * only **cross-worker channels** consume network bandwidth (Eq. 8);
//! * the metrics the paper reports — source throughput, source
//!   backpressure, latency, per-worker utilization — and the per-task
//!   observed/true rates that the DS2 controller consumes.
//!
//! See `DESIGN.md` at the repository root for the full substitution
//! argument (what the paper ran on vs. what this simulates).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod config;
pub mod engine;
pub mod epoch;
pub mod error;
pub mod fault;
pub mod metrics;
pub mod workload;

pub use config::SimConfig;
pub use engine::{Simulation, TaskTransfer};
pub use epoch::EpochFence;
pub use error::SimError;
pub use fault::{
    ChaosConfig, DeciderFault, DeciderFaultKind, DeciderTarget, FaultEvent, FaultInjector,
    FaultKind, FaultPlan, KillPoint, ModelSkew,
};
pub use metrics::{sanitize_rates, MetricPoint, SimulationReport, SourceStats, TaskRateStats};
pub use workload::{WorkloadConfig, WorkloadEngine};
