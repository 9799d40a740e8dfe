//! Dataflow, cluster, and placement model shared by all CAPSys crates.
//!
//! This crate defines the vocabulary of the CAPSys paper (EuroSys '25):
//!
//! * [`LogicalGraph`] — the user-facing query DAG of [`LogicalOperator`]s
//!   connected by [`LogicalEdge`]s (`G_l` in the paper's Figure 1).
//! * [`PhysicalGraph`] — the expanded execution graph `G_p = (V_p, E_p)`
//!   of [`Task`]s and [`Channel`]s, obtained by replicating each operator
//!   according to its parallelism.
//! * [`Cluster`] — the worker cluster `G_w = (V_w, E_w)` of homogeneous
//!   [`Worker`]s with a fixed number of compute slots each.
//! * [`Placement`] — a task placement plan `f : V_p -> V_w` respecting the
//!   paper's constraints (1) and (2).
//! * [`LoadModel`] — per-task resource loads `U_cpu(t)`, `U_io(t)`,
//!   `U_net(t)` derived from operator resource profiles and propagated
//!   stream rates.
//! * [`enumerate`] — exhaustive enumeration of distinct placement plans up
//!   to worker symmetry, used for the paper's exhaustive study (§3.2) and
//!   for validating search completeness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod cluster;
pub mod enumerate;
pub mod error;
pub mod json;
pub mod load;
pub mod logical;
pub mod migration;
pub mod operator;
pub mod physical;
pub mod placement;
pub mod rates;
pub mod skew;

pub use cluster::{Cluster, HardwareProfile, Worker, WorkerId, WorkerSpec};
pub use enumerate::{count_plans, enumerate_plans, PlanEnumerator, PlanVisitor, SearchStats};
pub use error::ModelError;
pub use load::{LoadModel, TaskLoad};
pub use logical::{ConnectionPattern, LogicalEdge, LogicalGraph, LogicalGraphBuilder};
pub use migration::{PlanDiff, StateModel, TaskMove};
pub use operator::{LogicalOperator, OperatorId, OperatorKind, ResourceProfile};
pub use physical::{Channel, PhysicalGraph, Task, TaskId};
pub use placement::Placement;
pub use rates::{FlashCrowd, RateProgram, RateSchedule};
pub use skew::{apply_skew, SkewSpec, SkewedProblem};
