//! CAPS: Contention-Aware Placement Search.
//!
//! The primary contribution of the CAPSys paper (EuroSys '25): given a
//! physical execution graph, a worker cluster, and per-task resource
//! loads, find a placement plan that balances compute-, I/O-, and
//! network-intensive tasks across workers.
//!
//! * [`CostModel`] implements the cost model of §4.2 (Equations 4-8).
//! * [`CapsSearch`] implements the outer/inner DFS of §4.3 with
//!   threshold-based pruning and exploration reordering (§4.4), and the
//!   thread-pool parallel search of §5.1.
//! * [`AutoTuner`] implements the two-phase threshold auto-tuning of
//!   §5.2.
//!
//! # Example
//!
//! ```
//! use capsys_core::{CapsSearch, SearchConfig};
//! use capsys_model::{
//!     Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
//!     PhysicalGraph, ResourceProfile, WorkerSpec,
//! };
//! use std::collections::HashMap;
//!
//! let mut b = LogicalGraph::builder("example");
//! let src = b.operator("src", OperatorKind::Source, 2,
//!     ResourceProfile::new(0.0005, 0.0, 100.0, 1.0));
//! let win = b.operator("window", OperatorKind::Window, 4,
//!     ResourceProfile::new(0.002, 500.0, 50.0, 0.5));
//! b.edge(src, win, ConnectionPattern::Hash);
//! let logical = b.build().unwrap();
//! let physical = PhysicalGraph::expand(&logical);
//! let cluster = Cluster::homogeneous(2, WorkerSpec::m5d_2xlarge(4)).unwrap();
//! let mut rates = HashMap::new();
//! rates.insert(OperatorId(0), 1000.0);
//! let loads = LoadModel::derive(&logical, &physical, &rates).unwrap();
//!
//! let search = CapsSearch::new(&logical, &physical, &cluster, &loads).unwrap();
//! let outcome = search.run(&SearchConfig::auto_tuned()).unwrap();
//! let plan = outcome.best_plan().expect("feasible plan");
//! plan.validate(&physical, &cluster).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod autotune;
pub mod cost;
pub mod error;
pub mod mcts;
pub mod movemin;
pub mod parallel;
pub mod pareto;
pub mod search;
mod store;
pub mod strategy;

pub use autotune::{
    AutoTuneConfig, AutoTuneReport, AutoTuner, PRESSURE_FLOOR, RELAX_FACTOR, RELAX_SEED,
};
pub use cost::{CostModel, CostVector, Dimension, LoadBounds, Thresholds};
pub use error::CapsError;
pub use mcts::{MctsConfig, MctsReport};
pub use movemin::{min_movement_plan, MoveMinOutcome};
pub use parallel::SPLIT_AFTER;
pub use pareto::pareto_front;
pub use search::{
    AnytimePoint, CapsSearch, Probe, RunStats, ScoredPlan, SearchConfig, SearchOutcome,
};
pub use strategy::SearchBackend;
