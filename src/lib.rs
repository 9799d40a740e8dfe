//! CAPSys: contention-aware task placement for data stream processing.
//!
//! A from-scratch Rust reproduction of the EuroSys '25 paper
//! *"CAPSys: Contention-aware task placement for data stream processing"*
//! (Wang, Huang, Wang, Kalavri, Matta). This facade crate re-exports the
//! whole workspace:
//!
//! * [`model`] — dataflow graphs, clusters, placement plans, task loads.
//! * [`caps`] — the CAPS cost model, placement search, and auto-tuning
//!   (the paper's primary contribution, §4-5).
//! * [`sim`] — a contention-aware stream-processing simulator standing in
//!   for the paper's Apache Flink clusters.
//! * [`placement`] — baseline strategies (Flink `default` and `evenly`).
//! * [`ds2`] — the DS2 auto-scaling controller.
//! * [`odrp`] — the ODRP ILP placement baseline.
//! * [`queries`] — the paper's six evaluation queries.
//! * [`controller`] — the end-to-end CAPSys controller (profiling, DS2,
//!   placement, reconfiguration).
//!
//! # Quickstart
//!
//! ```
//! use capsys::prelude::*;
//!
//! // The paper's Q1-sliding query on a 4-worker, 16-slot cluster (§3.2).
//! let query = capsys::queries::q1_sliding();
//! let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap();
//! let physical = query.physical();
//! let loads = query.load_model(&physical).unwrap();
//!
//! // Search for a contention-balanced placement with CAPS.
//! let caps = CapsSearch::new(query.logical(), &physical, &cluster, &loads).unwrap();
//! let outcome = caps.run(&SearchConfig::auto_tuned()).unwrap();
//! let plan = outcome.best_plan().expect("a feasible plan exists");
//! assert!(plan.validate(&physical, &cluster).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod spec;

pub use capsys_controller as controller;
pub use capsys_core as caps;
pub use capsys_ds2 as ds2;
pub use capsys_model as model;
pub use capsys_odrp as odrp;
pub use capsys_placement as placement;
pub use capsys_queries as queries;
pub use capsys_sim as sim;
pub use capsys_util as util;

/// Convenient glob-import of the most common types.
pub mod prelude {
    pub use capsys_core::{AutoTuner, CapsSearch, CostModel, CostVector, SearchConfig, Thresholds};
    pub use capsys_ds2::Ds2Controller;
    pub use capsys_model::{
        Cluster, ConnectionPattern, LoadModel, LogicalGraph, OperatorId, OperatorKind,
        PhysicalGraph, Placement, RateSchedule, ResourceProfile, TaskId, WorkerId, WorkerSpec,
    };
    pub use capsys_placement::{FlinkDefault, FlinkEvenly, PlacementStrategy};
    pub use capsys_queries::Query;
    pub use capsys_sim::{SimConfig, Simulation, SimulationReport};
}
