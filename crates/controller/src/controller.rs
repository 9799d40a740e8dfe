//! The CAPSys deployment pipeline (§5.1, Figure 6).
//!
//! ① the user submits a query and a target rate → ② a profiling job
//! estimates per-operator unit costs → ③ the scaling controller (DS2)
//! decides operator parallelism → ④ the placement controller runs CAPS →
//! ⑤⑥ the plan is deployed. This module glues those stages together
//! against the simulator.

use capsys_core::SearchConfig;
use capsys_ds2::{Ds2Config, Ds2Controller};
use capsys_model::{Cluster, LoadModel, LogicalGraph, PhysicalGraph, Placement, ResourceProfile};
use capsys_placement::{CapsStrategy, PlacementContext, PlacementStrategy};
use capsys_queries::Query;
use capsys_sim::config::BURST_DUTY;
use capsys_util::rng::SeedableRng;
use capsys_util::rng::SmallRng;

use crate::profiler::{apply_profiles, profile_query, ProfileReport, ProfilerConfig};
use crate::ControllerError;

/// Configuration of the CAPSys controller.
#[derive(Debug, Clone)]
pub struct CapsysConfig {
    /// Profiling-phase settings.
    pub profiler: ProfilerConfig,
    /// DS2 settings.
    pub ds2: Ds2Config,
    /// CAPS search settings.
    pub search: SearchConfig,
}

impl Default for CapsysConfig {
    fn default() -> Self {
        CapsysConfig {
            profiler: ProfilerConfig::default(),
            ds2: Ds2Config::default(),
            search: SearchConfig::auto_tuned(),
        }
    }
}

/// A fully planned deployment, ready for the simulator.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The logical graph with measured profiles and DS2 parallelism.
    pub logical: LogicalGraph,
    /// Its physical expansion.
    pub physical: PhysicalGraph,
    /// The CAPS placement plan.
    pub placement: Placement,
    /// The load model at the target rate.
    pub loads: LoadModel,
    /// Profiling output.
    pub profile: ProfileReport,
    /// Slots used.
    pub slots_used: usize,
}

/// The CAPSys adaptive resource controller.
#[derive(Debug, Clone, Default)]
pub struct CapsysController {
    /// Controller configuration.
    pub config: CapsysConfig,
}

impl CapsysController {
    /// Creates a controller with the given configuration.
    pub fn new(config: CapsysConfig) -> Self {
        CapsysController { config }
    }

    /// Plans a deployment: profile → DS2 parallelism → CAPS placement.
    ///
    /// `target_rate` is the aggregate source rate the deployment must
    /// sustain on `cluster`.
    pub fn plan(
        &self,
        query: &Query,
        cluster: &Cluster,
        target_rate: f64,
    ) -> Result<Deployment, ControllerError> {
        // ② Profiling.
        let profile = profile_query(query, &self.config.profiler)?;
        self.plan_with_profiles(query, cluster, target_rate, profile)
    }

    /// Plans a deployment from an existing profile report (profiling is
    /// run once and reused across reconfigurations, §5.1).
    pub fn plan_with_profiles(
        &self,
        query: &Query,
        cluster: &Cluster,
        target_rate: f64,
        profile: ProfileReport,
    ) -> Result<Deployment, ControllerError> {
        let measured = apply_profiles(query.logical(), &profile.profiles);
        let measured_query =
            Query::new(measured, query.source_mix().clone()).map_err(ControllerError::Model)?;

        // ③ DS2 parallelism from profiled true rates (one core per task).
        let ds2 = Ds2Controller::new(self.config.ds2.clone());
        let physical0 = measured_query.physical();
        let op_true_rates: Vec<f64> = measured_query
            .logical()
            .operators()
            .iter()
            .map(|o| true_rate_from_profile(&o.profile))
            .collect();
        let decision = ds2
            .decide_from_op_rates(
                measured_query.logical(),
                &physical0,
                &op_true_rates,
                &measured_query.source_rates(target_rate),
            )
            .map_err(ControllerError::Ds2)?;
        cluster
            .check_capacity(decision.total_tasks())
            .map_err(ControllerError::Model)?;
        let scaled = measured_query
            .with_parallelism(&decision.parallelism)
            .map_err(ControllerError::Model)?;

        // ④ CAPS placement.
        let physical = scaled.physical();
        let loads = scaled
            .load_model_at(&physical, target_rate)
            .map_err(ControllerError::Model)?;
        let strategy = CapsStrategy::new(self.config.search.clone());
        let ctx = PlacementContext {
            logical: scaled.logical(),
            physical: &physical,
            cluster,
            loads: &loads,
        };
        let mut rng = SmallRng::seed_from_u64(0);
        let placement = strategy
            .place(&ctx, &mut rng)
            .map_err(ControllerError::Placement)?;

        let slots_used = physical.num_tasks();
        Ok(Deployment {
            logical: scaled.logical().clone(),
            physical,
            placement,
            loads,
            profile,
            slots_used,
        })
    }
}

/// The true processing rate one task of an operator can sustain on a
/// dedicated core, derived from its profiled unit costs.
pub fn true_rate_from_profile(profile: &ResourceProfile) -> f64 {
    if profile.cpu_per_record > 0.0 {
        // Average over burst cycles: bursts inflate the effective
        // per-record cost for the simulator's burst duty.
        1.0 / (profile.cpu_per_record * (1.0 + BURST_DUTY * profile.cpu_burst_amplitude))
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::WorkerSpec;
    use capsys_queries::q1_sliding;
    use capsys_sim::{SimConfig, Simulation};

    #[test]
    fn end_to_end_plan_meets_target_in_simulation() {
        let query = q1_sliding();
        let cluster = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap();
        let target = query.capacity_rate(&cluster, 0.7).unwrap();
        let controller = CapsysController::default();
        let deployment = controller.plan(&query, &cluster, target).unwrap();

        deployment
            .placement
            .validate(&deployment.physical, &cluster)
            .unwrap();
        assert!(deployment.slots_used <= cluster.total_slots());

        // Deploy on the simulator with the *ground truth* profiles and
        // check the plan sustains the target.
        let physical = PhysicalGraph::expand(query.logical());
        // DS2 may have changed parallelism; re-expand the planned graph
        // with true profiles for simulation fidelity.
        let planned = query
            .with_parallelism(&deployment.logical.parallelism_vector())
            .unwrap();
        let physical_planned = planned.physical();
        assert_eq!(
            physical_planned.num_tasks(),
            deployment.physical.num_tasks()
        );
        let _ = physical;
        let schedules = planned.schedules(target);
        let mut sim = Simulation::new(
            planned.logical(),
            &physical_planned,
            &cluster,
            &deployment.placement,
            &schedules,
            SimConfig::short(),
        )
        .unwrap();
        let report = sim.run();
        assert!(
            report.meets_target(0.9),
            "planned deployment reached {} of target {}",
            report.avg_throughput,
            target
        );
    }

    #[test]
    fn plan_rejects_undersized_cluster() {
        let query = q1_sliding();
        let tiny = Cluster::homogeneous(1, WorkerSpec::new(2, 4.0, 5e8, 1.25e9)).unwrap();
        let controller = CapsysController::default();
        // A rate needing far more than 2 tasks.
        let err = controller.plan(&query, &tiny, 50_000.0);
        assert!(err.is_err());
    }

    #[test]
    fn true_rate_reflects_bursts() {
        let plain = ResourceProfile::new(0.001, 0.0, 0.0, 1.0);
        let bursty = plain.with_burst(0.5);
        assert!(true_rate_from_profile(&bursty) < true_rate_from_profile(&plain));
        assert_eq!(
            true_rate_from_profile(&ResourceProfile::zero()),
            f64::INFINITY
        );
    }
}
