//! Worker cluster model (`G_w` in the paper).

use crate::error::ModelError;

/// Identifier of a worker within a [`Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for WorkerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// Hardware capacities of one worker node.
///
/// The paper deploys Task Managers on AWS instances; this spec captures
/// the capacities that matter for contention: CPU cores shared by all
/// slot threads, the SSD bandwidth shared by state-backend accesses, and
/// the NIC bandwidth shared by outbound cross-worker channels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerSpec {
    /// Number of compute slots (`s`), one task per slot.
    pub slots: usize,
    /// Physical CPU cores available to slot threads.
    pub cpu_cores: f64,
    /// Aggregate disk bandwidth in bytes/s (state backend reads + writes).
    pub disk_bandwidth: f64,
    /// Outbound network bandwidth in bytes/s.
    pub network_bandwidth: f64,
    /// One-way latency of this worker's link to the rest of the fleet,
    /// seconds. Zero (the default) is the paper's datacenter assumption;
    /// WAN-attached edge workers carry tens of milliseconds, which the
    /// simulator charges to every cross-worker record they exchange.
    pub link_latency: f64,
}

impl WorkerSpec {
    /// Creates a new worker spec (datacenter-local: zero link latency).
    pub fn new(slots: usize, cpu_cores: f64, disk_bandwidth: f64, network_bandwidth: f64) -> Self {
        WorkerSpec {
            slots,
            cpu_cores,
            disk_bandwidth,
            network_bandwidth,
            link_latency: 0.0,
        }
    }

    /// Returns a copy with the given one-way link latency in seconds.
    pub fn with_link_latency(mut self, seconds: f64) -> Self {
        self.link_latency = seconds;
        self
    }

    /// AWS `m5d.2xlarge` analogue used in §6.2: 4 physical cores, NVMe SSD,
    /// 10 Gbps network.
    pub fn m5d_2xlarge(slots: usize) -> Self {
        WorkerSpec::new(slots, 4.0, 500e6, 1.25e9)
    }

    /// AWS `r5d.xlarge` analogue used in §3 and §6.4: 2 physical cores.
    pub fn r5d_xlarge(slots: usize) -> Self {
        WorkerSpec::new(slots, 2.0, 300e6, 1.25e9)
    }

    /// AWS `c5d.4xlarge` analogue used in §6.3: 8 physical cores.
    pub fn c5d_4xlarge(slots: usize) -> Self {
        WorkerSpec::new(slots, 8.0, 600e6, 1.25e9)
    }

    /// Returns a copy with the outbound network bandwidth capped, as in the
    /// paper's 1 Gbps network-contention experiment (§3.3).
    pub fn with_network_cap(mut self, bytes_per_sec: f64) -> Self {
        self.network_bandwidth = bytes_per_sec;
        self
    }

    /// Returns true if all capacities are positive and finite (link
    /// latency may be zero).
    pub fn is_valid(&self) -> bool {
        let pos = |v: f64| v.is_finite() && v > 0.0;
        self.slots > 0
            && pos(self.cpu_cores)
            && pos(self.disk_bandwidth)
            && pos(self.network_bandwidth)
            && self.link_latency.is_finite()
            && self.link_latency >= 0.0
    }
}

/// Relative hardware multipliers describing one machine class of a
/// heterogeneous fleet. A profile is applied to a base [`WorkerSpec`]
/// to derive that class's capacities, so a mixed cluster is written as
/// one base instance type plus a profile per worker:
///
/// ```
/// use capsys_model::{Cluster, HardwareProfile, WorkerSpec};
/// let base = WorkerSpec::r5d_xlarge(4);
/// let cluster = Cluster::heterogeneous(vec![
///     HardwareProfile::baseline().apply(base),
///     HardwareProfile::slow_cpu().apply(base),
/// ]).unwrap();
/// assert_eq!(cluster.num_workers(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// CPU speed multiplier (fast cores > 1, slow cores < 1).
    pub cpu_mult: f64,
    /// Disk bandwidth multiplier (HDD ≪ 1 vs the SSD baseline).
    pub disk_mult: f64,
    /// NIC bandwidth multiplier (WAN uplinks ≪ 1).
    pub net_mult: f64,
    /// One-way link latency to the rest of the fleet, seconds.
    pub link_latency: f64,
}

impl HardwareProfile {
    /// The reference machine: multipliers of 1, datacenter-local link.
    pub fn baseline() -> Self {
        HardwareProfile {
            cpu_mult: 1.0,
            disk_mult: 1.0,
            net_mult: 1.0,
            link_latency: 0.0,
        }
    }

    /// A newer-generation CPU: 1.5x the base clock-for-clock throughput.
    pub fn fast_cpu() -> Self {
        HardwareProfile {
            cpu_mult: 1.5,
            ..HardwareProfile::baseline()
        }
    }

    /// An older or thermally-throttled CPU at half the base speed.
    pub fn slow_cpu() -> Self {
        HardwareProfile {
            cpu_mult: 0.5,
            ..HardwareProfile::baseline()
        }
    }

    /// Derives this class's spec from a base instance type. Slots are
    /// unchanged: heterogeneity is speed, not slot count.
    pub fn apply(&self, base: WorkerSpec) -> WorkerSpec {
        WorkerSpec {
            slots: base.slots,
            cpu_cores: base.cpu_cores * self.cpu_mult,
            disk_bandwidth: base.disk_bandwidth * self.disk_mult,
            network_bandwidth: base.network_bandwidth * self.net_mult,
            link_latency: base.link_latency + self.link_latency,
        }
    }

    /// Whether every multiplier is finite and positive and the latency
    /// finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let pos = |v: f64| v.is_finite() && v > 0.0;
        pos(self.cpu_mult)
            && pos(self.disk_mult)
            && pos(self.net_mult)
            && self.link_latency.is_finite()
            && self.link_latency >= 0.0
    }
}

/// One worker node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Worker {
    /// Worker id.
    pub id: WorkerId,
    /// Hardware capacities.
    pub spec: WorkerSpec,
}

/// A cluster of homogeneous workers (`G_w = (V_w, E_w)`).
///
/// The paper's datacenter setting assumes negligible propagation delays
/// between workers, so `E_w` is implicit: every worker pair is connected
/// and only per-worker NIC bandwidth constrains communication.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    workers: Vec<Worker>,
}

impl Cluster {
    /// Creates a homogeneous cluster of `n` workers with the given spec.
    pub fn homogeneous(n: usize, spec: WorkerSpec) -> Result<Cluster, ModelError> {
        if n == 0 {
            return Err(ModelError::InvalidParameter(
                "cluster needs at least one worker".into(),
            ));
        }
        if !spec.is_valid() {
            return Err(ModelError::InvalidParameter(format!(
                "invalid worker spec {spec:?}"
            )));
        }
        Ok(Cluster {
            workers: (0..n)
                .map(|i| Worker {
                    id: WorkerId(i),
                    spec,
                })
                .collect(),
        })
    }

    /// Creates a heterogeneous cluster, one spec per worker. Every spec
    /// must be valid and all workers must expose the *same slot count*:
    /// hardware heterogeneity is speed (CPU multipliers, HDD vs SSD
    /// bandwidth, WAN links), not shape — the slot grid the placement
    /// search enumerates stays uniform.
    pub fn heterogeneous(specs: Vec<WorkerSpec>) -> Result<Cluster, ModelError> {
        let Some(first) = specs.first() else {
            return Err(ModelError::InvalidParameter(
                "cluster needs at least one worker".into(),
            ));
        };
        let slots = first.slots;
        for (i, spec) in specs.iter().enumerate() {
            if !spec.is_valid() {
                return Err(ModelError::InvalidParameter(format!(
                    "invalid worker spec for worker {i}: {spec:?}"
                )));
            }
            if spec.slots != slots {
                return Err(ModelError::InvalidParameter(format!(
                    "heterogeneous clusters must keep a uniform slot count \
                     (worker 0 has {slots}, worker {i} has {})",
                    spec.slots
                )));
            }
        }
        Ok(Cluster {
            workers: specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| Worker {
                    id: WorkerId(i),
                    spec,
                })
                .collect(),
        })
    }

    /// All workers (`V_w`).
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }

    /// Whether any worker's capacities differ from worker 0's.
    pub fn is_heterogeneous(&self) -> bool {
        self.workers.iter().any(|w| w.spec != self.workers[0].spec)
    }

    /// Number of workers `|V_w|`.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker with the given id.
    pub fn worker(&self, id: WorkerId) -> &Worker {
        &self.workers[id.0]
    }

    /// Slots per worker (`s`). Uniform by construction: both
    /// [`Cluster::homogeneous`] and [`Cluster::heterogeneous`] enforce
    /// one slot count across the fleet.
    pub fn slots_per_worker(&self) -> usize {
        self.workers[0].spec.slots
    }

    /// Total number of slots across the cluster.
    pub fn total_slots(&self) -> usize {
        self.workers.iter().map(|w| w.spec.slots).sum()
    }

    /// Checks there are enough slots to host `tasks` tasks.
    pub fn check_capacity(&self, tasks: usize) -> Result<(), ModelError> {
        let slots = self.total_slots();
        if tasks > slots {
            return Err(ModelError::InsufficientSlots { tasks, slots });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_cluster_basics() {
        let c = Cluster::homogeneous(4, WorkerSpec::m5d_2xlarge(8)).unwrap();
        assert_eq!(c.num_workers(), 4);
        assert_eq!(c.slots_per_worker(), 8);
        assert_eq!(c.total_slots(), 32);
        assert_eq!(c.worker(WorkerId(2)).id, WorkerId(2));
        assert!(c.check_capacity(32).is_ok());
        assert!(c.check_capacity(33).is_err());
    }

    #[test]
    fn rejects_empty_cluster() {
        assert!(Cluster::homogeneous(0, WorkerSpec::m5d_2xlarge(8)).is_err());
    }

    #[test]
    fn rejects_invalid_spec() {
        let bad = WorkerSpec::new(0, 4.0, 1.0, 1.0);
        assert!(Cluster::homogeneous(2, bad).is_err());
        let bad = WorkerSpec::new(4, 0.0, 1.0, 1.0);
        assert!(Cluster::homogeneous(2, bad).is_err());
        let bad = WorkerSpec::new(4, 4.0, f64::NAN, 1.0);
        assert!(Cluster::homogeneous(2, bad).is_err());
    }

    #[test]
    fn network_cap_applies() {
        let spec = WorkerSpec::r5d_xlarge(4).with_network_cap(125e6);
        assert_eq!(spec.network_bandwidth, 125e6);
        assert_eq!(spec.cpu_cores, 2.0);
    }

    #[test]
    fn presets_are_valid() {
        assert!(WorkerSpec::m5d_2xlarge(8).is_valid());
        assert!(WorkerSpec::r5d_xlarge(4).is_valid());
        assert!(WorkerSpec::c5d_4xlarge(8).is_valid());
    }

    #[test]
    fn heterogeneous_cluster_applies_profiles() {
        let base = WorkerSpec::r5d_xlarge(4);
        let c = Cluster::heterogeneous(vec![
            HardwareProfile::baseline().apply(base),
            HardwareProfile::fast_cpu().apply(base),
            HardwareProfile {
                disk_mult: 0.25,
                ..HardwareProfile::baseline()
            }
            .apply(base),
            HardwareProfile {
                net_mult: 0.1,
                link_latency: 0.04,
                ..HardwareProfile::baseline()
            }
            .apply(base),
        ])
        .unwrap();
        assert!(c.is_heterogeneous());
        assert_eq!(c.num_workers(), 4);
        assert_eq!(c.slots_per_worker(), 4);
        assert_eq!(c.worker(WorkerId(1)).spec.cpu_cores, 3.0);
        assert_eq!(c.worker(WorkerId(2)).spec.disk_bandwidth, 75e6);
        assert_eq!(c.worker(WorkerId(3)).spec.network_bandwidth, 125e6);
        assert_eq!(c.worker(WorkerId(3)).spec.link_latency, 0.04);
        assert!(!Cluster::homogeneous(3, base).unwrap().is_heterogeneous());
    }

    #[test]
    fn heterogeneous_cluster_rejects_mixed_slot_counts() {
        let err =
            Cluster::heterogeneous(vec![WorkerSpec::r5d_xlarge(4), WorkerSpec::r5d_xlarge(8)]);
        assert!(err.is_err());
        assert!(Cluster::heterogeneous(vec![]).is_err());
        let mut bad = WorkerSpec::r5d_xlarge(4);
        bad.link_latency = f64::NAN;
        assert!(Cluster::heterogeneous(vec![bad]).is_err());
    }

    #[test]
    fn hardware_profiles_validate() {
        assert!(HardwareProfile::baseline().is_valid());
        assert!(HardwareProfile::fast_cpu().is_valid());
        assert!(HardwareProfile::slow_cpu().is_valid());
        let mut p = HardwareProfile::baseline();
        p.link_latency = 0.08;
        assert!(p.is_valid());
        p.link_latency = f64::NAN;
        assert!(!p.is_valid());
        let mut p = HardwareProfile::baseline();
        p.cpu_mult = 0.0;
        assert!(!p.is_valid());
    }

    #[test]
    fn link_latency_round_trips_through_builder() {
        let spec = WorkerSpec::r5d_xlarge(4).with_link_latency(0.02);
        assert_eq!(spec.link_latency, 0.02);
        assert!(spec.is_valid());
        assert!(!spec.with_link_latency(-1.0).is_valid());
    }
}
