//! Logical operators and their resource profiles.

/// Identifier of a logical operator within a [`crate::LogicalGraph`].
///
/// Operator ids are dense indices assigned in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub usize);

impl OperatorId {
    /// Returns the underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for OperatorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The processing role of a logical operator.
///
/// The kind determines how the simulator treats the operator (sources
/// generate records, sinks absorb them) and provides a coarse hint of its
/// dominant resource dimension used in examples and documentation. The
/// CAPS cost model itself never inspects the kind; it relies purely on the
/// measured [`ResourceProfile`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatorKind {
    /// Event source; generates records at a target rate.
    Source,
    /// Stateless record-at-a-time transformation (map, filter, flatmap).
    Stateless,
    /// Stateful windowed aggregation (sliding, tumbling, session windows).
    Window,
    /// Stateful streaming join.
    Join,
    /// Compute-heavy user function, e.g. model inference.
    Inference,
    /// Generic stateful process function.
    Process,
    /// Terminal sink; absorbs records.
    Sink,
}

impl OperatorKind {
    /// Returns true if the operator generates its own input.
    pub fn is_source(self) -> bool {
        matches!(self, OperatorKind::Source)
    }

    /// Returns true if the operator has no downstream consumers.
    pub fn is_sink(self) -> bool {
        matches!(self, OperatorKind::Sink)
    }

    /// Returns true if the operator keeps per-key state in the state backend.
    pub fn is_stateful(self) -> bool {
        matches!(
            self,
            OperatorKind::Window | OperatorKind::Join | OperatorKind::Process
        )
    }
}

/// Per-record resource requirements of one operator.
///
/// The profile expresses the unit costs that CAPSys measures during its
/// profiling phase (§5.1 of the paper): dividing each observed resource
/// metric by the observed record rate yields a per-record cost. Multiplying
/// the unit cost by a task's target rate recovers the task loads
/// `U_cpu(t)`, `U_io(t)`, and `U_net(t)` used by the cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// CPU time per input record, in core-seconds.
    pub cpu_per_record: f64,
    /// State backend bytes read + written per input record.
    pub state_bytes_per_record: f64,
    /// Serialized output bytes per *output* record.
    pub out_bytes_per_record: f64,
    /// Output records produced per input record.
    pub selectivity: f64,
    /// Amplitude of periodic CPU bursts (e.g. garbage collection for the
    /// inference operator in Q3-inf), as a fraction of `cpu_per_record`.
    /// Zero for operators without bursty behaviour.
    pub cpu_burst_amplitude: f64,
}

impl ResourceProfile {
    /// Creates a profile with the given unit costs and no burstiness.
    pub fn new(
        cpu_per_record: f64,
        state_bytes_per_record: f64,
        out_bytes_per_record: f64,
        selectivity: f64,
    ) -> Self {
        ResourceProfile {
            cpu_per_record,
            state_bytes_per_record,
            out_bytes_per_record,
            selectivity,
            cpu_burst_amplitude: 0.0,
        }
    }

    /// Sets the CPU-burst amplitude, returning the modified profile.
    pub fn with_burst(mut self, amplitude: f64) -> Self {
        self.cpu_burst_amplitude = amplitude;
        self
    }

    /// A profile that consumes no resources; useful as a neutral default.
    pub fn zero() -> Self {
        ResourceProfile::new(0.0, 0.0, 0.0, 1.0)
    }

    /// Returns true if every component is finite and non-negative and the
    /// selectivity is positive.
    pub fn is_valid(&self) -> bool {
        let nonneg = |v: f64| v.is_finite() && v >= 0.0;
        nonneg(self.cpu_per_record)
            && nonneg(self.state_bytes_per_record)
            && nonneg(self.out_bytes_per_record)
            && nonneg(self.cpu_burst_amplitude)
            && self.selectivity.is_finite()
            && self.selectivity >= 0.0
    }
}

impl Default for ResourceProfile {
    fn default() -> Self {
        ResourceProfile::zero()
    }
}

/// A vertex of the logical query graph.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalOperator {
    /// Human-readable operator name, unique within a graph.
    pub name: String,
    /// Processing role.
    pub kind: OperatorKind,
    /// Number of parallel tasks instantiated for this operator.
    pub parallelism: usize,
    /// Measured per-record resource costs.
    pub profile: ResourceProfile,
}

impl LogicalOperator {
    /// Creates a new logical operator.
    pub fn new(
        name: impl Into<String>,
        kind: OperatorKind,
        parallelism: usize,
        profile: ResourceProfile,
    ) -> Self {
        LogicalOperator {
            name: name.into(),
            kind,
            parallelism,
            profile,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_kind_predicates() {
        assert!(OperatorKind::Source.is_source());
        assert!(!OperatorKind::Source.is_sink());
        assert!(OperatorKind::Sink.is_sink());
        assert!(OperatorKind::Window.is_stateful());
        assert!(OperatorKind::Join.is_stateful());
        assert!(OperatorKind::Process.is_stateful());
        assert!(!OperatorKind::Stateless.is_stateful());
        assert!(!OperatorKind::Inference.is_stateful());
    }

    #[test]
    fn profile_validity() {
        assert!(ResourceProfile::zero().is_valid());
        assert!(ResourceProfile::new(1.0, 2.0, 3.0, 0.5).is_valid());
        let neg = ResourceProfile::new(-1.0, 0.0, 0.0, 1.0);
        assert!(!neg.is_valid());
        let nan = ResourceProfile::new(f64::NAN, 0.0, 0.0, 1.0);
        assert!(!nan.is_valid());
        let inf = ResourceProfile::new(0.0, f64::INFINITY, 0.0, 1.0);
        assert!(!inf.is_valid());
    }

    #[test]
    fn with_burst_preserves_other_fields() {
        let p = ResourceProfile::new(1.0, 2.0, 3.0, 0.5).with_burst(0.3);
        assert_eq!(p.cpu_per_record, 1.0);
        assert_eq!(p.cpu_burst_amplitude, 0.3);
        assert!(p.is_valid());
    }

    #[test]
    fn operator_id_display() {
        assert_eq!(OperatorId(4).to_string(), "op4");
        assert_eq!(OperatorId(4).index(), 4);
    }
}
