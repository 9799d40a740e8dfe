//! The six evaluation queries of the CAPSys paper.
//!
//! §3.1 and §6.1 of the paper evaluate CAPSys on:
//!
//! | Query | Origin | Character |
//! |---|---|---|
//! | [`q1_sliding`] | Nexmark Q5 | map + sliding window; compute- and state-heavy window |
//! | [`q2_join`] | Nexmark Q8 | two sources, two maps, tumbling window join; compute- and I/O-heavy join |
//! | [`q3_inf`] | Crayfish-style inference pipeline | image decode/resize + model inference; compute- and network-heavy |
//! | [`q4_join`] | Nexmark Q3 | filter + incremental join |
//! | [`q5_aggregate`] | Nexmark Q6 | join + windowed aggregation, two heavy stateful stages |
//! | [`q6_session`] | Nexmark Q11 | session windows accumulating large state |
//!
//! Operator resource profiles are calibrated such that, at the paper's
//! "target input rate matching cluster capacity" methodology, each query
//! reproduces the contention behaviour reported in the paper: the
//! per-operator parallelisms of Q1/Q2/Q3 yield *exactly* the plan-space
//! sizes the paper reports for the 4-worker/16-slot study (80, 665, and
//! 950 distinct plans respectively — §3.2, §3.3).
//!
//! In place of the Nexmark event generator, workloads are expressed as
//! per-source [`RateSchedule`]s plus per-operator unit costs (the paper's
//! own cost model input, §5.1); the fluid simulator consumes rates, not
//! individual events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use std::collections::HashMap;

use capsys_model::{
    Cluster, ConnectionPattern, LoadModel, LogicalGraph, ModelError, OperatorId, OperatorKind,
    PhysicalGraph, RateSchedule, ResourceProfile,
};

/// A benchmark query: a logical graph plus its workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    logical: LogicalGraph,
    /// Fraction of the total input rate produced by each source operator;
    /// fractions sum to 1.
    source_mix: HashMap<OperatorId, f64>,
}

impl Query {
    /// Wraps a logical graph with a source-rate mix.
    ///
    /// `source_mix` must cover every source operator and sum to 1 (within
    /// rounding).
    pub fn new(
        logical: LogicalGraph,
        source_mix: HashMap<OperatorId, f64>,
    ) -> Result<Query, ModelError> {
        let mut sum = 0.0;
        for src in logical.sources() {
            match source_mix.get(&src) {
                Some(f) if *f > 0.0 => sum += f,
                _ => {
                    return Err(ModelError::InvalidParameter(format!(
                        "source `{}` missing from the source mix",
                        logical.operator(src).name
                    )))
                }
            }
        }
        if (sum - 1.0).abs() > 1e-6 {
            return Err(ModelError::InvalidParameter(format!(
                "source mix sums to {sum}, expected 1"
            )));
        }
        Ok(Query {
            logical,
            source_mix,
        })
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.logical.name
    }

    /// The logical graph (with the query's default parallelism).
    pub fn logical(&self) -> &LogicalGraph {
        &self.logical
    }

    /// The source-rate mix.
    pub fn source_mix(&self) -> &HashMap<OperatorId, f64> {
        &self.source_mix
    }

    /// Per-source rates for an aggregate input rate of `total` records/s.
    pub fn source_rates(&self, total: f64) -> HashMap<OperatorId, f64> {
        self.source_mix
            .iter()
            .map(|(&op, &f)| (op, total * f))
            .collect()
    }

    /// Constant-rate schedules at `total` records/s.
    pub fn schedules(&self, total: f64) -> HashMap<OperatorId, RateSchedule> {
        self.source_mix
            .iter()
            .map(|(&op, &f)| (op, RateSchedule::Constant(total * f)))
            .collect()
    }

    /// Applies one schedule shape to all sources, scaled by the mix.
    pub fn schedules_from(&self, shape: &RateSchedule) -> HashMap<OperatorId, RateSchedule> {
        self.source_mix
            .iter()
            .map(|(&op, &f)| (op, shape.scaled(f)))
            .collect()
    }

    /// The physical graph at the query's current parallelism.
    pub fn physical(&self) -> PhysicalGraph {
        PhysicalGraph::expand(&self.logical)
    }

    /// The load model at an aggregate input rate of `total` records/s.
    pub fn load_model_at(
        &self,
        physical: &PhysicalGraph,
        total: f64,
    ) -> Result<LoadModel, ModelError> {
        LoadModel::derive(&self.logical, physical, &self.source_rates(total))
    }

    /// The load model at the default rate of 1000 records/s, mostly
    /// useful where only load *ratios* matter (loads are linear in rate).
    pub fn load_model(&self, physical: &PhysicalGraph) -> Result<LoadModel, ModelError> {
        self.load_model_at(physical, 1000.0)
    }

    /// A copy with different per-operator parallelism.
    pub fn with_parallelism(&self, parallelism: &[usize]) -> Result<Query, ModelError> {
        Ok(Query {
            logical: self.logical.with_parallelism(parallelism)?,
            source_mix: self.source_mix.clone(),
        })
    }

    /// A copy with every operator's parallelism multiplied by `k`.
    pub fn scaled(&self, k: usize) -> Result<Query, ModelError> {
        let p: Vec<usize> = self
            .logical
            .parallelism_vector()
            .iter()
            .map(|&x| x * k)
            .collect();
        self.with_parallelism(&p)
    }

    /// The aggregate input rate at which a perfectly balanced placement
    /// drives the cluster's most stressed resource to `utilization`.
    ///
    /// This implements the paper's §3.1 methodology ("we configure the
    /// target input rate to match the capacity of the resource cluster").
    /// Network demand is discounted by the expected remote fraction
    /// `(W-1)/W` of an all-to-all exchange on `W` workers.
    pub fn capacity_rate(&self, cluster: &Cluster, utilization: f64) -> Result<f64, ModelError> {
        let physical = self.physical();
        let probe_rate = 1000.0;
        let loads = self.load_model_at(&physical, probe_rate)?;
        let total = loads.total();
        let w = cluster.num_workers() as f64;
        let remote_fraction = (w - 1.0) / w;
        let mut max_frac = if cluster.is_heterogeneous() {
            // Heterogeneous fleet: under a uniform spread (one w-th of
            // the load per worker) the *slowest* worker saturates first,
            // so the sustainable rate is set by the worst per-worker
            // resource fraction. Conservative for placements that shift
            // load off slow workers, which is what we want a scenario
            // base rate to be.
            let per_cpu = total.cpu / w;
            let per_io = total.io / w;
            let per_net = total.net * remote_fraction / w;
            cluster.workers().iter().fold(0.0, |acc: f64, wk| {
                acc.max(per_cpu / wk.spec.cpu_cores)
                    .max(per_io / wk.spec.disk_bandwidth)
                    .max(per_net / wk.spec.network_bandwidth)
            })
        } else {
            let spec = cluster.workers()[0].spec;
            let cpu_frac = total.cpu / (spec.cpu_cores * w);
            let io_frac = total.io / (spec.disk_bandwidth * w);
            let net_frac = total.net * remote_fraction / (spec.network_bandwidth * w);
            cpu_frac.max(io_frac).max(net_frac)
        };
        // A task is a single thread and cannot exceed one core: the query
        // also saturates when any operator's per-task CPU demand reaches
        // one core, regardless of idle capacity elsewhere.
        for t in physical.tasks() {
            max_frac = max_frac.max(loads.load(t.id).cpu);
        }
        if max_frac <= 0.0 {
            return Err(ModelError::InvalidParameter(
                "query consumes no resources; capacity rate undefined".into(),
            ));
        }
        Ok(utilization * probe_rate / max_frac)
    }
}

/// Q1-sliding (Nexmark Q5): source → map → sliding window → sink.
///
/// Parallelism (2, 5, 8, 1) = 16 tasks; on a 4-worker, 16-slot cluster
/// this yields exactly the 80 distinct placement plans of §3.2. The
/// sliding window dominates CPU and state access.
pub fn q1_sliding() -> Query {
    let mut b = LogicalGraph::builder("Q1-sliding");
    let src = b.operator(
        "source",
        OperatorKind::Source,
        2,
        ResourceProfile::new(2e-5, 0.0, 100.0, 1.0),
    );
    let map = b.operator(
        "map",
        OperatorKind::Stateless,
        5,
        ResourceProfile::new(8e-5, 0.0, 120.0, 1.0),
    );
    let win = b.operator(
        "sliding-window",
        OperatorKind::Window,
        8,
        ResourceProfile::new(4.5e-4, 4000.0, 200.0, 0.1),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        1,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(src, map, ConnectionPattern::Rebalance);
    b.edge(map, win, ConnectionPattern::Hash);
    b.edge(win, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q1 is a valid graph");
    let mix = HashMap::from([(src, 1.0)]);
    Query::new(g, mix).expect("Q1 mix is valid")
}

/// Q2-join (Nexmark Q8): two sources, two maps, tumbling window join.
///
/// Parallelism (1, 1, 2, 4, 7, 1) = 16 tasks; 665 distinct plans on the
/// 4-worker, 16-slot cluster (§3.3). The join is both compute- and
/// I/O-intensive (§6.5 uses Q2 for exactly that reason).
pub fn q2_join() -> Query {
    let mut b = LogicalGraph::builder("Q2-join");
    let persons = b.operator(
        "persons-source",
        OperatorKind::Source,
        1,
        ResourceProfile::new(8e-6, 0.0, 150.0, 1.0),
    );
    let auctions = b.operator(
        "auctions-source",
        OperatorKind::Source,
        1,
        ResourceProfile::new(8e-6, 0.0, 180.0, 1.0),
    );
    let map_p = b.operator(
        "persons-map",
        OperatorKind::Stateless,
        2,
        ResourceProfile::new(1.5e-5, 0.0, 150.0, 1.0),
    );
    let map_a = b.operator(
        "auctions-map",
        OperatorKind::Stateless,
        4,
        ResourceProfile::new(1.5e-5, 0.0, 180.0, 1.0),
    );
    let join = b.operator(
        "tumbling-join",
        OperatorKind::Join,
        7,
        ResourceProfile::new(4e-5, 5500.0, 300.0, 0.05),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        1,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(persons, map_p, ConnectionPattern::Rebalance);
    b.edge(auctions, map_a, ConnectionPattern::Rebalance);
    b.edge(map_p, join, ConnectionPattern::Hash);
    b.edge(map_a, join, ConnectionPattern::Hash);
    b.edge(join, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q2 is a valid graph");
    let mix = HashMap::from([(persons, 0.25), (auctions, 0.75)]);
    Query::new(g, mix).expect("Q2 mix is valid")
}

/// Q3-inf: image decode → resize → model inference pipeline.
///
/// Parallelism (3, 3, 4, 5, 1) = 16 tasks; 950 distinct plans on the
/// 4-worker, 16-slot cluster (§3.3). Inference dominates CPU (with
/// periodic garbage-collection bursts); decode/resize move large image
/// records, making the pipeline network-intensive under capped NICs.
pub fn q3_inf() -> Query {
    let mut b = LogicalGraph::builder("Q3-inf");
    let src = b.operator(
        "image-source",
        OperatorKind::Source,
        3,
        ResourceProfile::new(1e-4, 0.0, 60_000.0, 1.0),
    );
    let decode = b.operator(
        "decode",
        OperatorKind::Stateless,
        3,
        ResourceProfile::new(4e-4, 0.0, 120_000.0, 1.0),
    );
    let resize = b.operator(
        "resize",
        OperatorKind::Stateless,
        4,
        ResourceProfile::new(4e-4, 0.0, 30_000.0, 1.0),
    );
    let inference = b.operator(
        "inference",
        OperatorKind::Inference,
        5,
        ResourceProfile::new(2.4e-3, 0.0, 1_000.0, 1.0).with_burst(0.3),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        1,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(src, decode, ConnectionPattern::Rebalance);
    b.edge(decode, resize, ConnectionPattern::Rebalance);
    b.edge(resize, inference, ConnectionPattern::Rebalance);
    b.edge(inference, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q3 is a valid graph");
    let mix = HashMap::from([(src, 1.0)]);
    Query::new(g, mix).expect("Q3 mix is valid")
}

/// Q4-join (Nexmark Q3): filter + incremental join.
pub fn q4_join() -> Query {
    let mut b = LogicalGraph::builder("Q4-join");
    let persons = b.operator(
        "persons-source",
        OperatorKind::Source,
        2,
        ResourceProfile::new(1e-5, 0.0, 150.0, 1.0),
    );
    let auctions = b.operator(
        "auctions-source",
        OperatorKind::Source,
        4,
        ResourceProfile::new(1e-5, 0.0, 180.0, 1.0),
    );
    let filter = b.operator(
        "filter",
        OperatorKind::Stateless,
        4,
        ResourceProfile::new(2e-5, 0.0, 180.0, 0.35),
    );
    let join = b.operator(
        "incremental-join",
        OperatorKind::Join,
        12,
        ResourceProfile::new(1.2e-4, 6000.0, 250.0, 0.1),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        2,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(persons, join, ConnectionPattern::Hash);
    b.edge(auctions, filter, ConnectionPattern::Rebalance);
    b.edge(filter, join, ConnectionPattern::Hash);
    b.edge(join, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q4 is a valid graph");
    let mix = HashMap::from([(persons, 0.3), (auctions, 0.7)]);
    Query::new(g, mix).expect("Q4 mix is valid")
}

/// Q5-aggregate (Nexmark Q6): join + windowed aggregation.
///
/// Two consecutive heavy stateful stages make placement decisive; this is
/// the query where the paper reports up to 6x throughput gains for CAPS.
pub fn q5_aggregate() -> Query {
    let mut b = LogicalGraph::builder("Q5-aggregate");
    let auctions = b.operator(
        "auctions-source",
        OperatorKind::Source,
        4,
        ResourceProfile::new(1e-5, 0.0, 180.0, 1.0),
    );
    let bids = b.operator(
        "bids-source",
        OperatorKind::Source,
        6,
        ResourceProfile::new(1e-5, 0.0, 120.0, 1.0),
    );
    let join = b.operator(
        "winning-bids-join",
        OperatorKind::Join,
        10,
        ResourceProfile::new(1.5e-4, 7000.0, 200.0, 0.2),
    );
    let agg = b.operator(
        "price-aggregate",
        OperatorKind::Process,
        8,
        ResourceProfile::new(2.5e-4, 3000.0, 100.0, 0.5),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        2,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(auctions, join, ConnectionPattern::Hash);
    b.edge(bids, join, ConnectionPattern::Hash);
    b.edge(join, agg, ConnectionPattern::Hash);
    b.edge(agg, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q5 is a valid graph");
    let mix = HashMap::from([(auctions, 0.5), (bids, 0.5)]);
    Query::new(g, mix).expect("Q5 mix is valid")
}

/// Q6-session (Nexmark Q11): session windows accumulating large state.
///
/// The session window is by far the most I/O-intensive operator of the
/// suite; disk bandwidth is the binding resource.
pub fn q6_session() -> Query {
    let mut b = LogicalGraph::builder("Q6-session");
    let bids = b.operator(
        "bids-source",
        OperatorKind::Source,
        4,
        ResourceProfile::new(1e-5, 0.0, 120.0, 1.0),
    );
    let session = b.operator(
        "session-window",
        OperatorKind::Window,
        12,
        ResourceProfile::new(8e-5, 15_000.0, 150.0, 0.05),
    );
    let sink = b.operator(
        "sink",
        OperatorKind::Sink,
        2,
        ResourceProfile::new(1e-5, 0.0, 0.0, 1.0),
    );
    b.edge(bids, session, ConnectionPattern::Hash);
    b.edge(session, sink, ConnectionPattern::Rebalance);
    let g = b.build().expect("Q6 is a valid graph");
    let mix = HashMap::from([(bids, 1.0)]);
    Query::new(g, mix).expect("Q6 mix is valid")
}

/// All six queries in paper order.
pub fn all_queries() -> Vec<Query> {
    vec![
        q1_sliding(),
        q2_join(),
        q3_inf(),
        q4_join(),
        q5_aggregate(),
        q6_session(),
    ]
}

/// Merges several queries into one multi-tenant dataflow (§6.2.2).
///
/// Operators are renamed `<query>/<operator>`; the returned mapping gives,
/// for each input query, the new [`OperatorId`] of each of its operators
/// in input order. The merged source mix is weighted by `rates` (the
/// target rate of each query), so [`Query::source_rates`] with
/// `rates.iter().sum()` reproduces the individual targets.
pub fn merge_queries(
    name: &str,
    queries: &[(&Query, f64)],
) -> Result<(Query, Vec<Vec<OperatorId>>), ModelError> {
    if queries.is_empty() {
        return Err(ModelError::InvalidParameter("no queries to merge".into()));
    }
    let total_rate: f64 = queries.iter().map(|(_, r)| r).sum();
    if total_rate <= 0.0 {
        return Err(ModelError::InvalidParameter(
            "total rate must be positive".into(),
        ));
    }
    let mut b = LogicalGraph::builder(name);
    let mut mappings = Vec::with_capacity(queries.len());
    let mut mix = HashMap::new();
    for (q, rate) in queries {
        let g = q.logical();
        let mut map = Vec::with_capacity(g.num_operators());
        for op in g.operators() {
            let id = b.operator(
                format!("{}/{}", g.name, op.name),
                op.kind,
                op.parallelism,
                op.profile,
            );
            map.push(id);
        }
        for e in g.edges() {
            b.edge(map[e.from.0], map[e.to.0], e.pattern);
        }
        for (src, frac) in q.source_mix() {
            mix.insert(map[src.0], frac * rate / total_rate);
        }
        mappings.push(map);
    }
    let merged = Query::new(b.build()?, mix)?;
    Ok((merged, mappings))
}

/// `n` tenant jobs for multi-tenant fleet experiments: cycles the six
/// paper queries, renaming instance `i` to `t<i>-<query>` so two
/// tenants running the same base query stay distinguishable in fleet
/// journals and traces (their operators keep the `<query>/<operator>`
/// names of [`merge_queries`], but each lives in its own graph).
/// `scale` multiplies every operator's parallelism (1 = the paper's
/// defaults) to grow the fleet's aggregate task count.
pub fn tenant_jobs(n: usize, scale: usize) -> Result<Vec<Query>, ModelError> {
    let base = all_queries();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let q = base[i % base.len()].scaled(scale)?;
        let (renamed, _) = merge_queries(&format!("t{i}-{}", q.name()), &[(&q, 1.0)])?;
        out.push(renamed);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_model::{count_plans, WorkerSpec};

    fn r5d_4x4() -> Cluster {
        Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4)).unwrap()
    }

    #[test]
    fn q1_has_exactly_80_plans() {
        let q = q1_sliding();
        assert_eq!(count_plans(&q.physical(), &r5d_4x4()).unwrap(), 80);
    }

    #[test]
    fn q2_has_exactly_665_plans() {
        let q = q2_join();
        assert_eq!(count_plans(&q.physical(), &r5d_4x4()).unwrap(), 665);
    }

    #[test]
    fn q3_has_exactly_950_plans() {
        let q = q3_inf();
        assert_eq!(count_plans(&q.physical(), &r5d_4x4()).unwrap(), 950);
    }

    #[test]
    fn all_queries_build_and_have_16_or_more_tasks() {
        for q in all_queries() {
            assert!(q.logical().total_tasks() >= 16, "{} too small", q.name());
            let p = q.physical();
            let lm = q.load_model(&p).unwrap();
            assert!(lm.total().cpu > 0.0);
        }
    }

    #[test]
    fn q1_capacity_rate_matches_paper_scale() {
        // The paper reports ~14k records/s for Q1 on the 4x r5d cluster.
        let rate = q1_sliding().capacity_rate(&r5d_4x4(), 0.92).unwrap();
        assert!(
            (10_000.0..18_000.0).contains(&rate),
            "Q1 capacity rate {rate} out of the paper's ballpark"
        );
    }

    #[test]
    fn heterogeneous_capacity_rate_is_bottlenecked_by_the_slow_worker() {
        use capsys_model::HardwareProfile;
        let base = WorkerSpec::r5d_xlarge(4);
        let uniform = q1_sliding().capacity_rate(&r5d_4x4(), 0.92).unwrap();
        // One slow-CPU worker drags the sustainable rate down; one
        // fast-CPU worker cannot raise it above the uniform-spread
        // bottleneck of the remaining baseline workers.
        let slow = Cluster::heterogeneous(vec![
            base,
            base,
            base,
            HardwareProfile::slow_cpu().apply(base),
        ])
        .unwrap();
        let slow_rate = q1_sliding().capacity_rate(&slow, 0.92).unwrap();
        assert!(
            slow_rate < uniform,
            "slow worker must lower capacity: {slow_rate} vs {uniform}"
        );
        let fast = Cluster::heterogeneous(vec![
            base,
            base,
            base,
            HardwareProfile::fast_cpu().apply(base),
        ])
        .unwrap();
        let fast_rate = q1_sliding().capacity_rate(&fast, 0.92).unwrap();
        assert!(
            fast_rate <= uniform + 1e-9,
            "uniform spread cannot exceed the baseline bottleneck: {fast_rate} vs {uniform}"
        );
        assert!(fast_rate > 0.0);
    }

    #[test]
    fn q2_capacity_rate_matches_paper_scale() {
        // The paper reports ~110k records/s for Q2.
        let rate = q2_join().capacity_rate(&r5d_4x4(), 0.92).unwrap();
        assert!(
            (80_000.0..140_000.0).contains(&rate),
            "Q2 capacity rate {rate} out of the paper's ballpark"
        );
    }

    #[test]
    fn q3_capacity_rate_matches_paper_scale() {
        // Fig. 3a/3c report throughputs in the 1.2k-2.5k records/s range.
        let rate = q3_inf().capacity_rate(&r5d_4x4(), 0.92).unwrap();
        assert!(
            (1_200.0..3_500.0).contains(&rate),
            "Q3 capacity rate {rate} out of the paper's ballpark"
        );
    }

    #[test]
    fn source_rates_follow_mix() {
        let q = q2_join();
        let rates = q.source_rates(100_000.0);
        let persons = q.logical().operator_by_name("persons-source").unwrap();
        let auctions = q.logical().operator_by_name("auctions-source").unwrap();
        assert!((rates[&persons] - 25_000.0).abs() < 1e-6);
        assert!((rates[&auctions] - 75_000.0).abs() < 1e-6);
    }

    #[test]
    fn schedules_match_source_rates() {
        let q = q2_join();
        let sch = q.schedules(10_000.0);
        for (op, rate) in q.source_rates(10_000.0) {
            assert_eq!(sch[&op].rate_at(0.0), rate);
        }
        let shaped = q.schedules_from(&RateSchedule::SquareWave {
            high: 1000.0,
            low: 500.0,
            period_sec: 60.0,
        });
        let persons = q.logical().operator_by_name("persons-source").unwrap();
        assert_eq!(shaped[&persons].rate_at(0.0), 250.0);
    }

    #[test]
    fn scaled_multiplies_parallelism() {
        let q = q1_sliding().scaled(2).unwrap();
        assert_eq!(q.logical().parallelism_vector(), vec![4, 10, 16, 2]);
        assert_eq!(q.logical().total_tasks(), 32);
    }

    #[test]
    fn with_parallelism_keeps_mix() {
        let q = q1_sliding().with_parallelism(&[1, 2, 3, 1]).unwrap();
        assert_eq!(q.logical().total_tasks(), 7);
        assert_eq!(q.source_mix().len(), 1);
    }

    #[test]
    fn invalid_mix_is_rejected() {
        let g = q1_sliding().logical.clone();
        assert!(Query::new(g.clone(), HashMap::new()).is_err());
        let src = g.sources()[0];
        let bad = HashMap::from([(src, 0.5)]);
        assert!(Query::new(g, bad).is_err());
    }

    #[test]
    fn merged_queries_preserve_structure() {
        let q1 = q1_sliding();
        let q3 = q3_inf();
        let (merged, maps) = merge_queries("tenant", &[(&q1, 14_000.0), (&q3, 2_000.0)]).unwrap();
        assert_eq!(
            merged.logical().total_tasks(),
            q1.logical().total_tasks() + q3.logical().total_tasks()
        );
        assert_eq!(maps.len(), 2);
        // Per-query rates recoverable from the merged mix.
        let rates = merged.source_rates(16_000.0);
        let q1_src = maps[0][q1.logical().sources()[0].0];
        assert!((rates[&q1_src] - 14_000.0).abs() < 1e-6);
        // Edges preserved: merged edge count equals the sum.
        assert_eq!(
            merged.logical().edges().len(),
            q1.logical().edges().len() + q3.logical().edges().len()
        );
    }

    #[test]
    fn merge_rejects_degenerate_input() {
        assert!(merge_queries("x", &[]).is_err());
        let q = q1_sliding();
        assert!(merge_queries("x", &[(&q, 0.0)]).is_err());
    }

    #[test]
    fn q6_is_io_dominated() {
        let q = q6_session();
        let p = q.physical();
        let lm = q.load_model(&p).unwrap();
        let total = lm.total();
        let spec = WorkerSpec::m5d_2xlarge(8);
        // Normalized demand: io dominates cpu.
        assert!(
            total.io / spec.disk_bandwidth > total.cpu / spec.cpu_cores,
            "Q6 should be disk-bound"
        );
    }

    #[test]
    fn q3_inference_has_bursts() {
        let q = q3_inf();
        let inf = q.logical().operator_by_name("inference").unwrap();
        assert!(q.logical().operator(inf).profile.cpu_burst_amplitude > 0.0);
    }

    #[test]
    fn tenant_jobs_cycle_rename_and_scale() {
        let jobs = tenant_jobs(8, 2).unwrap();
        assert_eq!(jobs.len(), 8);
        assert_eq!(jobs[0].name(), "t0-Q1-sliding");
        // The cycle wraps: tenant 6 reuses Q1 under a distinct name.
        assert_eq!(jobs[6].name(), "t6-Q1-sliding");
        assert_eq!(
            jobs[0].logical().total_tasks(),
            2 * q1_sliding().logical().total_tasks()
        );
        // Two tenants of the same base query can still be merged into
        // one fleet-wide graph without operator-name collisions.
        let (merged, maps) = merge_queries("fleet", &[(&jobs[0], 1.0), (&jobs[6], 1.0)]).unwrap();
        assert_eq!(maps.len(), 2);
        assert_eq!(
            merged.logical().total_tasks(),
            jobs[0].logical().total_tasks() + jobs[6].logical().total_tasks()
        );
        assert!(tenant_jobs(2, 0).is_err(), "zero scale must be rejected");
    }
}
