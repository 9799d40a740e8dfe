//! `place`: a stream of job-deployment requests, each one call to
//! `CapsysController::plan_with_profiles` — DS2 sizes the job from its
//! profiled unit costs, the model layer derives its loads, and CAPS
//! auto-tunes its thresholds and searches a placement. Profiles come
//! from `profile_query` during set-up, as in §5.1. The simulator is
//! never stepped.
//!
//! The request set is fixed: every query at each scale, on each worker
//! shape, at each target utilization and slot fill. The seed only
//! shuffles the order the requests arrive in, so every seed plans the
//! same jobs and prints the same digest and plan cost.

use std::time::Instant;

use capsys_controller::controller::true_rate_from_profile;
use capsys_controller::profiler::apply_profiles;
use capsys_controller::{profile_query, CapsysController, ProfileReport};
use capsys_core::{CostModel, CostVector};
use capsys_ds2::{Ds2Controller, ScalingDecision};
use capsys_model::{Cluster, LoadModel, PhysicalGraph, Placement, WorkerSpec};
use capsys_placement::PlacementContext;
use capsys_queries::{all_queries, Query};
use capsys_util::rng::{SeedableRng, SliceRandom, SmallRng};

use crate::layers::{init_journal, probe, Deployed, LayerReport, Layers};
use crate::stats::Digest;
use crate::{
    best_of, end_to_end, median_pass_seconds, more, pass_seconds, pct_or_nan, secs, Args, Metric,
    Report, Res, Tally,
};

/// Parallelism multipliers of the request set. DS2 re-sizes every job
/// from its rate, so the slowest request searches for about 0.3 s on a
/// 2-vCPU x86-64 VM: far below the auto-tuner's 5 s timeout, so plans
/// never depend on wall-clock time.
const SCALES: [usize; 4] = [1, 2, 3, 4];
/// A worker family: its spec for a slot count.
type Family = fn(usize) -> WorkerSpec;
/// Worker families and slots per worker.
const SHAPES: [(Family, usize); 3] = [
    (WorkerSpec::m5d_2xlarge, 8),
    (WorkerSpec::r5d_xlarge, 4),
    (WorkerSpec::c5d_4xlarge, 8),
];
/// Target utilization of the reference cluster the input rate is sized on.
const UTILS: [f64; 2] = [0.5, 0.8];
/// Planned tasks over slots of the cluster a request deploys to.
const FILLS: [f64; 2] = [0.6, 0.95];

/// A query at one scale with its measured profile.
struct Job {
    query: Query,
    profile: ProfileReport,
}

/// One job a user asks to deploy.
struct Request {
    job: usize,
    cluster: Cluster,
    /// Aggregate target input rate, records/s.
    rate: f64,
}

struct World {
    controller: CapsysController,
    jobs: Vec<Job>,
    requests: Vec<Request>,
    /// Arrival order of the requests.
    order: Vec<usize>,
}

/// What was decided for one request: the plan and its from-scratch cost.
#[derive(Debug, Clone, PartialEq)]
struct Decided {
    parallelism: Vec<usize>,
    assignment: Vec<usize>,
    cost: CostVector,
    /// Per-dimension pressure, for the pressure-weighted plan cost.
    pressure: [f64; 3],
}

impl Decided {
    /// Costs `placement` from scratch.
    fn new(
        physical: &PhysicalGraph,
        loads: &LoadModel,
        cluster: &Cluster,
        parallelism: Vec<usize>,
        placement: &Placement,
    ) -> Res<Decided> {
        let model = CostModel::new(physical, cluster, loads)?;
        Ok(Decided {
            parallelism,
            assignment: placement.assignment().iter().map(|w| w.0).collect(),
            cost: model.cost(physical, placement),
            pressure: model.pressure(),
        })
    }

    /// The plan's cost with each dimension weighted by its pressure
    /// relative to the most pressed one — the key CAPS ranks plans by.
    fn weighted_cost(&self) -> f64 {
        let max_p = self
            .pressure
            .iter()
            .cloned()
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let c = [self.cost.cpu, self.cost.io, self.cost.net];
        (0..3)
            .map(|d| c[d] * self.pressure[d] / max_p)
            .fold(0.0, f64::max)
    }
}

/// DS2's decision for `job` at `rate` from the measured profiles: the
/// first step of `plan_with_profiles`, through public calls. Returns
/// the query with measured profiles and the decision.
fn ds2_step(world: &World, job: &Job, rate: f64) -> Res<(Query, ScalingDecision)> {
    let measured = apply_profiles(job.query.logical(), &job.profile.profiles);
    let measured = Query::new(measured, job.query.source_mix().clone())?;
    let rates: Vec<f64> = measured
        .logical()
        .operators()
        .iter()
        .map(|o| true_rate_from_profile(&o.profile))
        .collect();
    let decision = Ds2Controller::new(world.controller.config.ds2.clone()).decide_from_op_rates(
        measured.logical(),
        &measured.physical(),
        &rates,
        &measured.source_rates(rate),
    )?;
    Ok((measured, decision))
}

fn setup(seed: u64) -> Res<World> {
    let mut world = World {
        controller: CapsysController::default(),
        jobs: Vec::new(),
        requests: Vec::new(),
        order: Vec::new(),
    };
    for base in all_queries() {
        for scale in SCALES {
            let query = base.scaled(scale)?;
            let profile = profile_query(&query, &world.controller.config.profiler)?;
            let job = Job { query, profile };
            for (family, slots) in SHAPES {
                // The rate is sized on a cluster that just fits the
                // query's default parallelism; DS2 then picks the task
                // count, and the request's cluster is sized to the fill.
                let tasks = job.query.logical().total_tasks();
                let reference = Cluster::homogeneous(tasks.div_ceil(slots), family(slots))?;
                for util in UTILS {
                    let rate = job.query.capacity_rate(&reference, util)?;
                    let planned = ds2_step(&world, &job, rate)?.1.total_tasks();
                    for fill in FILLS {
                        let workers = (planned as f64 / (slots as f64 * fill)).ceil() as usize;
                        world.requests.push(Request {
                            job: world.jobs.len(),
                            cluster: Cluster::homogeneous(workers.max(1), family(slots))?,
                            rate,
                        });
                    }
                }
            }
            world.jobs.push(job);
        }
    }
    world.order = (0..world.requests.len()).collect();
    world.order.shuffle(&mut SmallRng::seed_from_u64(seed));
    Ok(world)
}

/// `plan_with_profiles` spelled out as its public layer calls: DS2,
/// the capacity check and load model, then CAPS through `layers`.
/// Returns the deployment, its decision record, and the search's own
/// cost of the plan.
fn plan_by_layers(
    world: &World,
    req: &Request,
    layers: &Layers,
) -> Res<(Deployed, Decided, CostVector)> {
    let (measured, decision) = ds2_step(world, &world.jobs[req.job], req.rate)?;
    req.cluster.check_capacity(decision.total_tasks())?;
    let scaled = measured.with_parallelism(&decision.parallelism)?;
    let physical = scaled.physical();
    let loads = scaled.load_model_at(&physical, req.rate)?;
    let ctx = PlacementContext {
        logical: scaled.logical(),
        physical: &physical,
        cluster: &req.cluster,
        loads: &loads,
    };
    let best = layers.caps(&ctx, &world.controller.config.search)?;
    let decided = Decided::new(
        &physical,
        &loads,
        &req.cluster,
        decision.parallelism,
        &best.plan,
    )?;
    let deployed = Deployed {
        query: scaled,
        cluster: req.cluster.clone(),
        placement: best.plan,
        rate: req.rate,
    };
    Ok((deployed, decided, best.cost))
}

/// Decisions in request order; a failed request holds its error.
type Decisions = Vec<Result<Decided, String>>;

/// One pass over every request in arrival order. Returns each request's
/// latency (ms, arrival order) and decision (request order). With
/// `layers`, requests run layer by layer, timed per layer.
fn pass(world: &World, layers: Option<&Layers>) -> (Vec<f64>, Decisions) {
    let mut ms = Vec::with_capacity(world.requests.len());
    let mut decisions: Decisions = vec![Err("not planned".into()); world.requests.len()];
    for &i in &world.order {
        let req = &world.requests[i];
        let job = &world.jobs[req.job];
        let t = Instant::now();
        let decision = match layers {
            None => world
                .controller
                .plan_with_profiles(&job.query, &req.cluster, req.rate, job.profile.clone())
                .map_err(|e| e.into())
                .and_then(|dep| {
                    ms.push(t.elapsed().as_secs_f64() * 1e3);
                    Decided::new(
                        &dep.physical,
                        &dep.loads,
                        &req.cluster,
                        dep.logical.parallelism_vector(),
                        &dep.placement,
                    )
                }),
            Some(layers) => plan_by_layers(world, req, layers).map(|(_, decided, _)| {
                ms.push(t.elapsed().as_secs_f64() * 1e3);
                decided
            }),
        };
        decisions[i] = decision.map_err(|e| e.to_string());
    }
    (ms, decisions)
}

/// The correctness gate of the first pass: every request planned, every
/// plan valid, identical to the layer-by-layer pipeline's, and its cost
/// equal bit for bit to the search's own. Returns the deployments.
fn verify(world: &World, decisions: &Decisions, tally: &mut Tally) -> Vec<Deployed> {
    let layers = Layers::default();
    let mut deployed = Vec::with_capacity(decisions.len());
    for (i, (req, decision)) in world.requests.iter().zip(decisions).enumerate() {
        let decided = match decision {
            Ok(d) => d,
            Err(e) => {
                tally.check(false, || format!("request {i}: {e}"));
                continue;
            }
        };
        match plan_by_layers(world, req, &layers) {
            Ok((dep, by_layers, search_cost)) => {
                tally.check(
                    dep.placement
                        .validate(&dep.query.physical(), &req.cluster)
                        .is_ok(),
                    || format!("request {i}: invalid plan"),
                );
                tally.check(by_layers == *decided, || {
                    format!("request {i}: layer-by-layer pipeline planned differently")
                });
                let bits = |c: &CostVector| [c.cpu.to_bits(), c.io.to_bits(), c.net.to_bits()];
                tally.check(bits(&search_cost) == bits(&decided.cost), || {
                    format!(
                        "request {i}: search cost {search_cost:?} != recomputed {:?}",
                        decided.cost
                    )
                });
                deployed.push(dep);
            }
            Err(e) => tally.check(false, || format!("request {i}: layer-by-layer: {e}")),
        }
    }
    deployed
}

fn digest(decisions: &Decisions) -> u64 {
    let mut d = Digest::default();
    for decision in decisions {
        match decision {
            Ok(x) => {
                d.usizes(&x.parallelism).usizes(&x.assignment);
                d.f64(x.cost.cpu).f64(x.cost.io).f64(x.cost.net);
            }
            Err(e) => {
                d.str(e);
            }
        }
    }
    d.value()
}

/// Mean pressure-weighted cost of the planned requests.
fn plan_cost(decisions: &Decisions) -> f64 {
    let costs: Vec<f64> = decisions
        .iter()
        .flatten()
        .map(Decided::weighted_cost)
        .collect();
    costs.iter().sum::<f64>() / costs.len().max(1) as f64
}

pub fn run(args: &Args, started: Instant) -> Res<Report> {
    let mut tally = Tally::default();
    let (mut setup_s, mut passes) = (Vec::new(), Vec::new());
    let mut first: Option<(World, Decisions)> = None;
    let mut deployed = Vec::new();
    loop {
        let t = if passes.is_empty() {
            started
        } else {
            Instant::now()
        };
        let world = setup(args.seed)?;
        setup_s.push(secs(t));
        let (ms, decisions) = pass(&world, None);
        tally.ops(ms.len());
        passes.push(ms);
        match &first {
            None => {
                deployed = verify(&world, &decisions, &mut tally);
                first = Some((world, decisions));
            }
            Some((_, f)) => tally.check(decisions == *f, || {
                "a later pass planned differently".into()
            }),
        }
        if !more(&passes, args.seconds)? {
            break;
        }
    }
    let (world, decisions) = first.expect("at least one pass ran");
    let best = best_of(&passes)?;
    let cost = plan_cost(&decisions);
    let summary: Vec<Metric> = vec![
        ("requests", world.requests.len() as f64, "count"),
        ("passes", passes.len() as f64, "count"),
        ("plan_cost", cost, "frac"),
        ("place_ms_p50", pct_or_nan(&best, 50), "ms"),
        ("place_ms_p90", pct_or_nan(&best, 90), "ms"),
        (
            "place_ms_max",
            best.iter().cloned().fold(0.0, f64::max),
            "ms",
        ),
    ];
    let metrics = if args.trace {
        let layers = Layers::default();
        let (ms, traced) = pass(&world, Some(&layers));
        tally.check(traced == decisions, || {
            "the traced pass planned differently".into()
        });
        let timed_s = pass_seconds(&ms);
        let mut report = LayerReport::default();
        layers.fill(&mut report, timed_s);
        report.trace_overhead_frac = timed_s / median_pass_seconds(&passes) - 1.0;
        report.probes = probe(&deployed, &[init_journal(&deployed)?])?;
        report.metrics()
    } else {
        end_to_end(&setup_s, &passes, 1.0 - cost)?
    };
    Ok(Report {
        tally,
        digest: digest(&decisions),
        summary,
        metrics,
    })
}
