//! Per-layer measurement for the traced run.
//!
//! [`Layers`] accumulates time and work per layer. [`TracedCaps`] is CAPS
//! placement spelled out as its public layer calls — `CapsSearch::new`,
//! `AutoTuner::tune`, `CapsSearch::run_with_thresholds`, the calls
//! `CapsStrategy::place` makes, in its order — so the traced run times
//! each one and still decides exactly what the untraced run decides.
//! [`Timed`] times any other strategy. [`probe`] times single layer
//! functions on a workload's own deployments, so those numbers exist on
//! every workload, including the ones whose timed loop bypasses the
//! layer.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use capsys_controller::controller::true_rate_from_profile;
use capsys_controller::journal::parse_journal;
use capsys_controller::{DecisionJournal, DecisionRecord};
use capsys_core::{AutoTuner, CapsError, CapsSearch, CostModel, ScoredPlan, SearchConfig};
use capsys_ds2::{Ds2Config, Ds2Controller};
use capsys_model::{Cluster, Placement};
use capsys_placement::{PlacementContext, PlacementError, PlacementStrategy, SearchDescriptor};
use capsys_queries::Query;
use capsys_sim::{SimConfig, Simulation};
use capsys_util::rng::{SeedableRng, SmallRng};

use crate::{Metric, Res};

/// Time and work accumulated per layer during one traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    tune: Cell<Duration>,
    tune_probes: Cell<u64>,
    search: Cell<Duration>,
    nodes: Cell<u64>,
    pruned: Cell<u64>,
    placement: Cell<Duration>,
    placement_calls: Cell<u64>,
}

fn add(cell: &Cell<Duration>, d: Duration) {
    cell.set(cell.get() + d);
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

impl Layers {
    /// Places `ctx` with CAPS, layer by layer: builds the search
    /// instance and searches (both timed as search), auto-tuning first
    /// when `config` has no thresholds (timed as tuning); the whole is
    /// timed as one placement call. Returns the recommended plan with
    /// the search's own cost vector.
    pub fn caps(
        &self,
        ctx: &PlacementContext<'_>,
        config: &SearchConfig,
    ) -> Result<ScoredPlan, PlacementError> {
        let t = Instant::now();
        let best = self.caps_layers(ctx, config);
        self.placed(t.elapsed());
        best
    }

    fn caps_layers(
        &self,
        ctx: &PlacementContext<'_>,
        config: &SearchConfig,
    ) -> Result<ScoredPlan, PlacementError> {
        let t = Instant::now();
        let search = CapsSearch::new(ctx.logical, ctx.physical, ctx.cluster, ctx.loads);
        add(&self.search, t.elapsed());
        let search = search?;
        let thresholds = match config.thresholds {
            Some(th) => th,
            None => {
                let t = Instant::now();
                let report = AutoTuner::new(&config.auto_tune).tune(&search, config);
                add(&self.tune, t.elapsed());
                let report = report?;
                bump(&self.tune_probes, report.iterations as u64);
                report.thresholds
            }
        };
        let t = Instant::now();
        let outcome = search.run_with_thresholds(&thresholds, config);
        add(&self.search, t.elapsed());
        let outcome = outcome?;
        bump(&self.nodes, outcome.stats.nodes as u64);
        bump(&self.pruned, outcome.stats.pruned as u64);
        match outcome.best_scored() {
            Some(best) => Ok(best.clone()),
            None if outcome.stats.aborted => Err(CapsError::BudgetExhausted.into()),
            None => Err(CapsError::NoFeasiblePlan.into()),
        }
    }

    /// Records one call of a placement strategy.
    pub fn placed(&self, d: Duration) {
        add(&self.placement, d);
        bump(&self.placement_calls, 1);
    }

    /// Seconds spent inside placement-strategy calls.
    pub fn placement_s(&self) -> f64 {
        self.placement.get().as_secs_f64()
    }

    /// Fills the core and placement fields of `report`, as shares of
    /// `timed_s`, the wall time of the pass's timed calls.
    pub fn fill(&self, report: &mut LayerReport, timed_s: f64) {
        let tune = self.tune.get().as_secs_f64();
        let search = self.search.get().as_secs_f64();
        report.core_share = (tune + search) / timed_s;
        report.core_tune_frac = tune / timed_s;
        report.core_search_frac = search / timed_s;
        report.core_tune_probes = self.tune_probes.get() as f64;
        report.core_nodes = self.nodes.get() as f64;
        report.core_pruned = self.pruned.get() as f64;
        report.core_nodes_per_s = if search > 0.0 {
            self.nodes.get() as f64 / search
        } else {
            0.0
        };
        report.placement_calls = self.placement_calls.get() as f64;
        report.placement_share = self.placement_s() / timed_s;
    }
}

/// CAPS as a placement strategy, timed layer by layer.
pub struct TracedCaps {
    /// The search configuration, as `CapsStrategy` would hold it.
    pub config: SearchConfig,
    /// Where the timings go.
    pub layers: Rc<Layers>,
}

impl PlacementStrategy for TracedCaps {
    fn name(&self) -> &'static str {
        "caps"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        _rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        self.layers.caps(ctx, &self.config).map(|best| best.plan)
    }

    fn search_descriptor(&self) -> Option<SearchDescriptor> {
        Some(SearchDescriptor::of(&self.config))
    }
}

/// Any placement strategy with its calls timed.
pub struct Timed<S> {
    /// The strategy that decides.
    pub inner: S,
    /// Where the timings go.
    pub layers: Rc<Layers>,
}

impl<S: PlacementStrategy> PlacementStrategy for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        rng: &mut SmallRng,
    ) -> Result<Placement, PlacementError> {
        let t = Instant::now();
        let plan = self.inner.place(ctx, rng);
        self.layers.placed(t.elapsed());
        plan
    }

    fn search_descriptor(&self) -> Option<SearchDescriptor> {
        self.inner.search_descriptor()
    }
}

/// Every per-layer metric, in print order. A layer a workload's timed
/// loop bypasses reads 0 in its shares and counts; the probe metrics
/// are measured on every workload's own deployments.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// CAPS tuning plus search, share of the timed wall time.
    pub core_share: f64,
    /// CAPS auto-tuning, share of the timed wall time.
    pub core_tune_frac: f64,
    /// CAPS search (instance build included), share of the timed wall time.
    pub core_search_frac: f64,
    /// Auto-tuner feasibility probes (searches plus cache hits).
    pub core_tune_probes: f64,
    /// Search-tree nodes visited by the final searches.
    pub core_nodes: f64,
    /// Branches the final searches pruned.
    pub core_pruned: f64,
    /// Search nodes per second of search time.
    pub core_nodes_per_s: f64,
    /// Placement-strategy calls.
    pub placement_calls: f64,
    /// Placement-strategy calls, share of the timed wall time.
    pub placement_share: f64,
    /// Calls that advance simulated time (loop and fleet steps) minus
    /// the placement calls made inside them, share of the timed wall
    /// time: a residual holding the simulator and everything else a step
    /// does — leases, arbiter, journal, guard, shedding.
    pub step_share: f64,
    /// Rebuilding a controller from its journal, share of recovery time.
    pub recover_build_frac: f64,
    /// Stepping a rebuilt controller to its kill time, share of
    /// recovery time.
    pub replay_frac: f64,
    /// Simulated seconds replayed per wall second of replay.
    pub replay_sim_s_per_wall_s: f64,
    /// Standby takeovers in one fleet pass.
    pub fleet_takeovers: f64,
    /// Mean takeover-window time over mean steady-window time.
    pub fleet_takeover_step_ratio: f64,
    /// Traced pass wall time over the median untraced pass, minus one.
    pub trace_overhead_frac: f64,
    /// The [`probe`] metrics.
    pub probes: Vec<Metric>,
}

impl LayerReport {
    /// The metrics, in print order.
    pub fn metrics(self) -> Vec<Metric> {
        let mut m = vec![
            ("core.share", self.core_share, "frac"),
            ("core.tune_frac", self.core_tune_frac, "frac"),
            ("core.search_frac", self.core_search_frac, "frac"),
            ("core.tune_probes", self.core_tune_probes, "count"),
            ("core.nodes", self.core_nodes, "count"),
            ("core.pruned", self.core_pruned, "count"),
            ("core.nodes_per_s", self.core_nodes_per_s, "1/s"),
            ("placement.calls", self.placement_calls, "count"),
            ("placement.share", self.placement_share, "frac"),
            ("step.share", self.step_share, "frac"),
            (
                "controller.recover_build_frac",
                self.recover_build_frac,
                "frac",
            ),
            ("controller.replay_frac", self.replay_frac, "frac"),
            (
                "controller.replay_sim_s_per_wall_s",
                self.replay_sim_s_per_wall_s,
                "x",
            ),
            ("controller.fleet.takeovers", self.fleet_takeovers, "count"),
            (
                "controller.fleet.takeover_step_ratio",
                self.fleet_takeover_step_ratio,
                "x",
            ),
            ("trace.overhead_frac", self.trace_overhead_frac, "frac"),
        ];
        m.extend(self.probes);
        m
    }
}

/// One deployed plan, as the probes consume it: the query at its
/// deployed parallelism and profiles, its cluster, its plan, and the
/// aggregate input rate it was sized for.
pub struct Deployed {
    /// The query at its deployed parallelism.
    pub query: Query,
    /// The cluster it runs on.
    pub cluster: Cluster,
    /// The placement plan.
    pub placement: Placement,
    /// Aggregate input rate, records/s.
    pub rate: f64,
}

/// Repetitions of each cheap probe call per deployment.
const REPS: u32 = 100;
/// Extra repetitions of the cost evaluation, which takes about a microsecond.
const COST_REPS: u32 = 20;
/// Simulated seconds the simulator probe advances each deployment.
const SIM_SECONDS: f64 = 60.0;
/// Deployments probed at most, evenly spaced over the workload's.
const MAX_PROBED: usize = 24;
/// Parses of each journal text.
const PARSE_REPS: u32 = 5;

/// Times single layer functions on `deployed` (DS2, the load model, the
/// cost model, the simulator) and on the workload's `journals`.
pub fn probe(deployed: &[Deployed], journals: &[String]) -> Res<Vec<Metric>> {
    if deployed.is_empty() {
        return Err("no deployments to probe".into());
    }
    let picked: Vec<&Deployed> = deployed
        .iter()
        .step_by(deployed.len().div_ceil(MAX_PROBED))
        .collect();
    let ds2 = Ds2Controller::new(Ds2Config::default());
    let (mut ds2_t, mut model_t, mut cost_t, mut new_t, mut advance_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut task_ticks = 0.0;
    for d in &picked {
        let parallelism = d.query.logical().parallelism_vector();
        let t = Instant::now();
        for _ in 0..REPS {
            let q = d.query.with_parallelism(black_box(&parallelism))?;
            let physical = q.physical();
            black_box(q.load_model_at(&physical, d.rate)?);
        }
        model_t += t.elapsed();

        let physical = d.query.physical();
        let rates: Vec<f64> = d
            .query
            .logical()
            .operators()
            .iter()
            .map(|o| true_rate_from_profile(&o.profile))
            .collect();
        let targets = d.query.source_rates(d.rate);
        let t = Instant::now();
        for _ in 0..REPS {
            black_box(ds2.decide_from_op_rates(
                d.query.logical(),
                &physical,
                black_box(&rates),
                &targets,
            )?);
        }
        ds2_t += t.elapsed();

        let loads = d.query.load_model_at(&physical, d.rate)?;
        let model = CostModel::new(&physical, &d.cluster, &loads)?;
        let t = Instant::now();
        for _ in 0..REPS * COST_REPS {
            black_box(model.cost(&physical, black_box(&d.placement)));
        }
        cost_t += t.elapsed();

        let config = SimConfig {
            duration: SIM_SECONDS,
            warmup: 0.0,
            ..SimConfig::default()
        };
        let tick = config.tick;
        let t = Instant::now();
        let mut sim = Simulation::new(
            d.query.logical(),
            &physical,
            &d.cluster,
            &d.placement,
            &d.query.schedules(d.rate),
            config,
        )?;
        new_t += t.elapsed();
        let t = Instant::now();
        black_box(sim.advance(SIM_SECONDS, 0.0));
        advance_t += t.elapsed();
        task_ticks += physical.num_tasks() as f64 * (SIM_SECONDS / tick).round();
    }
    let n = picked.len() as f64;
    let calls = n * f64::from(REPS);
    let mut metrics = vec![
        ("ds2.decide_us", ds2_t.as_secs_f64() * 1e6 / calls, "us"),
        (
            "model.load_model_us",
            model_t.as_secs_f64() * 1e6 / calls,
            "us",
        ),
        (
            "core.cost_eval_ns",
            cost_t.as_secs_f64() * 1e9 / (calls * f64::from(COST_REPS)),
            "ns",
        ),
        ("sim.new_ms", new_t.as_secs_f64() * 1e3 / n, "ms"),
        (
            "sim.task_ticks_per_s",
            task_ticks / advance_t.as_secs_f64(),
            "1/s",
        ),
    ];
    metrics.extend(journal_probe(journals)?);
    Ok(metrics)
}

/// Times parsing each journal text and re-appending its records to a
/// fresh in-memory journal.
fn journal_probe(journals: &[String]) -> Res<Vec<Metric>> {
    let (mut parse_t, mut append_t) = (Duration::ZERO, Duration::ZERO);
    let (mut records, mut bytes) = (0usize, 0usize);
    for text in journals {
        let t = Instant::now();
        for _ in 1..PARSE_REPS {
            black_box(parse_journal(black_box(text))?);
        }
        let parsed = parse_journal(text)?;
        parse_t += t.elapsed();
        let (mut journal, _buf) = DecisionJournal::in_memory();
        let t = Instant::now();
        for rec in &parsed.records {
            journal.append(rec)?;
        }
        append_t += t.elapsed();
        records += parsed.records.len();
        bytes += text.len();
    }
    if records == 0 {
        return Err("no journal records to probe".into());
    }
    let parses = (journals.len() as u32 * PARSE_REPS) as f64;
    Ok(vec![
        (
            "controller.journal.append_us",
            append_t.as_secs_f64() * 1e6 / records as f64,
            "us",
        ),
        (
            "controller.journal.bytes_per_record",
            bytes as f64 / records as f64,
            "B",
        ),
        (
            "controller.journal.parse_ms",
            parse_t.as_secs_f64() * 1e3 / parses,
            "ms",
        ),
    ])
}

/// The journal a controller writes for `deployed` as fresh deployments:
/// one `Init` record each.
pub fn init_journal(deployed: &[Deployed]) -> Res<String> {
    let (mut journal, buf) = DecisionJournal::in_memory();
    for d in deployed {
        journal.append(&DecisionRecord::Init {
            seed: 0,
            query: d.query.name().to_string(),
            workers: d.cluster.num_workers(),
            parallelism: d.query.logical().parallelism_vector(),
            assignment: d.placement.assignment().iter().map(|w| w.0).collect(),
            rng: SmallRng::seed_from_u64(0).state(),
        })?;
    }
    Ok(buf.text())
}
