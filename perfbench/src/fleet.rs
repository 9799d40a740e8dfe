//! `fleet`: the `exp_fleet` full-mode fleet — 12 tenants (1,124 tasks)
//! on 156 heterogeneous workers, placed by `FlinkDefault`, with one
//! shard controller killed mid-reconfiguration, another partitioned past
//! its lease, and the arbiter killed and rebuilt from its log. A pass
//! builds the fleet (untimed) and steps it with
//! `FleetController::step_window`, one timed call per control window.
//! No CAPS search runs: the simulator, leases and the arbiter do the
//! work.
//!
//! The fleet is one fixed scenario; the seed only orders the offline
//! replay checks, so every run plans the same fleet and prints the same
//! digest and goodput.

use std::rc::Rc;
use std::time::Instant;

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    replay_shard, Arbiter, ArbiterConfig, DecisionRecord, FleetConfig, FleetController,
    FleetOutcome, FleetWorld, JobSpec, RecoveryConfig,
};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::{FlinkDefault, PlacementContext, PlacementStrategy};
use capsys_sim::{DeciderFault, DeciderFaultKind, DeciderTarget, FaultPlan, KillPoint, SimConfig};
use capsys_util::journal::SharedBuf;
use capsys_util::rng::{SeedableRng, SliceRandom, SmallRng};

use crate::layers::{probe, Deployed, LayerReport, Layers, Timed};
use crate::stats::Digest;
use crate::{
    best_of, end_to_end, median_pass_seconds, more, pass_seconds, pct_or_nan, secs, Args, Metric,
    Report, Res, Tally,
};

const WORKERS: usize = 156;
const TENANTS: usize = 12;
/// Parallelism multiplier on every tenant query.
const SCALE: usize = 5;
/// Workers each tenant requests at admission.
const REQUESTED: usize = 24;
const WINDOW: f64 = 5.0;
const LEASE: f64 = 12.0;
/// Partition of shard 1's controller, long enough to lose its lease.
const PARTITION: (f64, f64) = (60.0, 85.0);
const ARBITER_KILL_AT: f64 = 45.0;
/// Simulated horizon of one pass: 300 control windows.
const HORIZON: f64 = 1500.0;
/// First tenant seed; tenant `i` uses `TENANT_SEED + i`.
const TENANT_SEED: u64 = 7;
/// Shard 0 is killed between the `Prepare` and `Commit` of this epoch:
/// its first scaling reconfiguration, the first epoch a fresh
/// controller burns.
const KILL_EPOCH: u64 = 1;

fn global_cluster() -> Res<Cluster> {
    let specs = (0..WORKERS)
        .map(|i| match i % 3 {
            0 => WorkerSpec::m5d_2xlarge(8),
            1 => WorkerSpec::r5d_xlarge(8),
            _ => WorkerSpec::c5d_4xlarge(8),
        })
        .collect();
    Ok(Cluster::heterogeneous(specs)?)
}

/// Tenant jobs as `exp_fleet` builds them: tenant 0 undersized so DS2
/// must scale it, and a final greedy tenant admission must reject.
fn make_jobs() -> Res<Vec<JobSpec>> {
    let tenants = capsys_queries::tenant_jobs(TENANTS, SCALE)?;
    let reference = Cluster::homogeneous(REQUESTED, WorkerSpec::m5d_2xlarge(8))?;
    // Zero search budget: recovery descends to round-robin
    // deterministically, independent of wall-clock speed.
    let recovery = RecoveryConfig {
        search: SearchConfig {
            time_budget: Some(std::time::Duration::ZERO),
            ..SearchConfig::auto_tuned()
        },
        ..RecoveryConfig::default()
    };
    let mut jobs = Vec::with_capacity(TENANTS + 1);
    for (i, tenant) in tenants.into_iter().enumerate() {
        let max_parallelism = tenant
            .logical()
            .parallelism_vector()
            .into_iter()
            .max()
            .unwrap_or(1)
            .max(8);
        // Targets are sized against the full-parallelism tenant.
        let rate = tenant.capacity_rate(&reference, if i == 0 { 0.35 } else { 0.5 })?;
        let query = if i == 0 {
            tenant.with_parallelism(&vec![1; tenant.logical().num_operators()])?
        } else {
            tenant
        };
        jobs.push(JobSpec {
            name: format!("tenant-{i}"),
            query,
            schedule: RateSchedule::Constant(rate),
            ds2: Ds2Config {
                activation_period: 20.0,
                policy_interval: WINDOW,
                max_parallelism,
                headroom: 1.0,
            },
            sim: SimConfig {
                duration: 1.0,
                warmup: 0.0,
                ..SimConfig::default()
            },
            seed: TENANT_SEED + i as u64,
            weight: 1.0 + (i % 3) as f64,
            requested_workers: REQUESTED,
            recovery: recovery.clone(),
            faults: None,
        });
    }
    let mut greedy = jobs[1].clone();
    greedy.name = "greedy".into();
    greedy.requested_workers = WORKERS;
    jobs.push(greedy);
    Ok(jobs)
}

fn fleet_config() -> Res<FleetConfig> {
    let faults = FaultPlan::default()
        .with_decider_fault(DeciderFault {
            target: DeciderTarget::Shard(0),
            kind: DeciderFaultKind::Kill(KillPoint::MidReconfig(KILL_EPOCH)),
        })?
        .with_decider_fault(DeciderFault {
            target: DeciderTarget::Shard(1),
            kind: DeciderFaultKind::Partition {
                from: PARTITION.0,
                until: PARTITION.1,
            },
        })?
        .with_decider_fault(DeciderFault {
            target: DeciderTarget::Arbiter,
            kind: DeciderFaultKind::Kill(KillPoint::AtTime(ARBITER_KILL_AT)),
        })?;
    Ok(FleetConfig {
        arbiter: ArbiterConfig {
            max_tenancy: 2,
            lease_duration: LEASE,
            // Far above any utilization: revocation stays out of the run.
            overload_util: 50.0,
            overload_windows: 2,
            min_pool: 2,
            ..ArbiterConfig::default()
        },
        alpha: 0.5,
        window: WINDOW,
        control_faults: faults,
    })
}

/// Admission and world build.
fn build(strategy: Box<dyn PlacementStrategy>) -> Res<(FleetWorld, Arbiter, SharedBuf)> {
    Ok(FleetWorld::build(
        &global_cluster()?,
        make_jobs()?,
        strategy,
        &fleet_config()?,
    )?)
}

/// One stepped fleet.
struct Pass {
    /// Admission, world build and controller start, seconds.
    setup_s: f64,
    /// Wall time of every window, ms.
    window_ms: Vec<f64>,
    /// Whether a standby took a shard over in that window.
    takeover: Vec<bool>,
    outcome: FleetOutcome,
}

/// Builds the fleet — its set-up, timed from `t` — and steps it through
/// the horizon.
fn pass(strategy: Box<dyn PlacementStrategy>, t: Instant) -> Res<(FleetWorld, Pass)> {
    let (world, arbiter, buf) = build(strategy)?;
    let mut fc = FleetController::new(&world, arbiter, buf, fleet_config()?)?;
    let setup_s = secs(t);
    let (mut window_ms, mut takeover) = (Vec::new(), Vec::new());
    while fc.time() < HORIZON - 1e-9 {
        let before = fc.takeovers().len();
        let t = Instant::now();
        fc.step_window()?;
        window_ms.push(t.elapsed().as_secs_f64() * 1e3);
        takeover.push(fc.takeovers().len() > before);
    }
    let outcome = fc.finish()?;
    Ok((
        world,
        Pass {
            setup_s,
            window_ms,
            takeover,
            outcome,
        },
    ))
}

/// The `exp_fleet` invariants every pass must hold.
fn check_invariants(world: &FleetWorld, o: &FleetOutcome, tally: &mut Tally) -> Res<()> {
    tally.check(world.jobs().len() == TENANTS, || {
        format!(
            "{} tenants admitted, expected {TENANTS}",
            world.jobs().len()
        )
    });
    tally.check(world.rejected() == ["greedy".to_string()], || {
        format!(
            "admission rejected {:?}, expected only the greedy tenant",
            world.rejected()
        )
    });
    tally.check(
        o.takeovers.iter().any(|t| t.shard == 0 && t.term == 2),
        || format!("no takeover of killed shard 0 at term 2: {:?}", o.takeovers),
    );
    tally.check(o.takeovers.iter().any(|t| t.shard == 1), || {
        format!("no takeover of partitioned shard 1: {:?}", o.takeovers)
    });
    let bound = LEASE + 2.0 * WINDOW;
    tally.check(o.takeovers.iter().all(|t| t.mttr() <= bound + 1e-9), || {
        format!(
            "a takeover exceeded the {bound} s MTTR bound: {:?}",
            o.takeovers
        )
    });
    tally.check(o.split_brain_stamps == 0, || {
        format!("{} split-brain stamps", o.split_brain_stamps)
    });
    tally.check(o.fenced_attempts >= 1, || {
        "the healed zombie never hit the lease barrier".into()
    });
    tally.check(o.arbiter_recoveries == 1, || {
        format!(
            "arbiter recovered {} times, expected 1",
            o.arbiter_recoveries
        )
    });
    let shard0 = parse_journal(&o.shards[0].journal)?.records;
    let prepared = shard0
        .iter()
        .any(|r| matches!(r, DecisionRecord::Prepare { epoch, .. } if *epoch == KILL_EPOCH));
    let committed = shard0
        .iter()
        .any(|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == KILL_EPOCH));
    tally.check(prepared && committed, || {
        format!("shard 0 did not roll Prepare(epoch {KILL_EPOCH}) forward")
    });
    Ok(())
}

/// Offline proof: every shard's journal and history replay to a
/// byte-identical trace and journal.
fn check_replay(world: &FleetWorld, o: &FleetOutcome, seed: u64, tally: &mut Tally) -> Res<()> {
    let mut shards: Vec<usize> = (0..o.shards.len()).collect();
    shards.shuffle(&mut SmallRng::seed_from_u64(seed));
    for s in shards {
        let shard = &o.shards[s];
        let (trace, journal) = replay_shard(
            &world.jobs()[s],
            &world.clusters()[s],
            &FlinkDefault,
            &shard.journal,
            &shard.history,
            WINDOW,
        )?;
        tally.check(
            trace == shard.trace_json && journal == shard.journal,
            || format!("shard {s} ({}) replay diverged", shard.name),
        );
    }
    Ok(())
}

/// Everything deterministic about an outcome.
fn digest(o: &FleetOutcome) -> u64 {
    let mut d = Digest::default();
    for shard in &o.shards {
        d.str(&shard.name)
            .str(&shard.trace_json)
            .str(&shard.journal);
        d.f64(shard.goodput).f64(shard.target);
        for w in &shard.history {
            d.usizes(&w.revoked);
            for &f in &w.factors {
                d.f64(f);
            }
        }
    }
    d.str(&o.arbiter_log);
    for t in &o.takeovers {
        d.u64(t.shard as u64)
            .u64(t.term)
            .f64(t.lost_at)
            .f64(t.acquired_at);
    }
    d.u64(o.reacquisitions)
        .u64(o.fenced_attempts)
        .u64(o.split_brain_stamps);
    d.u64(o.arbiter_recoveries);
    d.value()
}

fn goodput_frac(o: &FleetOutcome) -> f64 {
    let goodput: f64 = o.shards.iter().map(|s| s.goodput).sum();
    let target: f64 = o.shards.iter().map(|s| s.target).sum();
    goodput / target
}

/// Each shard's initial deployment, re-derived the way its controller
/// places it: the job's seed drives `FlinkDefault` at the initial rate.
fn initial_plans(world: &FleetWorld) -> Res<Vec<Deployed>> {
    let mut plans = Vec::with_capacity(world.jobs().len());
    for (job, cluster) in world.jobs().iter().zip(world.clusters()) {
        let physical = job.query.physical();
        let rate = job.schedule.rate_at(0.0).max(1.0);
        let loads = job.query.load_model_at(&physical, rate)?;
        let ctx = PlacementContext {
            logical: job.query.logical(),
            physical: &physical,
            cluster,
            loads: &loads,
        };
        let placement = FlinkDefault.place(&ctx, &mut SmallRng::seed_from_u64(job.seed))?;
        plans.push(Deployed {
            query: job.query.clone(),
            cluster: cluster.clone(),
            placement,
            rate,
        });
    }
    Ok(plans)
}

pub fn run(args: &Args, started: Instant) -> Res<Report> {
    let mut tally = Tally::default();
    let (mut setup_s, mut passes) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, f64)> = None;
    loop {
        let t = if passes.is_empty() {
            started
        } else {
            Instant::now()
        };
        let (world, p) = pass(Box::new(FlinkDefault), t)?;
        setup_s.push(p.setup_s);
        tally.ops(p.window_ms.len());
        check_invariants(&world, &p.outcome, &mut tally)?;
        let d = digest(&p.outcome);
        match first {
            None => {
                check_replay(&world, &p.outcome, args.seed, &mut tally)?;
                first = Some((d, goodput_frac(&p.outcome)));
            }
            Some((d0, _)) => tally.check(d == d0, || "a later pass diverged".into()),
        }
        passes.push(p.window_ms);
        if !more(&passes, args.seconds)? {
            break;
        }
    }
    let (digest0, goodput) = first.expect("at least one pass ran");
    let best = best_of(&passes)?;
    let summary: Vec<Metric> = vec![
        ("passes", passes.len() as f64, "count"),
        ("windows_per_pass", HORIZON / WINDOW, "count"),
        ("goodput_frac", goodput, "frac"),
        ("window_ms_p50", pct_or_nan(&best, 50), "ms"),
        ("window_ms_p90", pct_or_nan(&best, 90), "ms"),
        ("sim_s_per_wall_s", HORIZON / pass_seconds(&best), "x"),
    ];
    let metrics = if args.trace {
        let layers = Rc::new(Layers::default());
        let strategy = Timed {
            inner: FlinkDefault,
            layers: layers.clone(),
        };
        let (world, p) = pass(Box::new(strategy), Instant::now())?;
        tally.check(digest(&p.outcome) == digest0, || {
            "the traced pass diverged".into()
        });
        let timed_s = pass_seconds(&p.window_ms);
        let mut report = LayerReport::default();
        layers.fill(&mut report, timed_s);
        report.step_share = (timed_s - layers.placement_s()) / timed_s;
        let mean_ms = |takeover: bool| {
            let ms: Vec<f64> = p
                .window_ms
                .iter()
                .zip(&p.takeover)
                .filter(|(_, &t)| t == takeover)
                .map(|(&ms, _)| ms)
                .collect();
            ms.iter().sum::<f64>() / ms.len().max(1) as f64
        };
        report.fleet_takeovers = p.outcome.takeovers.len() as f64;
        report.fleet_takeover_step_ratio = mean_ms(true) / mean_ms(false);
        report.trace_overhead_frac = timed_s / median_pass_seconds(&passes) - 1.0;
        let journals: Vec<String> = p.outcome.shards.iter().map(|s| s.journal.clone()).collect();
        report.probes = probe(&initial_plans(&world)?, &journals)?;
        report.metrics()
    } else {
        end_to_end(&setup_s, &passes, goodput)?
    };
    Ok(Report {
        tally,
        digest: digest0,
        summary,
        metrics,
    })
}
