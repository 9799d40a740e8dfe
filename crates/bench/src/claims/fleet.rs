//! Fleet claim: the sharded control plane survives the death of its
//! own deciders.
//!
//! Tenant jobs share one heterogeneous fleet, each governed by a shard
//! controller holding an epoch-fenced lease from the global arbiter. A
//! no-fault baseline arm locates the undersized tenant 0's first
//! scaling `Prepare`; the kill arm kills that shard's controller right
//! there, partitions shard 1's controller past its lease (the stale
//! holder stamps once on heal and must be fenced), and kills the
//! arbiter, which rebuilds from its own WAL. The claim: standby
//! takeover within the lease MTTR bound, zero split-brain stamps, every
//! shard replaying byte-identically offline
//! ([`capsys_controller::replay_shard`]), fleet goodput within 10% of
//! the baseline, the over-subscribed tenant rejected at admission, a
//! byte-identical same-seed re-run, and a well-formed
//! `BENCH_fleet.json` record.

use std::time::Instant;

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    replay_shard, ArbiterConfig, DecisionRecord, FleetConfig, FleetController, FleetOutcome,
    FleetWorld, JobSpec, RecoveryConfig,
};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::FlinkDefault;
use capsys_sim::{DeciderFault, DeciderFaultKind, DeciderTarget, FaultPlan, KillPoint};
use capsys_util::json::{obj, Json};

use super::{loop_sim, Error, Shape};
use crate::{box_stats, fmt_rate};

const WINDOW: f64 = 5.0;
const LEASE: f64 = 12.0;
/// Partition window for the split-brain probe on shard 1.
const PARTITION: (f64, f64) = (60.0, 85.0);
/// Wall-clock arbiter kill (rebuilt live from its own WAL).
const ARBITER_KILL_AT: f64 = 45.0;

/// Workers each tenant requests.
const REQUESTED: usize = 24;

/// The fleet for one shape: workers, admitted tenants, the
/// parallelism multiplier on every tenant query, and seconds per arm.
struct Size {
    workers: usize,
    tenants: usize,
    scale: usize,
    duration: f64,
}

/// 6 tenants on 120 workers for 120 s on [`Shape::Smoke`]; 12 tenants
/// at 5x parallelism on 156 workers for 150 s on [`Shape::Full`].
fn size(shape: Shape) -> Size {
    match shape {
        Shape::Smoke => Size {
            workers: 120,
            tenants: 6,
            scale: 1,
            duration: 120.0,
        },
        Shape::Full => Size {
            workers: 156,
            tenants: 12,
            scale: 5,
            duration: 150.0,
        },
    }
}

/// One fleet arm run to completion: its results, the tenants admitted
/// and rejected, and the wall-clock milliseconds per window.
struct Arm {
    outcome: FleetOutcome,
    admitted: usize,
    rejected: Vec<String>,
    latencies_ms: Vec<f64>,
}

/// Both arms, the kill arm's offline replays (trace and journal equal
/// per shard), and whether a same-seed re-run of the kill arm equals it.
pub struct Outcome {
    seed: u64,
    shape: Shape,
    size: Size,
    baseline: Arm,
    /// The epoch of tenant 0's first scaling `Prepare`.
    prepare_epoch: u64,
    killed: Arm,
    total_tasks: usize,
    replays: Vec<(bool, bool)>,
    same_seed_identical: bool,
    /// The `BENCH_fleet.json` record.
    pub record: Json,
}

/// The heterogeneous global fleet: three instance families interleaved,
/// uniform slot count (a `Cluster::heterogeneous` requirement).
fn global_cluster(workers: usize) -> Result<Cluster, Error> {
    let specs = (0..workers)
        .map(|i| match i % 3 {
            0 => WorkerSpec::m5d_2xlarge(8),
            1 => WorkerSpec::r5d_xlarge(8),
            _ => WorkerSpec::c5d_4xlarge(8),
        })
        .collect();
    Ok(Cluster::heterogeneous(specs)?)
}

/// Zero search budget: the recovery ladder deterministically descends
/// to round-robin, independent of wall-clock speed — required for the
/// byte-identical replay assertions.
fn fast_recovery() -> RecoveryConfig {
    RecoveryConfig {
        search: SearchConfig {
            time_budget: Some(std::time::Duration::ZERO),
            ..SearchConfig::auto_tuned()
        },
    }
}

/// Builds the tenant jobs. Tenant 0 is deliberately undersized
/// (parallelism 1 everywhere) against a target sized for its full
/// parallelism, so DS2 must scale it up — producing the journaled
/// `Prepare` the mid-reconfiguration kill lands on. A final "greedy"
/// tenant requests the entire fleet and must be rejected at admission.
fn make_jobs(seed: u64, size: &Size) -> Result<Vec<JobSpec>, Error> {
    let tenants = capsys_queries::tenant_jobs(size.tenants, size.scale)?;
    let reference = Cluster::homogeneous(REQUESTED, WorkerSpec::m5d_2xlarge(8))?;
    let mut jobs = Vec::with_capacity(size.tenants + 1);
    for (i, tenant) in tenants.into_iter().enumerate() {
        let max_parallelism = tenant
            .logical()
            .parallelism_vector()
            .into_iter()
            .max()
            .unwrap_or(1)
            .max(8);
        // Targets are sized against the *full-parallelism* tenant on a
        // reference pool, so the undersized tenant 0 cannot meet its
        // target without scaling up.
        let (query, rate) = if i == 0 {
            let ops = tenant.logical().num_operators();
            let rate = tenant.capacity_rate(&reference, 0.35)?;
            (tenant.with_parallelism(&vec![1; ops])?, rate)
        } else {
            let rate = tenant.capacity_rate(&reference, 0.5)?;
            (tenant, rate)
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
            sim: loop_sim(),
            seed: seed.wrapping_add(i as u64),
            weight: 1.0 + (i % 3) as f64,
            requested_workers: REQUESTED,
            recovery: fast_recovery(),
            faults: None,
        });
    }
    // The greedy tenant wants every worker; with the others admitted
    // there are not enough under-tenancy workers left.
    let mut greedy = jobs.get(1).ok_or("the fleet needs two tenants")?.clone();
    greedy.name = "greedy".into();
    greedy.requested_workers = size.workers;
    jobs.push(greedy);
    Ok(jobs)
}

fn fleet_config(control_faults: FaultPlan) -> FleetConfig {
    FleetConfig {
        arbiter: ArbiterConfig {
            max_tenancy: 2,
            lease_duration: LEASE,
            // Far above any plausible utilization: the claim isolates
            // failover; revocation is exercised by the unit suite.
            overload_util: 50.0,
            overload_windows: 2,
            min_pool: 2,
            ..ArbiterConfig::default()
        },
        alpha: 0.5,
        window: WINDOW,
        control_faults,
    }
}

/// Runs one fleet arm to completion, and hands the world to `inspect`
/// (for offline replays) before it is dropped.
fn run_arm<T>(
    seed: u64,
    size: &Size,
    faults: FaultPlan,
    inspect: impl FnOnce(&FleetWorld, &FleetOutcome) -> Result<T, Error>,
) -> Result<(Arm, T), Error> {
    let global = global_cluster(size.workers)?;
    let config = fleet_config(faults);
    let (world, arbiter, buf) = FleetWorld::build(
        &global,
        make_jobs(seed, size)?,
        Box::new(FlinkDefault),
        &config,
    )?;
    let mut fc = FleetController::new(&world, arbiter, buf, config)?;
    let mut latencies_ms = Vec::new();
    while fc.time() < size.duration - 1e-9 {
        let t0 = Instant::now();
        fc.step_window()?;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let outcome = fc.finish()?;
    let inspected = inspect(&world, &outcome)?;
    let arm = Arm {
        outcome,
        admitted: world.jobs().len(),
        rejected: world.rejected().to_vec(),
        latencies_ms,
    };
    Ok((arm, inspected))
}

/// Aggregate time-integrated goodput over all shards.
fn total_goodput(o: &FleetOutcome) -> f64 {
    o.shards.iter().map(|s| s.goodput).sum()
}

/// A shard's goodput over its target.
fn satisfaction(s: &capsys_controller::ShardOutcome) -> f64 {
    if s.target > 0.0 {
        s.goodput / s.target
    } else {
        0.0
    }
}

/// Per-tenant fairness: max/min ratio of goodput-to-target
/// satisfaction across shards.
fn fairness_ratio(o: &FleetOutcome) -> f64 {
    let sats: Vec<f64> = o.shards.iter().map(satisfaction).collect();
    let max = sats.iter().fold(f64::MIN, |a, &b| a.max(b));
    let min = sats.iter().fold(f64::MAX, |a, &b| a.min(b));
    if min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

/// Runs both arms and a re-run of the kill arm.
pub fn run(shape: Shape, seed: u64) -> Result<Outcome, Error> {
    let started = Instant::now();
    let size = size(shape);

    // Arm B: no control-plane faults (the goodput baseline).
    let (baseline, ()) = run_arm(seed, &size, FaultPlan::default(), |_, _| Ok(()))?;
    for s in &baseline.outcome.shards {
        parse_journal(&s.journal).map_err(|e| format!("{}: journal unreadable: {e}", s.name))?;
    }
    // The undersized tenant 0 must have journaled a scaling Prepare the
    // kill arm can land on mid-reconfiguration.
    let shard0 = baseline
        .outcome
        .shards
        .first()
        .ok_or("the fleet has no shards")?;
    let prepare_epoch = parse_journal(&shard0.journal)?
        .records
        .iter()
        .find_map(|r| match r {
            DecisionRecord::Prepare { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .ok_or("tenant 0 never journaled a scaling Prepare; nothing to kill mid-reconfig")?;

    // Arm A: kill shard 0 mid-reconfig, partition shard 1 past its
    // lease (split-brain probe), kill the arbiter mid-run.
    let faults = FaultPlan::default()
        .with_decider_fault(DeciderFault {
            target: DeciderTarget::Shard(0),
            kind: DeciderFaultKind::Kill(KillPoint::MidReconfig(prepare_epoch)),
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
    // Offline convergence: every shard's journal + recorded history
    // replays to the recorded trace and journal.
    let (killed, (total_tasks, replays)) = run_arm(seed, &size, faults.clone(), |world, o| {
        let total_tasks = world
            .jobs()
            .iter()
            .map(|j| j.query.logical().total_tasks())
            .sum();
        let mut replays = Vec::new();
        for (s, shard) in o.shards.iter().enumerate() {
            let (trace, journal) = replay_shard(
                &world.jobs()[s],
                &world.clusters()[s],
                &FlinkDefault,
                &shard.journal,
                &shard.history,
                WINDOW,
            )?;
            replays.push((trace == shard.trace_json, journal == shard.journal));
        }
        Ok((total_tasks, replays))
    })?;
    // Same-seed determinism: the whole fleet, faults and all — traces,
    // journals, history, the arbiter WAL, and the event counters.
    let (again, ()) = run_arm(seed, &size, faults, |_, _| Ok(()))?;
    let same_seed_identical = format!("{:?}", again.outcome) == format!("{:?}", killed.outcome);

    let (k, b) = (&killed.outcome, &baseline.outcome);
    let lat = box_stats(&killed.latencies_ms);
    let takeovers: Vec<Json> = k
        .takeovers
        .iter()
        .map(|t| {
            obj(vec![
                ("shard", Json::Num(t.shard as f64)),
                ("term", Json::Num(t.term as f64)),
                ("lost_at", Json::Num(t.lost_at)),
                ("acquired_at", Json::Num(t.acquired_at)),
                ("mttr", Json::Num(t.mttr())),
            ])
        })
        .collect();
    let record = obj(vec![
        ("schema", Json::Str("capsys/bench-fleet/v1".to_string())),
        ("seed", Json::Num(seed as f64)),
        ("smoke", Json::Bool(shape == Shape::Smoke)),
        ("workers", Json::Num(size.workers as f64)),
        ("tenants", Json::Num(size.tenants as f64)),
        ("tasks", Json::Num(total_tasks as f64)),
        ("windows", Json::Num(k.windows as f64)),
        ("goodput_kill", Json::Num(total_goodput(k))),
        ("goodput_baseline", Json::Num(total_goodput(b))),
        (
            "goodput_ratio",
            Json::Num(total_goodput(k) / total_goodput(b)),
        ),
        ("fairness_kill", Json::Num(fairness_ratio(k))),
        ("fairness_baseline", Json::Num(fairness_ratio(b))),
        ("takeovers", Json::Arr(takeovers)),
        ("mttr_bound", Json::Num(LEASE + 2.0 * WINDOW)),
        ("fenced_attempts", Json::Num(k.fenced_attempts as f64)),
        ("split_brain_stamps", Json::Num(k.split_brain_stamps as f64)),
        ("reacquisitions", Json::Num(k.reacquisitions as f64)),
        ("arbiter_recoveries", Json::Num(k.arbiter_recoveries as f64)),
        (
            "rejected_at_admission",
            Json::Num(killed.rejected.len() as f64),
        ),
        (
            "replay_identical",
            Json::Bool(replays.iter().all(|&(t, j)| t && j)),
        ),
        ("same_seed_identical", Json::Bool(same_seed_identical)),
        ("step_ms_mean", Json::Num(lat.mean)),
        ("step_ms_max", Json::Num(lat.max)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    Ok(Outcome {
        seed,
        shape,
        size,
        baseline,
        prepare_epoch,
        killed,
        total_tasks,
        replays,
        same_seed_identical,
        record,
    })
}

impl Outcome {
    fn goodput_ratio(&self) -> f64 {
        total_goodput(&self.killed.outcome) / total_goodput(&self.baseline.outcome)
    }

    /// Prints both arms: takeovers, goodput, per-tenant satisfaction,
    /// fairness and per-window decision latency.
    pub fn print(&self) {
        let (base, killed, size) = (&self.baseline.outcome, &self.killed.outcome, &self.size);
        println!(
            "seed {}, {} workers, {} tenants (+1 rejected), window {WINDOW}s, \
             lease {LEASE}s, {}s per arm\n",
            self.seed, size.workers, size.tenants, size.duration
        );
        println!(
            "[baseline] {} windows, aggregate goodput {} records; tenant 0 \
             scales at Prepare(epoch {})",
            base.windows,
            fmt_rate(total_goodput(base)),
            self.prepare_epoch
        );
        println!(
            "[kill] {} tenants, {} tasks on {} workers; {} takeover(s), \
             {} fenced stamp(s), {} split-brain, arbiter recovered {}x",
            self.killed.admitted,
            self.total_tasks,
            size.workers,
            killed.takeovers.len(),
            killed.fenced_attempts,
            killed.split_brain_stamps,
            killed.arbiter_recoveries
        );
        for t in &killed.takeovers {
            println!(
                "  takeover: shard {} term {} lost at t={} recovered at t={} (MTTR {:.0}s)",
                t.shard,
                t.term,
                t.lost_at,
                t.acquired_at,
                t.mttr()
            );
        }
        println!(
            "  goodput: kill arm {} vs baseline {} (ratio {:.3})",
            fmt_rate(total_goodput(killed)),
            fmt_rate(total_goodput(base)),
            self.goodput_ratio()
        );
        println!("\n  tenant             goodput    target     satisfaction");
        for s in &killed.shards {
            println!(
                "  {:<18} {:>8}  {:>8}       {:.3}",
                s.name,
                fmt_rate(s.goodput),
                fmt_rate(s.target),
                satisfaction(s)
            );
        }
        println!(
            "  fairness (max/min satisfaction): kill {:.2}, baseline {:.2}",
            fairness_ratio(killed),
            fairness_ratio(base)
        );
        let lat = box_stats(&self.killed.latencies_ms);
        println!(
            "  decision latency per window: mean {:.1}ms, median {:.1}ms, max {:.1}ms",
            lat.mean, lat.median, lat.max
        );
    }

    /// Checks the claim; the error names the first part that fails.
    pub fn check(&self) -> Result<(), String> {
        let size = &self.size;
        // Admission control: every tenant admitted, the greedy one
        // rejected, in both arms.
        for arm in [&self.baseline, &self.killed] {
            ensure!(
                arm.admitted == size.tenants,
                "expected {} admitted tenants, got {}",
                size.tenants,
                arm.admitted
            );
            ensure!(
                arm.rejected == ["greedy".to_string()],
                "admission control failed: rejected = {:?}, expected exactly [\"greedy\"]",
                arm.rejected
            );
        }
        let (base, killed) = (&self.baseline.outcome, &self.killed.outcome);
        ensure!(
            base.takeovers.is_empty() && base.fenced_attempts == 0,
            "baseline arm saw takeovers or fenced stamps with no faults"
        );
        match self.shape {
            Shape::Smoke => ensure!(
                size.workers >= 100 && size.tenants >= 4,
                "smoke floor: >=4 tenants on >=100 workers"
            ),
            Shape::Full => ensure!(
                self.total_tasks >= 1000,
                "full mode must place 1000+ tasks, got {}",
                self.total_tasks
            ),
        }

        // Failover invariants.
        let mttr_bound = LEASE + 2.0 * WINDOW;
        ensure!(
            killed.takeovers.iter().any(|t| t.shard == 0 && t.term == 2),
            "no standby takeover of the killed shard 0 at term 2: {:?}",
            killed.takeovers
        );
        ensure!(
            killed.takeovers.iter().any(|t| t.shard == 1),
            "no standby takeover of the partitioned shard 1: {:?}",
            killed.takeovers
        );
        for t in &killed.takeovers {
            ensure!(
                t.mttr() <= mttr_bound + 1e-9,
                "shard {} failover MTTR {}s exceeds the {mttr_bound}s bound",
                t.shard,
                t.mttr()
            );
        }
        ensure!(
            killed.split_brain_stamps == 0,
            "a zombie stamp passed the lease barrier"
        );
        ensure!(
            killed.fenced_attempts >= 1,
            "the healed zombie never probed the lease barrier; split-brain=0 would be vacuous"
        );
        ensure!(
            killed.arbiter_recoveries == 1,
            "arbiter kill did not recover"
        );

        // The standby rolled the in-doubt reconfiguration forward: its
        // re-journaled log holds both the Prepare it inherited
        // mid-flight and the Commit it finished.
        let e = self.prepare_epoch;
        let shard0 = killed.shards.first().ok_or("the kill arm has no shards")?;
        let recovered0 = parse_journal(&shard0.journal).map_err(|err| err.to_string())?;
        let has = |pred: &dyn Fn(&DecisionRecord) -> bool| recovered0.records.iter().any(pred);
        ensure!(
            has(&|r| matches!(r, DecisionRecord::Prepare { epoch, .. } if *epoch == e))
                && has(&|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == e)),
            "standby did not roll the in-doubt Prepare(epoch {e}) forward"
        );

        // Offline convergence.
        for (s, (&(trace, journal), shard)) in self.replays.iter().zip(&killed.shards).enumerate() {
            ensure!(
                trace && journal,
                "shard {s} ({}) replay DIVERGED (trace equal: {trace}, journal equal: {journal})",
                shard.name
            );
        }

        // Aggregate goodput within 10% of the no-kill baseline: the data
        // plane runs through control-plane outages.
        let ratio = self.goodput_ratio();
        ensure!(
            (ratio - 1.0).abs() <= 0.10,
            "kill-arm goodput {} vs baseline {} (ratio {ratio:.3}) outside 10%",
            fmt_rate(total_goodput(killed)),
            fmt_rate(total_goodput(base))
        );
        ensure!(
            fairness_ratio(killed).is_finite(),
            "a tenant made no progress at all"
        );
        ensure!(self.same_seed_identical, "same-seed fleet re-run DIVERGED");

        // The record round-trips and carries the keys the claim relies
        // on.
        let record = Json::parse(&self.record.to_pretty())
            .map_err(|e| format!("BENCH_fleet.json must parse: {e}"))?;
        let keys = "schema seed workers tenants tasks goodput_ratio takeovers split_brain_stamps \
                    replay_identical";
        for key in keys.split_whitespace() {
            ensure!(record.get(key).is_some(), "missing key {key:?}");
        }
        let reread_ratio = record
            .get("goodput_ratio")
            .and_then(Json::as_f64)
            .ok_or("goodput_ratio must be a number")?;
        ensure!(
            (reread_ratio - 1.0).abs() <= 0.10,
            "the record's goodput_ratio {reread_ratio} is outside 10%"
        );
        ensure!(
            record.get("split_brain_stamps").and_then(Json::as_f64) == Some(0.0),
            "the record's split_brain_stamps is not 0"
        );
        Ok(())
    }
}
