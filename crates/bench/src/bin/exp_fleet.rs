//! Sharded multi-tenant fleet: lease-fenced controller failover at
//! 100+ workers.
//!
//! Multiple tenant jobs share one heterogeneous worker fleet. Each is
//! governed by its own shard controller holding an epoch-fenced lease
//! from the global arbiter; the `FleetController` drives them in
//! lockstep and records every cross-shard input (contention factors,
//! revocations) so the whole run is offline-replayable. This experiment
//! proves the control plane tolerates the death of its own deciders:
//!
//! * a **baseline** arm runs the fleet with no control-plane faults and
//!   locates the first scaling `Prepare` in the undersized tenant's
//!   journal;
//! * a **kill** arm re-runs the same fleet with that shard's controller
//!   killed exactly mid-reconfiguration (`KillPoint::MidReconfig`), a
//!   second shard's controller partitioned long enough to lose its
//!   lease (the split-brain probe: the stale holder stamps once on
//!   heal and must be fenced), and the arbiter itself killed and
//!   rebuilt from its own WAL mid-run.
//!
//! Self-asserted invariants: standby takeover within the lease MTTR
//! bound, zero split-brain stamps, every shard's final trace and
//! journal byte-identical to an uninterrupted offline replay of the
//! journaled decisions ([`capsys_controller::replay_shard`]), aggregate
//! fleet goodput within 10% of the no-kill baseline, admission control
//! rejecting an over-subscribed tenant, and a byte-identical same-seed
//! re-run. Writes `BENCH_fleet.json` (aggregate goodput, per-tenant
//! fairness as the max/min satisfaction ratio, per-window controller
//! decision latency, and failover MTTR) at the repository root
//! (`target/` under `--smoke`) and validates it.
//!
//! Usage: `exp_fleet [--seed N] [--smoke]`

use std::time::Instant;

use capsys_bench::{banner, box_stats, fmt_rate};
use capsys_controller::journal::parse_journal;
use capsys_controller::{
    replay_shard, ArbiterConfig, DecisionRecord, FleetConfig, FleetController, FleetOutcome,
    FleetWorld, JobSpec, RecoveryConfig,
};
use capsys_core::SearchConfig;
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, WorkerSpec};
use capsys_placement::FlinkDefault;
use capsys_sim::{DeciderFault, DeciderFaultKind, DeciderTarget, FaultPlan, KillPoint, SimConfig};
use capsys_util::json::{obj, Json};

/// Minimal std-only flag parsing: `--seed N` and `--smoke`.
fn parse_args() -> (u64, bool) {
    let mut seed = 7u64;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                seed = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed expects an integer; using 7");
                    7
                });
            }
            "--smoke" => smoke = true,
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    (seed, smoke)
}

/// Fixed fleet-shape parameters for one mode.
struct Shape {
    workers: usize,
    tenants: usize,
    /// Parallelism multiplier on every tenant query (grows task count).
    scale: usize,
    requested: usize,
    duration: f64,
}

const WINDOW: f64 = 5.0;
const LEASE: f64 = 12.0;
/// Partition window for the split-brain probe on shard 1.
const PARTITION: (f64, f64) = (60.0, 85.0);
/// Wall-clock arbiter kill (rebuilt live from its own WAL).
const ARBITER_KILL_AT: f64 = 45.0;

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape {
            workers: 120,
            tenants: 6,
            scale: 1,
            requested: 24,
            duration: 120.0,
        }
    } else {
        Shape {
            workers: 156,
            tenants: 12,
            scale: 5,
            requested: 24,
            duration: 150.0,
        }
    }
}

/// The heterogeneous global fleet: three instance families interleaved,
/// uniform slot count (a `Cluster::heterogeneous` requirement).
fn global_cluster(workers: usize) -> Cluster {
    let specs = (0..workers)
        .map(|i| match i % 3 {
            0 => WorkerSpec::m5d_2xlarge(8),
            1 => WorkerSpec::r5d_xlarge(8),
            _ => WorkerSpec::c5d_4xlarge(8),
        })
        .collect();
    Cluster::heterogeneous(specs).expect("uniform slot counts")
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
        ..RecoveryConfig::default()
    }
}

/// Builds the tenant jobs. Tenant 0 is deliberately undersized
/// (parallelism 1 everywhere) against a target sized for its full
/// parallelism, so DS2 must scale it up — producing the journaled
/// `Prepare` the mid-reconfiguration kill lands on. A final "greedy"
/// tenant requests the entire fleet and must be rejected at admission.
fn make_jobs(seed: u64, sh: &Shape) -> Vec<JobSpec> {
    let tenants = capsys_queries::tenant_jobs(sh.tenants, sh.scale).expect("tenant fixtures");
    let reference = Cluster::homogeneous(sh.requested, WorkerSpec::m5d_2xlarge(8))
        .expect("reference pool cluster");
    let mut jobs = Vec::with_capacity(sh.tenants + 1);
    for (i, tenant) in tenants.into_iter().enumerate() {
        let max_parallelism = tenant
            .logical()
            .parallelism_vector()
            .into_iter()
            .max()
            .unwrap_or(1)
            .max(8);
        let (query, target_util) = if i == 0 {
            let ops = tenant.logical().num_operators();
            (
                tenant
                    .with_parallelism(&vec![1; ops])
                    .expect("undersized tenant"),
                0.35,
            )
        } else {
            (tenant, 0.5)
        };
        // Targets are sized against the *full-parallelism* tenant on a
        // reference pool, so the undersized tenant 0 cannot meet its
        // target without scaling up.
        let rate = capsys_queries::tenant_jobs(sh.tenants, sh.scale).expect("tenant fixtures")[i]
            .capacity_rate(&reference, target_util)
            .expect("capacity rate");
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
            seed: seed.wrapping_add(i as u64),
            weight: 1.0 + (i % 3) as f64,
            requested_workers: sh.requested,
            recovery: fast_recovery(),
            faults: None,
        });
    }
    // The greedy tenant wants every worker; with the others admitted
    // there are not enough under-tenancy workers left.
    let mut greedy = jobs[1].clone();
    greedy.name = "greedy".into();
    greedy.requested_workers = sh.workers;
    jobs.push(greedy);
    jobs
}

fn fleet_config(control_faults: FaultPlan) -> FleetConfig {
    FleetConfig {
        arbiter: ArbiterConfig {
            max_tenancy: 2,
            lease_duration: LEASE,
            // Far above any plausible utilization: the bench isolates
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

/// Runs one fleet arm to completion. Returns the outcome, the world
/// (for offline replays), and per-window decision latencies.
fn run_arm(
    seed: u64,
    sh: &Shape,
    faults: FaultPlan,
) -> Result<(FleetOutcome, FleetWorld, Vec<f64>), Box<dyn std::error::Error>> {
    let global = global_cluster(sh.workers);
    let config = fleet_config(faults);
    let (world, arbiter, buf) = FleetWorld::build(
        &global,
        make_jobs(seed, sh),
        Box::new(FlinkDefault),
        &config,
    )?;
    if world.jobs().len() != sh.tenants {
        return Err(format!(
            "expected {} admitted tenants, got {}",
            sh.tenants,
            world.jobs().len()
        )
        .into());
    }
    if world.rejected() != ["greedy".to_string()] {
        return Err(format!(
            "admission control failed: rejected = {:?}, expected exactly [\"greedy\"]",
            world.rejected()
        )
        .into());
    }
    let mut fc = FleetController::new(&world, arbiter, buf, config)?;
    let mut latencies_ms = Vec::new();
    while fc.time() < sh.duration - 1e-9 {
        let t0 = Instant::now();
        fc.step_window()?;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let outcome = fc.finish()?;
    Ok((outcome, world, latencies_ms))
}

/// Aggregate time-integrated goodput over all shards.
fn total_goodput(o: &FleetOutcome) -> f64 {
    o.shards.iter().map(|s| s.goodput).sum()
}

/// Per-tenant fairness: max/min ratio of goodput-to-target
/// satisfaction across shards.
fn fairness_ratio(o: &FleetOutcome) -> f64 {
    let sats: Vec<f64> = o
        .shards
        .iter()
        .map(|s| {
            if s.target > 0.0 {
                s.goodput / s.target
            } else {
                0.0
            }
        })
        .collect();
    let max = sats.iter().fold(f64::MIN, |a, &b| a.max(b));
    let min = sats.iter().fold(f64::MAX, |a, &b| a.min(b));
    if min > 0.0 {
        max / min
    } else {
        f64::INFINITY
    }
}

/// Everything deterministic about an outcome, for the same-seed replay
/// check: traces, journals, history, the arbiter WAL, and the event
/// counters.
fn fingerprint(o: &FleetOutcome) -> String {
    let mut s = String::new();
    for shard in &o.shards {
        s.push_str(&shard.name);
        s.push_str(&shard.trace_json);
        s.push_str(&shard.journal);
        for w in &shard.history {
            s.push_str(&format!("{w:?}"));
        }
    }
    s.push_str(&o.arbiter_log);
    s.push_str(&format!(
        "takeovers={:?} reacq={} fenced={} split={} arb={}",
        o.takeovers,
        o.reacquisitions,
        o.fenced_attempts,
        o.split_brain_stamps,
        o.arbiter_recoveries
    ));
    s
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let started = Instant::now();
    let (seed, smoke) = parse_args();
    banner(
        "Fleet",
        "sharded multi-tenant control plane with lease-fenced failover",
        "robustness extension (not a paper figure)",
    );
    let sh = shape(smoke);
    println!(
        "seed {seed}, {} workers, {} tenants (+1 rejected), window {WINDOW}s, \
         lease {LEASE}s, {}s per arm\n",
        sh.workers, sh.tenants, sh.duration
    );

    // ---- Arm B: no control-plane faults (the goodput baseline). ----
    let (baseline, _, _) = run_arm(seed, &sh, FaultPlan::default())?;
    if !baseline.takeovers.is_empty() || baseline.fenced_attempts != 0 {
        return Err("baseline arm saw takeovers or fenced stamps with no faults".into());
    }
    for s in &baseline.shards {
        parse_journal(&s.journal).map_err(|e| format!("{}: journal unreadable: {e}", s.name))?;
    }

    // The undersized tenant 0 must have journaled a scaling Prepare the
    // kill arm can land on mid-reconfiguration.
    let shard0 = parse_journal(&baseline.shards[0].journal)?;
    let prepare_epoch = shard0
        .records
        .iter()
        .find_map(|r| match r {
            DecisionRecord::Prepare { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .ok_or("tenant 0 never journaled a scaling Prepare; nothing to kill mid-reconfig")?;
    println!(
        "[baseline] {} windows, aggregate goodput {} records; tenant 0 \
         scales at Prepare(epoch {prepare_epoch})",
        baseline.windows,
        fmt_rate(total_goodput(&baseline))
    );

    // ---- Arm A: kill shard 0 mid-reconfig, partition shard 1 past ----
    // its lease (split-brain probe), kill the arbiter mid-run.
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
    let (killed, world, latencies_ms) = run_arm(seed, &sh, faults.clone())?;

    // Initial deployment size of the placement problem.
    let total_tasks: usize = world
        .jobs()
        .iter()
        .map(|j| j.query.logical().total_tasks())
        .sum();
    println!(
        "[kill] {} tenants, {total_tasks} tasks on {} workers; {} takeover(s), \
         {} fenced stamp(s), {} split-brain, arbiter recovered {}x",
        world.jobs().len(),
        sh.workers,
        killed.takeovers.len(),
        killed.fenced_attempts,
        killed.split_brain_stamps,
        killed.arbiter_recoveries
    );
    if smoke {
        assert!(
            sh.workers >= 100 && sh.tenants >= 4,
            "smoke floor: >=4 tenants on >=100 workers"
        );
    } else {
        assert!(
            total_tasks >= 1000,
            "full mode must place 1000+ tasks, got {total_tasks}"
        );
    }

    // Failover invariants.
    let mttr_bound = LEASE + 2.0 * WINDOW;
    assert!(
        killed.takeovers.iter().any(|t| t.shard == 0 && t.term == 2),
        "no standby takeover of the killed shard 0 at term 2: {:?}",
        killed.takeovers
    );
    assert!(
        killed.takeovers.iter().any(|t| t.shard == 1),
        "no standby takeover of the partitioned shard 1: {:?}",
        killed.takeovers
    );
    for t in &killed.takeovers {
        assert!(
            t.mttr() <= mttr_bound + 1e-9,
            "shard {} failover MTTR {}s exceeds the {mttr_bound}s bound",
            t.shard,
            t.mttr()
        );
        println!(
            "  takeover: shard {} term {} lost at t={} recovered at t={} (MTTR {:.0}s)",
            t.shard,
            t.term,
            t.lost_at,
            t.acquired_at,
            t.mttr()
        );
    }
    assert_eq!(
        killed.split_brain_stamps, 0,
        "a zombie stamp passed the lease barrier"
    );
    assert!(
        killed.fenced_attempts >= 1,
        "the healed zombie never probed the lease barrier; split-brain=0 would be vacuous"
    );
    assert_eq!(killed.arbiter_recoveries, 1, "arbiter kill did not recover");

    // The standby rolled the in-doubt reconfiguration forward: its
    // re-journaled log holds both the Prepare it inherited mid-flight
    // and the Commit it finished.
    let recovered0 = parse_journal(&killed.shards[0].journal)?;
    let has_prepare = recovered0
        .records
        .iter()
        .any(|r| matches!(r, DecisionRecord::Prepare { epoch, .. } if *epoch == prepare_epoch));
    let has_commit = recovered0
        .records
        .iter()
        .any(|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == prepare_epoch));
    assert!(
        has_prepare && has_commit,
        "standby did not roll the in-doubt Prepare(epoch {prepare_epoch}) forward"
    );

    // Offline convergence proof: every shard's journal + recorded
    // history replays to a byte-identical trace and journal.
    for (s, shard) in killed.shards.iter().enumerate() {
        let (trace, journal) = replay_shard(
            &world.jobs()[s],
            &world.clusters()[s],
            &FlinkDefault,
            &shard.journal,
            &shard.history,
            WINDOW,
        )?;
        assert_eq!(
            trace, shard.trace_json,
            "shard {s} ({}) replayed trace DIVERGED",
            shard.name
        );
        assert_eq!(
            journal, shard.journal,
            "shard {s} ({}) replayed journal DIVERGED",
            shard.name
        );
    }
    println!(
        "  replay: {} shard(s) byte-identical (trace and journal)",
        killed.shards.len()
    );

    // Aggregate goodput within 10% of the no-kill baseline: the data
    // plane runs through control-plane outages.
    let g_kill = total_goodput(&killed);
    let g_base = total_goodput(&baseline);
    let ratio = g_kill / g_base;
    assert!(
        (ratio - 1.0).abs() <= 0.10,
        "kill-arm goodput {} vs baseline {} (ratio {ratio:.3}) outside 10%",
        fmt_rate(g_kill),
        fmt_rate(g_base)
    );
    println!(
        "  goodput: kill arm {} vs baseline {} (ratio {:.3})",
        fmt_rate(g_kill),
        fmt_rate(g_base),
        ratio
    );

    // Per-tenant fairness.
    println!("\n  tenant             goodput    target     satisfaction");
    for s in &killed.shards {
        println!(
            "  {:<18} {:>8}  {:>8}       {:.3}",
            s.name,
            fmt_rate(s.goodput),
            fmt_rate(s.target),
            if s.target > 0.0 {
                s.goodput / s.target
            } else {
                0.0
            }
        );
    }
    let fair_kill = fairness_ratio(&killed);
    let fair_base = fairness_ratio(&baseline);
    assert!(fair_kill.is_finite(), "a tenant made no progress at all");
    println!("  fairness (max/min satisfaction): kill {fair_kill:.2}, baseline {fair_base:.2}");

    // Controller decision latency (wall-clock per fleet window).
    let lat = box_stats(&latencies_ms);
    println!(
        "  decision latency per window: mean {:.1}ms, median {:.1}ms, max {:.1}ms",
        lat.mean, lat.median, lat.max
    );

    // Same-seed determinism: the whole fleet, faults and all, replays
    // byte-identically.
    let (killed2, _, _) = run_arm(seed, &sh, faults)?;
    assert_eq!(
        fingerprint(&killed),
        fingerprint(&killed2),
        "same-seed fleet re-run DIVERGED"
    );
    println!("  same-seed re-run: byte-identical");

    // ---- BENCH_fleet.json ----
    let takeovers_json: Vec<Json> = killed
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
        ("smoke", Json::Bool(smoke)),
        ("workers", Json::Num(sh.workers as f64)),
        ("tenants", Json::Num(sh.tenants as f64)),
        ("tasks", Json::Num(total_tasks as f64)),
        ("windows", Json::Num(killed.windows as f64)),
        ("goodput_kill", Json::Num(g_kill)),
        ("goodput_baseline", Json::Num(g_base)),
        ("goodput_ratio", Json::Num(ratio)),
        ("fairness_kill", Json::Num(fair_kill)),
        ("fairness_baseline", Json::Num(fair_base)),
        ("takeovers", Json::Arr(takeovers_json)),
        ("mttr_bound", Json::Num(mttr_bound)),
        ("fenced_attempts", Json::Num(killed.fenced_attempts as f64)),
        (
            "split_brain_stamps",
            Json::Num(killed.split_brain_stamps as f64),
        ),
        ("reacquisitions", Json::Num(killed.reacquisitions as f64)),
        (
            "arbiter_recoveries",
            Json::Num(killed.arbiter_recoveries as f64),
        ),
        ("rejected_at_admission", Json::Num(1.0)),
        ("replay_identical", Json::Bool(true)),
        ("same_seed_identical", Json::Bool(true)),
        ("step_ms_mean", Json::Num(lat.mean)),
        ("step_ms_max", Json::Num(lat.max)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let path = capsys_bench::bench_record_path("BENCH_fleet.json", smoke);
    std::fs::write(&path, record.to_pretty() + "\n")?;
    println!("\nwrote {}", path.display());

    // The record must round-trip and carry the keys the acceptance
    // criteria rely on.
    let raw = std::fs::read_to_string(&path)?;
    let parsed = Json::parse(&raw).map_err(|e| format!("BENCH_fleet.json must parse: {e}"))?;
    for key in [
        "schema",
        "seed",
        "workers",
        "tenants",
        "tasks",
        "goodput_ratio",
        "takeovers",
        "split_brain_stamps",
        "replay_identical",
    ] {
        assert!(parsed.get(key).is_some(), "missing key {key:?}");
    }
    let reread_ratio = parsed
        .get("goodput_ratio")
        .and_then(Json::as_f64)
        .ok_or("goodput_ratio must be a number")?;
    assert!((reread_ratio - 1.0).abs() <= 0.10);
    assert_eq!(
        parsed.get("split_brain_stamps").and_then(Json::as_f64),
        Some(0.0)
    );

    println!(
        "\nall fleet invariants hold ({:.1}s)",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}
