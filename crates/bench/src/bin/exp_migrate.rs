//! Incremental migration vs whole-plan redeploy after a worker crash.
//!
//! Both arms run the same scenario — Q1 on four r5d.xlarge workers,
//! the worker hosting task 0 crashing at t=60s — with state-transfer
//! charging on, so reconfigurations pay for the operator state they
//! move at the bottleneck disk/NIC bandwidth while the affected tasks
//! are paused:
//!
//! * **whole-plan**: the crash recovery redeploys the full plan and
//!   restores every stateful byte;
//! * **incremental**: the recovery runs the minimum-movement optimizer
//!   (cheapest plan within ε of the cost optimum) and migrates only
//!   the displaced tasks, one journaled two-phase wave at a time.
//!
//! The experiment self-asserts the claims: the incremental arm moves
//! strictly fewer bytes, accrues strictly less paused-task downtime
//! (only displaced tasks pause, and less state means a shorter drain),
//! and loses strictly less throughput area over the outage; the
//! journaled migration target re-derives byte-identically through the
//! same optimizer and sits within ε of the unconstrained optimum; and
//! a same-seed re-run reproduces the trace and journal exactly.
//!
//! Usage: `exp_migrate [--seed N] [--smoke]`

use capsys_bench::banner;
use capsys_controller::{
    place_with_movemin, ClosedLoop, ClosedLoopTrace, DecisionRecord, MigrationConfig,
    RecoveryConfig,
};
use capsys_core::{min_movement_plan, CapsSearch};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, Placement, RateSchedule, StateModel, TaskId, WorkerId, WorkerSpec};
use capsys_placement::{CapsStrategy, PlacementContext};
use capsys_queries::q1_sliding;
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, SimConfig};

/// Working set of the sliding window: 4000 B/record x 2e5 records =
/// 800 MB of operator state, however it is split over subtasks.
const RETAINED_RECORDS: f64 = 2e5;
const EPSILON: f64 = 0.05;
const CRASH_AT: f64 = 60.0;

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

fn ds2() -> Ds2Config {
    // A huge activation period keeps DS2 out of the way after its
    // initial right-sizing: the recovery is the reconfiguration under
    // test.
    Ds2Config {
        activation_period: 1000.0,
        policy_interval: 5.0,
        max_parallelism: 8,
        headroom: 1.0,
    }
}

fn sim() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

/// Runs one arm of the comparison; returns the trace, the journal
/// text, and the crashed worker.
fn run_arm(
    seed: u64,
    duration: f64,
    incremental: bool,
) -> Result<(ClosedLoopTrace, String, WorkerId), Box<dyn std::error::Error>> {
    let query = q1_sliding();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let target = q1_sliding().capacity_rate(&cluster, 0.5)?;
    let strategy = CapsStrategy::default();
    let loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        ds2(),
        sim(),
        RateSchedule::Constant(target),
        seed,
    )?;
    let victim = loop_.placement().worker_of(TaskId(0));
    let plan = FaultPlan::new(vec![FaultEvent {
        time: CRASH_AT,
        kind: FaultKind::Crash(victim),
    }])?;
    let (journal, buf) = capsys_controller::DecisionJournal::in_memory();
    let mut loop_ = loop_
        .with_fault_plan(plan)?
        .with_recovery(RecoveryConfig::default())
        .with_state_transfer(RETAINED_RECORDS)?;
    if incremental {
        // A crash outage ends only once every task of the dead worker
        // is relocated (channels into a dead task fill and backpressure
        // the source), and waves start at policy-window boundaries — so
        // chunking the dead tasks across waves would stretch the outage
        // by one window per extra wave. The bench migrates them in a
        // single wave; fine-grained wave chunking is a blast-radius
        // control for live-task moves, exercised by the controller's
        // kill-sweep tests and `exp_recovery`.
        loop_ = loop_.with_incremental_migration(MigrationConfig {
            epsilon: EPSILON,
            wave_size: 4,
        })?;
    }
    let trace = loop_.with_journal(journal)?.run(duration)?;
    Ok((trace, buf.text(), victim))
}

/// Bytes and paused-task seconds charged by waves of the recovery
/// reconfiguration (`completed_at` after the crash); waves before the
/// crash belong to DS2's initial right-sizing, identical in both arms.
fn recovery_waves(trace: &ClosedLoopTrace) -> (u64, f64, usize) {
    let mut bytes = 0u64;
    let mut downtime = 0.0;
    let mut count = 0usize;
    for w in &trace.migration_waves {
        if w.completed_at > CRASH_AT {
            bytes += w.bytes;
            downtime += w.downtime;
            count += 1;
        }
    }
    (bytes, downtime, count)
}

/// The migration decision from the incremental arm's journal: the
/// incumbent it diffed against, the target it chose, the moved task
/// set, the rate it planned at, and the parallelism in force.
struct MigrationDecision {
    incumbent: Vec<usize>,
    target: Vec<usize>,
    moved: Vec<usize>,
    rate: f64,
    parallelism: Vec<usize>,
    steps: usize,
    commits: usize,
}

fn parse_migration(journal_text: &str) -> Result<MigrationDecision, Box<dyn std::error::Error>> {
    let parsed = capsys_controller::journal::parse_journal(journal_text)?;
    let mut incumbent = match parsed.records.first() {
        Some(DecisionRecord::Init { assignment, .. }) => assignment.clone(),
        other => return Err(format!("journal does not start with init: {other:?}").into()),
    };
    let mut decision = None;
    for r in &parsed.records {
        match r {
            DecisionRecord::Prepare { assignment, .. } if decision.is_none() => {
                incumbent = assignment.clone();
            }
            DecisionRecord::MigratePrepare {
                assignment,
                moved,
                rate,
                parallelism,
                ..
            } if decision.is_none() => {
                decision = Some((
                    assignment.clone(),
                    moved.clone(),
                    *rate,
                    parallelism.clone(),
                ));
            }
            _ => {}
        }
    }
    let (target, moved, rate, parallelism) =
        decision.ok_or("incremental arm journaled no migrate-prepare")?;
    let steps = parsed
        .records
        .iter()
        .filter(|r| matches!(r, DecisionRecord::MigrateStep { .. }))
        .count();
    let commits = parsed
        .records
        .iter()
        .filter(|r| matches!(r, DecisionRecord::MigrateCommit { .. }))
        .count();
    Ok(MigrationDecision {
        incumbent,
        target,
        moved,
        rate,
        parallelism,
        steps,
        commits,
    })
}

/// Re-derives the migration target outside the controller — through
/// the same exported optimizer entry point — and checks the ε bound
/// against the unconstrained optimum.
fn check_optimizer(
    decision: &MigrationDecision,
    victim: WorkerId,
) -> Result<(), Box<dyn std::error::Error>> {
    let query = q1_sliding().with_parallelism(&decision.parallelism)?;
    let physical = query.physical();
    let cluster = Cluster::homogeneous(4, WorkerSpec::r5d_xlarge(4))?;
    let loads = query.load_model_at(&physical, decision.rate)?;
    let state = StateModel::derive(query.logical(), &physical, RETAINED_RECORDS)?;
    let incumbent = Placement::new(decision.incumbent.iter().map(|&w| WorkerId(w)).collect());
    let mut search = RecoveryConfig::default().search;
    let mut free = vec![cluster.slots_per_worker(); cluster.num_workers()];
    free[victim.0] = 0;
    search.free_slots = Some(free);

    // The controller's exact path: same entry point, same config.
    let ctx = PlacementContext {
        logical: query.logical(),
        physical: &physical,
        cluster: &cluster,
        loads: &loads,
    };
    let (plan, diff) = place_with_movemin(&ctx, &search, EPSILON, &incumbent, &state)
        .map_err(|e| format!("re-derivation failed: {e:?}"))?;
    let rederived: Vec<usize> = plan.assignment().iter().map(|w| w.0).collect();
    if rederived != decision.target {
        return Err(format!(
            "re-derived migration target {rederived:?} != journaled {:?}",
            decision.target
        )
        .into());
    }
    let moved: Vec<usize> = diff.moves().iter().map(|m| m.task.0).collect();
    if moved != decision.moved {
        return Err(format!(
            "re-derived move set {moved:?} != journaled {:?}",
            decision.moved
        )
        .into());
    }

    // The ε bound, on the raw optimizer outcome: the chosen plan's
    // worst load component is within ε of the unconstrained optimum's.
    let mut cfg = search.clone();
    cfg.first_feasible = false;
    cfg.max_plans = cfg.max_plans.max(4096);
    let caps = CapsSearch::new(query.logical(), &physical, &cluster, &loads)
        .map_err(|e| format!("caps search: {e:?}"))?;
    let mm = min_movement_plan(&caps, &cfg, EPSILON, &incumbent, &state)
        .map_err(|e| format!("min-movement: {e:?}"))?;
    let chosen = mm.chosen.cost.max_component();
    let optimum = mm.optimum.cost.max_component();
    if chosen > optimum + EPSILON + 1e-12 {
        return Err(format!(
            "chosen plan cost {chosen:.6} exceeds optimum {optimum:.6} + ε {EPSILON}"
        )
        .into());
    }
    println!(
        "optimizer: target re-derived byte-identically; chosen cost {chosen:.4} \
         within ε={EPSILON} of optimum {optimum:.4} ({} plans in band)",
        mm.within_tolerance
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (seed, smoke) = parse_args();
    banner(
        "Migration",
        "incremental minimum-movement migration vs whole-plan redeploy",
        "migration extension (not a paper figure)",
    );
    let duration = if smoke { 150.0 } else { 300.0 };
    println!("seed {seed}, {duration}s per run, crash at t={CRASH_AT}s\n");

    let (whole, _, victim_a) = run_arm(seed, duration, false)?;
    let (inc, inc_journal, victim_b) = run_arm(seed, duration, true)?;
    if victim_a != victim_b {
        return Err("arms crashed different workers; comparison is invalid".into());
    }
    if whole.recovery_events.len() != 1 || inc.recovery_events.len() != 1 {
        return Err(format!(
            "expected exactly one recovery per arm, got {} / {}",
            whole.recovery_events.len(),
            inc.recovery_events.len()
        )
        .into());
    }

    let (wp_bytes, wp_down, wp_waves) = recovery_waves(&whole);
    let (inc_bytes, inc_down, inc_waves) = recovery_waves(&inc);
    let wp_loss = whole.throughput_loss_area(CRASH_AT, duration);
    let inc_loss = inc.throughput_loss_area(CRASH_AT, duration);
    println!("whole-plan : {wp_waves} wave(s), {wp_bytes} bytes restored, {wp_down:.2}s paused-task downtime, loss area {wp_loss:.0} records");
    println!("incremental: {inc_waves} wave(s), {inc_bytes} bytes migrated, {inc_down:.2}s paused-task downtime, loss area {inc_loss:.0} records");

    if inc_bytes >= wp_bytes {
        return Err(format!(
            "incremental moved {inc_bytes} bytes, not strictly below whole-plan's {wp_bytes}"
        )
        .into());
    }
    if inc_down >= wp_down {
        return Err(format!(
            "incremental downtime {inc_down:.3}s not strictly below whole-plan's {wp_down:.3}s"
        )
        .into());
    }
    if inc_loss >= wp_loss {
        return Err(format!(
            "incremental loss area {inc_loss:.0} not strictly below whole-plan's {wp_loss:.0}"
        )
        .into());
    }

    // The journaled protocol: one two-phase wave per chunk of four
    // moved tasks, exactly one commit, and the move set is exactly the
    // tasks whose worker changed.
    let decision = parse_migration(&inc_journal)?;
    let expected_steps = decision.moved.len().div_ceil(4);
    if decision.steps != expected_steps || decision.commits != 1 {
        return Err(format!(
            "expected {expected_steps} migrate-steps and 1 commit, journal has {} and {}",
            decision.steps, decision.commits
        )
        .into());
    }
    if decision.incumbent.len() != decision.target.len() {
        return Err("incumbent and target cover different task counts".into());
    }
    for t in 0..decision.incumbent.len() {
        let moved = decision.moved.contains(&t);
        let changed = decision.incumbent[t] != decision.target[t];
        if moved != changed {
            return Err(format!(
                "task {t}: journaled-as-moved={moved} but worker-changed={changed}"
            )
            .into());
        }
    }
    println!(
        "protocol: {} task(s) migrated in {} journaled two-phase wave(s); \
         {} task(s) never moved",
        decision.moved.len(),
        decision.steps,
        decision.incumbent.len() - decision.moved.len()
    );

    check_optimizer(&decision, victim_a)?;

    // Same-seed determinism: the incremental arm replays exactly.
    let (inc2, inc2_journal, _) = run_arm(seed, duration, true)?;
    if inc2.to_json().to_string() != inc.to_json().to_string() {
        return Err("same-seed incremental re-run produced a different trace".into());
    }
    if inc2_journal != inc_journal {
        return Err("same-seed incremental re-run produced a different journal".into());
    }
    println!("determinism: same-seed re-run reproduced trace and journal byte-identically");

    println!("\nall migration invariants hold");
    Ok(())
}
