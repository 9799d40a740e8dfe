//! Hostile-workload survival: drift-aware governor A/B, overload
//! shedding, and byte-identical crash recovery under adversarial
//! traffic.
//!
//! Not a figure from the paper — the paper evaluates placement under
//! steady rates — but the survival layer its adaptive controller needs
//! once traffic turns hostile. Four seeded scenarios, each built from
//! [`capsys_sim::WorkloadEngine`] rate programs:
//!
//! * **growth** — pure organic growth steep enough that every scale-out
//!   canary saturates mid-probation. A healthy plan, a hostile load: the
//!   absolute-baseline governor mistakes the load for a regression and
//!   rolls back a good plan; the drift-aware governor (the default)
//!   commits every canary. Run A/B across seeds 7/11/23.
//! * **flash** — a flash crowd ramping through a scale-out's probation
//!   window. Same A/B, same claim: zero drift-aware rollbacks, at least
//!   one absolute false rollback across the seeds.
//! * **regression** — an injected [`capsys_sim::ModelSkew`] true
//!   regression: the drift-aware governor must still detect it within
//!   one probation window and roll back.
//! * **overload** — a flash crowd far beyond any deployable capacity
//!   with DS2 pinned. Unshedded, queues collapse (balloon latency, near-1
//!   backpressure); with the admission controller armed, the shed
//!   fraction is journaled (`Shed` records), backpressure returns under
//!   the engage threshold, goodput (throughput gated by a latency SLO)
//!   beats the unshedded baseline, and full admission is restored once
//!   the crowd decays. A controller kill right after the first `Shed`
//!   record recovers byte-identically from the journal.
//!
//! Writes `BENCH_hostile.json` at the repository root and self-asserts
//! every claim. Usage: `exp_hostile [--smoke]` (smoke = shorter runs;
//! `ci.sh` relies on the seeds 7/11/23 baked in here).

use std::time::Instant;

use capsys_bench::{banner, fmt_rate};
use capsys_controller::guard::PROBATION_WINDOWS;
use capsys_controller::shed::{CAPACITY_WINDOWS, ENGAGE_THRESHOLD, RELEASE_WINDOWS};
use capsys_controller::{
    BaselineMode, ClosedLoop, ClosedLoopTrace, ControllerError, DecisionJournal, DecisionRecord,
    GuardConfig, ShedConfig,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, OperatorId, RateSchedule, WorkerSpec};
use capsys_placement::CapsStrategy;
use capsys_queries::q1_sliding;
use capsys_sim::{ChaosConfig, FaultPlan, KillPoint, SimConfig, WorkloadConfig, WorkloadEngine};
use capsys_util::json::{obj, Json};

/// Seeds exercised by the governor A/B; `ci.sh` relies on these.
const SEEDS: [u64; 3] = [7, 11, 23];
const POLICY_INTERVAL: f64 = 5.0;
/// Latency SLO for goodput accounting: a window's throughput only
/// counts as goodput when its end-to-end latency estimate is below this.
const SLO_SECONDS: f64 = 5.0;

fn parse_args() -> bool {
    let mut smoke = capsys_bench::fast_mode();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" | "--quick" => smoke = true,
            other => eprintln!("ignoring unknown argument `{other}`"),
        }
    }
    smoke
}

fn cluster() -> Cluster {
    Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4)).expect("cluster")
}

fn sim_config() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        ..SimConfig::default()
    }
}

fn ds2(activation: f64) -> Ds2Config {
    Ds2Config {
        activation_period: activation,
        policy_interval: POLICY_INTERVAL,
        max_parallelism: 8,
        headroom: 1.0,
    }
}

/// Runs one governed closed loop over `schedule` and returns its trace.
fn run_governed(
    seed: u64,
    schedule: RateSchedule,
    duration: f64,
    activation: f64,
    mode: BaselineMode,
    plan: Option<FaultPlan>,
) -> ClosedLoopTrace {
    let query = q1_sliding();
    let cluster = cluster();
    let strategy = CapsStrategy::default();
    let mut loop_ = ClosedLoop::new(
        &query,
        &cluster,
        &strategy,
        ds2(activation),
        sim_config(),
        schedule,
        seed,
    )
    .expect("closed loop");
    if let Some(p) = plan {
        loop_ = loop_.with_fault_plan(p).expect("fault plan");
    }
    loop_ = loop_
        .with_guard(GuardConfig {
            baseline_mode: mode,
            ..GuardConfig::default()
        })
        .expect("guard");
    loop_.run(duration).expect("run")
}

/// Pure organic growth: the offered load climbs ~1.5%/s of its base —
/// fast enough that DS2 must keep scaling out for the whole run, the
/// exact traffic an absolute-baseline governor is tempted to read as a
/// slow regression.
fn growth_schedule(seed: u64, base: f64, duration: f64) -> RateSchedule {
    let engine = WorkloadEngine::new(WorkloadConfig {
        seed,
        horizon: duration,
        base_rate: base,
        growth_per_sec: (base * 0.015, base * 0.018),
        ..WorkloadConfig::default()
    })
    .expect("workload config");
    engine
        .generate(&[OperatorId(0)])
        .expect("generate")
        .pop()
        .expect("one program")
        .1
}

/// A 6-7.5x flash crowd whose ramp outruns a freshly deployed canary
/// during its probation: the calm pre-flash baseline plus a collapsing
/// probation window is exactly the shape that convicts under absolute
/// judgment and is excused under load-normalized judgment.
fn flash_schedule(seed: u64, base: f64, duration: f64) -> RateSchedule {
    let engine = WorkloadEngine::new(WorkloadConfig {
        seed,
        horizon: duration,
        base_rate: base,
        flashes: 1,
        flash_magnitude: (6.0, 7.5),
        flash_ramp: (30.0, 45.0),
        flash_hold: (40.0, 60.0),
        ..WorkloadConfig::default()
    })
    .expect("workload config");
    engine
        .generate(&[OperatorId(0)])
        .expect("generate")
        .pop()
        .expect("one program")
        .1
}

/// One A/B cell: the same seeded scenario judged by both baseline
/// modes. DS2 re-activates every 15s so scaling keeps pace with the
/// hostile load and baselines are captured while the trusted plan is
/// still healthy. `expect_false_rollback` additionally demands that the
/// absolute baseline convicts (the flash shape guarantees it; pure
/// growth degrades the rolling baseline in lockstep, which makes
/// absolute judgment lenient rather than trigger-happy).
fn ab_cell(
    name: &str,
    seed: u64,
    schedule: RateSchedule,
    duration: f64,
    expect_false_rollback: bool,
) -> Json {
    let drift = run_governed(
        seed,
        schedule.clone(),
        duration,
        15.0,
        BaselineMode::DriftAware,
        None,
    );
    let absolute = run_governed(seed, schedule, duration, 15.0, BaselineMode::Absolute, None);
    println!(
        "  {name} seed {seed}: {} scalings; rollbacks drift-aware {} / absolute {}",
        drift.num_scalings(),
        drift.oscillations(),
        absolute.oscillations()
    );
    assert_eq!(
        drift.oscillations(),
        0,
        "{name} seed {seed}: the drift-aware governor must not mistake \
         hostile-but-organic load for a regression"
    );
    assert!(
        drift.num_scalings() >= 1,
        "{name} seed {seed}: the load must actually force a scale-out \
         (no canary, no discrimination to test)"
    );
    if expect_false_rollback {
        assert!(
            absolute.oscillations() >= 1,
            "{name} seed {seed}: the absolute baseline must false-rollback \
             here — a calm baseline followed by a collapsing probation is \
             its signature failure"
        );
    }
    obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("scalings", Json::Num(drift.num_scalings() as f64)),
        ("drift_rollbacks", Json::Num(drift.oscillations() as f64)),
        (
            "absolute_rollbacks",
            Json::Num(absolute.oscillations() as f64),
        ),
    ])
}

/// The injected-true-regression scenario of `exp_guard`, judged by the
/// drift-aware governor: a model-skew fault plus a rate step onto the
/// stale model.
fn regression_scenario(seed: u64, duration: f64) -> Json {
    let query = q1_sliding();
    let cluster = cluster();
    let base = query.capacity_rate(&cluster, 0.5).expect("capacity");
    let chaos = ChaosConfig {
        seed,
        horizon: duration,
        crashes: 0,
        stragglers: 0,
        blackouts: 0,
        metric_noise: 0.0,
        model_skews: 1,
        skew_factor: (3.0, 4.0),
        ..ChaosConfig::default()
    };
    let plan = FaultPlan::generate(&chaos, cluster.num_workers()).expect("plan");
    let skew = plan.model_skew.expect("one skew");
    let step_at = ((skew.time / POLICY_INTERVAL).floor() + 2.0) * POLICY_INTERVAL;
    let schedule = RateSchedule::Steps(vec![(0.0, base), (step_at, 1.8 * base)]);
    let trace = run_governed(
        seed,
        schedule,
        duration,
        60.0,
        BaselineMode::DriftAware,
        Some(plan),
    );
    let deadline = (PROBATION_WINDOWS as f64 + 1.0) * POLICY_INTERVAL;
    assert!(
        !trace.rollback_events.is_empty(),
        "drift-aware governor must still catch an injected true regression"
    );
    let first = &trace.rollback_events[0];
    assert!(
        first.degraded_for <= deadline + 1e-9,
        "true regression must be caught within one probation window \
         ({:.0}s > {deadline:.0}s)",
        first.degraded_for
    );
    println!(
        "  regression seed {seed}: skew at t={:.0}s, rolled back after {:.0}s \
         (deadline {deadline:.0}s)",
        skew.time, first.degraded_for
    );
    obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("rollbacks", Json::Num(trace.oscillations() as f64)),
        ("degraded_for", Json::Num(first.degraded_for)),
        ("deadline", Json::Num(deadline)),
    ])
}

/// The sustained-overload workload: an 8x flash crowd against a plan
/// whose scaling is pinned, so admission control is the only lever.
fn overload_schedule(seed: u64, duration: f64) -> RateSchedule {
    let query = q1_sliding();
    let base = query.capacity_rate(&cluster(), 0.5).expect("capacity");
    let engine = WorkloadEngine::new(WorkloadConfig {
        seed,
        horizon: duration,
        base_rate: base,
        flashes: 1,
        flash_magnitude: (7.0, 7.0),
        flash_ramp: (30.0, 30.0),
        flash_hold: (90.0, 90.0),
        ..WorkloadConfig::default()
    })
    .expect("workload config");
    engine
        .generate(&[OperatorId(0)])
        .expect("generate")
        .pop()
        .expect("one program")
        .1
}

/// Builds the sustained-overload loop. `shed` arms the admission
/// controller, `kill`/`journal_text` drive the crash-recovery leg.
fn overload_run(
    seed: u64,
    duration: f64,
    shed: bool,
    kill: Option<KillPoint>,
    journal_text: Option<&str>,
) -> (Result<ClosedLoopTrace, ControllerError>, String) {
    let query = q1_sliding();
    let cluster = cluster();
    let schedule = overload_schedule(seed, duration);
    let strategy = CapsStrategy::default();
    let loop_ = match journal_text {
        None => ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            ds2(1e6),
            sim_config(),
            schedule,
            seed,
        )
        .expect("closed loop"),
        Some(t) => ClosedLoop::recover_from_journal(
            &query,
            &cluster,
            &strategy,
            ds2(1e6),
            sim_config(),
            schedule,
            t,
        )
        .expect("recovered loop"),
    };
    let mut plan = FaultPlan::new(vec![]).expect("empty plan");
    if let Some(k) = kill {
        plan = plan.with_controller_kill(k).expect("kill");
    }
    let mut loop_ = loop_.with_fault_plan(plan).expect("fault plan");
    if shed {
        loop_ = loop_.with_shedding(ShedConfig::default()).expect("shed");
    }
    let (journal, buf) = DecisionJournal::in_memory();
    let result = loop_.with_journal(journal).expect("journal").run(duration);
    (result, buf.text())
}

/// Goodput: integral of admitted throughput over windows whose latency
/// estimate meets the SLO, in records (window length = policy interval).
fn goodput(trace: &ClosedLoopTrace) -> f64 {
    trace
        .points
        .iter()
        .filter(|p| p.latency <= SLO_SECONDS)
        .fold(0.0, |acc, p| acc + p.source_throughput * POLICY_INTERVAL)
}

fn overload_scenario(seed: u64, duration: f64) -> Json {
    // The plateau bounds come from the generated program itself — the
    // flash's start is seeded.
    let flash = match overload_schedule(seed, duration) {
        RateSchedule::Program(p) => p.flashes[0].clone(),
        other => panic!("overload schedule must be a program, got {other:?}"),
    };
    let plateau = (
        flash.start + flash.ramp,
        flash.start + flash.ramp + flash.hold,
    );
    let (bare_result, _) = overload_run(seed, duration, false, None, None);
    let bare = bare_result.expect("unshedded run");
    let (shed_result, shed_journal) = overload_run(seed, duration, true, None, None);
    let shedded = shed_result.expect("shedded run");

    assert!(
        !shedded.shed_events.is_empty(),
        "an 8x flash crowd must engage overload protection"
    );
    let engage = &shedded.shed_events[0];
    let release = shedded.shed_events.last().expect("events");
    assert!(engage.to_fraction > 0.0, "first event must engage");
    assert!(
        engage.time < plateau.1,
        "shedding must engage while the crowd is still raging"
    );
    assert_eq!(
        release.to_fraction, 0.0,
        "full admission must be restored once the crowd decays"
    );
    assert!(
        release.time > plateau.1,
        "admission must not reopen while the plateau still rages \
         (released t={:.0}s, plateau ends t={:.0}s)",
        release.time,
        plateau.1
    );

    // Backpressure stays bounded: the engage-time capacity estimate
    // carries stale pre-saturation samples, so give the controller a
    // full capacity window plus the deadband-override hysteresis to
    // converge, then demand calm for the rest of the plateau — while
    // the unshedded run stays pinned at collapse the whole way.
    let settle = engage.time + (CAPACITY_WINDOWS + RELEASE_WINDOWS + 1) as f64 * POLICY_INTERVAL;
    assert!(
        settle < plateau.1 - 2.0 * POLICY_INTERVAL,
        "scenario must leave a post-settle plateau to judge ({settle:.0}s vs {:.0}s)",
        plateau.1
    );
    let bp_peak = |t: &ClosedLoopTrace| {
        t.points
            .iter()
            .filter(|p| p.time > settle && p.time <= plateau.1)
            .fold(0.0f64, |acc, p| acc.max(p.backpressure))
    };
    let shed_bp = bp_peak(&shedded);
    let bare_bp = bp_peak(&bare);
    assert!(
        shed_bp <= ENGAGE_THRESHOLD,
        "shedding must bound backpressure (peak {shed_bp:.2} after settling)"
    );
    assert!(
        bare_bp > 0.9,
        "the unshedded baseline must actually be collapsing (peak {bare_bp:.2})"
    );

    // Goodput: latency-gated throughput must strictly beat the
    // unshedded run — bounded queues drain as the crowd decays instead
    // of serving stale records for another minute.
    let shed_good = goodput(&shedded);
    let bare_good = goodput(&bare);
    assert!(
        shed_good > bare_good,
        "shedding must win goodput ({} vs {})",
        fmt_rate(shed_good / duration),
        fmt_rate(bare_good / duration)
    );

    // Every shed decision made it into the journal.
    let parsed = capsys_controller::journal::parse_journal(&shed_journal).expect("journal");
    let journaled_sheds = parsed
        .records
        .iter()
        .filter(|r| matches!(r, DecisionRecord::Shed { .. }))
        .count();
    assert_eq!(
        journaled_sheds,
        shedded.shed_events.len(),
        "every shed change must be journaled"
    );

    // Crash-recovery: die right after the first Shed record (the change
    // is in doubt), recover from the journal, and reproduce the golden
    // trace and journal byte-for-byte.
    let golden = shedded.to_json().to_string();
    let shed_at = parsed
        .records
        .iter()
        .position(|r| matches!(r, DecisionRecord::Shed { .. }))
        .expect("a shed record") as u64;
    let (killed, partial) = overload_run(
        seed,
        duration,
        true,
        Some(KillPoint::AfterRecord(shed_at)),
        None,
    );
    assert!(
        matches!(killed, Err(ControllerError::ControllerKilled { .. })),
        "the controller kill must fire"
    );
    let (recovered, rewritten) = overload_run(seed, duration, true, None, Some(&partial));
    let identical = recovered.expect("recovered run").to_json().to_string() == golden
        && rewritten == shed_journal;
    assert!(
        identical,
        "crash recovery must replay the hostile run byte-identically"
    );

    println!(
        "  overload seed {seed}: {} shed change(s), engaged t={:.0}s at {:.0}% \
         (offered {} vs capacity {}), released t={:.0}s",
        shedded.shed_events.len(),
        engage.time,
        100.0 * engage.to_fraction,
        fmt_rate(engage.offered),
        fmt_rate(engage.capacity),
        release.time,
    );
    println!(
        "  overload seed {seed}: bp peak {shed_bp:.2} shedded vs {bare_bp:.2} bare; \
         goodput {} vs {} rec/s; crash recovery byte-identical",
        fmt_rate(shed_good / duration),
        fmt_rate(bare_good / duration)
    );

    obj(vec![
        ("seed", Json::Num(seed as f64)),
        ("shed_events", Json::Num(shedded.shed_events.len() as f64)),
        ("engage_fraction", Json::Num(engage.to_fraction)),
        ("time_shedding", Json::Num(shedded.time_shedding(duration))),
        ("bp_peak_shedded", Json::Num(shed_bp)),
        ("bp_peak_unshedded", Json::Num(bare_bp)),
        ("goodput_shedded", Json::Num(shed_good / duration)),
        ("goodput_unshedded", Json::Num(bare_good / duration)),
        ("journaled_sheds", Json::Num(journaled_sheds as f64)),
        ("recovery_identical", Json::Bool(identical)),
    ])
}

fn main() {
    let started = Instant::now();
    let smoke = parse_args();
    banner(
        "Hostile",
        "adversarial traffic: governor drift A/B, overload shedding, crash replay",
        "robustness extension (not a paper figure)",
    );
    // Scenario horizons are fixed properties of the tuned workload
    // shapes (growth must not outrun the cluster's deployable maximum);
    // full mode widens the seed set instead of stretching the runs.
    const AB_DURATION: f64 = 300.0;
    let mut seeds: Vec<u64> = SEEDS.to_vec();
    if !smoke {
        seeds.extend([31, 47]);
    }
    let query = q1_sliding();
    let base = query.capacity_rate(&cluster(), 0.5).expect("capacity");
    println!(
        "Q1-sliding, 6 workers, base rate {} ({AB_DURATION}s per scenario, seeds {seeds:?})\n",
        fmt_rate(base),
    );

    // --- Governor A/B under pure growth and a flash crowd. ---
    println!("--- governor A/B: drift-aware vs absolute baseline ---");
    let mut growth_cells = Vec::new();
    let mut flash_cells = Vec::new();
    let mut absolute_false_rollbacks = 0.0;
    for &seed in &seeds {
        let g = ab_cell(
            "growth",
            seed,
            growth_schedule(seed, base * 0.5, AB_DURATION),
            AB_DURATION,
            false,
        );
        absolute_false_rollbacks += g
            .get("absolute_rollbacks")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        growth_cells.push(g);
        let f = ab_cell(
            "flash",
            seed,
            flash_schedule(seed, base * 0.45, AB_DURATION),
            AB_DURATION,
            true,
        );
        absolute_false_rollbacks += f
            .get("absolute_rollbacks")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        flash_cells.push(f);
    }
    assert!(
        absolute_false_rollbacks >= 1.0,
        "the absolute baseline must false-rollback at least once across the \
         growth/flash scenarios — otherwise the A/B shows nothing"
    );
    println!("  absolute baseline false rollbacks across seeds: {absolute_false_rollbacks}\n");

    // --- Injected true regression: still caught, fast. ---
    println!("--- injected true regression (drift-aware) ---");
    let regression = regression_scenario(7, if smoke { 300.0 } else { 600.0 });
    println!();

    // --- Sustained overload: shed, bound, restore, replay. ---
    println!("--- sustained overload: admission control A/B ---");
    let overload = overload_scenario(7, 300.0);

    let record = obj(vec![
        ("schema", Json::Str("capsys/bench-hostile/v1".to_string())),
        ("smoke", Json::Bool(smoke)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("growth", Json::Arr(growth_cells)),
        ("flash", Json::Arr(flash_cells)),
        (
            "absolute_false_rollbacks",
            Json::Num(absolute_false_rollbacks),
        ),
        ("regression", regression),
        ("overload", overload),
        ("slo_seconds", Json::Num(SLO_SECONDS)),
        ("total_seconds", Json::Num(started.elapsed().as_secs_f64())),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hostile.json");
    std::fs::write(path, record.to_pretty() + "\n").expect("write BENCH_hostile.json");
    println!("\nwrote {path}");

    // The record must round-trip and carry the keys the acceptance
    // criteria (and downstream tooling) rely on.
    let raw = std::fs::read_to_string(path).expect("re-read BENCH_hostile.json");
    let parsed = Json::parse(&raw).expect("BENCH_hostile.json must parse");
    for key in [
        "schema",
        "smoke",
        "seeds",
        "growth",
        "flash",
        "regression",
        "overload",
    ] {
        assert!(parsed.get(key).is_some(), "missing key {key:?}");
    }
    for arm in ["growth", "flash"] {
        let cells = parsed.get(arm).and_then(|c| c.as_array()).expect("cells");
        assert_eq!(cells.len(), seeds.len(), "{arm} must cover every seed");
        for c in cells {
            assert_eq!(
                c.get("drift_rollbacks").and_then(Json::as_f64),
                Some(0.0),
                "{arm}: drift-aware rollbacks must be zero in the record too"
            );
        }
    }
    println!(
        "\nall hostile-workload assertions passed in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
