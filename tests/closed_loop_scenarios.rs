//! Closed-loop properties of the governor, the shedder and the whole
//! survival layer, on scenarios built with
//! `capsys_bench::claims::Scenario`. The claims these features make —
//! a stale-model regression rolled back in one probation window, a
//! flash crowd shed and released, byte-identical recovery from a kill
//! after any journal record — run in `tests/claims.rs`; these tests pin
//! the invariants around them.

use capsys::controller::guard::QUARANTINE_TTL;
use capsys::controller::journal::parse_journal;
use capsys::controller::shed::ENGAGE_THRESHOLD;
use capsys::controller::{ClosedLoopTrace, ControllerError, DecisionRecord, GuardConfig};
use capsys::model::{FlashCrowd, OperatorId, RateProgram, RateSchedule};
use capsys::queries::q1_sliding;
use capsys::sim::{FaultPlan, KillPoint, WorkloadConfig, WorkloadEngine};
use capsys_bench::claims::{recovery, Scenario};
use capsys_util::forall;
use capsys_util::json::Json;
use capsys_util::prop::{ints, Config};

/// The recovery claim's guard-rollback scenario at 200 s: the model
/// goes stale at t=70, a rate step at t=80 goads DS2 onto the stale
/// model, and the governor restores the trusted plan.
fn guard_run(seed: u64) -> (ClosedLoopTrace, String) {
    let scenario = Scenario {
        recovery: None,
        ..recovery::guard_rollback(seed, 200.0).unwrap()
    };
    let (result, journal) = scenario.run_journaled(None).unwrap();
    (result.unwrap(), journal)
}

#[test]
fn prop_rollback_keeps_epochs_monotonic_and_seqs_contiguous() {
    forall!(Config::default().cases(6), (
        seed in ints(0u64..1000),
    ) => {
        let (trace, text) = guard_run(*seed);
        assert!(
            !trace.rollback_events.is_empty(),
            "scenario must roll back (seed {seed})"
        );
        // Frame level: sequence numbers are contiguous from 0.
        for (i, line) in text.lines().enumerate() {
            let frame = Json::parse(line).unwrap();
            assert_eq!(
                frame.get("seq").and_then(Json::as_f64),
                Some(i as f64),
                "sequence gap at journal line {i} (seed {seed})"
            );
        }
        // Record level: every epoch-burning record — Prepare or
        // Rollback alike — uses a strictly increasing epoch.
        let parsed = parse_journal(&text).unwrap();
        assert!(!parsed.torn);
        let mut last = 0u64;
        let mut saw_rollback = false;
        for rec in &parsed.records {
            let e = match rec {
                DecisionRecord::Prepare { epoch, .. } => *epoch,
                DecisionRecord::Rollback { epoch, .. } => {
                    saw_rollback = true;
                    *epoch
                }
                _ => continue,
            };
            assert!(
                e > last,
                "epoch {e} did not increase past {last} (seed {seed})"
            );
            last = e;
        }
        assert!(saw_rollback, "journal holds no rollback record (seed {seed})");
    });
}

#[test]
fn prop_no_redeploy_inside_cooldown() {
    forall!(Config::default().cases(6), (
        seed in ints(0u64..1000),
    ) => {
        let (trace, _) = guard_run(*seed);
        assert!(!trace.rollback_events.is_empty(), "scenario must roll back");
        for rb in &trace.rollback_events {
            for ev in &trace.events {
                assert!(
                    ev.time <= rb.time + 1e-9 || ev.time + 1e-9 >= rb.cooldown_until,
                    "scaling redeploy at t={} inside cooldown ({}, {}) (seed {seed})",
                    ev.time,
                    rb.time,
                    rb.cooldown_until
                );
            }
            for other in &trace.rollback_events {
                assert!(
                    other.time <= rb.time + 1e-9 || other.time + 1e-9 >= rb.cooldown_until,
                    "rollback at t={} inside another rollback's cooldown (seed {seed})",
                    other.time
                );
            }
        }
    });
}

#[test]
fn prop_quarantined_plan_never_redeployed_before_ttl() {
    forall!(Config::default().cases(6), (
        seed in ints(0u64..1000),
    ) => {
        let (trace, text) = guard_run(*seed);
        let parsed = parse_journal(&text).unwrap();
        for rb in &trace.rollback_events {
            // The regressed plan is the Prepare that burned the
            // rollback's from_epoch.
            let regressed = parsed
                .records
                .iter()
                .find_map(|r| match r {
                    DecisionRecord::Prepare {
                        epoch, parallelism, ..
                    } if *epoch == rb.from_epoch => Some(parallelism.clone()),
                    _ => None,
                })
                .expect("rollback's from_epoch has a journaled prepare");
            for ev in &trace.events {
                if ev.time > rb.time && ev.time < rb.time + QUARANTINE_TTL {
                    assert_ne!(
                        ev.parallelism, regressed,
                        "quarantined plan redeployed at t={} before its TTL (seed {seed})",
                        ev.time
                    );
                }
            }
        }
    });
}

/// The recovery claim's scaling scenario at 200 s with only the feature
/// under test armed: healthy load on an undersized job that DS2 scales
/// up.
fn healthy(guard: bool, shed: bool) -> ClosedLoopTrace {
    Scenario {
        recovery: None,
        guard: guard.then(GuardConfig::default),
        shed,
        ..recovery::scaling(7, 200.0).unwrap()
    }
    .run()
    .unwrap()
}

#[test]
fn idle_guard_leaves_the_trace_byte_identical() {
    // Every canary commits, so the governed run must behave — and
    // serialize — exactly like the unguarded one.
    let off = healthy(false, false);
    let on = healthy(true, false);
    assert!(on.num_scalings() >= 1, "scenario must actually reconfigure");
    assert!(
        on.rollback_events.is_empty(),
        "healthy canaries must commit"
    );
    assert_eq!(off.to_json().to_string(), on.to_json().to_string());
}

#[test]
fn idle_shedder_leaves_the_trace_byte_identical() {
    // Offered load always fits, so the armed admission controller must
    // never act — and the trace must serialize exactly like the
    // unprotected run's.
    let off = healthy(false, false);
    let on = healthy(false, true);
    assert!(on.num_scalings() >= 1, "scenario must actually reconfigure");
    assert!(on.shed_events.is_empty(), "healthy load must not be shed");
    assert_eq!(off.to_json().to_string(), on.to_json().to_string());
}

/// A flash crowd far beyond any deployable capacity: base rate at half
/// capacity, one trapezoid episode multiplying it by 8 for a minute.
/// DS2 is pinned so overload protection is the only control that can
/// act.
fn flash_crowd() -> Scenario {
    let q1 = Scenario::q1(7, 200.0).unwrap();
    Scenario {
        schedule: RateSchedule::Program(RateProgram {
            base: q1.schedule.rate_at(0.0),
            origin: 0.0,
            growth_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 0.0,
            diurnal_phase: 0.0,
            flashes: vec![FlashCrowd {
                start: 60.0,
                ramp: 5.0,
                hold: 60.0,
                decay: 5.0,
                magnitude: 7.0,
            }],
            horizon: 240.0,
        }),
        activation_period: 1e6,
        faults: Some(FaultPlan::new(vec![]).unwrap()),
        shed: true,
        ..q1
    }
}

#[test]
fn shedding_engages_and_releases_under_a_flash_crowd() {
    let scenario = flash_crowd();
    let (result, journal) = scenario.run_journaled(None).unwrap();
    let trace = result.unwrap();
    assert!(
        !trace.shed_events.is_empty(),
        "an 8x flash crowd must engage overload protection"
    );
    let first = &trace.shed_events[0];
    assert!(
        first.to_fraction > 0.0 && first.to_fraction < 1.0,
        "engage fraction {} out of range",
        first.to_fraction
    );
    assert!(
        first.offered > first.capacity,
        "shedding engaged while offered {} fit capacity {}",
        first.offered,
        first.capacity
    );
    let last = trace.shed_events.last().unwrap();
    assert_eq!(
        last.to_fraction, 0.0,
        "full admission must be restored once the crowd decays"
    );
    assert!(
        trace.time_shedding(200.0) > 0.0,
        "the trace must account the shedding span"
    );
    // While shedding, admitted pressure is relieved: after the first
    // engage, backpressure returns below the engage threshold well
    // before the crowd decays (an unshedded run pins it near 1).
    assert!(
        trace
            .points
            .iter()
            .any(|p| p.time > first.time && p.time < 120.0 && p.backpressure < ENGAGE_THRESHOLD),
        "shedding never relieved backpressure during the crowd"
    );
    // Every shed decision is journaled and committed.
    let parsed = parse_journal(&journal).unwrap();
    let sheds: Vec<u64> = parsed
        .records
        .iter()
        .filter_map(|r| match r {
            DecisionRecord::Shed { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .collect();
    assert_eq!(sheds.len(), trace.shed_events.len());
    for e in sheds {
        assert!(
            parsed
                .records
                .iter()
                .any(|r| matches!(r, DecisionRecord::Commit { epoch, .. } if *epoch == e)),
            "shed epoch {e} has no commit"
        );
    }
}

#[test]
fn shed_crash_recovery_is_byte_identical() {
    // Kill the run right after its first Shed record — the change is in
    // doubt. Recovery must re-derive the same admission verdict, roll
    // the shed forward, and reproduce the golden trace and journal
    // byte-for-byte.
    let scenario = flash_crowd();
    let (golden_result, golden_journal) = scenario.run_journaled(None).unwrap();
    let golden_trace = golden_result.unwrap();
    assert!(!golden_trace.shed_events.is_empty());
    let golden = golden_trace.to_json().to_string();
    let shed_at = parse_journal(&golden_journal)
        .unwrap()
        .records
        .iter()
        .position(|r| matches!(r, DecisionRecord::Shed { .. }))
        .expect("journal holds a shed record") as u64;

    let (result, partial) = scenario
        .run_journaled(Some(KillPoint::AfterRecord(shed_at)))
        .unwrap();
    assert!(
        matches!(result, Err(ControllerError::ControllerKilled { .. })),
        "kill after the shed record did not fire"
    );
    let tail = parse_journal(&partial).unwrap();
    assert!(
        matches!(tail.records.last(), Some(DecisionRecord::Shed { .. })),
        "partial journal does not end at the in-doubt shed"
    );
    let (recovered, rewritten) = scenario.recover_and_finish(&partial).unwrap();
    assert_eq!(recovered.to_json().to_string(), golden);
    assert_eq!(rewritten, golden_journal);
}

#[test]
fn prop_hostile_runs_are_sane_and_replay_byte_identically() {
    // An adversarial end-to-end scenario: a seeded workload program
    // (diurnal swing, a flash crowd, organic growth) drives a loop with
    // scaling, the drift-aware governor, and overload protection all
    // armed.
    forall!(Config::default().cases(3), (
        seed in ints(0u64..500),
    ) => {
        let q1 = Scenario::q1(*seed, 200.0).unwrap();
        let base = q1_sliding().capacity_rate(&q1.cluster, 0.4).unwrap();
        let engine = WorkloadEngine::new(WorkloadConfig {
            seed: *seed,
            horizon: 200.0,
            base_rate: base,
            diurnal_amplitude: (0.1, 0.3),
            flashes: 1,
            flash_magnitude: (2.0, 5.0),
            growth_per_sec: (0.0, base * 0.002),
            ..WorkloadConfig::default()
        })
        .unwrap();
        let scenario = Scenario {
            schedule: engine.generate(&[OperatorId(0)]).unwrap().pop().unwrap().1,
            activation_period: 40.0,
            faults: Some(FaultPlan::new(vec![]).unwrap()),
            guard: Some(GuardConfig::default()),
            shed: true,
            ..q1
        };
        let (result, journal_a) = scenario.run_journaled(None).unwrap();
        let trace = result.unwrap();
        // Sanity: hostile traffic never poisons the metric stream.
        for p in &trace.points {
            assert!(p.source_throughput.is_finite() && p.source_throughput >= 0.0);
            assert!(p.target_rate.is_finite() && p.target_rate >= 0.0);
            assert!((0.0..=1.0).contains(&p.backpressure));
            assert!(p.latency.is_finite() && p.latency >= 0.0);
        }
        // (No blanket "no rollbacks" assert here: under diurnal swings
        // DS2 can scale in at a trough, and a plan that then saturates
        // as the cycle swings back up is a *genuine* regression. The
        // flash-crowd/growth false-positive discrimination is the
        // hostile claim's A/B.)
        let golden = trace.to_json().to_string();
        // Same seed, same world: byte-identical trace and journal.
        let (again, journal_b) = scenario.run_journaled(None).unwrap();
        assert_eq!(again.unwrap().to_json().to_string(), golden);
        assert_eq!(journal_b, journal_a);
        // Crash mid-trace and recover: still byte-identical.
        let records = journal_a.lines().count() as u64;
        if records >= 2 {
            let (dead, partial) = scenario
                .run_journaled(Some(KillPoint::AfterRecord(records / 2)))
                .unwrap();
            assert!(
                matches!(dead, Err(ControllerError::ControllerKilled { .. })),
                "mid-journal kill did not fire (seed {seed})"
            );
            let (recovered, rewritten) = scenario.recover_and_finish(&partial).unwrap();
            assert_eq!(
                recovered.to_json().to_string(),
                golden,
                "crash recovery diverged from the golden hostile run (seed {seed})"
            );
            assert_eq!(rewritten, journal_a);
        }
    });
}
