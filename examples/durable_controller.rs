//! Durable controller: kill it mid-reconfiguration, recover it exactly.
//!
//! The closed loop journals every decision to a write-ahead log and
//! reconfigures in two phases: `Prepare` (the chosen plan, journaled
//! before the cluster is touched) then `Commit` (journaled after the
//! deployment). This example kills the controller *between* the two
//! phases of its first reconfiguration — the worst possible moment —
//! then rebuilds it from the journal. Recovery replays the
//! journaled decisions (no placement searches are re-run), rolls the
//! in-doubt `Prepare` forward, and finishes the run with a trace
//! byte-identical to the run that was never killed.
//!
//! Run with: `cargo run --release --example durable_controller`

use capsys::controller::{ClosedLoop, DecisionJournal, DecisionRecord, RecoveryConfig};
use capsys::ds2::Ds2Config;
use capsys::placement::CapsStrategy;
use capsys::prelude::*;
use capsys::sim::{FaultEvent, FaultKind, FaultPlan, KillPoint};
use std::error::Error;

fn ds2() -> Ds2Config {
    Ds2Config {
        activation_period: 60.0,
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

fn main() -> Result<(), Box<dyn Error>> {
    let cluster = Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(4))?;
    let query = capsys::queries::q1_sliding();
    let rate = query.capacity_rate(&cluster, 0.5)?;
    let strategy = CapsStrategy::default();
    let schedule = RateSchedule::Constant(rate);

    let build = |journal: DecisionJournal| -> Result<ClosedLoop<'_>, Box<dyn Error>> {
        let loop_ = ClosedLoop::new(
            &query,
            &cluster,
            &strategy,
            ds2(),
            sim(),
            schedule.clone(),
            7,
        )?;
        // Crash the worker hosting task 0 at t=60s so the run also
        // exercises the recovery ladder; the journal then holds both
        // scaling and recovery reconfigurations.
        let victim = loop_.placement().worker_of(TaskId(0));
        let plan = FaultPlan::new(vec![FaultEvent {
            time: 60.0,
            kind: FaultKind::Crash(victim),
        }])?;
        Ok(loop_
            .with_fault_plan(plan)?
            .with_recovery(RecoveryConfig::default())
            .with_journal(journal)?)
    };

    // --- The golden run: no kill, journal attached. -------------------
    let (journal, golden_buf) = DecisionJournal::in_memory();
    let golden_trace = build(journal)?.run(300.0)?;
    let golden_journal = golden_buf.text();
    println!(
        "golden run: {} journal records",
        golden_journal.lines().count()
    );

    // The epoch of the first reconfiguration in the golden journal —
    // the kill target.
    let first_epoch = capsys::controller::journal::parse_journal(&golden_journal)?
        .records
        .iter()
        .find_map(|r| match r {
            DecisionRecord::Prepare { epoch, .. } => Some(*epoch),
            _ => None,
        })
        .ok_or("golden journal holds no reconfiguration")?;

    // --- Kill the controller between Prepare and Commit. --------------
    let (journal, killed_buf) = DecisionJournal::in_memory();
    let loop_ = build(journal)?;
    // Re-arm the same fault plan with a kill on the first Prepare.
    let victim = loop_.placement().worker_of(TaskId(0));
    let plan = FaultPlan::new(vec![FaultEvent {
        time: 60.0,
        kind: FaultKind::Crash(victim),
    }])?
    .with_controller_kill(KillPoint::MidReconfig(first_epoch))?;
    let err = loop_
        .with_fault_plan(plan)?
        .run(300.0)
        .expect_err("the controller should have been killed");
    println!("\nkilled mid-reconfiguration: {err}");

    let partial = killed_buf.text();
    println!("surviving journal ({} records):", partial.lines().count());
    for line in partial.lines() {
        let shown = if line.len() > 100 { &line[..100] } else { line };
        println!("  {shown}…");
    }
    println!("note: the journal ends at the in-doubt Prepare — no Commit.");

    // --- Recover: replay the journal, roll the Prepare forward. -------
    let recovered = ClosedLoop::recover_from_journal(
        &query,
        &cluster,
        &strategy,
        ds2(),
        sim(),
        schedule.clone(),
        &partial,
    )?;
    let victim = recovered.placement().worker_of(TaskId(0));
    let plan = FaultPlan::new(vec![FaultEvent {
        time: 60.0,
        kind: FaultKind::Crash(victim),
    }])?;
    let (journal, recovered_buf) = DecisionJournal::in_memory();
    let trace = recovered
        .with_fault_plan(plan)?
        .with_recovery(RecoveryConfig::default())
        .with_journal(journal)?
        .run(300.0)?;

    println!("\nrecovered run:");
    for e in &trace.recovery_events {
        println!(
            "  worker {} silent from t={:.0}s, re-placed {:.1}s later \
             ({} attempt(s), rung: {})",
            e.worker.0,
            e.stale_since,
            e.time_to_recover,
            e.plans_tried,
            e.rung.name()
        );
    }

    let identical_trace = trace.to_json().to_string() == golden_trace.to_json().to_string();
    let identical_journal = recovered_buf.text() == golden_journal;
    println!(
        "trace vs never-killed run: {}",
        if identical_trace {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "journal vs never-killed run: {}",
        if identical_journal {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    if !(identical_trace && identical_journal) {
        return Err("recovery was not exact".into());
    }
    Ok(())
}
