//! `recover`: one journaled `ClosedLoop` under CAPS in the §6.4
//! autoscaling setup — Q3-inf from parallelism 1 on 6 × r5d.xlarge under
//! a square-wave load, as in `exp_fig9` — with failure recovery, the
//! safety governor, overload shedding and incremental migration
//! attached, so its journal holds every decision kind replay handles.
//!
//! Set-up runs the loop live over the whole horizon, producing a
//! journal of more than 100 records. A pass then kills the controller
//! once after each journal record. Each timed recovery is
//! `recover_from_journal` on the journal written by then, plus stepping
//! the rebuilt loop to the kill time, replaying journaled decisions
//! instead of searching. The seed only shuffles the order of the kill
//! points, so every seed recovers the same journal and prints the same
//! digest and goodput.

use std::rc::Rc;
use std::time::Instant;

use capsys_controller::journal::parse_journal;
use capsys_controller::{
    ClosedLoop, DecisionJournal, DecisionRecord, GuardConfig, MigrationConfig, RecoveryConfig,
    ShedConfig,
};
use capsys_ds2::Ds2Config;
use capsys_model::{Cluster, RateSchedule, TaskId, WorkerId, WorkerSpec};
use capsys_placement::{CapsStrategy, PlacementStrategy};
use capsys_queries::{q3_inf, Query};
use capsys_sim::{FaultEvent, FaultKind, FaultPlan, ModelSkew, SimConfig};
use capsys_util::rng::{SeedableRng, SliceRandom, SmallRng};

use crate::layers::{probe, Deployed, LayerReport, Layers, TracedCaps};
use crate::stats::Digest;
use crate::{
    best_of, end_to_end, median_pass_seconds, more, pass_seconds, pct_or_nan, secs, Args, Metric,
    Report, Res, Tally,
};

const WINDOW: f64 = 5.0;
/// Simulated horizon of the live run: long enough for more than 100
/// journal records, so a pass recovers from more than 100 prefixes.
const HORIZON: f64 = 5400.0;
/// Square-wave phase length and rates (records/s).
const PHASE: f64 = 180.0;
const HIGH: f64 = 2880.0;
const LOW: f64 = 1080.0;
/// Every fourth high phase is an overload burst beyond what the
/// parallelism cap can absorb, so the shedder engages.
const BURST: f64 = 2.5;
/// The worker hosting task 0 crashes, and returns later.
const CRASH_AT: f64 = 1000.0;
const RESTORE_AT: f64 = 1060.0;
/// The plan model goes stale late in the run, so the governor rolls
/// canaries back.
const SKEW_AT: f64 = 4700.0;
const SKEW_FACTOR: f64 = 3.5;
/// Retained records per key group, sizing migrated state.
const RETAINED: f64 = 2e5;
const LOOP_SEED: u64 = 17;

/// Everything a live or recovered loop is built from.
struct Scenario {
    query: Query,
    cluster: Cluster,
    schedule: RateSchedule,
    /// The worker the crash fault hits.
    victim: WorkerId,
}

fn schedule() -> RateSchedule {
    let phases = (HORIZON / PHASE).ceil() as usize;
    RateSchedule::Steps(
        (0..phases)
            .map(|k| {
                let rate = match k % 8 {
                    6 => HIGH * BURST,
                    k if k % 2 == 0 => HIGH,
                    _ => LOW,
                };
                (k as f64 * PHASE, rate)
            })
            .collect(),
    )
}

fn ds2() -> Ds2Config {
    Ds2Config {
        activation_period: 90.0,
        policy_interval: WINDOW,
        max_parallelism: 8,
        headroom: 1.0,
    }
}

fn sim() -> SimConfig {
    SimConfig {
        duration: 1.0,
        warmup: 0.0,
        noise: 0.03,
        ..SimConfig::default()
    }
}

impl Scenario {
    fn new() -> Res<Scenario> {
        let mut s = Scenario {
            query: q3_inf().with_parallelism(&[1; 5])?,
            cluster: Cluster::homogeneous(6, WorkerSpec::r5d_xlarge(8))?,
            schedule: schedule(),
            victim: WorkerId(0),
        };
        let caps = CapsStrategy::default();
        let victim = s.fresh(&caps)?.placement().worker_of(TaskId(0));
        s.victim = victim;
        Ok(s)
    }

    fn fresh<'a>(&'a self, strategy: &'a dyn PlacementStrategy) -> Res<ClosedLoop<'a>> {
        Ok(ClosedLoop::new(
            &self.query,
            &self.cluster,
            strategy,
            ds2(),
            sim(),
            self.schedule.clone(),
            LOOP_SEED,
        )?)
    }

    /// Attaches faults, governor, shedder, recovery, migration and a
    /// fresh in-memory journal — identically to live and recovered loops.
    fn attach<'a>(
        &self,
        lp: ClosedLoop<'a>,
    ) -> Res<(ClosedLoop<'a>, capsys_util::journal::SharedBuf)> {
        let faults = FaultPlan::new(vec![
            FaultEvent {
                time: CRASH_AT,
                kind: FaultKind::Crash(self.victim),
            },
            FaultEvent {
                time: RESTORE_AT,
                kind: FaultKind::Restore(self.victim),
            },
        ])?
        .with_model_skew(ModelSkew {
            time: SKEW_AT,
            factor: SKEW_FACTOR,
        })?;
        let (journal, buf) = DecisionJournal::in_memory();
        let lp = lp
            .with_fault_plan(faults)?
            .with_guard(GuardConfig::default())?
            .with_shedding(ShedConfig::default())?
            .with_recovery(RecoveryConfig::default())
            .with_state_transfer(RETAINED)?
            .with_incremental_migration(MigrationConfig {
                epsilon: 0.05,
                wave_size: 1,
            })?
            .with_journal(journal)?;
        Ok((lp, buf))
    }
}

/// The live run: its journal, its trace, and the loop's state after
/// every window.
struct Live {
    window_ms: Vec<f64>,
    /// Whether the window journaled a decision.
    reconf: Vec<bool>,
    /// `(epoch, assignment)` at t = 0 and after every window.
    states: Vec<(u64, Vec<usize>)>,
    trace_json: String,
    journal: String,
    goodput_frac: f64,
}

fn state(lp: &ClosedLoop<'_>) -> (u64, Vec<usize>) {
    (
        lp.epoch(),
        lp.placement().assignment().iter().map(|w| w.0).collect(),
    )
}

fn live(s: &Scenario, strategy: &dyn PlacementStrategy) -> Res<Live> {
    let (mut lp, buf) = s.attach(s.fresh(strategy)?)?;
    let mut out = Live {
        window_ms: Vec::new(),
        reconf: Vec::new(),
        states: vec![state(&lp)],
        trace_json: String::new(),
        journal: String::new(),
        goodput_frac: 0.0,
    };
    let (mut goodput, mut target) = (0.0, 0.0);
    while lp.time() < HORIZON - 1e-9 {
        let bytes = buf.contents().len();
        let t = Instant::now();
        let report = lp.step(WINDOW)?;
        out.window_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.reconf.push(buf.contents().len() > bytes);
        goodput += report.avg_throughput * WINDOW;
        target += report.avg_target * WINDOW;
        out.states.push(state(&lp));
    }
    out.trace_json = lp.into_trace()?.to_json().to_string();
    out.journal = buf.text();
    out.goodput_frac = goodput / target;
    Ok(out)
}

/// One crash recovery from a journal prefix.
struct Recovered<'a> {
    lp: ClosedLoop<'a>,
    buf: capsys_util::journal::SharedBuf,
    /// Rebuilding the loop from the journal, seconds.
    build_s: f64,
    /// Stepping it to the kill time, seconds.
    replay_s: f64,
}

fn recover<'a>(
    s: &'a Scenario,
    strategy: &'a dyn PlacementStrategy,
    prefix: &str,
    tail: f64,
) -> Res<Recovered<'a>> {
    let t = Instant::now();
    let lp = ClosedLoop::recover_from_journal(
        &s.query,
        &s.cluster,
        strategy,
        ds2(),
        sim(),
        s.schedule.clone(),
        prefix,
    )?;
    let (mut lp, buf) = s.attach(lp)?;
    let build_s = t.elapsed().as_secs_f64();
    while lp.time() < tail - 1e-9 {
        lp.step(WINDOW)?;
    }
    Ok(Recovered {
        lp,
        buf,
        build_s,
        replay_s: t.elapsed().as_secs_f64() - build_s,
    })
}

/// The kill points: `prefixes[k]` is the journal a controller killed at
/// simulated time `tails[k]`, right after record `k`, leaves behind.
struct Kills {
    prefixes: Vec<String>,
    tails: Vec<f64>,
    records: Vec<DecisionRecord>,
}

impl Kills {
    fn new(journal: &str) -> Res<Kills> {
        let records = parse_journal(journal)?.records;
        let lines: Vec<&str> = journal.lines().collect();
        if lines.len() != records.len() {
            return Err(format!("{} journal lines, {} records", lines.len(), records.len()).into());
        }
        let prefix = |n: usize| {
            lines[..n]
                .iter()
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        };
        Ok(Kills {
            prefixes: (1..=records.len()).map(prefix).collect(),
            tails: records.iter().map(DecisionRecord::time).collect(),
            records,
        })
    }
}

/// Timings of one kill sweep.
#[derive(Default)]
struct Sweep {
    /// Recovery wall time per kill point, ms, in sweep order.
    recover_ms: Vec<f64>,
    build_s: f64,
    replay_s: f64,
    /// Simulated seconds replayed.
    replay_sim_s: f64,
    /// Digest of every recovered `(epoch, assignment)`, in kill-point order.
    digest: u64,
}

/// Kills the controller at every kill point, in `order`, and checks each
/// recovered loop against the live run at the kill time.
fn sweep(
    s: &Scenario,
    strategy: &dyn PlacementStrategy,
    live: &Live,
    kills: &Kills,
    order: &[usize],
    tally: &mut Tally,
) -> Res<Sweep> {
    let mut out = Sweep::default();
    let mut states = vec![None; kills.prefixes.len()];
    for &k in order {
        let r = recover(s, strategy, &kills.prefixes[k], kills.tails[k])?;
        out.recover_ms.push((r.build_s + r.replay_s) * 1e3);
        out.build_s += r.build_s;
        out.replay_s += r.replay_s;
        out.replay_sim_s += kills.tails[k];
        let got = state(&r.lp);
        let want = &live.states[(kills.tails[k] / WINDOW).round() as usize];
        tally.check(got == *want, || {
            format!(
                "kill point {k}: recovered epoch or placement differs from the live run's \
                 at t = {} s",
                kills.tails[k]
            )
        });
        states[k] = Some(got);
    }
    let mut d = Digest::default();
    for (epoch, assignment) in states.iter().flatten() {
        d.u64(*epoch).usizes(assignment);
    }
    out.digest = d.value();
    Ok(out)
}

/// Kill points whose recovery is run to the horizon and compared byte
/// for byte: the first rollback, shed and migration, and the last record.
fn full_checks(kills: &Kills) -> Vec<usize> {
    let first = |f: fn(&DecisionRecord) -> bool| kills.records.iter().position(f);
    let mut ks: Vec<usize> = [
        first(|r| matches!(r, DecisionRecord::Rollback { .. })),
        first(|r| matches!(r, DecisionRecord::Shed { .. })),
        first(|r| matches!(r, DecisionRecord::MigratePrepare { .. })),
        Some(kills.records.len() - 1),
    ]
    .into_iter()
    .flatten()
    .collect();
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn check_full(s: &Scenario, live: &Live, kills: &Kills, tally: &mut Tally) -> Res<()> {
    let strategy = CapsStrategy::default();
    for k in full_checks(kills) {
        let mut r = recover(s, &strategy, &kills.prefixes[k], kills.tails[k])?;
        while r.lp.time() < HORIZON - 1e-9 {
            r.lp.step(WINDOW)?;
        }
        let trace = r.lp.into_trace()?.to_json().to_string();
        tally.check(
            trace == live.trace_json && r.buf.text() == live.journal,
            || format!("kill after record {k}: recovered trace or journal diverged"),
        );
    }
    Ok(())
}

/// Record kinds in the journal, for the summary.
fn kinds(records: &[DecisionRecord]) -> Vec<Metric> {
    let count = |f: fn(&DecisionRecord) -> bool| records.iter().filter(|r| f(r)).count() as f64;
    vec![
        ("records", records.len() as f64, "count"),
        (
            "prepares",
            count(|r| matches!(r, DecisionRecord::Prepare { .. })),
            "count",
        ),
        (
            "rollbacks",
            count(|r| matches!(r, DecisionRecord::Rollback { .. })),
            "count",
        ),
        (
            "sheds",
            count(|r| matches!(r, DecisionRecord::Shed { .. })),
            "count",
        ),
        (
            "migrate_prepares",
            count(|r| matches!(r, DecisionRecord::MigratePrepare { .. })),
            "count",
        ),
        (
            "migrate_steps",
            count(|r| matches!(r, DecisionRecord::MigrateStep { .. })),
            "count",
        ),
        (
            "retries",
            count(|r| matches!(r, DecisionRecord::Retry { .. })),
            "count",
        ),
    ]
}

/// The plans the live run deployed, from its journal.
fn deployments(s: &Scenario, records: &[DecisionRecord]) -> Res<Vec<Deployed>> {
    let mut out = Vec::new();
    for r in records {
        let (parallelism, assignment, rate) = match r {
            DecisionRecord::Init {
                parallelism,
                assignment,
                ..
            } => (parallelism, assignment, s.schedule.rate_at(0.0)),
            DecisionRecord::Prepare {
                parallelism,
                assignment,
                rate,
                ..
            }
            | DecisionRecord::MigratePrepare {
                parallelism,
                assignment,
                rate,
                ..
            } => (parallelism, assignment, *rate),
            DecisionRecord::Rollback {
                parallelism,
                assignment,
                time,
                ..
            } => (parallelism, assignment, s.schedule.rate_at(*time)),
            _ => continue,
        };
        out.push(Deployed {
            query: s.query.with_parallelism(parallelism)?,
            cluster: s.cluster.clone(),
            placement: capsys_model::Placement::new(
                assignment.iter().map(|&w| WorkerId(w)).collect(),
            ),
            rate: rate.max(1.0),
        });
    }
    Ok(out)
}

pub fn run(args: &Args, started: Instant) -> Res<Report> {
    let mut tally = Tally::default();
    let strategy = CapsStrategy::default();
    let (mut setup_s, mut passes) = (Vec::new(), Vec::new());
    let mut lives: Vec<Live> = Vec::new();
    // The scenario, the kill points and their order, and the first sweep's digest.
    let mut first: Option<(Scenario, Kills, Vec<usize>, u64)> = None;
    loop {
        // Set-up: build the scenario and run it live, writing the journal.
        let t = if passes.is_empty() {
            started
        } else {
            Instant::now()
        };
        let s = Scenario::new()?;
        let l = live(&s, &strategy)?;
        setup_s.push(secs(t));
        let sw = match &first {
            None => {
                let kills = Kills::new(&l.journal)?;
                let mut order: Vec<usize> = (0..kills.prefixes.len()).collect();
                order.shuffle(&mut SmallRng::seed_from_u64(args.seed));
                let sw = sweep(&s, &strategy, &l, &kills, &order, &mut tally)?;
                check_full(&s, &l, &kills, &mut tally)?;
                first = Some((s, kills, order, sw.digest));
                sw
            }
            Some((_, kills, order, d)) => {
                tally.check(
                    l.journal == lives[0].journal && l.trace_json == lives[0].trace_json,
                    || "two live runs of the same scenario diverged".into(),
                );
                let sw = sweep(&s, &strategy, &l, kills, order, &mut tally)?;
                tally.check(sw.digest == *d, || {
                    "a later sweep recovered differently".into()
                });
                sw
            }
        };
        tally.ops(sw.recover_ms.len());
        passes.push(sw.recover_ms);
        lives.push(l);
        if !more(&passes, args.seconds)? {
            break;
        }
    }
    let (s, kills, order, sweep_digest) = first.expect("at least one pass ran");
    let live0 = &lives[0];
    let mut digest = Digest::default();
    digest.str(&live0.trace_json).str(&live0.journal);
    digest.u64(sweep_digest);

    // Every live run steps the same windows, so each window's best time
    // over the live runs, like each recovery's over the passes.
    let recover_ms = best_of(&passes)?;
    let windows = best_of(&lives.iter().map(|l| l.window_ms.clone()).collect::<Vec<_>>())?;
    let split = |reconf: bool| -> Vec<f64> {
        windows
            .iter()
            .zip(&live0.reconf)
            .filter(|(_, &r)| r == reconf)
            .map(|(&ms, _)| ms)
            .collect()
    };
    let (reconf_ms, plain_ms) = (split(true), split(false));
    let mut summary: Vec<Metric> = vec![
        ("passes", passes.len() as f64, "count"),
        ("goodput_frac", live0.goodput_frac, "frac"),
        ("recover_ms_p50", pct_or_nan(&recover_ms, 50), "ms"),
        ("recover_ms_p90", pct_or_nan(&recover_ms, 90), "ms"),
        ("window_ms_p50", pct_or_nan(&windows, 50), "ms"),
        ("window_ms_p90", pct_or_nan(&windows, 90), "ms"),
        ("plain_window_ms_p50", pct_or_nan(&plain_ms, 50), "ms"),
        ("reconf_windows", reconf_ms.len() as f64, "count"),
        ("reconf_ms_p50", pct_or_nan(&reconf_ms, 50), "ms"),
        ("sim_s_per_wall_s", HORIZON / pass_seconds(&windows), "x"),
    ];
    summary.extend(kinds(&kills.records));

    let metrics = if args.trace {
        let layers = Rc::new(Layers::default());
        let traced = TracedCaps {
            config: strategy.config.clone(),
            layers: layers.clone(),
        };
        let t = Instant::now();
        let traced_live = live(&s, &traced)?;
        let live_s = secs(t);
        tally.check(traced_live.journal == live0.journal, || {
            "the traced live run diverged".into()
        });
        let sw = sweep(&s, &traced, live0, &kills, &order, &mut tally)?;
        tally.check(sw.digest == sweep_digest, || {
            "the traced sweep diverged".into()
        });
        let sweep_s = sw.build_s + sw.replay_s;
        let timed_s = live_s + sweep_s;
        let mut report = LayerReport::default();
        layers.fill(&mut report, timed_s);
        let stepped_s = pass_seconds(&traced_live.window_ms) + sw.replay_s;
        report.step_share = (stepped_s - layers.placement_s()) / timed_s;
        report.recover_build_frac = sw.build_s / sweep_s;
        report.replay_frac = sw.replay_s / sweep_s;
        report.replay_sim_s_per_wall_s = sw.replay_sim_s / sw.replay_s;
        report.trace_overhead_frac = sweep_s / median_pass_seconds(&passes) - 1.0;
        report.probes = probe(
            &deployments(&s, &kills.records)?,
            std::slice::from_ref(&live0.journal),
        )?;
        report.metrics()
    } else {
        end_to_end(&setup_s, &passes, live0.goodput_frac)?
    };
    Ok(Report {
        tally,
        digest: digest.value(),
        summary,
        metrics,
    })
}
