//! The controller's write-ahead decision journal.
//!
//! Every decision the closed loop takes — the initial deployment, each
//! two-phase reconfiguration (`Prepare` then `Commit`), and each failed
//! recovery attempt (`Retry`) — is journaled *before* it takes effect,
//! using the checksummed JSON-lines framing of `capsys_util::journal`.
//! Records carry everything replay needs to reproduce the decision
//! without re-running the placement search: the chosen parallelism and
//! assignment, the ladder rung, the schedule offset (as the decision
//! time), and the controller RNG state *after* the search.
//!
//! The protocol invariants replay relies on:
//!
//! * records appear in decision order with contiguous frame numbers;
//! * the first record is always [`DecisionRecord::Init`];
//! * every applied reconfiguration is a `Prepare(epoch)` immediately
//!   followed by `Commit(epoch)`; a `Prepare` followed by a `Retry` was
//!   *abandoned* (the deployment step failed and the controller backed
//!   off); a `Prepare` at the journal tail is *in doubt* and is rolled
//!   forward on recovery (deploying it is idempotent and deterministic);
//! * a governor rollback is journaled as `Rollback(epoch)` followed by
//!   `Commit(epoch)` — structurally the prepare phase of a two-phase
//!   reconfiguration that restores the last-known-good plan, with the
//!   same tail semantics as `Prepare` (a tail `Rollback` rolls forward);
//! * an overload-shedding change is journaled as `Shed(epoch)` followed
//!   by `Commit(epoch)` — the shed fraction is cluster state (it gates
//!   admitted traffic at the sources), so it moves through the same
//!   two-phase, epoch-fenced protocol; a tail `Shed` rolls forward;
//! * epochs increase strictly: `Init` is epoch 0, the first
//!   reconfiguration epoch 1, and so on; `Rollback` burns a fresh epoch
//!   like any other reconfiguration.
//!
//! RNG state and the run seed are encoded as 16-digit hex strings, not
//! JSON numbers: the JSON layer stores numbers as `f64`, which is exact
//! only to 2^53, and a single flipped low bit in restored RNG state
//! would silently fork the replayed run.

use std::io::Write;

use capsys_placement::SearchDescriptor;
use capsys_util::journal::{read_journal, JournalWriter, SharedBuf};
use capsys_util::json::Json;

use crate::recovery::LadderRung;
use crate::ControllerError;

/// Why a reconfiguration was initiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedeployReason {
    /// DS2 changed the parallelism recommendation.
    Scaling,
    /// The failure detector demanded a re-placement on the survivors.
    Recovery,
}

impl RedeployReason {
    fn name(&self) -> &'static str {
        match self {
            RedeployReason::Scaling => "scaling",
            RedeployReason::Recovery => "recovery",
        }
    }

    fn from_name(name: &str) -> Option<RedeployReason> {
        match name {
            "scaling" => Some(RedeployReason::Scaling),
            "recovery" => Some(RedeployReason::Recovery),
            _ => None,
        }
    }
}

/// One journaled controller decision.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionRecord {
    /// The initial deployment (epoch 0): enough to rebuild the loop
    /// without re-running the initial placement search.
    Init {
        /// The run's RNG seed.
        seed: u64,
        /// Query name, to reject replay against the wrong job.
        query: String,
        /// Cluster worker count, likewise.
        workers: usize,
        /// Initial per-operator parallelism.
        parallelism: Vec<usize>,
        /// Initial task-to-worker assignment.
        assignment: Vec<usize>,
        /// RNG state after the initial placement search.
        rng: [u64; 4],
    },
    /// Phase one of a reconfiguration: journaled before the simulator
    /// is touched.
    Prepare {
        /// The reconfiguration's fencing epoch.
        epoch: u64,
        /// Simulated decision time (doubles as the schedule offset of
        /// the replacement simulation).
        time: f64,
        /// Why the reconfiguration happened.
        reason: RedeployReason,
        /// The new per-operator parallelism.
        parallelism: Vec<usize>,
        /// The new task-to-worker assignment.
        assignment: Vec<usize>,
        /// The ladder rung that produced the plan.
        rung: LadderRung,
        /// The aggregate input rate the plan was sized for.
        rate: f64,
        /// RNG state after the placement search.
        rng: [u64; 4],
        /// How the placement search was configured (backend, seed, node
        /// budget), when the strategy ran one. `None` for searchless
        /// strategies and for journals written before this field
        /// existed; with it, an auditor can re-run the identical search
        /// and re-derive the journaled assignment byte-for-byte.
        search: Option<SearchDescriptor>,
    },
    /// Phase two: the reconfiguration of `epoch` was applied.
    Commit {
        /// The epoch being committed.
        epoch: u64,
        /// Simulated commit time.
        time: f64,
    },
    /// Phase one of a governor rollback: the canary plan of
    /// `from_epoch` regressed during probation, and the controller is
    /// restoring the last-known-good plan recorded here. Journaled
    /// before the simulator is touched, followed by a `Commit` of the
    /// same (fresh) epoch once applied — so a kill between the two
    /// rolls forward on recovery exactly like a torn `Prepare`.
    Rollback {
        /// The restore deployment's fencing epoch.
        epoch: u64,
        /// Simulated decision time.
        time: f64,
        /// Epoch of the regressed canary deployment being undone.
        from_epoch: u64,
        /// Per-operator parallelism of the restored plan.
        parallelism: Vec<usize>,
        /// Task-to-worker assignment of the restored plan.
        assignment: Vec<usize>,
        /// RNG state at the decision (rollback runs no search, but the
        /// state is journaled so replay restores it unconditionally).
        rng: [u64; 4],
    },
    /// Phase one of an incremental migration: the controller picked a
    /// minimum-movement target plan and will move `moved` tasks in
    /// waves of `wave_len`, pausing only the wave's tasks while their
    /// state drains. Journaled before the simulator is touched. Like
    /// `Prepare`, a `MigratePrepare` followed by a `Retry` was
    /// abandoned, and one at the journal tail rolls forward.
    MigratePrepare {
        /// The migration's fencing epoch.
        epoch: u64,
        /// Simulated decision time.
        time: f64,
        /// Why the reconfiguration happened.
        reason: RedeployReason,
        /// Per-operator parallelism (unchanged by migration, journaled
        /// for self-containment).
        parallelism: Vec<usize>,
        /// The TARGET task-to-worker assignment.
        assignment: Vec<usize>,
        /// The ladder rung that produced the target plan.
        rung: LadderRung,
        /// Task ids being moved, in ascending order. Waves are
        /// contiguous `wave_len`-sized chunks of this list; per-task
        /// byte counts are re-derived from the deterministic state
        /// model, not journaled.
        moved: Vec<usize>,
        /// Tasks per wave.
        wave_len: usize,
        /// The aggregate input rate the plan was sized for.
        rate: f64,
        /// RNG state after the placement search.
        rng: [u64; 4],
        /// How the placement search was configured; see
        /// [`DecisionRecord::Prepare::search`].
        search: Option<SearchDescriptor>,
    },
    /// Wave `wave` of the migration of `epoch` finished draining and
    /// its tasks now run on their target workers.
    MigrateStep {
        /// The migration's epoch.
        epoch: u64,
        /// Zero-based wave index.
        wave: usize,
        /// Simulated completion time.
        time: f64,
    },
    /// Phase two: every wave of the migration of `epoch` was applied.
    MigrateCommit {
        /// The epoch being committed.
        epoch: u64,
        /// Simulated commit time.
        time: f64,
    },
    /// Phase one of an overload-shedding change: the admission
    /// controller decided to shed `fraction` of offered source traffic
    /// (0 restores full admission). Journaled before the simulator is
    /// touched, followed by a `Commit` of the same (fresh) epoch once
    /// applied — a kill between the two rolls forward on recovery
    /// exactly like a torn `Prepare`.
    Shed {
        /// The shed change's fencing epoch.
        epoch: u64,
        /// Simulated decision time.
        time: f64,
        /// Fraction of offered traffic dropped at the sources, in
        /// `[0, 1)`.
        fraction: f64,
        /// RNG state at the decision (shedding runs no search, but the
        /// state is journaled so replay restores it unconditionally).
        rng: [u64; 4],
    },
    /// A recovery re-placement attempt failed; the controller backed
    /// off (or gave up).
    Retry {
        /// Simulated time of the failed attempt.
        time: f64,
        /// Failed attempts so far for the pending recovery.
        attempts: usize,
        /// Whether the controller gave up (retry budget exhausted).
        gave_up: bool,
        /// When the next attempt is due, unless it gave up.
        next_attempt_at: Option<f64>,
        /// RNG state after the failed placement search.
        rng: [u64; 4],
    },
}

fn hex_u64(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn u64_from_hex(v: Option<&Json>, what: &str) -> Result<u64, ControllerError> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing hex field `{what}`")))?;
    u64::from_str_radix(s, 16).map_err(|_| bad(format!("field `{what}` is not a hex u64: {s}")))
}

fn rng_to_json(s: [u64; 4]) -> Json {
    Json::Arr(s.iter().map(|&w| hex_u64(w)).collect())
}

fn rng_from_json(v: Option<&Json>) -> Result<[u64; 4], ControllerError> {
    let arr = v
        .and_then(Json::as_array)
        .ok_or_else(|| bad("missing `rng` state"))?;
    if arr.len() != 4 {
        return Err(bad(format!(
            "rng state has {} words, expected 4",
            arr.len()
        )));
    }
    let mut out = [0u64; 4];
    for (i, w) in arr.iter().enumerate() {
        out[i] = u64_from_hex(Some(w), "rng")?;
    }
    Ok(out)
}

/// Encodes a search descriptor. The `backend` tag is always `"dfs"`,
/// the one search there is; it keeps journals byte-identical to those
/// written when a search could also name a seeded backend. The node
/// budget fits a JSON number (budgets beyond 2^53 nodes are not
/// representable and not meaningful).
fn search_to_json(s: &SearchDescriptor) -> Json {
    let mut fields = vec![("backend".to_string(), Json::Str("dfs".into()))];
    if let Some(budget) = s.node_budget {
        fields.push(("node_budget".into(), Json::Num(budget as f64)));
    }
    Json::Obj(fields)
}

/// Decodes the optional `search` field. Absent (including journals
/// written before the field existed) is `None`; present-but-malformed
/// is an error, not a silent skip, and so is a search this build cannot
/// re-run: a backend other than `"dfs"`, or a `seed`.
fn search_from_json(v: Option<&Json>) -> Result<Option<SearchDescriptor>, ControllerError> {
    let Some(obj) = v else {
        return Ok(None);
    };
    if matches!(obj, Json::Null) {
        return Ok(None);
    }
    let backend = text(obj.get("backend"), "search.backend")?;
    if backend != "dfs" {
        return Err(bad(format!("unknown search backend `{backend}`")));
    }
    if obj.get("seed").is_some() {
        return Err(bad("field `search.seed` names no search of this build"));
    }
    let node_budget = match obj.get("node_budget") {
        Some(Json::Null) | None => None,
        some => Some(integer(some, "search.node_budget")? as usize),
    };
    Ok(Some(SearchDescriptor { node_budget }))
}

fn usizes_to_json(v: &[usize]) -> Json {
    Json::Arr(v.iter().map(|&x| Json::Num(x as f64)).collect())
}

fn usizes_from_json(v: Option<&Json>, what: &str) -> Result<Vec<usize>, ControllerError> {
    let arr = v
        .and_then(Json::as_array)
        .ok_or_else(|| bad(format!("missing array field `{what}`")))?;
    arr.iter()
        .map(|x| {
            let n = x
                .as_f64()
                .ok_or_else(|| bad(format!("non-numeric entry in `{what}`")))?;
            if n < 0.0 || n.fract() != 0.0 || n > u32::MAX as f64 {
                return Err(bad(format!("entry {n} in `{what}` is not a small integer")));
            }
            Ok(n as usize)
        })
        .collect()
}

fn num(v: Option<&Json>, what: &str) -> Result<f64, ControllerError> {
    v.and_then(Json::as_f64)
        .ok_or_else(|| bad(format!("missing numeric field `{what}`")))
}

fn integer(v: Option<&Json>, what: &str) -> Result<u64, ControllerError> {
    let n = num(v, what)?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return Err(bad(format!(
            "field `{what}` is not a non-negative integer: {n}"
        )));
    }
    Ok(n as u64)
}

fn text<'j>(v: Option<&'j Json>, what: &str) -> Result<&'j str, ControllerError> {
    v.and_then(Json::as_str)
        .ok_or_else(|| bad(format!("missing string field `{what}`")))
}

fn bad(msg: impl Into<String>) -> ControllerError {
    ControllerError::Journal(msg.into())
}

impl DecisionRecord {
    /// The simulated time the decision was taken (`Init` is 0).
    pub fn time(&self) -> f64 {
        match self {
            DecisionRecord::Init { .. } => 0.0,
            DecisionRecord::Prepare { time, .. }
            | DecisionRecord::Commit { time, .. }
            | DecisionRecord::Rollback { time, .. }
            | DecisionRecord::MigratePrepare { time, .. }
            | DecisionRecord::MigrateStep { time, .. }
            | DecisionRecord::MigrateCommit { time, .. }
            | DecisionRecord::Shed { time, .. }
            | DecisionRecord::Retry { time, .. } => *time,
        }
    }

    /// Encodes the record as a JSON payload (the `data` of one journal
    /// frame).
    pub fn to_json(&self) -> Json {
        match self {
            DecisionRecord::Init {
                seed,
                query,
                workers,
                parallelism,
                assignment,
                rng,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("init".into())),
                ("seed".into(), hex_u64(*seed)),
                ("query".into(), Json::Str(query.clone())),
                ("workers".into(), Json::Num(*workers as f64)),
                ("parallelism".into(), usizes_to_json(parallelism)),
                ("assignment".into(), usizes_to_json(assignment)),
                ("rng".into(), rng_to_json(*rng)),
            ]),
            DecisionRecord::Prepare {
                epoch,
                time,
                reason,
                parallelism,
                assignment,
                rung,
                rate,
                rng,
                search,
            } => {
                let mut fields = vec![
                    ("type".into(), Json::Str("prepare".into())),
                    ("epoch".into(), Json::Num(*epoch as f64)),
                    ("time".into(), Json::Num(*time)),
                    ("reason".into(), Json::Str(reason.name().into())),
                    ("parallelism".into(), usizes_to_json(parallelism)),
                    ("assignment".into(), usizes_to_json(assignment)),
                    ("rung".into(), Json::Str(rung.name().into())),
                    ("rate".into(), Json::Num(*rate)),
                    ("rng".into(), rng_to_json(*rng)),
                ];
                if let Some(s) = search {
                    fields.push(("search".into(), search_to_json(s)));
                }
                Json::Obj(fields)
            }
            DecisionRecord::Commit { epoch, time } => Json::Obj(vec![
                ("type".into(), Json::Str("commit".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("time".into(), Json::Num(*time)),
            ]),
            DecisionRecord::Rollback {
                epoch,
                time,
                from_epoch,
                parallelism,
                assignment,
                rng,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("rollback".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("time".into(), Json::Num(*time)),
                ("from_epoch".into(), Json::Num(*from_epoch as f64)),
                ("parallelism".into(), usizes_to_json(parallelism)),
                ("assignment".into(), usizes_to_json(assignment)),
                ("rng".into(), rng_to_json(*rng)),
            ]),
            DecisionRecord::MigratePrepare {
                epoch,
                time,
                reason,
                parallelism,
                assignment,
                rung,
                moved,
                wave_len,
                rate,
                rng,
                search,
            } => {
                let mut fields = vec![
                    ("type".into(), Json::Str("migrate_prepare".into())),
                    ("epoch".into(), Json::Num(*epoch as f64)),
                    ("time".into(), Json::Num(*time)),
                    ("reason".into(), Json::Str(reason.name().into())),
                    ("parallelism".into(), usizes_to_json(parallelism)),
                    ("assignment".into(), usizes_to_json(assignment)),
                    ("rung".into(), Json::Str(rung.name().into())),
                    ("moved".into(), usizes_to_json(moved)),
                    ("wave_len".into(), Json::Num(*wave_len as f64)),
                    ("rate".into(), Json::Num(*rate)),
                    ("rng".into(), rng_to_json(*rng)),
                ];
                if let Some(s) = search {
                    fields.push(("search".into(), search_to_json(s)));
                }
                Json::Obj(fields)
            }
            DecisionRecord::MigrateStep { epoch, wave, time } => Json::Obj(vec![
                ("type".into(), Json::Str("migrate_step".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("wave".into(), Json::Num(*wave as f64)),
                ("time".into(), Json::Num(*time)),
            ]),
            DecisionRecord::MigrateCommit { epoch, time } => Json::Obj(vec![
                ("type".into(), Json::Str("migrate_commit".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("time".into(), Json::Num(*time)),
            ]),
            DecisionRecord::Shed {
                epoch,
                time,
                fraction,
                rng,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("shed".into())),
                ("epoch".into(), Json::Num(*epoch as f64)),
                ("time".into(), Json::Num(*time)),
                ("fraction".into(), Json::Num(*fraction)),
                ("rng".into(), rng_to_json(*rng)),
            ]),
            DecisionRecord::Retry {
                time,
                attempts,
                gave_up,
                next_attempt_at,
                rng,
            } => Json::Obj(vec![
                ("type".into(), Json::Str("retry".into())),
                ("time".into(), Json::Num(*time)),
                ("attempts".into(), Json::Num(*attempts as f64)),
                ("gave_up".into(), Json::Bool(*gave_up)),
                (
                    "next_attempt_at".into(),
                    match next_attempt_at {
                        Some(t) => Json::Num(*t),
                        None => Json::Null,
                    },
                ),
                ("rng".into(), rng_to_json(*rng)),
            ]),
        }
    }

    /// Decodes a record from a journal frame payload.
    pub fn from_json(v: &Json) -> Result<DecisionRecord, ControllerError> {
        match text(v.get("type"), "type")? {
            "init" => Ok(DecisionRecord::Init {
                seed: u64_from_hex(v.get("seed"), "seed")?,
                query: text(v.get("query"), "query")?.to_string(),
                workers: integer(v.get("workers"), "workers")? as usize,
                parallelism: usizes_from_json(v.get("parallelism"), "parallelism")?,
                assignment: usizes_from_json(v.get("assignment"), "assignment")?,
                rng: rng_from_json(v.get("rng"))?,
            }),
            "prepare" => Ok(DecisionRecord::Prepare {
                epoch: integer(v.get("epoch"), "epoch")?,
                time: num(v.get("time"), "time")?,
                reason: RedeployReason::from_name(text(v.get("reason"), "reason")?)
                    .ok_or_else(|| bad("unknown redeploy reason"))?,
                parallelism: usizes_from_json(v.get("parallelism"), "parallelism")?,
                assignment: usizes_from_json(v.get("assignment"), "assignment")?,
                rung: LadderRung::from_name(text(v.get("rung"), "rung")?)
                    .ok_or_else(|| bad("unknown ladder rung"))?,
                rate: num(v.get("rate"), "rate")?,
                rng: rng_from_json(v.get("rng"))?,
                search: search_from_json(v.get("search"))?,
            }),
            "commit" => Ok(DecisionRecord::Commit {
                epoch: integer(v.get("epoch"), "epoch")?,
                time: num(v.get("time"), "time")?,
            }),
            "rollback" => Ok(DecisionRecord::Rollback {
                epoch: integer(v.get("epoch"), "epoch")?,
                time: num(v.get("time"), "time")?,
                from_epoch: integer(v.get("from_epoch"), "from_epoch")?,
                parallelism: usizes_from_json(v.get("parallelism"), "parallelism")?,
                assignment: usizes_from_json(v.get("assignment"), "assignment")?,
                rng: rng_from_json(v.get("rng"))?,
            }),
            "migrate_prepare" => Ok(DecisionRecord::MigratePrepare {
                epoch: integer(v.get("epoch"), "epoch")?,
                time: num(v.get("time"), "time")?,
                reason: RedeployReason::from_name(text(v.get("reason"), "reason")?)
                    .ok_or_else(|| bad("unknown redeploy reason"))?,
                parallelism: usizes_from_json(v.get("parallelism"), "parallelism")?,
                assignment: usizes_from_json(v.get("assignment"), "assignment")?,
                rung: LadderRung::from_name(text(v.get("rung"), "rung")?)
                    .ok_or_else(|| bad("unknown ladder rung"))?,
                moved: usizes_from_json(v.get("moved"), "moved")?,
                wave_len: integer(v.get("wave_len"), "wave_len")? as usize,
                rate: num(v.get("rate"), "rate")?,
                rng: rng_from_json(v.get("rng"))?,
                search: search_from_json(v.get("search"))?,
            }),
            "migrate_step" => Ok(DecisionRecord::MigrateStep {
                epoch: integer(v.get("epoch"), "epoch")?,
                wave: integer(v.get("wave"), "wave")? as usize,
                time: num(v.get("time"), "time")?,
            }),
            "migrate_commit" => Ok(DecisionRecord::MigrateCommit {
                epoch: integer(v.get("epoch"), "epoch")?,
                time: num(v.get("time"), "time")?,
            }),
            "shed" => {
                let fraction = num(v.get("fraction"), "fraction")?;
                if !fraction.is_finite() || !(0.0..1.0).contains(&fraction) {
                    return Err(bad(format!(
                        "shed fraction must be in [0, 1), got {fraction}"
                    )));
                }
                Ok(DecisionRecord::Shed {
                    epoch: integer(v.get("epoch"), "epoch")?,
                    time: num(v.get("time"), "time")?,
                    fraction,
                    rng: rng_from_json(v.get("rng"))?,
                })
            }
            "retry" => Ok(DecisionRecord::Retry {
                time: num(v.get("time"), "time")?,
                attempts: integer(v.get("attempts"), "attempts")? as usize,
                gave_up: v
                    .get("gave_up")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("missing bool field `gave_up`"))?,
                next_attempt_at: match v.get("next_attempt_at") {
                    Some(Json::Null) | None => None,
                    Some(t) => Some(t.as_f64().ok_or_else(|| bad("bad `next_attempt_at`"))?),
                },
                rng: rng_from_json(v.get("rng"))?,
            }),
            other => Err(bad(format!("unknown decision record type `{other}`"))),
        }
    }
}

/// A decision journal parsed back from its serialized text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedJournal {
    /// The decision records, in order. The first is always `Init`.
    pub records: Vec<DecisionRecord>,
    /// Whether a torn final frame was dropped.
    pub torn: bool,
}

/// The write side of the decision journal: checksummed frames over any
/// `Write` sink, flushed per record.
pub struct DecisionJournal {
    writer: JournalWriter,
}

impl DecisionJournal {
    /// A journal writing to `out`, starting at frame 0.
    pub fn writing_to(out: Box<dyn Write + Send>) -> DecisionJournal {
        DecisionJournal {
            writer: JournalWriter::new(out),
        }
    }

    /// A journal writing to a fresh in-memory buffer; the returned
    /// [`SharedBuf`] stays readable after the journal (and the loop
    /// holding it) is gone — the test analogue of a surviving file.
    pub fn in_memory() -> (DecisionJournal, SharedBuf) {
        let buf = SharedBuf::new();
        (DecisionJournal::writing_to(Box::new(buf.clone())), buf)
    }

    /// A journal appending to the file at `path` (created or truncated).
    pub fn create(path: &std::path::Path) -> Result<DecisionJournal, ControllerError> {
        let file = std::fs::File::create(path)
            .map_err(|e| bad(format!("cannot create journal {}: {e}", path.display())))?;
        Ok(DecisionJournal::writing_to(Box::new(file)))
    }

    /// Appends one decision, flushing the sink. Returns the frame's
    /// sequence number.
    pub fn append(&mut self, rec: &DecisionRecord) -> Result<u64, ControllerError> {
        Ok(self.writer.append(&rec.to_json())?)
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.writer.next_seq()
    }
}

impl std::fmt::Debug for DecisionJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionJournal")
            .field("next_seq", &self.next_seq())
            .finish_non_exhaustive()
    }
}

/// Parses a serialized decision journal, tolerating a torn tail.
pub fn parse_journal(textual: &str) -> Result<ParsedJournal, ControllerError> {
    let outcome = read_journal(textual)?;
    let records = outcome
        .records
        .iter()
        .map(DecisionRecord::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(first) = records.first() {
        if !matches!(first, DecisionRecord::Init { .. }) {
            return Err(bad("journal does not start with an init record"));
        }
    }
    Ok(ParsedJournal {
        records,
        torn: outcome.torn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<DecisionRecord> {
        vec![
            DecisionRecord::Init {
                seed: u64::MAX - 3,
                query: "q1-sliding".into(),
                workers: 6,
                parallelism: vec![1, 2, 3, 1],
                assignment: vec![0, 1, 1, 2, 3, 4, 5],
                rng: [u64::MAX, 1, 0x0123_4567_89AB_CDEF, 42],
            },
            DecisionRecord::Prepare {
                epoch: 1,
                time: 65.0,
                reason: RedeployReason::Recovery,
                parallelism: vec![1, 2, 3, 1],
                assignment: vec![1, 1, 2, 2, 3, 4, 5],
                rung: LadderRung::RelaxedCaps,
                rate: 1234.56,
                rng: [9, 8, 7, 6],
                search: Some(SearchDescriptor {
                    node_budget: Some(50_000),
                }),
            },
            DecisionRecord::Commit {
                epoch: 1,
                time: 65.0,
            },
            DecisionRecord::Rollback {
                epoch: 2,
                time: 85.0,
                from_epoch: 1,
                parallelism: vec![1, 2, 3, 1],
                assignment: vec![0, 1, 1, 2, 3, 4, 5],
                rng: [11, 12, 13, u64::MAX - 7],
            },
            DecisionRecord::MigratePrepare {
                epoch: 3,
                time: 92.5,
                reason: RedeployReason::Recovery,
                parallelism: vec![1, 2, 3, 1],
                assignment: vec![0, 1, 2, 2, 3, 4, 5],
                rung: LadderRung::Caps,
                moved: vec![1, 3, 6],
                wave_len: 2,
                rate: 987.0,
                rng: [21, 22, 23, 24],
                search: Some(SearchDescriptor { node_budget: None }),
            },
            DecisionRecord::MigrateStep {
                epoch: 3,
                wave: 0,
                time: 93.75,
            },
            DecisionRecord::MigrateStep {
                epoch: 3,
                wave: 1,
                time: 95.0,
            },
            DecisionRecord::MigrateCommit {
                epoch: 3,
                time: 95.0,
            },
            DecisionRecord::Shed {
                epoch: 4,
                time: 110.25,
                fraction: 0.375,
                rng: [31, 32, 33, u64::MAX - 11],
            },
            DecisionRecord::Shed {
                epoch: 5,
                time: 140.0,
                fraction: 0.0,
                rng: [41, 42, 43, 44],
            },
            DecisionRecord::Retry {
                time: 70.0,
                attempts: 2,
                gave_up: false,
                next_attempt_at: Some(80.0),
                rng: [5, 5, 5, 5],
            },
            DecisionRecord::Retry {
                time: 90.0,
                attempts: 4,
                gave_up: true,
                next_attempt_at: None,
                rng: [1, 2, 3, 4],
            },
        ]
    }

    #[test]
    fn records_round_trip_through_json() {
        for rec in samples() {
            let back = DecisionRecord::from_json(&rec.to_json()).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn journal_round_trips_through_text() {
        let (mut j, buf) = DecisionJournal::in_memory();
        for (i, rec) in samples().iter().enumerate() {
            assert_eq!(j.append(rec).unwrap(), i as u64);
        }
        let parsed = parse_journal(&buf.text()).unwrap();
        assert!(!parsed.torn);
        assert_eq!(parsed.records, samples());
    }

    #[test]
    fn u64_values_survive_exactly() {
        // f64 would corrupt these; hex framing must not.
        let rec = DecisionRecord::Init {
            seed: (1u64 << 53) + 1,
            query: "q".into(),
            workers: 1,
            parallelism: vec![1],
            assignment: vec![0],
            rng: [u64::MAX, u64::MAX - 1, 1u64 << 63, (1u64 << 53) + 1],
        };
        let back = DecisionRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(rec, back);
    }

    #[test]
    fn prepare_without_search_field_still_parses() {
        // Journals written before the search descriptor existed must
        // keep parsing; the field reads back as `None`.
        let body = r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"]}"#;
        let parsed = DecisionRecord::from_json(&Json::parse(body).unwrap()).unwrap();
        match parsed {
            DecisionRecord::Prepare { search, .. } => assert_eq!(search, None),
            other => panic!("parsed to {other:?}"),
        }
    }

    #[test]
    fn malformed_search_descriptor_is_rejected() {
        for body in [
            // backend missing
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"seed":"07"}}"#,
            // an MCTS search with a non-hex seed
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"backend":"mcts","seed":"zz"}}"#,
            // negative budget
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"backend":"dfs","node_budget":-3}}"#,
            // a seeded MCTS search, which this build cannot re-run
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"backend":"mcts","seed":"feed","node_budget":20000}}"#,
            // an MCTS search without a seed
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"backend":"mcts"}}"#,
            // a seed on the DFS
            r#"{"type":"prepare","epoch":1,"time":5.0,"reason":"scaling","parallelism":[1],"assignment":[0],"rung":"caps","rate":10,"rng":["0","1","2","3"],"search":{"backend":"dfs","seed":"07"}}"#,
        ] {
            assert!(
                matches!(
                    DecisionRecord::from_json(&Json::parse(body).unwrap()),
                    Err(ControllerError::Journal(_))
                ),
                "payload {body} was not rejected"
            );
        }
    }

    #[test]
    fn journal_must_start_with_init() {
        let (mut j, buf) = DecisionJournal::in_memory();
        j.append(&DecisionRecord::Commit {
            epoch: 1,
            time: 5.0,
        })
        .unwrap();
        assert!(parse_journal(&buf.text()).is_err());
    }

    /// A structurally valid WAL frame (correct seq and CRC) around an
    /// arbitrary payload — what a newer or buggy writer might produce.
    fn frame(seq: u64, body: &str) -> String {
        let crc = capsys_util::journal::crc32(body.as_bytes());
        format!("{{\"seq\":{seq},\"crc\":{crc},\"data\":{body}}}\n")
    }

    fn init_body() -> String {
        samples()[0].to_json().to_string()
    }

    #[test]
    fn unknown_record_type_is_a_journal_error() {
        // The frame passes CRC and sequencing; only the decision layer
        // can reject it — and it must do so with an error, not a panic
        // or a silent skip.
        let text = frame(0, &init_body()) + &frame(1, r#"{"type":"defrag","epoch":1}"#);
        match parse_journal(&text) {
            Err(ControllerError::Journal(msg)) => {
                assert!(msg.contains("unknown decision record type"), "{msg}")
            }
            other => panic!("expected a journal error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        let cases: &[&str] = &[
            r#"{"type":"prepare"}"#,
            r#"{"type":"commit","epoch":-1,"time":0}"#,
            r#"{"type":"commit","epoch":1.5,"time":0}"#,
            r#"{"type":"migrate_step","epoch":1,"wave":"x","time":0}"#,
            r#"{"type":"migrate_prepare","epoch":1,"time":0}"#,
            r#"{"type":"migrate_commit","time":0}"#,
            r#"{"type":"shed","epoch":1,"time":0,"rng":["0","0","0","0"]}"#,
            r#"{"type":"shed","epoch":1,"time":0,"fraction":1,"rng":["0","0","0","0"]}"#,
            r#"{"type":"shed","epoch":1,"time":0,"fraction":-0.2,"rng":["0","0","0","0"]}"#,
            r#"{"type":"init","seed":"zz","query":"q","workers":1,"parallelism":[],"assignment":[],"rng":["0","0","0","0"]}"#,
            r#"{"type":"init","seed":"0","query":"q","workers":1,"parallelism":[],"assignment":[],"rng":["0","0"]}"#,
            r#"{"type":"retry","time":0,"attempts":1,"gave_up":"yes","next_attempt_at":null,"rng":["0","0","0","0"]}"#,
            r#"{"type":"prepare","epoch":1,"time":0,"reason":"cosmic-rays","parallelism":[1],"assignment":[0],"rung":"caps","rate":1,"rng":["0","0","0","0"]}"#,
            r#"{"type":null}"#,
            "[1,2,3]",
            "\"prepare\"",
            "null",
        ];
        for body in cases {
            let text = frame(0, &init_body()) + &frame(1, body);
            assert!(
                matches!(parse_journal(&text), Err(ControllerError::Journal(_))),
                "payload {body} was not rejected as a journal error"
            );
        }
    }

    #[test]
    fn fuzzed_record_types_never_panic() {
        use capsys_util::forall;
        use capsys_util::prop::{ints, vec_of, Config};
        // Random lowercase tags with no fields behind them: unknown tags
        // fail the type dispatch, known ones fail their first missing
        // field. Either way parsing must return an error, never panic.
        forall!(
            Config::default().cases(64),
            (chars in vec_of(ints(0usize..26), 1..=12)) => {
                let tag: String = chars.iter().map(|&c| (b'a' + c as u8) as char).collect();
                let text = frame(0, &init_body())
                    + &frame(1, &format!("{{\"type\":\"{tag}\"}}"));
                assert!(matches!(
                    parse_journal(&text),
                    Err(ControllerError::Journal(_))
                ));
            }
        );
    }

    /// Satellite fuzz battery: random single-bit flips and truncations
    /// of a valid multi-record journal. Whatever the damage, parsing
    /// must end in exactly one of two outcomes — a clean
    /// [`ControllerError::Journal`] error, or a successful parse whose
    /// records are a *prefix* of the originals (a torn tail dropped).
    /// It must never panic, and it must never accept an altered or
    /// reordered record: a flipped bit cannot survive the CRC, and a
    /// truncated file cannot resequence what remains.
    #[test]
    fn prop_corrupted_journals_error_cleanly_or_drop_a_clean_tail() {
        use capsys_util::forall;
        use capsys_util::prop::{ints, Config};
        let originals = samples();
        let (mut j, buf) = DecisionJournal::in_memory();
        for rec in &originals {
            j.append(rec).unwrap();
        }
        let pristine = buf.text();
        let check_prefix = |damaged: &str, what: &str| match parse_journal(damaged) {
            Err(ControllerError::Journal(_)) => {}
            Ok(parsed) => {
                assert!(
                    parsed.records.len() <= originals.len()
                        && parsed.records == originals[..parsed.records.len()],
                    "{what}: parse accepted a non-prefix record sequence"
                );
            }
            Err(other) => panic!("{what}: unexpected error class {other}"),
        };
        forall!(
            Config::default().cases(256),
            (
                pos in ints(0usize..1_000_000),
                bit in ints(0usize..8),
                mode in ints(0usize..3),
            ) => {
                match mode {
                    // Single-bit flip anywhere in the file.
                    0 => {
                        let mut bytes = pristine.clone().into_bytes();
                        let at = pos % bytes.len();
                        bytes[at] ^= 1 << bit;
                        let damaged = String::from_utf8_lossy(&bytes).into_owned();
                        check_prefix(&damaged, "bit flip");
                    }
                    // Truncation at an arbitrary byte (crash mid-write).
                    1 => {
                        let cut = pos % (pristine.len() + 1);
                        check_prefix(&pristine[..cut], "truncation");
                    }
                    // Flip inside the torn region of an already
                    // truncated file: damage stacked on damage.
                    _ => {
                        let cut = 1 + pos % pristine.len();
                        let mut bytes = pristine[..cut].as_bytes().to_vec();
                        let at = (pos / 7) % bytes.len();
                        bytes[at] ^= 1 << bit;
                        let damaged = String::from_utf8_lossy(&bytes).into_owned();
                        check_prefix(&damaged, "truncate+flip");
                    }
                }
            }
        );
    }

    #[test]
    fn garbage_payload_is_rejected() {
        assert!(DecisionRecord::from_json(&Json::Obj(vec![(
            "type".into(),
            Json::Str("mystery".into())
        )]))
        .is_err());
        assert!(DecisionRecord::from_json(&Json::Null).is_err());
    }
}
