//! The global fleet arbiter: admission control, deterministic worker-pool
//! assignment, lease grants, and cross-shard overload reconciliation —
//! all journaled to the arbiter's own write-ahead log so an arbiter
//! crash is recoverable by replay.
//!
//! The arbiter is the only component with a fleet-wide view. Shard
//! controllers each govern one tenant job on the pool of workers the
//! arbiter granted them; pools may overlap (that is the point — the
//! fleet is smaller than the sum of every tenant's wish list), and the
//! arbiter reconciles the resulting contention:
//!
//! * **Admission** ([`Arbiter::admit`]) checks slot capacity: every
//!   worker hosts at most `max_tenancy` tenant jobs. A job whose
//!   requested pool cannot be carved from the remaining slots is
//!   rejected — and the rejection journaled, so a recovered arbiter
//!   does not re-admit it by accident.
//! * **Pool assignment** is deterministic: the `requested` workers with
//!   the fewest tenants (ties by worker index) are granted, so the same
//!   admission sequence always yields the same pools.
//! * **Leases** ([`Arbiter::acquire_lease`] / [`Arbiter::renew_lease`])
//!   wrap the [`LeaseTable`]: every grant and renewal is journaled
//!   before it takes effect, so the fencing state survives an arbiter
//!   crash and a recovered arbiter still refuses a zombie's stamps.
//! * **Overload reconciliation** ([`Arbiter::observe_utilization`]):
//!   when a *shared* worker stays above the utilization threshold for
//!   `overload_windows` consecutive windows, the arbiter revokes it
//!   from the lowest-weight tenant sharing it (journaled), and the
//!   fleet applies the revocation via
//!   [`crate::ClosedLoop::revoke_worker`].
//!
//! [`Arbiter::recover`] rebuilds the whole state — pools, tenancy,
//! lease terms — from the log text alone; a corrupted log surfaces as
//! [`ControllerError::Journal`], never as silently wrong state.

use std::io::Write;

use capsys_util::journal::{read_journal, JournalWriter};
use capsys_util::json::{obj, opt, req, Json};

use crate::lease::LeaseTable;
use crate::ControllerError;

/// Static arbiter policy, journaled in the log's `init` record.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterConfig {
    /// Fleet size (workers are `0..num_workers`).
    pub num_workers: usize,
    /// Maximum tenant jobs sharing one worker.
    pub max_tenancy: usize,
    /// Lease validity, simulated seconds.
    pub lease_duration: f64,
    /// Utilization above which a shared worker counts as overloaded.
    pub overload_util: f64,
    /// Consecutive overloaded windows before a revocation fires.
    pub overload_windows: u32,
    /// Pool-size floor: revocation never shrinks a tenant below this.
    pub min_pool: usize,
}

impl Default for ArbiterConfig {
    fn default() -> ArbiterConfig {
        ArbiterConfig {
            num_workers: 0,
            max_tenancy: 2,
            lease_duration: 60.0,
            overload_util: 0.9,
            overload_windows: 3,
            min_pool: 2,
        }
    }
}

impl ArbiterConfig {
    fn validate(&self) -> Result<(), ControllerError> {
        if self.num_workers == 0 {
            return Err(ControllerError::InvalidConfig(
                "arbiter needs at least one worker".into(),
            ));
        }
        if self.max_tenancy == 0 {
            return Err(ControllerError::InvalidConfig(
                "max_tenancy must be at least 1".into(),
            ));
        }
        if !self.overload_util.is_finite() || self.overload_util <= 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "overload_util must be positive and finite, got {}",
                self.overload_util
            )));
        }
        if self.overload_windows == 0 {
            return Err(ControllerError::InvalidConfig(
                "overload_windows must be at least 1".into(),
            ));
        }
        if self.min_pool == 0 {
            return Err(ControllerError::InvalidConfig(
                "min_pool must be at least 1".into(),
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        obj(vec![
            ("kind", Json::Str("init".into())),
            ("num_workers", Json::Num(self.num_workers as f64)),
            ("max_tenancy", Json::Num(self.max_tenancy as f64)),
            ("lease_duration", Json::Num(self.lease_duration)),
            ("overload_util", Json::Num(self.overload_util)),
            ("overload_windows", Json::Num(self.overload_windows as f64)),
            ("min_pool", Json::Num(self.min_pool as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<ArbiterConfig, ControllerError> {
        let get_usize = |key: &str| -> Result<usize, ControllerError> {
            let n: f64 = req(v, key).map_err(|e| ControllerError::Journal(e.to_string()))?;
            Ok(n as usize)
        };
        Ok(ArbiterConfig {
            num_workers: get_usize("num_workers")?,
            max_tenancy: get_usize("max_tenancy")?,
            lease_duration: req(v, "lease_duration")
                .map_err(|e| ControllerError::Journal(e.to_string()))?,
            overload_util: req(v, "overload_util")
                .map_err(|e| ControllerError::Journal(e.to_string()))?,
            overload_windows: get_usize("overload_windows")? as u32,
            min_pool: get_usize("min_pool")?,
        })
    }
}

/// One admitted tenant job, as the arbiter sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardInfo {
    /// Tenant job name.
    pub name: String,
    /// Workers granted to this tenant (sorted, may overlap other pools).
    pub pool: Vec<usize>,
    /// Tenant weight; revocation picks on the lowest-weight tenant.
    pub weight: f64,
}

/// A journaled revocation: `worker` was taken away from `shard`.
#[derive(Debug, Clone, PartialEq)]
pub struct Revocation {
    /// The shard losing the worker.
    pub shard: usize,
    /// The revoked worker index.
    pub worker: usize,
}

/// The global fleet arbiter. See the module docs.
#[derive(Debug)]
pub struct Arbiter {
    config: ArbiterConfig,
    shards: Vec<ShardInfo>,
    /// Tenant jobs currently using each worker.
    tenancy: Vec<usize>,
    leases: LeaseTable,
    /// Consecutive overloaded windows per worker.
    overload_streak: Vec<u32>,
    rejections: Vec<String>,
    log: JournalWriter,
}

impl Arbiter {
    /// A fresh arbiter journaling to `sink`. The config is validated and
    /// written as the log's first record.
    pub fn new(
        config: ArbiterConfig,
        sink: Box<dyn Write + Send>,
    ) -> Result<Arbiter, ControllerError> {
        config.validate()?;
        let mut log = JournalWriter::new(sink);
        log.append(&config.to_json())?;
        let leases = LeaseTable::new(0, config.lease_duration)?;
        Ok(Arbiter {
            tenancy: vec![0; config.num_workers],
            overload_streak: vec![0; config.num_workers],
            shards: Vec::new(),
            rejections: Vec::new(),
            leases,
            config,
            log,
        })
    }

    /// The arbiter's static policy.
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// Number of admitted tenant jobs (= shards).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The admitted tenants, in admission order.
    pub fn shards(&self) -> &[ShardInfo] {
        &self.shards
    }

    /// Names of rejected tenants, in rejection order.
    pub fn rejections(&self) -> &[String] {
        &self.rejections
    }

    /// Tenant count per worker.
    pub fn tenancy(&self) -> &[usize] {
        &self.tenancy
    }

    /// Read access to the lease table (the fencing barrier).
    pub fn leases(&self) -> &LeaseTable {
        &self.leases
    }

    fn shard(&self, shard: usize) -> Result<&ShardInfo, ControllerError> {
        self.shards.get(shard).ok_or_else(|| {
            ControllerError::InvalidConfig(format!(
                "shard {shard} out of range (arbiter admitted {})",
                self.shards.len()
            ))
        })
    }

    /// The deterministic pool the next admission would get: the
    /// `requested` workers with the fewest tenants, ties by index.
    /// `None` when capacity does not suffice.
    fn carve_pool(&self, requested: usize) -> Option<Vec<usize>> {
        let mut candidates: Vec<usize> = (0..self.config.num_workers)
            .filter(|&w| self.tenancy[w] < self.config.max_tenancy)
            .collect();
        if candidates.len() < requested || requested == 0 {
            return None;
        }
        candidates.sort_by_key(|&w| (self.tenancy[w], w));
        let mut pool: Vec<usize> = candidates.into_iter().take(requested).collect();
        pool.sort_unstable();
        Some(pool)
    }

    /// Admission control: requests a pool of `requested` workers for the
    /// tenant `name`. Returns `Ok(Some(shard))` with the new shard id on
    /// admission, `Ok(None)` on a capacity rejection; either outcome is
    /// journaled first.
    pub fn admit(
        &mut self,
        name: &str,
        requested: usize,
        weight: f64,
    ) -> Result<Option<usize>, ControllerError> {
        if !weight.is_finite() || weight <= 0.0 {
            return Err(ControllerError::InvalidConfig(format!(
                "tenant weight must be positive and finite, got {weight}"
            )));
        }
        match self.carve_pool(requested) {
            Some(pool) => {
                let shard = self.shards.len();
                self.log.append(&obj(vec![
                    ("kind", Json::Str("admit".into())),
                    ("shard", Json::Num(shard as f64)),
                    ("name", Json::Str(name.into())),
                    (
                        "pool",
                        Json::Arr(pool.iter().map(|&w| Json::Num(w as f64)).collect()),
                    ),
                    ("weight", Json::Num(weight)),
                ]))?;
                for &w in &pool {
                    self.tenancy[w] += 1;
                }
                self.shards.push(ShardInfo {
                    name: name.to_string(),
                    pool,
                    weight,
                });
                self.leases.grow_to(self.shards.len());
                Ok(Some(shard))
            }
            None => {
                self.log.append(&obj(vec![
                    ("kind", Json::Str("reject".into())),
                    ("name", Json::Str(name.into())),
                    (
                        "reason",
                        Json::Str(format!("insufficient capacity for {requested} worker(s)")),
                    ),
                ]))?;
                self.rejections.push(name.to_string());
                Ok(None)
            }
        }
    }

    /// Grants the lease on `shard` to `holder` (journaled). Fencing
    /// rules are the [`LeaseTable`]'s: only a free or expired lease can
    /// be taken, and the granted term strictly increases.
    pub fn acquire_lease(
        &mut self,
        shard: usize,
        holder: &str,
        now: f64,
    ) -> Result<u64, ControllerError> {
        self.shard(shard)?;
        // Probe on a clone so a fenced attempt leaves no journal record.
        let mut probe = self.leases.clone();
        let term = probe.acquire(shard, holder, now)?;
        self.log.append(&obj(vec![
            ("kind", Json::Str("lease".into())),
            ("shard", Json::Num(shard as f64)),
            ("holder", Json::Str(holder.into())),
            ("term", Json::Num(term as f64)),
            ("time", Json::Num(now)),
        ]))?;
        self.leases = probe;
        Ok(term)
    }

    /// Renews `shard`'s lease (journaled). Fenced unless `(holder,
    /// term)` is the live lease.
    pub fn renew_lease(
        &mut self,
        shard: usize,
        holder: &str,
        term: u64,
        now: f64,
    ) -> Result<(), ControllerError> {
        let mut probe = self.leases.clone();
        probe.renew(shard, holder, term, now)?;
        self.log.append(&obj(vec![
            ("kind", Json::Str("renew".into())),
            ("shard", Json::Num(shard as f64)),
            ("holder", Json::Str(holder.into())),
            ("term", Json::Num(term as f64)),
            ("time", Json::Num(now)),
        ]))?;
        self.leases = probe;
        Ok(())
    }

    /// The fencing barrier: forwards to [`LeaseTable::check`].
    pub fn check_lease(
        &self,
        shard: usize,
        holder: &str,
        term: u64,
        now: f64,
    ) -> Result<(), ControllerError> {
        self.leases.check(shard, holder, term, now)
    }

    /// Feeds one window of per-worker utilization. A *shared* worker
    /// (two or more tenants) above `overload_util` for
    /// `overload_windows` consecutive windows triggers a journaled
    /// revocation from the lowest-weight tenant sharing it (ties by
    /// lowest shard id) whose pool is still above `min_pool`. Returns
    /// the revocations for the fleet to apply.
    pub fn observe_utilization(
        &mut self,
        util: &[f64],
        now: f64,
    ) -> Result<Vec<Revocation>, ControllerError> {
        if util.len() != self.config.num_workers {
            return Err(ControllerError::InvalidConfig(format!(
                "utilization vector has {} entries, fleet has {} workers",
                util.len(),
                self.config.num_workers
            )));
        }
        let mut revocations = Vec::new();
        for w in 0..self.config.num_workers {
            let shared = self.tenancy[w] >= 2;
            if shared && util[w] > self.config.overload_util {
                self.overload_streak[w] += 1;
            } else {
                self.overload_streak[w] = 0;
                continue;
            }
            if self.overload_streak[w] < self.config.overload_windows {
                continue;
            }
            // Pick the lowest-weight tenant sharing this worker whose
            // pool can still afford to shrink.
            let victim = self
                .shards
                .iter()
                .enumerate()
                .filter(|(_, s)| s.pool.contains(&w) && s.pool.len() > self.config.min_pool)
                .min_by(|(ai, a), (bi, b)| {
                    a.weight
                        .partial_cmp(&b.weight)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(ai.cmp(bi))
                })
                .map(|(i, _)| i);
            let Some(shard) = victim else {
                // Every sharer is at its floor; leave the streak so a
                // later pool change can still resolve it.
                continue;
            };
            self.log.append(&obj(vec![
                ("kind", Json::Str("revoke".into())),
                ("shard", Json::Num(shard as f64)),
                ("worker", Json::Num(w as f64)),
                ("time", Json::Num(now)),
            ]))?;
            self.apply_revocation(shard, w);
            revocations.push(Revocation { shard, worker: w });
        }
        Ok(revocations)
    }

    fn apply_revocation(&mut self, shard: usize, worker: usize) {
        if let Some(s) = self.shards.get_mut(shard) {
            s.pool.retain(|&p| p != worker);
        }
        if let Some(t) = self.tenancy.get_mut(worker) {
            *t = t.saturating_sub(1);
        }
        if let Some(k) = self.overload_streak.get_mut(worker) {
            *k = 0;
        }
    }

    /// Rebuilds an arbiter from its log text, resuming journaling to
    /// `sink` (which should already contain the recovered text, as a
    /// re-opened file would). Any corruption — bad frame, unknown record
    /// kind, replay divergence — is [`ControllerError::Journal`].
    pub fn recover(text: &str, sink: Box<dyn Write + Send>) -> Result<Arbiter, ControllerError> {
        let outcome = read_journal(text)?;
        let mut records = outcome.records.into_iter();
        let init = records
            .next()
            .ok_or_else(|| ControllerError::Journal("arbiter log is empty".into()))?;
        let jerr = |e: capsys_util::json::JsonError| ControllerError::Journal(e.to_string());
        let kind: String = req(&init, "kind").map_err(jerr)?;
        if kind != "init" {
            return Err(ControllerError::Journal(format!(
                "arbiter log starts with `{kind}`, expected `init`"
            )));
        }
        let config = ArbiterConfig::from_json(&init)?;
        config.validate().map_err(|e| {
            ControllerError::Journal(format!("journaled arbiter config invalid: {e}"))
        })?;
        let mut arb = Arbiter {
            tenancy: vec![0; config.num_workers],
            overload_streak: vec![0; config.num_workers],
            shards: Vec::new(),
            rejections: Vec::new(),
            leases: LeaseTable::new(0, config.lease_duration)?,
            config,
            // Placeholder during replay; swapped for `sink` below so no
            // replayed record is ever re-journaled.
            log: JournalWriter::new(Box::new(std::io::sink())),
        };
        let mut seq = 1u64;
        for rec in records {
            let kind: String = req(&rec, "kind").map_err(jerr)?;
            let diverged = |what: String| {
                ControllerError::Journal(format!(
                    "arbiter log replay diverged at seq {seq}: {what}"
                ))
            };
            match kind.as_str() {
                "admit" => {
                    let shard = req::<f64>(&rec, "shard").map_err(jerr)? as usize;
                    if shard != arb.shards.len() {
                        return Err(diverged(format!(
                            "admit of shard {shard}, expected {}",
                            arb.shards.len()
                        )));
                    }
                    let name: String = req(&rec, "name").map_err(jerr)?;
                    let weight: f64 = req(&rec, "weight").map_err(jerr)?;
                    let pool: Vec<f64> = req(&rec, "pool").map_err(jerr)?;
                    let pool: Vec<usize> = pool.into_iter().map(|w| w as usize).collect();
                    if pool.iter().any(|&w| w >= arb.config.num_workers) {
                        return Err(diverged(format!("pool {pool:?} exceeds the fleet")));
                    }
                    for &w in &pool {
                        arb.tenancy[w] += 1;
                    }
                    arb.shards.push(ShardInfo { name, pool, weight });
                    arb.leases.grow_to(arb.shards.len());
                }
                "reject" => {
                    let name: String = req(&rec, "name").map_err(jerr)?;
                    arb.rejections.push(name);
                }
                "lease" => {
                    let shard = req::<f64>(&rec, "shard").map_err(jerr)? as usize;
                    let holder: String = req(&rec, "holder").map_err(jerr)?;
                    let term = req::<f64>(&rec, "term").map_err(jerr)? as u64;
                    let time: f64 = req(&rec, "time").map_err(jerr)?;
                    let granted = arb
                        .leases
                        .acquire(shard, &holder, time)
                        .map_err(|e| diverged(format!("journaled lease grant fenced: {e}")))?;
                    if granted != term {
                        return Err(diverged(format!(
                            "lease replay granted term {granted}, journal says {term}"
                        )));
                    }
                }
                "renew" => {
                    let shard = req::<f64>(&rec, "shard").map_err(jerr)? as usize;
                    let holder: String = req(&rec, "holder").map_err(jerr)?;
                    let term = req::<f64>(&rec, "term").map_err(jerr)? as u64;
                    let time: f64 = req(&rec, "time").map_err(jerr)?;
                    arb.leases
                        .renew(shard, &holder, term, time)
                        .map_err(|e| diverged(format!("journaled renewal fenced: {e}")))?;
                }
                "revoke" => {
                    let shard = req::<f64>(&rec, "shard").map_err(jerr)? as usize;
                    let worker = req::<f64>(&rec, "worker").map_err(jerr)? as usize;
                    if shard >= arb.shards.len() || worker >= arb.config.num_workers {
                        return Err(diverged(format!(
                            "revoke of worker {worker} from shard {shard} out of range"
                        )));
                    }
                    let _time: f64 = opt(&rec, "time", 0.0).map_err(jerr)?;
                    arb.apply_revocation(shard, worker);
                }
                other => {
                    return Err(ControllerError::Journal(format!(
                        "unknown arbiter record kind `{other}` at seq {seq}"
                    )));
                }
            }
            seq += 1;
        }
        arb.log = JournalWriter::resuming(sink, seq);
        Ok(arb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsys_util::journal::SharedBuf;

    fn config(workers: usize) -> ArbiterConfig {
        ArbiterConfig {
            num_workers: workers,
            max_tenancy: 2,
            lease_duration: 30.0,
            overload_util: 0.9,
            overload_windows: 2,
            min_pool: 2,
        }
    }

    fn arbiter(workers: usize) -> (Arbiter, SharedBuf) {
        let buf = SharedBuf::new();
        let arb = Arbiter::new(config(workers), Box::new(buf.clone())).unwrap();
        (arb, buf)
    }

    #[test]
    fn admission_carves_deterministic_overlapping_pools() {
        let (mut arb, _) = arbiter(4);
        // First tenant gets the least-tenanted workers: all tied, so
        // lowest indices win.
        assert_eq!(arb.admit("job-a", 3, 1.0).unwrap(), Some(0));
        assert_eq!(arb.shards()[0].pool, vec![0, 1, 2]);
        // Second tenant prefers the untouched worker 3, then overlaps.
        assert_eq!(arb.admit("job-b", 3, 2.0).unwrap(), Some(1));
        assert_eq!(arb.shards()[1].pool, vec![0, 1, 3]);
        assert_eq!(arb.tenancy(), &[2, 2, 1, 1]);
        // Third tenant: only workers 2 and 3 have free slots — a
        // 3-worker ask is a capacity rejection, journaled.
        assert_eq!(arb.admit("job-c", 3, 1.0).unwrap(), None);
        assert_eq!(arb.rejections(), &["job-c".to_string()]);
        // A 2-worker ask still fits, on the remaining slots.
        assert_eq!(arb.admit("job-d", 2, 1.0).unwrap(), Some(2));
        assert_eq!(arb.shards()[2].pool, vec![2, 3]);
    }

    #[test]
    fn lease_grants_are_fenced_and_journaled() {
        let (mut arb, buf) = arbiter(4);
        arb.admit("job-a", 2, 1.0).unwrap();
        let term = arb.acquire_lease(0, "ctrl-0", 0.0).unwrap();
        assert_eq!(term, 1);
        arb.check_lease(0, "ctrl-0", 1, 10.0).unwrap();
        // A competing acquire while live is fenced and leaves no record.
        let before = buf.text();
        assert!(matches!(
            arb.acquire_lease(0, "standby", 10.0),
            Err(ControllerError::LeaseFenced { .. })
        ));
        assert_eq!(buf.text(), before);
        // Renewal extends; after expiry the standby takes term 2.
        arb.renew_lease(0, "ctrl-0", 1, 20.0).unwrap();
        assert_eq!(arb.leases().expires_at(0), 50.0);
        let term2 = arb.acquire_lease(0, "standby", 50.0).unwrap();
        assert_eq!(term2, 2);
        assert!(matches!(
            arb.check_lease(0, "ctrl-0", 1, 51.0),
            Err(ControllerError::LeaseFenced { .. })
        ));
    }

    #[test]
    fn sustained_overload_on_a_shared_worker_revokes_the_lowest_weight_tenant() {
        let (mut arb, _) = arbiter(4);
        arb.admit("heavy", 3, 2.0).unwrap(); // pool 0,1,2
        arb.admit("light", 3, 1.0).unwrap(); // pool 0,1,3
                                             // Worker 0 is shared and hot; workers 2,3 hot but unshared.
        let hot = vec![0.95, 0.5, 0.95, 0.95];
        assert!(arb.observe_utilization(&hot, 10.0).unwrap().is_empty());
        let revs = arb.observe_utilization(&hot, 20.0).unwrap();
        assert_eq!(
            revs,
            vec![Revocation {
                shard: 1,
                worker: 0
            }]
        );
        assert_eq!(arb.shards()[1].pool, vec![1, 3]);
        assert_eq!(arb.tenancy()[0], 1);
        // Now at the min_pool floor: further overload revokes from the
        // remaining sharer with headroom (the heavy tenant on worker 1).
        let hot2 = vec![0.95, 0.95, 0.5, 0.5];
        arb.observe_utilization(&hot2, 30.0).unwrap();
        let revs2 = arb.observe_utilization(&hot2, 40.0).unwrap();
        assert_eq!(
            revs2,
            vec![Revocation {
                shard: 0,
                worker: 1
            }]
        );
        // A cool window resets the streak.
        let cool = vec![0.1; 4];
        assert!(arb.observe_utilization(&cool, 50.0).unwrap().is_empty());
    }

    #[test]
    fn recover_rebuilds_pools_tenancy_and_lease_terms() {
        let (mut arb, buf) = arbiter(5);
        arb.admit("a", 3, 2.0).unwrap();
        arb.admit("b", 3, 1.0).unwrap();
        arb.admit("too-big", 5, 1.0).unwrap(); // rejected
        arb.acquire_lease(0, "ctrl-0", 0.0).unwrap();
        arb.acquire_lease(1, "ctrl-1", 0.0).unwrap();
        arb.renew_lease(0, "ctrl-0", 1, 20.0).unwrap();
        // Expired lease 1 taken over by a standby.
        arb.acquire_lease(1, "standby-1", 40.0).unwrap();
        let hot = vec![0.95, 0.5, 0.5, 0.5, 0.5];
        arb.observe_utilization(&hot, 50.0).unwrap();
        arb.observe_utilization(&hot, 60.0).unwrap();

        let resumed = SharedBuf::new();
        let rec = Arbiter::recover(&buf.text(), Box::new(resumed.clone())).unwrap();
        assert_eq!(rec.config(), arb.config());
        assert_eq!(rec.shards(), arb.shards());
        assert_eq!(rec.tenancy(), arb.tenancy());
        assert_eq!(rec.rejections(), arb.rejections());
        for s in 0..2 {
            assert_eq!(rec.leases().term(s), arb.leases().term(s));
            assert_eq!(rec.leases().holder(s), arb.leases().holder(s));
            assert_eq!(rec.leases().expires_at(s), arb.leases().expires_at(s));
        }
        // The recovered arbiter still fences the zombie...
        assert!(matches!(
            rec.check_lease(1, "ctrl-1", 1, 41.0),
            Err(ControllerError::LeaseFenced { .. })
        ));
        // ...and resumes journaling at the right sequence: identical
        // next appends produce identical frames.
        let mut a = arb;
        let mut b = rec;
        a.renew_lease(0, "ctrl-0", 1, 25.0).unwrap();
        b.renew_lease(0, "ctrl-0", 1, 25.0).unwrap();
        let last = |s: &str| s.lines().last().map(str::to_string);
        assert_eq!(last(&buf.text()), last(&resumed.text()));
    }

    #[test]
    fn corrupted_or_nonsensical_logs_fail_recovery_loudly() {
        let (mut arb, buf) = arbiter(4);
        arb.admit("a", 2, 1.0).unwrap();
        arb.acquire_lease(0, "ctrl-0", 0.0).unwrap();
        let text = buf.text();

        // Bit-flip inside a mid-file record: checksum failure.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[1] = lines[1].replace("\"shard\":0", "\"shard\":9");
        lines.push(String::new());
        assert!(matches!(
            Arbiter::recover(&lines.join("\n"), Box::new(std::io::sink())),
            Err(ControllerError::Journal(_))
        ));

        // Empty log.
        assert!(matches!(
            Arbiter::recover("", Box::new(std::io::sink())),
            Err(ControllerError::Journal(_))
        ));

        // A forged term inside a mid-file lease record breaks the frame
        // checksum (the renewal after it keeps it off the torn tail).
        let buf2 = SharedBuf::new();
        let mut arb2 = Arbiter::new(config(4), Box::new(buf2.clone())).unwrap();
        arb2.admit("a", 2, 1.0).unwrap();
        arb2.acquire_lease(0, "ctrl-0", 0.0).unwrap();
        arb2.renew_lease(0, "ctrl-0", 1, 5.0).unwrap();
        let forged = buf2.text().replacen("\"term\":1", "\"term\":7", 1);
        assert!(matches!(
            Arbiter::recover(&forged, Box::new(std::io::sink())),
            Err(ControllerError::Journal(_))
        ));
    }

    #[test]
    fn config_validation_rejects_degenerate_policies() {
        for bad in [
            ArbiterConfig {
                num_workers: 0,
                ..config(4)
            },
            ArbiterConfig {
                max_tenancy: 0,
                ..config(4)
            },
            ArbiterConfig {
                overload_windows: 0,
                ..config(4)
            },
            ArbiterConfig {
                min_pool: 0,
                ..config(4)
            },
            ArbiterConfig {
                overload_util: f64::NAN,
                ..config(4)
            },
        ] {
            assert!(matches!(
                Arbiter::new(bad, Box::new(std::io::sink())),
                Err(ControllerError::InvalidConfig(_))
            ));
        }
    }
}
