//! Overload protection: the admission/shedding controller.
//!
//! CAPSys's placement and scaling machinery assumes the offered load is
//! one the cluster *could* sustain at some parallelism. A hostile
//! workload breaks that assumption: a flash crowd can offer several
//! times the hardware's aggregate capacity, and no reconfiguration will
//! absorb it — queues fill, backpressure pins at 1, and end-to-end
//! latency grows without bound while the job dutifully processes at
//! capacity. The admission controller is the pressure-relief valve for
//! that regime: when measured ingest exceeds sustainable capacity it
//! sheds a bounded fraction of offered traffic at the sources, keeping
//! queues (and therefore latency) bounded, and restores full admission
//! hysteretically once the offered load is sustainable again.
//!
//! The controller is a deterministic state machine fed one sample per
//! policy window, exactly like the safety governor: every decision is a
//! pure function of the (byte-identically replayable) metric stream, so
//! a crashed controller re-derives the same shed decisions on replay.
//! The decisions themselves are cluster state — they gate admitted
//! traffic — and move through the closed loop's two-phase journaled
//! protocol as `Shed` records.
//!
//! Sizing: with `C` the demonstrated capacity (rolling maximum of
//! processed throughput — under saturation the job processes at
//! exactly its capacity, so the recent maximum is an observed lower
//! bound on it) and `offered` the measured pre-shed ingest, the desired
//! fraction is `1 - headroom·C / offered`: admit slightly less than the
//! job has proven it can process. Release requires `release_windows`
//! consecutive windows in which the *offered* load (not the shed one)
//! fits inside the demonstrated capacity and backpressure is calm —
//! one quiet window under a still-raging flash crowd must not drop the
//! shield.

use std::collections::VecDeque;

use crate::ControllerError;

/// Tuning knobs of the admission/shedding controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedConfig {
    /// Backpressure (on *admitted* traffic) above which shedding
    /// engages or is re-sized upward. In `(0, 1)`.
    pub engage_threshold: f64,
    /// Fraction of demonstrated capacity to admit when shedding: the
    /// shed fraction targets `admitted = headroom · capacity`. In
    /// `(0, 1]`.
    pub headroom: f64,
    /// Hard cap on the shed fraction — the controller never drops more
    /// than this share of offered traffic. In `[0, 1)`.
    pub max_fraction: f64,
    /// Consecutive calm windows (offered load within capacity,
    /// backpressure below the engage threshold) before full admission
    /// is restored.
    pub release_windows: usize,
    /// Minimum change of fraction worth a journaled reconfiguration;
    /// smaller corrections are suppressed to bound churn. In `(0, 1)`.
    pub min_delta: f64,
    /// Rolling window length (policy windows) of the capacity estimate.
    pub capacity_windows: usize,
}

impl Default for ShedConfig {
    fn default() -> Self {
        ShedConfig {
            engage_threshold: 0.3,
            headroom: 0.95,
            max_fraction: 0.9,
            release_windows: 3,
            min_delta: 0.05,
            capacity_windows: 6,
        }
    }
}

impl ShedConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), ControllerError> {
        let bad = |msg: String| Err(ControllerError::InvalidConfig(msg));
        if !self.engage_threshold.is_finite()
            || !(0.0..1.0).contains(&self.engage_threshold)
            || self.engage_threshold == 0.0
        {
            return bad(format!(
                "engage_threshold must be in (0, 1), got {}",
                self.engage_threshold
            ));
        }
        if !self.headroom.is_finite() || self.headroom <= 0.0 || self.headroom > 1.0 {
            return bad(format!("headroom must be in (0, 1], got {}", self.headroom));
        }
        if !self.max_fraction.is_finite() || !(0.0..1.0).contains(&self.max_fraction) {
            return bad(format!(
                "max_fraction must be in [0, 1), got {}",
                self.max_fraction
            ));
        }
        if self.release_windows == 0 {
            return bad("release_windows must be >= 1".into());
        }
        if !self.min_delta.is_finite()
            || !(0.0..1.0).contains(&self.min_delta)
            || self.min_delta == 0.0
        {
            return bad(format!(
                "min_delta must be in (0, 1), got {}",
                self.min_delta
            ));
        }
        if self.capacity_windows == 0 {
            return bad("capacity_windows must be >= 1".into());
        }
        Ok(())
    }
}

/// One applied shed change, surfaced on the closed-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedEvent {
    /// Simulated time the change was applied.
    pub time: f64,
    /// Fencing epoch of the change.
    pub epoch: u64,
    /// Shed fraction before the change.
    pub from_fraction: f64,
    /// Shed fraction after the change (0 = full admission restored).
    pub to_fraction: f64,
    /// Offered (pre-shed) ingest rate at the decision, records/s.
    pub offered: f64,
    /// Demonstrated-capacity estimate at the decision, records/s.
    pub capacity: f64,
}

impl capsys_util::json::ToJson for ShedEvent {
    fn to_json(&self) -> capsys_util::json::Json {
        use capsys_util::json::Json;
        Json::Obj(vec![
            ("time".into(), Json::Num(self.time)),
            ("epoch".into(), Json::Num(self.epoch as f64)),
            ("from_fraction".into(), Json::Num(self.from_fraction)),
            ("to_fraction".into(), Json::Num(self.to_fraction)),
            ("offered".into(), Json::Num(self.offered)),
            ("capacity".into(), Json::Num(self.capacity)),
        ])
    }
}

/// A desired shed-fraction change, to be journaled and applied by the
/// closed loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRequest {
    /// The new shed fraction (0 restores full admission).
    pub fraction: f64,
    /// Offered (pre-shed) ingest at the decision, records/s.
    pub offered: f64,
    /// Demonstrated-capacity estimate at the decision, records/s.
    pub capacity: f64,
}

/// The admission/shedding controller (see module docs).
#[derive(Debug, Clone)]
pub struct ShedController {
    config: ShedConfig,
    /// Rolling processed-throughput samples; their maximum is the
    /// demonstrated-capacity estimate.
    window: VecDeque<f64>,
    /// Consecutive calm windows observed while shedding.
    calm: usize,
    /// Consecutive saturated windows in which an upward correction was
    /// suppressed by the churn deadband.
    stalled: usize,
    /// The shed fraction currently applied to the cluster.
    fraction: f64,
}

impl ShedController {
    /// A controller at full admission.
    pub fn new(config: ShedConfig) -> Result<ShedController, ControllerError> {
        config.validate()?;
        Ok(ShedController {
            config,
            window: VecDeque::new(),
            calm: 0,
            stalled: 0,
            fraction: 0.0,
        })
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ShedConfig {
        &self.config
    }

    /// The shed fraction currently applied.
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// Demonstrated-capacity estimate: the rolling maximum of processed
    /// throughput (0 before the first sample).
    pub fn capacity(&self) -> f64 {
        // Fold from +0.0: an empty window must report 0.0, not -0.0.
        self.window.iter().fold(0.0f64, |acc, &t| acc.max(t))
    }

    /// Feeds one policy window's aggregate metrics. `throughput` is
    /// processed records/s, `offered` the pre-shed target ingest, and
    /// `backpressure` is measured against the *admitted* traffic.
    /// Returns a request when the shed fraction should change; the
    /// caller journals it, applies it to the simulator, and reports it
    /// back via [`ShedController::on_applied`].
    pub fn observe_window(
        &mut self,
        _time: f64,
        throughput: f64,
        offered: f64,
        backpressure: f64,
    ) -> Option<ShedRequest> {
        // A poisoned window (non-finite metrics escaped the sanitizer)
        // is skipped rather than acted on.
        if !throughput.is_finite() || !offered.is_finite() || !backpressure.is_finite() {
            return None;
        }
        let throughput = throughput.max(0.0);
        let offered = offered.max(0.0);
        let backpressure = backpressure.clamp(0.0, 1.0);
        // While shedding with calm pressure, throughput equals the
        // admitted traffic — an artifact of our own throttle, not a
        // demonstration of capacity. Recording it would spiral the
        // estimate downward (each shed round admits `headroom ×` the
        // previous estimate), so the window only takes samples that
        // demonstrate a binding limit: full admission, or admitted
        // traffic still under pressure.
        let binding = self.fraction == 0.0 || backpressure > self.config.engage_threshold;
        if binding {
            self.window.push_back(throughput);
            while self.window.len() > self.config.capacity_windows {
                self.window.pop_front();
            }
        }
        let capacity = self.capacity();

        // Release path: offered load fits the demonstrated capacity and
        // pressure is calm. Hysteresis: `release_windows` in a row.
        if self.fraction > 0.0 {
            let calm = offered * self.config.headroom <= capacity
                && backpressure <= self.config.engage_threshold;
            self.calm = if calm { self.calm + 1 } else { 0 };
            if self.calm >= self.config.release_windows {
                return Some(ShedRequest {
                    fraction: 0.0,
                    offered,
                    capacity,
                });
            }
        } else {
            self.calm = 0;
        }

        // Engage / re-size path: pressure on the admitted traffic. The
        // fraction only ever moves *up* here — pressure with a smaller
        // desired fraction (e.g. a transient spike while offered load is
        // back inside capacity) must not yank admission open; reductions
        // go exclusively through the hysteretic release path above.
        // Warmup: an estimate from fewer than `capacity_windows` samples
        // is not trusted — a freshly started (or just-rescaled) job under
        // pressure is the scaler's problem first, the shedder's only if
        // the pressure outlasts a full window.
        if self.fraction == 0.0 && self.window.len() < self.config.capacity_windows {
            return None;
        }
        if backpressure > self.config.engage_threshold && offered > 0.0 {
            let desired = (1.0 - self.config.headroom * capacity / offered)
                .clamp(0.0, self.config.max_fraction);
            let step = desired - self.fraction;
            // The deadband bounds churn, but it must not suppress a
            // needed correction *indefinitely* while the pressure
            // persists: when the estimate settles just inside the
            // deadband of the true requirement, the fraction would
            // otherwise stall a few percent short and the system would
            // stay saturated for the rest of the overload. Symmetric to
            // the release hysteresis, `release_windows` consecutive
            // suppressed-but-needed windows force the correction.
            if step >= self.config.min_delta
                || (step > 0.0 && self.stalled + 1 >= self.config.release_windows)
            {
                self.stalled = 0;
                return Some(ShedRequest {
                    fraction: desired,
                    offered,
                    capacity,
                });
            }
            self.stalled = if step > 0.0 { self.stalled + 1 } else { 0 };
        } else {
            self.stalled = 0;
        }
        None
    }

    /// Reports that a requested change was applied to the cluster.
    pub fn on_applied(&mut self, fraction: f64) {
        self.fraction = fraction.clamp(0.0, self.config.max_fraction);
        self.calm = 0;
        self.stalled = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shedder() -> ShedController {
        ShedController::new(ShedConfig::default()).unwrap()
    }

    /// Feeds `n` identical windows, asserting no request fires.
    fn feed_quiet(s: &mut ShedController, n: usize, tp: f64, offered: f64, bp: f64) {
        for i in 0..n {
            assert!(
                s.observe_window(i as f64 * 5.0, tp, offered, bp).is_none(),
                "unexpected shed request at window {i}"
            );
        }
    }

    #[test]
    fn config_validation_rejects_bad_knobs() {
        assert!(ShedConfig::default().validate().is_ok());
        for bad in [
            ShedConfig {
                engage_threshold: 0.0,
                ..ShedConfig::default()
            },
            ShedConfig {
                engage_threshold: 1.0,
                ..ShedConfig::default()
            },
            ShedConfig {
                engage_threshold: f64::NAN,
                ..ShedConfig::default()
            },
            ShedConfig {
                headroom: 0.0,
                ..ShedConfig::default()
            },
            ShedConfig {
                headroom: 1.5,
                ..ShedConfig::default()
            },
            ShedConfig {
                max_fraction: 1.0,
                ..ShedConfig::default()
            },
            ShedConfig {
                max_fraction: -0.1,
                ..ShedConfig::default()
            },
            ShedConfig {
                release_windows: 0,
                ..ShedConfig::default()
            },
            ShedConfig {
                min_delta: 0.0,
                ..ShedConfig::default()
            },
            ShedConfig {
                capacity_windows: 0,
                ..ShedConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn steady_state_never_sheds() {
        let mut s = shedder();
        feed_quiet(&mut s, 20, 990.0, 1000.0, 0.05);
        assert_eq!(s.fraction(), 0.0);
        assert_eq!(s.capacity(), 990.0);
    }

    #[test]
    fn overload_engages_and_sizes_the_fraction() {
        let mut s = shedder();
        // Demonstrated capacity ~1000 rec/s.
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        // Flash crowd: offered triples, job saturates at 1000, queues
        // fill.
        let req = s
            .observe_window(35.0, 1000.0, 3000.0, 0.8)
            .expect("overload must engage shedding");
        // desired = 1 - 0.95*1000/3000 ≈ 0.683
        assert!((req.fraction - (1.0 - 0.95 * 1000.0 / 3000.0)).abs() < 1e-12);
        assert_eq!(req.offered, 3000.0);
        assert_eq!(req.capacity, 1000.0);
        s.on_applied(req.fraction);
        assert!(s.fraction() > 0.6);
    }

    #[test]
    fn fraction_is_capped_at_max() {
        let mut s = shedder();
        // A full window of total collapse: no demonstrated capacity at
        // all, so the desired fraction would be 1.0; the cap bounds it.
        // (The first `capacity_windows - 1` saturated windows are the
        // warmup — pressure must outlast a full window before the
        // shedder trusts its estimate and acts.)
        for i in 0..5 {
            assert!(s.observe_window(i as f64 * 5.0, 0.0, 5000.0, 1.0).is_none());
        }
        let req = s.observe_window(25.0, 0.0, 5000.0, 1.0).unwrap();
        assert_eq!(req.fraction, ShedConfig::default().max_fraction);
    }

    #[test]
    fn release_is_hysteretic() {
        let mut s = shedder();
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        let req = s.observe_window(35.0, 1000.0, 3000.0, 0.8).unwrap();
        s.on_applied(req.fraction);
        // Still overloaded (offered above capacity): shedding holds even
        // though backpressure has calmed on the admitted traffic.
        feed_quiet(&mut s, 8, 1000.0, 3000.0, 0.1);
        assert!(s.fraction() > 0.0);
        // The crowd decays: offered back inside capacity. One calm
        // window is not enough...
        assert!(s.observe_window(80.0, 950.0, 1000.0, 0.05).is_none());
        assert!(s.observe_window(85.0, 950.0, 1000.0, 0.05).is_none());
        // ...the third in a row restores full admission.
        let req = s.observe_window(90.0, 950.0, 1000.0, 0.05).unwrap();
        assert_eq!(req.fraction, 0.0);
        s.on_applied(0.0);
        assert_eq!(s.fraction(), 0.0);
    }

    #[test]
    fn pressure_spike_resets_the_calm_streak() {
        let mut s = shedder();
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        let req = s.observe_window(35.0, 1000.0, 3000.0, 0.8).unwrap();
        s.on_applied(req.fraction);
        assert!(s.observe_window(40.0, 950.0, 1000.0, 0.05).is_none());
        assert!(s.observe_window(45.0, 950.0, 1000.0, 0.05).is_none());
        // A pressure spike (second flash) interrupts the streak: the
        // release clock starts over.
        assert!(s.observe_window(50.0, 950.0, 1000.0, 0.5).is_none());
        assert!(s.observe_window(55.0, 950.0, 1000.0, 0.05).is_none());
        assert!(s.observe_window(60.0, 950.0, 1000.0, 0.05).is_none());
        assert!(s.observe_window(65.0, 950.0, 1000.0, 0.05).is_some());
    }

    #[test]
    fn deepening_overload_resizes_upward() {
        let mut s = shedder();
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        let req = s.observe_window(35.0, 1000.0, 2000.0, 0.8).unwrap();
        s.on_applied(req.fraction);
        let f1 = s.fraction();
        // The crowd doubles again and pressure returns: shed more.
        let req = s.observe_window(40.0, 1000.0, 4000.0, 0.8).unwrap();
        assert!(req.fraction > f1, "{} should exceed {f1}", req.fraction);
    }

    #[test]
    fn small_corrections_are_suppressed() {
        let mut s = shedder();
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        let req = s.observe_window(35.0, 1000.0, 3000.0, 0.8).unwrap();
        s.on_applied(req.fraction);
        // Offered drifts 1%: the desired fraction moves less than
        // min_delta, so no churn.
        assert!(s.observe_window(40.0, 1000.0, 3030.0, 0.8).is_none());
    }

    #[test]
    fn persistent_undersized_shed_is_corrected() {
        let mut s = shedder();
        feed_quiet(&mut s, 6, 1000.0, 1000.0, 0.05);
        let req = s.observe_window(35.0, 1000.0, 3000.0, 0.8).unwrap();
        s.on_applied(req.fraction); // 1 - 0.95*1000/3000 ≈ 0.683
                                    // The engage-time estimate was optimistic — the true capacity is
                                    // 900 — so the admitted traffic stays saturated. Once the stale
                                    // 1000-samples age out, the needed correction (to ≈0.715) is
                                    // smaller than min_delta; the deadband suppresses it at first,
                                    // but persistent pressure forces it through after
                                    // `release_windows` suppressed windows.
        for i in 0..7 {
            assert!(
                s.observe_window(40.0 + 5.0 * i as f64, 900.0, 3000.0, 0.9)
                    .is_none(),
                "window {i} should still be suppressed"
            );
        }
        let req = s
            .observe_window(75.0, 900.0, 3000.0, 0.9)
            .expect("persistent pressure must force the correction");
        assert!((req.fraction - (1.0 - 0.95 * 900.0 / 3000.0)).abs() < 1e-12);
    }

    #[test]
    fn poisoned_windows_are_skipped() {
        let mut s = shedder();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(s.observe_window(0.0, bad, 1000.0, 0.9).is_none());
            assert!(s.observe_window(0.0, 1000.0, bad, 0.9).is_none());
            assert!(s.observe_window(0.0, 1000.0, 1000.0, bad).is_none());
        }
        assert!(
            s.window.is_empty(),
            "poisoned samples must not enter the window"
        );
    }

    #[test]
    fn empty_capacity_window_reports_positive_zero() {
        let s = shedder();
        let c = s.capacity();
        assert_eq!(c, 0.0);
        assert!(c.is_sign_positive(), "empty fold must not leak -0.0");
    }
}
