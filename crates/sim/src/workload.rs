//! Adversarial workload generation (the traffic chaos harness).
//!
//! A [`WorkloadEngine`] is to *source rates* what
//! [`crate::ChaosConfig`] is to faults: a seeded, deterministic
//! generator of hostile traffic shapes. It composes three ingredients
//! into one [`RateProgram`] per source operator:
//!
//! * a **diurnal cycle** — a triangle-wave swing around the base rate,
//!   the daily load curve every long-running stream job sees;
//! * **flash crowds** — sudden ramp/hold/decay spikes multiplying the
//!   rate for a bounded episode;
//! * **slow drift** — a linear records/s-per-second growth term,
//!   modeling organic adoption that should *never* be mistaken for a
//!   plan regression.
//!
//! Like `FaultPlan::generate`, draws happen in a fixed class order
//! (diurnal → flashes → drift), so the same [`WorkloadConfig`] always
//! yields byte-identical programs, and enabling a later class never
//! perturbs the draws of an earlier one. A key-skew hot spot (a
//! flash-like episode on a *single* source, a hot key range that
//! overloads one partition while the others idle) is not generated:
//! write it as an explicit [`FlashCrowd`] in that source's program.

use capsys_model::{FlashCrowd, OperatorId, RateProgram, RateSchedule};
use capsys_util::rng::{Rng, SeedableRng, SmallRng};

use crate::error::SimError;

/// Parameters for deterministic hostile-workload generation.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed; generated programs are a pure function of this config.
    pub seed: u64,
    /// Time window the programs cover, seconds. Flash *starts* are
    /// drawn from the first 70% of the horizon so their
    /// effects are observable, mirroring `ChaosConfig`.
    pub horizon: f64,
    /// Base offered rate per source operator, records/s.
    pub base_rate: f64,
    /// Diurnal swing amplitude range, each in `[0, 1)`. Zero disables
    /// the cycle.
    pub diurnal_amplitude: (f64, f64),
    /// Diurnal period range, seconds.
    pub diurnal_period: (f64, f64),
    /// Number of flash crowds applied to *every* source (a global
    /// event: breaking news hits the whole ingest tier).
    pub flashes: usize,
    /// Flash magnitude range: the rate multiplies by `1 + magnitude`
    /// at full ramp, each `>= 0`.
    pub flash_magnitude: (f64, f64),
    /// Flash ramp/decay duration range, seconds.
    pub flash_ramp: (f64, f64),
    /// Flash hold duration range, seconds.
    pub flash_hold: (f64, f64),
    /// Linear growth range in records/s per second, each finite. Pure
    /// organic growth a governor must not mistake for regression.
    pub growth_per_sec: (f64, f64),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 7,
            horizon: 300.0,
            base_rate: 1000.0,
            diurnal_amplitude: (0.0, 0.0),
            diurnal_period: (120.0, 240.0),
            flashes: 0,
            flash_magnitude: (1.0, 3.0),
            flash_ramp: (5.0, 15.0),
            flash_hold: (10.0, 30.0),
            growth_per_sec: (0.0, 0.0),
        }
    }
}

impl WorkloadConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "workload horizon must be positive, got {}",
                self.horizon
            )));
        }
        if !self.base_rate.is_finite() || self.base_rate < 0.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "base_rate must be finite and non-negative, got {}",
                self.base_rate
            )));
        }
        let span_ok = |(lo, hi): (f64, f64), name: &str, min: f64| {
            if lo.is_finite() && hi.is_finite() && lo >= min && lo <= hi {
                Ok(())
            } else {
                Err(SimError::InvalidFaultPlan(format!(
                    "{name} range ({lo}, {hi}) must satisfy {min} <= min <= max"
                )))
            }
        };
        span_ok(self.diurnal_amplitude, "diurnal_amplitude", 0.0)?;
        if self.diurnal_amplitude.1 >= 1.0 {
            return Err(SimError::InvalidFaultPlan(format!(
                "diurnal_amplitude max {} must stay below 1",
                self.diurnal_amplitude.1
            )));
        }
        if self.diurnal_amplitude.1 > 0.0 {
            let (lo, hi) = self.diurnal_period;
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi) {
                return Err(SimError::InvalidFaultPlan(format!(
                    "diurnal_period range ({lo}, {hi}) must satisfy 0 < min <= max"
                )));
            }
        }
        if self.flashes > 0 {
            span_ok(self.flash_magnitude, "flash_magnitude", 0.0)?;
            span_ok(self.flash_ramp, "flash_ramp", 0.0)?;
            span_ok(self.flash_hold, "flash_hold", 0.0)?;
        }
        let (glo, ghi) = self.growth_per_sec;
        if !(glo.is_finite() && ghi.is_finite() && glo <= ghi) {
            return Err(SimError::InvalidFaultPlan(format!(
                "growth_per_sec range ({glo}, {ghi}) must be finite with min <= max"
            )));
        }
        Ok(())
    }
}

/// Seeded generator of hostile per-source rate programs.
#[derive(Debug, Clone)]
pub struct WorkloadEngine {
    config: WorkloadConfig,
}

impl WorkloadEngine {
    /// Binds an engine to a validated config.
    pub fn new(config: WorkloadConfig) -> Result<WorkloadEngine, SimError> {
        config.validate()?;
        Ok(WorkloadEngine { config })
    }

    /// Generates one [`RateProgram`] per source operator, in the given
    /// order. Deterministic: the same config and source list always
    /// yield byte-identical programs. Draw order is fixed per class —
    /// diurnal, then flashes, then drift — so enabling a later class
    /// never perturbs an earlier one's draws.
    pub fn generate(
        &self,
        sources: &[OperatorId],
    ) -> Result<Vec<(OperatorId, RateSchedule)>, SimError> {
        if sources.is_empty() {
            return Err(SimError::InvalidFaultPlan(
                "no source operators to generate workload for".into(),
            ));
        }
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut programs: Vec<RateProgram> = sources
            .iter()
            .map(|_| RateProgram::constant(cfg.base_rate, cfg.horizon))
            .collect();

        // Diurnal cycle: one shared swing (the whole fleet lives in the
        // same day), with a seeded per-run amplitude/period/phase.
        if cfg.diurnal_amplitude.1 > 0.0 {
            let amp = rng.gen_range(cfg.diurnal_amplitude.0..=cfg.diurnal_amplitude.1);
            let period = rng.gen_range(cfg.diurnal_period.0..=cfg.diurnal_period.1);
            let phase = rng.gen_range(0.0..1.0);
            for p in &mut programs {
                p.diurnal_amplitude = amp;
                p.diurnal_period = period;
                p.diurnal_phase = phase;
            }
        }

        // Flash crowds hit every source at once.
        for _ in 0..cfg.flashes {
            let start = rng.gen_range(0.0..cfg.horizon * 0.7);
            let ramp = rng.gen_range(cfg.flash_ramp.0..=cfg.flash_ramp.1);
            let hold = rng.gen_range(cfg.flash_hold.0..=cfg.flash_hold.1);
            let magnitude = rng.gen_range(cfg.flash_magnitude.0..=cfg.flash_magnitude.1);
            let flash = FlashCrowd {
                start,
                ramp,
                hold,
                decay: ramp,
                magnitude,
            };
            for p in &mut programs {
                p.flashes.push(flash);
            }
        }

        // Slow drift, shared: organic growth lifts the whole ingest
        // tier together.
        if cfg.growth_per_sec != (0.0, 0.0) {
            let growth = rng.gen_range(cfg.growth_per_sec.0..=cfg.growth_per_sec.1);
            for p in &mut programs {
                p.growth_per_sec = growth;
            }
        }

        let mut out = Vec::with_capacity(sources.len());
        for (op, p) in sources.iter().zip(programs) {
            p.validate()
                .map_err(|e| SimError::InvalidFaultPlan(format!("generated program: {e}")))?;
            out.push((*op, RateSchedule::Program(p)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile_config() -> WorkloadConfig {
        WorkloadConfig {
            diurnal_amplitude: (0.2, 0.4),
            flashes: 2,
            growth_per_sec: (0.5, 2.0),
            ..WorkloadConfig::default()
        }
    }

    fn sources(n: usize) -> Vec<OperatorId> {
        (0..n).map(OperatorId).collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let engine = WorkloadEngine::new(hostile_config()).unwrap();
        let a = engine.generate(&sources(3)).unwrap();
        let b = engine.generate(&sources(3)).unwrap();
        assert_eq!(a, b, "same seed must yield the same programs");
        let other = WorkloadEngine::new(WorkloadConfig {
            seed: 8,
            ..hostile_config()
        })
        .unwrap();
        assert_ne!(a, other.generate(&sources(3)).unwrap());
    }

    #[test]
    fn later_classes_never_perturb_earlier_draws() {
        // Enabling drift must not change the diurnal or flash draws of
        // the same seed.
        let full = WorkloadEngine::new(hostile_config())
            .unwrap()
            .generate(&sources(2))
            .unwrap();
        let partial = WorkloadEngine::new(WorkloadConfig {
            growth_per_sec: (0.0, 0.0),
            ..hostile_config()
        })
        .unwrap()
        .generate(&sources(2))
        .unwrap();
        for (f, p) in full.iter().zip(&partial) {
            let (RateSchedule::Program(fp), RateSchedule::Program(pp)) = (&f.1, &p.1) else {
                panic!("expected programs");
            };
            assert_eq!(fp.diurnal_amplitude, pp.diurnal_amplitude);
            assert_eq!(fp.diurnal_period, pp.diurnal_period);
            assert_eq!(fp.diurnal_phase, pp.diurnal_phase);
            // The first `flashes` entries are the shared flash crowds.
            assert_eq!(&fp.flashes[..2], &pp.flashes[..]);
        }
    }

    #[test]
    fn generated_programs_are_finite_nonnegative_and_bounded() {
        let engine = WorkloadEngine::new(hostile_config()).unwrap();
        let programs = engine.generate(&sources(3)).unwrap();
        for (_, sched) in &programs {
            let peak = sched.peak_rate();
            assert!(peak.is_finite() && peak >= 0.0);
            let mut t = 0.0;
            while t <= 300.0 {
                let r = sched.rate_at(t);
                assert!(r.is_finite() && r >= 0.0, "rate {r} at t={t}");
                assert!(r <= peak * (1.0 + 1e-9), "rate {r} above peak {peak}");
                t += 1.0;
            }
        }
    }

    #[test]
    fn invalid_configs_and_empty_sources_are_rejected() {
        assert!(WorkloadEngine::new(WorkloadConfig {
            base_rate: f64::NAN,
            ..WorkloadConfig::default()
        })
        .is_err());
        assert!(WorkloadEngine::new(WorkloadConfig {
            diurnal_amplitude: (0.5, 1.5),
            ..WorkloadConfig::default()
        })
        .is_err());
        assert!(WorkloadEngine::new(WorkloadConfig {
            flashes: 1,
            flash_magnitude: (-1.0, 2.0),
            ..WorkloadConfig::default()
        })
        .is_err());
        assert!(WorkloadEngine::new(WorkloadConfig {
            growth_per_sec: (2.0, 1.0),
            ..WorkloadConfig::default()
        })
        .is_err());
        let engine = WorkloadEngine::new(WorkloadConfig::default()).unwrap();
        assert!(engine.generate(&[]).is_err());
    }
}
