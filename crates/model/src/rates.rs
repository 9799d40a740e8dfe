//! Source rate schedules for constant and variable workloads.

use crate::error::ModelError;

/// One flash-crowd episode of a [`RateProgram`]: a trapezoid multiplier
/// envelope that rises over `ramp` seconds, holds full strength for
/// `hold` seconds, and decays over `decay` seconds. At full strength the
/// episode multiplies the program's rate by `1 + magnitude`.
///
/// All times are on the program's *global* clock (see
/// [`RateProgram::origin`]), so shifting the program never re-times the
/// episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowd {
    /// Global time the ramp begins, seconds.
    pub start: f64,
    /// Ramp-up duration, seconds (0 = instantaneous onset).
    pub ramp: f64,
    /// Full-strength plateau duration, seconds.
    pub hold: f64,
    /// Decay duration, seconds (0 = instantaneous release).
    pub decay: f64,
    /// Peak rate multiplier above baseline: at the plateau the rate is
    /// multiplied by `1 + magnitude`.
    pub magnitude: f64,
}

impl FlashCrowd {
    /// Envelope strength in `[0, 1]` at global time `u`.
    fn envelope(&self, u: f64) -> f64 {
        let mut dt = u - self.start;
        if dt <= 0.0 {
            return 0.0;
        }
        if dt < self.ramp {
            return dt / self.ramp;
        }
        dt -= self.ramp;
        if dt <= self.hold {
            return 1.0;
        }
        dt -= self.hold;
        if dt < self.decay {
            return 1.0 - dt / self.decay;
        }
        0.0
    }

    /// Whether every field is finite and non-negative.
    pub fn is_valid(&self) -> bool {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        ok(self.start) && ok(self.ramp) && ok(self.hold) && ok(self.decay) && ok(self.magnitude)
    }
}

/// A composable, closed-form source-rate program: linear drift growth, a
/// diurnal (triangle-wave) cycle, and flash-crowd episodes, multiplied
/// together. This is the shape hostile-workload scenarios feed the
/// simulator instead of constant rates — every term is deterministic and
/// evaluates in closed form at any instant, so the program survives the
/// controller's schedule shifting exactly (only [`RateProgram::origin`]
/// moves; see `shifted`).
///
/// The rate at local time `t` is
///
/// ```text
/// max(0, base + growth_per_sec·u) · diurnal(u) · flash(u),   u = origin + t
/// ```
///
/// where `diurnal(u) = 1 + amplitude · tri(u/period + phase)` (`tri` a
/// triangle wave in `[-1, 1]` starting at its trough) and `flash(u)` is
/// `1` plus the sum of every episode's `magnitude · envelope(u)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RateProgram {
    /// Base rate at global time zero, records/s.
    pub base: f64,
    /// Global time of the program's local zero: `rate_at(t)` evaluates
    /// the program at global time `origin + t`. Shifting a schedule by
    /// `offset` seconds adds `offset` here and changes nothing else,
    /// which keeps mid-run redeploys byte-deterministic.
    pub origin: f64,
    /// Slow-drift growth: records/s gained per second of global time
    /// (may be negative for decay; the drift term clamps at zero).
    pub growth_per_sec: f64,
    /// Diurnal modulation amplitude in `[0, 1)`: the cycle swings the
    /// rate between `(1 - a)` and `(1 + a)` times the drift term.
    pub diurnal_amplitude: f64,
    /// Diurnal cycle period, seconds. Zero disables the cycle.
    pub diurnal_period: f64,
    /// Diurnal phase offset in cycles (`[0, 1)`).
    pub diurnal_phase: f64,
    /// Flash-crowd episodes, on the global clock.
    pub flashes: Vec<FlashCrowd>,
    /// Global horizon the program is meant to run to, seconds; bounds
    /// the drift term in [`RateProgram::peak_bound`].
    pub horizon: f64,
}

impl RateProgram {
    /// A flat program: `rate` records/s with no drift, cycle, or flashes.
    pub fn constant(rate: f64, horizon: f64) -> RateProgram {
        RateProgram {
            base: rate,
            origin: 0.0,
            growth_per_sec: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: 0.0,
            diurnal_phase: 0.0,
            flashes: Vec::new(),
            horizon,
        }
    }

    /// The rate at *global* time `u`, records/s. Always finite and
    /// non-negative.
    pub fn rate_at_global(&self, u: f64) -> f64 {
        let drift = (self.base + self.growth_per_sec * u).max(0.0);
        let diurnal = if self.diurnal_period > 0.0 {
            let cycles = u / self.diurnal_period + self.diurnal_phase;
            let p = cycles - cycles.floor();
            // Triangle wave: -1 at p=0, +1 at p=0.5, back to -1 at p=1.
            (1.0 + self.diurnal_amplitude * (1.0 - 4.0 * (p - 0.5).abs())).max(0.0)
        } else {
            1.0
        };
        let mut flash = 1.0;
        for f in &self.flashes {
            flash += f.magnitude * f.envelope(u);
        }
        let r = drift * diurnal * flash;
        if r.is_finite() {
            r.max(0.0)
        } else {
            0.0
        }
    }

    /// A copy whose local clock starts `offset` seconds later on the same
    /// global timeline: `shifted(d).rate_at_global` is unchanged, and a
    /// schedule built on it satisfies `shifted.rate_at(t) ==
    /// original.rate_at(t + offset)` up to the one float add in `origin`.
    pub fn shifted(&self, offset: f64) -> RateProgram {
        RateProgram {
            origin: self.origin + offset,
            ..self.clone()
        }
    }

    /// An analytic upper bound on the rate over global times
    /// `[0, horizon]`: max drift endpoint × max diurnal factor × the sum
    /// of all flash magnitudes (sound even for overlapping episodes).
    pub fn peak_bound(&self) -> f64 {
        let end = self.horizon.max(0.0);
        let drift_max = (self.base.max(self.base + self.growth_per_sec * end)).max(0.0);
        let diurnal_max = 1.0 + self.diurnal_amplitude.max(0.0);
        let flash_max = 1.0 + self.flashes.iter().fold(0.0, |a, f| a + f.magnitude);
        drift_max * diurnal_max * flash_max
    }

    /// Checks every parameter is finite and in range.
    pub fn validate(&self) -> Result<(), ModelError> {
        let bad = |what: &str| {
            Err(ModelError::InvalidParameter(format!(
                "rate program: {what}"
            )))
        };
        if !self.base.is_finite() || self.base < 0.0 {
            return bad("base must be finite and non-negative");
        }
        if !self.origin.is_finite() || !self.growth_per_sec.is_finite() {
            return bad("origin and growth must be finite");
        }
        if !(0.0..1.0).contains(&self.diurnal_amplitude) {
            return bad("diurnal amplitude must be in [0, 1)");
        }
        if !self.diurnal_period.is_finite() || self.diurnal_period < 0.0 {
            return bad("diurnal period must be finite and non-negative");
        }
        if !(0.0..1.0).contains(&self.diurnal_phase) {
            return bad("diurnal phase must be in [0, 1) cycles");
        }
        if !self.horizon.is_finite() || self.horizon < 0.0 {
            return bad("horizon must be finite and non-negative");
        }
        if self.flashes.iter().any(|f| !f.is_valid()) {
            return bad("every flash-crowd field must be finite and non-negative");
        }
        Ok(())
    }
}

/// The input rate of a source operator over time, in records per second.
///
/// Used by the simulator for variable workloads (§6.4) and by controllers
/// as the target rate at a given instant.
#[derive(Debug, Clone, PartialEq)]
pub enum RateSchedule {
    /// A constant rate.
    Constant(f64),
    /// Piecewise-constant steps: `(start_time_sec, rate)` pairs, sorted by
    /// start time. The rate before the first step is the first step's rate.
    Steps(Vec<(f64, f64)>),
    /// A square wave alternating between `low` and `high` every
    /// `period_sec` seconds, starting at `high`.
    SquareWave {
        /// Rate during high phases.
        high: f64,
        /// Rate during low phases.
        low: f64,
        /// Duration of each phase in seconds.
        period_sec: f64,
    },
    /// A composed hostile-workload program (drift + diurnal cycle +
    /// flash crowds); see [`RateProgram`].
    Program(RateProgram),
}

impl RateSchedule {
    /// The rate at time `t` seconds.
    pub fn rate_at(&self, t: f64) -> f64 {
        match self {
            RateSchedule::Constant(r) => *r,
            RateSchedule::Steps(steps) => {
                let mut rate = steps.first().map(|&(_, r)| r).unwrap_or(0.0);
                for &(start, r) in steps {
                    if t >= start {
                        rate = r;
                    } else {
                        break;
                    }
                }
                rate
            }
            RateSchedule::SquareWave {
                high,
                low,
                period_sec,
            } => {
                let phase = (t / period_sec).floor() as i64;
                if phase % 2 == 0 {
                    *high
                } else {
                    *low
                }
            }
            RateSchedule::Program(p) => p.rate_at_global(p.origin + t),
        }
    }

    /// The maximum rate the schedule ever reaches (for a
    /// [`RateSchedule::Program`], an analytic upper bound over its
    /// horizon).
    pub fn peak_rate(&self) -> f64 {
        match self {
            RateSchedule::Constant(r) => *r,
            RateSchedule::Steps(steps) => steps.iter().map(|&(_, r)| r).fold(0.0, f64::max),
            RateSchedule::SquareWave { high, low, .. } => high.max(*low),
            RateSchedule::Program(p) => p.peak_bound(),
        }
    }

    /// Returns a copy with every rate scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> RateSchedule {
        match self {
            RateSchedule::Constant(r) => RateSchedule::Constant(r * factor),
            RateSchedule::Steps(steps) => {
                RateSchedule::Steps(steps.iter().map(|&(t, r)| (t, r * factor)).collect())
            }
            RateSchedule::SquareWave {
                high,
                low,
                period_sec,
            } => RateSchedule::SquareWave {
                high: high * factor,
                low: low * factor,
                period_sec: *period_sec,
            },
            // Scaling the drift term scales every multiplicative layer
            // with it: the cycle and flashes are relative factors.
            RateSchedule::Program(p) => RateSchedule::Program(RateProgram {
                base: p.base * factor,
                growth_per_sec: p.growth_per_sec * factor,
                ..p.clone()
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate() {
        let s = RateSchedule::Constant(100.0);
        assert_eq!(s.rate_at(0.0), 100.0);
        assert_eq!(s.rate_at(1e6), 100.0);
        assert_eq!(s.peak_rate(), 100.0);
    }

    #[test]
    fn steps_rate() {
        let s = RateSchedule::Steps(vec![(0.0, 10.0), (60.0, 20.0), (120.0, 5.0)]);
        assert_eq!(s.rate_at(0.0), 10.0);
        assert_eq!(s.rate_at(59.9), 10.0);
        assert_eq!(s.rate_at(60.0), 20.0);
        assert_eq!(s.rate_at(119.0), 20.0);
        assert_eq!(s.rate_at(500.0), 5.0);
        assert_eq!(s.peak_rate(), 20.0);
    }

    #[test]
    fn steps_before_first_step_use_first_rate() {
        let s = RateSchedule::Steps(vec![(10.0, 7.0)]);
        assert_eq!(s.rate_at(0.0), 7.0);
    }

    #[test]
    fn empty_steps_are_zero() {
        let s = RateSchedule::Steps(vec![]);
        assert_eq!(s.rate_at(5.0), 0.0);
        assert_eq!(s.peak_rate(), 0.0);
    }

    #[test]
    fn square_wave_alternates() {
        let s = RateSchedule::SquareWave {
            high: 100.0,
            low: 40.0,
            period_sec: 60.0,
        };
        assert_eq!(s.rate_at(0.0), 100.0);
        assert_eq!(s.rate_at(59.0), 100.0);
        assert_eq!(s.rate_at(60.0), 40.0);
        assert_eq!(s.rate_at(120.0), 100.0);
        assert_eq!(s.peak_rate(), 100.0);
    }

    fn hostile_program() -> RateProgram {
        RateProgram {
            base: 1000.0,
            origin: 0.0,
            growth_per_sec: 0.5,
            diurnal_amplitude: 0.3,
            diurnal_period: 400.0,
            diurnal_phase: 0.25,
            flashes: vec![FlashCrowd {
                start: 100.0,
                ramp: 10.0,
                hold: 20.0,
                decay: 30.0,
                magnitude: 1.5,
            }],
            horizon: 600.0,
        }
    }

    #[test]
    fn program_is_finite_nonnegative_and_bounded_by_peak() {
        let p = hostile_program();
        assert!(p.validate().is_ok());
        let s = RateSchedule::Program(p.clone());
        let peak = s.peak_rate();
        let mut t = 0.0;
        while t <= 600.0 {
            let r = s.rate_at(t);
            assert!(r.is_finite() && r >= 0.0, "rate {r} at t={t}");
            assert!(
                r <= peak + 1e-9,
                "rate {r} above peak bound {peak} at t={t}"
            );
            t += 1.0;
        }
    }

    #[test]
    fn program_flash_envelope_shapes_the_rate() {
        let mut p = RateProgram::constant(100.0, 600.0);
        p.flashes.push(FlashCrowd {
            start: 50.0,
            ramp: 10.0,
            hold: 20.0,
            decay: 10.0,
            magnitude: 2.0,
        });
        let s = RateSchedule::Program(p);
        assert_eq!(s.rate_at(0.0), 100.0);
        assert_eq!(s.rate_at(50.0), 100.0); // ramp begins
        assert_eq!(s.rate_at(55.0), 200.0); // halfway up
        assert_eq!(s.rate_at(60.0), 300.0); // plateau
        assert_eq!(s.rate_at(80.0), 300.0); // plateau end
        assert_eq!(s.rate_at(85.0), 200.0); // halfway down
        assert_eq!(s.rate_at(95.0), 100.0); // released
    }

    #[test]
    fn program_diurnal_cycle_swings_around_base() {
        let mut p = RateProgram::constant(1000.0, 1000.0);
        p.diurnal_amplitude = 0.4;
        p.diurnal_period = 100.0;
        let s = RateSchedule::Program(p);
        assert!(
            (s.rate_at(0.0) - 600.0).abs() < 1e-9,
            "trough at cycle start"
        );
        assert!((s.rate_at(50.0) - 1400.0).abs() < 1e-9, "peak mid-cycle");
        assert!((s.rate_at(100.0) - 600.0).abs() < 1e-9, "trough again");
    }

    #[test]
    fn program_shift_moves_only_the_origin() {
        let p = hostile_program();
        let shifted = p.shifted(150.0);
        assert_eq!(shifted.origin, 150.0);
        let mut t = 0.0;
        while t <= 400.0 {
            assert_eq!(
                shifted.rate_at_global(p.origin + 150.0 + t),
                p.rate_at_global(p.origin + 150.0 + t),
                "global evaluation changed at u={t}"
            );
            // Local evaluation continues where the original left off.
            let a = RateSchedule::Program(shifted.clone()).rate_at(t);
            let b = RateSchedule::Program(p.clone()).rate_at(150.0 + t);
            assert_eq!(a, b, "shifted local clock diverged at t={t}");
            t += 10.0;
        }
    }

    #[test]
    fn program_growth_drifts_and_clamps() {
        let mut p = RateProgram::constant(100.0, 1000.0);
        p.growth_per_sec = 1.0;
        assert_eq!(RateSchedule::Program(p.clone()).rate_at(400.0), 500.0);
        p.growth_per_sec = -1.0;
        // Decay clamps at zero instead of going negative.
        assert_eq!(RateSchedule::Program(p).rate_at(400.0), 0.0);
    }

    #[test]
    fn program_validation_rejects_bad_fields() {
        let mut p = hostile_program();
        p.diurnal_amplitude = 1.5;
        assert!(p.validate().is_err());
        let mut p = hostile_program();
        p.base = f64::NAN;
        assert!(p.validate().is_err());
        let mut p = hostile_program();
        p.flashes[0].magnitude = -1.0;
        assert!(p.validate().is_err());
        let mut p = hostile_program();
        p.horizon = f64::INFINITY;
        assert!(p.validate().is_err());
    }

    #[test]
    fn scaling_applies_to_all_variants() {
        assert_eq!(
            RateSchedule::Constant(10.0).scaled(2.0),
            RateSchedule::Constant(20.0)
        );
        let s = RateSchedule::Steps(vec![(0.0, 1.0), (5.0, 2.0)]).scaled(3.0);
        assert_eq!(s, RateSchedule::Steps(vec![(0.0, 3.0), (5.0, 6.0)]));
        let w = RateSchedule::SquareWave {
            high: 4.0,
            low: 2.0,
            period_sec: 9.0,
        }
        .scaled(0.5);
        assert_eq!(
            w,
            RateSchedule::SquareWave {
                high: 2.0,
                low: 1.0,
                period_sec: 9.0
            }
        );
    }
}
