//! Simulation configuration.

use crate::error::SimError;

/// Minimum capacity of each inter-task channel queue, in records.
///
/// The effective capacity of a channel is
/// `max(QUEUE_CAPACITY, peak channel rate x BUFFER_SECS)`: queues are
/// sized in *time*, the buffer-debloating behaviour the paper enables on
/// its Flink clusters (§3.1).
pub(crate) const QUEUE_CAPACITY: f64 = 500.0;

/// Target buffered time per channel, seconds.
pub(crate) const BUFFER_SECS: f64 = 1.0;

/// Metrics aggregation interval in seconds (paper: 5 s).
pub const METRICS_INTERVAL: f64 = 5.0;

/// Period of CPU-burst cycles (garbage-collection analogue), seconds.
pub(crate) const BURST_PERIOD: f64 = 10.0;

/// Fraction of each burst period during which the burst is active.
pub const BURST_DUTY: f64 = 0.2;

/// Parameters of a simulation run.
///
/// The defaults mirror the paper's experimental methodology (§3.1): a
/// warm-up period is excluded from the reported averages, and metrics
/// are recorded every [`METRICS_INTERVAL`] seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulation tick length in seconds.
    pub tick: f64,
    /// Total simulated time in seconds.
    pub duration: f64,
    /// Warm-up time excluded from report averages, in seconds.
    pub warmup: f64,
    /// RNG seed for service-time noise.
    pub seed: u64,
    /// Relative service-time jitter amplitude in `[0, 1)`. Zero gives a
    /// fully deterministic run.
    pub noise: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tick: 0.1,
            duration: 300.0,
            warmup: 60.0,
            seed: 42,
            noise: 0.0,
        }
    }
}

impl SimConfig {
    /// A short configuration for unit tests: 60 s runs, 10 s warm-up.
    pub fn short() -> Self {
        SimConfig {
            duration: 60.0,
            warmup: 10.0,
            ..SimConfig::default()
        }
    }

    /// Sets the noise amplitude and seed, returning the modified config.
    pub fn with_noise(mut self, noise: f64, seed: u64) -> Self {
        self.noise = noise;
        self.seed = seed;
        self
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), SimError> {
        let pos = |v: f64, name: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(SimError::InvalidConfig(format!(
                    "{name} must be positive, got {v}"
                )))
            }
        };
        pos(self.tick, "tick")?;
        pos(self.duration, "duration")?;
        if !(0.0..1.0).contains(&self.noise) {
            return Err(SimError::InvalidConfig(format!(
                "noise must be in [0,1), got {}",
                self.noise
            )));
        }
        if self.warmup < 0.0 || self.warmup >= self.duration {
            return Err(SimError::InvalidConfig(format!(
                "warmup {} must be in [0, duration {})",
                self.warmup, self.duration
            )));
        }
        if self.tick > METRICS_INTERVAL {
            return Err(SimError::InvalidConfig(format!(
                "tick {} must not exceed the {METRICS_INTERVAL} s metrics interval",
                self.tick
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        SimConfig::default().validate().unwrap();
        SimConfig::short().validate().unwrap();
    }

    #[test]
    fn builders_apply() {
        let c = SimConfig::default().with_noise(0.1, 7);
        assert_eq!(c.noise, 0.1);
        assert_eq!(c.seed, 7);
        c.validate().unwrap();
    }

    #[test]
    fn invalid_values_are_rejected() {
        let bad = SimConfig {
            tick: 0.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            noise: 1.5,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            warmup: 400.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            tick: METRICS_INTERVAL * 2.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
