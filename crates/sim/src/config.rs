//! Simulation configuration.

use crate::error::SimError;

/// Parameters of a simulation run.
///
/// The defaults mirror the paper's experimental methodology (§3.1):
/// metrics are recorded every 5 seconds and a warm-up period is excluded
/// from the reported averages.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Simulation tick length in seconds.
    pub tick: f64,
    /// Total simulated time in seconds.
    pub duration: f64,
    /// Warm-up time excluded from report averages, in seconds.
    pub warmup: f64,
    /// Minimum capacity of each inter-task channel queue, in records.
    ///
    /// The effective capacity of a channel is
    /// `max(queue_capacity, channel rate x buffer_secs)` — queues are
    /// sized in *time*, the buffer-debloating behaviour the paper enables
    /// on its Flink clusters (§3.1).
    pub queue_capacity: f64,
    /// Target buffered time per channel, seconds.
    pub buffer_secs: f64,
    /// Metrics aggregation interval in seconds (paper: 5 s).
    pub metrics_interval: f64,
    /// RNG seed for service-time noise.
    pub seed: u64,
    /// Relative service-time jitter amplitude in `[0, 1)`. Zero gives a
    /// fully deterministic run.
    pub noise: f64,
    /// Period of CPU-burst cycles (garbage-collection analogue), seconds.
    pub burst_period: f64,
    /// Fraction of each burst period during which the burst is active.
    pub burst_duty: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            tick: 0.1,
            duration: 300.0,
            warmup: 60.0,
            queue_capacity: 500.0,
            buffer_secs: 1.0,
            metrics_interval: 5.0,
            seed: 42,
            noise: 0.0,
            burst_period: 10.0,
            burst_duty: 0.2,
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

    /// Sets the duration, returning the modified config.
    pub fn with_duration(mut self, duration: f64) -> Self {
        self.duration = duration;
        self
    }

    /// Sets the warm-up, returning the modified config.
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
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
        pos(self.queue_capacity, "queue_capacity")?;
        pos(self.buffer_secs, "buffer_secs")?;
        pos(self.metrics_interval, "metrics_interval")?;
        pos(self.burst_period, "burst_period")?;
        if !(0.0..1.0).contains(&self.noise) {
            return Err(SimError::InvalidConfig(format!(
                "noise must be in [0,1), got {}",
                self.noise
            )));
        }
        if !(0.0..=1.0).contains(&self.burst_duty) {
            return Err(SimError::InvalidConfig(format!(
                "burst_duty must be in [0,1], got {}",
                self.burst_duty
            )));
        }
        if self.warmup < 0.0 || self.warmup >= self.duration {
            return Err(SimError::InvalidConfig(format!(
                "warmup {} must be in [0, duration {})",
                self.warmup, self.duration
            )));
        }
        if self.metrics_interval < self.tick {
            return Err(SimError::InvalidConfig(
                "metrics_interval must be at least one tick".into(),
            ));
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
        let c = SimConfig::default()
            .with_duration(10.0)
            .with_warmup(1.0)
            .with_noise(0.1, 7);
        assert_eq!(c.duration, 10.0);
        assert_eq!(c.warmup, 1.0);
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
            metrics_interval: 0.01,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            burst_duty: 2.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            queue_capacity: -1.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = SimConfig {
            buffer_secs: 0.0,
            ..SimConfig::default()
        };
        assert!(bad.validate().is_err());
    }
}
