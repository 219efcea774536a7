//! Simulation scale knobs.

/// Scale and horizon of a simulated capture.
///
/// The paper-shape class sizes and per-sender rates live in
/// [`crate::campaigns`]; this config scales them uniformly so tests run in
/// milliseconds and experiments in minutes. Small classes (the named
/// scanner projects) are kept at their paper sizes regardless of
/// `sender_scale` — their structure (7 Censys sub-groups, 10 Engin-Umich
/// senders) is the point of several figures.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Capture length in days (the paper uses 30).
    pub days: u64,
    /// Multiplier on the population of *large* classes (Mirai, the unknown
    /// mass, backscatter). 1.0 reproduces the paper's sizes.
    pub sender_scale: f64,
    /// Multiplier on per-sender packet rates.
    pub rate_scale: f64,
    /// Include the one-shot / low-rate backscatter noise floor.
    pub backscatter: bool,
    /// Master seed; every derived stream re-seeds deterministically.
    pub seed: u64,
}

impl Default for SimConfig {
    /// The default experiment scale: ~1/10 of the paper's sender counts,
    /// a 30-day horizon, ~2.5 M packets. All evaluation shapes hold at
    /// this scale (EXPERIMENTS.md reports paper-vs-measured).
    fn default() -> Self {
        SimConfig {
            days: 30,
            sender_scale: 0.1,
            rate_scale: 1.0,
            backscatter: true,
            seed: 1,
        }
    }
}

impl SimConfig {
    /// A small configuration for unit/integration tests: 8 days, reduced
    /// populations and rates, no backscatter noise floor.
    pub fn tiny(seed: u64) -> Self {
        SimConfig {
            days: 8,
            sender_scale: 0.04,
            rate_scale: 0.5,
            backscatter: false,
            seed,
        }
    }

    /// Scales a large-class population, guaranteeing at least a handful of
    /// members so no campaign disappears entirely.
    pub fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.sender_scale).round() as usize).max(4)
    }

    /// Scales a per-sender daily packet rate.
    pub fn rate(&self, per_day: f64) -> f64 {
        per_day * self.rate_scale
    }

    /// Capture end, in seconds.
    pub fn horizon(&self) -> u64 {
        self.days * darkvec_types::DAY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_shaped() {
        let c = SimConfig::default();
        assert_eq!(c.days, 30);
        assert!(c.backscatter);
    }

    #[test]
    fn scaled_has_floor() {
        let c = SimConfig {
            sender_scale: 0.001,
            ..SimConfig::default()
        };
        assert_eq!(c.scaled(100), 4);
        assert_eq!(c.scaled(10_000), 10);
    }

    #[test]
    fn horizon_in_seconds() {
        let c = SimConfig::tiny(1);
        assert_eq!(c.horizon(), 8 * 86_400);
    }

    #[test]
    fn rate_scaling() {
        let c = SimConfig {
            rate_scale: 0.5,
            ..SimConfig::default()
        };
        assert_eq!(c.rate(40.0), 20.0);
    }
}
