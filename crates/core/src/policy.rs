//! Capacity policy: typed scale-up thresholds with hysteresis.
//!
//! [`ResilientMpcbf`](crate::resilient::ResilientMpcbf) exposes its
//! saturation gauges through [`HealthReport`], but until now they were
//! read-only telemetry — every consumer hard-coded its own notion of
//! "too full". [`CapacityPolicy`] turns those gauges into a typed
//! decision: *has this filter crossed the pressure threshold where an
//! elastic wrapper must open a new generation?*
//!
//! The decision is **hysteretic**. A workload hovering exactly at a
//! threshold would otherwise flip the trigger on and off every few
//! inserts ("flapping"), and each flip is expensive for the consumer —
//! [`ElasticMpcbf`](crate::elastic::ElasticMpcbf) allocates a whole new
//! generation on the rising edge. The policy therefore latches: it
//! *enters* the pressured state at [`CapacityPolicy::max_pressure`] and
//! *leaves* it only below the strictly lower
//! [`CapacityPolicy::release_pressure`], so a boundary-hugging gauge
//! produces exactly one transition per genuine excursion.

use crate::metrics::HealthReport;

/// Thresholds + hysteresis governing when an elastic filter scales up.
///
/// Consumed by [`ElasticMpcbf`](crate::elastic::ElasticMpcbf) (the
/// scale-up trigger) and usable standalone against any
/// [`HealthReport`] via [`CapacityPolicy::update`].
///
/// ```
/// use mpcbf_core::CapacityPolicy;
///
/// let policy = CapacityPolicy::default();
/// assert!(policy.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityPolicy {
    /// Rising-edge threshold: the policy asserts pressure once
    /// [`HealthReport::pressure`] reaches this value. Default `0.7`.
    pub max_pressure: f64,
    /// Falling-edge threshold: an asserted policy releases only when
    /// pressure drops *below* this value (and the spill is empty). Must
    /// be strictly less than `max_pressure`. Default `0.5`.
    pub release_pressure: f64,
    /// Immediate trigger: lifetime spilled inserts above this count
    /// assert pressure regardless of the fill gauges (spill growth means
    /// the main shape has demonstrably run out of room). Default `0`
    /// (any spill triggers).
    pub max_spilled: u64,
    /// Multiplier applied to a generation's memory and expected-items
    /// budget when the elastic filter opens the next generation. Must be
    /// `>= 1.0`. Default `2.0` (classic doubling).
    pub growth: f64,
    /// Hard cap on live generations; scale-up requests beyond this are
    /// refused until compaction retires old generations. Default `8`.
    pub max_generations: usize,
    /// How many inserts may elapse between full [`HealthReport`] probes
    /// in the elastic hot path (a probe walks every word, so it is too
    /// costly per insert). Default `256`.
    pub check_interval: u64,
    /// Keys migrated per compaction step — inline in auto mode, and per
    /// migration step of the durable wrapper and the server's shard
    /// worker in manual mode. Larger batches finish migration sooner at
    /// the cost of longer pauses. Default `32`.
    pub compact_batch: usize,
}

impl Default for CapacityPolicy {
    fn default() -> Self {
        CapacityPolicy {
            max_pressure: 0.7,
            release_pressure: 0.5,
            max_spilled: 0,
            growth: 2.0,
            max_generations: 8,
            check_interval: 256,
            compact_batch: 32,
        }
    }
}

impl CapacityPolicy {
    /// Checks the invariants the hysteresis and growth math rely on.
    /// Returns a static description of the first violated rule.
    pub fn validate(&self) -> Result<(), &'static str> {
        if !self.max_pressure.is_finite() || self.max_pressure <= 0.0 {
            return Err("max_pressure must be finite and positive");
        }
        if !self.release_pressure.is_finite() || self.release_pressure < 0.0 {
            return Err("release_pressure must be finite and non-negative");
        }
        if self.release_pressure >= self.max_pressure {
            return Err("release_pressure must be strictly below max_pressure");
        }
        if !self.growth.is_finite() || self.growth < 1.0 {
            return Err("growth must be finite and at least 1.0");
        }
        if self.max_generations == 0 {
            return Err("max_generations must be at least 1");
        }
        if self.check_interval == 0 {
            return Err("check_interval must be at least 1");
        }
        if self.compact_batch == 0 {
            return Err("compact_batch must be at least 1");
        }
        Ok(())
    }

    /// True if `health` crosses the *rising* edge: pressure at or above
    /// [`CapacityPolicy::max_pressure`], spilled inserts above
    /// [`CapacityPolicy::max_spilled`], or outright saturation.
    pub fn asserts(&self, health: &HealthReport) -> bool {
        health.pressure() >= self.max_pressure
            || health.spilled_inserts > self.max_spilled
            || health.is_saturated()
    }

    /// True if `health` is below the *falling* edge: pressure strictly
    /// under [`CapacityPolicy::release_pressure`] with an empty spill.
    pub fn releases(&self, health: &HealthReport) -> bool {
        health.pressure() < self.release_pressure && !health.is_spilling()
    }

    /// One hysteresis step: feeds `health` through the latch and returns
    /// the new latched state. `latched` is the previous output; callers
    /// thread it through (the policy itself is stateless, so one policy
    /// value can serve many filters).
    ///
    /// The latch rises on [`CapacityPolicy::asserts`], falls on
    /// [`CapacityPolicy::releases`], and otherwise holds — gauges in the
    /// dead band between the two thresholds never cause a transition.
    pub fn update(&self, latched: bool, health: &HealthReport) -> bool {
        if latched {
            !self.releases(health)
        } else {
            self.asserts(health)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A HealthReport at a given fill pressure with everything else calm.
    fn calm_at(fill: f64) -> HealthReport {
        HealthReport {
            items: 100,
            fill_ratio: fill,
            max_word_load: 0,
            word_capacity: 32,
            overflows: 0,
            spill_keys: 0,
            spill_occupancy: 0,
            spilled_inserts: 0,
        }
    }

    #[test]
    fn default_policy_is_valid() {
        assert_eq!(CapacityPolicy::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_inverted_thresholds() {
        let mut p = CapacityPolicy::default();
        p.release_pressure = p.max_pressure;
        assert!(p.validate().is_err());
        p.release_pressure = 0.4;
        p.growth = 0.5;
        assert!(p.validate().is_err());
        p.growth = 2.0;
        p.max_generations = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn pressure_summary_tracks_worst_gauge() {
        let mut h = calm_at(0.2);
        h.max_word_load = 24; // 24/32 = 0.75 beats the 0.2 fill
        assert!((h.pressure() - 0.75).abs() < 1e-12);
        // Spilling clamps to >= 1.0 even with calm averages.
        h.max_word_load = 1;
        h.spill_occupancy = 1;
        assert!(h.pressure() >= 1.0);
        h.spill_occupancy = 0;
        h.overflows = 3;
        assert!(h.pressure() >= 1.0);
    }

    #[test]
    fn latch_rises_at_max_and_falls_below_release() {
        let p = CapacityPolicy::default();
        let mut latched = false;
        latched = p.update(latched, &calm_at(0.69));
        assert!(!latched, "below max_pressure must not assert");
        latched = p.update(latched, &calm_at(0.70));
        assert!(latched, "at max_pressure must assert");
        latched = p.update(latched, &calm_at(0.60));
        assert!(latched, "dead band holds the latch");
        latched = p.update(latched, &calm_at(0.50));
        assert!(latched, "release threshold is strict");
        latched = p.update(latched, &calm_at(0.49));
        assert!(!latched, "below release_pressure must release");
    }

    #[test]
    fn no_flapping_while_hugging_the_boundary() {
        // Oscillate tightly around the rising edge: once latched, the
        // latch must stay up — exactly one rising transition, zero falls.
        let p = CapacityPolicy::default();
        let mut latched = false;
        let mut transitions = 0u32;
        for i in 0..1000 {
            let jitter = if i % 2 == 0 { 0.005 } else { -0.005 };
            let next = p.update(latched, &calm_at(p.max_pressure + jitter));
            if next != latched {
                transitions += 1;
            }
            latched = next;
        }
        assert!(latched);
        assert_eq!(transitions, 1, "boundary hugging must not flap");

        // Same oscillation around the falling edge: one fall, no rises.
        let mut transitions = 0u32;
        for i in 0..1000 {
            let jitter = if i % 2 == 0 { 0.005 } else { -0.005 };
            let next = p.update(latched, &calm_at(p.release_pressure + jitter));
            if next != latched {
                transitions += 1;
            }
            latched = next;
        }
        assert!(!latched);
        assert_eq!(transitions, 1, "release boundary must not flap either");
    }

    #[test]
    fn spill_asserts_regardless_of_fill() {
        let p = CapacityPolicy::default();
        let mut h = calm_at(0.1);
        h.spilled_inserts = 1; // > max_spilled (0)
        assert!(p.asserts(&h));
        assert!(p.update(false, &h));
        // And a latched policy with residual spill never releases.
        let mut drained = calm_at(0.1);
        drained.spill_occupancy = 2;
        assert!(p.update(true, &drained));
    }

    #[test]
    fn saturation_asserts_even_with_low_fill() {
        let p = CapacityPolicy::default();
        let mut h = calm_at(0.05);
        h.max_word_load = h.word_capacity;
        assert!(p.asserts(&h));
    }
}
