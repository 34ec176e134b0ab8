//! Stochastic operation of the primitive (Sec. V-B).
//!
//! The GSHE switch's switching delay is a random variable (Fig. 4). Clock
//! the primitive faster than the delay distribution's tail and evaluations
//! occasionally miss the deadline — the output error rate becomes a *knob*
//! set by the clock period and the spin current: "the error rate for any
//! switch can be tuned individually".
//! [`error_rate_for_clock`](gshe_campaign::physical::error_rate_for_clock)
//! derives the rate from the device Monte Carlo; [`StochasticPrimitive`]
//! applies it at the logic level.

use crate::config::GsheConfig;
use gshe_logic::Bf2;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A GSHE primitive operated in the stochastic regime.
#[derive(Debug, Clone)]
pub struct StochasticPrimitive {
    config: GsheConfig,
    error_rate: f64,
    rng: StdRng,
    evaluations: u64,
    errors: u64,
}

impl StochasticPrimitive {
    /// Creates a stochastic primitive with the given per-evaluation error
    /// rate (e.g. from
    /// [`error_rate_for_clock`](gshe_campaign::physical::error_rate_for_clock)).
    ///
    /// # Panics
    ///
    /// Panics if `error_rate` is outside `[0, 1]`.
    pub fn new(config: GsheConfig, error_rate: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&error_rate),
            "error rate must be in [0, 1]"
        );
        StochasticPrimitive {
            config,
            error_rate,
            rng: StdRng::seed_from_u64(seed ^ 0x6A7E_57CC),
            evaluations: 0,
            errors: 0,
        }
    }

    /// The configured error rate.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }

    /// The nominal (error-free) function.
    pub fn function(&self) -> Bf2 {
        self.config.function()
    }

    /// Evaluates once; with probability `error_rate` the output is flipped
    /// (missed deadline leaves the magnet in the stale/metastable state and
    /// the read-out reports the wrong direction).
    pub fn evaluate(&mut self, a: bool, b: bool) -> bool {
        self.evaluations += 1;
        let ideal = self.config.evaluate(a, b);
        if self.error_rate > 0.0 && self.rng.gen_bool(self.error_rate) {
            self.errors += 1;
            !ideal
        } else {
            ideal
        }
    }

    /// `(evaluations, errors)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.evaluations, self.errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_campaign::physical::{error_profile_for_drives, error_rate_for_clock, SwitchDrive};
    use gshe_device::SwitchParams;
    use gshe_logic::NodeId;

    #[test]
    fn error_rate_decreases_with_longer_clock() {
        let params = SwitchParams::table_i();
        let fast = error_rate_for_clock(&params, 20e-6, 0.8e-9, 64, 3);
        let slow = error_rate_for_clock(&params, 20e-6, 6e-9, 64, 3);
        assert!(slow <= fast, "slow clock {slow} vs fast clock {fast}");
        assert!(
            slow < 0.05,
            "6 ns clock should be near-deterministic: {slow}"
        );
        assert!(fast > 0.2, "0.8 ns clock should err often: {fast}");
    }

    #[test]
    fn error_rate_decreases_with_higher_current() {
        // Fig. 4: higher I_S → faster, tighter distribution → fewer misses
        // at a fixed (aggressive) clock.
        let params = SwitchParams::table_i();
        let low = error_rate_for_clock(&params, 20e-6, 1.2e-9, 64, 5);
        let high = error_rate_for_clock(&params, 100e-6, 1.2e-9, 64, 5);
        assert!(high < low, "I_S=100uA err {high} vs 20uA err {low}");
    }

    #[test]
    fn zero_error_rate_is_exact() {
        let mut p = StochasticPrimitive::new(GsheConfig::for_function(Bf2::NAND), 0.0, 1);
        for _ in 0..100 {
            assert!(!p.evaluate(true, true));
            assert!(p.evaluate(false, true));
        }
        assert_eq!(p.stats().1, 0);
    }

    #[test]
    fn observed_error_rate_matches_configuration() {
        let mut p = StochasticPrimitive::new(GsheConfig::for_function(Bf2::AND), 0.05, 7);
        let n = 20_000;
        for _ in 0..n {
            let _ = p.evaluate(true, true);
        }
        let (evals, errs) = p.stats();
        assert_eq!(evals, n);
        let rate = errs as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "observed {rate}");
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn error_rate_bounds_checked() {
        let _ = StochasticPrimitive::new(GsheConfig::for_function(Bf2::AND), -0.1, 0);
    }

    #[test]
    fn drive_profile_orders_rates_by_clock() {
        // Two switches at the same current: the aggressively-clocked one
        // must be at least as noisy as the relaxed one, and unlisted nodes
        // stay deterministic. Duplicate drive points share one Monte Carlo
        // measurement (identical rates).
        let params = SwitchParams::table_i();
        let drives = [
            SwitchDrive {
                node: NodeId(1),
                i_s: 20e-6,
                t_clk: 0.8e-9,
            },
            SwitchDrive {
                node: NodeId(3),
                i_s: 20e-6,
                t_clk: 6e-9,
            },
            SwitchDrive {
                node: NodeId(4),
                i_s: 20e-6,
                t_clk: 0.8e-9,
            },
        ];
        let profile = error_profile_for_drives(&params, 6, &drives, 64, 3);
        assert_eq!(profile.len(), 6);
        assert_eq!(profile.rate(NodeId(0)), 0.0);
        assert_eq!(profile.rate(NodeId(2)), 0.0);
        assert!(profile.rate(NodeId(1)) >= profile.rate(NodeId(3)));
        assert!(profile.rate(NodeId(1)) > 0.2, "0.8 ns clock should err");
        assert_eq!(profile.rate(NodeId(1)), profile.rate(NodeId(4)));
    }
}
