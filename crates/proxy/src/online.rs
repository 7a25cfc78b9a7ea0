//! The online proxy: a forest screener trained from the run's own
//! settled samples.
//!
//! This is the concrete [`Screener`] behind `SearchLoop`'s proxy layer
//! (the paper's Part 3 surrogate, moved *into* the loop). It trains a
//! [`RandomForest`] on the (action indices → reward) pairs the search
//! has already paid true simulations for, predicts from it without
//! allocating per batch, and retrains on a deterministic cadence as more
//! samples settle.
//!
//! Life-cycle:
//!
//! 1. **Warm-up** — until `policy.warmup` samples have been observed the
//!    proxy reports not-ready and the driver runs plain batches.
//! 2. **Screening** — after the first fit, every proposal batch is
//!    ranked and pruned by the driver; each admitted sample's true
//!    reward feeds back through [`Screener::observe`], and every
//!    `policy.refit_every` new samples trigger a refit.
//! 3. **Re-validation** — the driver periodically bypasses the screen
//!    and hands the full batch's (predicted, actual) pairs to
//!    [`Screener::revalidate`]. Drift — prediction RMSE at or above the
//!    spread of the true rewards — forces an immediate refit; three
//!    consecutive drifting re-validations disable screening for the
//!    rest of the run (the run completes unscreened rather than chase a
//!    surrogate that cannot track the objective).
//!
//! Determinism: every fit uses seed `base_seed ^ fit_count`, training
//! data is the exact observed sample stream, and nothing reads a clock
//! or an unseeded RNG — so proxy state is a pure function of the seed
//! and the call sequence, which is what lets journaled screened runs
//! replay bit-identically.

use crate::forest::{ForestConfig, RandomForest};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::space::Action;
use archgym_core::stats::{rmse, std_dev};
use archgym_core::telemetry::{Counter, Recorder};

/// Most recent samples kept for training; older ones age out so refit
/// cost stays bounded on long runs.
const MAX_TRAIN: usize = 4096;

/// Consecutive drifting re-validations before screening is disabled.
const MAX_DRIFT_STRIKES: u32 = 3;

/// Forest hyperparameters sized for in-loop refits: fewer, shallower
/// trees than the offline default so a refit costs milliseconds.
pub fn online_forest_config() -> ForestConfig {
    ForestConfig {
        n_trees: 12,
        max_depth: 8,
        min_samples_leaf: 2,
        feature_frac: 0.7,
    }
}

/// A [`RandomForest`]-backed online [`Screener`].
#[derive(Debug, Clone)]
pub struct OnlineProxy {
    policy: ScreenPolicy,
    config: ForestConfig,
    seed: u64,
    /// Training rows: one action's indices as `f64`s per row.
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// The fitted model; `None` until the first fit.
    forest: Option<RandomForest>,
    fits: u64,
    samples_seen: u64,
    samples_at_fit: u64,
    drift_strikes: u32,
    disabled: bool,
    recorder: Recorder,
    scratch: Vec<f64>,
}

impl OnlineProxy {
    /// Build a proxy with explicit forest hyperparameters.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidConfig`] for a degenerate policy.
    pub fn new(policy: ScreenPolicy, config: ForestConfig, seed: u64) -> Result<Self> {
        policy.validate().map_err(ArchGymError::InvalidConfig)?;
        Ok(OnlineProxy {
            policy,
            config,
            seed,
            xs: Vec::new(),
            ys: Vec::new(),
            forest: None,
            fits: 0,
            samples_seen: 0,
            samples_at_fit: 0,
            drift_strikes: 0,
            disabled: false,
            recorder: Recorder::disabled(),
            scratch: Vec::new(),
        })
    }

    /// Build a proxy with the in-loop forest sizing
    /// ([`online_forest_config`]).
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidConfig`] for a degenerate policy.
    pub fn with_defaults(policy: ScreenPolicy, seed: u64) -> Result<Self> {
        Self::new(policy, online_forest_config(), seed)
    }

    /// Samples observed so far (including aged-out ones).
    pub fn samples_seen(&self) -> u64 {
        self.samples_seen
    }

    /// Whether persistent drift has permanently disabled screening.
    pub fn is_disabled(&self) -> bool {
        self.disabled
    }

    /// Train on everything observed.
    fn fit(&mut self) {
        let fit_seed = self.seed ^ self.fits;
        let forest = RandomForest::fit(&self.xs, &self.ys, &self.config, fit_seed)
            .expect("online proxy fits only on non-empty data");
        self.forest = Some(forest);
        self.fits += 1;
        self.samples_at_fit = self.samples_seen;
        self.recorder.incr(Counter::ProxyRefits);
    }
}

impl Screener for OnlineProxy {
    fn policy(&self) -> ScreenPolicy {
        self.policy
    }

    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.recorder = recorder.clone();
    }

    fn observe(&mut self, actions: &[Action], rewards: &[f64]) {
        debug_assert_eq!(actions.len(), rewards.len());
        for (action, &reward) in actions.iter().zip(rewards) {
            self.xs
                .push(action.as_slice().iter().map(|&i| i as f64).collect());
            self.ys.push(reward);
        }
        self.samples_seen += actions.len() as u64;
        if self.xs.len() > MAX_TRAIN {
            let drop = self.xs.len() - MAX_TRAIN;
            self.xs.drain(..drop);
            self.ys.drain(..drop);
        }
        if self.disabled {
            return;
        }
        let due = match self.forest {
            None => self.samples_seen >= self.policy.warmup,
            Some(_) => self.samples_seen - self.samples_at_fit >= self.policy.refit_every,
        };
        if due {
            self.fit();
        }
    }

    fn is_ready(&self) -> bool {
        !self.disabled && self.forest.is_some()
    }

    fn predict(&mut self, candidates: &[Action], means: &mut Vec<f64>, vars: &mut Vec<f64>) {
        match &self.forest {
            Some(forest) => forest.predict_action_stats(candidates, means, vars, &mut self.scratch),
            None => {
                // Defensive: the driver only predicts when ready.
                means.clear();
                vars.clear();
                means.resize(candidates.len(), 0.0);
                vars.resize(candidates.len(), 0.0);
            }
        }
    }

    fn revalidate(&mut self, predicted: &[f64], actual: &[f64]) {
        debug_assert_eq!(predicted.len(), actual.len());
        // A one-sample batch has no spread to compare against.
        if self.disabled || actual.len() < 2 {
            return;
        }
        let err = rmse(predicted, actual);
        let spread = std_dev(actual);
        // Drift: the proxy's error is as large as the signal itself. A
        // perfectly flat batch (spread 0) cannot convict a proxy whose
        // error is also ~0, hence the epsilon floor.
        if err >= spread.max(1e-12) {
            self.drift_strikes += 1;
            if self.drift_strikes >= MAX_DRIFT_STRIKES {
                self.disabled = true;
                self.forest = None;
            } else {
                self.fit();
            }
        } else {
            self.drift_strikes = 0;
        }
    }

    fn refits(&self) -> u64 {
        self.fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> ScreenPolicy {
        ScreenPolicy::default().warmup(16).refit_every(8)
    }

    /// actions over a 2-d space; reward = planted quadratic peak.
    fn sample(i: usize) -> (Action, f64) {
        let a = (i * 7) % 12;
        let b = (i * 5) % 12;
        let reward = 24.0 - ((a as f64 - 6.0).powi(2) + (b as f64 - 3.0).powi(2));
        (Action::new(vec![a, b]), reward)
    }

    fn feed(proxy: &mut OnlineProxy, from: usize, to: usize) {
        let (actions, rewards): (Vec<Action>, Vec<f64>) = (from..to).map(sample).unzip();
        proxy.observe(&actions, &rewards);
    }

    #[test]
    fn warms_up_then_fits_and_refits_on_cadence() {
        let mut proxy = OnlineProxy::with_defaults(policy(), 42).unwrap();
        assert!(!proxy.is_ready());
        feed(&mut proxy, 0, 15);
        assert!(!proxy.is_ready(), "below warmup");
        feed(&mut proxy, 15, 16);
        assert!(proxy.is_ready(), "warmup reached");
        assert_eq!(proxy.refits(), 1);
        feed(&mut proxy, 16, 23);
        assert_eq!(proxy.refits(), 1, "below refit cadence");
        feed(&mut proxy, 23, 24);
        assert_eq!(proxy.refits(), 2, "refit_every new samples");
    }

    #[test]
    fn predictions_rank_good_candidates_above_bad_ones() {
        let mut proxy = OnlineProxy::with_defaults(policy(), 7).unwrap();
        feed(&mut proxy, 0, 48);
        let candidates = vec![
            Action::new(vec![6, 3]), // the planted peak
            Action::new(vec![0, 11]),
        ];
        let mut means = Vec::new();
        let mut vars = Vec::new();
        proxy.predict(&candidates, &mut means, &mut vars);
        assert!(
            means[0] > means[1],
            "peak {} vs corner {}",
            means[0],
            means[1]
        );
        assert!(vars.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn proxy_state_is_deterministic_in_the_call_stream() {
        let run = || {
            let mut proxy = OnlineProxy::with_defaults(policy(), 9).unwrap();
            feed(&mut proxy, 0, 40);
            let candidates: Vec<Action> = (40..56).map(|i| sample(i).0).collect();
            let mut means = Vec::new();
            let mut vars = Vec::new();
            proxy.predict(&candidates, &mut means, &mut vars);
            (proxy.refits(), means, vars)
        };
        let (fits_a, means_a, vars_a) = run();
        let (fits_b, means_b, vars_b) = run();
        assert_eq!(fits_a, fits_b);
        assert_eq!(
            means_a.iter().map(|m| m.to_bits()).collect::<Vec<_>>(),
            means_b.iter().map(|m| m.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            vars_a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            vars_b.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drift_refits_then_persistent_drift_disables() {
        let mut proxy = OnlineProxy::with_defaults(policy(), 3).unwrap();
        feed(&mut proxy, 0, 20);
        assert!(proxy.is_ready());
        let fits_before = proxy.refits();
        // Predictions wildly off a wide-spread batch → drift strike + refit.
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]);
        assert!(proxy.is_ready());
        assert_eq!(proxy.refits(), fits_before + 1);
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]);
        assert!(proxy.is_ready());
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]);
        assert!(proxy.is_disabled(), "three strikes disable the screen");
        assert!(!proxy.is_ready());
        // Disabled is latched: more data never re-enables.
        feed(&mut proxy, 20, 60);
        assert!(!proxy.is_ready());
    }

    #[test]
    fn accurate_revalidation_clears_the_strike_count() {
        let mut proxy = OnlineProxy::with_defaults(policy(), 5).unwrap();
        feed(&mut proxy, 0, 20);
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]); // strike 1
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]); // strike 2
                                                                    // Near-perfect predictions on a wide-spread batch: strikes reset.
        proxy.revalidate(&[0.1, 10.0, 20.1], &[0.0, 10.0, 20.0]);
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]); // strike 1 again
        proxy.revalidate(&[100.0, -100.0, 50.0], &[0.0, 1.0, 2.0]); // strike 2
        assert!(!proxy.is_disabled(), "reset prevented the third strike");
    }

    #[test]
    fn refit_counter_reaches_telemetry() {
        let rec = Recorder::new();
        let mut proxy = OnlineProxy::with_defaults(policy(), 11).unwrap();
        proxy.set_telemetry(&rec);
        feed(&mut proxy, 0, 16);
        feed(&mut proxy, 16, 32);
        assert_eq!(rec.get(Counter::ProxyRefits), proxy.refits());
        assert!(proxy.refits() >= 2);
    }

    #[test]
    fn rejects_a_degenerate_policy() {
        let bad = ScreenPolicy::default().oversample(1);
        assert!(OnlineProxy::with_defaults(bad, 0).is_err());
    }

    #[test]
    fn training_window_is_bounded() {
        let mut proxy = OnlineProxy::with_defaults(
            ScreenPolicy::default().warmup(10_000).refit_every(10_000),
            13,
        )
        .unwrap();
        feed(&mut proxy, 0, MAX_TRAIN + 500);
        assert_eq!(proxy.xs.len(), MAX_TRAIN);
        assert_eq!(proxy.ys.len(), MAX_TRAIN);
        assert_eq!(proxy.samples_seen(), (MAX_TRAIN + 500) as u64);
    }
}
