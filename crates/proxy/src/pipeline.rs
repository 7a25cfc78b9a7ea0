//! Dataset → proxy-model training pipeline (the paper's Fig. 9).
//!
//! Utilities for building the Fig. 10 dataset tiers — fixed-size samples
//! drawn either from a *single agent* ("ACO-only") or blended across all
//! agents ("diverse") — training one random forest per target metric,
//! and reporting RMSE / correlation against held-out simulator truth.

use crate::forest::{check_width, ForestConfig, RandomForest};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::stats::{pearson, rmse};
use archgym_core::trajectory::Dataset;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trained proxy for one observation metric of one environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyModel {
    metric: usize,
    forest: RandomForest,
}

impl ProxyModel {
    /// The observation-metric index this proxy predicts.
    pub fn metric(&self) -> usize {
        self.metric
    }

    /// Predict the metric from raw action indices.
    pub fn predict(&self, action_indices: &[usize]) -> f64 {
        let x: Vec<f64> = action_indices.iter().map(|&i| i as f64).collect();
        self.forest.predict(&x)
    }

    /// Evaluate on a held-out dataset.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] on empty or malformed data.
    pub fn report(&self, test: &Dataset) -> Result<ProxyReport> {
        let (xs, ys) = test.features_targets(self.metric)?;
        check_width(&xs, self.forest.n_features())?;
        let preds: Vec<f64> = xs.iter().map(|x| self.forest.predict(x)).collect();
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let err = rmse(&preds, &ys);
        Ok(ProxyReport {
            metric: self.metric,
            rmse: err,
            relative_rmse: if mean.abs() < f64::EPSILON {
                f64::INFINITY
            } else {
                err / mean.abs()
            },
            correlation: pearson(&preds, &ys),
            n_test: ys.len(),
        })
    }
}

/// Held-out accuracy of a proxy model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProxyReport {
    /// Metric index predicted.
    pub metric: usize,
    /// Root-mean-square error in the metric's units.
    pub rmse: f64,
    /// RMSE divided by the mean target magnitude (the paper quotes
    /// percentages like "0.61 %").
    pub relative_rmse: f64,
    /// Pearson correlation of predicted vs actual (Fig. 11).
    pub correlation: f64,
    /// Held-out sample count.
    pub n_test: usize,
}

/// Train a proxy for `metric` on a training dataset, tuning forest
/// hyperparameters with a small random search against a validation
/// fraction of the training data (the paper's protocol).
///
/// # Errors
///
/// Returns [`ArchGymError::Dataset`] when the dataset is too small to
/// split (fewer than 8 transitions) or malformed.
pub fn train_proxy(
    train: &Dataset,
    metric: usize,
    search_budget: usize,
    seed: u64,
) -> Result<ProxyModel> {
    if train.len() < 8 {
        return Err(ArchGymError::Dataset(format!(
            "need at least 8 transitions to train a proxy, got {}",
            train.len()
        )));
    }
    let mut rng = archgym_core::seeded_rng(seed);
    let (fit_split, valid_split) = train.split(0.8, &mut rng);
    let (fx, fy) = fit_split.features_targets(metric)?;
    let (vx, vy) = valid_split.features_targets(metric)?;
    let (forest, _config, _err) =
        RandomForest::fit_best((&fx, &fy), (&vx, &vy), search_budget.max(1), seed)?;
    Ok(ProxyModel { metric, forest })
}

/// Train a proxy with fixed hyperparameters (no search).
///
/// # Errors
///
/// Propagates dataset and fit errors.
pub fn train_proxy_fixed(
    train: &Dataset,
    metric: usize,
    config: &ForestConfig,
    seed: u64,
) -> Result<ProxyModel> {
    let (xs, ys) = train.features_targets(metric)?;
    Ok(ProxyModel {
        metric,
        forest: RandomForest::fit(&xs, &ys, config, seed)?,
    })
}

/// The Fig. 10 dataset tiers: for each requested size, a single-source
/// sample and a diverse (all-agents) sample.
#[derive(Debug, Clone)]
pub struct DatasetTiers {
    /// `(size, single-source dataset, diverse dataset)` triples.
    pub tiers: Vec<(usize, Dataset, Dataset)>,
}

impl DatasetTiers {
    /// Build tiers from a pooled dataset. `single_agent` names the
    /// single-source agent (the paper uses ACO); each tier samples
    /// `size` transitions (clamped to availability) from the respective
    /// pool.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] when the pool holds no
    /// transitions from `single_agent`.
    pub fn build<R: Rng + ?Sized>(
        pool: &Dataset,
        single_agent: &str,
        sizes: &[usize],
        rng: &mut R,
    ) -> Result<DatasetTiers> {
        let single_pool = pool.filter_agent(single_agent);
        if single_pool.is_empty() {
            return Err(ArchGymError::Dataset(format!(
                "no transitions from agent `{single_agent}` in the pool"
            )));
        }
        let tiers = sizes
            .iter()
            .map(|&size| (size, single_pool.sample(size, rng), pool.sample(size, rng)))
            .collect();
        Ok(DatasetTiers { tiers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::env::{Observation, StepResult};
    use archgym_core::seeded_rng;
    use archgym_core::space::Action;
    use archgym_core::trajectory::Transition;

    /// Synthetic "simulator": metric 0 = 2·a₀ + a₁² (deterministic in the
    /// action), logged by two different agents over different regions.
    fn synthetic_pool() -> Dataset {
        let mut pool = Dataset::new();
        let mut push = |agent: &str, a0: usize, a1: usize| {
            let y = 2.0 * a0 as f64 + (a1 as f64).powi(2);
            let result = StepResult::terminal(Observation::new(vec![y]), -y);
            pool.push(Transition::new(
                "toy",
                agent,
                Action::new(vec![a0, a1]),
                &result,
            ));
        };
        // "aco" explores only the low corner; "ga"/"rw" cover the rest —
        // the diversity effect in miniature.
        for a0 in 0..4 {
            for a1 in 0..4 {
                push("aco", a0, a1);
            }
        }
        for a0 in 0..16 {
            for a1 in 0..16 {
                if a0 >= 4 || a1 >= 4 {
                    push(if a0 % 2 == 0 { "ga" } else { "rw" }, a0, a1);
                }
            }
        }
        pool
    }

    fn uniform_test_set() -> Dataset {
        let mut d = Dataset::new();
        for a0 in (0..16).step_by(3) {
            for a1 in (0..16).step_by(3) {
                let y = 2.0 * a0 as f64 + (a1 as f64).powi(2);
                let result = StepResult::terminal(Observation::new(vec![y]), -y);
                d.push(Transition::new(
                    "toy",
                    "test",
                    Action::new(vec![a0, a1]),
                    &result,
                ));
            }
        }
        d
    }

    #[test]
    fn trained_proxy_predicts_held_out_points() {
        let pool = synthetic_pool();
        let proxy = train_proxy(&pool, 0, 4, 1).unwrap();
        let report = proxy.report(&uniform_test_set()).unwrap();
        assert!(report.rmse < 12.0, "rmse {}", report.rmse);
        assert!(report.correlation > 0.95, "corr {}", report.correlation);
        assert!(report.relative_rmse < 0.2);
    }

    #[test]
    fn diverse_data_beats_single_source_out_of_distribution() {
        // The paper's core Section 7 claim, in miniature: the ACO-only
        // dataset covers a corner, so it extrapolates poorly.
        let pool = synthetic_pool();
        let mut rng = seeded_rng(2);
        let tiers = DatasetTiers::build(&pool, "aco", &[16, 64], &mut rng).unwrap();
        let test = uniform_test_set();
        let (_, single, diverse) = &tiers.tiers[1];
        let p_single = train_proxy_fixed(single, 0, &ForestConfig::default(), 3).unwrap();
        let p_diverse = train_proxy_fixed(diverse, 0, &ForestConfig::default(), 3).unwrap();
        let r_single = p_single.report(&test).unwrap();
        let r_diverse = p_diverse.report(&test).unwrap();
        assert!(
            r_diverse.rmse < r_single.rmse / 2.0,
            "diverse {} vs single {}",
            r_diverse.rmse,
            r_single.rmse
        );
    }

    #[test]
    fn tiers_have_requested_sizes() {
        let pool = synthetic_pool();
        let mut rng = seeded_rng(4);
        let tiers = DatasetTiers::build(&pool, "aco", &[8, 1000], &mut rng).unwrap();
        assert_eq!(tiers.tiers[0].1.len(), 8);
        assert_eq!(tiers.tiers[0].2.len(), 8);
        // Clamped to availability: ACO has only 16 transitions.
        assert_eq!(tiers.tiers[1].1.len(), 16);
        assert!(tiers.tiers[1].2.len() > 16);
    }

    #[test]
    fn tiers_reject_unknown_single_agent() {
        let pool = synthetic_pool();
        let mut rng = seeded_rng(5);
        assert!(DatasetTiers::build(&pool, "bo", &[8], &mut rng).is_err());
    }

    #[test]
    fn report_rejects_a_test_set_of_the_wrong_width() {
        let proxy = train_proxy(&synthetic_pool(), 0, 2, 1).unwrap();
        let mut narrow = Dataset::new();
        let result = StepResult::terminal(Observation::new(vec![1.0]), 0.0);
        narrow.push(Transition::new("toy", "rw", Action::new(vec![3]), &result));
        let err = proxy.report(&narrow).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)), "{err}");
    }

    #[test]
    fn train_proxy_needs_enough_data() {
        let mut tiny = Dataset::new();
        let result = StepResult::terminal(Observation::new(vec![1.0]), 0.0);
        tiny.push(Transition::new("toy", "rw", Action::new(vec![0]), &result));
        assert!(train_proxy(&tiny, 0, 2, 0).is_err());
    }

    #[test]
    fn proxy_metric_accessor() {
        let pool = synthetic_pool();
        let proxy = train_proxy(&pool, 0, 2, 6).unwrap();
        assert_eq!(proxy.metric(), 0);
        let y = proxy.predict(&[2, 3]);
        assert!((y - 13.0).abs() < 10.0);
    }
}
