//! Bagged random forests with per-split feature subsampling.

use crate::tree::{Lanes, RegressionTree, TreeConfig};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::executor::Executor;
use archgym_core::space::Action;
use archgym_core::stats::rmse;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Forest hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of features examined at each split, in `(0, 1]`.
    pub feature_frac: f64,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 24,
            max_depth: 10,
            min_samples_leaf: 2,
            feature_frac: 0.7,
        }
    }
}

/// A bagged random-forest regressor. Every prediction walks the flat
/// node lanes each [`RegressionTree`] was grown into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Fit a forest: each tree trains on a bootstrap resample with
    /// per-split feature subsampling.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Dataset`] for empty or mismatched data,
    /// ragged or zero-width feature rows, a NaN feature value, or
    /// degenerate hyperparameters; nothing is grown in those cases.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], config: &ForestConfig, seed: u64) -> Result<Self> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(ArchGymError::Dataset(format!(
                "bad training set: {} rows, {} targets",
                xs.len(),
                ys.len()
            )));
        }
        if config.n_trees == 0
            || !(0.0..=1.0).contains(&config.feature_frac)
            || config.feature_frac <= 0.0
        {
            return Err(ArchGymError::Dataset(
                "forest needs n_trees >= 1 and feature_frac in (0, 1]".into(),
            ));
        }
        let n_features = xs[0].len();
        if n_features == 0 {
            return Err(ArchGymError::Dataset("feature rows have zero width".into()));
        }
        check_width(xs, n_features)?;
        let lanes = Lanes::new(xs)
            .map_err(|row| ArchGymError::Dataset(format!("feature row {row} holds a NaN value")))?;
        let features_per_split =
            ((n_features as f64 * config.feature_frac).ceil() as usize).clamp(1, n_features);
        let tree_cfg = TreeConfig {
            max_depth: config.max_depth,
            min_samples_leaf: config.min_samples_leaf.max(1),
            features_per_split: Some(features_per_split),
        };
        // Each tree gets its own deterministic sub-seed, so training is
        // bit-identical whether it runs on one thread or many.
        let n = xs.len();
        let tree_ids: Vec<usize> = (0..config.n_trees).collect();
        let trees = Executor::new(0).map(&tree_ids, |&tree_idx| {
            let mut rng = archgym_core::seeded_rng(
                seed ^ (tree_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            RegressionTree::fit_with(&lanes, ys, rows, &tree_cfg, &mut rng)
        });
        Ok(RandomForest { trees })
    }

    /// Predict: the mean over all trees.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.trees.iter().map(|t| t.predict(x)).sum::<f64>() / self.trees.len() as f64
    }

    /// Predict a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Predict one row with its ensemble disagreement: the mean over
    /// trees and the population variance of the per-tree predictions.
    /// High variance marks regions the forest has not learned — the
    /// screening layer samples them for exploration.
    pub fn predict_stats(&self, x: &[f64]) -> (f64, f64) {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for tree in &self.trees {
            let p = tree.predict(x);
            sum += p;
            sum_sq += p * p;
        }
        let n = self.trees.len() as f64;
        let mean = sum / n;
        (mean, (sum_sq / n - mean * mean).max(0.0))
    }

    /// Batch mean/variance over [`Action`]s into caller-owned buffers,
    /// using `scratch` to hold the feature row — zero allocation once
    /// all three buffers have warmed to size.
    ///
    /// Each action's indices become the feature row (`index as f64`),
    /// matching how the online proxy trains.
    pub fn predict_action_stats(
        &self,
        candidates: &[Action],
        means: &mut Vec<f64>,
        vars: &mut Vec<f64>,
        scratch: &mut Vec<f64>,
    ) {
        means.clear();
        vars.clear();
        means.reserve(candidates.len());
        vars.reserve(candidates.len());
        for action in candidates {
            scratch.clear();
            scratch.extend(action.as_slice().iter().map(|&i| i as f64));
            let (mean, var) = self.predict_stats(scratch);
            means.push(mean);
            vars.push(var);
        }
    }

    /// Feature width every prediction expects.
    pub(crate) fn n_features(&self) -> usize {
        self.trees[0].n_features()
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest has zero trees (never true after `fit`).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Random hyperparameter search (the paper's Section 7.2 protocol):
    /// try `budget` random configurations, return the forest with the
    /// lowest RMSE on the validation split along with that RMSE.
    ///
    /// # Errors
    ///
    /// Propagates fit errors; errors if any split is empty or a
    /// validation row's width differs from the training rows'.
    pub fn fit_best(
        train: (&[Vec<f64>], &[f64]),
        valid: (&[Vec<f64>], &[f64]),
        budget: usize,
        seed: u64,
    ) -> Result<(RandomForest, ForestConfig, f64)> {
        if valid.0.is_empty() {
            return Err(ArchGymError::Dataset("empty validation split".into()));
        }
        check_width(valid.0, train.0.first().map_or(0, Vec::len))?;
        let mut rng = archgym_core::seeded_rng(seed);
        let mut best: Option<(RandomForest, ForestConfig, f64)> = None;
        for trial in 0..budget.max(1) {
            let config = ForestConfig {
                n_trees: [8, 16, 24, 32][rng.gen_range(0..4usize)],
                max_depth: rng.gen_range(6..=16),
                min_samples_leaf: rng.gen_range(1..=4),
                feature_frac: rng.gen_range(0.4..=1.0),
            };
            let forest = RandomForest::fit(train.0, train.1, &config, seed ^ trial as u64)?;
            let err = rmse(&forest.predict_batch(valid.0), valid.1);
            if best.as_ref().is_none_or(|(_, _, b)| err < *b) {
                best = Some((forest, config, err));
            }
        }
        Ok(best.expect("budget >= 1"))
    }
}

/// Fails with [`ArchGymError::Dataset`] unless every row of `xs` has
/// `width` features.
pub(crate) fn check_width(xs: &[Vec<f64>], width: usize) -> Result<()> {
    match xs.iter().find(|x| x.len() != width) {
        Some(x) => Err(ArchGymError::Dataset(format!(
            "feature row has width {}, expected {width}",
            x.len()
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn friedman_like(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        use rand::Rng;
        let mut rng = archgym_core::seeded_rng(seed);
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 10.0 * x[0] + 5.0 * x[1] * x[1] + 2.0 * x[2] - x[3])
            .collect();
        (xs, ys)
    }

    #[test]
    fn forest_beats_a_stump_on_nonlinear_data() {
        let (xs, ys) = friedman_like(300, 1);
        let (tx, ty) = (&xs[..200], &ys[..200]);
        let (vx, vy) = (&xs[200..], &ys[200..]);
        let forest = RandomForest::fit(tx, ty, &ForestConfig::default(), 2).unwrap();
        let forest_err = rmse(&forest.predict_batch(vx), vy);
        let stump = RandomForest::fit(
            tx,
            ty,
            &ForestConfig {
                n_trees: 1,
                max_depth: 1,
                ..ForestConfig::default()
            },
            2,
        )
        .unwrap();
        let stump_err = rmse(&stump.predict_batch(vx), vy);
        assert!(
            forest_err < stump_err / 2.0,
            "forest {forest_err} vs stump {stump_err}"
        );
        assert!(forest_err < 1.0, "forest RMSE {forest_err}");
    }

    #[test]
    fn more_training_data_reduces_error() {
        // The Fig. 10 "dataset size matters" trend, in miniature.
        let (xs, ys) = friedman_like(600, 3);
        let (vx, vy) = (&xs[500..], &ys[500..]);
        let small = RandomForest::fit(&xs[..50], &ys[..50], &ForestConfig::default(), 4).unwrap();
        let large = RandomForest::fit(&xs[..500], &ys[..500], &ForestConfig::default(), 4).unwrap();
        let small_err = rmse(&small.predict_batch(vx), vy);
        let large_err = rmse(&large.predict_batch(vx), vy);
        assert!(
            large_err < small_err,
            "large {large_err} vs small {small_err}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (xs, ys) = friedman_like(100, 5);
        let a = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 9).unwrap();
        let b = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 9).unwrap();
        assert_eq!(a, b);
        let c = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fit_rejects_bad_inputs() {
        assert!(RandomForest::fit(&[], &[], &ForestConfig::default(), 0).is_err());
        let xs = vec![vec![1.0]];
        assert!(RandomForest::fit(&xs, &[1.0, 2.0], &ForestConfig::default(), 0).is_err());
        let bad = ForestConfig {
            n_trees: 0,
            ..ForestConfig::default()
        };
        assert!(RandomForest::fit(&xs, &[1.0], &bad, 0).is_err());
    }

    #[test]
    fn fit_rejects_ragged_and_zero_width_rows() {
        let config = ForestConfig::default();
        let ragged = vec![vec![1.0, 2.0], vec![3.0]];
        let err = RandomForest::fit(&ragged, &[1.0, 2.0], &config, 0).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)), "{err}");
        let empty_rows = vec![Vec::new(), Vec::new()];
        let err = RandomForest::fit(&empty_rows, &[1.0, 2.0], &config, 0).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)), "{err}");
        // A validation row narrower than the training rows is caught
        // before any prediction walks off the end of it.
        let (xs, ys) = friedman_like(40, 3);
        let narrow = vec![vec![0.5; 3]];
        let err = RandomForest::fit_best((&xs, &ys), (&narrow, &[1.0]), 1, 0).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)), "{err}");
    }

    #[test]
    fn fit_rejects_a_nan_feature_without_growing_a_tree() {
        let (mut xs, ys) = friedman_like(40, 3);
        xs[17][2] = f64::NAN;
        let err = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 0).unwrap_err();
        assert!(matches!(err, ArchGymError::Dataset(_)), "{err}");
        assert!(err.to_string().contains("row 17"), "{err}");
        // Infinite values order fine and stay accepted.
        xs[17][2] = f64::INFINITY;
        assert!(RandomForest::fit(&xs, &ys, &ForestConfig::default(), 0).is_ok());
    }

    #[test]
    fn stats_mean_matches_predict_and_variance_is_sane() {
        let (xs, ys) = friedman_like(150, 17);
        let forest =
            RandomForest::fit(&xs[..120], &ys[..120], &ForestConfig::default(), 5).unwrap();
        for x in &xs[120..] {
            let (mean, var) = forest.predict_stats(x);
            assert!(var >= 0.0);
            // Same accumulation order as predict(): bit-identical mean.
            assert_eq!(mean, forest.predict(x));
        }
        // Far outside the training hull the trees disagree more than at
        // the training centroid — the exploration signal.
        let (_, var_out) = forest.predict_stats(&[50.0, -50.0, 50.0, -50.0]);
        assert!(var_out > 0.0, "out-of-hull variance {var_out}");
    }

    #[test]
    fn action_stats_reuse_buffers_without_allocating_per_sample() {
        let (xs, ys) = friedman_like(120, 27);
        let forest = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 13).unwrap();
        let candidates: Vec<Action> = (0..32)
            .map(|i| Action::new(vec![i % 8, (i * 3) % 8, (i * 5) % 8, (i * 7) % 8]))
            .collect();
        let mut means = Vec::new();
        let mut vars = Vec::new();
        let mut scratch = Vec::new();
        forest.predict_action_stats(&candidates, &mut means, &mut vars, &mut scratch);
        assert_eq!(means.len(), 32);
        assert_eq!(vars.len(), 32);
        let cap = (means.capacity(), vars.capacity(), scratch.capacity());
        // Second pass with warmed buffers: capacities must not grow.
        forest.predict_action_stats(&candidates, &mut means, &mut vars, &mut scratch);
        assert_eq!(cap, (means.capacity(), vars.capacity(), scratch.capacity()));
        // And the rows must match a hand-built feature evaluation.
        for (action, &mean) in candidates.iter().zip(&means) {
            let row: Vec<f64> = action.as_slice().iter().map(|&i| i as f64).collect();
            assert_eq!(mean.to_bits(), forest.predict(&row).to_bits());
        }
    }

    #[test]
    fn fit_best_returns_lowest_validation_error() {
        let (xs, ys) = friedman_like(240, 7);
        let (forest, config, err) =
            RandomForest::fit_best((&xs[..180], &ys[..180]), (&xs[180..], &ys[180..]), 6, 11)
                .unwrap();
        assert!(err < 1.5, "tuned RMSE {err}");
        assert!(config.n_trees >= 8);
        assert!(!forest.is_empty());
    }
}
