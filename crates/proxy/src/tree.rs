//! CART regression trees with variance-reduction splits.
//!
//! A tree keeps its nodes in four parallel lanes (feature index,
//! threshold, left and right child offsets) in pre-order: parent, left
//! subtree, right subtree. Growth pushes each node straight into the
//! lanes, so a prediction walks exactly what the fit wrote. Leaves store
//! [`LEAF`] in the feature lane and reuse the threshold lane for their
//! value, keeping each node at 20 bytes.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Feature-lane sentinel marking a leaf node.
const LEAF: u32 = u32::MAX;

/// A CART regression tree.
///
/// Splits minimize the weighted variance of the two children (equivalent
/// to maximizing variance reduction); growth stops at `max_depth`, at
/// `min_samples_leaf`, or when a node is pure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTree {
    /// Split feature index, or [`LEAF`] for leaves.
    feature: Vec<u32>,
    /// Split threshold; doubles as the leaf value for leaves.
    threshold: Vec<f64>,
    /// Offset of the `<=` child (unused for leaves).
    left: Vec<u32>,
    /// Offset of the `>` child (unused for leaves).
    right: Vec<u32>,
    n_features: usize,
}

/// Tree growth limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreeConfig {
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    /// Features examined per split (`None` = all).
    pub features_per_split: Option<usize>,
}

impl RegressionTree {
    /// Fit a tree on the full feature set (no subsampling).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, lengths mismatch, or rows are ragged.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], max_depth: usize, min_samples_leaf: usize) -> Self {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(
            xs.iter().all(|x| x.len() == xs[0].len()),
            "ragged feature rows"
        );
        let cfg = TreeConfig {
            max_depth,
            min_samples_leaf: min_samples_leaf.max(1),
            features_per_split: None,
        };
        let mut rng = archgym_core::seeded_rng(0);
        let rows: Vec<usize> = (0..xs.len()).collect();
        Self::fit_with(xs, ys, &rows, &cfg, &mut rng)
    }

    /// Grow a tree on the rows `rows` of `xs`/`ys` (repeats allowed, as a
    /// bootstrap resample draws them). The caller has checked that the
    /// data is non-empty and rectangular.
    pub(crate) fn fit_with<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        ys: &[f64],
        rows: &[usize],
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Self {
        let mut tree = RegressionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            n_features: xs[0].len(),
        };
        tree.grow(xs, ys, rows, 0, cfg, rng);
        tree
    }

    /// Predict the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    #[inline]
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.n_features, "feature width mismatch");
        let mut at = 0;
        loop {
            let feature = self.feature[at];
            if feature == LEAF {
                return self.threshold[at];
            }
            at = if x[feature as usize] <= self.threshold[at] {
                self.left[at] as usize
            } else {
                self.right[at] as usize
            };
        }
    }

    /// Number of leaves (diagnostic).
    pub fn leaf_count(&self) -> usize {
        self.feature.iter().filter(|&&f| f == LEAF).count()
    }

    /// Maximum depth actually grown (diagnostic).
    pub fn depth(&self) -> usize {
        fn depth(tree: &RegressionTree, at: usize) -> usize {
            if tree.feature[at] == LEAF {
                return 0;
            }
            let left = depth(tree, tree.left[at] as usize);
            1 + left.max(depth(tree, tree.right[at] as usize))
        }
        depth(self, 0)
    }

    pub(crate) fn n_features(&self) -> usize {
        self.n_features
    }

    /// Append one node and return its offset.
    fn push(&mut self, feature: u32, threshold: f64) -> usize {
        let at = self.feature.len();
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        at
    }

    /// Grow the subtree over `indices` in pre-order: the node itself,
    /// then its left subtree, then its right, patching the child offsets
    /// once each subtree has claimed its slot.
    fn grow<R: Rng + ?Sized>(
        &mut self,
        xs: &[Vec<f64>],
        ys: &[f64],
        indices: &[usize],
        depth: usize,
        cfg: &TreeConfig,
        rng: &mut R,
    ) {
        let Some((feature, threshold)) = best_split(xs, ys, indices, depth, cfg, rng) else {
            self.push(LEAF, mean_of(ys, indices));
            return;
        };
        let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
            indices.iter().partition(|&&i| xs[i][feature] <= threshold);
        let at = self.push(
            u32::try_from(feature).expect("feature index exceeds u32"),
            threshold,
        );
        self.left[at] = self.next_offset();
        self.grow(xs, ys, &left_idx, depth + 1, cfg, rng);
        self.right[at] = self.next_offset();
        self.grow(xs, ys, &right_idx, depth + 1, cfg, rng);
    }

    fn next_offset(&self) -> u32 {
        u32::try_from(self.feature.len()).expect("tree exceeds u32 node offsets")
    }
}

fn mean_of(ys: &[f64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64
}

fn sse_of(ys: &[f64], indices: &[usize]) -> f64 {
    let m = mean_of(ys, indices);
    indices.iter().map(|&i| (ys[i] - m).powi(2)).sum()
}

/// The `(feature, threshold)` split of `indices` that most reduces the
/// children's summed squared error, or `None` when the node should be a
/// leaf (depth or size limit, pure node, or no split that helps).
fn best_split<R: Rng + ?Sized>(
    xs: &[Vec<f64>],
    ys: &[f64],
    indices: &[usize],
    depth: usize,
    cfg: &TreeConfig,
    rng: &mut R,
) -> Option<(usize, f64)> {
    if depth >= cfg.max_depth || indices.len() < 2 * cfg.min_samples_leaf {
        return None;
    }
    let parent_sse = sse_of(ys, indices);
    if parent_sse <= 1e-12 {
        return None; // pure node
    }

    let n_features = xs[0].len();
    let mut features: Vec<usize> = (0..n_features).collect();
    if let Some(k) = cfg.features_per_split {
        features.shuffle(rng);
        features.truncate(k.clamp(1, n_features));
    }

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for &f in &features {
        // Candidate thresholds: midpoints between consecutive distinct
        // sorted values.
        let mut values: Vec<f64> = indices.iter().map(|&i| xs[i][f]).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("NaN feature"));
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        for w in values.windows(2) {
            let threshold = (w[0] + w[1]) / 2.0;
            let (left, right): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| xs[i][f] <= threshold);
            if left.len() < cfg.min_samples_leaf || right.len() < cfg.min_samples_leaf {
                continue;
            }
            let sse = sse_of(ys, &left) + sse_of(ys, &right);
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((f, threshold, sse));
            }
        }
    }

    match best {
        Some((feature, threshold, sse)) if sse < parent_sse => Some((feature, threshold)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::stats::rmse;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 1 if x0 > 5 else 0 — a single split suffices.
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..20).map(|i| f64::from(i > 5)).collect();
        (xs, ys)
    }

    #[test]
    fn learns_a_step_function_exactly() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, 4, 1);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(tree.predict(x), y);
        }
        assert!(tree.leaf_count() >= 2);
    }

    #[test]
    fn depth_zero_tree_predicts_the_mean() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, 0, 1);
        let mean = ys.iter().sum::<f64>() / ys.len() as f64;
        assert_eq!(tree.predict(&[3.0]), mean);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, 10, 10);
        // With min leaf 10 on 20 points, at most one split is possible.
        assert!(tree.leaf_count() <= 2);
    }

    #[test]
    fn fits_a_smooth_function_approximately() {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![i as f64 / 20.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
        let tree = RegressionTree::fit(&xs, &ys, 8, 2);
        let preds: Vec<f64> = xs.iter().map(|x| tree.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 0.05);
    }

    #[test]
    fn uses_the_informative_feature() {
        // Feature 1 is noise; feature 0 carries the signal.
        let xs: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i / 10) as f64, ((i * 7919) % 13) as f64])
            .collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 10.0).collect();
        let tree = RegressionTree::fit(&xs, &ys, 6, 1);
        let preds: Vec<f64> = xs.iter().map(|x| tree.predict(x)).collect();
        assert!(rmse(&preds, &ys) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_fit_panics() {
        let _ = RegressionTree::fit(&[], &[], 3, 1);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_predict_panics() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, 3, 1);
        let _ = tree.predict(&[1.0, 2.0]);
    }
}
