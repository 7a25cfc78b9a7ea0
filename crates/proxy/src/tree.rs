//! CART regression trees with variance-reduction splits.
//!
//! A tree keeps its nodes in four parallel lanes (feature index,
//! threshold, left and right child offsets) in pre-order: parent, left
//! subtree, right subtree. Growth pushes each node straight into the
//! lanes, so a prediction walks exactly what the fit wrote. Leaves store
//! [`LEAF`] in the feature lane and reuse the threshold lane for their
//! value, keeping each node at 20 bytes.
//!
//! # Split search
//!
//! A split is the `(feature, threshold)` pair, over the sampled features
//! in their shuffled order and then ascending thresholds (midpoints of
//! consecutive distinct values), whose children have the least summed
//! squared error; the first such pair wins ties. "Squared error" means a
//! specific float: each child's two-pass sum over the node's rows in
//! their own order (mean, then squared deviations, both with
//! `Iterator::sum`). Scoring every threshold that way costs
//! O(n × distinct) per feature, so the search filters, then verifies:
//!
//! - **Filter.** Sort the node's rows by the feature once and sweep the
//!   prefix sums of the targets centred on the parent mean. That gives a
//!   one-pass estimate of every threshold's score together with a
//!   rigorous rounding bound (`Band`), so each threshold's exact score
//!   lies in a known interval. The smallest upper end over all
//!   thresholds bounds the winning score from above.
//! - **Verify.** Walk the thresholds in search order and compute the
//!   exact two-pass score only where the interval's lower end reaches
//!   both that global upper bound and the best exact score so far. A
//!   skipped threshold scores strictly above some other one, so it can
//!   never be the first minimum; the first minimum is always verified
//!   and, with the same strict `<` update, always chosen.
//!
//! The result is the same tree, bit for bit, as scoring every threshold
//! exactly; the tests keep that exhaustive search as their oracle.

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

/// Training features stored column by column, so a split search reads
/// one feature's values contiguously, each alongside its dense rank
/// among the column's distinct values. Built once per fit and shared by
/// every tree of a forest.
pub(crate) struct Lanes {
    n_rows: usize,
    n_features: usize,
    /// Feature `f` of row `i` at `f * n_rows + i`.
    values: Vec<f64>,
    /// The rank of each value in its column's `distinct` values.
    ranks: Vec<u32>,
    /// Each column's distinct values, ascending (`-0.0` and `0.0` are
    /// one value), column `f` at `distinct_at[f]..distinct_at[f + 1]`.
    distinct: Vec<f64>,
    distinct_at: Vec<usize>,
}

impl Lanes {
    /// Transpose rectangular, non-empty rows of at least one feature.
    /// Fails with the index of the first row holding a NaN, which no
    /// threshold can order.
    pub(crate) fn new(xs: &[Vec<f64>]) -> Result<Self, usize> {
        if let Some(row) = xs.iter().position(|x| x.iter().any(|v| v.is_nan())) {
            return Err(row);
        }
        let (n_rows, n_features) = (xs.len(), xs[0].len());
        assert!(u32::try_from(n_rows).is_ok(), "more rows than u32 ranks");
        let mut values = Vec::with_capacity(n_rows * n_features);
        let mut ranks = vec![0; n_rows * n_features];
        let mut distinct = Vec::new();
        let mut distinct_at = vec![0];
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(n_rows);
        for f in 0..n_features {
            order.clear();
            order.extend(xs.iter().map(|x| x[f]).zip(0..));
            order.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN rejected above"));
            let first = distinct.len();
            for &(value, row) in &order {
                if distinct.len() == first || distinct[distinct.len() - 1] != value {
                    distinct.push(value + 0.0);
                }
                ranks[f * n_rows + row] = (distinct.len() - first - 1) as u32;
            }
            distinct_at.push(distinct.len());
            values.extend(xs.iter().map(|x| x[f]));
        }
        Ok(Lanes {
            n_rows,
            n_features,
            values,
            ranks,
            distinct,
            distinct_at,
        })
    }

    fn column(&self, feature: usize) -> &[f64] {
        &self.values[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    fn rank_column(&self, feature: usize) -> &[u32] {
        &self.ranks[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    fn distinct(&self, feature: usize) -> &[f64] {
        &self.distinct[self.distinct_at[feature]..self.distinct_at[feature + 1]]
    }
}

impl RegressionTree {
    /// Fit a tree on the full feature set (no subsampling).
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty, lengths mismatch, rows are ragged, or a
    /// feature value is NaN.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64], max_depth: usize, min_samples_leaf: usize) -> Self {
        assert!(!xs.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(xs.len(), ys.len(), "feature/target length mismatch");
        assert!(
            xs.iter().all(|x| x.len() == xs[0].len()),
            "ragged feature rows"
        );
        let lanes = Lanes::new(xs).unwrap_or_else(|row| panic!("NaN feature in row {row}"));
        let cfg = TreeConfig {
            max_depth,
            min_samples_leaf: min_samples_leaf.max(1),
            features_per_split: None,
        };
        let mut rng = archgym_core::seeded_rng(0);
        Self::fit_with(&lanes, ys, (0..xs.len()).collect(), &cfg, &mut rng)
    }

    /// Grow a tree on the rows `rows` of `lanes`/`ys` (repeats allowed,
    /// as a bootstrap resample draws them).
    pub(crate) fn fit_with<R: Rng + ?Sized>(
        lanes: &Lanes,
        ys: &[f64],
        rows: Vec<usize>,
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> Self {
        let mut tree = RegressionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            n_features: lanes.n_features,
        };
        let n = rows.len();
        let mut grower = Grower {
            lanes,
            ys,
            cfg,
            spill: Vec::with_capacity(n),
            features: Vec::with_capacity(lanes.n_features),
            centred: Vec::with_capacity(n),
            sorted: Vec::with_capacity(n),
            candidates: Vec::new(),
            rows,
        };
        grower.grow(&mut tree, 0, n, 0, rng);
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

    fn next_offset(&self) -> u32 {
        u32::try_from(self.feature.len()).expect("tree exceeds u32 node offsets")
    }
}

/// One tree's growth state. Every buffer is reused from node to node.
struct Grower<'a> {
    lanes: &'a Lanes,
    ys: &'a [f64],
    cfg: &'a TreeConfig,
    /// The tree's rows; each node owns a range, which its split
    /// partitions stably into the children's ranges.
    rows: Vec<usize>,
    /// The `>` rows while a range is partitioned.
    spill: Vec<usize>,
    /// The node's sampled features, in search order.
    features: Vec<usize>,
    /// The node's targets minus the parent mean, in row order.
    centred: Vec<f64>,
    /// One feature's `rank << 32 | position` per node row, sorted: the
    /// node's rows in ascending feature order.
    sorted: Vec<u64>,
    /// Thresholds that survived the filter, in search order.
    candidates: Vec<Candidate>,
}

/// A threshold awaiting verification.
struct Candidate {
    feature: usize,
    threshold: f64,
    /// A lower bound on the exact score, or `None` when the threshold
    /// must be scored exactly whatever the bounds say.
    lower: Option<f64>,
}

impl Grower<'_> {
    /// Grow the subtree over `rows[lo..hi]` in pre-order: the node
    /// itself, then its left subtree, then its right, patching the child
    /// offsets once each subtree has claimed its slot.
    fn grow<R: Rng + ?Sized>(
        &mut self,
        tree: &mut RegressionTree,
        lo: usize,
        hi: usize,
        depth: usize,
        rng: &mut R,
    ) {
        let mean = mean_of(self.ys, &self.rows[lo..hi]);
        let Some((feature, threshold)) = self.best_split(lo, hi, mean, depth, rng) else {
            tree.push(LEAF, mean);
            return;
        };
        let mid = self.partition(lo, hi, feature, threshold);
        let at = tree.push(
            u32::try_from(feature).expect("feature index exceeds u32"),
            threshold,
        );
        tree.left[at] = tree.next_offset();
        self.grow(tree, lo, mid, depth + 1, rng);
        tree.right[at] = tree.next_offset();
        self.grow(tree, mid, hi, depth + 1, rng);
    }

    /// Reorder `rows[lo..hi]` into the `x <= threshold` rows followed by
    /// the rest, each in their original order, and return the boundary.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let column = self.lanes.column(feature);
        self.spill.clear();
        let mut mid = lo;
        for at in lo..hi {
            let row = self.rows[at];
            if column[row] <= threshold {
                self.rows[mid] = row;
                mid += 1;
            } else {
                self.spill.push(row);
            }
        }
        self.rows[mid..hi].copy_from_slice(&self.spill);
        mid
    }

    /// The `(feature, threshold)` split of `rows[lo..hi]` (whose target
    /// mean is `mean`) that most reduces the children's summed squared
    /// error, or `None` when the node should be a leaf (depth or size
    /// limit, pure node, or no split that helps). See the module docs.
    fn best_split<R: Rng + ?Sized>(
        &mut self,
        lo: usize,
        hi: usize,
        mean: f64,
        depth: usize,
        rng: &mut R,
    ) -> Option<(usize, f64)> {
        let Grower {
            lanes,
            ys,
            cfg,
            rows,
            features,
            centred,
            sorted,
            candidates,
            ..
        } = self;
        let rows = &rows[lo..hi];
        let n = rows.len();
        let min_leaf = cfg.min_samples_leaf;
        if depth >= cfg.max_depth || n < 2 * min_leaf {
            return None;
        }
        centred.clear();
        centred.extend(rows.iter().map(|&i| ys[i] - mean));
        let parent_sse: f64 = centred.iter().map(|z| z.powi(2)).sum();
        if parent_sse <= 1e-12 {
            return None; // pure node
        }
        features.clear();
        features.extend(0..lanes.n_features);
        if let Some(k) = cfg.features_per_split {
            features.shuffle(rng);
            features.truncate(k.clamp(1, lanes.n_features));
        }
        if parent_sse.is_nan() {
            return None; // a NaN target: no score is below the parent's
        }

        let band = Band::new(n, mean, parent_sse, centred.iter().sum());
        let mut upper = f64::INFINITY;
        candidates.clear();
        for &feature in features.iter() {
            let ranks = lanes.rank_column(feature);
            sorted.clear();
            sorted.extend(
                rows.iter()
                    .zip(0..)
                    .map(|(&i, at)| u64::from(ranks[i]) << 32 | at),
            );
            sorted.sort_unstable();
            let distinct = lanes.distinct(feature);
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for at in 1..n {
                let (key, next) = (sorted[at - 1], sorted[at]);
                let z = centred[(key & u64::from(u32::MAX)) as usize];
                sum += z;
                sum_sq += z * z;
                let (rank, next_rank) = ((key >> 32) as usize, (next >> 32) as usize);
                if rank == next_rank {
                    continue;
                }
                let (a, b) = (distinct[rank], distinct[next_rank]);
                let threshold = (a + b) / 2.0;
                // `x <= threshold` splits the sorted rows at `at` only
                // when the midpoint lies in [a, b); a midpoint rounded up
                // to `b`, or an infinite or NaN one, splits elsewhere.
                if !(a <= threshold && threshold < b) {
                    candidates.push(Candidate {
                        feature,
                        threshold,
                        lower: None,
                    });
                    continue;
                }
                if at < min_leaf || n - at < min_leaf {
                    continue;
                }
                let lower = match band.interval(at, sum, sum_sq) {
                    Some((lower, high)) if lower <= upper => {
                        upper = upper.min(high);
                        Some(lower)
                    }
                    Some(_) => continue, // above a bound already met
                    None => None,
                };
                candidates.push(Candidate {
                    feature,
                    threshold,
                    lower,
                });
            }
        }

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for candidate in candidates.iter() {
            if let Some(lower) = candidate.lower {
                if lower > upper || best.is_some_and(|(_, _, b)| lower >= b) {
                    continue;
                }
            }
            let column = lanes.column(candidate.feature);
            let Some(sse) = split_sse(column, ys, rows, candidate.threshold, min_leaf) else {
                continue;
            };
            if best.is_none_or(|(_, _, b)| sse < b) {
                best = Some((candidate.feature, candidate.threshold, sse));
            }
        }

        match best {
            Some((feature, threshold, sse)) if sse < parent_sse => Some((feature, threshold)),
            _ => None,
        }
    }
}

/// Rounding bounds for one node's prefix-sum split scores.
///
/// Notation: `u = 2⁻⁵³`, `γₖ = k·u / (1 − k·u)`, and `G = γ_{n+4}` for a
/// node of `n` rows, which dominates every `γ` below. `μ` is the float
/// parent mean and `zᵢ = fl(yᵢ − μ)`; `wᵢ = yᵢ − μ` exactly, so
/// `|zᵢ − wᵢ| ≤ u·|wᵢ|`. `Q̂ₙ` is the node's float `Σ fl(zᵢ²)` (the
/// parent's own score) and `Ŝₙ` its float `Σ zᵢ`; recursive summation of
/// `k` terms errs by at most `γ_{k−1}·Σ|terms|`, so
/// `Qb = Q̂ₙ·(1 + 2G)` bounds both `Σ zᵢ²` and `Σ wᵢ²`, and
/// `Zb = √(n·Qb)` bounds `Σ|zᵢ|` (Cauchy–Schwarz).
///
/// For a side of `m` rows, the sweep has the prefix sums `Ŝ`, `Q̂` (the
/// right side takes `Ŝₙ − Ŝ`, `Q̂ₙ − Q̂`), so `|Ŝ − Σz| ≤ e_S = 3G·Zb`
/// and `|Q̂ − Σz²| ≤ 3G·Qb`. Its estimate is `Ê = fl(Q̂ − T̂)` with
/// `T̂ = fl(fl(Ŝ²)/m)`. Against the side's real score
/// `SSE = Σ(wᵢ − w̄)²`:
///
/// - `|T̂ − (Σz)²/m| ≤ G·T̂ + e_S·(2|Ŝ| + e_S)/m`;
/// - the final subtraction errs by at most `G·|Ê|`;
/// - centring on the float `zᵢ` instead of the `wᵢ` moves the score by
///   at most `3u·Σwᵢ² ≤ G·Qb` (the centred vectors differ in norm by at
///   most `u·‖w‖`);
///
/// so `|Ê − SSE| ≤ B = G·(4Qb + T̂ + |Ê|) + e_S·(2|Ŝ| + e_S)/m`, and
/// `SSE ≤ R = |Ê| + B`. The float two-pass score of the same side
/// computes a mean `m̂` within `δ ≤ G·A/m` of the real one, where
/// `A = Σ|yᵢ| ≤ m|μ| + √(m·Qb)`, then sums `m` squares of rounded
/// differences, each within a factor `(1 + γ₃)`; so it lies within
/// `O = G·R + 3G²·(mμ² + Qb)` of `SSE` (`m·δ² ≤ 2G²·(mμ² + Qb)`). Both
/// scores add their two sides with one more rounding each, which
/// `G·(|E| + 2(R_L + R_R + O_L + O_R))` covers, `E` being the estimate.
///
/// Every bound above is a sum of products of non-negative floats: the
/// final factor `1 + 2⁻⁴⁰` covers their own rounding, one more `G·|E|`
/// covers rounding `E ± bound`, and `16n·f64::MIN_POSITIVE` covers
/// gradual underflow. Any non-finite estimate or bound makes the
/// threshold verify exactly.
struct Band {
    n: f64,
    mean_sq: f64,
    total_sum: f64,
    total_sum_sq: f64,
    g: f64,
    qb: f64,
    e_sum: f64,
    slack: f64,
}

impl Band {
    fn new(n: usize, mean: f64, parent_sse: f64, total_sum: f64) -> Self {
        let k = (n + 4) as f64 * f64::EPSILON / 2.0;
        let g = k / (1.0 - k);
        let qb = parent_sse * (1.0 + 2.0 * g);
        Band {
            n: n as f64,
            mean_sq: mean * mean,
            total_sum,
            total_sum_sq: parent_sse,
            g,
            qb,
            e_sum: 3.0 * g * (n as f64 * qb).sqrt(),
            slack: 16.0 * n as f64 * f64::MIN_POSITIVE,
        }
    }

    /// `(lower, upper)` bounds on the exact score of the split whose
    /// left side is the first `n_left` sorted rows, with prefix sums
    /// `sum` and `sum_sq`; `None` when the arithmetic left finite range.
    fn interval(&self, n_left: usize, sum: f64, sum_sq: f64) -> Option<(f64, f64)> {
        let n_left = n_left as f64;
        let (est_l, b_l, r_l) = self.side(n_left, sum, sum_sq);
        let (est_r, b_r, r_r) = self.side(
            self.n - n_left,
            self.total_sum - sum,
            self.total_sum_sq - sum_sq,
        );
        let g = self.g;
        let est = est_l + est_r;
        let o_l = g * r_l + 3.0 * g * g * (n_left * self.mean_sq + self.qb);
        let o_r = g * r_r + 3.0 * g * g * ((self.n - n_left) * self.mean_sq + self.qb);
        let rounding = g * (2.0 * est.abs() + 2.0 * (r_l + r_r + o_l + o_r));
        let bound = (b_l + b_r + o_l + o_r + rounding + self.slack) * (1.0 + 2f64.powi(-40));
        let (lower, upper) = (est - bound, est + bound);
        (lower.is_finite() && upper.is_finite()).then_some((lower, upper))
    }

    /// One side's `(Ê, B, R)` from its row count and sums.
    fn side(&self, m: f64, sum: f64, sum_sq: f64) -> (f64, f64, f64) {
        let t = sum * sum / m;
        let est = sum_sq - t;
        let e = self.e_sum;
        let bound = self.g * (4.0 * self.qb + t + est.abs()) + e * (2.0 * sum.abs() + e) / m;
        (est, bound, est.abs() + bound)
    }
}

/// The exact score of splitting `rows` at `x <= threshold`: each side's
/// two-pass squared error over its rows in their own order, summed from
/// the same start as `Iterator::sum`. `None` when a side would hold
/// fewer than `min_leaf` rows.
fn split_sse(
    column: &[f64],
    ys: &[f64],
    rows: &[usize],
    threshold: f64,
    min_leaf: usize,
) -> Option<f64> {
    let zero: f64 = std::iter::empty::<f64>().sum();
    let (mut n_left, mut sum_left, mut sum_right) = (0, zero, zero);
    for &i in rows {
        if column[i] <= threshold {
            n_left += 1;
            sum_left += ys[i];
        } else {
            sum_right += ys[i];
        }
    }
    let n_right = rows.len() - n_left;
    if n_left < min_leaf || n_right < min_leaf {
        return None;
    }
    let (mean_left, mean_right) = (sum_left / n_left as f64, sum_right / n_right as f64);
    let (mut sse_left, mut sse_right) = (zero, zero);
    for &i in rows {
        if column[i] <= threshold {
            sse_left += (ys[i] - mean_left).powi(2);
        } else {
            sse_right += (ys[i] - mean_right).powi(2);
        }
    }
    Some(sse_left + sse_right)
}

fn mean_of(ys: &[f64], indices: &[usize]) -> f64 {
    indices.iter().map(|&i| ys[i]).sum::<f64>() / indices.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::stats::rmse;
    use proptest::prelude::*;

    // --- the exhaustive split search, kept as the oracle ---------------

    fn sse_of(ys: &[f64], indices: &[usize]) -> f64 {
        let m = mean_of(ys, indices);
        indices.iter().map(|&i| (ys[i] - m).powi(2)).sum()
    }

    /// Score every threshold of every sampled feature exactly.
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

    /// Grow a tree the way the oracle search dictates.
    fn oracle_tree<R: Rng + ?Sized>(
        xs: &[Vec<f64>],
        ys: &[f64],
        rows: &[usize],
        cfg: &TreeConfig,
        rng: &mut R,
    ) -> RegressionTree {
        fn grow<R: Rng + ?Sized>(
            tree: &mut RegressionTree,
            xs: &[Vec<f64>],
            ys: &[f64],
            indices: &[usize],
            depth: usize,
            cfg: &TreeConfig,
            rng: &mut R,
        ) {
            let Some((feature, threshold)) = best_split(xs, ys, indices, depth, cfg, rng) else {
                tree.push(LEAF, mean_of(ys, indices));
                return;
            };
            let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
                indices.iter().partition(|&&i| xs[i][feature] <= threshold);
            let at = tree.push(feature as u32, threshold);
            tree.left[at] = tree.next_offset();
            grow(tree, xs, ys, &left_idx, depth + 1, cfg, rng);
            tree.right[at] = tree.next_offset();
            grow(tree, xs, ys, &right_idx, depth + 1, cfg, rng);
        }
        let mut tree = RegressionTree {
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            n_features: xs[0].len(),
        };
        grow(&mut tree, xs, ys, rows, 0, cfg, rng);
        tree
    }

    /// Every lane of a tree, thresholds as bits.
    fn lanes_of(tree: &RegressionTree) -> (Vec<u32>, Vec<u64>, Vec<u32>, Vec<u32>) {
        let bits = tree.threshold.iter().map(|t| t.to_bits()).collect();
        (
            tree.feature.clone(),
            bits,
            tree.left.clone(),
            tree.right.clone(),
        )
    }

    /// Check the root split, the RNG draws it makes, and the whole grown
    /// tree against the oracle, bit for bit.
    fn check_against_the_oracle(xs: &[Vec<f64>], ys: &[f64], rows: &[usize], cfg: &TreeConfig) {
        let lanes = Lanes::new(xs).unwrap();
        let label = format!(
            "cfg {cfg:?}, {} rows x {} features",
            rows.len(),
            xs[0].len()
        );

        let mut rng = archgym_core::seeded_rng(rows.len() as u64);
        let mut oracle_rng = archgym_core::seeded_rng(rows.len() as u64);
        let mut grower = Grower {
            lanes: &lanes,
            ys,
            cfg,
            rows: rows.to_vec(),
            spill: Vec::new(),
            features: Vec::new(),
            centred: Vec::new(),
            sorted: Vec::new(),
            candidates: Vec::new(),
        };
        let mean = mean_of(ys, rows);
        let split = grower.best_split(0, rows.len(), mean, 0, &mut rng);
        let expected = best_split(xs, ys, rows, 0, cfg, &mut oracle_rng);
        assert_eq!(
            split.map(|(f, t)| (f, t.to_bits())),
            expected.map(|(f, t)| (f, t.to_bits())),
            "root split, {label}"
        );
        assert_eq!(
            rng.gen::<u64>(),
            oracle_rng.gen::<u64>(),
            "RNG draws, {label}"
        );

        let mut rng = archgym_core::seeded_rng(7);
        let mut oracle_rng = archgym_core::seeded_rng(7);
        let tree = RegressionTree::fit_with(&lanes, ys, rows.to_vec(), cfg, &mut rng);
        let expected = oracle_tree(xs, ys, rows, cfg, &mut oracle_rng);
        assert_eq!(lanes_of(&tree), lanes_of(&expected), "grown tree, {label}");
        assert_eq!(
            rng.gen::<u64>(),
            oracle_rng.gen::<u64>(),
            "tree RNG draws, {label}"
        );
    }

    /// A random node: `n` rows drawn with repeats from `n_distinct` base
    /// rows of `d` features, each feature tie-heavy, continuous or a
    /// 65k-value integer axis; targets noisy, constant or large-mean.
    fn random_node(
        seed: u64,
        d: usize,
        n: usize,
        y_kind: usize,
    ) -> (Vec<Vec<f64>>, Vec<f64>, Vec<usize>) {
        let mut rng = archgym_core::seeded_rng(seed);
        let n_base = rng.gen_range(1..=n);
        let kinds: Vec<usize> = (0..d).map(|_| rng.gen_range(0..4usize)).collect();
        let xs: Vec<Vec<f64>> = (0..n_base)
            .map(|_| {
                kinds
                    .iter()
                    .map(|&kind| match kind {
                        0 => rng.gen_range(0..3u64) as f64,
                        1 => rng.gen_range(-1.0..1.0),
                        2 => rng.gen_range(0..65536u64) as f64,
                        _ => (rng.gen_range(0..5u64) as f64 - 2.0) * 0.1,
                    })
                    .collect()
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| match y_kind {
                0 => x[0] * 3.0 + rng.gen_range(-1.0..1.0),
                1 => 4.25,
                2 => 1e8 + rng.gen_range(-1..=1i64) as f64,
                _ => f64::from(rng.gen_range(0..2u8)) + x[d - 1] * 1e-9,
            })
            .collect();
        let rows = (0..n).map(|_| rng.gen_range(0..n_base)).collect();
        (xs, ys, rows)
    }

    fn config(max_depth: usize, min_samples_leaf: usize, k: Option<usize>) -> TreeConfig {
        TreeConfig {
            max_depth,
            min_samples_leaf,
            features_per_split: k,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_bootstrap_nodes_match_the_split_oracle(
            seed in 0u64..1_000_000,
            d in 1usize..5,
            n in 2usize..90,
            y_kind in 0usize..4,
            leaf in 0usize..3,
            subsample in 0usize..3,
        ) {
            let (xs, ys, rows) = random_node(seed, d, n, y_kind);
            // min_samples_leaf 1, 2, or just under half the node.
            let min_leaf = [1, 2, (n / 2).max(1)][leaf];
            let k = [None, Some(1), Some(d)][subsample];
            check_against_the_oracle(&xs, &ys, &rows, &config(8, min_leaf, k));
        }

        #[test]
        fn prop_exact_halves_match_the_split_oracle(
            seed in 0u64..1_000_000,
            half in 1usize..30,
            y_kind in 0usize..4,
        ) {
            // n = 2·min_samples_leaf: only a split into equal halves counts.
            let (xs, ys, rows) = random_node(seed, 3, 2 * half, y_kind);
            check_against_the_oracle(&xs, &ys, &rows, &config(4, half, Some(2)));
        }

        #[test]
        fn prop_rounding_midpoints_match_the_split_oracle(
            seed in 0u64..1_000_000,
            n in 2usize..60,
            leaf in 1usize..3,
        ) {
            // Runs of adjacent floats, where every other midpoint rounds up
            // to the upper value, next to infinities and values whose
            // midpoints overflow.
            let mut rng = archgym_core::seeded_rng(seed);
            let specials = [
                f64::NEG_INFINITY,
                f64::INFINITY,
                f64::MAX,
                f64::MAX * 0.75,
                -f64::MAX,
                -0.0,
                0.0,
                5e-324,
                -1e-323,
            ];
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let ulps = rng.gen_range(0..6u64);
                    let adjacent = f64::from_bits(1.0f64.to_bits() + ulps);
                    vec![adjacent, specials[rng.gen_range(0..specials.len())]]
                })
                .collect();
            let ys: Vec<f64> = (0..n).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let rows: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
            check_against_the_oracle(&xs, &ys, &rows, &config(6, leaf, None));
            check_against_the_oracle(&xs, &ys, &rows, &config(6, leaf, Some(1)));
        }
    }

    #[test]
    fn adjacent_floats_whose_midpoint_rounds_up_split_like_the_oracle() {
        // (a + b) / 2 rounds to b for a = 1 + 1 ulp, b = 1 + 2 ulps, so
        // `x <= threshold` sends b left as well.
        let a = f64::from_bits(1.0f64.to_bits() + 1);
        let b = f64::from_bits(1.0f64.to_bits() + 2);
        assert_eq!((a + b) / 2.0, b);
        let xs = vec![vec![1.0], vec![a], vec![b], vec![2.0], vec![a], vec![2.0]];
        let ys = vec![0.0, 5.0, 1.0, 9.0, 5.0, 8.0];
        let rows: Vec<usize> = (0..6).collect();
        for min_leaf in 1..=3 {
            check_against_the_oracle(&xs, &ys, &rows, &config(4, min_leaf, None));
        }
    }

    #[test]
    fn infinite_features_and_targets_split_like_the_oracle() {
        let xs = vec![
            vec![f64::NEG_INFINITY, f64::MAX],
            vec![-1.0, -f64::MAX],
            vec![0.0, f64::MAX],
            vec![f64::INFINITY, 1.0],
            vec![f64::INFINITY, f64::MAX * 0.75],
        ];
        let rows: Vec<usize> = vec![0, 1, 2, 3, 4, 3, 0];
        let finite = vec![1.0, 2.0, 30.0, 4.0, 5.0];
        check_against_the_oracle(&xs, &finite, &rows, &config(4, 1, None));
        // Huge targets whose squares overflow, and infinite or NaN ones.
        for bad in [f64::MAX, f64::INFINITY, f64::NAN] {
            let ys = vec![1.0, bad, -bad, 4.0, 5.0];
            check_against_the_oracle(&xs, &ys, &rows, &config(4, 1, Some(1)));
        }
    }

    #[test]
    fn large_mean_and_constant_targets_split_like_the_oracle() {
        let xs: Vec<Vec<f64>> = (0..64)
            .map(|i| vec![(i % 7) as f64, (i / 8) as f64])
            .collect();
        let rows: Vec<usize> = (0..64).collect();
        let large: Vec<f64> = (0..64).map(|i| 1e8 + ((i * 5) % 3) as f64 - 1.0).collect();
        let constant = vec![1e8; 64];
        for ys in [&large, &constant] {
            for min_leaf in [1, 2, 31, 32] {
                check_against_the_oracle(&xs, ys, &rows, &config(10, min_leaf, None));
            }
        }
    }

    // --- behaviour -------------------------------------------------------

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
    #[should_panic(expected = "NaN feature")]
    fn nan_feature_fit_panics() {
        let (mut xs, ys) = step_data();
        xs[3][0] = f64::NAN;
        let _ = RegressionTree::fit(&xs, &ys, 3, 1);
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn wrong_width_predict_panics() {
        let (xs, ys) = step_data();
        let tree = RegressionTree::fit(&xs, &ys, 3, 1);
        let _ = tree.predict(&[1.0, 2.0]);
    }
}
