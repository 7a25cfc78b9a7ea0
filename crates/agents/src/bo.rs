//! Gaussian-process Bayesian optimization.
//!
//! The policy is a **surrogate model** (Fig. 2): a GP with an RBF kernel
//! over the design space's unit-hypercube encoding. Candidates are scored
//! by an acquisition function — expected improvement, upper confidence
//! bound, or probability of improvement — whose exploration appetite is
//! the agent's Q3 knob. The GP history is capped because fitting is cubic
//! in the number of observations (the cost the paper calls out in
//! Section 2).
//!
//! The surrogate grows with the history instead of being refitted from
//! scratch: each observation's kernel row is computed once, and the
//! Cholesky factor of the kernel matrix only gains rows until the history
//! cap evicts (DESIGN.md, "Bayesian optimization"). Every proposal is bit
//! for bit the one a from-scratch fit would make.

use crate::linalg::{sq_dist, GrowingCholesky};
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::env::StepResult;
use archgym_core::error::{ArchGymError, Result};
use archgym_core::seeded_rng;
use archgym_core::space::{Action, ParamSpace};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::HashSet;

/// Jitter values tried before the surrogate is declared unusable: the
/// noise variance, then ×10 per rung.
const JITTER_RUNGS: usize = 6;

/// Candidates scored side by side in one forward substitution.
const LANE: usize = 8;

/// Rows of a block's forward substitution between two checks of its
/// candidates' score bounds.
const ROW_CHUNK: usize = 16;

/// The posterior variance floor: no std falls below its square root.
const VAR_FLOOR: f64 = 1e-12;

/// Absolute slack on a score bound, per unit of the score's scale
/// `1 + std + |mean − best − ξ|`: far above every rounding in `score`
/// and every departure of the A&S `norm_cdf` from monotone (DESIGN.md,
/// "Pruned acquisition").
const BOUND_BAND: f64 = 1e-12;

/// Acquisition functions for [`BayesOpt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquisition {
    /// Expected improvement over the incumbent (default).
    Ei,
    /// Upper confidence bound `μ + κ·σ`.
    Ucb,
    /// Probability of improvement.
    Pi,
}

impl Acquisition {
    /// Parse from the sweep-grid spelling (`"ei"`, `"ucb"`, `"pi"`).
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidHyper`] for unknown names.
    pub fn parse(name: &str) -> Result<Self> {
        match name {
            "ei" => Ok(Acquisition::Ei),
            "ucb" => Ok(Acquisition::Ucb),
            "pi" => Ok(Acquisition::Pi),
            other => Err(ArchGymError::InvalidHyper(format!(
                "unknown acquisition `{other}` (expected ei|ucb|pi)"
            ))),
        }
    }
}

/// Standard normal probability density.
fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal cumulative distribution (Abramowitz–Stegun 7.1.26 erf).
fn norm_cdf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    let sign = if z < 0.0 { -1.0 } else { 1.0 };
    let z = z.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * z);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = sign * (1.0 - poly * (-z * z).exp());
    0.5 * (1.0 + erf)
}

/// Insert candidate `i`, scoring `score`, into `best`: the `batch` best
/// so far, highest score first, ties in index order.
fn rank(best: &mut Vec<(f64, usize)>, batch: usize, score: f64, i: usize) {
    let at = best
        .iter()
        .position(
            |&(s, j)| match score.partial_cmp(&s).expect("NaN acquisition") {
                Ordering::Greater => true,
                Ordering::Equal => i < j,
                Ordering::Less => false,
            },
        )
        .unwrap_or(best.len());
    if at < batch {
        best.insert(at, (score, i));
        best.truncate(batch);
    }
}

/// The per-proposal part of the GP fit; the factor lives in the agent.
struct GpFit {
    alpha: Vec<f64>,
    /// Target standardization constants; predictions stay standardized
    /// inside the agent, but tests de-standardize to check the GP.
    #[allow(dead_code)]
    y_mean: f64,
    #[allow(dead_code)]
    y_std: f64,
    best_std: f64,
}

/// Gaussian-process Bayesian optimization agent.
#[derive(Debug)]
pub struct BayesOpt {
    space: ParamSpace,
    rng: StdRng,
    length_scale: f64,
    signal_var: f64,
    noise_var: f64,
    acquisition: Acquisition,
    kappa: f64,
    xi: f64,
    n_init: usize,
    candidates: usize,
    max_history: usize,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    seen: HashSet<Vec<usize>>,
    /// Kernel matrix over `xs`, packed by rows: row `i` holds
    /// `k(xs[i], xs[j])` for `j ≤ i`, at offset `i·(i+1)/2`.
    kernel_rows: Vec<f64>,
    /// Factor of the leading rows of the kernel matrix plus `jitter·I`.
    chol: GrowingCholesky,
    /// The jitter ladder's current value, reached from `noise_var` by
    /// `rung` multiplications by 10.
    jitter: f64,
    /// Rungs that failed on this history; [`JITTER_RUNGS`] means all did.
    rung: usize,
    /// Scratch `[row][candidate]` block reused across proposals.
    lanes: Vec<[f64; LANE]>,
    #[cfg(test)]
    pruning: PruneStats,
}

/// What pruned scoring skipped, so tests can tell the fast path ran.
#[cfg(test)]
#[derive(Debug, Default)]
struct PruneStats {
    /// Candidates in the pools, and those whose score was computed.
    candidates: usize,
    scored: usize,
    /// Candidate-rows a full solve of every candidate takes, and those
    /// solved.
    full_rows: usize,
    solved_rows: usize,
}

impl BayesOpt {
    /// Construct with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive kernel parameters, zero initial design, or a
    /// zero candidate pool.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: ParamSpace,
        length_scale: f64,
        noise_var: f64,
        acquisition: Acquisition,
        kappa: f64,
        xi: f64,
        n_init: usize,
        candidates: usize,
        seed: u64,
    ) -> Self {
        assert!(length_scale > 0.0, "length scale must be positive");
        assert!(noise_var > 0.0, "noise variance must be positive");
        assert!(n_init > 0, "need a non-empty initial design");
        assert!(candidates > 0, "need a non-empty candidate pool");
        BayesOpt {
            space,
            rng: seeded_rng(seed),
            length_scale,
            signal_var: 1.0,
            noise_var,
            acquisition,
            kappa,
            xi,
            n_init,
            candidates,
            max_history: 192,
            xs: Vec::new(),
            ys: Vec::new(),
            seen: HashSet::new(),
            kernel_rows: Vec::new(),
            chol: GrowingCholesky::new(),
            jitter: noise_var,
            rung: 0,
            lanes: Vec::new(),
            #[cfg(test)]
            pruning: PruneStats::default(),
        }
    }

    /// Sensible defaults: EI, length scale 0.25, noise 1e-4, 8 initial
    /// random designs, 256 candidates per round.
    pub fn with_defaults(space: ParamSpace, seed: u64) -> Self {
        BayesOpt::new(space, 0.25, 1e-4, Acquisition::Ei, 2.0, 0.01, 8, 256, seed)
    }

    /// Build from a hyperparameter map. Recognized keys (all optional):
    /// `length_scale` (float), `noise` (float), `acquisition`
    /// (`"ei"|"ucb"|"pi"`), `kappa` (float), `xi` (float), `n_init` (int),
    /// `candidates` (int).
    ///
    /// # Errors
    ///
    /// Returns an error when a present key has the wrong type or an
    /// unknown acquisition name.
    pub fn from_hyper(space: ParamSpace, hyper: &HyperMap, seed: u64) -> Result<Self> {
        Ok(BayesOpt::new(
            space,
            hyper.float_or("length_scale", 0.25)?,
            hyper.float_or("noise", 1e-4)?,
            Acquisition::parse(hyper.text_or("acquisition", "ei")?)?,
            hyper.float_or("kappa", 2.0)?,
            hyper.float_or("xi", 0.01)?,
            hyper.int_or("n_init", 8)? as usize,
            hyper.int_or("candidates", 256)? as usize,
            seed,
        ))
    }

    /// Number of observations currently held by the surrogate.
    pub fn history_len(&self) -> usize {
        self.ys.len()
    }

    fn kernel(&self, a: &[f64], b: &[f64]) -> f64 {
        self.kernel_at(sq_dist(a, b))
    }

    /// The RBF kernel as a function of squared distance.
    fn kernel_at(&self, sq_dist: f64) -> f64 {
        self.signal_var * (-sq_dist / (2.0 * self.length_scale * self.length_scale)).exp()
    }

    /// Grow the factor to the whole history at the current jitter,
    /// climbing the ladder and refactoring whenever a pivot fails.
    ///
    /// A pivot that fails at some jitter fails at the same row of every
    /// larger history, so the rung reached stays valid until eviction and
    /// the result equals a from-scratch fit climbing from the bottom.
    /// Returns `false` once every rung has failed.
    fn grow_factor(&mut self) -> bool {
        while self.rung < JITTER_RUNGS {
            let i = self.chol.rows();
            if i == self.ys.len() {
                return true;
            }
            let row = &self.kernel_rows[i * (i + 1) / 2..][..=i];
            if !self.chol.push_row(row, self.jitter) {
                self.rung += 1;
                self.jitter *= 10.0;
                self.chol.clear();
            }
        }
        false
    }

    fn fit(&mut self) -> Option<GpFit> {
        let n = self.ys.len();
        if n == 0 || !self.grow_factor() {
            return None;
        }
        let y_mean = self.ys.iter().sum::<f64>() / n as f64;
        let y_var = self.ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-12);
        let ys_std: Vec<f64> = self.ys.iter().map(|y| (y - y_mean) / y_std).collect();
        let best_std = ys_std.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(GpFit {
            alpha: self.chol.solve(&ys_std),
            y_mean,
            y_std,
            best_std,
        })
    }

    /// The posterior std left after subtracting `sq`, a sum of squares of
    /// solved rows, from the prior variance.
    fn std_of(&self, sq: f64) -> f64 {
        (self.signal_var - sq).max(VAR_FLOOR).sqrt()
    }

    /// The kernel between history point `xi` and each candidate of a
    /// block laid out `[dimension][candidate]`: per candidate, the terms
    /// of `sq_dist` summed in dimension order from `-0.0`.
    fn kernel_lane(&self, xi: &[f64], coords: &[[f64; LANE]]) -> [f64; LANE] {
        let mut d = [-0.0; LANE];
        for (&x, column) in xi.iter().zip(coords) {
            for c in 0..LANE {
                let diff = x - column[c];
                d[c] += diff * diff;
            }
        }
        let mut k = [0.0; LANE];
        for c in 0..LANE {
            k[c] = self.kernel_at(d[c]);
        }
        k
    }

    /// Lay out candidates `block` of `xs` (coordinates back to back)
    /// `[dimension][candidate]`.
    fn transpose(&self, xs: &[f64], block: impl Iterator<Item = usize>) -> Vec<[f64; LANE]> {
        let dims = self.space.len();
        let mut coords = vec![[0.0; LANE]; dims];
        for (c, i) in block.enumerate() {
            for (column, &v) in coords.iter_mut().zip(&xs[i * dims..][..dims]) {
                column[c] = v;
            }
        }
        coords
    }

    /// Pass 1 of scoring: each candidate's posterior mean, [`LANE`]
    /// candidates per block. Each mean is summed in history order from
    /// `-0.0`, as `Iterator::sum` does, so it is bit-equal to scoring the
    /// candidate alone.
    fn means(&self, fit: &GpFit, xs: &[f64]) -> Vec<f64> {
        let count = xs.len() / self.space.len().max(1);
        let mut out = Vec::with_capacity(count);
        for start in (0..count).step_by(LANE) {
            let len = LANE.min(count - start);
            let coords = self.transpose(xs, start..start + len);
            let mut mean = [-0.0; LANE];
            for (xi, a) in self.xs.iter().zip(&fit.alpha) {
                let k = self.kernel_lane(xi, &coords);
                for c in 0..LANE {
                    mean[c] += k[c] * a;
                }
            }
            out.extend(&mean[..len]);
        }
        out
    }

    /// Pass 2 of scoring: the posterior std of each `(candidate, mean)`
    /// of `block`, or `None` once the candidate's score bound fell
    /// strictly below `threshold`.
    ///
    /// The block's cross-kernel is recomputed, laid out `[history
    /// row][candidate]`, and solved [`ROW_CHUNK`] rows at a time. Sums of
    /// squares of nonnegative terms never decrease, so each partial sum
    /// gives an upper bound on the std; the full sums run in row order
    /// from `-0.0`, so every std returned is bit-equal to a lone
    /// `solve_lower`'s.
    fn stds(
        &mut self,
        fit: &GpFit,
        xs: &[f64],
        block: &[(usize, f64)],
        threshold: f64,
    ) -> [Option<f64>; LANE] {
        let coords = self.transpose(xs, block.iter().map(|&(i, _)| i));
        let mut lanes = std::mem::take(&mut self.lanes);
        lanes.clear();
        lanes.extend(self.xs.iter().map(|xi| self.kernel_lane(xi, &coords)));
        let n = lanes.len();
        let mut sq = [-0.0; LANE];
        let mut live = [false; LANE];
        live[..block.len()].fill(true);
        let mut start = 0;
        while start < n && live.contains(&true) {
            let end = n.min(start + ROW_CHUNK);
            self.chol.solve_lower_lanes_rows(&mut lanes, start..end);
            for lane in &lanes[start..end] {
                for c in 0..LANE {
                    sq[c] += lane[c] * lane[c];
                }
            }
            #[cfg(test)]
            {
                self.pruning.solved_rows += (end - start) * block.len();
            }
            start = end;
            if start < n {
                for (c, &(_, mean)) in block.iter().enumerate() {
                    if live[c] && self.score_bound(fit, mean, self.std_of(sq[c])) < threshold {
                        live[c] = false;
                    }
                }
            }
        }
        self.lanes = lanes;
        let mut out = [None; LANE];
        for c in 0..LANE {
            if live[c] {
                out[c] = Some(self.std_of(sq[c]));
            }
        }
        out
    }

    /// Indices of the `batch` best-scoring candidates of `xs`
    /// (coordinates back to back), best first, ties in pool order.
    ///
    /// Filter then verify: every mean is exact after pass 1, and a
    /// candidate is solved only while [`score_bound`](Self::score_bound)
    /// keeps it at or above the `batch`-th best exact score so far. A
    /// candidate dropped strictly below that score has `batch` better
    /// ones, so the result is, bit for bit, that of scoring them all.
    fn best_candidates(&mut self, fit: &GpFit, xs: &[f64], batch: usize) -> Vec<usize> {
        let means = self.means(fit, xs);
        // Visit candidates by their bound at the prior std, highest
        // first: likely winners come early, so the threshold rises early,
        // and once one bound falls below it every later one does too.
        let prior = self.std_of(-0.0);
        let bounds: Vec<f64> = means
            .iter()
            .map(|&mean| self.score_bound(fit, mean, prior))
            .collect();
        let mut order: Vec<usize> = (0..means.len()).collect();
        order.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]));
        #[cfg(test)]
        {
            self.pruning.candidates += means.len();
            self.pruning.full_rows += means.len() * self.xs.len();
        }
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(batch + 1);
        let mut block = Vec::with_capacity(LANE);
        let mut order = order.into_iter();
        loop {
            let threshold = if best.len() == batch {
                best[batch - 1].0
            } else {
                f64::NEG_INFINITY
            };
            // Only a bound strictly below the threshold drops: ties keep
            // pool order, and a NaN score still reaches the sort's check.
            let next = order
                .next()
                .filter(|&i| bounds[i] >= threshold || bounds[i].is_nan());
            if let Some(i) = next {
                block.push((i, means[i]));
                if block.len() < LANE {
                    continue;
                }
            }
            if !block.is_empty() {
                let stds = self.stds(fit, xs, &block, threshold);
                for ((i, mean), std) in block.drain(..).zip(stds) {
                    if let Some(std) = std {
                        #[cfg(test)]
                        {
                            self.pruning.scored += 1;
                        }
                        rank(&mut best, batch, self.score(fit, mean, std), i);
                    }
                }
            }
            if next.is_none() {
                return best.into_iter().map(|(_, i)| i).collect();
            }
        }
    }

    fn score(&self, fit: &GpFit, mean: f64, std: f64) -> f64 {
        match self.acquisition {
            Acquisition::Ucb => mean + self.kappa * std,
            Acquisition::Ei => {
                let gamma = (mean - fit.best_std - self.xi) / std;
                std * (gamma * norm_cdf(gamma) + norm_pdf(gamma))
            }
            Acquisition::Pi => {
                let gamma = (mean - fit.best_std - self.xi) / std;
                norm_cdf(gamma)
            }
        }
    }

    /// An upper bound on [`score`](Self::score) at `mean` for every std
    /// from the floor up to `std_up`.
    ///
    /// EI rises with the std, and so do UCB with `κ ≥ 0` and PI where the
    /// mean falls short of `best + ξ`; UCB with `κ < 0` and PI past
    /// `best + ξ` fall, so they are bounded at the floor. [`BOUND_BAND`]
    /// covers the rounding.
    fn score_bound(&self, fit: &GpFit, mean: f64, std_up: f64) -> f64 {
        let gain = mean - fit.best_std - self.xi;
        let falls = match self.acquisition {
            Acquisition::Ei => false,
            Acquisition::Ucb => self.kappa < 0.0,
            Acquisition::Pi => gain > 0.0,
        };
        let std = if falls { VAR_FLOOR.sqrt() } else { std_up };
        self.score(fit, mean, std) + BOUND_BAND * (1.0 + std_up + gain.abs())
    }

    /// The candidate pool's designs, back to back.
    fn candidate_pool(&mut self) -> Vec<usize> {
        let dims = self.space.len();
        let mut pool = Vec::with_capacity(self.candidates * dims);
        self.space
            .sample_into(&mut self.rng, self.candidates * 3 / 4, &mut pool);
        // Local perturbations of the incumbent best.
        if let Some(best_idx) = self
            .ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN reward"))
            .map(|(i, _)| i)
        {
            let base = self.space.denormalize(&self.xs[best_idx]);
            let cards = self.space.cardinalities();
            while pool.len() < self.candidates * dims {
                let genes = pool.len();
                pool.extend_from_slice(base.as_slice());
                let d = self.rng.gen_range(0..dims);
                pool[genes + d] = self.rng.gen_range(0..cards[d]);
            }
        }
        pool
    }

    /// Keep the incumbent best plus the most recent observations, and
    /// restart the factor and its jitter ladder on the new history.
    fn evict(&mut self) {
        let best = self
            .ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN reward"))
            .map(|(i, _)| i)
            .expect("non-empty history");
        let start = self.ys.len() - self.max_history + 1;
        let keep: Vec<usize> = std::iter::once(best)
            .chain((start.max(1)..self.ys.len()).filter(|&i| i != best))
            .collect();
        // The kernel is symmetric to the bit, so the kept entries carry
        // over whichever triangle they sat in.
        let old = std::mem::take(&mut self.kernel_rows);
        for (i, &a) in keep.iter().enumerate() {
            for &b in &keep[..=i] {
                let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
                self.kernel_rows.push(old[hi * (hi + 1) / 2 + lo]);
            }
        }
        self.xs = keep
            .iter()
            .map(|&i| std::mem::take(&mut self.xs[i]))
            .collect();
        self.ys = keep.iter().map(|&i| self.ys[i]).collect();
        self.chol.clear();
        self.jitter = self.noise_var;
        self.rung = 0;
    }
}

impl Agent for BayesOpt {
    fn name(&self) -> &str {
        "bo"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        // Initial space-filling design.
        if self.ys.len() < self.n_init {
            let n = (self.n_init - self.ys.len()).min(max_batch).max(1);
            return (0..n).map(|_| self.space.sample(&mut self.rng)).collect();
        }
        let Some(fit) = self.fit() else {
            // Surrogate is numerically unusable: fall back to random.
            return vec![self.space.sample(&mut self.rng)];
        };
        // Seen designs are never proposed and a repeat scores exactly as
        // its first occurrence, which ranks first among equal scores; so
        // only first occurrences of unseen designs need scoring.
        let pool = self.candidate_pool();
        let dims = self.space.len();
        let mut first = HashSet::with_capacity(self.candidates);
        let mut unseen = Vec::with_capacity(pool.len());
        for design in pool.chunks_exact(dims.max(1)) {
            if !self.seen.contains(design) && first.insert(design) {
                unseen.extend_from_slice(design);
            }
        }
        let mut xs = Vec::with_capacity(unseen.len());
        self.space.normalize_into(&unseen, &mut xs);
        let mut out: Vec<Action> = self
            .best_candidates(&fit, &xs, max_batch.clamp(1, 4))
            .into_iter()
            .map(|i| Action::new(unseen[i * dims..][..dims].to_vec()))
            .collect();
        if out.is_empty() {
            out.push(self.space.sample(&mut self.rng));
        }
        out
    }

    fn observe(&mut self, results: &[(Action, StepResult)]) {
        for (action, result) in results {
            self.seen.insert(action.as_slice().to_vec());
            let x = self.space.normalize(action);
            for j in 0..self.xs.len() {
                let k = self.kernel(&x, &self.xs[j]);
                self.kernel_rows.push(k);
            }
            self.kernel_rows.push(self.kernel(&x, &x));
            self.xs.push(x);
            self.ys.push(result.reward);
        }
        if self.ys.len() > self.max_history {
            self.evict();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::dense::{Cholesky, Matrix};
    use archgym_core::env::{Environment, Observation};
    use archgym_core::search::{RunConfig, SearchLoop};
    use archgym_core::toy::PeakEnv;
    use proptest::prelude::*;

    /// The fit as it was before the factor grew with the history: the
    /// whole kernel matrix rebuilt and factored from scratch, climbing the
    /// jitter ladder from its bottom rung.
    fn dense_fit(bo: &BayesOpt) -> Option<(Cholesky, GpFit)> {
        let n = bo.ys.len();
        if n == 0 {
            return None;
        }
        let y_mean = bo.ys.iter().sum::<f64>() / n as f64;
        let y_var = bo.ys.iter().map(|y| (y - y_mean).powi(2)).sum::<f64>() / n as f64;
        let y_std = y_var.sqrt().max(1e-12);
        let ys_std: Vec<f64> = bo.ys.iter().map(|y| (y - y_mean) / y_std).collect();
        let best_std = ys_std.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut jitter = bo.noise_var;
        for _ in 0..6 {
            let k = Matrix::from_fn(n, n, |i, j| {
                bo.kernel(&bo.xs[i], &bo.xs[j]) + if i == j { jitter } else { 0.0 }
            });
            if let Some(chol) = k.cholesky() {
                let alpha = chol.solve(&ys_std);
                let fit = GpFit {
                    alpha,
                    y_mean,
                    y_std,
                    best_std,
                };
                return Some((chol, fit));
            }
            jitter *= 10.0;
        }
        None
    }

    /// One candidate's posterior by its own forward substitution.
    fn dense_predict(bo: &BayesOpt, chol: &Cholesky, fit: &GpFit, x: &[f64]) -> (f64, f64) {
        let k: Vec<f64> = bo.xs.iter().map(|xi| bo.kernel(xi, x)).collect();
        let mean = k.iter().zip(&fit.alpha).map(|(a, b)| a * b).sum::<f64>();
        let v = chol.solve_lower(&k);
        let var = (bo.signal_var - v.iter().map(|x| x * x).sum::<f64>()).max(1e-12);
        (mean, var.sqrt())
    }

    /// `propose` as it was: dense fit, every pool candidate scored alone,
    /// duplicates and seen designs skipped only after the sort.
    fn dense_propose(bo: &mut BayesOpt, max_batch: usize) -> Vec<Action> {
        if bo.ys.len() < bo.n_init {
            return bo.propose(max_batch);
        }
        let Some((chol, fit)) = dense_fit(bo) else {
            return vec![bo.space.sample(&mut bo.rng)];
        };
        let pool = bo.candidate_pool();
        let mut scored: Vec<(f64, Action)> = pool
            .chunks(bo.space.len())
            .map(|genes| {
                let a = Action::new(genes.to_vec());
                let x = bo.space.normalize(&a);
                let (mean, std) = dense_predict(bo, &chol, &fit, &x);
                (bo.score(&fit, mean, std), a)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN acquisition"));
        let batch = max_batch.clamp(1, 4);
        let mut out = Vec::with_capacity(batch);
        for (_, action) in scored {
            if out.len() >= batch {
                break;
            }
            if !bo.seen.contains(action.as_slice()) && !out.contains(&action) {
                out.push(action);
            }
        }
        if out.is_empty() {
            out.push(bo.space.sample(&mut bo.rng));
        }
        out
    }

    impl BayesOpt {
        /// Every candidate's posterior `(mean, std)`, through the pruned
        /// path's two passes with nothing dropped.
        fn posterior(&mut self, fit: &GpFit, xs: &[Vec<f64>]) -> Vec<(f64, f64)> {
            let flat = xs.concat();
            let means = self.means(fit, &flat);
            let mut out = Vec::with_capacity(xs.len());
            for (b, block) in means.chunks(LANE).enumerate() {
                let block: Vec<(usize, f64)> = block
                    .iter()
                    .enumerate()
                    .map(|(c, &mean)| (b * LANE + c, mean))
                    .collect();
                let stds = self.stds(fit, &flat, &block, f64::NEG_INFINITY);
                out.extend(
                    block
                        .iter()
                        .zip(stds)
                        .map(|(&(_, mean), std)| (mean, std.expect("never dropped"))),
                );
            }
            out
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`check_twins_against_dense`] for a 64-candidate agent with the
    /// default κ and ξ.
    fn check_against_dense(
        cards: &[usize],
        noise: f64,
        acquisition: Acquisition,
        max_history: usize,
        rounds: usize,
        max_obs: usize,
        seed: u64,
    ) -> usize {
        let make = || {
            let mut bo = BayesOpt::new(
                space(cards),
                0.25,
                noise,
                acquisition,
                2.0,
                0.01,
                2,
                64,
                seed,
            );
            bo.max_history = max_history;
            bo
        };
        check_twins_against_dense(make, rounds, max_obs, seed)
    }

    /// Drive a production agent and a twin proposing through the dense
    /// oracle over the same history, both built by `make`, asserting
    /// after every observe that the grown factor, `alpha`, candidate
    /// posteriors and proposed batch all equal the oracle's to the bit.
    /// Returns how many fits the oracle found unusable.
    fn check_twins_against_dense(
        make: impl Fn() -> BayesOpt,
        rounds: usize,
        max_obs: usize,
        seed: u64,
    ) -> usize {
        let (mut fast, mut oracle) = (make(), make());
        let mut rng = archgym_core::seeded_rng(seed ^ 0x5eed);
        let mut unusable = 0;
        for _ in 0..rounds {
            // Observe designs both proposed and drawn at random, repeats
            // included, with rewards on a coarse grid so that ties occur.
            let k = rng.gen_range(1..=max_obs);
            let mut batch = fast.propose(k);
            prop_assert_eq!(&batch, &dense_propose(&mut oracle, k));
            while batch.len() < k {
                batch.push(fast.space.sample(&mut rng));
            }
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| {
                    let r = f64::from(rng.gen_range(0..8u32)) / 4.0;
                    (a, StepResult::terminal(Observation::new(vec![r]), r))
                })
                .collect();
            fast.observe(&results);
            oracle.observe(&results);
            prop_assert_eq!(bits(&fast.ys), bits(&oracle.ys));
            let Some((chol, want)) = dense_fit(&oracle) else {
                unusable += 1;
                prop_assert!(
                    fast.fit().is_none(),
                    "grown factor usable where the dense one is not"
                );
                continue;
            };
            let got = fast
                .fit()
                .expect("grown factor unusable where the dense one is usable");
            let l = chol.factor();
            prop_assert_eq!(fast.chol.rows(), l.rows());
            for i in 0..l.rows() {
                let dense_row: Vec<f64> = (0..=i).map(|j| l.get(i, j)).collect();
                prop_assert_eq!(bits(fast.chol.row(i)), bits(&dense_row), "factor row {}", i);
            }
            prop_assert_eq!(bits(&got.alpha), bits(&want.alpha));
            prop_assert_eq!(got.best_std.to_bits(), want.best_std.to_bits());
            // Candidates repeat on purpose: some blocks hold duplicates.
            let xs: Vec<Vec<f64>> = (0..rng.gen_range(1..3 * LANE))
                .map(|_| fast.space.normalize(&fast.space.sample(&mut rng)))
                .collect();
            for (x, (mean, std)) in xs.iter().zip(fast.posterior(&got, &xs)) {
                let (m, s) = dense_predict(&oracle, &chol, &want, x);
                prop_assert_eq!((mean.to_bits(), std.to_bits()), (m.to_bits(), s.to_bits()));
            }
        }
        unusable
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_random_histories_match_the_dense_oracle(
            dims in 1usize..5,
            card in 2usize..12,
            acq in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            let acquisition = [Acquisition::Ei, Acquisition::Ucb, Acquisition::Pi][acq];
            check_against_dense(&vec![card; dims], 1e-4, acquisition, 192, 24, 4, seed);
        }

        #[test]
        fn prop_duplicate_heavy_pools_match_the_dense_oracle(
            card in 2usize..4,
            acq in 0usize..3,
            seed in 0u64..1_000_000,
        ) {
            // Two or three values per axis: a 64-candidate pool is mostly
            // repeats, and most of it soon sits in the seen set.
            let acquisition = [Acquisition::Ei, Acquisition::Ucb, Acquisition::Pi][acq];
            check_against_dense(&[card, card], 1e-4, acquisition, 192, 12, 4, seed);
        }

        #[test]
        fn prop_jitter_escalation_matches_the_dense_oracle(
            noise_exp in 14i32..19,
            card in 1usize..3,
            max_history in 4usize..16,
            seed in 0u64..1_000_000,
        ) {
            // Tiny noise on a few-point space: repeated designs make the
            // kernel matrix singular, so fits climb the jitter ladder; a
            // history cap below the run's length evicts mid-climb, which
            // must restart the ladder from its bottom rung.
            check_against_dense(&[card, 2], 10f64.powi(-noise_exp), Acquisition::Ei, max_history, 16, 4, seed);
        }

        #[test]
        fn prop_evicting_every_observe_matches_the_dense_oracle(
            max_history in 3usize..12,
            seed in 0u64..1_000_000,
        ) {
            check_against_dense(&[6, 6, 6], 1e-4, Acquisition::Ei, max_history, 24, 4, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn prop_high_dim_pools_match_the_dense_oracle(
            dims in 8usize..16,
            acq in 0usize..3,
            kappa in 0usize..4,
            xi in 0usize..3,
            capped in 0usize..2,
            cap in 16usize..48,
            seed in 0u64..1_000_000,
        ) {
            // The pruning regime: 256 candidates in 8–15 dimensions sit
            // mostly near the GP prior, so most are dropped on a bound.
            // Negative κ and ξ make UCB and PI fall as the std grows.
            let acquisition = [Acquisition::Ei, Acquisition::Ucb, Acquisition::Pi][acq];
            let kappa = [-1.0, 0.0, 2.0, 4.0][kappa];
            let xi = [-1.0, 0.01, 1.0][xi];
            let make = || {
                let mut bo =
                    BayesOpt::new(space(&vec![16; dims]), 0.25, 1e-4, acquisition, kappa, xi, 8, 256, seed);
                if capped == 1 {
                    bo.max_history = cap;
                }
                bo
            };
            // About 130 rows after 52 rounds of up to four observations.
            check_twins_against_dense(make, 52, 4, seed);
        }
    }

    #[test]
    fn pruning_drops_most_candidates_on_a_high_dim_pool() {
        let mut env = PeakEnv::new(&[16; 13], vec![3, 9, 0, 15, 7, 7, 2, 11, 5, 1, 14, 8, 6]);
        let mut bo = BayesOpt::with_defaults(env.space().clone(), 7);
        SearchLoop::new(RunConfig::with_budget(128).batch(0)).run(&mut bo, &mut env);
        let p = &bo.pruning;
        assert!(p.candidates > 0, "no guided proposal scored");
        assert!(
            p.scored * 2 < p.candidates,
            "{} of {} candidates scored",
            p.scored,
            p.candidates
        );
        assert!(
            p.solved_rows * 2 < p.full_rows,
            "{} candidate-rows solved of {}",
            p.solved_rows,
            p.full_rows
        );
    }

    /// A [`GpFit`] with only the incumbent set, for scoring alone.
    fn incumbent(best_std: f64) -> GpFit {
        GpFit {
            alpha: Vec::new(),
            y_mean: 0.0,
            y_std: 1.0,
            best_std,
        }
    }

    #[test]
    fn norm_cdf_is_monotone_on_a_fine_grid() {
        let mut last = norm_cdf(-40.0);
        for i in 1..=800_000 {
            let x = -40.0 + f64::from(i) * 1e-4;
            let y = norm_cdf(x);
            assert!(y >= last, "norm_cdf({x}) = {y} fell below {last}");
            last = y;
        }
    }

    #[test]
    fn score_bounds_cover_every_smaller_std() {
        let mut rng = archgym_core::seeded_rng(11);
        let floor = VAR_FLOOR.sqrt();
        for acq in [Acquisition::Ei, Acquisition::Ucb, Acquisition::Pi] {
            for (kappa, xi) in [(-1.0, -1.0), (0.0, 0.0), (2.0, 0.01), (4.0, 1.0)] {
                let bo = BayesOpt::new(space(&[4]), 0.25, 1e-4, acq, kappa, xi, 1, 1, 0);
                let fit = incumbent(rng.gen_range(-2.0..3.0));
                for draw in 0..20_000 {
                    // Stds log-uniform from the floor to the prior, some
                    // pairs one ulp apart, some at the floor itself.
                    let hi = floor * 1e6f64.powf(rng.gen_range(0.0..1.0));
                    let lo = match draw % 4 {
                        0 => f64::from_bits(hi.to_bits() - 1).max(floor),
                        1 => floor,
                        _ => hi * rng.gen_range(0.0..1.0f64).max(floor / hi),
                    };
                    // Gains up to ±40 stds, and deep in EI's tail, where
                    // γΦ(γ) + φ(γ) cancels below γ = −8.
                    let gain = if draw % 3 == 0 {
                        -hi * rng.gen_range(8.0..40.0)
                    } else {
                        hi * rng.gen_range(-40.0..40.0)
                    };
                    let mean = fit.best_std + xi + gain;
                    let (bound, score) = (bo.score_bound(&fit, mean, hi), bo.score(&fit, mean, lo));
                    assert!(
                        bound >= score,
                        "{acq:?} κ {kappa} ξ {xi}: bound {bound} at std {hi} below score {score} at std {lo}, mean {mean}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhausted_jitter_ladder_falls_back_to_random_like_the_oracle() {
        // At 1e-300 every rung leaves 1 + jitter == 1, so a repeated
        // design is an exactly singular pivot at all six rungs.
        for seed in 0..8 {
            let unusable = check_against_dense(&[1, 2], 1e-300, Acquisition::Ei, 192, 8, 4, seed);
            assert!(unusable > 0, "seed {seed} never exhausted the ladder");
        }
    }

    fn space(cards: &[usize]) -> ParamSpace {
        let mut b = ParamSpace::builder();
        for (i, &c) in cards.iter().enumerate() {
            b = b.int(&format!("p{i}"), 0, c as i64 - 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn norm_cdf_matches_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999_999);
    }

    #[test]
    fn initial_design_is_random_and_valid() {
        let s = space(&[6, 6]);
        let mut bo = BayesOpt::with_defaults(s.clone(), 1);
        let batch = bo.propose(16);
        assert_eq!(batch.len(), 8); // n_init
        for a in &batch {
            s.validate(a).unwrap();
        }
    }

    #[test]
    fn gp_prediction_interpolates_observations() {
        let s = space(&[11]);
        let mut bo = BayesOpt::new(s, 0.2, 1e-6, Acquisition::Ei, 2.0, 0.0, 2, 64, 2);
        // Observe a linear function y = x/10.
        let results: Vec<(Action, StepResult)> = (0..11)
            .map(|i| {
                let a = Action::new(vec![i]);
                let y = i as f64 / 10.0;
                (a, StepResult::terminal(Observation::new(vec![y]), y))
            })
            .collect();
        bo.observe(&results);
        let fit = bo.fit().unwrap();
        for i in [0usize, 5, 10] {
            let x = bo.space.normalize(&Action::new(vec![i]));
            let (mean_std, std) = bo.posterior(&fit, &[x])[0];
            let mean = mean_std * fit.y_std + fit.y_mean;
            assert!(
                (mean - i as f64 / 10.0).abs() < 0.05,
                "mean at {i} was {mean}"
            );
            assert!(std < 0.2, "posterior std {std} too wide at data");
        }
    }

    #[test]
    fn bo_finds_peak_sample_efficiently() {
        let mut env = PeakEnv::new(&[20, 20], vec![13, 4]);
        let mut bo = BayesOpt::with_defaults(env.space().clone(), 5);
        let result = SearchLoop::new(RunConfig::with_budget(120).batch(4)).run(&mut bo, &mut env);
        assert!(
            result.best_reward > 0.45,
            "BO best reward {} too low",
            result.best_reward
        );
    }

    #[test]
    fn proposals_avoid_already_seen_points() {
        let s = space(&[3]);
        let mut bo = BayesOpt::new(s, 0.3, 1e-4, Acquisition::Ucb, 2.0, 0.0, 1, 32, 3);
        // Mark two of the three points as seen with low reward.
        let seen: Vec<(Action, StepResult)> = [0usize, 1]
            .iter()
            .map(|&i| {
                (
                    Action::new(vec![i]),
                    StepResult::terminal(Observation::new(vec![0.0]), 0.0),
                )
            })
            .collect();
        bo.observe(&seen);
        let batch = bo.propose(4);
        assert!(batch.iter().all(|a| a.index(0) == 2), "proposed {batch:?}");
    }

    #[test]
    fn history_cap_keeps_best() {
        let s = space(&[50]);
        let mut bo = BayesOpt::with_defaults(s, 4);
        bo.max_history = 10;
        // The best point (reward 100) arrives early, then 50 mediocre ones.
        let mk = |i: usize, r: f64| {
            (
                Action::new(vec![i % 50]),
                StepResult::terminal(Observation::new(vec![r]), r),
            )
        };
        bo.observe(&[mk(7, 100.0)]);
        for i in 0..50 {
            bo.observe(&[mk(i, 1.0)]);
        }
        assert!(bo.history_len() <= 10);
        assert!(bo.ys.contains(&100.0), "incumbent best evicted");
    }

    #[test]
    fn warm_started_bo_skips_its_initial_random_design() {
        use archgym_core::agent::warm_start;
        use archgym_core::search::{RunConfig, SearchLoop};
        use archgym_core::trajectory::{Dataset, Transition};
        // Log exploration with a random walker on the peak landscape.
        let mut env = PeakEnv::new(&[15, 15], vec![4, 11]);
        let mut walker = archgym_core::agent::RandomWalker::new(env.space().clone(), 2);
        let logged: Dataset = walker
            .propose(60)
            .into_iter()
            .map(|a| {
                let r = env.step(&a);
                Transition::new("peak", "rw", a, &r)
            })
            .collect();
        // A warm-started BO holds that history before its first proposal
        // and therefore goes straight to surrogate-guided candidates.
        let mut bo = BayesOpt::with_defaults(env.space().clone(), 4);
        warm_start(&mut bo, &logged, 16);
        assert_eq!(bo.history_len(), 60);
        // Sharpest possible design-skip check: a cold BO with the SAME
        // seed spends its first batch on the random initial design. If
        // the warm one skipped that phase, its first batch cannot equal
        // the cold one's (identical rng state, different code path) —
        // and the guided path filters `seen`, so no proposal may repeat
        // a logged action either.
        let mut cold = BayesOpt::with_defaults(env.space().clone(), 4);
        let warm_batch = bo.propose(4);
        let cold_batch = cold.propose(4);
        assert_ne!(
            warm_batch, cold_batch,
            "warm-started BO replayed the cold initial design"
        );
        let logged_actions: std::collections::HashSet<&[usize]> =
            logged.iter().map(|t| t.action.as_slice()).collect();
        for a in &warm_batch {
            env.space().validate(a).unwrap();
            assert!(
                !logged_actions.contains(a.as_slice()),
                "guided proposal repeated a logged action: {a:?}"
            );
        }
        // Guided samples on top of 60 replayed ones must, on average
        // across surrogate seeds, at least hold the walker's high-water
        // mark (deterministic: every seed below is fixed).
        let logged_best = logged
            .iter()
            .map(|t| t.reward)
            .fold(f64::NEG_INFINITY, f64::max);
        let mean_best: f64 = (0..8)
            .map(|seed| {
                let mut warm = BayesOpt::with_defaults(env.space().clone(), seed);
                warm_start(&mut warm, &logged, 16);
                let mut fresh = PeakEnv::new(&[15, 15], vec![4, 11]);
                SearchLoop::new(RunConfig::with_budget(20).batch(4))
                    .run(&mut warm, &mut fresh)
                    .best_reward
            })
            .sum::<f64>()
            / 8.0;
        assert!(
            mean_best >= logged_best * 0.9,
            "warm-started BO mean best {mean_best} fell below the \
             logged high-water mark {logged_best}"
        );
    }

    #[test]
    fn acquisition_parse() {
        assert_eq!(Acquisition::parse("ei").unwrap(), Acquisition::Ei);
        assert_eq!(Acquisition::parse("ucb").unwrap(), Acquisition::Ucb);
        assert_eq!(Acquisition::parse("pi").unwrap(), Acquisition::Pi);
        assert!(Acquisition::parse("nope").is_err());
    }

    #[test]
    fn from_hyper_reads_keys() {
        let s = space(&[4]);
        let hyper = HyperMap::new()
            .with("length_scale", 0.5)
            .with("acquisition", "ucb")
            .with("kappa", 3.0)
            .with("n_init", 2i64);
        let bo = BayesOpt::from_hyper(s, &hyper, 0).unwrap();
        assert_eq!(bo.acquisition, Acquisition::Ucb);
        assert_eq!(bo.n_init, 2);
        assert_eq!(bo.kappa, 3.0);
    }
}
