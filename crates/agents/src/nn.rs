//! The RL agents' policy: a factored categorical over the design space
//! whose logits are either learned directly or produced by a tiny
//! multilayer perceptron trained with Adam.
//!
//! The paper's RL agent carries a neural-network policy (Fig. 2). This
//! module implements just enough of one: dense layers with tanh
//! activations, manual backpropagation, and the Adam optimizer. No
//! autograd, no BLAS — design spaces here have tens of dimensions, so a
//! few thousand parameters suffice. `CategoricalPolicy` holds the
//! softmax heads, stored as runs of equal logits so that a 65,536-value
//! head costs what its few hundred runs cost, and the one policy-gradient
//! step REINFORCE and PPO share.

// Indexed loops here mirror the textbook formulations of the numeric
// kernels; iterator rewrites would obscure them.
#![allow(clippy::needless_range_loop)]

use rand::Rng;

/// One dense layer `y = W·x + b` with an optional tanh activation.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Vec<f64>, // row-major out_dim × in_dim
    b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    tanh: bool,
    // forward caches
    last_x: Vec<f64>,
    last_y: Vec<f64>,
    // gradients
    gw: Vec<f64>,
    gb: Vec<f64>,
    // Adam state
    mw: Vec<f64>,
    vw: Vec<f64>,
    mb: Vec<f64>,
    vb: Vec<f64>,
}

impl Dense {
    /// Create a layer with Xavier-uniform initialization.
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, tanh: bool, rng: &mut R) -> Self {
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Dense {
            w,
            b: vec![0.0; out_dim],
            in_dim,
            out_dim,
            tanh,
            last_x: vec![0.0; in_dim],
            last_y: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            mw: vec![0.0; in_dim * out_dim],
            vw: vec![0.0; in_dim * out_dim],
            mb: vec![0.0; out_dim],
            vb: vec![0.0; out_dim],
        }
    }

    /// Forward pass, caching activations for backprop.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "input dimension mismatch");
        self.last_x.copy_from_slice(x);
        let mut y = vec![0.0; self.out_dim];
        for o in 0..self.out_dim {
            let mut sum = self.b[o];
            for i in 0..self.in_dim {
                sum += self.w[o * self.in_dim + i] * x[i];
            }
            y[o] = if self.tanh { sum.tanh() } else { sum };
        }
        self.last_y.copy_from_slice(&y);
        y
    }

    /// Backward pass: accumulate gradients, return `dL/dx`.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != out_dim`.
    pub fn backward(&mut self, dy: &[f64]) -> Vec<f64> {
        assert_eq!(dy.len(), self.out_dim, "gradient dimension mismatch");
        let mut dx = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            // Through the activation.
            let dz = if self.tanh {
                dy[o] * (1.0 - self.last_y[o] * self.last_y[o])
            } else {
                dy[o]
            };
            self.gb[o] += dz;
            for i in 0..self.in_dim {
                self.gw[o * self.in_dim + i] += dz * self.last_x[i];
                dx[i] += dz * self.w[o * self.in_dim + i];
            }
        }
        dx
    }

    fn adam_update(p: &mut [f64], g: &mut [f64], m: &mut [f64], v: &mut [f64], lr: f64, t: u64) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bias1 = 1.0 - B1.powi(t as i32);
        let bias2 = 1.0 - B2.powi(t as i32);
        for i in 0..p.len() {
            m[i] = B1 * m[i] + (1.0 - B1) * g[i];
            v[i] = B2 * v[i] + (1.0 - B2) * g[i] * g[i];
            let mh = m[i] / bias1;
            let vh = v[i] / bias2;
            p[i] += lr * mh / (vh.sqrt() + EPS);
            g[i] = 0.0;
        }
    }

    /// Apply one Adam **ascent** step (policy gradients maximize) and
    /// clear accumulated gradients. `t` is the 1-based step counter.
    pub fn step(&mut self, lr: f64, t: u64) {
        Self::adam_update(&mut self.w, &mut self.gw, &mut self.mw, &mut self.vw, lr, t);
        Self::adam_update(&mut self.b, &mut self.gb, &mut self.mb, &mut self.vb, lr, t);
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// A feed-forward stack of [`Dense`] layers.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
    steps: u64,
}

impl Mlp {
    /// Build an MLP with the given layer widths; all hidden layers use
    /// tanh, the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "need at least input and output widths");
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Dense::new(w[0], w[1], i + 2 < widths.len(), rng))
            .collect();
        Mlp { layers, steps: 0 }
    }

    /// Forward pass through all layers.
    pub fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        let mut h = x.to_vec();
        for layer in &mut self.layers {
            h = layer.forward(&h);
        }
        h
    }

    /// Backward pass; accumulates gradients in every layer.
    pub fn backward(&mut self, dy: &[f64]) {
        let mut g = dy.to_vec();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// One Adam ascent step over all layers, clearing gradients.
    pub fn step(&mut self, lr: f64) {
        self.steps += 1;
        for layer in &mut self.layers {
            layer.step(lr, self.steps);
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }
}

/// Bit mask of an `f64`'s stored fraction.
const FRACTION: u64 = (1 << 52) - 1;
/// The implicit leading significand bit of a normal `f64`.
const HIDDEN: u64 = 1 << 52;

/// `k` in-order steps `s += e`: bit for bit
/// `{ for _ in 0..k { s += e } s }`, in O(binades crossed) steps.
fn add_repeated(s: f64, e: f64, k: usize) -> f64 {
    add_steps(s, e, k, |_| false).0
}

/// Up to `k` in-order steps `s += e`, stopping after the first step whose
/// result satisfies `stop`; returns the last result and the number of
/// steps taken (`k` unless `stop` fired).
///
/// Steps go in bulk while [`bulk_steps`] can prove their rounding, and
/// one at a time otherwise; a single step that returns its input bits is
/// a fixed point, so it ends the loop. `stop` is only tested on single
/// steps: bulk steps stay inside `s`'s binade and so keep its sign, and a
/// sign test such as `u <= 0.0` that fails on entry cannot pass inside
/// one.
fn add_steps(mut s: f64, e: f64, k: usize, stop: impl Fn(f64) -> bool) -> (f64, usize) {
    let mut taken = 0;
    while taken < k {
        if let Some((bulk, n)) = bulk_steps(s, e, k - taken) {
            s = bulk;
            taken += n;
            continue;
        }
        let next = s + e;
        taken += 1;
        if stop(next) {
            return (next, taken);
        }
        if next.to_bits() == s.to_bits() {
            return (s, k);
        }
        s = next;
    }
    (s, taken)
}

/// The most steps `s += e`, at most `k`, whose rounding is known without
/// doing them: `Some((s after n steps, n))`, or `None` when the next step
/// must be a single one.
///
/// Inside the binade `[2^b, 2^(b+1))` of `|s|` every value is a multiple
/// of `ulp = 2^(b−52)`, so while the exact sum stays strictly inside it,
/// each step adds the constant `round(e / ulp) · ulp`. That holds for
/// `n` steps when `n · round(|e| / ulp)` is below the whole ulps between
/// `s` and the edge it moves toward. The rounding of `e / ulp` must not
/// be an exact tie (ties round `s` to even, which depends on `s`), and
/// both operands must be normal: zero, subnormal and non-finite operands
/// always take single steps, as do runs of one.
fn bulk_steps(s: f64, e: f64, k: usize) -> Option<(f64, usize)> {
    if k < 2 || !s.is_normal() || !e.is_normal() {
        return None;
    }
    let (sb, eb) = (s.to_bits(), e.to_bits());
    // |e| / ulp(s) = (fraction of e with its hidden bit) / 2^shift.
    let shift = ((sb >> 52) & 0x7ff).checked_sub((eb >> 52) & 0x7ff)?;
    if shift > 53 {
        // |e| < ulp / 2: the single step is a fixed point.
        return None;
    }
    let me = (eb & FRACTION) | HIDDEN;
    let below = me & ((1 << shift) - 1);
    let half = (1 << shift) >> 1;
    if shift > 0 && below == half {
        return None;
    }
    let ulps = (me >> shift) + u64::from(below > half);
    let ms = (sb & FRACTION) | HIDDEN;
    let toward_zero = (sb ^ eb) >> 63 == 1;
    let room = if toward_zero {
        ms - HIDDEN
    } else {
        2 * HIDDEN - ms
    };
    // `n · ulps ≤ room − 1` keeps every step's exact sum more than half
    // an ulp inside the binade.
    let n = (room.saturating_sub(1) / ulps).min(k as u64);
    if n == 0 {
        return None;
    }
    let bits = if toward_zero {
        sb - n * ulps
    } else {
        sb + n * ulps
    };
    Some((f64::from_bits(bits), n as usize))
}

/// Values `end_of_previous_run..end` of one head, all with logit bits `z`.
#[derive(Debug, Clone, Copy)]
struct Run {
    end: usize,
    z: f64,
    /// Probability under the last [`CategoricalPolicy::evaluate`].
    p: f64,
    /// `ln(max(p, 1e-12))`.
    ln_p: f64,
}

impl Run {
    /// A run ending before value `end`, with no probability yet.
    fn new(end: usize, z: f64) -> Self {
        Run {
            end,
            z,
            p: 0.0,
            ln_p: 0.0,
        }
    }
}

/// One softmax head as runs of equal logits, in value order.
#[derive(Debug, Clone)]
struct Head {
    runs: Vec<Run>,
    /// Entropy (natural log) under the last `evaluate`.
    entropy: f64,
}

impl Head {
    /// A head of `card` values, all with logit 0.
    fn uniform(card: usize) -> Self {
        let runs = (card > 0)
            .then(|| Run::new(card, 0.0))
            .into_iter()
            .collect();
        Head { runs, entropy: 0.0 }
    }

    fn card(&self) -> usize {
        self.runs.last().map_or(0, |run| run.end)
    }

    /// `field` of each value's run, one per value.
    fn per_value(&self, field: impl Fn(&Run) -> f64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.card());
        for run in &self.runs {
            out.resize(run.end, field(run));
        }
        out
    }

    /// Replace the logits, merging neighbours with equal bits into runs.
    fn set_logits(&mut self, z: &[f64]) {
        self.runs.clear();
        for (v, &zv) in z.iter().enumerate() {
            match self.runs.last_mut() {
                Some(run) if run.z.to_bits() == zv.to_bits() => run.end = v + 1,
                _ => self.runs.push(Run::new(v + 1, zv)),
            }
        }
    }

    /// Index of the run holding value `v`.
    fn run_of(&self, v: usize) -> usize {
        self.runs.partition_point(|run| run.end <= v)
    }

    /// `p = softmax(z)` and the entropy `-Σ_{p>0} p·ln p`, one `exp`,
    /// `/` and `ln` per run. Both sums run over the values in order from
    /// `-0.0`, a run's equal addends through [`add_repeated`].
    fn softmax(&mut self) {
        let max = self
            .runs
            .iter()
            .fold(f64::NEG_INFINITY, |max, run| max.max(run.z));
        let (mut sum, mut start) = (-0.0, 0);
        for run in &mut self.runs {
            run.p = (run.z - max).exp();
            sum = add_repeated(sum, run.p, run.end - start);
            start = run.end;
        }
        let (mut acc, mut start) = (-0.0, 0);
        for run in &mut self.runs {
            let p = run.p / sum;
            run.p = p;
            run.ln_p = p.max(1e-12).ln();
            if p > 0.0 {
                let ln = if p >= 1e-12 { run.ln_p } else { p.ln() };
                acc = add_repeated(acc, p * ln, run.end - start);
            }
            start = run.end;
        }
        self.entropy = -acc;
    }

    /// Draw one value: `u -= p` value by value from `u ∈ [0, 1)` until
    /// `u ≤ 0`, or the last value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        assert!(!self.runs.is_empty(), "empty distribution");
        let mut u: f64 = rng.gen();
        let mut start = 0;
        for run in &self.runs {
            let (left, taken) = add_steps(u, -run.p, run.end - start, |u| u <= 0.0);
            if left <= 0.0 {
                return start + taken - 1;
            }
            (u, start) = (left, run.end);
        }
        start - 1
    }

    /// Learned logits: `z += lr ×` [`logit_gradient`], once per run, with
    /// the chosen value split out of its run to take its own update.
    fn ascend(&mut self, chosen: usize, scale: f64, lr: f64, entropy_coef: f64) {
        let h = self.entropy;
        let step = |run: &Run, is_chosen: bool| {
            run.z + lr * logit_gradient(is_chosen, run.p, run.ln_p, h, scale, entropy_coef)
        };
        let r = self.run_of(chosen);
        let (hit, start) = (
            self.runs[r],
            r.checked_sub(1).map_or(0, |l| self.runs[l].end),
        );
        for run in &mut self.runs {
            run.z = step(run, false);
        }
        let rest = self.runs[r];
        let left = (chosen > start).then_some(Run {
            end: chosen,
            ..rest
        });
        let one = Run {
            end: chosen + 1,
            z: step(&hit, true),
            ..rest
        };
        let right = (rest.end > chosen + 1).then_some(rest);
        self.runs
            .splice(r..=r, left.into_iter().chain([one]).chain(right));
    }
}

/// A factored categorical policy: one softmax head per design-space
/// dimension, as used by the REINFORCE and PPO agents.
///
/// Each head stores its logits as runs of equal bits. A learned
/// (tabular) value that was never sampled receives exactly the update
/// every other unsampled value of its head receives, so after `n` steps
/// a head holds at most `2n + 1` runs, however many values it has; an
/// MLP's output mostly makes runs of one. [`evaluate`](Self::evaluate)
/// computes each run's probability and each head's entropy, and
/// sampling, log-probabilities and [`ascend`](Self::ascend) read them
/// until the next `evaluate`. Every pass costs O(runs), and every result
/// is bit-identical to the textbook per-value loops (kept as the test
/// oracle): sums keep their order and `-0.0` start through the exact
/// repeated-add kernel [`add_repeated`].
#[derive(Debug)]
pub(crate) struct CategoricalPolicy {
    heads: Vec<Head>,
    /// The network mapping `context ++ [1]` to every head's logits;
    /// `None` when the logits are learned directly (tabular).
    mlp: Option<Mlp>,
}

impl CategoricalPolicy {
    /// Zero-initialized learnable logits: every head starts uniform.
    pub(crate) fn tabular(cards: &[usize]) -> Self {
        CategoricalPolicy {
            heads: cards.iter().map(|&c| Head::uniform(c)).collect(),
            mlp: None,
        }
    }

    /// An MLP policy `[heads + 1, hidden, Σ cards]` drawing its initial
    /// weights from `rng`.
    pub(crate) fn mlp<R: Rng + ?Sized>(cards: &[usize], hidden: usize, rng: &mut R) -> Self {
        let mlp = Mlp::new(&[cards.len() + 1, hidden, cards.iter().sum()], rng);
        CategoricalPolicy {
            mlp: Some(mlp),
            ..Self::tabular(cards)
        }
    }

    /// Whether the logits come from an MLP.
    #[cfg(test)]
    pub(crate) fn is_mlp(&self) -> bool {
        self.mlp.is_some()
    }

    /// Recompute every head's probabilities and entropy. `context` is the
    /// MLP's input (without the bias term); the tabular policy ignores it.
    pub(crate) fn evaluate(&mut self, context: &[f64]) {
        if let Some(mlp) = &mut self.mlp {
            let mut x = context.to_vec();
            x.push(1.0);
            let flat = mlp.forward(&x);
            let mut start = 0;
            for head in &mut self.heads {
                let end = start + head.card();
                head.set_logits(&flat[start..end]);
                start = end;
            }
        }
        for head in &mut self.heads {
            head.softmax();
        }
    }

    /// Head `d`'s probabilities from the last [`evaluate`](Self::evaluate),
    /// one per value.
    pub(crate) fn head(&self, d: usize) -> Vec<f64> {
        self.heads[d].per_value(|run| run.p)
    }

    /// Head `d`'s entropy (natural log) from the last `evaluate`.
    #[cfg(test)]
    pub(crate) fn entropy(&self, d: usize) -> f64 {
        self.heads[d].entropy
    }

    /// Every head's probabilities from the last `evaluate`.
    pub(crate) fn distributions(&self) -> Vec<Vec<f64>> {
        (0..self.heads.len()).map(|d| self.head(d)).collect()
    }

    /// Draw one value per head, heads in order.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        self.heads.iter().map(|head| head.sample(rng)).collect()
    }

    /// `Σ_d ln(max(p_d[genes[d]], 1e-12))` under the last `evaluate`.
    pub(crate) fn log_prob(&self, genes: &[usize]) -> f64 {
        self.heads
            .iter()
            .zip(genes)
            .map(|(head, &g)| head.runs[head.run_of(g)].ln_p)
            .sum()
    }

    /// One ascent step on `scale · log π(genes) + entropy_coef · Σ H`,
    /// using the probabilities of the last `evaluate` (and, for the MLP,
    /// the activations its forward pass cached): tabular logits move by
    /// `lr ×` their [`logit_gradient`]; the MLP backpropagates the same
    /// gradient and takes one Adam step of size `lr`.
    pub(crate) fn ascend(&mut self, genes: &[usize], scale: f64, lr: f64, entropy_coef: f64) {
        let Some(mlp) = &mut self.mlp else {
            for (head, &g) in self.heads.iter_mut().zip(genes) {
                head.ascend(g, scale, lr, entropy_coef);
            }
            return;
        };
        let mut dlogits = Vec::new();
        for (head, &g) in self.heads.iter().zip(genes) {
            let grad = |run: &Run, is_chosen: bool| {
                logit_gradient(
                    is_chosen,
                    run.p,
                    run.ln_p,
                    head.entropy,
                    scale,
                    entropy_coef,
                )
            };
            let base = dlogits.len();
            for run in &head.runs {
                dlogits.resize(base + run.end, grad(run, false));
            }
            dlogits[base + g] = grad(&head.runs[head.run_of(g)], true);
        }
        mlp.backward(&dlogits);
        mlp.step(lr);
    }
}

/// Gradient of `scale · ln π(chosen) + entropy_coef · H` with respect to
/// the logit of a value with probability `p`, where `ln_p` is
/// `ln(max(p, 1e-12))` and `h` the head's entropy.
#[inline]
fn logit_gradient(
    is_chosen: bool,
    p: f64,
    ln_p: f64,
    h: f64,
    scale: f64,
    entropy_coef: f64,
) -> f64 {
    let grad_logp = f64::from(is_chosen) - p;
    let grad_h = -p * (ln_p + h);
    scale * grad_logp + entropy_coef * grad_h
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::seeded_rng;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// A tabular policy holding the given logits, one `Vec` per head.
    fn tabular_with(heads: &[Vec<f64>]) -> CategoricalPolicy {
        let cards: Vec<usize> = heads.iter().map(Vec::len).collect();
        let mut policy = CategoricalPolicy::tabular(&cards);
        for (head, z) in policy.heads.iter_mut().zip(heads) {
            head.set_logits(z);
        }
        policy
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let mut policy = tabular_with(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0]]);
        policy.evaluate(&[]);
        let p = policy.head(0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
        // Stability with huge logits.
        assert!((policy.head(1)[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_categorical_respects_distribution() {
        let mut rng = seeded_rng(1);
        let mut policy = tabular_with(&[vec![0.1f64.ln(), 0.8f64.ln(), 0.1f64.ln()]]);
        policy.evaluate(&[]);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[policy.sample(&mut rng)[0]] += 1;
        }
        assert!(counts[1] > 2000, "mode undersampled: {counts:?}");
        assert!(counts[0] > 100 && counts[2] > 100);
    }

    #[test]
    fn entropy_extremes() {
        let mut policy = tabular_with(&[vec![0.0, f64::NEG_INFINITY], vec![0.0; 4]]);
        policy.evaluate(&[]);
        assert_eq!(policy.head(0), &[1.0, 0.0]);
        assert_eq!(policy.entropy(0), 0.0);
        assert!((policy.entropy(1) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn dense_forward_known_values() {
        let mut rng = seeded_rng(2);
        let mut layer = Dense::new(2, 1, false, &mut rng);
        // Overwrite weights for a deterministic check.
        layer.w = vec![2.0, -1.0];
        layer.b = vec![0.5];
        assert_eq!(layer.forward(&[1.0, 3.0]), vec![2.0 - 3.0 + 0.5]);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(3);
        let mut mlp = Mlp::new(&[2, 4, 3], &mut rng);
        let x = [0.3, -0.7];
        // Loss = y[0]; dL/dy = (1, 0, 0).
        let y0 = mlp.forward(&x)[0];
        mlp.backward(&[1.0, 0.0, 0.0]);
        let analytic = mlp.layers[0].gw[0];
        // Finite difference on the first weight of layer 0.
        let eps = 1e-6;
        let mut probe = mlp.clone();
        probe.layers[0].w[0] += eps;
        let y1 = probe.forward(&x)[0];
        let numeric = (y1 - y0) / eps;
        assert!(
            (analytic - numeric).abs() < 1e-5,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn adam_ascends_a_simple_objective() {
        // Maximize -(w·x - 2)² via its gradient; the MLP output should
        // approach 2 for the fixed input.
        let mut rng = seeded_rng(4);
        let mut mlp = Mlp::new(&[1, 8, 1], &mut rng);
        let x = [1.0];
        for _ in 0..500 {
            let y = mlp.forward(&x)[0];
            let dy = 2.0 * (2.0 - y); // d/dy of -(y-2)²
            mlp.backward(&[dy]);
            mlp.step(0.05);
        }
        let y = mlp.forward(&x)[0];
        assert!((y - 2.0).abs() < 0.05, "converged to {y}");
    }

    #[test]
    fn param_count_is_correct() {
        let mut rng = seeded_rng(5);
        let mlp = Mlp::new(&[3, 5, 2], &mut rng);
        assert_eq!(mlp.param_count(), (3 * 5 + 5) + (5 * 2 + 2));
    }

    fn assert_bits(kernel: &[f64], oracle: &[f64], what: &str) {
        assert_eq!(kernel.len(), oracle.len(), "{what}: length");
        for (i, (k, o)) in kernel.iter().zip(oracle).enumerate() {
            assert_eq!(
                k.to_bits(),
                o.to_bits(),
                "{what}[{i}]: kernel {k:e} vs oracle {o:e}"
            );
        }
    }

    /// Drive the tabular policy and the reference loops through the same
    /// steps and require the same bits for probabilities, entropies,
    /// log-probabilities, samples from equal RNG states and updated
    /// logits; each head's runs stay within two per distinct chosen
    /// value of the runs it started with.
    fn check_tabular(heads: &[Vec<f64>], steps: &[(Vec<usize>, f64)], lr: f64, entropy_coef: f64) {
        let mut policy = tabular_with(heads);
        let start_runs: Vec<usize> = policy.heads.iter().map(|h| h.runs.len()).collect();
        let mut chosen = vec![BTreeSet::new(); heads.len()];
        let mut oracle = heads.to_vec();
        for (step, (genes, scale)) in steps.iter().enumerate() {
            policy.evaluate(&[]);
            let dists: Vec<Vec<f64>> = oracle.iter().map(|z| reference::softmax(z)).collect();
            for (d, probs) in dists.iter().enumerate() {
                assert_bits(
                    &policy.head(d),
                    probs,
                    &format!("step {step} probs head {d}"),
                );
                let h = reference::entropy(probs);
                assert_eq!(
                    policy.entropy(d).to_bits(),
                    h.to_bits(),
                    "step {step} entropy {d}"
                );
            }
            let logp = reference::log_prob(&dists, genes);
            assert_eq!(
                policy.log_prob(genes).to_bits(),
                logp.to_bits(),
                "step {step} logp"
            );
            let mut rng = seeded_rng(step as u64);
            let mut same = rng.clone();
            let drawn: Vec<usize> = (dists.iter())
                .map(|p| reference::sample_categorical(p, &mut same))
                .collect();
            assert_eq!(policy.sample(&mut rng), drawn, "step {step} sample");

            policy.ascend(genes, *scale, lr, entropy_coef);
            let grads = reference::gradient(&dists, genes, *scale, entropy_coef);
            for (z, g) in oracle.iter_mut().zip(&grads) {
                for (zv, gv) in z.iter_mut().zip(g) {
                    *zv += lr * gv;
                }
            }
            for (d, z) in oracle.iter().enumerate() {
                assert_bits(
                    &policy.heads[d].per_value(|run| run.z),
                    z,
                    &format!("step {step} logits head {d}"),
                );
                chosen[d].insert(genes[d]);
                let runs = policy.heads[d].runs.len();
                assert!(
                    runs <= start_runs[d] + 2 * chosen[d].len(),
                    "step {step} head {d}: {runs} runs"
                );
            }
        }
    }

    #[test]
    fn kernel_matches_the_reference_on_long_runs_of_equal_logits() {
        // PPO-like: a wide head where only sampled values leave the run,
        // next to narrow heads, over many steps with both signs of scale.
        let heads = vec![vec![0.0; 3000], vec![0.0; 5], vec![0.0; 1]];
        let mut rng = seeded_rng(11);
        let steps: Vec<(Vec<usize>, f64)> = (0..40)
            .map(|_| {
                let genes = vec![rng.gen_range(0..3000), rng.gen_range(0..5), 0];
                (genes, rng.gen_range(-2.0..2.0))
            })
            .collect();
        check_tabular(&heads, &steps, 0.1, 0.01);
        // Runs that start mid-head and recur after a break.
        let mut mixed = vec![0.25; 64];
        mixed[0] = 1.5;
        mixed[10..20].fill(-3.0);
        mixed[40..41].fill(-3.0);
        check_tabular(
            &[mixed],
            &[(vec![0], 1.0), (vec![10], -0.5), (vec![63], 0.3)],
            0.5,
            0.02,
        );
    }

    #[test]
    fn kernel_matches_the_reference_below_the_log_floor() {
        // exp(-70) is far below 1e-12, so `ln(max(p, 1e-12))` takes the
        // floor while the entropy still uses ln(p).
        let heads = vec![vec![0.0, -40.0, -40.0, 30.0]];
        let steps = vec![(vec![1], 1.0), (vec![3], -1.0), (vec![2], 0.7)];
        check_tabular(&heads, &steps, 0.3, 0.05);
    }

    #[test]
    fn kernel_matches_the_reference_on_a_one_value_head() {
        check_tabular(&[vec![0.7]], &[(vec![0], 1.0), (vec![0], -2.0)], 0.1, 0.01);
    }

    #[test]
    fn kernel_matches_the_reference_when_clipped_or_without_entropy() {
        let heads = vec![vec![0.0; 200], vec![1.0, 2.0, 3.0]];
        let steps = vec![(vec![5, 1], 0.0), (vec![7, 2], 1.0), (vec![5, 0], 0.0)];
        // scale == 0 is PPO's clipped case: only the entropy term moves.
        check_tabular(&heads, &steps, 0.2, 0.01);
        // entropy_coef == 0: only the log-prob term moves.
        check_tabular(&heads, &steps, 0.2, 0.0);
    }

    #[test]
    fn kernel_matches_the_reference_on_nan_and_infinite_logits() {
        let heads = vec![
            vec![0.0, f64::NAN, 1.0, f64::NAN, f64::NAN, 1.0],
            vec![f64::NEG_INFINITY, 0.0, 0.0, f64::NEG_INFINITY, 2.0],
            vec![f64::INFINITY, 0.0, f64::NEG_INFINITY, 0.0],
            vec![f64::NAN],
            vec![f64::NAN, 0.0, 0.0],
        ];
        let steps = vec![(vec![2, 1, 1, 0, 1], 1.0), (vec![1, 4, 0, 0, 0], -1.0)];
        check_tabular(&heads, &steps, 0.1, 0.01);
    }

    #[test]
    fn mlp_gradient_matches_the_reference() {
        let cards = [4, 1, 6];
        let mut rng = seeded_rng(21);
        let mut policy = CategoricalPolicy::mlp(&cards, 8, &mut rng);
        let mut oracle = policy.mlp.clone().expect("mlp policy");
        let context = [0.1, 0.5, 0.9];
        let x = [0.1, 0.5, 0.9, 1.0];
        for (step, (genes, scale)) in [
            (vec![1, 0, 5], 1.3),
            (vec![3, 0, 0], -0.4),
            (vec![0, 0, 2], 0.0),
            (vec![2, 0, 1], 0.8),
        ]
        .iter()
        .enumerate()
        {
            policy.evaluate(&context);
            let flat = oracle.forward(&x);
            let mut offset = 0;
            let dists: Vec<Vec<f64>> = cards
                .iter()
                .map(|&c| {
                    offset += c;
                    reference::softmax(&flat[offset - c..offset])
                })
                .collect();
            for (d, probs) in dists.iter().enumerate() {
                assert_bits(
                    &policy.head(d),
                    probs,
                    &format!("step {step} probs head {d}"),
                );
            }
            policy.ascend(genes, *scale, 0.05, 0.01);
            oracle.backward(&reference::gradient(&dists, genes, *scale, 0.01).concat());
            oracle.step(0.05);
        }
    }

    /// The textbook loop [`add_repeated`] replaces.
    fn naive_add(mut s: f64, e: f64, k: usize) -> f64 {
        for _ in 0..k {
            s += e;
        }
        s
    }

    fn sign<R: Rng>(rng: &mut R) -> f64 {
        if rng.gen_bool(0.5) {
            -1.0
        } else {
            1.0
        }
    }

    /// `m · 2^exp` with `m ∈ [1, 2)` and a random sign.
    fn scaled<R: Rng>(rng: &mut R, exp: i32) -> f64 {
        sign(rng) * rng.gen_range(1.0..2.0) * 2f64.powi(exp)
    }

    /// A start and an addend for [`add_repeated`], drawn from the cases
    /// its bulk steps must get right or leave to single steps.
    fn operands<R: Rng>(rng: &mut R) -> (f64, f64) {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
        ];
        let (exp, gap) = (rng.gen_range(-60..60), rng.gen_range(0..40));
        match rng.gen_range(0..8) {
            // Softmax and entropy sums: a signed zero start.
            0 => (if rng.gen_bool(0.5) { -0.0 } else { 0.0 }, scaled(rng, exp)),
            // Growing or shrinking magnitudes, crossing zero when the
            // signs differ.
            1 => (scaled(rng, exp), scaled(rng, exp - gap)),
            2 => (scaled(rng, exp - gap / 2), scaled(rng, exp)),
            // Exact ties: e = (j + ½) · ulp(s).
            3 => {
                let s = scaled(rng, exp);
                let j = match rng.gen_range(0..3) {
                    0 => 0,
                    1 => 1,
                    _ => rng.gen_range(2..1 << 20),
                };
                (s, sign(rng) * (j as f64 + 0.5) * 2f64.powi(exp - 52))
            }
            // A few ulps from a binade edge, stepping toward it by a
            // fractional number of ulps.
            4 => {
                let (ulp, sign) = (2f64.powi(exp - 52), sign(rng));
                let (j, m) = (rng.gen_range(1..64) as f64, rng.gen_range(0..4) as f64);
                let e = (m + rng.gen_range(0.0..1.0)) * ulp;
                if rng.gen_bool(0.5) {
                    (sign * (2f64.powi(exp) + j * ulp), -sign * e)
                } else {
                    (sign * (2f64.powi(exp + 1) - j * ulp), sign * e)
                }
            }
            // Subnormals, near the normal range's bottom.
            5 => (
                scaled(rng, -1022) * rng.gen_range(0.0..1.0),
                sign(rng) * f64::from_bits(rng.gen_range(1..1 << 52)),
            ),
            // Zeros, infinities, NaN and the range's edges on either side.
            6 => (SPECIAL[rng.gen_range(0..SPECIAL.len())], scaled(rng, exp)),
            _ => (scaled(rng, exp), SPECIAL[rng.gen_range(0..SPECIAL.len())]),
        }
    }

    /// Logits for one head of `card` values as runs of random lengths,
    /// drawn from a few values so that non-adjacent runs repeat bits.
    fn run_logits<R: Rng>(rng: &mut R, card: usize) -> Vec<f64> {
        let palette: Vec<f64> = (0..rng.gen_range(1..6))
            .map(|_| match rng.gen_range(0..12) {
                0 => f64::NEG_INFINITY,
                1 => -60.0,
                _ => rng.gen_range(-4.0..4.0),
            })
            .collect();
        let mut z = Vec::with_capacity(card);
        while z.len() < card {
            let len = match rng.gen_range(0..3) {
                0 => 1,
                1 => rng.gen_range(1..20),
                _ => rng.gen_range(1..=card),
            };
            let v = palette[rng.gen_range(0..palette.len())];
            z.resize(z.len() + len.min(card - z.len()), v);
        }
        z
    }

    proptest! {
        #[test]
        fn policy_oracle_add_repeated_matches_the_naive_loop(
            seed in any::<u64>(),
            k in 0usize..70_000,
        ) {
            let (s, e) = operands(&mut seeded_rng(seed));
            prop_assert_eq!(
                add_repeated(s, e, k).to_bits(),
                naive_add(s, e, k).to_bits(),
                "s {:e} e {:e} k {}", s, e, k
            );
        }

        #[test]
        fn policy_oracle_run_length_sample_matches_sample_categorical(
            seed in any::<u64>(),
            card in 1usize..70_000,
        ) {
            let mut rng = seeded_rng(seed);
            let mut policy = tabular_with(&[run_logits(&mut rng, card)]);
            policy.evaluate(&[]);
            let dense = policy.head(0);
            for _ in 0..8 {
                let mut same = rng.clone();
                let want = reference::sample_categorical(&dense, &mut same);
                prop_assert_eq!(policy.heads[0].sample(&mut rng), want);
            }
        }

        #[test]
        fn policy_oracle_random_run_heads_match_the_reference(
            seed in any::<u64>(),
            heads in 1usize..4,
        ) {
            let mut rng = seeded_rng(seed);
            let cards: Vec<usize> = (0..heads).map(|_| rng.gen_range(1..300)).collect();
            let logits: Vec<Vec<f64>> = cards.iter().map(|&c| run_logits(&mut rng, c)).collect();
            let steps: Vec<(Vec<usize>, f64)> = (0..rng.gen_range(1..12))
                .map(|_| {
                    let genes = cards.iter().map(|&c| rng.gen_range(0..c)).collect();
                    let scale = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(-3.0..3.0) };
                    (genes, scale)
                })
                .collect();
            let entropy_coef = if rng.gen_bool(0.3) { 0.0 } else { rng.gen_range(0.0..0.1) };
            check_tabular(&logits, &steps, rng.gen_range(0.01..1.0), entropy_coef);
        }
    }

    #[test]
    fn policy_oracle_matches_the_reference_on_a_65536_value_head() {
        // FARSI's unrolling head next to narrow ones, over 160 PPO-like
        // steps: choices revisit earlier ones, as epochs over a horizon
        // do, and scale is 0 (clipped) a quarter of the time.
        let cards = [65_536, 8, 3, 1];
        let heads: Vec<Vec<f64>> = cards.iter().map(|&c| vec![0.0; c]).collect();
        let mut rng = seeded_rng(65_536);
        let mut seen: Vec<Vec<usize>> = Vec::new();
        let steps: Vec<(Vec<usize>, f64)> = (0..160)
            .map(|_| {
                let genes = match seen.len() {
                    n if n > 0 && rng.gen_bool(0.5) => seen[rng.gen_range(0..n)].clone(),
                    _ => cards.iter().map(|&c| rng.gen_range(0..c)).collect(),
                };
                seen.push(genes.clone());
                let scale = if rng.gen_bool(0.25) {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                };
                (genes, scale)
            })
            .collect();
        check_tabular(&heads, &steps, 0.1, 0.01);
    }
}

/// The textbook per-value softmax, entropy, sampling and policy
/// gradient: the run-length policy's bit-for-bit oracle.
#[cfg(test)]
mod reference {
    use rand::Rng;

    /// Draw an index: `u -= p` in order from `u ∈ [0, 1)` until `u ≤ 0`.
    pub(super) fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
        assert!(!probs.is_empty(), "empty distribution");
        let mut u: f64 = rng.gen();
        for (i, &p) in probs.iter().enumerate() {
            u -= p;
            if u <= 0.0 {
                return i;
            }
        }
        probs.len() - 1
    }

    pub(super) fn softmax(logits: &[f64]) -> Vec<f64> {
        let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&z| (z - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }

    pub(super) fn entropy(probs: &[f64]) -> f64 {
        -probs
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| p * p.ln())
            .sum::<f64>()
    }

    pub(super) fn log_prob(dists: &[Vec<f64>], genes: &[usize]) -> f64 {
        dists
            .iter()
            .zip(genes)
            .map(|(p, &g)| p[g].max(1e-12).ln())
            .sum()
    }

    /// `scale · ∇ln π(genes) + entropy_coef · ∇H` per logit, per head.
    pub(super) fn gradient(
        dists: &[Vec<f64>],
        genes: &[usize],
        scale: f64,
        entropy_coef: f64,
    ) -> Vec<Vec<f64>> {
        dists
            .iter()
            .enumerate()
            .map(|(d, probs)| {
                let h = entropy(probs);
                let chosen = genes[d];
                probs
                    .iter()
                    .enumerate()
                    .map(|(v, &p)| {
                        let grad_logp = f64::from(v == chosen) - p;
                        let grad_h = -p * (p.max(1e-12).ln() + h);
                        scale * grad_logp + entropy_coef * grad_h
                    })
                    .collect()
            })
            .collect()
    }
}
