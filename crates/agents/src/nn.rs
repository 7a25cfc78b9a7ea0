//! The RL agents' policy: a factored categorical over the design space
//! whose logits are either learned directly or produced by a tiny
//! multilayer perceptron trained with Adam.
//!
//! The paper's RL agent carries a neural-network policy (Fig. 2). This
//! module implements just enough of one: dense layers with tanh
//! activations, manual backpropagation, and the Adam optimizer. No
//! autograd, no BLAS — design spaces here have tens of dimensions, so a
//! few thousand parameters suffice. `CategoricalPolicy` holds the
//! softmax heads and the one policy-gradient step REINFORCE and PPO
//! share.

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

/// Sample an index from a probability distribution.
///
/// # Panics
///
/// Panics if `probs` is empty.
pub fn sample_categorical<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
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

/// Where a [`CategoricalPolicy`] gets its logits from.
#[derive(Debug)]
enum Logits {
    /// Learnable logits in one lane over all heads, plus each head's
    /// maximum, which every [`CategoricalPolicy::ascend`] keeps current.
    Tabular { logits: Vec<f64>, maxes: Vec<f64> },
    /// A network mapping `context ++ [1]` to every head's logits.
    Mlp(Mlp),
}

/// A factored categorical policy: one softmax head per design-space
/// dimension, as used by the REINFORCE and PPO agents.
///
/// [`evaluate`](Self::evaluate) turns the logits into probabilities in a
/// single lane over all heads, plus one entropy per head; sampling,
/// log-probabilities and [`ascend`](Self::ascend) read that lane until
/// the next `evaluate`.
///
/// A tabular value that was never sampled receives exactly the update
/// every other unsampled value of its head receives, so such values keep
/// bitwise-equal logits and probabilities. Each pass therefore reuses the
/// previous element's result when its input bits repeat: `exp`, then `/`
/// and `p·ln p`, then the whole logit update. FARSI's 65,536-value head
/// costs a handful of transcendental calls per step; only the in-order
/// sums still visit every value. The results are bit-identical to the
/// textbook loops (kept as the test oracle): same operation order and
/// the same `-0.0` start as `Iterator::sum`.
#[derive(Debug)]
pub(crate) struct CategoricalPolicy {
    /// `offsets[d]..offsets[d + 1]` is head `d`'s range in every lane.
    offsets: Vec<usize>,
    logits: Logits,
    probs: Vec<f64>,
    entropy: Vec<f64>,
}

impl CategoricalPolicy {
    fn with_logits(cards: &[usize], logits: Logits) -> Self {
        let mut offsets = vec![0];
        offsets.extend(cards.iter().scan(0, |end, &c| {
            *end += c;
            Some(*end)
        }));
        let total = offsets[cards.len()];
        CategoricalPolicy {
            offsets,
            logits,
            probs: vec![0.0; total],
            entropy: vec![0.0; cards.len()],
        }
    }

    /// Zero-initialized learnable logits: every head starts uniform,
    /// with maximum 0.
    pub(crate) fn tabular(cards: &[usize]) -> Self {
        let logits = Logits::Tabular {
            logits: vec![0.0; cards.iter().sum()],
            maxes: vec![0.0; cards.len()],
        };
        Self::with_logits(cards, logits)
    }

    /// An MLP policy `[heads + 1, hidden, Σ cards]` drawing its initial
    /// weights from `rng`.
    pub(crate) fn mlp<R: Rng + ?Sized>(cards: &[usize], hidden: usize, rng: &mut R) -> Self {
        let total = cards.iter().sum();
        let mlp = Mlp::new(&[cards.len() + 1, hidden, total], rng);
        Self::with_logits(cards, Logits::Mlp(mlp))
    }

    /// Whether the logits come from an MLP.
    #[cfg(test)]
    pub(crate) fn is_mlp(&self) -> bool {
        matches!(self.logits, Logits::Mlp(_))
    }

    /// Recompute every head's probabilities and entropy. `context` is the
    /// MLP's input (without the bias term); the tabular policy ignores it.
    pub(crate) fn evaluate(&mut self, context: &[f64]) {
        let CategoricalPolicy {
            offsets,
            logits,
            probs,
            entropy,
        } = self;
        match logits {
            Logits::Tabular { logits, maxes } => {
                for (d, r) in offsets.windows(2).enumerate() {
                    let range = r[0]..r[1];
                    entropy[d] = softmax_head(&logits[range.clone()], maxes[d], &mut probs[range]);
                }
            }
            Logits::Mlp(mlp) => {
                let mut x = context.to_vec();
                x.push(1.0);
                let flat = mlp.forward(&x);
                for (d, r) in offsets.windows(2).enumerate() {
                    let z = &flat[r[0]..r[1]];
                    entropy[d] = softmax_head(z, head_max(z), &mut probs[r[0]..r[1]]);
                }
            }
        }
    }

    /// Head `d`'s probabilities from the last [`evaluate`](Self::evaluate).
    pub(crate) fn head(&self, d: usize) -> &[f64] {
        &self.probs[self.offsets[d]..self.offsets[d + 1]]
    }

    /// Head `d`'s entropy (natural log) from the last `evaluate`.
    #[cfg(test)]
    pub(crate) fn entropy(&self, d: usize) -> f64 {
        self.entropy[d]
    }

    /// Every head's probabilities from the last `evaluate`, copied out.
    pub(crate) fn distributions(&self) -> Vec<Vec<f64>> {
        (0..self.entropy.len())
            .map(|d| self.head(d).to_vec())
            .collect()
    }

    /// Draw one value per head, heads in order.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<usize> {
        (0..self.entropy.len())
            .map(|d| sample_categorical(self.head(d), rng))
            .collect()
    }

    /// `Σ_d ln(max(p_d[genes[d]], 1e-12))` under the last `evaluate`.
    pub(crate) fn log_prob(&self, genes: &[usize]) -> f64 {
        (0..self.entropy.len())
            .zip(genes)
            .map(|(d, &g)| self.head(d)[g].max(1e-12).ln())
            .sum()
    }

    /// One ascent step on `scale · log π(genes) + entropy_coef · Σ H`,
    /// using the probabilities of the last `evaluate` (and, for the MLP,
    /// the activations its forward pass cached): tabular logits move by
    /// `lr ×` their [`logit_gradient`]; the MLP backpropagates the same
    /// gradient and takes one Adam step of size `lr`.
    pub(crate) fn ascend(&mut self, genes: &[usize], scale: f64, lr: f64, entropy_coef: f64) {
        let CategoricalPolicy {
            offsets,
            logits,
            probs,
            entropy,
        } = self;
        match logits {
            Logits::Tabular { logits, maxes } => {
                for (d, r) in offsets.windows(2).enumerate() {
                    let z = &mut logits[r[0]..r[1]];
                    let p = &probs[r[0]..r[1]];
                    maxes[d] = ascend_head(z, p, entropy[d], genes[d], lr, scale, entropy_coef);
                }
            }
            Logits::Mlp(mlp) => {
                let mut dlogits = vec![0.0; probs.len()];
                for (d, r) in offsets.windows(2).enumerate() {
                    let (h, chosen) = (entropy[d], genes[d]);
                    for (v, (out, &p)) in dlogits[r[0]..r[1]]
                        .iter_mut()
                        .zip(&probs[r[0]..r[1]])
                        .enumerate()
                    {
                        *out = logit_gradient(
                            v == chosen,
                            p,
                            p.max(1e-12).ln(),
                            h,
                            scale,
                            entropy_coef,
                        );
                    }
                }
                mlp.backward(&dlogits);
                mlp.step(lr);
            }
        }
    }
}

/// `fold(-∞, f64::max)` over a head's logits.
fn head_max(z: &[f64]) -> f64 {
    z.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Passes 1–2 over one head: `p = softmax(z)` given `max = head_max(z)`,
/// returning the head's entropy `-Σ_{p>0} p·ln p`. Each pass reuses the
/// previous element's result while its input bits repeat; the first
/// element always computes.
fn softmax_head(z: &[f64], max: f64, p: &mut [f64]) -> f64 {
    let Some(&first) = z.first() else {
        return 0.0;
    };
    // Pass 1: e = exp(z − max), summed in order.
    let (mut key, mut e) = (first.to_bits(), (first - max).exp());
    let mut sum = -0.0;
    for (slot, &zv) in p.iter_mut().zip(z) {
        if zv.to_bits() != key {
            (key, e) = (zv.to_bits(), (zv - max).exp());
        }
        *slot = e;
        sum += e;
    }
    // Pass 2: p = e / sum in place, plus the entropy terms of p > 0.
    let (mut key, mut q) = (p[0].to_bits(), p[0] / sum);
    let mut q_ln_q = q * q.ln();
    let mut acc = -0.0;
    for slot in p.iter_mut() {
        if slot.to_bits() != key {
            key = slot.to_bits();
            q = *slot / sum;
            q_ln_q = q * q.ln();
        }
        *slot = q;
        if q > 0.0 {
            acc += q_ln_q;
        }
    }
    -acc
}

/// Pass 3 over one tabular head: `z += lr × logit_gradient` for every
/// value, returning `head_max` of the updated logits. Within one step an
/// unchosen value's update depends only on its logit's bits (its
/// probability is a function of them), so a value whose bits repeat the
/// last computed unchosen one reuses that result; the first element
/// always computes.
fn ascend_head(
    z: &mut [f64],
    p: &[f64],
    h: f64,
    chosen: usize,
    lr: f64,
    scale: f64,
    entropy_coef: f64,
) -> f64 {
    let updated = |zv: f64, pv: f64, is_chosen: bool| {
        let ln_p = pv.max(1e-12).ln();
        zv + lr * logit_gradient(is_chosen, pv, ln_p, h, scale, entropy_coef)
    };
    let mut next_max = f64::NEG_INFINITY;
    // (logit bits, updated logit) of the last unchosen value computed;
    // its result is already folded into `next_max`.
    let mut memo: Option<(u64, f64)> = None;
    for (v, (zv, &pv)) in z.iter_mut().zip(p).enumerate() {
        let key = zv.to_bits();
        let new = match memo {
            _ if v == chosen => updated(*zv, pv, true),
            Some((k, new)) if k == key => {
                *zv = new;
                continue;
            }
            _ => {
                let new = updated(*zv, pv, false);
                memo = Some((key, new));
                new
            }
        };
        *zv = new;
        next_max = next_max.max(new);
    }
    next_max
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

    /// A tabular policy holding the given logits, one `Vec` per head.
    fn tabular_with(heads: &[Vec<f64>]) -> CategoricalPolicy {
        let cards: Vec<usize> = heads.iter().map(Vec::len).collect();
        let logits = Logits::Tabular {
            logits: heads.concat(),
            maxes: heads.iter().map(|z| head_max(z)).collect(),
        };
        CategoricalPolicy::with_logits(&cards, logits)
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
        let probs = [0.1, 0.8, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_categorical(&probs, &mut rng)] += 1;
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

    /// Bitwise equality, except that `0.0` and `-0.0` match: the two
    /// are interchangeable as a head's max, which `f64::max` may return
    /// either of when both occur.
    fn same_max(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || a == b
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

    /// Drive the tabular kernel and the reference loops through the same
    /// steps and require the same bits for probabilities, entropies,
    /// log-probabilities, updated logits and tracked maxima.
    fn check_tabular(heads: &[Vec<f64>], steps: &[(Vec<usize>, f64)], lr: f64, entropy_coef: f64) {
        let mut policy = tabular_with(heads);
        let mut oracle = heads.to_vec();
        for (step, (genes, scale)) in steps.iter().enumerate() {
            policy.evaluate(&[]);
            let dists: Vec<Vec<f64>> = oracle.iter().map(|z| reference::softmax(z)).collect();
            for (d, probs) in dists.iter().enumerate() {
                assert_bits(
                    policy.head(d),
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

            policy.ascend(genes, *scale, lr, entropy_coef);
            let grads = reference::gradient(&dists, genes, *scale, entropy_coef);
            for (z, g) in oracle.iter_mut().zip(&grads) {
                for (zv, gv) in z.iter_mut().zip(g) {
                    *zv += lr * gv;
                }
            }
            let Logits::Tabular { logits, maxes } = &policy.logits else {
                unreachable!("tabular policy")
            };
            assert_bits(logits, &oracle.concat(), &format!("step {step} logits"));
            for (d, z) in oracle.iter().enumerate() {
                assert!(same_max(maxes[d], head_max(z)), "step {step} max {d}");
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
        let Logits::Mlp(mlp) = &policy.logits else {
            unreachable!("mlp policy")
        };
        let mut oracle = mlp.clone();
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
                    policy.head(d),
                    probs,
                    &format!("step {step} probs head {d}"),
                );
            }
            policy.ascend(genes, *scale, 0.05, 0.01);
            oracle.backward(&reference::gradient(&dists, genes, *scale, 0.01).concat());
            oracle.step(0.05);
        }
    }
}

/// The textbook softmax, entropy and per-element policy gradient the
/// agents ran before [`CategoricalPolicy`]: the kernel's bit-for-bit
/// oracle.
#[cfg(test)]
mod reference {
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
