//! Proximal policy optimization (clipped surrogate) for one-shot DSE.
//!
//! The paper lists PPO among the RL formulations an architecture
//! gymnasium must be able to host (Section 1 cites PPO/SAC/DQN/DDPG).
//! This is a faithful single-step adaptation: episodes are one decision
//! long, so the value function collapses to a learned scalar baseline and
//! the advantage is the standardized reward minus that baseline. The
//! PPO machinery that still matters — and that distinguishes it from the
//! plain REINFORCE agent — is the **clipped importance ratio**: each
//! collected horizon is reused for several optimization epochs without
//! the policy running away from the data that produced it.
//!
//! The policy is the same factored categorical used by [`Reinforce`]:
//! independent softmax heads per design-space dimension, parameterized
//! tabularly or by a small MLP.
//!
//! [`Reinforce`]: crate::rl::Reinforce

use crate::nn::CategoricalPolicy;
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::env::StepResult;
use archgym_core::error::Result;
use archgym_core::seeded_rng;
use archgym_core::space::{Action, ParamSpace};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use std::collections::VecDeque;

#[derive(Debug, Clone)]
struct Sample {
    genes: Vec<usize>,
    logp_old: f64,
    reward: f64,
}

/// PPO agent with a clipped surrogate objective.
#[derive(Debug)]
pub struct Ppo {
    rng: StdRng,
    policy: CategoricalPolicy,
    lr: f64,
    clip: f64,
    epochs: usize,
    horizon: usize,
    entropy_coef: f64,
    /// Learned scalar baseline (the degenerate value function).
    baseline: f64,
    /// log-probs recorded at proposal time, consumed in arrival order.
    pending_logp: VecDeque<(Vec<usize>, f64)>,
    buffer: Vec<Sample>,
    context: Vec<f64>,
    best_reward: f64,
    reward_mean: f64,
    reward_var: f64,
    reward_count: u64,
}

impl Ppo {
    /// Construct with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `lr`, `clip`, `epochs` or `horizon`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        space: ParamSpace,
        use_mlp: bool,
        hidden: usize,
        lr: f64,
        clip: f64,
        epochs: usize,
        horizon: usize,
        entropy_coef: f64,
        seed: u64,
    ) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(clip > 0.0, "clip range must be positive");
        assert!(epochs > 0, "need at least one epoch");
        assert!(horizon > 0, "need a positive horizon");
        assert!(
            entropy_coef >= 0.0,
            "entropy coefficient must be non-negative"
        );
        let cards = space.cardinalities();
        let mut rng = seeded_rng(seed);
        let policy = if use_mlp {
            CategoricalPolicy::mlp(&cards, hidden, &mut rng)
        } else {
            CategoricalPolicy::tabular(&cards)
        };
        let context = vec![0.5; cards.len()];
        Ppo {
            rng,
            policy,
            lr,
            clip,
            epochs,
            horizon,
            entropy_coef,
            baseline: 0.0,
            pending_logp: VecDeque::new(),
            buffer: Vec::new(),
            context,
            best_reward: f64::NEG_INFINITY,
            reward_mean: 0.0,
            reward_var: 1.0,
            reward_count: 0,
        }
    }

    /// Sensible defaults: tabular policy, lr 0.1, clip 0.2, 4 epochs over
    /// a 64-sample horizon.
    pub fn with_defaults(space: ParamSpace, seed: u64) -> Self {
        Ppo::new(space, false, 32, 0.1, 0.2, 4, 64, 0.01, seed)
    }

    /// Build from a hyperparameter map. Recognized keys (all optional):
    /// `lr`, `clip`, `epochs` (int), `horizon` (int), `entropy_coef`,
    /// `policy` (`"tabular"|"mlp"`), `hidden` (int).
    ///
    /// # Errors
    ///
    /// Returns an error when a present key has the wrong type or value.
    pub fn from_hyper(space: ParamSpace, hyper: &HyperMap, seed: u64) -> Result<Self> {
        let policy_name = hyper.text_or("policy", "tabular")?;
        let use_mlp = match policy_name {
            "tabular" => false,
            "mlp" => true,
            other => {
                return Err(archgym_core::ArchGymError::InvalidHyper(format!(
                    "unknown policy `{other}` (expected tabular|mlp)"
                )))
            }
        };
        Ok(Ppo::new(
            space,
            use_mlp,
            hyper.int_or("hidden", 32)? as usize,
            hyper.float_or("lr", 0.1)?,
            hyper.float_or("clip", 0.2)?,
            hyper.int_or("epochs", 4)? as usize,
            hyper.int_or("horizon", 64)? as usize,
            hyper.float_or("entropy_coef", 0.01)?,
            seed,
        ))
    }

    /// Current per-dimension policy distributions (diagnostic).
    pub fn policy_distributions(&mut self) -> Vec<Vec<f64>> {
        self.policy.evaluate(&self.context);
        self.policy.distributions()
    }

    fn standardize(&self, reward: f64) -> f64 {
        (reward - self.reward_mean) / self.reward_var.sqrt().max(1e-8)
    }

    fn update(&mut self) {
        let buffer = std::mem::take(&mut self.buffer);
        // Advantages: standardized reward minus the learned baseline.
        let advantages: Vec<f64> = buffer
            .iter()
            .map(|s| self.standardize(s.reward) - self.baseline)
            .collect();
        let mut order: Vec<usize> = (0..buffer.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut self.rng);
            for &i in &order {
                let sample = &buffer[i];
                let advantage = advantages[i];
                self.policy.evaluate(&self.context);
                let logp_new = self.policy.log_prob(&sample.genes);
                let ratio = (logp_new - sample.logp_old).exp();
                // Clipped surrogate: zero gradient when the ratio has
                // left the trust region in the advantage's direction.
                let inside = if advantage >= 0.0 {
                    ratio <= 1.0 + self.clip
                } else {
                    ratio >= 1.0 - self.clip
                };
                let scale = if inside { ratio * advantage } else { 0.0 };
                self.policy
                    .ascend(&sample.genes, scale, self.lr, self.entropy_coef);
            }
        }
        // Value (baseline) regression toward the batch's standardized
        // mean return.
        let target = buffer
            .iter()
            .map(|s| self.standardize(s.reward))
            .sum::<f64>()
            / buffer.len() as f64;
        self.baseline += 0.5 * (target - self.baseline);
    }
}

impl Agent for Ppo {
    fn name(&self) -> &str {
        "ppo"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        // The policy only changes in `update`: one evaluation serves the
        // whole batch.
        self.policy.evaluate(&self.context);
        let n = max_batch.max(1);
        let mut batch = Vec::with_capacity(n);
        for _ in 0..n {
            let genes = self.policy.sample(&mut self.rng);
            let logp = self.policy.log_prob(&genes);
            self.pending_logp.push_back((genes.clone(), logp));
            batch.push(Action::new(genes));
        }
        batch
    }

    fn observe(&mut self, results: &[(Action, StepResult)]) {
        for (action, result) in results {
            // Welford running stats for reward standardization.
            self.reward_count += 1;
            let delta = result.reward - self.reward_mean;
            self.reward_mean += delta / self.reward_count as f64;
            self.reward_var += (delta * (result.reward - self.reward_mean) - self.reward_var)
                / self.reward_count as f64;

            if result.reward > self.best_reward {
                self.best_reward = result.reward;
            }
            // Recover the proposal-time log-prob (driver preserves order;
            // unmatched actions — e.g. replayed externally — fall back to
            // the current policy's log-prob).
            let logp_old = match self.pending_logp.pop_front() {
                Some((genes, logp)) if genes == action.as_slice() => logp,
                _ => {
                    self.policy.evaluate(&self.context);
                    self.policy.log_prob(action.as_slice())
                }
            };
            self.buffer.push(Sample {
                genes: action.as_slice().to_vec(),
                logp_old,
                reward: result.reward,
            });
        }
        if self.buffer.len() >= self.horizon {
            self.update();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::env::{Environment, Observation};
    use archgym_core::search::{RunConfig, SearchLoop};
    use archgym_core::toy::PeakEnv;

    fn space(cards: &[usize]) -> ParamSpace {
        let mut b = ParamSpace::builder();
        for (i, &c) in cards.iter().enumerate() {
            b = b.int(&format!("p{i}"), 0, c as i64 - 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn proposals_are_valid_for_both_policies() {
        for use_mlp in [false, true] {
            let s = space(&[4, 6, 3]);
            let mut ppo = Ppo::new(s.clone(), use_mlp, 16, 0.1, 0.2, 2, 16, 0.01, 1);
            for a in ppo.propose(8) {
                s.validate(&a).unwrap();
            }
        }
    }

    #[test]
    fn ppo_concentrates_on_the_rewarded_arm() {
        let s = space(&[6]);
        let mut ppo = Ppo::new(s, false, 16, 0.3, 0.2, 4, 16, 0.0, 2);
        for _ in 0..40 {
            let batch = ppo.propose(16);
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| {
                    let r = f64::from(a.index(0) == 4);
                    (a, StepResult::terminal(Observation::new(vec![r]), r))
                })
                .collect();
            ppo.observe(&results);
        }
        let probs = ppo.policy_distributions().remove(0);
        assert!(probs[4] > 0.6, "PPO failed to concentrate: {probs:?}");
    }

    #[test]
    fn ppo_solves_the_peak_with_budget() {
        let mut env = PeakEnv::new(&[12, 12], vec![9, 2]);
        let mut ppo = Ppo::with_defaults(env.space().clone(), 5);
        let result =
            SearchLoop::new(RunConfig::with_budget(2_500).batch(16)).run(&mut ppo, &mut env);
        assert!(
            result.best_reward > 0.45,
            "PPO best reward {} too low",
            result.best_reward
        );
    }

    #[test]
    fn clipping_bounds_the_per_epoch_policy_shift() {
        // With an absurd learning rate, an unclipped REINFORCE-style
        // update would immediately saturate the softmax; PPO's clip keeps
        // later epochs from compounding the shift on the same batch.
        let s = space(&[8]);
        let mut ppo = Ppo::new(s, false, 16, 2.0, 0.1, 8, 16, 0.0, 3);
        let batch = ppo.propose(16);
        let results: Vec<(Action, StepResult)> = batch
            .into_iter()
            .map(|a| {
                let r = f64::from(a.index(0) == 0) * 10.0;
                (a, StepResult::terminal(Observation::new(vec![r]), r))
            })
            .collect();
        ppo.observe(&results);
        let probs = ppo.policy_distributions().remove(0);
        let max_p = probs.iter().copied().fold(0.0f64, f64::max);
        assert!(
            max_p < 0.999,
            "policy saturated despite clipping: {probs:?}"
        );
        assert!(ppo.policy.entropy(0) > 0.01);
    }

    #[test]
    fn from_hyper_round_trips() {
        let s = space(&[4]);
        let ppo = Ppo::from_hyper(
            s.clone(),
            &HyperMap::new()
                .with("lr", 0.05)
                .with("clip", 0.3)
                .with("epochs", 2i64)
                .with("horizon", 32i64)
                .with("policy", "mlp")
                .with("hidden", 8i64),
            0,
        )
        .unwrap();
        assert_eq!(ppo.clip, 0.3);
        assert_eq!(ppo.epochs, 2);
        assert_eq!(ppo.horizon, 32);
        assert!(ppo.policy.is_mlp());
        assert!(Ppo::from_hyper(s, &HyperMap::new().with("policy", "sac"), 0).is_err());
    }

    #[test]
    #[should_panic(expected = "clip range must be positive")]
    fn rejects_bad_clip() {
        let _ = Ppo::new(space(&[3]), false, 8, 0.1, 0.0, 1, 8, 0.0, 0);
    }

    #[test]
    fn unmatched_replayed_actions_do_not_panic() {
        let s = space(&[5]);
        let mut ppo = Ppo::with_defaults(s, 7);
        // Observe an action PPO never proposed.
        let foreign = Action::new(vec![3]);
        let result = StepResult::terminal(Observation::new(vec![1.0]), 1.0);
        ppo.observe(&[(foreign, result)]);
        assert_eq!(ppo.buffer.len(), 1);
    }
}
