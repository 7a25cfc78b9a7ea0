//! REINFORCE policy-gradient reinforcement learning.
//!
//! Architecture DSE is a one-shot (contextual-bandit-like) decision, so
//! the policy is a **factored categorical** distribution: one softmax per
//! design-space dimension. Two parameterizations are provided:
//!
//! * [`PolicyKind::Tabular`] — raw logits per dimension, plain gradient
//!   ascent. Small, fast, and surprisingly strong.
//! * [`PolicyKind::Mlp`] — a small neural network (the paper's Fig. 2
//!   "NN policy") mapping a context vector — the normalized best design
//!   found so far — to all logits, trained with Adam.
//!
//! Rewards are standardized online (Welford) before computing advantages,
//! which tames the enormous dynamic range of target-ratio rewards. An
//! entropy bonus keeps exploration alive (Q3); its coefficient, the
//! learning rate and the network width are the lottery's sweep axes.

use crate::nn::CategoricalPolicy;
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::env::StepResult;
use archgym_core::error::{ArchGymError, Result};
use archgym_core::seeded_rng;
use archgym_core::space::{Action, ParamSpace};
use rand::rngs::StdRng;

/// Policy parameterization for [`Reinforce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Independent learnable logits per dimension.
    Tabular,
    /// A multilayer perceptron producing all logits from a context vector.
    Mlp {
        /// Hidden layer width.
        hidden: usize,
    },
}

impl PolicyKind {
    /// Parse from the sweep-grid spelling (`"tabular"` or `"mlp"`).
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::InvalidHyper`] for unknown names.
    pub fn parse(name: &str, hidden: usize) -> Result<Self> {
        match name {
            "tabular" => Ok(PolicyKind::Tabular),
            "mlp" => Ok(PolicyKind::Mlp { hidden }),
            other => Err(ArchGymError::InvalidHyper(format!(
                "unknown policy `{other}` (expected tabular|mlp)"
            ))),
        }
    }
}

/// Online mean/variance tracker (Welford) for reward standardization.
#[derive(Debug, Clone, Default)]
struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    fn update(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    fn std(&self) -> f64 {
        if self.count < 2 {
            1.0
        } else {
            (self.m2 / self.count as f64).sqrt().max(1e-8)
        }
    }
}

/// REINFORCE policy-gradient agent.
#[derive(Debug)]
pub struct Reinforce {
    space: ParamSpace,
    rng: StdRng,
    policy: CategoricalPolicy,
    kind: PolicyKind,
    lr: f64,
    entropy_coef: f64,
    stats: RunningStats,
    context: Vec<f64>,
    best_reward: f64,
}

impl Reinforce {
    /// Construct with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0` or `entropy_coef < 0`.
    pub fn new(space: ParamSpace, kind: PolicyKind, lr: f64, entropy_coef: f64, seed: u64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(
            entropy_coef >= 0.0,
            "entropy coefficient must be non-negative"
        );
        let cards = space.cardinalities();
        let mut rng = seeded_rng(seed);
        let policy = match kind {
            PolicyKind::Tabular => CategoricalPolicy::tabular(&cards),
            PolicyKind::Mlp { hidden } => CategoricalPolicy::mlp(&cards, hidden, &mut rng),
        };
        let context = vec![0.5; cards.len()];
        Reinforce {
            space,
            rng,
            policy,
            kind,
            lr,
            entropy_coef,
            stats: RunningStats::default(),
            context,
            best_reward: f64::NEG_INFINITY,
        }
    }

    /// Sensible defaults: tabular policy, lr 0.08, entropy 0.02.
    pub fn with_defaults(space: ParamSpace, seed: u64) -> Self {
        Reinforce::new(space, PolicyKind::Tabular, 0.08, 0.02, seed)
    }

    /// Build from a hyperparameter map. Recognized keys (all optional):
    /// `lr` (float), `entropy_coef` (float), `policy`
    /// (`"tabular"|"mlp"`), `hidden` (int, MLP width).
    ///
    /// # Errors
    ///
    /// Returns an error when a present key has the wrong type or an
    /// unknown policy name.
    pub fn from_hyper(space: ParamSpace, hyper: &HyperMap, seed: u64) -> Result<Self> {
        let hidden = hyper.int_or("hidden", 32)? as usize;
        Ok(Reinforce::new(
            space,
            PolicyKind::parse(hyper.text_or("policy", "tabular")?, hidden)?,
            hyper.float_or("lr", 0.08)?,
            hyper.float_or("entropy_coef", 0.02)?,
            seed,
        ))
    }

    /// The policy parameterization in use.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }
}

impl Agent for Reinforce {
    fn name(&self) -> &str {
        "rl"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        // The policy only changes in `observe`: one evaluation serves
        // the whole batch.
        self.policy.evaluate(&self.context);
        (0..max_batch.max(1))
            .map(|_| Action::new(self.policy.sample(&mut self.rng)))
            .collect()
    }

    fn observe(&mut self, results: &[(Action, StepResult)]) {
        for (_, result) in results {
            self.stats.update(result.reward);
        }
        let mean = self.stats.mean;
        let std = self.stats.std();
        for (action, result) in results {
            let advantage = (result.reward - mean) / std;
            if result.reward > self.best_reward {
                self.best_reward = result.reward;
                self.context = self.space.normalize(action);
            }
            self.policy.evaluate(&self.context);
            self.policy
                .ascend(action.as_slice(), advantage, self.lr, self.entropy_coef);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use archgym_core::env::{Environment, Observation};
    use archgym_core::search::{RunConfig, SearchLoop};
    use archgym_core::toy::PeakEnv;

    /// Head 0's probabilities and entropy under the current policy.
    fn head0(rl: &mut Reinforce) -> (Vec<f64>, f64) {
        rl.policy.evaluate(&rl.context);
        (rl.policy.head(0).to_vec(), rl.policy.entropy(0))
    }

    fn space(cards: &[usize]) -> ParamSpace {
        let mut b = ParamSpace::builder();
        for (i, &c) in cards.iter().enumerate() {
            b = b.int(&format!("p{i}"), 0, c as i64 - 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn running_stats_match_batch_statistics() {
        let mut rs = RunningStats::default();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            rs.update(x);
        }
        assert!((rs.mean - 5.0).abs() < 1e-12);
        assert!((rs.std() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn proposals_are_valid() {
        for kind in [PolicyKind::Tabular, PolicyKind::Mlp { hidden: 16 }] {
            let s = space(&[4, 7, 2]);
            let mut rl = Reinforce::new(s.clone(), kind, 0.1, 0.01, 1);
            for a in rl.propose(8) {
                s.validate(&a).unwrap();
            }
        }
    }

    #[test]
    fn tabular_policy_concentrates_on_rewarded_action() {
        let s = space(&[6]);
        let mut rl = Reinforce::new(s, PolicyKind::Tabular, 0.2, 0.0, 2);
        for _ in 0..60 {
            let batch = rl.propose(8);
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| {
                    let r = f64::from(a.index(0) == 3);
                    (a, StepResult::terminal(Observation::new(vec![r]), r))
                })
                .collect();
            rl.observe(&results);
        }
        let (probs, _) = head0(&mut rl);
        assert!(probs[3] > 0.7, "policy failed to concentrate: {probs:?}");
    }

    #[test]
    fn mlp_policy_learns_the_same_bandit() {
        let s = space(&[5]);
        let mut rl = Reinforce::new(s, PolicyKind::Mlp { hidden: 16 }, 0.05, 0.0, 3);
        for _ in 0..120 {
            let batch = rl.propose(8);
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| {
                    let r = f64::from(a.index(0) == 2);
                    (a, StepResult::terminal(Observation::new(vec![r]), r))
                })
                .collect();
            rl.observe(&results);
        }
        let (probs, _) = head0(&mut rl);
        assert!(probs[2] > 0.5, "MLP policy probs: {probs:?}");
    }

    #[test]
    fn rl_is_sample_hungry_but_converges_with_budget() {
        // The Fig. 7 story: poor at tiny budgets, strong at large ones.
        let run = |budget: u64| {
            let mut env = PeakEnv::new(&[10, 10], vec![7, 2]);
            let mut rl = Reinforce::with_defaults(env.space().clone(), 11);
            SearchLoop::new(RunConfig::with_budget(budget).batch(16))
                .run(&mut rl, &mut env)
                .best_reward
        };
        let large = run(3000);
        assert!(large > 0.45, "large-budget RL reward {large}");
    }

    #[test]
    fn entropy_bonus_keeps_distribution_broader() {
        let train = |coef: f64| {
            let s = space(&[6]);
            let mut rl = Reinforce::new(s, PolicyKind::Tabular, 0.2, coef, 5);
            for _ in 0..40 {
                let batch = rl.propose(8);
                let results: Vec<(Action, StepResult)> = batch
                    .into_iter()
                    .map(|a| {
                        let r = f64::from(a.index(0) == 0);
                        (a, StepResult::terminal(Observation::new(vec![r]), r))
                    })
                    .collect();
                rl.observe(&results);
            }
            head0(&mut rl).1
        };
        assert!(train(0.5) > train(0.0), "entropy bonus had no effect");
    }

    #[test]
    fn higher_learning_rate_concentrates_the_policy_faster() {
        let final_entropy = |lr: f64| {
            let s = space(&[8]);
            let mut rl = Reinforce::new(s, PolicyKind::Tabular, lr, 0.0, 9);
            for _ in 0..25 {
                let batch = rl.propose(8);
                let results: Vec<(Action, StepResult)> = batch
                    .into_iter()
                    .map(|a| {
                        let r = f64::from(a.index(0) == 5);
                        (a, StepResult::terminal(Observation::new(vec![r]), r))
                    })
                    .collect();
                rl.observe(&results);
            }
            head0(&mut rl).1
        };
        let fast = final_entropy(0.3);
        let slow = final_entropy(0.005);
        assert!(
            fast < slow,
            "lr=0.3 entropy {fast} should be below lr=0.005 entropy {slow}"
        );
    }

    #[test]
    fn from_hyper_parses_policy_kinds() {
        let s = space(&[3]);
        let tab = Reinforce::from_hyper(s.clone(), &HyperMap::new().with("policy", "tabular"), 0)
            .unwrap();
        assert_eq!(tab.kind(), PolicyKind::Tabular);
        let mlp = Reinforce::from_hyper(
            s.clone(),
            &HyperMap::new().with("policy", "mlp").with("hidden", 8i64),
            0,
        )
        .unwrap();
        assert_eq!(mlp.kind(), PolicyKind::Mlp { hidden: 8 });
        assert!(Reinforce::from_hyper(s, &HyperMap::new().with("policy", "dqn"), 0).is_err());
    }
}
