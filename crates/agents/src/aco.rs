//! Ant colony optimization over index-encoded design spaces.
//!
//! The policy is a per-dimension **pheromone table** (Fig. 2): each ant
//! constructs a design by sampling a value for every dimension with
//! probability proportional to `τ^α`, or greedily taking the strongest
//! pheromone with probability `q₀` (the exploration/exploitation knob of
//! the paper's Q3). After a batch is evaluated, pheromone evaporates at
//! rate `ρ` and ants deposit in proportion to their *relative* fitness
//! within the batch (rank-robust against the huge dynamic range of
//! target-ratio rewards); the best-so-far ant re-deposits elitistically.

use archgym_core::agent::{Agent, HyperMap};
use archgym_core::env::StepResult;
use archgym_core::error::Result;
use archgym_core::seeded_rng;
use archgym_core::space::{Action, ParamSpace};
use rand::rngs::StdRng;
use rand::Rng;

/// Ant colony optimization agent.
#[derive(Debug)]
pub struct AntColony {
    cards: Vec<usize>,
    rng: StdRng,
    num_ants: usize,
    evaporation: f64,
    alpha: f64,
    greediness: f64,
    deposit: f64,
    pheromone: Vec<Vec<f64>>,
    best: Option<(Vec<usize>, f64)>,
    /// Per-dimension sampling lanes, rebuilt once per `propose` (the
    /// pheromone only changes in `observe`) and reused across proposals.
    lanes: Vec<Lane>,
}

/// One dimension's `τ^α` weights and their total, plus the strongest
/// pheromone's index once a greedy ant has asked for it.
#[derive(Debug, Default)]
struct Lane {
    weights: Vec<f64>,
    total: f64,
    argmax: Option<usize>,
}

impl Lane {
    /// Rebuild from `tau`. Evaporation leaves every unvisited value with
    /// the same bits, so `powf` is computed only where the input bits
    /// change from the previous value's.
    fn rebuild(&mut self, tau: &[f64], alpha: f64) {
        self.weights.clear();
        let mut memo: Option<(u64, f64)> = None;
        for &t in tau {
            let w = match memo {
                Some((bits, w)) if bits == t.to_bits() => w,
                _ => t.powf(alpha),
            };
            memo = Some((t.to_bits(), w));
            self.weights.push(w);
        }
        self.total = self.weights.iter().sum();
        self.argmax = None;
    }
}

impl AntColony {
    /// Construct with explicit hyperparameters.
    ///
    /// # Panics
    ///
    /// Panics if `num_ants == 0`, `evaporation` or `greediness` lie outside
    /// `[0, 1]`, or `alpha < 0`.
    pub fn new(
        space: ParamSpace,
        num_ants: usize,
        evaporation: f64,
        alpha: f64,
        greediness: f64,
        deposit: f64,
        seed: u64,
    ) -> Self {
        assert!(num_ants > 0, "need at least one ant");
        assert!(
            (0.0..=1.0).contains(&evaporation),
            "evaporation out of range"
        );
        assert!((0.0..=1.0).contains(&greediness), "greediness out of range");
        assert!(alpha >= 0.0, "alpha must be non-negative");
        let cards = space.cardinalities();
        let pheromone = cards.iter().map(|&c| vec![1.0; c]).collect();
        AntColony {
            cards,
            rng: seeded_rng(seed),
            num_ants,
            evaporation,
            alpha,
            greediness,
            deposit,
            pheromone,
            best: None,
            lanes: Vec::new(),
        }
    }

    /// Sensible defaults: 16 ants, ρ = 0.1, α = 1, q₀ = 0.2.
    pub fn with_defaults(space: ParamSpace, seed: u64) -> Self {
        AntColony::new(space, 16, 0.1, 1.0, 0.2, 1.0, seed)
    }

    /// Build from a hyperparameter map. Recognized keys (all optional):
    /// `ants` (int), `evaporation` (float), `alpha` (float), `greediness`
    /// (float), `deposit` (float).
    ///
    /// # Errors
    ///
    /// Returns an error when a present key has the wrong type.
    pub fn from_hyper(space: ParamSpace, hyper: &HyperMap, seed: u64) -> Result<Self> {
        Ok(AntColony::new(
            space,
            hyper.int_or("ants", 16)? as usize,
            hyper.float_or("evaporation", 0.1)?,
            hyper.float_or("alpha", 1.0)?,
            hyper.float_or("greediness", 0.2)?,
            hyper.float_or("deposit", 1.0)?,
            seed,
        ))
    }

    /// The current pheromone table (dimension-major).
    pub fn pheromone(&self) -> &[Vec<f64>] {
        &self.pheromone
    }

    fn construct(&mut self) -> Vec<usize> {
        let mut genes = Vec::with_capacity(self.cards.len());
        for (lane, tau) in self.lanes.iter_mut().zip(&self.pheromone) {
            let v = if self.rng.gen_bool(self.greediness) {
                // Exploit: strongest pheromone (`max_by` keeps the last of
                // equal maxima).
                *lane.argmax.get_or_insert_with(|| {
                    tau.iter()
                        .enumerate()
                        .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN pheromone"))
                        .map(|(i, _)| i)
                        .expect("non-empty domain")
                })
            } else {
                // Explore: sample ∝ τ^α.
                let mut u = self.rng.gen::<f64>() * lane.total;
                let mut pick = lane.weights.len() - 1;
                for (i, w) in lane.weights.iter().enumerate() {
                    u -= w;
                    if u <= 0.0 {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            genes.push(v);
        }
        genes
    }

    fn deposit_on(&mut self, genes: &[usize], amount: f64) {
        for (d, &v) in genes.iter().enumerate() {
            self.pheromone[d][v] += amount;
        }
    }
}

impl Agent for AntColony {
    fn name(&self) -> &str {
        "aco"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        let n = self.num_ants.min(max_batch).max(1);
        self.lanes.resize_with(self.pheromone.len(), Lane::default);
        for (lane, tau) in self.lanes.iter_mut().zip(&self.pheromone) {
            lane.rebuild(tau, self.alpha);
        }
        (0..n).map(|_| Action::new(self.construct())).collect()
    }

    /// An ant colony's natural batch is its cohort of ants per
    /// iteration.
    fn batch_hint(&self) -> Option<usize> {
        Some(self.num_ants)
    }

    fn observe(&mut self, results: &[(Action, StepResult)]) {
        if results.is_empty() {
            return;
        }
        // Evaporate.
        for tau in &mut self.pheromone {
            for t in tau.iter_mut() {
                *t = (*t * (1.0 - self.evaporation)).max(1e-6);
            }
        }
        // Relative-fitness deposits (robust to reward scale).
        let rewards: Vec<f64> = results.iter().map(|(_, r)| r.reward).collect();
        let min = rewards.iter().copied().fold(f64::INFINITY, f64::min);
        let max = rewards.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let span = (max - min).max(f64::EPSILON);
        let deposit = self.deposit;
        for (action, result) in results {
            let rel = (result.reward - min) / span;
            let genes = action.as_slice().to_vec();
            self.deposit_on(&genes, deposit * rel);
            let better = self.best.as_ref().is_none_or(|(_, b)| result.reward > *b);
            if better {
                self.best = Some((genes, result.reward));
            }
        }
        // Elitist reinforcement of the best-so-far trail.
        if let Some((genes, _)) = self.best.clone() {
            self.deposit_on(&genes, deposit);
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
    fn proposals_are_valid() {
        let s = space(&[4, 9, 2]);
        let mut aco = AntColony::with_defaults(s.clone(), 1);
        for a in aco.propose(16) {
            s.validate(&a).unwrap();
        }
    }

    #[test]
    fn pheromone_concentrates_on_rewarded_values() {
        let s = space(&[8]);
        let mut aco = AntColony::new(s, 8, 0.2, 1.0, 0.0, 1.0, 2);
        // Reward value 5 repeatedly.
        for _ in 0..20 {
            let batch = aco.propose(8);
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| {
                    let r = f64::from(a.index(0) == 5);
                    let obs = Observation::new(vec![r]);
                    (a, StepResult::terminal(obs, r))
                })
                .collect();
            aco.observe(&results);
        }
        let tau = &aco.pheromone()[0];
        let best: usize = (0..8)
            .max_by(|&a, &b| tau[a].partial_cmp(&tau[b]).unwrap())
            .unwrap();
        assert_eq!(best, 5, "pheromone table {tau:?}");
        assert!(tau[5] > 2.0 * tau[0]);
    }

    #[test]
    fn aco_finds_peak() {
        let mut env = PeakEnv::new(&[12, 12, 12], vec![3, 10, 6]);
        let mut aco = AntColony::with_defaults(env.space().clone(), 7);
        let result = SearchLoop::new(RunConfig::with_budget(800).batch(16)).run(&mut aco, &mut env);
        assert!(
            result.best_reward > 0.45,
            "ACO best reward {} too low",
            result.best_reward
        );
    }

    #[test]
    fn full_greediness_repeats_the_argmax() {
        let s = space(&[5, 5]);
        let mut aco = AntColony::new(s, 4, 0.1, 1.0, 1.0, 1.0, 3);
        // With uniform pheromone every fully greedy ant picks the same
        // argmax, so the whole batch is identical.
        let batch = aco.propose(4);
        for a in &batch {
            assert_eq!(a, &batch[0]);
        }
    }

    #[test]
    fn evaporation_keeps_pheromone_positive() {
        let s = space(&[3]);
        let mut aco = AntColony::new(s, 2, 1.0, 1.0, 0.0, 0.0, 4);
        for _ in 0..50 {
            let batch = aco.propose(2);
            let results: Vec<(Action, StepResult)> = batch
                .into_iter()
                .map(|a| (a, StepResult::terminal(Observation::new(vec![0.0]), 0.0)))
                .collect();
            aco.observe(&results);
        }
        assert!(aco.pheromone()[0].iter().all(|&t| t > 0.0));
    }

    #[test]
    fn higher_alpha_exploits_pheromone_harder() {
        // α is ACO's Q3 knob: with stronger pheromone weighting the
        // colony's samples concentrate faster on the rewarded value.
        let run = |alpha: f64| {
            let s = space(&[10]);
            let mut aco = AntColony::new(s, 8, 0.1, alpha, 0.0, 1.0, 6);
            for _ in 0..15 {
                let batch = aco.propose(8);
                let results: Vec<(Action, StepResult)> = batch
                    .into_iter()
                    .map(|a| {
                        let r = f64::from(a.index(0) == 7);
                        (a, StepResult::terminal(Observation::new(vec![r]), r))
                    })
                    .collect();
                aco.observe(&results);
            }
            // Empirical hit rate of a fresh batch on the rewarded value.
            let batch = aco.propose(64);
            batch.iter().filter(|a| a.index(0) == 7).count()
        };
        let greedy = run(3.0);
        let flat = run(0.25);
        assert!(
            greedy > flat,
            "α=3 hit the target {greedy}/64, α=0.25 hit {flat}/64"
        );
    }

    #[test]
    fn from_hyper_and_validation() {
        let s = space(&[3]);
        let hyper = HyperMap::new()
            .with("ants", 5i64)
            .with("evaporation", 0.3)
            .with("greediness", 0.5);
        let aco = AntColony::from_hyper(s.clone(), &hyper, 0).unwrap();
        assert_eq!(aco.num_ants, 5);
        let bad = HyperMap::new().with("ants", "many");
        assert!(AntColony::from_hyper(s, &bad, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "evaporation out of range")]
    fn rejects_bad_evaporation() {
        let _ = AntColony::new(space(&[3]), 2, 1.5, 1.0, 0.0, 1.0, 0);
    }
}
