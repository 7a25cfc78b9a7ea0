//! The ArchGym agent trait and hyperparameter plumbing.
//!
//! An agent is "an encapsulation of the machine learning algorithm used for
//! search": a guiding **policy** plus **hyperparameters** (Section 3.2). All
//! agents answer the same three questions (the paper's Table 2):
//!
//! * **Q1** — how is a parameter (action) selected? → [`Agent::propose`].
//! * **Q2** — how is feedback used to refine the policy? → [`Agent::observe`].
//! * **Q3** — how is exploration balanced against exploitation? → the
//!   agent's hyperparameters, exposed at construction via [`HyperMap`].

use crate::env::StepResult;
use crate::error::{ArchGymError, Result};
use crate::space::{Action, ParamSpace};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A search agent, generic over any index-encoded [`ParamSpace`].
///
/// The driver loop alternates [`Agent::propose`] → environment evaluation →
/// [`Agent::observe`], exactly the information exchange of Section 4.
/// Population-based agents (GA, ACO) propose whole generations at once;
/// sequential agents (BO, RL, random walker) propose smaller batches.
pub trait Agent {
    /// A short, stable identifier, e.g. `"ga"`, `"bo"`, `"rl"`.
    fn name(&self) -> &str;

    /// Propose up to `max_batch` candidate designs according to the policy
    /// (Q1). Returning fewer than `max_batch` actions is allowed; returning
    /// an empty vector signals that the agent has converged and the driver
    /// should stop early.
    fn propose(&mut self, max_batch: usize) -> Vec<Action>;

    /// Digest the evaluated batch and refine the policy (Q2). `results` is
    /// parallel to the batch returned by the preceding `propose` call.
    fn observe(&mut self, results: &[(Action, StepResult)]);

    /// The agent's natural batch size, if it has one — a GA's population,
    /// an ACO's ant cohort. The search loop uses this when
    /// [`RunConfig::batch`](crate::search::RunConfig) is set to `0`
    /// (auto), so population agents evaluate whole generations at once
    /// (and an [`EnvPool`](crate::pool::EnvPool) can fan them out).
    /// Sequential agents return `None` and get the loop's default.
    fn batch_hint(&self) -> Option<usize> {
        None
    }
}

impl<A: Agent + ?Sized> Agent for Box<A> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        (**self).propose(max_batch)
    }
    fn observe(&mut self, results: &[(Action, StepResult)]) {
        (**self).observe(results)
    }
    fn batch_hint(&self) -> Option<usize> {
        (**self).batch_hint()
    }
}

/// A single hyperparameter value in a sweepable configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HyperValue {
    /// A real-valued hyperparameter (learning rate, mutation probability...).
    Float(f64),
    /// An integral hyperparameter (population size, number of ants...).
    Int(i64),
    /// A categorical hyperparameter (acquisition function, kernel...).
    Text(String),
    /// A boolean switch (use aging operator, ...).
    Bool(bool),
}

impl fmt::Display for HyperValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyperValue::Float(v) => write!(f, "{v}"),
            HyperValue::Int(v) => write!(f, "{v}"),
            HyperValue::Text(v) => write!(f, "{v}"),
            HyperValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<f64> for HyperValue {
    fn from(v: f64) -> Self {
        HyperValue::Float(v)
    }
}
impl From<i64> for HyperValue {
    fn from(v: i64) -> Self {
        HyperValue::Int(v)
    }
}
impl From<&str> for HyperValue {
    fn from(v: &str) -> Self {
        HyperValue::Text(v.to_owned())
    }
}
impl From<bool> for HyperValue {
    fn from(v: bool) -> Self {
        HyperValue::Bool(v)
    }
}

/// A string-keyed hyperparameter assignment, the unit the "hyperparameter
/// lottery" sweeps over. Typed accessors fail loudly on missing keys or
/// type mismatches so a sweep never silently falls back to defaults.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HyperMap {
    values: BTreeMap<String, HyperValue>,
}

impl HyperMap {
    /// An empty assignment.
    pub fn new() -> Self {
        HyperMap::default()
    }

    /// Insert a value, builder-style.
    pub fn with(mut self, key: &str, value: impl Into<HyperValue>) -> Self {
        self.values.insert(key.to_owned(), value.into());
        self
    }

    /// Insert a value in place.
    pub fn set(&mut self, key: &str, value: impl Into<HyperValue>) {
        self.values.insert(key.to_owned(), value.into());
    }

    /// Whether a key is present.
    pub fn contains(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    /// Raw access to a value.
    pub fn get(&self, key: &str) -> Option<&HyperValue> {
        self.values.get(key)
    }

    /// Fetch a float (accepting an int written where a float is expected).
    ///
    /// # Errors
    ///
    /// [`ArchGymError::InvalidHyper`] if the key is absent or non-numeric.
    pub fn float(&self, key: &str) -> Result<f64> {
        match self.values.get(key) {
            Some(HyperValue::Float(v)) => Ok(*v),
            Some(HyperValue::Int(v)) => Ok(*v as f64),
            Some(other) => Err(ArchGymError::InvalidHyper(format!(
                "`{key}` is {other}, expected a float"
            ))),
            None => Err(ArchGymError::InvalidHyper(format!("missing `{key}`"))),
        }
    }

    /// Fetch an integer.
    ///
    /// # Errors
    ///
    /// [`ArchGymError::InvalidHyper`] if the key is absent or not an int.
    pub fn int(&self, key: &str) -> Result<i64> {
        match self.values.get(key) {
            Some(HyperValue::Int(v)) => Ok(*v),
            Some(other) => Err(ArchGymError::InvalidHyper(format!(
                "`{key}` is {other}, expected an int"
            ))),
            None => Err(ArchGymError::InvalidHyper(format!("missing `{key}`"))),
        }
    }

    /// Fetch a text value.
    ///
    /// # Errors
    ///
    /// [`ArchGymError::InvalidHyper`] if the key is absent or not text.
    pub fn text(&self, key: &str) -> Result<&str> {
        match self.values.get(key) {
            Some(HyperValue::Text(v)) => Ok(v),
            Some(other) => Err(ArchGymError::InvalidHyper(format!(
                "`{key}` is {other}, expected text"
            ))),
            None => Err(ArchGymError::InvalidHyper(format!("missing `{key}`"))),
        }
    }

    /// Fetch a boolean.
    ///
    /// # Errors
    ///
    /// [`ArchGymError::InvalidHyper`] if the key is absent or not a bool.
    pub fn bool(&self, key: &str) -> Result<bool> {
        match self.values.get(key) {
            Some(HyperValue::Bool(v)) => Ok(*v),
            Some(other) => Err(ArchGymError::InvalidHyper(format!(
                "`{key}` is {other}, expected a bool"
            ))),
            None => Err(ArchGymError::InvalidHyper(format!("missing `{key}`"))),
        }
    }

    /// Like [`HyperMap::float`] but falling back to a default when absent.
    pub fn float_or(&self, key: &str, default: f64) -> Result<f64> {
        if self.contains(key) {
            self.float(key)
        } else {
            Ok(default)
        }
    }

    /// Like [`HyperMap::int`] but falling back to a default when absent.
    pub fn int_or(&self, key: &str, default: i64) -> Result<i64> {
        if self.contains(key) {
            self.int(key)
        } else {
            Ok(default)
        }
    }

    /// Like [`HyperMap::bool`] but falling back to a default when absent.
    pub fn bool_or(&self, key: &str, default: bool) -> Result<bool> {
        if self.contains(key) {
            self.bool(key)
        } else {
            Ok(default)
        }
    }

    /// Like [`HyperMap::text`] but falling back to a default when absent.
    pub fn text_or<'a>(&'a self, key: &str, default: &'a str) -> Result<&'a str> {
        if self.contains(key) {
            self.text(key)
        } else {
            Ok(default)
        }
    }

    /// Iterate over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &HyperValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// A compact `k=v,k=v` rendering used in sweep reports.
    pub fn summary(&self) -> String {
        self.values
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl FromIterator<(String, HyperValue)> for HyperMap {
    fn from_iter<I: IntoIterator<Item = (String, HyperValue)>>(iter: I) -> Self {
        HyperMap {
            values: iter.into_iter().collect(),
        }
    }
}

/// A grid of hyperparameter values to sweep: the Cartesian product of the
/// per-key value lists. This is the "~4000 experiments" machinery behind
/// Figs. 4–6.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct HyperGrid {
    axes: Vec<(String, Vec<HyperValue>)>,
}

impl HyperGrid {
    /// An empty grid (its product is the single empty assignment).
    pub fn new() -> Self {
        HyperGrid::default()
    }

    /// Add an axis, builder-style.
    pub fn axis<I, V>(mut self, key: &str, values: I) -> Self
    where
        I: IntoIterator<Item = V>,
        V: Into<HyperValue>,
    {
        self.axes
            .push((key.to_owned(), values.into_iter().map(Into::into).collect()));
        self
    }

    /// Number of assignments in the grid.
    pub fn len(&self) -> usize {
        self.axes.iter().map(|(_, vs)| vs.len().max(1)).product()
    }

    /// Whether the grid has no axes.
    pub fn is_empty(&self) -> bool {
        self.axes.is_empty()
    }

    /// Enumerate every assignment in the grid, lexicographic in axis order.
    pub fn iter(&self) -> HyperGridIter<'_> {
        HyperGridIter {
            grid: self,
            next: Some(vec![0; self.axes.len()]),
        }
    }

    /// Draw `n` uniformly random assignments (with replacement) — random
    /// hyperparameter search à la Bergstra & Bengio, which the paper
    /// names among the tuning techniques that "introduce another layer
    /// of complexity".
    pub fn sample<R: rand::Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<HyperMap> {
        (0..n)
            .map(|_| {
                self.axes
                    .iter()
                    .filter(|(_, vs)| !vs.is_empty())
                    .map(|(k, vs)| (k.clone(), vs[rng.gen_range(0..vs.len())].clone()))
                    .collect()
            })
            .collect()
    }
}

/// Iterator over the assignments of a [`HyperGrid`].
#[derive(Debug)]
pub struct HyperGridIter<'a> {
    grid: &'a HyperGrid,
    next: Option<Vec<usize>>,
}

impl Iterator for HyperGridIter<'_> {
    type Item = HyperMap;

    fn next(&mut self) -> Option<HyperMap> {
        let current = self.next.take()?;
        // An axis with zero values makes the whole grid empty.
        if self.grid.axes.iter().any(|(_, vs)| vs.is_empty()) {
            return None;
        }
        let map: HyperMap = self
            .grid
            .axes
            .iter()
            .zip(&current)
            .map(|((k, vs), &i)| (k.clone(), vs[i].clone()))
            .collect();
        // Advance the odometer.
        let mut succ = current;
        let mut dim = succ.len();
        loop {
            if dim == 0 {
                self.next = None;
                break;
            }
            dim -= 1;
            succ[dim] += 1;
            if succ[dim] < self.grid.axes[dim].1.len() {
                self.next = Some(succ);
                break;
            }
            succ[dim] = 0;
        }
        Some(map)
    }
}

/// Warm-start an agent by replaying a recorded dataset through its
/// feedback channel, as if it had explored those transitions itself.
///
/// Because every agent learns exclusively through [`Agent::observe`]
/// (Q2 of the paper's Table 2), any logged exploration — from another
/// agent, another hyperparameter assignment, or a community-shared
/// dataset — transfers to any agent: a Bayesian optimizer preloads its
/// surrogate history, an ant colony its pheromones, a policy-gradient
/// learner its gradients. This is the agent-side counterpart of the
/// paper's dataset-reuse story (Sections 3.4 and 7).
///
/// Transitions are replayed in order, in batches of `batch`.
pub fn warm_start<A: Agent + ?Sized>(
    agent: &mut A,
    dataset: &crate::trajectory::Dataset,
    batch: usize,
) {
    let batch = batch.max(1);
    let mut pending: Vec<(Action, StepResult)> = Vec::with_capacity(batch);
    for t in dataset.iter() {
        let result = StepResult {
            observation: crate::env::Observation::new(t.observation.to_vec()),
            reward: t.reward,
            done: true,
            feasible: t.feasible,
            info: Default::default(),
        };
        pending.push((t.action.to_action(), result));
        if pending.len() >= batch {
            agent.observe(&pending);
            pending.clear();
        }
    }
    if !pending.is_empty() {
        agent.observe(&pending);
    }
}

/// A baseline agent available to every environment: uniformly random search
/// with a random number generator as its "policy" (Section 3.2). The other
/// agents live in the `archgym-agents` crate; the random walker sits in
/// core because tests and doc examples across the workspace use it.
#[derive(Debug)]
pub struct RandomWalker {
    space: ParamSpace,
    rng: rand::rngs::StdRng,
}

impl RandomWalker {
    /// Create a random walker over a space with an explicit seed.
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        RandomWalker {
            space,
            rng: crate::seeded_rng(seed),
        }
    }
}

impl Agent for RandomWalker {
    fn name(&self) -> &str {
        "rw"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        (0..max_batch)
            .map(|_| self.space.sample(&mut self.rng))
            .collect()
    }

    fn observe(&mut self, _results: &[(Action, StepResult)]) {
        // A random policy ignores feedback by definition.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{Observation, StepResult};

    #[test]
    fn hyper_map_typed_access() {
        let map = HyperMap::new()
            .with("lr", 0.01)
            .with("pop", 32i64)
            .with("kernel", "rbf")
            .with("aging", true);
        assert_eq!(map.float("lr").unwrap(), 0.01);
        assert_eq!(map.int("pop").unwrap(), 32);
        assert_eq!(map.text("kernel").unwrap(), "rbf");
        assert!(map.bool("aging").unwrap());
        assert_eq!(map.float("pop").unwrap(), 32.0); // int widens to float
        assert!(map.int("lr").is_err());
        assert!(map.float("missing").is_err());
        assert_eq!(map.float_or("missing", 7.0).unwrap(), 7.0);
    }

    #[test]
    fn hyper_map_summary_is_sorted_and_compact() {
        let map = HyperMap::new().with("b", 2i64).with("a", 1i64);
        assert_eq!(map.summary(), "a=1,b=2");
    }

    #[test]
    fn hyper_grid_product() {
        let grid = HyperGrid::new()
            .axis("lr", [0.1, 0.01])
            .axis("pop", [8i64, 16, 32]);
        assert_eq!(grid.len(), 6);
        let all: Vec<HyperMap> = grid.iter().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0].float("lr").unwrap(), 0.1);
        assert_eq!(all[0].int("pop").unwrap(), 8);
        assert_eq!(all[5].float("lr").unwrap(), 0.01);
        assert_eq!(all[5].int("pop").unwrap(), 32);
    }

    #[test]
    fn random_grid_sampling_draws_valid_assignments() {
        let grid = HyperGrid::new()
            .axis("lr", [0.1, 0.01, 0.001])
            .axis("pop", [8i64, 16]);
        let mut rng = crate::seeded_rng(4);
        let draws = grid.sample(50, &mut rng);
        assert_eq!(draws.len(), 50);
        for map in &draws {
            assert!([0.1, 0.01, 0.001].contains(&map.float("lr").unwrap()));
            assert!([8, 16].contains(&map.int("pop").unwrap()));
        }
        // With 50 draws over 6 cells, more than one distinct assignment
        // must appear.
        let distinct: std::collections::BTreeSet<String> =
            draws.iter().map(HyperMap::summary).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn empty_grid_yields_one_empty_assignment() {
        let grid = HyperGrid::new();
        let all: Vec<HyperMap> = grid.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0], HyperMap::new());
    }

    #[test]
    fn grid_with_empty_axis_is_empty() {
        let grid = HyperGrid::new().axis("lr", Vec::<f64>::new());
        assert_eq!(grid.iter().count(), 0);
    }

    #[test]
    fn random_walker_proposes_valid_actions_and_is_deterministic() {
        let space = ParamSpace::builder()
            .int("a", 0, 9, 1)
            .categorical("b", ["x", "y"])
            .build()
            .unwrap();
        let mut w1 = RandomWalker::new(space.clone(), 3);
        let mut w2 = RandomWalker::new(space.clone(), 3);
        let b1 = w1.propose(5);
        let b2 = w2.propose(5);
        assert_eq!(b1, b2);
        for a in &b1 {
            space.validate(a).unwrap();
        }
        // observe() is a no-op but must be callable.
        let fake = StepResult::terminal(Observation::new(vec![0.0]), 0.0);
        w1.observe(&[(b1[0].clone(), fake)]);
    }

    #[test]
    fn warm_start_replays_every_transition_in_batches() {
        use crate::trajectory::{Dataset, Transition};
        struct Counter {
            seen: usize,
            batches: usize,
        }
        impl Agent for Counter {
            fn name(&self) -> &str {
                "counter"
            }
            fn propose(&mut self, _max: usize) -> Vec<Action> {
                Vec::new()
            }
            fn observe(&mut self, results: &[(Action, StepResult)]) {
                self.seen += results.len();
                self.batches += 1;
            }
        }
        let mut dataset = Dataset::new();
        for i in 0..25 {
            let result = StepResult::terminal(Observation::new(vec![i as f64]), i as f64);
            dataset.push(Transition::new("toy", "rw", Action::new(vec![i]), &result));
        }
        let mut counter = Counter {
            seen: 0,
            batches: 0,
        };
        warm_start(&mut counter, &dataset, 8);
        assert_eq!(counter.seen, 25);
        assert_eq!(counter.batches, 4); // 8 + 8 + 8 + 1
    }

    #[test]
    fn boxed_agent_dispatches() {
        let space = ParamSpace::builder().int("a", 0, 3, 1).build().unwrap();
        let mut agent: Box<dyn Agent> = Box::new(RandomWalker::new(space, 1));
        assert_eq!(agent.name(), "rw");
        assert_eq!(agent.propose(2).len(), 2);
    }
}
