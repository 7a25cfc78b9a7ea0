//! The ArchGym environment trait and its interface signals.
//!
//! An environment encapsulates an **architecture cost model** together with a
//! **target workload** (Section 3.1). Agents interact with it exclusively
//! through the three standardized signals of Section 3.3 — action,
//! observation and reward — via the OpenAI-gym-style [`Environment::step`].

use crate::error::Result;
use crate::space::{Action, ParamSpace};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;
use std::ops::Index;

/// The state information an environment reports back to the agent.
///
/// For DRAMGym this is `<latency, power, energy>`; for TimeloopGym
/// `<latency, energy, area>`; and so on (Table 3). Values are in the
/// environment's natural units; [`Environment::observation_labels`] names
/// each component.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation(Vec<f64>);

impl Observation {
    /// Wrap a metric vector.
    pub fn new(values: Vec<f64>) -> Self {
        Observation(values)
    }

    /// The metric at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> f64 {
        self.0[i]
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the observation carries no metrics.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// View the metrics as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Consume, returning the metric vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.0
    }
}

impl From<Vec<f64>> for Observation {
    fn from(values: Vec<f64>) -> Self {
        Observation(values)
    }
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, ">")
    }
}

/// A step's named diagnostics ([`StepResult::info`]): a short list of
/// `(name, value)` pairs, kept sorted by name, one entry per name.
///
/// Simulators name their diagnostics with string literals, so building
/// an `Info` allocates the list and nothing per name. A name is owned
/// only where it is made at run time, as when a journal is read back;
/// a static and an owned name with the same text compare equal.
/// Iteration runs in name order, which is the order a
/// `BTreeMap<String, f64>` would give, so journals and reports read the
/// same whichever kind of name a result holds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Info(Vec<(Cow<'static, str>, f64)>);

impl Info {
    /// An empty list.
    pub fn new() -> Self {
        Info(Vec::new())
    }

    /// Set `name` to `value`, keeping the list sorted; returns the value
    /// it replaced, if `name` was present.
    pub fn insert(&mut self, name: impl Into<Cow<'static, str>>, value: f64) -> Option<f64> {
        let name = name.into();
        match self.position(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (name, value));
                None
            }
        }
    }

    fn position(&self, name: &str) -> std::result::Result<usize, usize> {
        self.0.binary_search_by(|(stored, _)| (**stored).cmp(name))
    }

    /// The value named `name`.
    pub fn get(&self, name: &str) -> Option<&f64> {
        self.position(name).ok().map(|i| &self.0[i].1)
    }

    /// Whether a value is named `name`.
    pub fn contains_key(&self, name: &str) -> bool {
        self.position(name).is_ok()
    }

    /// The `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (&str, &f64)> + ExactSizeIterator {
        self.0.iter().map(|(name, value)| (&**name, value))
    }

    /// The values, in name order.
    pub fn values(&self) -> impl DoubleEndedIterator<Item = &f64> + ExactSizeIterator {
        self.0.iter().map(|(_, value)| value)
    }

    /// The entries as stored, static and owned names alike.
    pub fn entries(&self) -> &[(Cow<'static, str>, f64)] {
        &self.0
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the list holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<N: Into<Cow<'static, str>>> FromIterator<(N, f64)> for Info {
    /// Insert each pair in turn: a later duplicate name wins.
    fn from_iter<I: IntoIterator<Item = (N, f64)>>(pairs: I) -> Self {
        let pairs = pairs.into_iter();
        let mut info = Info(Vec::with_capacity(pairs.size_hint().0));
        for (name, value) in pairs {
            info.insert(name, value);
        }
        info
    }
}

impl Index<&str> for Info {
    type Output = f64;

    /// # Panics
    ///
    /// Panics if no value is named `name`.
    fn index(&self, name: &str) -> &f64 {
        self.get(name)
            .unwrap_or_else(|| panic!("no info value named `{name}`"))
    }
}

/// Everything `step()` returns: observation, reward/fitness, episode-done
/// flag and free-form diagnostic info.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepResult {
    /// The cost model's state information for the evaluated design.
    pub observation: Observation,
    /// The scalar feedback signal (reward in RL parlance, fitness for
    /// BO/GA/ACO — the paper treats them as the same signal).
    pub reward: f64,
    /// Whether the episode terminated. Architecture DSE is one-shot, so
    /// most environments return `true` on every step.
    pub done: bool,
    /// Whether the evaluated design was feasible. Infeasible designs (e.g.
    /// a tile that overflows its scratchpad) still produce a (penalized)
    /// reward so that agents can learn to avoid them.
    pub feasible: bool,
    /// Free-form named diagnostics (e.g. per-component energies).
    pub info: Info,
}

impl StepResult {
    /// A feasible, terminal step — the common case for one-shot DSE.
    pub fn terminal(observation: Observation, reward: f64) -> Self {
        StepResult {
            observation,
            reward,
            done: true,
            feasible: true,
            info: Info::new(),
        }
    }

    /// A terminal step for an infeasible design with a penalty reward.
    pub fn infeasible(observation: Observation, penalty_reward: f64) -> Self {
        StepResult {
            observation,
            reward: penalty_reward,
            done: true,
            feasible: false,
            info: Info::new(),
        }
    }

    /// Attach a named diagnostic value, builder-style. A literal name is
    /// kept as the `&'static str` itself; any other is owned.
    pub fn with_info(mut self, key: impl Into<Cow<'static, str>>, value: f64) -> Self {
        self.info.insert(key, value);
        self
    }
}

/// The designs one simulation proves to step bit-identically to the
/// action it stepped ([`Environment::try_step_with_twins`]).
///
/// A twin set is a product: the stepped action, plus, for each of a few
/// *free* dimensions the environment names, a mask of the indices that
/// behave like the stepped one there. Every other dimension is exact. So
/// an action is a member if it equals the stepped action outside the
/// free dimensions and its index in each free dimension is in that
/// dimension's mask. The set always contains the stepped action. Free
/// dimensions must have at most 64 indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwinSet {
    action: Action,
    /// `(dimension, mask)` in increasing dimension order: bit `i` of the
    /// mask is set if index `i` of the dimension is a twin.
    free: Vec<(usize, u64)>,
}

impl TwinSet {
    /// The set of `action` and every design that differs from it only in
    /// the listed `(dimension, mask)` pairs, each at an index whose bit
    /// is set.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is out of range or listed twice, or if a
    /// mask leaves out `action`'s own index in its dimension.
    pub fn new(action: Action, free: impl IntoIterator<Item = (usize, u64)>) -> Self {
        let mut free: Vec<(usize, u64)> = free.into_iter().collect();
        free.sort_unstable_by_key(|&(dim, _)| dim);
        for (k, &(dim, mask)) in free.iter().enumerate() {
            assert!(dim < action.len(), "free dimension {dim} out of range");
            assert!(
                k == 0 || free[k - 1].0 != dim,
                "free dimension {dim} listed twice"
            );
            let index = action.index(dim);
            assert!(
                index < 64 && mask >> index & 1 == 1,
                "the mask of dimension {dim} leaves out the stepped index {index}"
            );
        }
        TwinSet { action, free }
    }

    /// The stepped action.
    pub fn action(&self) -> &Action {
        &self.action
    }

    /// The free dimensions and their masks, in increasing dimension order.
    pub fn free(&self) -> &[(usize, u64)] {
        &self.free
    }

    /// Whether `candidate` is a member.
    pub fn contains(&self, candidate: &Action) -> bool {
        let (stepped, candidate) = (self.action.as_slice(), candidate.as_slice());
        if stepped.len() != candidate.len() {
            return false;
        }
        let mut free = self.free.iter().peekable();
        stepped
            .iter()
            .zip(candidate)
            .enumerate()
            .all(|(dim, (&s, &c))| match free.next_if(|&&(d, _)| d == dim) {
                Some(&(_, mask)) => c < 64 && mask >> c & 1 == 1,
                None => s == c,
            })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.free
            .iter()
            .map(|&(_, mask)| mask.count_ones() as usize)
            .product()
    }

    /// Whether the set has no members: never, as it holds its action.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Every member, the free dimensions' indices counting up, last
    /// dimension fastest.
    pub fn members(&self) -> impl Iterator<Item = Action> + '_ {
        let choices: Vec<Vec<usize>> = self
            .free
            .iter()
            .map(|&(_, mask)| (0..64).filter(|i| mask >> i & 1 == 1).collect())
            .collect();
        (0..self.len()).map(move |mut n| {
            let mut member = self.action.clone();
            for (k, &(dim, _)) in self.free.iter().enumerate().rev() {
                let options = &choices[k];
                member.as_mut_slice()[dim] = options[n % options.len()];
                n /= options.len();
            }
            member
        })
    }
}

/// An ArchGym environment: an architecture cost model plus workload, behind
/// the standardized action/observation/reward interface.
///
/// Implementations decode the index-encoded [`Action`] against
/// [`Environment::space`], run their cost model, and report an
/// [`Observation`] plus scalar reward.
///
/// The trait is object-safe: the search loop and sweep infrastructure work
/// with `&mut dyn Environment`.
pub trait Environment {
    /// A short, stable identifier, e.g. `"dram"`, `"timeloop"`.
    fn name(&self) -> &str;

    /// The design space this environment exposes (the paper's Fig. 3).
    fn space(&self) -> &ParamSpace;

    /// Names for each component of the observation vector, in order.
    fn observation_labels(&self) -> Vec<String>;

    /// Reset internal episode state, returning the initial observation.
    ///
    /// One-shot DSE environments are stateless between designs, so the
    /// default returns an all-zero observation of the right width.
    fn reset(&mut self) -> Observation {
        Observation::new(vec![0.0; self.observation_labels().len()])
    }

    /// Evaluate one design point.
    fn step(&mut self, action: &Action) -> StepResult;

    /// Evaluate one design point, reporting evaluation failures instead
    /// of panicking or silently emitting garbage — the fallible seam the
    /// retry/degrade machinery of
    /// [`SearchLoop`](crate::search::SearchLoop) drives.
    ///
    /// The default delegates to [`Environment::step`] and always
    /// succeeds, so existing environments are untouched. Wrappers that
    /// model flaky cost models (e.g.
    /// [`FaultyEnv`](crate::fault::FaultyEnv)) override this to surface
    /// [`EvalFailed`](crate::error::ArchGymError::EvalFailed),
    /// [`Timeout`](crate::error::ArchGymError::Timeout) or
    /// [`EnvCrashed`](crate::error::ArchGymError::EnvCrashed).
    ///
    /// # Errors
    ///
    /// Implementation-specific evaluation failures; the default never
    /// fails.
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        Ok(self.step(action))
    }

    /// [`Environment::try_step`], plus the [`TwinSet`] that this step's
    /// own run proves, when the environment can tell (the default, `None`,
    /// claims nothing).
    ///
    /// [`CachedEnv`](crate::cache::CachedEnv) calls this on a miss and
    /// answers every later lookup inside the set from this result,
    /// without simulating. The contract:
    ///
    /// * exact for this run: every member's `step` gives a bit-identical
    ///   [`StepResult`] to this one (observation, reward, flags and every
    ///   info name and value);
    /// * the set holds the stepped action;
    /// * the result is the one `try_step` gives; only the set is extra.
    ///
    /// Computing a set may cost the simulator some work, so plain `step`
    /// and `try_step` never do. `Box`, `&mut`,
    /// [`CountingEnv`] and [`CachedEnv`](crate::cache::CachedEnv)
    /// forward this method, as they forward [`Environment::canonical`];
    /// [`FaultyEnv`](crate::fault::FaultyEnv) forwards it only on an
    /// attempt with no injected fault. A wrapper whose own output depends
    /// on the raw indices (a learned surrogate, say) keeps the default.
    ///
    /// # Errors
    ///
    /// Whatever [`Environment::try_step`] reports.
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        self.try_step(action).map(|result| (result, None))
    }

    /// Install a telemetry recorder. Instrumented wrappers
    /// ([`CachedEnv`](crate::cache::CachedEnv),
    /// [`FaultyEnv`](crate::fault::FaultyEnv), the DRAM controller env)
    /// store a clone of the handle and count into it; the default is a
    /// no-op, so plain environments need no changes. The
    /// [`SearchLoop`](crate::search::SearchLoop) calls this at run
    /// start, which is how `--metrics` reaches every layer without
    /// construction-site plumbing.
    fn set_telemetry(&mut self, _recorder: &crate::telemetry::Recorder) {}

    /// The canonical twin of `action`, or `None` when `action` already is
    /// canonical (the default, for every action).
    ///
    /// A cost model may have dimensions that are inert in part of its
    /// space: changing them never changes what `step` computes. Such an
    /// environment maps every action to one representative of its class
    /// of twins, and [`CachedEnv`](crate::cache::CachedEnv) keys its
    /// memo by that representative, so each distinct behaviour is
    /// simulated once. The contract:
    ///
    /// * pure: the answer depends on `action` alone;
    /// * idempotent: a returned action is its own canonical form
    ///   (`canonical` of it is `None`);
    /// * exact: `step` of the returned action gives a bit-identical
    ///   [`StepResult`] to `step(action)` — observation, reward, flags
    ///   and every info name and value.
    ///
    /// A wrapper forwards this method only if it leaves what `step`
    /// computes to its inner environment. One whose own output depends on
    /// the raw indices (a learned surrogate, say) must keep the default,
    /// because twins differ there.
    fn canonical(&self, _action: &Action) -> Option<Action> {
        None
    }
}

impl<E: Environment + ?Sized> Environment for Box<E> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn space(&self) -> &ParamSpace {
        (**self).space()
    }
    fn observation_labels(&self) -> Vec<String> {
        (**self).observation_labels()
    }
    fn reset(&mut self) -> Observation {
        (**self).reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        (**self).step(action)
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        (**self).try_step(action)
    }
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        (**self).try_step_with_twins(action)
    }
    fn set_telemetry(&mut self, recorder: &crate::telemetry::Recorder) {
        (**self).set_telemetry(recorder);
    }
    fn canonical(&self, action: &Action) -> Option<Action> {
        (**self).canonical(action)
    }
}

impl<E: Environment + ?Sized> Environment for &mut E {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn space(&self) -> &ParamSpace {
        (**self).space()
    }
    fn observation_labels(&self) -> Vec<String> {
        (**self).observation_labels()
    }
    fn reset(&mut self) -> Observation {
        (**self).reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        (**self).step(action)
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        (**self).try_step(action)
    }
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        (**self).try_step_with_twins(action)
    }
    fn set_telemetry(&mut self, recorder: &crate::telemetry::Recorder) {
        (**self).set_telemetry(recorder);
    }
    fn canonical(&self, action: &Action) -> Option<Action> {
        (**self).canonical(action)
    }
}

/// An [`Environment`] that can be duplicated behind a trait object.
///
/// Every bundled cost model is `Clone + Send + Sync` (cloning is cheap
/// — e.g. `DramEnv` shares its trace through an `Arc`), so the blanket
/// impl covers them all. The point of the trait is `Box<dyn
/// CloneEnvironment>`: boxed environments built from CLI/bench specs
/// stay cloneable, which is what lets them fan out across the
/// per-worker replicas of an [`EnvPool`](crate::pool::EnvPool). The
/// `Sync` bound lets a boxed prototype serve as a shared `Fn() -> E`
/// sweep factory (cloned from worker threads) without an `unwrap`.
pub trait CloneEnvironment: Environment + Send + Sync {
    /// Clone into a fresh boxed replica.
    fn clone_env(&self) -> Box<dyn CloneEnvironment>;
}

impl<E: Environment + Clone + Send + Sync + 'static> CloneEnvironment for E {
    fn clone_env(&self) -> Box<dyn CloneEnvironment> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn CloneEnvironment> {
    fn clone(&self) -> Self {
        (**self).clone_env()
    }
}

/// A counting wrapper that tracks how many simulator queries have been
/// issued — the paper's *sample efficiency* axis (Section 6.2) normalizes
/// all agent comparisons by this number.
#[derive(Debug, Clone)]
pub struct CountingEnv<E> {
    inner: E,
    samples: u64,
}

impl<E: Environment> CountingEnv<E> {
    /// Wrap an environment, starting the counter at zero.
    pub fn new(inner: E) -> Self {
        CountingEnv { inner, samples: 0 }
    }

    /// Number of `step()` calls issued so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Access the wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwrap, discarding the counter.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Environment> Environment for CountingEnv<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.inner.observation_labels()
    }
    fn reset(&mut self) -> Observation {
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        self.samples += 1;
        self.inner.step(action)
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        // A failed attempt still consumed a simulator query.
        self.samples += 1;
        self.inner.try_step(action)
    }
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        self.samples += 1;
        self.inner.try_step_with_twins(action)
    }
    fn set_telemetry(&mut self, recorder: &crate::telemetry::Recorder) {
        self.inner.set_telemetry(recorder);
    }
    fn canonical(&self, action: &Action) -> Option<Action> {
        self.inner.canonical(action)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::PeakEnv;

    #[test]
    fn observation_display_and_access() {
        let obs = Observation::new(vec![1.0, 2.5]);
        assert_eq!(obs.len(), 2);
        assert_eq!(obs.get(1), 2.5);
        assert_eq!(obs.to_string(), "<1.0000, 2.5000>");
    }

    #[test]
    fn step_result_constructors() {
        let ok = StepResult::terminal(Observation::new(vec![1.0]), 2.0);
        assert!(ok.feasible && ok.done);
        let bad = StepResult::infeasible(Observation::new(vec![0.0]), -1.0).with_info("why", 3.0);
        assert!(!bad.feasible);
        assert_eq!(bad.info["why"], 3.0);
    }

    #[test]
    fn info_names_are_sorted_whatever_the_insertion_order() {
        let names = [
            "energy",
            "area",
            "p95_latency_ns",
            "row_hit_rate",
            "a",
            "zeta",
        ];
        let mut expected: Vec<&str> = names.to_vec();
        expected.sort_unstable();
        for rotation in 0..names.len() {
            let mut order = names.to_vec();
            order.rotate_left(rotation);
            if rotation % 2 == 1 {
                order.reverse();
            }
            let mut info = Info::new();
            for (i, name) in order.iter().enumerate() {
                assert_eq!(info.insert(*name, i as f64), None);
            }
            let names: Vec<&str> = info.iter().map(|(name, _)| name).collect();
            assert_eq!(names, expected, "{order:?}");
            assert_eq!(info.len(), names.len());
            for (i, name) in order.iter().enumerate() {
                assert_eq!(info[*name], i as f64);
                assert_eq!(info.get(name), Some(&(i as f64)));
            }
        }
        // The same order a `BTreeMap<String, f64>` gives, byte-wise.
        let map: std::collections::BTreeMap<String, f64> =
            names.iter().map(|n| (n.to_string(), 0.0)).collect();
        let info: Info = names.iter().map(|&n| (n, 0.0)).collect();
        assert!(map
            .keys()
            .map(String::as_str)
            .eq(info.iter().map(|(name, _)| name)));
    }

    #[test]
    fn info_insert_replaces_an_existing_name() {
        let mut info = Info::new();
        assert_eq!(info.insert("energy", 1.0), None);
        assert_eq!(info.insert("area", 2.0), None);
        assert_eq!(info.insert("energy", -3.0), Some(1.0));
        assert_eq!(info.insert(String::from("area"), 4.0), Some(2.0));
        assert_eq!(info.len(), 2);
        assert_eq!(info.values().copied().collect::<Vec<_>>(), [4.0, -3.0]);
        let built = StepResult::terminal(Observation::new(vec![]), 0.0)
            .with_info("x", 1.0)
            .with_info("x", 2.0);
        assert_eq!(built.info.len(), 1);
        assert_eq!(built.info["x"], 2.0);
        assert!(built.info.contains_key("x") && !built.info.contains_key("y"));
        assert_eq!(built.info.get("y"), None);
    }

    #[test]
    fn static_and_owned_info_names_compare_equal() {
        let with_static: Info = [("area", 1.5), ("energy", -0.0)].into_iter().collect();
        let with_owned: Info = [("energy".to_string(), -0.0), ("area".to_string(), 1.5)]
            .into_iter()
            .collect();
        assert!(matches!(with_static.entries()[0].0, Cow::Borrowed(_)));
        assert!(matches!(with_owned.entries()[0].0, Cow::Owned(_)));
        assert_eq!(with_static, with_owned);
        let a = StepResult::terminal(Observation::new(vec![1.0]), 1.0).with_info("area", 1.5);
        let b = StepResult::terminal(Observation::new(vec![1.0]), 1.0)
            .with_info(format!("ar{}", "ea"), 1.5);
        assert_eq!(a, b);
        assert_ne!(a, b.clone().with_info("area", 1.25));
        assert!(Info::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "no info value named `latency`")]
    fn info_index_panics_on_a_missing_name() {
        let info: Info = [("area", 1.0)].into_iter().collect();
        let _ = info["latency"];
    }

    #[test]
    fn peak_env_rewards_peak() {
        let mut env = PeakEnv::new(&[4, 4], vec![2, 3]);
        let at_peak = env.step(&Action::new(vec![2, 3]));
        assert_eq!(at_peak.reward, 1.0);
        let off_peak = env.step(&Action::new(vec![0, 0]));
        assert!(off_peak.reward < at_peak.reward);
    }

    #[test]
    fn counting_env_counts() {
        let mut env = CountingEnv::new(PeakEnv::new(&[3], vec![1]));
        assert_eq!(env.samples(), 0);
        env.step(&Action::new(vec![0]));
        env.step(&Action::new(vec![2]));
        assert_eq!(env.samples(), 2);
        assert_eq!(env.name(), "peak");
    }

    #[test]
    fn default_reset_matches_observation_width() {
        let mut env = PeakEnv::new(&[3], vec![1]);
        assert_eq!(env.reset().len(), env.observation_labels().len());
    }

    #[test]
    fn environment_is_object_safe() {
        let mut env = PeakEnv::new(&[3], vec![1]);
        let dyn_env: &mut dyn Environment = &mut env;
        let r = dyn_env.step(&Action::new(vec![1]));
        assert_eq!(r.reward, 1.0);
    }

    /// A peak over two dimensions whose second one is ignored: every
    /// action's canonical twin has index 0 there.
    #[derive(Debug, Clone)]
    struct InertTail(PeakEnv);

    impl InertTail {
        fn new() -> Self {
            InertTail(PeakEnv::new(&[4, 3], vec![2, 0]))
        }
    }

    impl Environment for InertTail {
        fn name(&self) -> &str {
            "inert-tail"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn observation_labels(&self) -> Vec<String> {
            self.0.observation_labels()
        }
        fn step(&mut self, action: &Action) -> StepResult {
            self.0.step(&Action::new(vec![action.index(0), 0]))
        }
        fn canonical(&self, action: &Action) -> Option<Action> {
            (action.index(1) != 0).then(|| Action::new(vec![action.index(0), 0]))
        }
    }

    #[test]
    fn canonical_defaults_to_none_and_forwards_through_wrappers() {
        let twin = Action::new(vec![1, 2]);
        let canonical = Some(Action::new(vec![1, 0]));
        assert_eq!(PeakEnv::new(&[4, 3], vec![2, 0]).canonical(&twin), None);
        let mut plain = InertTail::new();
        assert_eq!(plain.canonical(&twin), canonical);
        assert_eq!(plain.canonical(&Action::new(vec![1, 0])), None);

        let boxed: Box<dyn Environment> = Box::new(InertTail::new());
        assert_eq!(boxed.canonical(&twin), canonical);
        let cloneable: Box<dyn CloneEnvironment> = Box::new(InertTail::new());
        assert_eq!(cloneable.canonical(&twin), canonical);
        let by_ref = &mut plain;
        assert_eq!(
            <&mut InertTail as Environment>::canonical(&by_ref, &twin),
            canonical
        );
        let counting = CountingEnv::new(InertTail::new());
        assert_eq!(counting.canonical(&twin), canonical);
        assert_eq!(counting.samples(), 0, "canonical is not a query");
        let faulty = crate::fault::FaultyEnv::new(
            InertTail::new(),
            crate::fault::FaultPlan::new(1).transient(0.5),
        );
        assert_eq!(faulty.canonical(&twin), canonical);
        let cached = crate::cache::CachedEnv::uncached(InertTail::new());
        assert_eq!(cached.canonical(&twin), canonical);
    }

    #[test]
    fn twins_share_one_cache_entry_through_a_boxed_env() {
        use crate::cache::{CachedEnv, EvalCache};
        use std::sync::Arc;
        let cache = Arc::new(EvalCache::new());
        let boxed: Box<dyn CloneEnvironment> = Box::new(InertTail::new());
        let mut env = CachedEnv::new(CountingEnv::new(boxed), cache.clone());
        let first = env.step(&Action::new(vec![3, 1]));
        let second = env.step(&Action::new(vec![3, 2]));
        assert_eq!(first, second);
        assert_eq!(env.inner().samples(), 1, "the twin was simulated again");
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 1, 1, 1)
        );
    }

    /// A peak over `[4, 3]` whose second dimension is ignored, and which
    /// says so in a twin set.
    #[derive(Debug, Clone)]
    struct FreeTail(InertTail);

    impl Environment for FreeTail {
        fn name(&self) -> &str {
            "free-tail"
        }
        fn space(&self) -> &ParamSpace {
            self.0.space()
        }
        fn observation_labels(&self) -> Vec<String> {
            self.0.observation_labels()
        }
        fn step(&mut self, action: &Action) -> StepResult {
            self.0.step(action)
        }
        fn try_step_with_twins(
            &mut self,
            action: &Action,
        ) -> Result<(StepResult, Option<TwinSet>)> {
            let set = TwinSet::new(action.clone(), [(1, 0b111)]);
            Ok((self.step(action), Some(set)))
        }
    }

    #[test]
    fn twin_sets_default_to_none_and_forward_through_wrappers() {
        let action = Action::new(vec![1, 2]);
        let set = Some(TwinSet::new(action.clone(), [(1, 0b111)]));
        let twins = |env: &mut dyn Environment| env.try_step_with_twins(&action).unwrap().1;
        assert_eq!(twins(&mut PeakEnv::new(&[4, 3], vec![2, 0])), None);
        let plain = FreeTail(InertTail::new());
        assert_eq!(twins(&mut plain.clone()), set);
        let mut boxed: Box<dyn Environment> = Box::new(plain.clone());
        assert_eq!(twins(&mut boxed), set);
        let mut cloneable: Box<dyn CloneEnvironment> = Box::new(plain.clone());
        assert_eq!(twins(&mut cloneable), set);
        let mut inner = plain.clone();
        let mut by_ref = &mut inner;
        assert_eq!(twins(&mut by_ref), set);
        let mut counting = CountingEnv::new(plain.clone());
        assert_eq!(twins(&mut counting), set);
        assert_eq!(counting.samples(), 1, "a witnessed step is a query");
        assert_eq!(
            twins(&mut crate::cache::CachedEnv::uncached(plain.clone())),
            set
        );
        use crate::fault::{FaultPlan, FaultyEnv};
        assert_eq!(
            twins(&mut FaultyEnv::new(plain.clone(), FaultPlan::new(1))),
            set
        );
        // With faults, only a clean attempt forwards the set.
        let corrupt = FaultPlan::new(1).corrupt(1.0);
        assert_eq!(twins(&mut FaultyEnv::new(plain.clone(), corrupt)), None);
        let flaky = FaultPlan::new(5).transient(0.5);
        let mut faulty = FaultyEnv::new(plain, flaky);
        let outcomes: Vec<_> = (0..4)
            .map(|_| faulty.try_step_with_twins(&action))
            .collect();
        assert!(outcomes.iter().any(|o| o.is_err()), "no transient fault");
        for outcome in outcomes.into_iter().flatten() {
            assert_eq!(outcome.1, set);
        }
    }

    #[test]
    fn twin_sets_hold_their_action_and_enumerate_their_members() {
        let set = TwinSet::new(Action::new(vec![2, 1, 0, 5]), [(3, 0b10_0100), (1, 0b11)]);
        assert_eq!(set.free(), [(1, 0b11), (3, 0b10_0100)]);
        assert_eq!(set.len(), 4);
        let members: Vec<Vec<usize>> = set.members().map(Action::into_inner).collect();
        assert_eq!(
            members,
            [[2, 0, 0, 2], [2, 0, 0, 5], [2, 1, 0, 2], [2, 1, 0, 5]]
        );
        assert!(members
            .iter()
            .all(|m| set.contains(&Action::new(m.clone()))));
        for outside in [
            vec![2, 1, 0, 3],
            vec![1, 1, 0, 5],
            vec![2, 1, 0],
            vec![2, 1, 0, 70],
        ] {
            assert!(!set.contains(&Action::new(outside.clone())), "{outside:?}");
        }
        let exact = TwinSet::new(Action::new(vec![3]), []);
        assert_eq!((exact.len(), exact.is_empty()), (1, false));
    }

    #[test]
    #[should_panic(expected = "leaves out the stepped index 2")]
    fn a_twin_set_must_hold_its_action() {
        let _ = TwinSet::new(Action::new(vec![0, 2]), [(1, 0b011)]);
    }

    #[test]
    fn default_try_step_matches_step_and_forwards_through_wrappers() {
        let action = Action::new(vec![2]);
        let mut plain = PeakEnv::new(&[4], vec![2]);
        let expected = plain.step(&action);
        assert_eq!(plain.try_step(&action).unwrap(), expected);

        // Box / &mut / CountingEnv all forward try_step (not just step).
        let mut boxed: Box<dyn Environment> = Box::new(PeakEnv::new(&[4], vec![2]));
        assert_eq!(boxed.try_step(&action).unwrap(), expected);
        let mut counting = CountingEnv::new(PeakEnv::new(&[4], vec![2]));
        assert_eq!(counting.try_step(&action).unwrap(), expected);
        assert_eq!(counting.samples(), 1);
        let mut by_ref = &mut counting;
        assert_eq!(
            <&mut CountingEnv<PeakEnv> as Environment>::try_step(&mut by_ref, &action).unwrap(),
            expected
        );
        assert_eq!(counting.samples(), 2);
    }
}
