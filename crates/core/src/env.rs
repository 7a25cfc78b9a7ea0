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
