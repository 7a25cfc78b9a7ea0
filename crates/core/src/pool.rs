//! In-run batch evaluation — [`BatchEvaluator`] and [`EnvPool`].
//!
//! The ArchGym loop (paper §3, Fig. 2) is agent-proposes-batch →
//! simulator-evaluates → agent-observes. Population agents (GA
//! generations, ACO ant cohorts, SA neighbor batches) propose whole
//! batches whose members are independent by construction, so the
//! evaluate stage can fan out across threads *within one run* — a
//! different axis from the across-runs parallelism of
//! [`Executor::map`](crate::executor::Executor::map)-driven sweeps.
//!
//! [`BatchEvaluator`] is the seam: the
//! [`SearchLoop`](crate::search::SearchLoop) evaluates through it
//! instead of calling [`Environment::step`] directly. A blanket impl
//! makes every `Environment` a serial evaluator, so existing call
//! sites keep working unchanged. [`EnvPool`] is the parallel
//! implementation: it holds one cloned environment replica per worker
//! (cloning is cheap — e.g. `DramEnv` shares its trace through an
//! `Arc`) and fans each batch out via
//! [`Executor::map_with`](crate::executor::Executor::map_with).
//!
//! Results always come back **in proposal order**, and every bundled
//! environment is a deterministic pure function of the action, so a
//! pooled run is bit-identical to a serial one — same rewards, same
//! history, same dataset. The search loop's tests enforce this.
//!
//! ```
//! use archgym_core::pool::{BatchEvaluator, EnvPool};
//! use archgym_core::prelude::*;
//! use archgym_core::toy::PeakEnv;
//!
//! let mut pool = EnvPool::new(PeakEnv::new(&[8], vec![3]), 4);
//! let batch: Vec<Action> = (0..8).map(|i| Action::new(vec![i])).collect();
//! let results = pool.eval_batch(&batch);
//! assert_eq!(results.len(), 8);
//! assert_eq!(results[3].reward, 1.0); // order preserved: index 3 is the peak
//! ```

use crate::env::{Environment, Observation, StepResult};
use crate::error::{ArchGymError, Result};
use crate::executor::Executor;
use crate::space::Action;
use crate::telemetry::Recorder;

/// Evaluates batches of proposed design points.
///
/// The [`SearchLoop`](crate::search::SearchLoop) is generic over this
/// trait rather than over [`Environment`] directly. The blanket impl
/// below turns any environment into a serial evaluator; [`EnvPool`]
/// evaluates in parallel across replicas. Implementations must return
/// exactly one result per action, in the same order.
pub trait BatchEvaluator {
    /// The wrapped environment's name (for dataset/trajectory records).
    /// Deliberately not called `name` so the blanket impl never makes
    /// [`Environment`] method calls ambiguous.
    fn env_name(&self) -> &str;

    /// Reset episode state, returning the initial observation.
    fn reset_env(&mut self) -> Observation;

    /// Evaluate `actions`, returning results in proposal order.
    fn eval_batch(&mut self, actions: &[Action]) -> Vec<StepResult>;

    /// The width of the observation vector this evaluator produces —
    /// what the retry machinery sizes degraded placeholder results to.
    fn observation_width(&self) -> usize;

    /// Fallibly evaluate `actions`, returning one outcome per action in
    /// proposal order. The default delegates to the infallible
    /// [`BatchEvaluator::eval_batch`]; fault-aware implementations
    /// (environments with a real [`Environment::try_step`], pools with
    /// panic isolation) surface per-action failures instead, which the
    /// [`SearchLoop`](crate::search::SearchLoop) retries and degrades
    /// per its [`RetryPolicy`](crate::search::RetryPolicy).
    fn try_eval_batch(&mut self, actions: &[Action]) -> Vec<Result<StepResult>> {
        self.eval_batch(actions).into_iter().map(Ok).collect()
    }

    /// Install a telemetry recorder on the evaluator and everything it
    /// wraps (see [`Environment::set_telemetry`]). The default is a
    /// no-op.
    fn set_telemetry(&mut self, _recorder: &Recorder) {}
}

/// Every environment is a serial batch evaluator: step each action in
/// order on the caller's thread.
impl<E: Environment + ?Sized> BatchEvaluator for E {
    fn env_name(&self) -> &str {
        self.name()
    }
    fn reset_env(&mut self) -> Observation {
        self.reset()
    }
    fn eval_batch(&mut self, actions: &[Action]) -> Vec<StepResult> {
        actions.iter().map(|action| self.step(action)).collect()
    }
    fn observation_width(&self) -> usize {
        self.observation_labels().len()
    }
    fn try_eval_batch(&mut self, actions: &[Action]) -> Vec<Result<StepResult>> {
        actions.iter().map(|action| self.try_step(action)).collect()
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        Environment::set_telemetry(self, recorder);
    }
}

/// A pool of cloned environment replicas that evaluates batches in
/// parallel, one replica per thread that takes part in a batch.
///
/// Wrapping a [`CachedEnv`](crate::cache::CachedEnv) composes with the
/// shared [`EvalCache`](crate::cache::EvalCache): replicas clone the
/// `Arc` handle, so all workers fill and probe one memo table.
#[derive(Debug)]
pub struct EnvPool<E> {
    replicas: Vec<E>,
    executor: Executor,
}

impl<E: Environment + Clone + Send> EnvPool<E> {
    /// A pool of `jobs` replicas of `env` (`jobs == 0` means one per
    /// available hardware thread; `jobs == 1` degenerates to serial).
    pub fn new(env: E, jobs: usize) -> Self {
        let executor = Executor::new(jobs);
        let replicas = vec![env; executor.jobs()];
        EnvPool { replicas, executor }
    }

    /// The number of environment replicas: the most threads one batch
    /// fans out over. How many of them run depends on the idle cores of
    /// the process-wide core budget (see [`crate::executor`]); with
    /// none idle, the calling thread evaluates the batch alone.
    pub fn jobs(&self) -> usize {
        self.replicas.len()
    }

    /// The first replica (they are interchangeable — bundled
    /// environments are stateless between designs).
    pub fn env(&self) -> &E {
        &self.replicas[0]
    }

    /// Unwrap, returning the first replica and dropping the rest.
    pub fn into_env(mut self) -> E {
        self.replicas.swap_remove(0)
    }
}

impl<E: Environment + Clone + Send> BatchEvaluator for EnvPool<E> {
    fn env_name(&self) -> &str {
        self.replicas[0].name()
    }
    fn reset_env(&mut self) -> Observation {
        // Reset every replica so all workers observe the same episode
        // state; return the first observation (they are identical).
        let mut first = None;
        for replica in &mut self.replicas {
            let obs = replica.reset();
            first.get_or_insert(obs);
        }
        first.expect("pool holds at least one replica")
    }
    fn eval_batch(&mut self, actions: &[Action]) -> Vec<StepResult> {
        self.executor
            .map_with(&mut self.replicas, actions, |env, action| env.step(action))
    }
    fn observation_width(&self) -> usize {
        self.replicas[0].observation_labels().len()
    }
    fn try_eval_batch(&mut self, actions: &[Action]) -> Vec<Result<StepResult>> {
        // Fan out through the panic-isolating primitive: a panicking
        // evaluation loses only its own slot (surfacing as EvalFailed),
        // while the surviving workers keep draining the batch.
        self.executor
            .map_with_catch(&mut self.replicas, actions, |env, action| {
                env.try_step(action)
            })
            .into_iter()
            .map(|slot| match slot {
                Ok(outcome) => outcome,
                Err(msg) => Err(ArchGymError::EvalFailed(format!("worker panicked: {msg}"))),
            })
            .collect()
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        // Replicas share Arc-backed recorder cells, so the pooled
        // counters land in the same report as the serial ones would.
        for replica in &mut self.replicas {
            replica.set_telemetry(recorder);
        }
        self.executor.set_telemetry(recorder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CachedEnv, EvalCache};
    use crate::env::CountingEnv;
    use crate::toy::PeakEnv;
    use std::sync::Arc;

    fn batch(n: usize) -> Vec<Action> {
        (0..n).map(|i| Action::new(vec![i % 8])).collect()
    }

    #[test]
    fn pool_matches_serial_evaluation_in_order() {
        let mut serial = PeakEnv::new(&[8], vec![3]);
        let expected = serial.eval_batch(&batch(100));
        for jobs in [1, 2, 4, 16] {
            let mut pool = EnvPool::new(PeakEnv::new(&[8], vec![3]), jobs);
            assert_eq!(pool.eval_batch(&batch(100)), expected, "jobs={jobs}");
        }
    }

    #[test]
    fn pool_on_idle_cores_runs_a_batch_on_two_threads_and_matches_serial() {
        use crate::executor::testing::{private_budget, TwoThreadEnv};
        let mut serial = PeakEnv::new(&[8], vec![3]);
        let expected = serial.eval_batch(&batch(100));
        let _core = private_budget(4).hold();
        let mut pool = EnvPool::new(TwoThreadEnv::new(PeakEnv::new(&[8], vec![3])), 4);
        assert_eq!(pool.eval_batch(&batch(100)), expected);
    }

    #[test]
    fn pool_reports_wrapped_env_metadata() {
        let mut pool = EnvPool::new(PeakEnv::new(&[8, 8], vec![1, 2]), 4);
        assert_eq!(pool.env_name(), "peak");
        assert_eq!(pool.env().space().len(), 2);
        assert_eq!(
            pool.reset_env().len(),
            pool.env().observation_labels().len()
        );
        assert_eq!(pool.jobs(), 4);
        assert_eq!(pool.into_env().name(), "peak");
    }

    #[test]
    fn zero_jobs_sizes_pool_to_available_parallelism() {
        let pool = EnvPool::new(PeakEnv::new(&[4], vec![0]), 0);
        assert_eq!(pool.jobs(), Executor::available_parallelism());
    }

    #[test]
    fn pool_composes_with_shared_eval_cache() {
        // All replicas share one cache: 32 distinct points evaluated
        // across a pool leave exactly 32 entries, and a repeat batch is
        // answered entirely from the cache.
        let cache = Arc::new(EvalCache::new());
        let env = CachedEnv::new(
            CountingEnv::new(PeakEnv::new(&[32], vec![7])),
            cache.clone(),
        );
        let mut pool = EnvPool::new(env, 4);
        let points: Vec<Action> = (0..32).map(|i| Action::new(vec![i])).collect();
        let first = pool.eval_batch(&points);
        assert_eq!(cache.stats().entries, 32);
        let second = pool.eval_batch(&points);
        assert_eq!(first, second);
        let stats = cache.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 32);
    }

    #[test]
    fn boxed_clone_environment_can_be_pooled() {
        use crate::env::CloneEnvironment;
        let boxed: Box<dyn CloneEnvironment> = Box::new(PeakEnv::new(&[8], vec![5]));
        let mut serial = boxed.clone();
        let expected = serial.eval_batch(&batch(24));
        let mut pool = EnvPool::new(boxed, 3);
        assert_eq!(pool.eval_batch(&batch(24)), expected);
    }

    #[test]
    fn empty_batch_returns_empty_results() {
        let mut pool = EnvPool::new(PeakEnv::new(&[4], vec![0]), 4);
        assert!(pool.eval_batch(&[]).is_empty());
    }

    #[test]
    fn default_try_eval_batch_wraps_the_infallible_path() {
        let mut env = PeakEnv::new(&[8], vec![3]);
        let expected = env.eval_batch(&batch(8));
        let outcomes = env.try_eval_batch(&batch(8));
        assert_eq!(env.observation_width(), env.observation_labels().len());
        for (outcome, want) in outcomes.into_iter().zip(expected) {
            assert_eq!(outcome.unwrap(), want);
        }
    }

    #[test]
    fn pooled_faults_match_serial_faults_in_order() {
        use crate::fault::{FaultPlan, FaultyEnv};
        // Distinct actions: duplicates would race the shared attempt
        // counters under pooling and legitimately settle differently.
        let plan = FaultPlan::new(11).transient(0.4);
        let actions: Vec<Action> = (0..40).map(|i| Action::new(vec![i])).collect();
        let mut serial = FaultyEnv::new(PeakEnv::new(&[64], vec![3]), plan);
        let expected: Vec<bool> = serial
            .try_eval_batch(&actions)
            .iter()
            .map(|o| o.is_ok())
            .collect();
        let mut pool = EnvPool::new(FaultyEnv::new(PeakEnv::new(&[64], vec![3]), plan), 4);
        let got: Vec<bool> = pool
            .try_eval_batch(&actions)
            .iter()
            .map(|o| o.is_ok())
            .collect();
        assert_eq!(got, expected);
        assert!(expected.iter().any(|ok| !ok), "fault rate 0.4 fired");
    }

    /// An environment whose evaluation panics on one specific action.
    #[derive(Clone)]
    struct Exploding(PeakEnv);
    impl Environment for Exploding {
        fn name(&self) -> &str {
            "exploding"
        }
        fn space(&self) -> &crate::space::ParamSpace {
            self.0.space()
        }
        fn observation_labels(&self) -> Vec<String> {
            self.0.observation_labels()
        }
        fn reset(&mut self) -> Observation {
            self.0.reset()
        }
        fn step(&mut self, action: &Action) -> StepResult {
            assert!(action.index(0) != 5, "simulator segfault");
            self.0.step(action)
        }
    }

    #[test]
    fn pooled_panic_loses_only_its_own_work_item() {
        let actions: Vec<Action> = (0..16).map(|i| Action::new(vec![i % 8])).collect();
        let mut pool = EnvPool::new(Exploding(PeakEnv::new(&[8], vec![3])), 4);
        let outcomes = pool.try_eval_batch(&actions);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i % 8 == 5 {
                match outcome {
                    Err(ArchGymError::EvalFailed(msg)) => {
                        assert!(msg.contains("worker panicked"), "{msg}");
                        assert!(msg.contains("simulator segfault"), "{msg}");
                    }
                    other => panic!("slot {i}: expected panic error, got {other:?}"),
                }
            } else {
                assert!(outcome.is_ok(), "slot {i} survived");
            }
        }
    }
}
