//! Deterministic fault injection — [`FaultPlan`] and [`FaultyEnv`].
//!
//! The real cost models ArchGym couples to (DRAMSys, Timeloop, FARSI)
//! crash, stall, or emit garbage on awkward configurations, and the
//! framework must degrade those events into penalty rewards rather than
//! kill a multi-day search. This module makes such misbehavior
//! *reproducible*: a seeded [`FaultPlan`] decides — as a pure function
//! of `(seed, action, attempt)` — whether an evaluation fails, and
//! [`FaultyEnv`] wraps any [`Environment`] to act the decision out
//! through the fallible [`Environment::try_step`] path.
//!
//! Four failure modes are modeled, mirroring the field taxonomy:
//!
//! * **transient** — the evaluation errors once; an immediate retry of
//!   the same action may succeed ([`ArchGymError::EvalFailed`]).
//! * **latched** — the evaluation errors *and* crashes the simulator:
//!   every subsequent evaluation is rejected with
//!   [`ArchGymError::EnvCrashed`] until [`Environment::reset`] is
//!   called (the retry loop does this between rounds).
//! * **corrupt** — the evaluation "succeeds" but reports a NaN reward
//!   and an infinite first metric; callers must treat non-finite
//!   results as failures.
//! * **stall** — the evaluation exceeds its step budget and surfaces
//!   [`ArchGymError::Timeout`].
//!
//! Because the schedule is a pure hash of `(seed, action, attempt)`, it
//! is identical regardless of worker count, evaluation order, or how
//! often *other* actions are evaluated — the property the resume and
//! `--jobs` determinism tests lean on. The only per-process state is
//! the attempt counter of each in-flight action (shared across cloned
//! replicas, cleared on success) and the crash latch.
//!
//! ```
//! use archgym_core::fault::{FaultPlan, FaultyEnv};
//! use archgym_core::prelude::*;
//! use archgym_core::toy::PeakEnv;
//!
//! let plan = FaultPlan::new(7).transient(0.5);
//! let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
//! let mut failures = 0;
//! for i in 0..8 {
//!     if env.try_step(&Action::new(vec![i])).is_err() {
//!         failures += 1;
//!     }
//! }
//! assert_eq!(failures as u64, env.stats().transient);
//! ```

use crate::env::{Environment, Observation, StepResult, TwinSet};
use crate::error::{ArchGymError, Result};
use crate::space::{Action, ParamSpace};
use crate::telemetry::{Counter, Recorder};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The outcome a [`FaultPlan`] schedules for one evaluation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Evaluate normally.
    None,
    /// Crash the simulator: fail this attempt and latch until `reset`.
    Latched,
    /// Exceed the step budget ([`ArchGymError::Timeout`]).
    Stall,
    /// Report a corrupted (NaN/Inf) result.
    Corrupt,
    /// Fail this attempt only ([`ArchGymError::EvalFailed`]).
    Transient,
}

/// A seeded, fully deterministic fault schedule.
///
/// `decide(action, attempt)` is a pure function — no interior state —
/// so the same seed yields the same injected faults no matter how the
/// evaluations are ordered or parallelized. Rates are independent
/// per-kind probabilities in `[0, 1]`; when several kinds fire on the
/// same attempt the most severe wins (latched > stall > corrupt >
/// transient).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    latched_rate: f64,
    corrupt_rate: f64,
    stall_rate: f64,
}

/// The split-mix finalizer: a cheap, well-distributed 64-bit mix.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and all fault rates at zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            latched_rate: 0.0,
            corrupt_rate: 0.0,
            stall_rate: 0.0,
        }
    }

    fn checked(rate: f64, what: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&rate),
            "{what} rate {rate} outside [0, 1]"
        );
        rate
    }

    /// Set the transient failure rate, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn transient(mut self, rate: f64) -> Self {
        self.transient_rate = Self::checked(rate, "transient");
        self
    }

    /// Set the latched-crash rate, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn latched(mut self, rate: f64) -> Self {
        self.latched_rate = Self::checked(rate, "latched");
        self
    }

    /// Set the corrupted-result rate, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn corrupt(mut self, rate: f64) -> Self {
        self.corrupt_rate = Self::checked(rate, "corrupt");
        self
    }

    /// Set the stall (timeout) rate, builder-style.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn stall(mut self, rate: f64) -> Self {
        self.stall_rate = Self::checked(rate, "stall");
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether every fault rate is zero (the wrapper is a passthrough).
    pub fn is_quiet(&self) -> bool {
        self.transient_rate == 0.0
            && self.latched_rate == 0.0
            && self.corrupt_rate == 0.0
            && self.stall_rate == 0.0
    }

    /// A uniform roll in `[0, 1)`, pure in `(seed, tag, action, attempt)`.
    fn roll(&self, tag: u64, action: &Action, attempt: u32) -> f64 {
        let mut h = mix(self.seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        for &index in action.iter() {
            h = mix(h ^ (index as u64).wrapping_add(0x2545_f491_4f6c_dd1d));
        }
        h = mix(h ^ u64::from(attempt));
        // 53 high bits → an exactly representable f64 in [0, 1).
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// What happens on the `attempt`-th evaluation of `action`
    /// (attempts are numbered from zero per settle episode).
    pub fn decide(&self, action: &Action, attempt: u32) -> FaultKind {
        // Independent per-kind rolls; most severe kind wins.
        if self.roll(1, action, attempt) < self.latched_rate {
            FaultKind::Latched
        } else if self.roll(2, action, attempt) < self.stall_rate {
            FaultKind::Stall
        } else if self.roll(3, action, attempt) < self.corrupt_rate {
            FaultKind::Corrupt
        } else if self.roll(4, action, attempt) < self.transient_rate {
            FaultKind::Transient
        } else {
            FaultKind::None
        }
    }
}

/// Counter snapshot of the faults a [`FaultyEnv`] has injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Transient failures injected.
    pub transient: u64,
    /// Latched crashes injected.
    pub latched: u64,
    /// Corrupted (NaN/Inf) results injected.
    pub corrupt: u64,
    /// Stalls (timeouts) injected.
    pub stall: u64,
    /// Evaluations rejected because the crash latch was set — knock-on
    /// [`ArchGymError::EnvCrashed`] rejections, not scheduled faults.
    pub crashed_rejections: u64,
}

impl FaultStats {
    /// Every failed outcome the wrapper has produced, scheduled or
    /// knock-on. Matches the search loop's `eval_failures` counter when
    /// this wrapper is the only failure source.
    pub fn total(&self) -> u64 {
        self.transient + self.latched + self.corrupt + self.stall + self.crashed_rejections
    }
}

#[derive(Debug, Default)]
struct StatsCells {
    transient: AtomicU64,
    latched: AtomicU64,
    corrupt: AtomicU64,
    stall: AtomicU64,
    crashed_rejections: AtomicU64,
}

/// An [`Environment`] wrapper that injects the faults a [`FaultPlan`]
/// schedules.
///
/// Cloned replicas (an [`EnvPool`](crate::pool::EnvPool) fan-out) share
/// the attempt counters, the crash latch, and the stats through `Arc`s,
/// so a pooled faulty run sees exactly one coherent fault state.
///
/// * [`Environment::try_step`] surfaces scheduled faults as errors (or
///   corrupted `Ok` results) — the path the retry machinery drives.
/// * [`Environment::step`] stays infallible: a failed attempt degrades
///   immediately to an infeasible penalty result (single attempt, no
///   retry) so the wrapper composes with legacy call sites.
/// * [`Environment::reset`] clears the crash latch (and forwards to the
///   inner environment) — the recovery step a latched crash demands.
///
/// Attempt counters are per-action, incremented on each genuine
/// evaluation, and cleared on success, so every settle episode of an
/// action replays the same fault prefix from attempt zero. Knock-on
/// `EnvCrashed` rejections consume no attempt — they are symptoms of
/// the latch, not evaluations — which keeps settled outcomes identical
/// across worker counts and across interrupt/resume boundaries.
#[derive(Debug, Clone)]
pub struct FaultyEnv<E> {
    inner: E,
    plan: FaultPlan,
    penalty: f64,
    attempts: Arc<Mutex<HashMap<Vec<usize>, u32>>>,
    latch: Arc<AtomicBool>,
    stats: Arc<StatsCells>,
    telemetry: Recorder,
}

impl<E: Environment> FaultyEnv<E> {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: E, plan: FaultPlan) -> Self {
        FaultyEnv {
            inner,
            plan,
            penalty: -1.0,
            attempts: Arc::new(Mutex::new(HashMap::new())),
            latch: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(StatsCells::default()),
            telemetry: Recorder::default(),
        }
    }

    /// Override the penalty reward the infallible [`Environment::step`]
    /// path reports for a failed attempt, builder-style.
    pub fn penalty(mut self, penalty: f64) -> Self {
        self.penalty = penalty;
        self
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether the crash latch is currently set.
    pub fn is_crashed(&self) -> bool {
        self.latch.load(Ordering::Relaxed)
    }

    /// Snapshot the injected-fault counters (shared across clones).
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.stats.transient.load(Ordering::Relaxed),
            latched: self.stats.latched.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            stall: self.stats.stall.load(Ordering::Relaxed),
            crashed_rejections: self.stats.crashed_rejections.load(Ordering::Relaxed),
        }
    }

    /// Unwrap, discarding the fault machinery.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Claim the next attempt number for `action`.
    fn next_attempt(&self, action: &Action) -> u32 {
        let mut attempts = self.attempts.lock().expect("fault attempt map poisoned");
        let slot = attempts.entry(action.as_slice().to_vec()).or_insert(0);
        let attempt = *slot;
        *slot += 1;
        attempt
    }

    /// Forget `action`'s attempt counter (evaluation succeeded).
    fn clear_attempts(&self, action: &Action) {
        self.attempts
            .lock()
            .expect("fault attempt map poisoned")
            .remove(action.as_slice());
    }
}

impl<E: Environment> Environment for FaultyEnv<E> {
    /// Reports the inner environment's name so datasets and journals
    /// are indistinguishable from fault-free runs.
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
        self.latch.store(false, Ordering::Relaxed);
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        // Infallible path: one attempt, failures degrade immediately.
        let width = self.inner.observation_labels().len();
        match self.try_step(action) {
            Ok(result) if result.reward.is_finite() => result,
            Ok(_) | Err(_) => {
                StepResult::infeasible(Observation::new(vec![0.0; width]), self.penalty)
                    .with_info("eval_degraded", 1.0)
            }
        }
    }
    fn try_step(&mut self, action: &Action) -> Result<StepResult> {
        self.attempt(action, false).map(|(result, _)| result)
    }
    /// Forwarded only on an attempt with no injected fault: a corrupted
    /// report is not the inner environment's, so no set may claim it.
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        self.attempt(action, true)
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.telemetry = recorder.clone();
        self.inner.set_telemetry(recorder);
    }
    /// Forwarded: a clean step is the inner environment's, and a faulted
    /// one (an error, a non-finite report or a degraded placeholder) is
    /// never cached, so twins keyed alike cannot replay a fault.
    fn canonical(&self, action: &Action) -> Option<Action> {
        self.inner.canonical(action)
    }
}

impl<E: Environment> FaultyEnv<E> {
    /// One attempt at `action`, injecting its scheduled fault. With
    /// `twins`, a clean attempt also asks the inner environment for its
    /// twin set.
    fn attempt(&mut self, action: &Action, twins: bool) -> Result<(StepResult, Option<TwinSet>)> {
        let clean = |inner: &mut E| {
            if twins {
                inner.try_step_with_twins(action)
            } else {
                inner.try_step(action).map(|result| (result, None))
            }
        };
        if self.plan.is_quiet() {
            return clean(&mut self.inner);
        }
        if self.latch.load(Ordering::Relaxed) {
            self.stats
                .crashed_rejections
                .fetch_add(1, Ordering::Relaxed);
            self.telemetry.incr(Counter::FaultCrashedRejections);
            return Err(ArchGymError::EnvCrashed(
                "simulator is down (latched crash); reset required".into(),
            ));
        }
        let attempt = self.next_attempt(action);
        match self.plan.decide(action, attempt) {
            FaultKind::None => {
                let stepped = clean(&mut self.inner)?;
                self.clear_attempts(action);
                Ok(stepped)
            }
            FaultKind::Transient => {
                self.stats.transient.fetch_add(1, Ordering::Relaxed);
                self.telemetry.incr(Counter::FaultTransient);
                Err(ArchGymError::EvalFailed(format!(
                    "injected transient fault (attempt {attempt})"
                )))
            }
            FaultKind::Stall => {
                self.stats.stall.fetch_add(1, Ordering::Relaxed);
                self.telemetry.incr(Counter::FaultStall);
                Err(ArchGymError::Timeout(format!(
                    "injected stall: step budget exceeded (attempt {attempt})"
                )))
            }
            FaultKind::Corrupt => {
                self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
                self.telemetry.incr(Counter::FaultCorrupt);
                let mut result = self.inner.try_step(action)?;
                result.reward = f64::NAN;
                if let Some(first) = result.observation.as_slice().first().copied() {
                    let mut values = result.observation.into_inner();
                    values[0] = if first < 0.0 {
                        f64::NEG_INFINITY
                    } else {
                        f64::INFINITY
                    };
                    result.observation = Observation::new(values);
                }
                Ok((result, None))
            }
            FaultKind::Latched => {
                self.stats.latched.fetch_add(1, Ordering::Relaxed);
                self.telemetry.incr(Counter::FaultLatched);
                self.latch.store(true, Ordering::Relaxed);
                Err(ArchGymError::EvalFailed(format!(
                    "injected latched crash (attempt {attempt}); reset required"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::PeakEnv;

    fn action(i: usize) -> Action {
        Action::new(vec![i])
    }

    #[test]
    fn quiet_plan_is_a_passthrough() {
        let mut plain = PeakEnv::new(&[8], vec![3]);
        let mut faulty = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), FaultPlan::new(1));
        for i in 0..8 {
            assert_eq!(faulty.try_step(&action(i)).unwrap(), plain.step(&action(i)));
        }
        assert_eq!(faulty.stats(), FaultStats::default());
        assert_eq!(faulty.name(), "peak");
        assert!(!faulty.is_crashed());
    }

    #[test]
    fn decide_is_pure_and_seed_sensitive() {
        let plan = FaultPlan::new(42)
            .transient(0.3)
            .latched(0.05)
            .corrupt(0.1)
            .stall(0.1);
        let other = FaultPlan::new(43)
            .transient(0.3)
            .latched(0.05)
            .corrupt(0.1)
            .stall(0.1);
        let mut diverged = false;
        for i in 0..64 {
            for attempt in 0..4 {
                let a = action(i);
                assert_eq!(plan.decide(&a, attempt), plan.decide(&a, attempt));
                diverged |= plan.decide(&a, attempt) != other.decide(&a, attempt);
            }
        }
        assert!(diverged, "seeds 42 and 43 scheduled identical faults");
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plan = FaultPlan::new(9).transient(0.25);
        let fails = (0..4000)
            .filter(|&i| plan.decide(&action(i), 0) == FaultKind::Transient)
            .count();
        // 4000 rolls at p=0.25: expect ~1000, allow wide slack.
        assert!((800..1200).contains(&fails), "{fails}");
    }

    #[test]
    fn transient_faults_clear_on_retry_and_counters_reset_on_success() {
        // Rate 1.0 at attempt 0 would never clear; instead probe for an
        // action whose attempt 0 faults but attempt 1 does not.
        let plan = FaultPlan::new(5).transient(0.5);
        let probe = (0..64)
            .find(|&i| {
                plan.decide(&action(i), 0) == FaultKind::Transient
                    && plan.decide(&action(i), 1) == FaultKind::None
            })
            .expect("some action faults once then clears");
        let mut env = FaultyEnv::new(PeakEnv::new(&[64], vec![3]), plan);
        assert!(env.try_step(&action(probe)).is_err());
        let ok = env.try_step(&action(probe)).unwrap();
        assert!(ok.reward.is_finite());
        // Counter cleared on success: the next visit replays attempt 0.
        assert!(env.try_step(&action(probe)).is_err());
        assert_eq!(env.stats().transient, 2);
    }

    #[test]
    fn latched_crash_rejects_until_reset() {
        let plan = FaultPlan::new(0).latched(1.0);
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
        assert!(matches!(
            env.try_step(&action(0)),
            Err(ArchGymError::EvalFailed(_))
        ));
        assert!(env.is_crashed());
        // Any action is now rejected without consuming an attempt.
        assert!(matches!(
            env.try_step(&action(5)),
            Err(ArchGymError::EnvCrashed(_))
        ));
        env.reset();
        assert!(!env.is_crashed());
        // Action 5's first *genuine* attempt is still attempt 0.
        assert!(matches!(
            env.try_step(&action(5)),
            Err(ArchGymError::EvalFailed(_))
        ));
        let stats = env.stats();
        assert_eq!(stats.latched, 2);
        assert_eq!(stats.crashed_rejections, 1);
        assert_eq!(stats.total(), 3);
    }

    #[test]
    fn corrupt_results_are_non_finite_but_ok() {
        let plan = FaultPlan::new(3).corrupt(1.0);
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
        let result = env.try_step(&action(3)).unwrap();
        assert!(result.reward.is_nan());
        assert!(result.observation.get(0).is_infinite());
        assert_eq!(env.stats().corrupt, 1);
    }

    #[test]
    fn stalls_surface_as_timeouts() {
        let plan = FaultPlan::new(3).stall(1.0);
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
        assert!(matches!(
            env.try_step(&action(1)),
            Err(ArchGymError::Timeout(_))
        ));
        assert_eq!(env.stats().stall, 1);
    }

    #[test]
    fn infallible_step_degrades_to_penalty() {
        let plan = FaultPlan::new(3).transient(1.0);
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan).penalty(-7.0);
        let result = env.step(&action(2));
        assert!(!result.feasible);
        assert_eq!(result.reward, -7.0);
        assert_eq!(result.info["eval_degraded"], 1.0);
        assert_eq!(
            result.observation.len(),
            env.inner().observation_labels().len()
        );
    }

    #[test]
    fn clones_share_latch_attempts_and_stats() {
        let plan = FaultPlan::new(0).latched(1.0);
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
        let mut replica = env.clone();
        assert!(env.try_step(&action(0)).is_err());
        assert!(replica.is_crashed());
        assert!(matches!(
            replica.try_step(&action(1)),
            Err(ArchGymError::EnvCrashed(_))
        ));
        replica.reset();
        assert!(!env.is_crashed());
        assert_eq!(env.stats(), replica.stats());
        assert_eq!(env.stats().crashed_rejections, 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn rates_outside_unit_interval_are_rejected() {
        let _ = FaultPlan::new(0).transient(1.5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Same seed ⇒ same schedule, independent of evaluation
            /// order (purity is what makes the schedule `--jobs`- and
            /// resume-invariant).
            #[test]
            fn prop_schedule_is_deterministic(
                seed in any::<u64>(),
                indices in proptest::collection::vec(0usize..1000, 1..6),
                attempt in 0u32..8,
            ) {
                let plan = FaultPlan::new(seed)
                    .transient(0.2).latched(0.05).corrupt(0.1).stall(0.1);
                let a = Action::new(indices);
                let first = plan.decide(&a, attempt);
                // Interleave decisions about other actions: purity means
                // they cannot perturb the original decision.
                for other in 0..16usize {
                    let _ = plan.decide(&Action::new(vec![other]), attempt);
                }
                prop_assert_eq!(plan.decide(&a, attempt), first);
            }

            /// Rolls stay inside [0, 1) for any seed/action/attempt.
            #[test]
            fn prop_rolls_are_unit_interval(
                seed in any::<u64>(),
                index in any::<usize>(),
                attempt in any::<u32>(),
            ) {
                let plan = FaultPlan::new(seed).transient(1.0);
                let r = plan.roll(4, &Action::new(vec![index]), attempt);
                prop_assert!((0.0..1.0).contains(&r));
            }
        }
    }
}
