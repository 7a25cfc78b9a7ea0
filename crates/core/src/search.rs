//! The agent↔environment driver loop.
//!
//! [`SearchLoop`] runs an [`Agent`] against an [`Environment`] under a
//! sample budget (the paper's normalization axis, Section 6.2), recording
//! every interaction into a [`Dataset`] and tracking the best design found.
//!
//! The loop is *fault-tolerant*: evaluations flow through the fallible
//! [`BatchEvaluator::try_eval_batch`] path, failed outcomes (transient
//! errors, timeouts, NaN/Inf-corrupted results, worker panics) are
//! retried per the run's [`RetryPolicy`], and a design point that
//! exhausts its retries degrades to the paper's infeasible-penalty
//! semantics instead of aborting the run. Given a [`RunIo::journal`],
//! [`SearchLoop::run_with`] additionally journals every transition to disk
//! ([`RunJournal`](crate::journal::RunJournal)) so a killed run resumes
//! bit-identically from where it stopped.

use crate::agent::Agent;
use crate::codec::Json;
use crate::env::{Environment, Observation, StepResult};
use crate::error::{ArchGymError, Result};
use crate::executor::CoreBudget;
use crate::journal::{JournalHeader, JournalRecord, JournalStep, RunJournal, JOURNAL_VERSION};
use crate::pool::{BatchEvaluator, EnvPool};
use crate::screen::{select_admitted, Screener};
use crate::space::Action;
use crate::telemetry::{Counter, Phase, Recorder, RunReport};
use crate::trajectory::{Dataset, Transition};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::path::Path;
use std::time::Instant;

/// Fallback proposal batch size when neither the config nor the agent
/// pins one down.
const DEFAULT_BATCH: usize = 16;

const JOURNAL_LESS: &str = "journal-less runs cannot fail";

/// How the search loop handles failed evaluations: how often to retry a
/// failed design point, how long to back off between retry rounds, and
/// the penalty reward a point degrades to once its retries are spent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retry rounds granted to a failing design point beyond its first
    /// attempt. `0` degrades on the first failure.
    pub max_retries: u32,
    /// Base backoff between retry rounds in milliseconds, doubled each
    /// round (capped). `0` (the default) retries immediately — injected
    /// faults need no cool-down, real crashed simulators might.
    pub backoff_ms: u64,
    /// Penalty reward assigned to a degraded design point, mirroring
    /// the infeasible-point penalty of the paper's reward formulation.
    pub penalty: f64,
}

impl RetryPolicy {
    /// A policy granting `max_retries` retries with no backoff and the
    /// default `-1.0` penalty.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff_ms: 0,
            penalty: -1.0,
        }
    }

    /// Set the base backoff, builder-style.
    pub fn backoff_ms(mut self, backoff_ms: u64) -> Self {
        self.backoff_ms = backoff_ms;
        self
    }

    /// Set the degrade penalty, builder-style.
    pub fn penalty(mut self, penalty: f64) -> Self {
        self.penalty = penalty;
        self
    }
}

impl Default for RetryPolicy {
    /// Two immediate retries, penalty `-1.0`.
    fn default() -> Self {
        RetryPolicy::new(2)
    }
}

/// Configuration of one search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Maximum number of simulator samples the agent may consume — the
    /// paper compares agents at budgets of 100 / 1k / 10k / 100k samples.
    pub sample_budget: u64,
    /// Upper bound on the batch size requested from [`Agent::propose`].
    /// Population-based agents use it as their generation size. `0`
    /// means *auto*: use the agent's [`Agent::batch_hint`] (its whole
    /// generation) when it has one, else 16.
    pub batch: usize,
    /// Record every transition into the run's dataset. Disable for very
    /// long runs where only the best design matters.
    pub record: bool,
    /// Worker threads for in-run batch evaluation via
    /// [`SearchLoop::run_env_with`]: `1` (default) evaluates serially on
    /// the caller's thread, `0` uses every available hardware thread,
    /// `n > 1` fans batches across `n` environment replicas. Results
    /// are bit-identical at any setting.
    pub jobs: usize,
    /// Retry/degrade policy for failed evaluations.
    pub retry: RetryPolicy,
}

impl RunConfig {
    /// A run with the given sample budget, a batch size of 16, serial
    /// evaluation, and the default retry policy.
    pub fn with_budget(sample_budget: u64) -> Self {
        RunConfig {
            sample_budget,
            batch: 16,
            record: true,
            jobs: 1,
            retry: RetryPolicy::default(),
        }
    }

    /// Override the proposal batch size, builder-style (`0` = auto).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Toggle transition recording, builder-style.
    pub fn record(mut self, record: bool) -> Self {
        self.record = record;
        self
    }

    /// Set in-run evaluation workers, builder-style (`0` = all cores).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Set the retry/degrade policy, builder-style.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig::with_budget(1_000)
    }
}

/// The optional inputs of one [`SearchLoop::run_with`] call. The
/// default — neither field set — is a plain in-memory run.
#[derive(Default)]
pub struct RunIo<'a> {
    /// Journal the run to this path, resuming from any journal of the
    /// same run already there.
    pub journal: Option<&'a Path>,
    /// Screen proposals through this online proxy before they reach
    /// the true evaluator.
    pub screener: Option<&'a mut dyn Screener>,
}

impl<'a> RunIo<'a> {
    /// Journaled to `path`, unscreened.
    pub fn journaled(path: &'a Path) -> Self {
        RunIo {
            journal: Some(path),
            screener: None,
        }
    }

    /// Screened through `screener`, not journaled.
    pub fn screened(screener: &'a mut dyn Screener) -> Self {
        RunIo {
            journal: None,
            screener: Some(screener),
        }
    }
}

/// Everything a finished run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Agent identifier.
    pub agent: String,
    /// Environment identifier.
    pub env: String,
    /// Best reward observed.
    pub best_reward: f64,
    /// The action achieving [`RunResult::best_reward`].
    pub best_action: Action,
    /// Observation metrics of the best design.
    pub best_observation: Vec<f64>,
    /// Simulator samples actually consumed.
    pub samples_used: u64,
    /// Wall-clock duration of the run in seconds (the paper's Fig. 8
    /// time-to-completion axis).
    pub wall_seconds: f64,
    /// Reward after each evaluation — the best-so-far curve is derivable
    /// from this; empty when recording was disabled.
    pub reward_history: Vec<f64>,
    /// Every recorded transition (empty when recording was disabled).
    pub dataset: Dataset,
    /// Retry rounds consumed by failing evaluations.
    pub eval_retries: u64,
    /// Failed evaluation outcomes observed (errors, timeouts, corrupted
    /// results, crashed-state rejections, worker panics) — every one of
    /// them retried or degraded, never fatal.
    pub eval_failures: u64,
    /// Samples that exhausted their retries and degraded to the
    /// [`RetryPolicy::penalty`] infeasible result.
    pub degraded_samples: u64,
    /// Candidate proposals ranked by the online proxy screen (zero in
    /// proxy-off runs).
    pub proxy_screened: u64,
    /// Screened candidates admitted to true evaluation.
    pub proxy_admitted: u64,
    /// Online proxy model (re)fits performed during the run.
    pub proxy_refits: u64,
    /// Telemetry snapshot of the run — `None` unless the driver was
    /// built with [`SearchLoop::with_telemetry`] and an enabled
    /// [`Recorder`].
    pub telemetry: Option<RunReport>,
}

impl RunResult {
    /// The best-so-far reward curve (prefix maximum of the history).
    pub fn best_so_far(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        self.reward_history
            .iter()
            .map(|&r| {
                best = best.max(r);
                best
            })
            .collect()
    }

    /// Number of simulator samples spent before the reward first reached
    /// `threshold` — the paper's sample-efficiency metric ("the number of
    /// requisite samples before reaching an optimal solution",
    /// Section 2). `None` if the run never reached it or recording was
    /// disabled.
    pub fn samples_to_reach(&self, threshold: f64) -> Option<u64> {
        self.reward_history
            .iter()
            .position(|&r| r >= threshold)
            .map(|i| i as u64 + 1)
    }
}

/// A fully settled evaluation: the final result of one proposed action
/// after any retries and degradation.
struct Settled {
    result: StepResult,
    retries: u64,
    faults: u64,
    degraded: bool,
}

impl Settled {
    fn from_journal(step: JournalStep) -> Self {
        Settled {
            result: StepResult {
                observation: Observation::new(step.observation),
                reward: step.reward,
                done: step.done,
                feasible: step.feasible,
                // Read back from text, the names are owned here.
                info: step.info.into_iter().collect(),
            },
            retries: step.retries,
            faults: step.faults,
            degraded: step.degraded,
        }
    }

    fn to_journal(&self, index: usize) -> JournalStep {
        JournalStep {
            index,
            reward: self.result.reward,
            observation: self.result.observation.as_slice().to_vec(),
            done: self.result.done,
            feasible: self.result.feasible,
            info: self
                .result
                .info
                .iter()
                .map(|(name, &value)| (name.to_owned(), value))
                .collect(),
            retries: self.retries,
            faults: self.faults,
            degraded: self.degraded,
        }
    }
}

/// One journaled batch awaiting replay.
struct ReplayBatch {
    actions: Vec<Vec<usize>>,
    /// The journaled proxy admission decision, if the batch was
    /// screened (`None` for plain batches and for batches whose run
    /// crashed between the batch and screen records).
    screen: Option<Vec<usize>>,
    steps: Vec<Option<JournalStep>>,
}

/// Drives one agent against one environment.
///
/// ```
/// use archgym_core::agent::RandomWalker;
/// use archgym_core::prelude::*;
/// use archgym_core::search::SearchLoop;
/// # use archgym_core::space::ParamSpace;
/// # struct Toy { space: ParamSpace }
/// # impl Environment for Toy {
/// #     fn name(&self) -> &str { "toy" }
/// #     fn space(&self) -> &ParamSpace { &self.space }
/// #     fn observation_labels(&self) -> Vec<String> { vec!["cost".into()] }
/// #     fn step(&mut self, action: &Action) -> StepResult {
/// #         let x = action.index(0) as f64;
/// #         StepResult::terminal(Observation::new(vec![x]), -(x - 3.0).abs())
/// #     }
/// # }
/// let space = ParamSpace::builder().int("x", 0, 15, 1).build()?;
/// let mut env = Toy { space: space.clone() };
/// let mut agent = RandomWalker::new(space, 0);
/// let result = SearchLoop::new(RunConfig::with_budget(64)).run(&mut agent, &mut env);
/// assert_eq!(result.samples_used, 64);
/// assert!(result.best_reward <= 0.0);
/// # Ok::<(), ArchGymError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SearchLoop {
    config: RunConfig,
    telemetry: Recorder,
    journal_io: std::sync::Arc<dyn crate::storeio::StoreIo>,
    durability: crate::storeio::Durability,
}

impl SearchLoop {
    /// Create a driver with the given configuration and telemetry
    /// disabled.
    pub fn new(config: RunConfig) -> Self {
        SearchLoop {
            config,
            telemetry: Recorder::default(),
            journal_io: crate::storeio::real_io(),
            durability: crate::storeio::Durability::None,
        }
    }

    /// Attach a telemetry recorder, builder-style. The driver installs
    /// the handle on the evaluator stack (environment wrappers, pool
    /// replicas, executor) and the journal at run start, times the
    /// propose/evaluate/settle/journal phases, and snapshots everything
    /// into [`RunResult::telemetry`].
    pub fn with_telemetry(mut self, recorder: Recorder) -> Self {
        self.telemetry = recorder;
        self
    }

    /// Route journaled runs' journal file I/O through `io`,
    /// builder-style. The default is the real filesystem;
    /// tests install a [`FaultyIo`](crate::storeio::FaultyIo) here to
    /// exercise crash/corruption paths deterministically.
    pub fn with_journal_io(mut self, io: std::sync::Arc<dyn crate::storeio::StoreIo>) -> Self {
        self.journal_io = io;
        self
    }

    /// Set the journal fsync policy, builder-style. The default is
    /// [`Durability::None`](crate::storeio::Durability::None) — flush
    /// to the OS only, matching pre-durability behaviour.
    pub fn with_durability(mut self, durability: crate::storeio::Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The driver's configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The driver's telemetry handle (disabled unless
    /// [`SearchLoop::with_telemetry`] installed one).
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// [`SearchLoop::run_with`] on an environment taken by value,
    /// honoring the config's [`jobs`](RunConfig::jobs) knob: `jobs == 1`
    /// evaluates serially, anything else fans batches across an
    /// [`EnvPool`] of cloned replicas. The report is bit-identical at
    /// any job count.
    ///
    /// # Errors
    ///
    /// See [`SearchLoop::run_with`].
    pub fn run_env_with<A, E>(&self, agent: &mut A, env: E, io: RunIo<'_>) -> Result<RunResult>
    where
        A: Agent + ?Sized,
        E: Environment + Clone + Send,
    {
        if self.config.jobs == 1 {
            let mut env = env;
            self.run_with(agent, &mut env, io)
        } else {
            self.run_with(agent, &mut EnvPool::new(env, self.config.jobs), io)
        }
    }

    /// [`SearchLoop::run_with`] without journal or screener.
    pub fn run<A, E>(&self, agent: &mut A, eval: &mut E) -> RunResult
    where
        A: Agent + ?Sized,
        E: BatchEvaluator + ?Sized,
    {
        self.run_with(agent, eval, RunIo::default())
            .expect(JOURNAL_LESS)
    }

    /// [`SearchLoop::run_with`] with a screener and no journal.
    pub fn run_screened<A, E>(
        &self,
        agent: &mut A,
        eval: &mut E,
        screener: &mut dyn Screener,
    ) -> RunResult
    where
        A: Agent + ?Sized,
        E: BatchEvaluator + ?Sized,
    {
        self.run_with(agent, eval, RunIo::screened(screener))
            .expect(JOURNAL_LESS)
    }

    /// [`SearchLoop::run_env_with`] without journal or screener.
    pub fn run_pooled<A, E>(&self, agent: &mut A, env: E) -> RunResult
    where
        A: Agent + ?Sized,
        E: Environment + Clone + Send,
    {
        self.run_env_with(agent, env, RunIo::default())
            .expect(JOURNAL_LESS)
    }

    /// [`SearchLoop::run_env_with`] journaled to `path`, unscreened.
    ///
    /// # Errors
    ///
    /// See [`SearchLoop::run_with`].
    pub fn run_resumable_pooled<A, E>(
        &self,
        agent: &mut A,
        env: E,
        path: impl AsRef<Path>,
    ) -> Result<RunResult>
    where
        A: Agent + ?Sized,
        E: Environment + Clone + Send,
    {
        self.run_env_with(agent, env, RunIo::journaled(path.as_ref()))
    }

    /// Evaluate one proposed batch to completion: evaluate all pending
    /// positions, retry failures (resetting the environment between
    /// rounds, which recovers latched crashes), and degrade positions
    /// that exhaust [`RetryPolicy::max_retries`] charged failures to
    /// the infeasible penalty. Knock-on
    /// [`ArchGymError::EnvCrashed`] rejections count as observed faults
    /// but are *not* charged against a position's retries — they are
    /// symptoms of a neighbor's crash, not verdicts on the position.
    fn settle_batch<E>(
        eval: &mut E,
        actions: &[Action],
        policy: &RetryPolicy,
        rec: &Recorder,
    ) -> Vec<Settled>
    where
        E: BatchEvaluator + ?Sized,
    {
        let _settle_span = rec.span(Phase::Settle);
        let n = actions.len();
        // The placeholder of a position that exhausts its retries. The
        // width is asked for only then: it builds the label list.
        let degraded_result = |eval: &E| {
            let width = eval.observation_width();
            StepResult::infeasible(Observation::new(vec![0.0; width]), policy.penalty)
                .with_info("degraded", 1.0)
        };
        let mut slots: Vec<Option<StepResult>> = (0..n).map(|_| None).collect();
        let mut charges = vec![0u32; n];
        let mut retries = vec![0u64; n];
        let mut faults = vec![0u64; n];
        let mut degraded = vec![false; n];
        // Each round settles or charges at least one position (only
        // uncharged EnvCrashed rejections stall, and the post-reset
        // leading position always gets a genuine outcome), so this cap
        // is never reached in practice — it is a hard backstop against
        // a pathological evaluator that crashes without recovery.
        let max_rounds = (u64::from(policy.max_retries) + 2) * n as u64 + 4;

        let mut round = 0u64;
        loop {
            let pending: Vec<usize> = (0..n).filter(|&i| slots[i].is_none()).collect();
            if pending.is_empty() {
                break;
            }
            if round > max_rounds {
                for &i in &pending {
                    slots[i] = Some(degraded_result(eval));
                    degraded[i] = true;
                }
                break;
            }
            if round > 0 {
                if policy.backoff_ms > 0 {
                    let _backoff_span = rec.span(Phase::RetryBackoff);
                    let exp = (round - 1).min(6) as u32;
                    let delay = policy.backoff_ms.saturating_mul(1 << exp).min(10_000);
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                // Recover latched crashes before re-attempting; bundled
                // environments are stateless between designs, so this
                // is a no-op for them.
                eval.reset_env();
                for &i in &pending {
                    retries[i] += 1;
                }
            }
            let outcomes = {
                let _eval_span = rec.span(Phase::Evaluate);
                if round == 0 {
                    // Every position is pending: evaluate the batch in place.
                    eval.try_eval_batch(actions)
                } else {
                    let subset: Vec<Action> = pending.iter().map(|&i| actions[i].clone()).collect();
                    eval.try_eval_batch(&subset)
                }
            };
            debug_assert_eq!(outcomes.len(), pending.len());
            for (&i, outcome) in pending.iter().zip(outcomes) {
                match outcome {
                    Ok(result)
                        if result.reward.is_finite()
                            && result.observation.as_slice().iter().all(|v| v.is_finite()) =>
                    {
                        slots[i] = Some(result);
                    }
                    // A non-finite reward/metric is a corrupted report:
                    // treat it exactly like an evaluation error.
                    Ok(_) | Err(ArchGymError::EvalFailed(_)) | Err(ArchGymError::Timeout(_)) => {
                        faults[i] += 1;
                        charges[i] += 1;
                    }
                    // Knock-on rejection from a latched crash: observed
                    // but uncharged (the reset before the next round
                    // clears the latch).
                    Err(ArchGymError::EnvCrashed(_)) => {
                        faults[i] += 1;
                    }
                    Err(_) => {
                        faults[i] += 1;
                        charges[i] += 1;
                    }
                }
            }
            for &i in &pending {
                if slots[i].is_none() && charges[i] > policy.max_retries {
                    slots[i] = Some(degraded_result(eval));
                    degraded[i] = true;
                }
            }
            round += 1;
        }

        slots
            .into_iter()
            .enumerate()
            .map(|(i, result)| Settled {
                result: result.expect("every slot settled"),
                retries: retries[i],
                faults: faults[i],
                degraded: degraded[i],
            })
            .collect()
    }

    /// Run `agent` against `eval` until the sample budget is exhausted
    /// or the agent stops proposing. This is the single search entry
    /// point; every other method forwards here.
    ///
    /// `eval` is any [`BatchEvaluator`] — a plain [`Environment`]
    /// (evaluated serially, via the blanket impl) or an [`EnvPool`]
    /// (evaluated in parallel). Both yield bit-identical reports.
    /// Failed evaluations are retried and degraded per the config's
    /// [`RetryPolicy`].
    ///
    /// With [`RunIo::journal`], the run is journaled and resumable:
    /// every proposed batch is logged *before* evaluation and every
    /// settled result after it. If the path holds a journal from an
    /// earlier (interrupted) run of the *same* configuration, that
    /// prefix is replayed — the agent re-proposes deterministically,
    /// journaled results are fed back without touching the simulator,
    /// and only the un-journaled tail is evaluated live — so the report
    /// is bit-identical to an uninterrupted run.
    ///
    /// With [`RunIo::screener`], once the screener has warmed up on the
    /// run's own settled samples, each proposal batch is over-sampled,
    /// ranked through the proxy, and only the admitted slice (top-k by
    /// predicted reward plus an uncertainty exploration slice) reaches
    /// the true evaluator. Admission decisions are journaled as
    /// `screen` records, so screened runs resume bit-identically too.
    ///
    /// # Errors
    ///
    /// Returns [`ArchGymError::Journal`] on journal I/O failures or
    /// when the journal belongs to a different run (different
    /// env/agent/budget/batch, or a diverging agent or screening
    /// decision trace). Journal-less runs never fail.
    pub fn run_with<A, E>(&self, agent: &mut A, eval: &mut E, io: RunIo<'_>) -> Result<RunResult>
    where
        A: Agent + ?Sized,
        E: BatchEvaluator + ?Sized,
    {
        // A running search occupies a core: hold it for this thread, so
        // that fan-outs beneath (pool batches, proxy refits) and beside
        // it (other searches' fan-outs) spread onto idle cores only.
        let _core = CoreBudget::global().hold();
        let mut journal_file = match io.journal {
            Some(path) => Some(RunJournal::open_with(
                path,
                std::sync::Arc::clone(&self.journal_io),
                self.durability,
            )?),
            None => None,
        };
        let mut journal = journal_file.as_mut();
        let mut screener = io.screener;
        let start = Instant::now();
        let policy = self.config.retry;
        // Install the telemetry handle on every layer reachable from
        // here: the evaluator stack (wrappers, pool replicas, executor),
        // the journal writer, and the proxy screener. A disabled
        // recorder makes all of this free (one branch per site).
        let rec = self.telemetry.clone();
        eval.set_telemetry(&rec);
        if let Some(j) = journal.as_deref_mut() {
            j.set_telemetry(&rec);
        }
        if let Some(s) = screener.as_deref_mut() {
            s.set_telemetry(&rec);
        }

        // Validate or create the journal header, then stage the
        // recovered records for replay.
        let mut replay: VecDeque<ReplayBatch> = VecDeque::new();
        if let Some(j) = journal.as_deref_mut() {
            match j.header() {
                Some(h) => {
                    let live = (
                        eval.env_name(),
                        agent.name(),
                        self.config.sample_budget,
                        self.config.batch as u64,
                    );
                    if (h.env.as_str(), h.agent.as_str(), h.budget, h.batch) != live {
                        return Err(ArchGymError::Journal(format!(
                            "journal belongs to a different run \
                             (journal: env {} agent {} budget {} batch {}; \
                             live: env {} agent {} budget {} batch {})",
                            h.env, h.agent, h.budget, h.batch, live.0, live.1, live.2, live.3
                        )));
                    }
                }
                None => {
                    j.append(&JournalRecord::Header(JournalHeader {
                        version: JOURNAL_VERSION,
                        env: eval.env_name().to_owned(),
                        agent: agent.name().to_owned(),
                        budget: self.config.sample_budget,
                        batch: self.config.batch as u64,
                    }))?;
                }
            }
            for record in j.records() {
                match record {
                    JournalRecord::Header(_) => {} // open() pinned it to index 0
                    JournalRecord::Batch(actions) => replay.push_back(ReplayBatch {
                        steps: (0..actions.len()).map(|_| None).collect(),
                        screen: None,
                        actions: actions.clone(),
                    }),
                    JournalRecord::Screen(admitted) => {
                        let batch = replay.back_mut().ok_or_else(|| {
                            ArchGymError::Journal("screen record before any batch record".into())
                        })?;
                        if admitted.iter().any(|&i| i >= batch.actions.len()) {
                            return Err(ArchGymError::Journal(format!(
                                "screen record admits an index outside its batch of {}",
                                batch.actions.len()
                            )));
                        }
                        batch.screen = Some(admitted.clone());
                    }
                    JournalRecord::Step(step) => {
                        let batch = replay.back_mut().ok_or_else(|| {
                            ArchGymError::Journal("step record before any batch record".into())
                        })?;
                        let slot = batch.steps.get_mut(step.index).ok_or_else(|| {
                            ArchGymError::Journal(format!(
                                "step index {} outside its batch of {}",
                                step.index,
                                batch.actions.len()
                            ))
                        })?;
                        *slot = Some(step.clone());
                    }
                }
            }
        }

        let mut samples_used = 0u64;
        let mut best_reward = f64::NEG_INFINITY;
        let mut best_action: Option<Action> = None;
        let mut best_observation = Vec::new();
        let mut reward_history = Vec::new();
        let mut dataset = Dataset::new();
        // Every recorded transition shares these two labels.
        let env_label: std::sync::Arc<str> = eval.env_name().into();
        let agent_label: std::sync::Arc<str> = agent.name().into();
        let mut eval_retries = 0u64;
        let mut eval_failures = 0u64;
        let mut degraded_samples = 0u64;
        eval.reset_env();
        let batch_cap = match self.config.batch {
            0 => agent.batch_hint().unwrap_or(DEFAULT_BATCH),
            n => n,
        }
        .max(1);

        let mut screened_batches = 0u64;
        let mut proxy_screened = 0u64;
        let mut proxy_admitted = 0u64;
        let mut pred_means: Vec<f64> = Vec::new();
        let mut pred_vars: Vec<f64> = Vec::new();

        while samples_used < self.config.sample_budget {
            let remaining = (self.config.sample_budget - samples_used) as usize;
            // Screening is active once the screener has warmed up on
            // the run's own samples and has not disabled itself on
            // drift; until then batches behave exactly like a
            // proxy-off run.
            let screening = screener.as_deref().is_some_and(|s| s.is_ready());
            let propose_cap = if screening {
                let oversample = screener
                    .as_deref()
                    .map_or(1, |s| s.policy().oversample.max(1));
                batch_cap.saturating_mul(oversample)
            } else {
                batch_cap.min(remaining)
            };
            let mut actions = {
                let _propose_span = rec.span(Phase::Propose);
                agent.propose(propose_cap)
            };
            if actions.is_empty() {
                break; // agent converged
            }
            rec.incr(Counter::Batches);
            // A misbehaving agent may ignore max_batch; never evaluate
            // past the budget (plain mode) or rank past the
            // over-sampled candidate window (screened mode — admission
            // is capped to the remaining budget below).
            actions.truncate(if screening { propose_cap } else { remaining });

            // The screen's admission decision: which candidate indices
            // reach the true evaluator. Plain batches admit everything.
            let mut revalidating = false;
            let admitted: Vec<usize> = if screening {
                let s = screener
                    .as_deref_mut()
                    .expect("screening implies a screener");
                let pol = s.policy();
                screened_batches += 1;
                {
                    let _proxy_span = rec.span(Phase::Proxy);
                    s.predict(&actions, &mut pred_means, &mut pred_vars);
                }
                revalidating = pol.revalidate_every > 0
                    && screened_batches.is_multiple_of(pol.revalidate_every);
                let admitted = if revalidating {
                    // Drift check: the whole candidate batch is truly
                    // evaluated and predictions are graded against it.
                    rec.incr(Counter::ProxyRevalidations);
                    (0..actions.len().min(remaining)).collect()
                } else {
                    select_admitted(
                        &pred_means,
                        &pred_vars,
                        pol.top_k,
                        pol.explore_frac,
                        remaining,
                    )
                };
                proxy_screened += actions.len() as u64;
                proxy_admitted += admitted.len() as u64;
                rec.add(Counter::ProxyScreened, actions.len() as u64);
                rec.add(Counter::ProxyAdmitted, admitted.len() as u64);
                admitted
            } else {
                (0..actions.len()).collect()
            };

            let settled: Vec<(usize, Settled)> = if let Some(mut batch) = replay.pop_front() {
                // Replay: the agent must re-propose exactly what the
                // journal recorded (it is deterministic in its seed).
                let diverged = batch.actions.len() != actions.len()
                    || batch
                        .actions
                        .iter()
                        .zip(&actions)
                        .any(|(logged, live)| logged.as_slice() != live.as_slice());
                if diverged {
                    return Err(ArchGymError::Journal(
                        "agent replay diverged from the journal — was the seed, agent, \
                         or environment configuration changed since the journal was written?"
                            .into(),
                    ));
                }
                // The screening decision must replay identically too:
                // the screener is deterministic in its seed and sample
                // stream, so a recomputed decision that differs from
                // the journaled one means the configuration changed.
                match (&batch.screen, screening) {
                    (None, false) => {}
                    (Some(logged), true) => {
                        if logged != &admitted {
                            return Err(ArchGymError::Journal(
                                "proxy screen replay diverged from the journal — was the \
                                 proxy policy or seed changed since the journal was written?"
                                    .into(),
                            ));
                        }
                    }
                    (None, true) => {
                        // The original run crashed between the batch
                        // and screen records; journal the recomputed
                        // (identical) decision and settle live below.
                        if let Some(j) = journal.as_deref_mut() {
                            j.append(&JournalRecord::Screen(admitted.clone()))?;
                        }
                    }
                    (Some(_), false) => {
                        return Err(ArchGymError::Journal(
                            "journal holds proxy screen records but the live run is not \
                             screening — was the proxy configuration removed?"
                                .into(),
                        ));
                    }
                }
                // Journaled positions are absorbed without touching the
                // simulator; the un-journaled tail settles live.
                let missing: Vec<usize> = admitted
                    .iter()
                    .copied()
                    .filter(|&i| batch.steps[i].is_none())
                    .collect();
                // Absorbed journal steps are *replayed*, not settled:
                // the split is what keeps a resume from double-counting
                // work the original run already did.
                rec.add(
                    Counter::SamplesReplayed,
                    (admitted.len() - missing.len()) as u64,
                );
                rec.add(Counter::SamplesSettled, missing.len() as u64);
                let mut slots: Vec<Option<Settled>> = batch
                    .steps
                    .drain(..)
                    .map(|step| step.map(Settled::from_journal))
                    .collect();
                if !missing.is_empty() {
                    let subset: Vec<Action> = missing.iter().map(|&i| actions[i].clone()).collect();
                    let live = Self::settle_batch(eval, &subset, &policy, &rec);
                    for (&i, settled) in missing.iter().zip(live) {
                        if let Some(j) = journal.as_deref_mut() {
                            j.append(&JournalRecord::Step(settled.to_journal(i)))?;
                        }
                        slots[i] = Some(settled);
                    }
                }
                admitted
                    .iter()
                    .map(|&i| {
                        (
                            i,
                            slots[i].take().expect("every admitted replay slot settled"),
                        )
                    })
                    .collect()
            } else {
                // Live: log the proposal before evaluating (write-ahead),
                // then the admission decision, then the settled results.
                if let Some(j) = journal.as_deref_mut() {
                    j.append(&JournalRecord::Batch(
                        actions.iter().map(|a| a.as_slice().to_vec()).collect(),
                    ))?;
                    if screening {
                        j.append(&JournalRecord::Screen(admitted.clone()))?;
                    }
                }
                let settled = if screening {
                    let subset: Vec<Action> =
                        admitted.iter().map(|&i| actions[i].clone()).collect();
                    Self::settle_batch(eval, &subset, &policy, &rec)
                } else {
                    Self::settle_batch(eval, &actions, &policy, &rec)
                };
                rec.add(Counter::SamplesSettled, settled.len() as u64);
                if let Some(j) = journal.as_deref_mut() {
                    for (&i, s) in admitted.iter().zip(settled.iter()) {
                        j.append(&JournalRecord::Step(s.to_journal(i)))?;
                    }
                }
                admitted.iter().copied().zip(settled).collect()
            };

            let mut results: Vec<(Action, StepResult)> = Vec::with_capacity(settled.len());
            let mut train_actions: Vec<Action> = Vec::new();
            let mut train_rewards: Vec<f64> = Vec::new();
            let mut reval_pred: Vec<f64> = Vec::new();
            let mut reval_actual: Vec<f64> = Vec::new();
            let (mut batch_retries, mut batch_faults, mut batch_degraded) = (0u64, 0u64, 0u64);
            for (index, settled) in settled {
                // Each admitted index is visited exactly once, so the
                // action can be moved out of the candidate list.
                let action = std::mem::replace(&mut actions[index], Action::new(Vec::new()));
                samples_used += 1;
                eval_retries += settled.retries;
                eval_failures += settled.faults;
                degraded_samples += u64::from(settled.degraded);
                batch_retries += settled.retries;
                batch_faults += settled.faults;
                batch_degraded += u64::from(settled.degraded);
                let degraded = settled.degraded;
                let result = settled.result;
                if result.reward > best_reward {
                    best_reward = result.reward;
                    best_action = Some(action.clone());
                    best_observation = result.observation.as_slice().to_vec();
                }
                if self.config.record {
                    reward_history.push(result.reward);
                    dataset.push(Transition::new(
                        std::sync::Arc::clone(&env_label),
                        std::sync::Arc::clone(&agent_label),
                        action.clone(),
                        &result,
                    ));
                }
                // Degraded samples never enter the proxy training set:
                // their penalty reward is a retry-policy artifact, not
                // a simulator measurement.
                if screener.is_some() && !degraded {
                    train_actions.push(action.clone());
                    train_rewards.push(result.reward);
                    if revalidating {
                        reval_pred.push(pred_means[index]);
                        reval_actual.push(result.reward);
                    }
                }
                results.push((action, result));
            }
            rec.add(Counter::EvalRetries, batch_retries);
            rec.add(Counter::EvalFailures, batch_faults);
            rec.add(Counter::DegradedSamples, batch_degraded);
            if rec.is_enabled() {
                let mut event = vec![
                    ("event".into(), Json::Str("batch".into())),
                    ("batch".into(), Json::num_u64(rec.get(Counter::Batches))),
                    ("settled".into(), Json::num_u64(results.len() as u64)),
                    ("samples_used".into(), Json::num_u64(samples_used)),
                    ("failures".into(), Json::num_u64(batch_faults)),
                    ("retries".into(), Json::num_u64(batch_retries)),
                    ("degraded".into(), Json::num_u64(batch_degraded)),
                    ("best_reward".into(), Json::num_f64(best_reward)),
                ];
                if screening {
                    event.push(("proxy_screened".into(), Json::num_u64(proxy_screened)));
                    event.push(("proxy_admitted".into(), Json::num_u64(proxy_admitted)));
                }
                rec.trace_event(&Json::Obj(event));
            }
            if let Some(s) = screener.as_deref_mut() {
                if revalidating && !reval_actual.is_empty() {
                    let _proxy_span = rec.span(Phase::Proxy);
                    s.revalidate(&reval_pred, &reval_actual);
                }
                if !train_actions.is_empty() {
                    s.observe(&train_actions, &train_rewards);
                }
            }
            agent.observe(&results);
        }

        if !replay.is_empty() {
            return Err(ArchGymError::Journal(
                "journal holds batches the agent never re-proposed — replay diverged".into(),
            ));
        }

        let wall_seconds = start.elapsed().as_secs_f64();
        rec.gauge("wall_seconds", wall_seconds);
        rec.gauge("best_reward", best_reward);
        Ok(RunResult {
            agent: agent.name().to_owned(),
            env: eval.env_name().to_owned(),
            best_reward,
            best_action: best_action.unwrap_or_else(|| Action::new(Vec::new())),
            best_observation,
            samples_used,
            wall_seconds,
            reward_history,
            dataset,
            eval_retries,
            eval_failures,
            degraded_samples,
            proxy_screened,
            proxy_admitted,
            proxy_refits: screener.as_deref().map_or(0, |s| s.refits()),
            telemetry: rec.report(),
        })
    }
}

impl Default for SearchLoop {
    fn default() -> Self {
        SearchLoop::new(RunConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::RandomWalker;
    use crate::env::{CountingEnv, Observation};
    use crate::fault::{FaultPlan, FaultyEnv};
    use crate::toy::PeakEnv;

    #[test]
    fn run_respects_sample_budget_exactly() {
        let mut env = CountingEnv::new(PeakEnv::new(&[10, 10], vec![3, 4]));
        let mut agent = RandomWalker::new(env.space().clone(), 1);
        let result =
            SearchLoop::new(RunConfig::with_budget(37).batch(16)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 37);
        assert_eq!(env.samples(), 37);
        assert_eq!(result.reward_history.len(), 37);
        assert_eq!(result.dataset.len(), 37);
    }

    #[test]
    fn run_tracks_best_design() {
        let mut env = PeakEnv::new(&[6, 6], vec![2, 5]);
        let mut agent = RandomWalker::new(env.space().clone(), 9);
        let result = SearchLoop::new(RunConfig::with_budget(200)).run(&mut agent, &mut env);
        // With 200 samples in a 36-point space, the peak is found w.h.p.
        assert_eq!(result.best_reward, 1.0);
        assert_eq!(result.best_action.as_slice(), &[2, 5]);
        assert_eq!(result.best_observation, vec![0.0]);
        assert_eq!(result.agent, "rw");
        assert_eq!(result.env, "peak");
        assert_eq!(result.eval_failures, 0);
        assert_eq!(result.eval_retries, 0);
        assert_eq!(result.degraded_samples, 0);
    }

    #[test]
    fn a_run_shares_its_two_labels_across_its_transitions() {
        let mut env = PeakEnv::new(&[6, 6], vec![2, 5]);
        let mut agent = RandomWalker::new(env.space().clone(), 4);
        let result = SearchLoop::new(RunConfig::with_budget(40)).run(&mut agent, &mut env);
        let rows = result.dataset.transitions();
        assert_eq!(rows.len(), 40);
        assert_eq!((&*rows[0].env, &*rows[0].agent), ("peak", "rw"));
        for row in rows {
            assert!(std::sync::Arc::ptr_eq(&row.env, &rows[0].env));
            assert!(std::sync::Arc::ptr_eq(&row.agent, &rows[0].agent));
        }
    }

    #[test]
    fn best_so_far_is_monotone() {
        let mut env = PeakEnv::new(&[20], vec![11]);
        let mut agent = RandomWalker::new(env.space().clone(), 1);
        let result = SearchLoop::new(RunConfig::with_budget(50)).run(&mut agent, &mut env);
        let curve = result.best_so_far();
        assert_eq!(curve.len(), 50);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*curve.last().unwrap(), result.best_reward);
    }

    #[test]
    fn samples_to_reach_reports_first_crossing() {
        let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 3);
        let result = SearchLoop::new(RunConfig::with_budget(400)).run(&mut agent, &mut env);
        let at_half = result.samples_to_reach(0.5).expect("reached 0.5");
        let at_best = result
            .samples_to_reach(result.best_reward)
            .expect("reached its own best");
        assert!(at_half <= at_best);
        assert_eq!(
            result.reward_history[at_best as usize - 1],
            result.best_reward
        );
        assert!(result.samples_to_reach(2.0).is_none()); // reward caps at 1
    }

    #[test]
    fn recording_can_be_disabled() {
        let mut env = PeakEnv::new(&[5], vec![0]);
        let mut agent = RandomWalker::new(env.space().clone(), 2);
        let result =
            SearchLoop::new(RunConfig::with_budget(10).record(false)).run(&mut agent, &mut env);
        assert!(result.dataset.is_empty());
        assert!(result.reward_history.is_empty());
        assert!(result.best_reward.is_finite());
    }

    #[test]
    fn empty_proposal_stops_early() {
        struct Mute;
        impl Agent for Mute {
            fn name(&self) -> &str {
                "mute"
            }
            fn propose(&mut self, _max: usize) -> Vec<Action> {
                Vec::new()
            }
            fn observe(&mut self, _results: &[(Action, StepResult)]) {}
        }
        let mut env = PeakEnv::new(&[5], vec![0]);
        let mut agent = Mute;
        let result = SearchLoop::new(RunConfig::with_budget(100)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 0);
        assert_eq!(result.best_reward, f64::NEG_INFINITY);
        assert!(result.best_action.is_empty());
        let _ = Observation::new(vec![]);
    }

    #[test]
    fn oversized_batches_are_truncated_to_budget() {
        struct Flood;
        impl Agent for Flood {
            fn name(&self) -> &str {
                "flood"
            }
            fn propose(&mut self, _max: usize) -> Vec<Action> {
                // Misbehaving agent ignores max_batch entirely.
                (0..1000).map(|i| Action::new(vec![i % 5])).collect()
            }
            fn observe(&mut self, _results: &[(Action, StepResult)]) {}
        }
        let mut env = CountingEnv::new(PeakEnv::new(&[5], vec![0]));
        let mut agent = Flood;
        let result = SearchLoop::new(RunConfig::with_budget(42)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 42);
        assert_eq!(env.samples(), 42);
    }

    #[test]
    fn auto_batch_follows_the_agent_hint() {
        struct Hinted {
            asked: Vec<usize>,
        }
        impl Agent for Hinted {
            fn name(&self) -> &str {
                "hinted"
            }
            fn propose(&mut self, max_batch: usize) -> Vec<Action> {
                self.asked.push(max_batch);
                (0..max_batch).map(|i| Action::new(vec![i % 5])).collect()
            }
            fn observe(&mut self, _results: &[(Action, StepResult)]) {}
            fn batch_hint(&self) -> Option<usize> {
                Some(7)
            }
        }
        let mut env = PeakEnv::new(&[5], vec![0]);
        let mut agent = Hinted { asked: Vec::new() };
        // batch == 0 → auto: the agent's hint of 7 drives proposals.
        let result = SearchLoop::new(RunConfig::with_budget(20).batch(0)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 20);
        assert_eq!(agent.asked, vec![7, 7, 6]); // last capped by budget
    }

    #[test]
    fn auto_batch_without_hint_falls_back_to_default() {
        let mut env = PeakEnv::new(&[5], vec![0]);
        let mut agent = RandomWalker::new(env.space().clone(), 1);
        let result = SearchLoop::new(RunConfig::with_budget(40).batch(0)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 40);
    }

    #[test]
    fn pooled_run_is_bit_identical_to_serial() {
        let serial = {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 12);
            SearchLoop::new(RunConfig::with_budget(128)).run(&mut agent, &mut env)
        };
        for jobs in [1, 2, 4] {
            let env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 12);
            let pooled =
                SearchLoop::new(RunConfig::with_budget(128).jobs(jobs)).run_pooled(&mut agent, env);
            assert_eq!(pooled.best_reward, serial.best_reward, "jobs={jobs}");
            assert_eq!(pooled.best_action, serial.best_action, "jobs={jobs}");
            assert_eq!(pooled.reward_history, serial.reward_history, "jobs={jobs}");
            assert_eq!(pooled.dataset.len(), serial.dataset.len(), "jobs={jobs}");
        }
    }

    #[test]
    fn pooled_run_on_idle_cores_runs_on_two_threads_and_matches_serial() {
        use crate::executor::testing::{private_budget, TwoThreadEnv};
        let serial = {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 12);
            SearchLoop::new(RunConfig::with_budget(128)).run(&mut agent, &mut env)
        };
        // The test thread's private budget has idle cores whatever else
        // the process runs, so the pool fans out; the environment's
        // steps finish only once they have run on two threads.
        let _core = private_budget(4).hold();
        let env = TwoThreadEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]));
        let mut agent = RandomWalker::new(env.space().clone(), 12);
        let pooled =
            SearchLoop::new(RunConfig::with_budget(128).jobs(4)).run_pooled(&mut agent, env);
        assert_eq!(pooled.best_reward, serial.best_reward);
        assert_eq!(pooled.best_action, serial.best_action);
        assert_eq!(pooled.reward_history, serial.reward_history);
        assert_eq!(pooled.dataset, serial.dataset);
    }

    // --- proxy screening ---------------------------------------------------

    use crate::screen::ScreenPolicy;

    /// A deterministic model-free screener: predicts from a fixed hash
    /// of the action indices, warms up on the observed sample count.
    /// Exercises every driver-side screening path without a forest.
    struct MockScreen {
        policy: ScreenPolicy,
        seen: u64,
        refits: u64,
        revalidations: u64,
    }

    impl MockScreen {
        fn new(policy: ScreenPolicy) -> Self {
            MockScreen {
                policy,
                seen: 0,
                refits: 0,
                revalidations: 0,
            }
        }

        fn score(action: &Action) -> f64 {
            action
                .as_slice()
                .iter()
                .enumerate()
                .map(|(i, &v)| ((v * 31 + i * 7) % 97) as f64)
                .sum()
        }
    }

    impl Screener for MockScreen {
        fn policy(&self) -> ScreenPolicy {
            self.policy
        }
        fn set_telemetry(&mut self, _recorder: &crate::telemetry::Recorder) {}
        fn observe(&mut self, actions: &[Action], rewards: &[f64]) {
            assert_eq!(actions.len(), rewards.len());
            let before = self.seen / self.policy.refit_every;
            self.seen += actions.len() as u64;
            if self.seen >= self.policy.warmup && self.seen / self.policy.refit_every > before {
                self.refits += 1;
            }
        }
        fn is_ready(&self) -> bool {
            self.seen >= self.policy.warmup
        }
        fn predict(&mut self, candidates: &[Action], means: &mut Vec<f64>, vars: &mut Vec<f64>) {
            means.clear();
            vars.clear();
            for c in candidates {
                means.push(Self::score(c));
                vars.push(Self::score(c) % 13.0);
            }
        }
        fn revalidate(&mut self, predicted: &[f64], actual: &[f64]) {
            assert_eq!(predicted.len(), actual.len());
            self.revalidations += 1;
        }
        fn refits(&self) -> u64 {
            self.refits
        }
    }

    #[test]
    fn screened_run_respects_budget_and_admits_a_subset() {
        let mut env = CountingEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]));
        let mut agent = RandomWalker::new(env.space().clone(), 12);
        let mut screen = MockScreen::new(ScreenPolicy::default().warmup(32).revalidate_every(0));
        let result = SearchLoop::new(RunConfig::with_budget(96).batch(16)).run_screened(
            &mut agent,
            &mut env,
            &mut screen,
        );
        assert_eq!(result.samples_used, 96, "budget is exact under screening");
        assert_eq!(env.samples(), 96, "only admitted samples hit the simulator");
        assert_eq!(result.reward_history.len(), 96);
        assert!(result.proxy_screened > 0, "screening engaged after warmup");
        assert!(
            result.proxy_admitted < result.proxy_screened,
            "admitted {} of {} proposed",
            result.proxy_admitted,
            result.proxy_screened
        );
        // Warm-up samples (32) plus top-k+explore admissions per batch.
        assert_eq!(result.proxy_admitted, 96 - 32);
    }

    #[test]
    fn screened_run_is_bit_identical_serial_vs_pooled() {
        let reference = {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 3);
            let mut screen = MockScreen::new(ScreenPolicy::default().warmup(32));
            SearchLoop::new(RunConfig::with_budget(80)).run_screened(
                &mut agent,
                &mut env,
                &mut screen,
            )
        };
        for jobs in [1, 2, 4] {
            let env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 3);
            let mut screen = MockScreen::new(ScreenPolicy::default().warmup(32));
            let pooled = SearchLoop::new(RunConfig::with_budget(80).jobs(jobs))
                .run_env_with(&mut agent, env, RunIo::screened(&mut screen))
                .unwrap();
            assert_eq!(dewalled(pooled), dewalled(reference.clone()), "jobs={jobs}");
        }
    }

    #[test]
    fn revalidation_batches_bypass_the_screen_on_schedule() {
        let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 7);
        let mut screen = MockScreen::new(ScreenPolicy::default().warmup(16).revalidate_every(2));
        let result = SearchLoop::new(RunConfig::with_budget(200).batch(16)).run_screened(
            &mut agent,
            &mut env,
            &mut screen,
        );
        assert_eq!(result.samples_used, 200);
        assert!(screen.revalidations > 0, "revalidation cadence must fire");
        // Every second screened batch admits all candidates, so the
        // admitted total exceeds the pure top-k+explore rate.
        assert!(result.proxy_admitted > 0);
    }

    #[test]
    fn screened_resumable_run_resumes_bit_identically() {
        let config = RunConfig::with_budget(120).batch(16);
        let policy = ScreenPolicy::default().warmup(32).revalidate_every(3);
        let reference = {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 21);
            let mut screen = MockScreen::new(policy);
            SearchLoop::new(config.clone()).run_screened(&mut agent, &mut env, &mut screen)
        };
        assert!(reference.proxy_screened > 0);

        let path = temp_journal("screened-resume");
        {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 21);
            let mut screen = MockScreen::new(policy);
            SearchLoop::new(config.clone())
                .run_with(
                    &mut agent,
                    &mut env,
                    RunIo {
                        journal: Some(&path),
                        screener: Some(&mut screen),
                    },
                )
                .unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        // Cut at several prefixes, including ones that land between a
        // batch record and its screen record.
        for keep in [3, lines.len() / 2, lines.len() - 2] {
            let mut prefix = lines[..keep].join("\n");
            prefix.push('\n');
            std::fs::write(&path, prefix).unwrap();
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 21);
            let mut screen = MockScreen::new(policy);
            let resumed = SearchLoop::new(config.clone())
                .run_with(
                    &mut agent,
                    &mut env,
                    RunIo {
                        journal: Some(&path),
                        screener: Some(&mut screen),
                    },
                )
                .unwrap();
            assert_eq!(
                dewalled(resumed),
                dewalled(reference.clone()),
                "cut at {keep} of {}",
                lines.len()
            );
        }
        cleanup_journal(&path);
    }

    #[test]
    fn screened_journal_rejects_a_proxy_off_resume() {
        let config = RunConfig::with_budget(96).batch(16);
        let path = temp_journal("screened-mismatch");
        {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 21);
            let mut screen = MockScreen::new(ScreenPolicy::default().warmup(16));
            SearchLoop::new(config.clone())
                .run_with(
                    &mut agent,
                    &mut env,
                    RunIo {
                        journal: Some(&path),
                        screener: Some(&mut screen),
                    },
                )
                .unwrap();
        }
        let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 21);
        // The oversampled proposals cannot replay under a plain run, so
        // the resume fails loudly instead of silently diverging.
        let err = SearchLoop::new(config)
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        cleanup_journal(&path);
    }

    // --- fault tolerance ---------------------------------------------------

    #[test]
    fn retry_policy_builders_compose() {
        let policy = RetryPolicy::new(5).backoff_ms(20).penalty(-3.0);
        assert_eq!(policy.max_retries, 5);
        assert_eq!(policy.backoff_ms, 20);
        assert_eq!(policy.penalty, -3.0);
        assert_eq!(RetryPolicy::default().max_retries, 2);
        assert_eq!(RetryPolicy::default().backoff_ms, 0);
        assert_eq!(RetryPolicy::default().penalty, -1.0);
    }

    #[test]
    fn zero_fault_wrapper_is_bit_identical_to_plain_run() {
        let plain = {
            let mut env = PeakEnv::new(&[16, 16], vec![5, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 12);
            SearchLoop::new(RunConfig::with_budget(96)).run(&mut agent, &mut env)
        };
        let mut env = FaultyEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]), FaultPlan::new(7));
        let mut agent = RandomWalker::new(env.space().clone(), 12);
        let faulty = SearchLoop::new(RunConfig::with_budget(96)).run(&mut agent, &mut env);
        assert_eq!(faulty.best_reward, plain.best_reward);
        assert_eq!(faulty.best_action, plain.best_action);
        assert_eq!(faulty.reward_history, plain.reward_history);
        assert_eq!(faulty.dataset, plain.dataset);
        assert_eq!(faulty.eval_failures, 0);
    }

    #[test]
    fn transient_faults_are_retried_without_losing_budget() {
        let plan = FaultPlan::new(21).transient(0.3);
        let mut env = FaultyEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]), plan);
        let mut agent = RandomWalker::new(env.space().clone(), 4);
        let result = SearchLoop::new(RunConfig::with_budget(80)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 80);
        assert_eq!(result.reward_history.len(), 80);
        assert!(result.eval_failures > 0, "30% transients must fire");
        assert!(result.eval_retries > 0);
        // The wrapper's own counters corroborate the loop's.
        assert_eq!(result.eval_failures, env.stats().total());
    }

    #[test]
    fn exhausted_retries_degrade_to_the_penalty() {
        let plan = FaultPlan::new(3).transient(1.0); // every attempt fails
        let mut env = FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan);
        let mut agent = RandomWalker::new(env.space().clone(), 2);
        let config = RunConfig::with_budget(12).retry(RetryPolicy::new(1).penalty(-9.0));
        let result = SearchLoop::new(config).run(&mut agent, &mut env);
        assert_eq!(
            result.samples_used, 12,
            "degraded samples still consume budget"
        );
        assert_eq!(result.degraded_samples, 12);
        assert!(result.reward_history.iter().all(|&r| r == -9.0));
        assert_eq!(result.best_reward, -9.0);
        // Every sample: 1 initial failure + 1 retry failure, all charged.
        assert_eq!(result.eval_retries, 12);
        assert!(result.dataset.transitions().iter().all(|t| !t.feasible));
    }

    #[test]
    fn latched_crashes_recover_through_reset_and_complete_the_budget() {
        let plan = FaultPlan::new(17).transient(0.1).latched(0.08);
        let mut env = FaultyEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]), plan);
        let mut agent = RandomWalker::new(env.space().clone(), 6);
        let result = SearchLoop::new(RunConfig::with_budget(64)).run(&mut agent, &mut env);
        assert_eq!(
            result.samples_used, 64,
            "latched crashes must not abort the run"
        );
        let stats = env.stats();
        assert!(stats.latched > 0, "8% latch rate over 64+ evals must fire");
        assert_eq!(result.eval_failures, stats.total());
        assert!(!env.is_crashed() || stats.latched > 0);
    }

    #[test]
    fn corrupt_metrics_are_retried_like_failures() {
        let plan = FaultPlan::new(29).corrupt(0.4);
        let mut env = FaultyEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]), plan);
        let mut agent = RandomWalker::new(env.space().clone(), 8);
        let result = SearchLoop::new(RunConfig::with_budget(48)).run(&mut agent, &mut env);
        assert_eq!(result.samples_used, 48);
        assert!(env.stats().corrupt > 0);
        // No NaN/Inf ever reaches the report.
        assert!(result.reward_history.iter().all(|r| r.is_finite()));
        assert!(result.best_reward.is_finite());
        assert_eq!(result.eval_failures, env.stats().total());
    }

    #[test]
    fn faulty_pooled_run_completes_and_counts_consistently() {
        let plan = FaultPlan::new(41).transient(0.2).latched(0.02);
        for jobs in [1, 4] {
            let env = FaultyEnv::new(PeakEnv::new(&[16, 16], vec![5, 9]), plan);
            let handle = env.clone();
            let mut agent = RandomWalker::new(env.space().clone(), 13);
            let result =
                SearchLoop::new(RunConfig::with_budget(72).jobs(jobs)).run_pooled(&mut agent, env);
            assert_eq!(result.samples_used, 72, "jobs={jobs}");
            // Replicas share the stats cells, so the wrapper's total
            // matches the loop's counter at any worker count.
            assert_eq!(result.eval_failures, handle.stats().total(), "jobs={jobs}");
        }
    }

    // --- journal / resume --------------------------------------------------

    fn temp_journal(tag: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("archgym-search-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn cleanup_journal(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
    }

    /// Strip wall-clock (the only nondeterministic field) for equality.
    fn dewalled(mut result: RunResult) -> RunResult {
        result.wall_seconds = 0.0;
        result
    }

    #[test]
    fn fresh_resumable_run_matches_plain_run() {
        let plain = {
            let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(RunConfig::with_budget(50)).run(&mut agent, &mut env)
        };
        let path = temp_journal("fresh");
        let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let journaled = SearchLoop::new(RunConfig::with_budget(50))
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap();
        assert_eq!(dewalled(journaled), dewalled(plain));
        cleanup_journal(&path);
    }

    #[test]
    fn completed_journal_replays_without_touching_the_simulator() {
        let path = temp_journal("replay");
        let config = RunConfig::with_budget(40);
        let first = {
            let mut env = CountingEnv::new(PeakEnv::new(&[12, 12], vec![4, 9]));
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(config.clone())
                .run_with(&mut agent, &mut env, RunIo::journaled(&path))
                .unwrap()
        };
        let mut env = CountingEnv::new(PeakEnv::new(&[12, 12], vec![4, 9]));
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let replayed = SearchLoop::new(config)
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap();
        assert_eq!(env.samples(), 0, "full replay must not re-evaluate");
        assert_eq!(dewalled(replayed), dewalled(first));
        cleanup_journal(&path);
    }

    #[test]
    fn interrupted_journal_resumes_bit_identically() {
        let reference = {
            let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(RunConfig::with_budget(48)).run(&mut agent, &mut env)
        };
        let path = temp_journal("interrupt");
        {
            let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(RunConfig::with_budget(48))
                .run_with(&mut agent, &mut env, RunIo::journaled(&path))
                .unwrap();
        }
        // Simulate a crash: keep only a prefix of the journal, cutting
        // mid-batch (header + batch + a few steps + a partial line).
        let full = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let keep = 5.min(lines.len() - 1);
        let mut prefix = lines[..keep].join("\n");
        prefix.push('\n');
        prefix.push_str(&lines[keep][..lines[keep].len() / 2]); // torn write
        std::fs::write(&path, prefix).unwrap();

        let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let resumed = SearchLoop::new(RunConfig::with_budget(48))
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap();
        assert_eq!(dewalled(resumed), dewalled(reference));
        cleanup_journal(&path);
    }

    #[test]
    fn journal_from_a_different_run_is_rejected() {
        let path = temp_journal("mismatch");
        {
            let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(RunConfig::with_budget(32))
                .run_with(&mut agent, &mut env, RunIo::journaled(&path))
                .unwrap();
        }
        let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let err = SearchLoop::new(RunConfig::with_budget(64))
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap_err();
        assert!(matches!(err, ArchGymError::Journal(_)));
        assert!(err.to_string().contains("different run"), "{err}");
        cleanup_journal(&path);
    }

    #[test]
    fn diverging_replay_is_detected() {
        let path = temp_journal("diverge");
        {
            let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(RunConfig::with_budget(32))
                .run_with(&mut agent, &mut env, RunIo::journaled(&path))
                .unwrap();
        }
        // Same configuration, different agent seed → different proposals.
        let mut env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 6);
        let err = SearchLoop::new(RunConfig::with_budget(32))
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        cleanup_journal(&path);
    }

    #[test]
    fn resumable_run_with_faults_is_bit_identical_to_uninterrupted() {
        // Transient-only faults with generous retries: nothing degrades,
        // so no cross-process attempt-counter residue can perturb the
        // resumed half (see fault.rs docs).
        let plan = FaultPlan::new(33).transient(0.25);
        let config = RunConfig::with_budget(40).retry(RetryPolicy::new(8));
        let reference = {
            let mut env = FaultyEnv::new(PeakEnv::new(&[12, 12], vec![4, 9]), plan);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(config.clone()).run(&mut agent, &mut env)
        };
        assert_eq!(
            reference.degraded_samples, 0,
            "test needs degrade-free faults"
        );
        assert!(reference.eval_failures > 0);

        let path = temp_journal("fault-resume");
        {
            let mut env = FaultyEnv::new(PeakEnv::new(&[12, 12], vec![4, 9]), plan);
            let mut agent = RandomWalker::new(env.space().clone(), 5);
            SearchLoop::new(config.clone())
                .run_with(&mut agent, &mut env, RunIo::journaled(&path))
                .unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = full.lines().collect();
        let mut prefix = lines[..lines.len() / 2].join("\n");
        prefix.push('\n');
        std::fs::write(&path, prefix).unwrap();

        let mut env = FaultyEnv::new(PeakEnv::new(&[12, 12], vec![4, 9]), plan);
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let resumed = SearchLoop::new(config)
            .run_with(&mut agent, &mut env, RunIo::journaled(&path))
            .unwrap();
        assert_eq!(resumed.best_reward, reference.best_reward);
        assert_eq!(resumed.best_action, reference.best_action);
        assert_eq!(resumed.reward_history, reference.reward_history);
        assert_eq!(resumed.dataset, reference.dataset);
        cleanup_journal(&path);
    }
}
