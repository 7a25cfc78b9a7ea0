//! Online lottery racing — successive halving over concurrent search
//! lanes on one shared evaluation budget.
//!
//! The paper's headline observation is that hyperparameter choice
//! dominates algorithm choice (the "hyperparameter lottery", Section
//! 6.1). The [`sweep`](crate::sweep) layer addresses that *offline*:
//! run every ticket to completion, then compare. This module races the
//! lottery *online*: every `(agent, hyperparameters)` ticket becomes a
//! **lane** — an independent [`SearchLoop`] run — and all lanes share
//! one global sample budget. At deterministic **rung** boundaries the
//! race ranks lanes by best-reward-so-far and eliminates the bottom
//! `1 - 1/eta` fraction (the same elimination rule as
//! [`SuccessiveHalving`](crate::sweep::SuccessiveHalving), via
//! [`halving_keep`](crate::sweep::halving_keep)); the freed evaluation
//! workers flow to the survivors, so the race ends with every worker
//! serving the winning ticket.
//!
//! Determinism is the design constraint everything else hangs off:
//!
//! * [`rung_schedule`] fixes the rung boundaries up front from
//!   `(lanes, eta, budget)` alone — slices are monotone non-decreasing
//!   per lane and cover the budget *exactly* (the final solo rung
//!   absorbs every remainder sample).
//! * Lanes are independent runs, each bit-identical at any worker
//!   count, and all cross-lane aggregation (ranking, elimination,
//!   history assembly) happens on the coordinating thread in lane-id
//!   order — so a race at `--jobs 8` is byte-for-byte the race at
//!   `--jobs 1`.
//! * Ties eliminate deterministically: lanes are ranked by
//!   `(best_reward desc, lane_id asc)`, a total order, so the survivor
//!   set is invariant under any permutation of the roster evaluation.
//! * Each `(lane, rung)` slice journals to its own file under the
//!   race's journal prefix. A killed race re-runs its schedule from
//!   rung 0; completed slices replay from their journals (consuming
//!   zero live evaluations, reconstructing agent state exactly) and
//!   the interrupted slice finishes live — so crash resume reproduces
//!   the uninterrupted race bit-for-bit.
//!
//! Optionally the race **ensembles** the survivors instead of crowning
//! a single lane: the final rung's slice is driven by an
//! [`EnsembleAgent`] that pools the surviving agents' proposals and
//! ranks them by reward-weighted vote, so late-race exploration draws
//! on every surviving ticket at once.

use crate::agent::Agent;
use crate::codec::Json;
use crate::env::Environment;
use crate::error::{ArchGymError, Result};
use crate::executor::Executor;
use crate::screen::Screener;
use crate::search::{RetryPolicy, RunConfig, RunIo, RunResult, SearchLoop};
use crate::space::Action;
use crate::storeio::{real_io, Durability, StoreIo};
use crate::sweep::halving_keep;
use crate::telemetry::{Counter, Phase, Recorder, RunReport};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One rung of a race schedule: how many lanes are still alive and how
/// many samples each of them receives before the next elimination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rung {
    /// Live lanes entering this rung.
    pub lanes: usize,
    /// Samples each live lane consumes in this rung.
    pub slice: u64,
}

/// The deterministic rung schedule for `lanes` starting lanes, an
/// elimination factor of `eta`, and a global sample `budget`.
///
/// Survivor counts follow [`halving_keep`] down to exactly one lane
/// (`n, ceil(n/eta), ..., 1`); the budget is split greedily — each rung
/// receives an equal share of what remains, divided evenly over its
/// live lanes — and the final solo rung absorbs the whole remainder.
/// Two invariants hold for every input (property-tested in
/// `tests/race.rs`):
///
/// * **exact coverage**: `sum(lanes_r * slice_r) == budget`, and
/// * **monotone slices**: `slice_{r+1} >= slice_r` — survivors never
///   receive less than what eliminated lanes already got.
///
/// Tiny budgets may yield zero-sample early rungs; those rungs still
/// eliminate (on the deterministic lane-id tiebreak), and the budget
/// concentrates on the late survivors.
///
/// # Panics
///
/// Panics if `lanes == 0` or `eta < 2`.
pub fn rung_schedule(lanes: usize, eta: usize, budget: u64) -> Vec<Rung> {
    assert!(lanes > 0, "a race needs at least one lane");
    assert!(eta >= 2, "eta must be at least 2");
    let mut counts = vec![lanes];
    while *counts.last().expect("non-empty") > 1 {
        let last = *counts.last().expect("non-empty");
        counts.push(halving_keep(last, eta));
    }
    let levels = counts.len();
    let mut remaining = budget;
    let mut rungs = Vec::with_capacity(levels);
    for (r, &live) in counts.iter().enumerate() {
        let slice = if r + 1 == levels {
            // Final rung: one lane, all remaining samples (the
            // remainder flows here instead of being dropped).
            remaining
        } else {
            let share = remaining / (levels - r) as u64;
            share / live as u64
        };
        rungs.push(Rung { lanes: live, slice });
        remaining -= slice * live as u64;
    }
    debug_assert_eq!(remaining, 0, "schedule must cover the budget exactly");
    rungs
}

/// Rank `(lane_id, best_reward)` pairs for elimination: best reward
/// first, ties broken by the *lower* lane id. Because `(reward, id)`
/// is a total order over distinct ids, the result is invariant under
/// any permutation of the input — the property that makes elimination
/// reproducible regardless of roster evaluation order.
pub fn rank_lanes(scored: &[(usize, f64)]) -> Vec<usize> {
    let mut order: Vec<(usize, f64)> = scored.to_vec();
    order.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    order.into_iter().map(|(id, _)| id).collect()
}

/// One ticket in the race: a named agent (plus an optional per-lane
/// proxy screener) that will search the shared environment.
pub struct RaceLane {
    /// Display/journal name of the ticket (e.g. `"ga#4"`).
    pub name: String,
    /// The lane's agent, constructed once and carried across rungs.
    pub agent: Box<dyn Agent + Send>,
    /// Optional per-lane online proxy screen.
    pub screener: Option<Box<dyn Screener + Send>>,
}

impl RaceLane {
    /// A lane without proxy screening.
    pub fn new(name: impl Into<String>, agent: Box<dyn Agent + Send>) -> Self {
        RaceLane {
            name: name.into(),
            agent,
            screener: None,
        }
    }

    /// Attach an online proxy screener, builder-style.
    pub fn screened(mut self, screener: Box<dyn Screener + Send>) -> Self {
        self.screener = Some(screener);
        self
    }
}

/// Final state of one lane after the race.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneOutcome {
    /// Lane id (roster position).
    pub lane: usize,
    /// Ticket name.
    pub name: String,
    /// Best reward the lane observed.
    pub best_reward: f64,
    /// True samples the lane consumed.
    pub samples_used: u64,
    /// The rung after which the lane was eliminated (`None` = survived
    /// to the end).
    pub eliminated_at: Option<usize>,
}

/// What happened at one rung boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RungOutcome {
    /// Rung index.
    pub rung: usize,
    /// Live lanes entering the rung.
    pub lanes: usize,
    /// Samples each live lane consumed this rung.
    pub slice: u64,
    /// Evaluation workers each live lane ran with — grows as lanes die.
    pub workers_per_lane: usize,
    /// Lane ids eliminated at this rung's boundary (empty at the final
    /// rung and at the ensemble hand-off).
    pub eliminated: Vec<usize>,
}

/// Outcome of the reward-weighted ensemble stage (present only when
/// [`Race::ensemble`] was enabled and more than one lane survived to
/// the final rung).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleOutcome {
    /// Lane ids of the surviving members.
    pub members: Vec<usize>,
    /// Reward-derived vote weight per member (same order as
    /// [`EnsembleOutcome::members`]).
    pub weights: Vec<f64>,
    /// Best reward found by the ensemble stream itself.
    pub best_reward: f64,
    /// Samples the ensemble stream consumed.
    pub samples_used: u64,
}

/// Everything a finished race reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaceResult {
    /// Environment identifier.
    pub env: String,
    /// The global sample budget the race ran on.
    pub budget: u64,
    /// Elimination factor.
    pub eta: usize,
    /// The winning ticket's name (`"ensemble"` when the ensemble
    /// stream beat every individual lane).
    pub winner: String,
    /// Best reward across all lanes and the ensemble stream.
    pub best_reward: f64,
    /// The action achieving [`RaceResult::best_reward`].
    pub best_action: Action,
    /// Observation metrics of the best design.
    pub best_observation: Vec<f64>,
    /// True samples consumed across all lanes (equals the budget
    /// whenever no lane's agent stops proposing early).
    pub samples_used: u64,
    /// Wall-clock duration of the race in seconds.
    pub wall_seconds: f64,
    /// Final state of every lane, in lane-id order.
    pub lanes: Vec<LaneOutcome>,
    /// Per-rung history.
    pub rungs: Vec<RungOutcome>,
    /// Ensemble-stage outcome, when one ran.
    pub ensemble: Option<EnsembleOutcome>,
    /// Reward after each settled evaluation, assembled rung-major and
    /// lane-id-major (the deterministic global settle order).
    pub reward_history: Vec<f64>,
    /// Telemetry snapshot — `None` unless the race was built
    /// [`Race::with_telemetry`] an enabled recorder.
    pub telemetry: Option<RunReport>,
}

impl RaceResult {
    /// Samples spent before the race first reached `threshold`, in the
    /// deterministic global settle order. `None` if never reached.
    pub fn samples_to_reach(&self, threshold: f64) -> Option<u64> {
        self.reward_history
            .iter()
            .position(|&r| r >= threshold)
            .map(|i| i as u64 + 1)
    }
}

/// In-flight state of one lane while the race runs.
struct LaneState<E> {
    id: usize,
    name: String,
    agent: Box<dyn Agent + Send>,
    screener: Option<Box<dyn Screener + Send>>,
    env: E,
    samples_used: u64,
    best_reward: f64,
    best_action: Option<Action>,
    best_observation: Vec<f64>,
    slice_history: Vec<f64>,
    eliminated_at: Option<usize>,
}

/// The racing scheduler. Construct with [`Race::new`], configure
/// builder-style, then [`Race::run`] a roster of [`RaceLane`]s.
#[derive(Debug, Clone)]
pub struct Race {
    budget: u64,
    eta: usize,
    batch: usize,
    jobs: usize,
    ensemble: bool,
    retry: RetryPolicy,
    telemetry: Recorder,
    journal_prefix: Option<PathBuf>,
    journal_io: Arc<dyn StoreIo>,
    durability: Durability,
}

impl Race {
    /// A race over `budget` total samples eliminating the bottom
    /// `1 - 1/eta` fraction at each rung.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or `budget == 0`.
    pub fn new(budget: u64, eta: usize) -> Self {
        assert!(eta >= 2, "eta must be at least 2");
        assert!(budget > 0, "budget must be positive");
        Race {
            budget,
            eta,
            batch: 16,
            jobs: 1,
            ensemble: false,
            retry: RetryPolicy::default(),
            telemetry: Recorder::default(),
            journal_prefix: None,
            journal_io: real_io(),
            durability: Durability::None,
        }
    }

    /// Override the per-lane proposal batch size, builder-style
    /// (`0` = each agent's own hint).
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Total evaluation workers shared by the live lanes, builder-style
    /// (`0` = every available core). Freed workers are reassigned to
    /// survivors after each elimination; results are bit-identical at
    /// any setting.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Drive the final rung with a reward-weighted ensemble of the
    /// surviving lanes instead of the solo winner, builder-style.
    pub fn ensemble(mut self, ensemble: bool) -> Self {
        self.ensemble = ensemble;
        self
    }

    /// Set the per-evaluation retry/degrade policy, builder-style.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a telemetry recorder, builder-style. The race feeds it
    /// the `race_*` counters, a [`Phase::Race`] span per rung, per-lane
    /// trace events, and shares it with every lane's search loop.
    pub fn with_telemetry(mut self, recorder: Recorder) -> Self {
        self.telemetry = recorder;
        self
    }

    /// Journal every `(lane, rung)` slice to
    /// `{prefix}-l{lane:03}-r{rung:02}.jsonl` (and the ensemble stage
    /// to `{prefix}-ensemble.jsonl`), builder-style. Re-running the
    /// same race over existing files replays them bit-identically —
    /// this is the crash-resume path.
    pub fn with_journal_prefix(mut self, prefix: impl Into<PathBuf>) -> Self {
        self.journal_prefix = Some(prefix.into());
        self
    }

    /// Route journal I/O through `io`, builder-style (tests inject
    /// fault-injecting filesystems here).
    pub fn with_journal_io(mut self, io: Arc<dyn StoreIo>) -> Self {
        self.journal_io = io;
        self
    }

    /// Set the journal fsync policy, builder-style.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The race's rung schedule for a roster of `lanes` tickets.
    pub fn schedule(&self, lanes: usize) -> Vec<Rung> {
        rung_schedule(lanes, self.eta, self.budget)
    }

    /// Run the race.
    ///
    /// # Errors
    ///
    /// Fails on an empty roster and propagates journal I/O errors.
    pub fn run<E>(&self, lanes: Vec<RaceLane>, env: E) -> Result<RaceResult>
    where
        E: Environment + Clone + Send,
    {
        if lanes.is_empty() {
            return Err(ArchGymError::InvalidConfig(
                "a race needs a non-empty roster".into(),
            ));
        }
        let start = Instant::now();
        let rec = &self.telemetry;
        let env_name = env.name().to_owned();
        let schedule = self.schedule(lanes.len());
        let levels = schedule.len();
        let workers_total = if self.jobs == 0 {
            Executor::available_parallelism()
        } else {
            self.jobs
        };

        let mut states: Vec<LaneState<E>> = lanes
            .into_iter()
            .enumerate()
            .map(|(id, lane)| LaneState {
                id,
                name: lane.name,
                agent: lane.agent,
                screener: lane.screener,
                env: env.clone(),
                samples_used: 0,
                best_reward: f64::NEG_INFINITY,
                best_action: None,
                best_observation: Vec::new(),
                slice_history: Vec::new(),
                eliminated_at: None,
            })
            .collect();
        rec.add(Counter::RaceLanesStarted, states.len() as u64);

        let mut rungs_out: Vec<RungOutcome> = Vec::with_capacity(levels);
        let mut global_history: Vec<f64> = Vec::new();
        let mut ensemble_out: Option<EnsembleOutcome> = None;
        let mut ensemble_best: Option<(f64, Action, Vec<f64>)> = None;

        for (r, rung) in schedule.iter().enumerate() {
            let _span = rec.span(Phase::Race);
            let live: Vec<usize> = states
                .iter()
                .filter(|s| s.eliminated_at.is_none())
                .map(|s| s.id)
                .collect();
            let is_final = r + 1 == levels;
            // With ensembling on, the last elimination is skipped, so
            // the final rung legitimately holds the prior rung's
            // survivor count instead of the schedule's solo lane.
            debug_assert!(
                live.len() == rung.lanes || (self.ensemble && is_final),
                "schedule out of sync"
            );

            // Ensemble hand-off: when enabled, the last elimination is
            // skipped (below), so more than one lane reaches the final
            // rung; their pooled proposals drive the final slice.
            if is_final && self.ensemble && live.len() > 1 {
                let (outcome, result) =
                    self.run_ensemble(&mut states, &live, rung.slice, workers_total, &env)?;
                global_history.extend_from_slice(&result.reward_history);
                if result.samples_used > 0 {
                    ensemble_best = Some((
                        result.best_reward,
                        result.best_action.clone(),
                        result.best_observation.clone(),
                    ));
                }
                if rec.is_enabled() {
                    rec.trace_event(&Json::Obj(vec![
                        ("event".into(), Json::Str("race_ensemble".into())),
                        ("rung".into(), Json::num_u64(r as u64)),
                        (
                            "members".into(),
                            Json::num_u64(outcome.members.len() as u64),
                        ),
                        ("slice".into(), Json::num_u64(rung.slice)),
                        ("best_reward".into(), Json::num_f64(result.best_reward)),
                        (
                            "samples_used".into(),
                            Json::num_u64(self.total_samples(&states) + result.samples_used),
                        ),
                    ]));
                }
                rungs_out.push(RungOutcome {
                    rung: r,
                    lanes: live.len(),
                    slice: rung.slice,
                    workers_per_lane: workers_total.max(1),
                    eliminated: Vec::new(),
                });
                ensemble_out = Some(outcome);
                break;
            }

            let pool_jobs = (workers_total / live.len().max(1)).max(1);
            if rung.slice > 0 {
                self.advance_wave(&mut states, r, rung.slice, pool_jobs, workers_total)?;
                for state in states.iter().filter(|s| s.eliminated_at.is_none()) {
                    global_history.extend_from_slice(&state.slice_history);
                    if rec.is_enabled() {
                        rec.trace_event(&Json::Obj(vec![
                            ("event".into(), Json::Str("race_lane".into())),
                            ("rung".into(), Json::num_u64(r as u64)),
                            ("lane".into(), Json::num_u64(state.id as u64)),
                            ("name".into(), Json::Str(state.name.clone())),
                            ("lane_samples".into(), Json::num_u64(state.samples_used)),
                            ("best_reward".into(), Json::num_f64(state.best_reward)),
                        ]));
                    }
                }
            }
            let global_best = self.best_lane(&states);
            if rec.is_enabled() {
                rec.trace_event(&Json::Obj(vec![
                    ("event".into(), Json::Str("race_rung".into())),
                    ("rung".into(), Json::num_u64(r as u64)),
                    ("lanes".into(), Json::num_u64(live.len() as u64)),
                    ("slice".into(), Json::num_u64(rung.slice)),
                    ("workers_per_lane".into(), Json::num_u64(pool_jobs as u64)),
                    (
                        "samples_used".into(),
                        Json::num_u64(self.total_samples(&states)),
                    ),
                    (
                        "best_reward".into(),
                        Json::num_f64(states[global_best].best_reward),
                    ),
                ]));
            }

            // Eliminate down to the next rung's lane count — except
            // before an ensemble final, which inherits all survivors.
            let mut eliminated: Vec<usize> = Vec::new();
            if !is_final {
                let about_to_ensemble = self.ensemble && r + 2 == levels && live.len() > 1;
                if !about_to_ensemble {
                    let keep = schedule[r + 1].lanes;
                    let scored: Vec<(usize, f64)> = live
                        .iter()
                        .map(|&id| (id, states[id].best_reward))
                        .collect();
                    let ranked = rank_lanes(&scored);
                    for &id in &ranked[keep..] {
                        states[id].eliminated_at = Some(r);
                        eliminated.push(id);
                    }
                    eliminated.sort_unstable();
                    rec.add(Counter::RaceLanesEliminated, eliminated.len() as u64);
                    rec.add(Counter::RaceLanesPromoted, keep as u64);
                    if rec.is_enabled() {
                        for &id in &eliminated {
                            rec.trace_event(&Json::Obj(vec![
                                ("event".into(), Json::Str("race_eliminate".into())),
                                ("rung".into(), Json::num_u64(r as u64)),
                                ("lane".into(), Json::num_u64(id as u64)),
                                ("name".into(), Json::Str(states[id].name.clone())),
                                ("best_reward".into(), Json::num_f64(states[id].best_reward)),
                            ]));
                        }
                        for &id in &ranked[..keep] {
                            rec.trace_event(&Json::Obj(vec![
                                ("event".into(), Json::Str("race_promote".into())),
                                ("rung".into(), Json::num_u64(r as u64)),
                                ("lane".into(), Json::num_u64(id as u64)),
                                ("name".into(), Json::Str(states[id].name.clone())),
                                ("best_reward".into(), Json::num_f64(states[id].best_reward)),
                            ]));
                        }
                    }
                }
            }
            rungs_out.push(RungOutcome {
                rung: r,
                lanes: live.len(),
                slice: rung.slice,
                workers_per_lane: pool_jobs,
                eliminated,
            });
        }

        // Crown the winner: the best lane, displaced by the ensemble
        // stream only when the ensemble found a strictly better design.
        let best_id = self.best_lane(&states);
        let mut winner = states[best_id].name.clone();
        let mut best_reward = states[best_id].best_reward;
        let mut best_action = states[best_id]
            .best_action
            .clone()
            .unwrap_or_else(|| Action::new(Vec::new()));
        let mut best_observation = states[best_id].best_observation.clone();
        if let Some((reward, action, observation)) = ensemble_best {
            if reward > best_reward {
                winner = "ensemble".into();
                best_reward = reward;
                best_action = action;
                best_observation = observation;
            }
        }
        let samples_used =
            self.total_samples(&states) + ensemble_out.as_ref().map_or(0, |e| e.samples_used);
        let wall_seconds = start.elapsed().as_secs_f64();
        rec.gauge("race_wall_seconds", wall_seconds);
        rec.gauge("race_best_reward", best_reward);

        Ok(RaceResult {
            env: env_name,
            budget: self.budget,
            eta: self.eta,
            winner,
            best_reward,
            best_action,
            best_observation,
            samples_used,
            wall_seconds,
            lanes: states
                .iter()
                .map(|s| LaneOutcome {
                    lane: s.id,
                    name: s.name.clone(),
                    best_reward: s.best_reward,
                    samples_used: s.samples_used,
                    eliminated_at: s.eliminated_at,
                })
                .collect(),
            rungs: rungs_out,
            ensemble: ensemble_out,
            reward_history: global_history,
            telemetry: rec.report(),
        })
    }

    /// True samples consumed by all lanes so far.
    fn total_samples<E>(&self, states: &[LaneState<E>]) -> u64 {
        states.iter().map(|s| s.samples_used).sum()
    }

    /// The lane id holding the race's best reward (lane-id tiebreak).
    fn best_lane<E>(&self, states: &[LaneState<E>]) -> usize {
        let scored: Vec<(usize, f64)> = states.iter().map(|s| (s.id, s.best_reward)).collect();
        rank_lanes(&scored)[0]
    }

    /// Advance every live lane by `slice` samples, fanning lanes out
    /// over an [`Executor`] of up to `workers` threads (each lane
    /// additionally runs its evaluations over `pool_jobs` pool
    /// replicas). Because each lane's run is independent and
    /// bit-identical at any pool width, which thread runs a lane has no
    /// observable effect on results; the first failure in lane-id order
    /// is reported.
    fn advance_wave<E>(
        &self,
        states: &mut [LaneState<E>],
        rung: usize,
        slice: u64,
        pool_jobs: usize,
        workers: usize,
    ) -> Result<()>
    where
        E: Environment + Clone + Send,
    {
        // Each live lane is one work item; the uncontended lock only
        // hands the executor's shared item reference a `&mut` lane.
        let live: Vec<Mutex<&mut LaneState<E>>> = states
            .iter_mut()
            .filter(|s| s.eliminated_at.is_none())
            .map(Mutex::new)
            .collect();
        let outcomes = Executor::new(workers).map(&live, |lane| {
            let mut lane = lane.lock().expect("poisoned");
            self.advance_lane(&mut lane, rung, slice, pool_jobs)
                .map_err(|e| (lane.id, e))
        });
        match outcomes.into_iter().find_map(|outcome| outcome.err()) {
            Some((id, e)) => Err(ArchGymError::Journal(format!("race lane {id}: {e}"))),
            None => Ok(()),
        }
    }

    /// Drive one lane through one rung slice: an ordinary search run
    /// at budget `slice`, journaled per `(lane, rung)` when the race
    /// has a journal prefix, proxy-screened when the lane carries a
    /// screener.
    fn advance_lane<E>(
        &self,
        lane: &mut LaneState<E>,
        rung: usize,
        slice: u64,
        pool_jobs: usize,
    ) -> Result<()>
    where
        E: Environment + Clone + Send,
    {
        let config = RunConfig::with_budget(slice)
            .batch(self.batch)
            .record(true)
            .jobs(pool_jobs)
            .retry(self.retry);
        let driver = SearchLoop::new(config)
            .with_telemetry(self.telemetry.clone())
            .with_journal_io(Arc::clone(&self.journal_io))
            .with_durability(self.durability);
        let journal = self
            .journal_prefix
            .as_deref()
            .map(|prefix| lane_journal(prefix, lane.id, rung));
        let io = RunIo {
            journal: journal.as_deref(),
            screener: lane.screener.as_deref_mut().map(|s| s as &mut dyn Screener),
        };
        let result = driver.run_env_with(&mut lane.agent, lane.env.clone(), io)?;
        lane.samples_used += result.samples_used;
        if result.samples_used > 0 && result.best_reward > lane.best_reward {
            lane.best_reward = result.best_reward;
            lane.best_action = Some(result.best_action.clone());
            lane.best_observation = result.best_observation.clone();
        }
        lane.slice_history = result.reward_history;
        Ok(())
    }

    /// Run the final rung as a reward-weighted ensemble of the live
    /// lanes' agents.
    fn run_ensemble<E>(
        &self,
        states: &mut [LaneState<E>],
        live: &[usize],
        slice: u64,
        workers: usize,
        env: &E,
    ) -> Result<(EnsembleOutcome, RunResult)>
    where
        E: Environment + Clone + Send,
    {
        let min_best = live
            .iter()
            .map(|&id| states[id].best_reward)
            .fold(f64::INFINITY, f64::min);
        let weights: Vec<f64> = live
            .iter()
            .map(|&id| {
                let w = states[id].best_reward - min_best + 1.0;
                if w.is_finite() && w > 0.0 {
                    w
                } else {
                    1.0
                }
            })
            .collect();
        let mut members: Vec<(&mut (dyn Agent + Send), f64)> = Vec::new();
        {
            let mut wanted: Vec<(usize, f64)> =
                live.iter().copied().zip(weights.iter().copied()).collect();
            for state in states.iter_mut() {
                if let Some(pos) = wanted.iter().position(|&(id, _)| id == state.id) {
                    let (_, w) = wanted.remove(pos);
                    members.push((&mut *state.agent, w));
                }
            }
        }
        let mut ensemble = EnsembleAgent::new(members);
        let config = RunConfig::with_budget(slice)
            .batch(self.batch)
            .record(true)
            .jobs(workers.max(1))
            .retry(self.retry);
        let driver = SearchLoop::new(config)
            .with_telemetry(self.telemetry.clone())
            .with_journal_io(Arc::clone(&self.journal_io))
            .with_durability(self.durability);
        let journal = self.journal_prefix.as_deref().map(ensemble_journal);
        let result = driver.run_env_with(
            &mut ensemble,
            env.clone(),
            RunIo {
                journal: journal.as_deref(),
                screener: None,
            },
        )?;
        let outcome = EnsembleOutcome {
            members: live.to_vec(),
            weights,
            best_reward: result.best_reward,
            samples_used: result.samples_used,
        };
        Ok((outcome, result))
    }
}

/// The journal file of one `(lane, rung)` slice under a race prefix.
pub fn lane_journal(prefix: &Path, lane: usize, rung: usize) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push(format!("-l{lane:03}-r{rung:02}.jsonl"));
    PathBuf::from(s)
}

/// The journal file of the ensemble stage under a race prefix.
pub fn ensemble_journal(prefix: &Path) -> PathBuf {
    let mut s = prefix.as_os_str().to_os_string();
    s.push("-ensemble.jsonl");
    PathBuf::from(s)
}

/// Reward-weighted proposal voting over the surviving lanes' agents.
///
/// Each proposal round, every member proposes up to the batch cap; a
/// candidate's vote is the sum of the weights of the members proposing
/// it (each member votes a given action at most once per round).
/// Candidates are ranked by `(vote desc, first-appearance asc)` — a
/// deterministic total order — and the top slice becomes the ensemble's
/// proposal. Observations fan out to every member, so all survivors
/// keep learning from the elite stream. The paper's agents already
/// accept arbitrary transitions (the warm-start path feeds them
/// offline datasets), which is what makes the fan-out sound.
pub struct EnsembleAgent<'a> {
    members: Vec<(&'a mut (dyn Agent + Send), f64)>,
}

impl<'a> EnsembleAgent<'a> {
    /// An ensemble over `(agent, vote weight)` members.
    pub fn new(members: Vec<(&'a mut (dyn Agent + Send), f64)>) -> Self {
        EnsembleAgent { members }
    }
}

impl Agent for EnsembleAgent<'_> {
    fn name(&self) -> &str {
        "ensemble"
    }

    fn propose(&mut self, max_batch: usize) -> Vec<Action> {
        // (action, vote, first-appearance order)
        let mut ballots: Vec<(Action, f64, usize)> = Vec::new();
        for (member, weight) in self.members.iter_mut() {
            let proposals = member.propose(max_batch);
            let mut voted: Vec<&Action> = Vec::new();
            for action in &proposals {
                if voted.contains(&action) {
                    continue;
                }
                match ballots.iter_mut().find(|(a, _, _)| a == action) {
                    Some((_, vote, _)) => *vote += *weight,
                    None => {
                        let order = ballots.len();
                        ballots.push((action.clone(), *weight, order));
                    }
                }
                voted.push(action);
            }
        }
        ballots.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.2.cmp(&b.2)));
        ballots.truncate(max_batch);
        ballots.into_iter().map(|(action, _, _)| action).collect()
    }

    fn observe(&mut self, results: &[(Action, crate::env::StepResult)]) {
        for (member, _) in self.members.iter_mut() {
            member.observe(results);
        }
    }

    fn batch_hint(&self) -> Option<usize> {
        self.members
            .iter()
            .filter_map(|(member, _)| member.batch_hint())
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::RandomWalker;
    use crate::toy::PeakEnv;

    fn roster(n: usize, space: &crate::space::ParamSpace) -> Vec<RaceLane> {
        (0..n)
            .map(|i| {
                RaceLane::new(
                    format!("rw#{i}"),
                    Box::new(RandomWalker::new(space.clone(), i as u64)),
                )
            })
            .collect()
    }

    #[test]
    fn schedule_covers_budget_exactly_and_ends_at_one() {
        for (lanes, eta, budget) in [(24, 3, 1000), (5, 2, 97), (1, 2, 13), (7, 4, 3)] {
            let schedule = rung_schedule(lanes, eta, budget);
            let total: u64 = schedule.iter().map(|r| r.lanes as u64 * r.slice).sum();
            assert_eq!(total, budget, "lanes={lanes} eta={eta} budget={budget}");
            assert_eq!(schedule.last().unwrap().lanes, 1);
            for pair in schedule.windows(2) {
                assert!(pair[1].slice >= pair[0].slice, "slices must be monotone");
                assert_eq!(pair[1].lanes, halving_keep(pair[0].lanes, eta));
            }
        }
    }

    #[test]
    fn rank_is_permutation_invariant_with_lane_id_tiebreak() {
        let scored = vec![(3, 1.0), (0, 2.0), (2, 1.0), (1, 2.0)];
        let mut shuffled = scored.clone();
        shuffled.reverse();
        assert_eq!(rank_lanes(&scored), vec![0, 1, 2, 3]);
        assert_eq!(rank_lanes(&scored), rank_lanes(&shuffled));
    }

    #[test]
    fn race_consumes_exact_budget_and_eliminates_down_to_one() {
        let env = PeakEnv::new(&[8, 8], vec![5, 1]);
        let space = env.space().clone();
        let result = Race::new(240, 2)
            .batch(8)
            .run(roster(6, &space), env)
            .unwrap();
        assert_eq!(result.samples_used, 240);
        assert_eq!(result.reward_history.len(), 240);
        let survivors = result
            .lanes
            .iter()
            .filter(|l| l.eliminated_at.is_none())
            .count();
        assert_eq!(survivors, 1);
        assert!(result.best_reward > 0.0);
    }

    #[test]
    fn race_is_bit_identical_across_jobs() {
        let env = PeakEnv::new(&[8, 8], vec![5, 1]);
        let space = env.space().clone();
        let run = |jobs| {
            Race::new(180, 3)
                .batch(8)
                .jobs(jobs)
                .run(roster(5, &space), env.clone())
                .unwrap()
        };
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial.reward_history, pooled.reward_history);
        assert_eq!(serial.best_reward, pooled.best_reward);
        assert_eq!(serial.winner, pooled.winner);
    }

    #[test]
    fn race_waves_on_idle_cores_run_on_two_threads_and_match_serial() {
        use crate::executor::testing::{private_budget, TwoThreadEnv};
        let env = PeakEnv::new(&[8, 8], vec![5, 1]);
        let space = env.space().clone();
        let serial = Race::new(180, 3)
            .batch(8)
            .run(roster(5, &space), env.clone())
            .unwrap();
        // Lanes share the wrapper's record of stepping threads, so the
        // race finishes only if its lanes ran on two threads.
        let _core = private_budget(4).hold();
        let pooled = Race::new(180, 3)
            .batch(8)
            .jobs(4)
            .run(roster(5, &space), TwoThreadEnv::new(env))
            .unwrap();
        assert_eq!(serial.reward_history, pooled.reward_history);
        assert_eq!(serial.best_reward, pooled.best_reward);
        assert_eq!(serial.winner, pooled.winner);
    }

    #[test]
    fn ensemble_votes_deterministically_and_fans_observations() {
        let env = PeakEnv::new(&[8, 8], vec![5, 1]);
        let space = env.space().clone();
        let run = || {
            Race::new(200, 2)
                .batch(8)
                .ensemble(true)
                .run(roster(4, &space), env.clone())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.reward_history, b.reward_history);
        let ensemble = a.ensemble.expect("ensemble stage must run");
        assert_eq!(ensemble.members.len(), 2);
        assert_eq!(a.samples_used, 200);
    }

    #[test]
    fn empty_roster_is_an_error() {
        let env = PeakEnv::new(&[4, 4], vec![1, 1]);
        assert!(Race::new(10, 2).run(Vec::new(), env).is_err());
    }
}
