//! Hyperparameter sweeps — the machinery behind the "hyperparameter
//! lottery" studies (Section 6.1, Figs. 4–6).
//!
//! A sweep runs one agent family over every assignment of a [`HyperGrid`]
//! (optionally with several seeds per assignment), collects the best reward
//! of each run, and summarizes the distribution. The paper's headline
//! observation — up to 90% interquartile spread, yet at least one winning
//! ticket per agent family — falls out of [`SweepSummary`].
//!
//! Every `(assignment, seed)` run is independent, so both [`Sweep`] and
//! [`SuccessiveHalving`] fan their runs out over an [`Executor`]: pass
//! [`Sweep::jobs`] a worker count (or `0` for every core) and the grid is
//! evaluated in parallel while the results stay in deterministic grid
//! order — a parallel sweep is point-for-point identical to a serial one.

use crate::agent::{Agent, HyperGrid, HyperMap};
use crate::cache::{CachedEnv, EvalCache};
use crate::env::Environment;
use crate::error::Result;
use crate::executor::Executor;
use crate::search::{RunConfig, RunResult, SearchLoop};
use crate::stats::{summarize, Summary};
use crate::trajectory::Dataset;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The outcome of one `(hyperparameter assignment, seed)` run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The hyperparameter assignment of this run.
    pub hyper: HyperMap,
    /// RNG seed used.
    pub seed: u64,
    /// The run report.
    pub result: RunResult,
}

/// All runs of one agent family over a hyperparameter grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// Agent family identifier (e.g. `"ga"`).
    pub agent: String,
    /// Environment identifier.
    pub env: String,
    /// Every `(assignment, seed)` outcome.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Best rewards across all points, in run order.
    pub fn best_rewards(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.result.best_reward).collect()
    }

    /// Distribution summary of best rewards — one box of a Fig. 4 box plot.
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn summary(&self) -> SweepSummary {
        let rewards = self.best_rewards();
        let stats = summarize(&rewards);
        let winner = self.winner();
        SweepSummary {
            agent: self.agent.clone(),
            env: self.env.clone(),
            stats,
            winning_hyper: winner.hyper.clone(),
            winning_seed: winner.seed,
        }
    }

    /// The winning run (highest best reward).
    ///
    /// # Panics
    ///
    /// Panics if the sweep is empty.
    pub fn winner(&self) -> &SweepPoint {
        self.points
            .iter()
            .max_by(|a, b| {
                a.result
                    .best_reward
                    .partial_cmp(&b.result.best_reward)
                    .expect("NaN reward")
            })
            .expect("empty sweep")
    }

    /// Merge the recorded transitions of every run into one dataset —
    /// this is the per-agent dataset that Fig. 9 aggregates.
    pub fn merged_dataset(&self) -> Dataset {
        let mut merged = Dataset::new();
        for p in &self.points {
            merged.merge(p.result.dataset.clone());
        }
        merged
    }

    /// Export the sweep as CSV — one row per `(assignment, seed)` run —
    /// for external plotting of the lottery distributions. Embedded
    /// double quotes in the hyperparameter summary are doubled per
    /// RFC 4180 so the quoted field stays well-formed.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv<W: std::io::Write>(&self, mut writer: W) -> Result<()> {
        writeln!(
            writer,
            "agent,env,hyper,seed,best_reward,samples_used,wall_seconds"
        )?;
        for p in &self.points {
            writeln!(
                writer,
                "{},{},\"{}\",{},{},{},{}",
                self.agent,
                self.env,
                p.hyper.summary().replace('"', "\"\""),
                p.seed,
                p.result.best_reward,
                p.result.samples_used,
                p.result.wall_seconds
            )?;
        }
        Ok(())
    }
}

/// Distribution summary of one agent's sweep — one box of Fig. 4/5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Agent family identifier.
    pub agent: String,
    /// Environment identifier.
    pub env: String,
    /// Five-number summary of best rewards over the sweep.
    pub stats: Summary,
    /// The hyperparameter assignment of the best run — the "winning
    /// lottery ticket".
    pub winning_hyper: HyperMap,
    /// Seed of the best run.
    pub winning_seed: u64,
}

/// Runs a hyperparameter sweep for one agent family.
///
/// The caller supplies two factories: one building a fresh environment per
/// run (environments may carry mutable simulator state) and one building
/// the agent from a hyperparameter assignment and seed. Both are invoked
/// from worker threads when [`Sweep::jobs`] enables parallelism, so they
/// must be `Fn + Sync`; every worker builds its own environment and agent,
/// which keeps runs fully independent.
#[derive(Debug, Clone)]
pub struct Sweep {
    run_config: RunConfig,
    seeds: Vec<u64>,
    jobs: usize,
    cache: Option<Arc<EvalCache>>,
    telemetry: crate::telemetry::Recorder,
}

impl Sweep {
    /// A serial sweep executing each assignment once with seed `0`.
    pub fn new(run_config: RunConfig) -> Self {
        Sweep {
            run_config,
            seeds: vec![0],
            jobs: 1,
            cache: None,
            telemetry: crate::telemetry::Recorder::default(),
        }
    }

    /// Run each assignment once per seed, builder-style.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Distribute runs over `jobs` worker threads, builder-style.
    /// `0` selects every available core; `1` (the default) runs serially.
    /// Results are in grid order and bit-identical regardless of `jobs`.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Memoize design-point evaluations through a shared [`EvalCache`],
    /// builder-style. Every run (across assignments, seeds and worker
    /// threads) consults the same cache, so revisited configurations
    /// cost a hash lookup instead of a simulation. Only sound when the
    /// environment's `step` is a pure function of the action — true for
    /// all bundled cost models.
    pub fn cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Aggregate run telemetry into `recorder`, builder-style. Every run
    /// (across assignments, seeds and worker threads) records into the
    /// same shared cells, so the recorder ends up with sweep-wide totals.
    pub fn telemetry(mut self, recorder: &crate::telemetry::Recorder) -> Self {
        self.telemetry = recorder.clone();
        self
    }

    /// Execute the sweep over every assignment of a grid.
    ///
    /// # Errors
    ///
    /// Propagates errors from the agent factory (e.g. a grid assignment
    /// with a missing or mistyped hyperparameter).
    pub fn run<E, FE, FA, A>(
        &self,
        agent_name: &str,
        grid: &HyperGrid,
        make_env: FE,
        make_agent: FA,
    ) -> Result<SweepResult>
    where
        E: Environment + Clone + Send,
        A: Agent,
        FE: Fn() -> E + Sync,
        FA: Fn(&HyperMap, u64) -> Result<A> + Sync,
    {
        let assignments: Vec<HyperMap> = grid.iter().collect();
        self.run_assignments(agent_name, &assignments, make_env, make_agent)
    }

    /// Execute the sweep over an explicit list of assignments (e.g. a
    /// capped prefix of a grid).
    ///
    /// # Errors
    ///
    /// Propagates errors from the agent factory.
    pub fn run_assignments<E, FE, FA, A>(
        &self,
        agent_name: &str,
        assignments: &[HyperMap],
        make_env: FE,
        make_agent: FA,
    ) -> Result<SweepResult>
    where
        E: Environment + Clone + Send,
        A: Agent,
        FE: Fn() -> E + Sync,
        FA: Fn(&HyperMap, u64) -> Result<A> + Sync,
    {
        let units: Vec<(&HyperMap, u64)> = assignments
            .iter()
            .flat_map(|hyper| self.seeds.iter().map(move |&seed| (hyper, seed)))
            .collect();
        let outcomes = Executor::new(self.jobs).map(
            &units,
            |&(hyper, seed)| -> Result<(String, SweepPoint)> {
                let env = CachedEnv::with_cache(make_env(), self.cache.clone());
                let env_name = env.name().to_owned();
                let mut agent = make_agent(hyper, seed)?;
                let result = SearchLoop::new(self.run_config.clone())
                    .with_telemetry(self.telemetry.clone())
                    .run_pooled(&mut agent, env);
                Ok((
                    env_name,
                    SweepPoint {
                        hyper: hyper.clone(),
                        seed,
                        result,
                    },
                ))
            },
        );

        let mut points = Vec::with_capacity(outcomes.len());
        let mut env_name = String::new();
        for outcome in outcomes {
            let (name, point): (String, SweepPoint) = outcome?;
            env_name = name;
            points.push(point);
        }
        Ok(SweepResult {
            agent: agent_name.to_owned(),
            env: env_name,
            points,
        })
    }
}

/// Successive-halving survivor count: keep the top `1/eta` fraction of
/// `candidates`, rounded up so at least one survives. This is the one
/// elimination rule shared by [`SuccessiveHalving`] and the online
/// racing scheduler ([`crate::race`]).
pub fn halving_keep(candidates: usize, eta: usize) -> usize {
    candidates.div_ceil(eta)
}

/// One elimination round of a successive-halving tune.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HalvingRound {
    /// Sample budget each surviving assignment received this round.
    pub budget: u64,
    /// Assignments evaluated this round (summaries of their best rewards).
    pub survivors: Vec<(HyperMap, f64)>,
}

/// The outcome of a successive-halving hyperparameter tune.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HalvingResult {
    /// Agent family identifier.
    pub agent: String,
    /// Environment identifier.
    pub env: String,
    /// The winning assignment and its final run.
    pub winner_hyper: HyperMap,
    /// The winner's final full-budget run.
    pub winner_result: RunResult,
    /// Per-round elimination history.
    pub rounds: Vec<HalvingRound>,
    /// Simulator samples actually consumed across all rounds.
    pub total_samples: u64,
    /// What a flat grid sweep at the final budget would have consumed.
    pub flat_sweep_samples: u64,
}

impl HalvingResult {
    /// Sample-budget saving relative to a flat sweep at the final budget.
    pub fn savings_factor(&self) -> f64 {
        self.flat_sweep_samples as f64 / self.total_samples.max(1) as f64
    }
}

/// Successive halving over a hyperparameter grid: evaluate every
/// assignment cheaply, keep the best `1/eta` fraction, multiply the
/// budget by `eta`, repeat until one assignment remains.
///
/// The paper observes that finding good hyperparameters "requires a
/// significant amount of resources" and that tuning techniques add
/// another layer of complexity; successive halving is the standard way
/// to spend those simulator samples sub-linearly in grid size. Each
/// round's candidates are independent, so rounds parallelize over
/// [`SuccessiveHalving::jobs`] workers with deterministic results.
#[derive(Debug, Clone)]
pub struct SuccessiveHalving {
    initial_budget: u64,
    eta: usize,
    seed: u64,
    jobs: usize,
    cache: Option<Arc<EvalCache>>,
}

impl SuccessiveHalving {
    /// Create a tuner starting each assignment at `initial_budget`
    /// samples, keeping the top `1/eta` each round.
    ///
    /// # Panics
    ///
    /// Panics if `eta < 2` or `initial_budget == 0`.
    pub fn new(initial_budget: u64, eta: usize) -> Self {
        assert!(eta >= 2, "eta must be at least 2");
        assert!(initial_budget > 0, "initial budget must be positive");
        SuccessiveHalving {
            initial_budget,
            eta,
            seed: 0,
            jobs: 1,
            cache: None,
        }
    }

    /// Override the per-run seed, builder-style.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Evaluate each round's candidates over `jobs` worker threads,
    /// builder-style. `0` selects every available core; `1` (the
    /// default) runs serially.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Memoize design-point evaluations through a shared [`EvalCache`],
    /// builder-style. Halving is a prime cache customer: surviving
    /// assignments re-explore much of the previous round's territory at
    /// the larger budget.
    pub fn cache(mut self, cache: Arc<EvalCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Run the tune.
    ///
    /// # Errors
    ///
    /// Propagates agent-factory errors; fails on an empty grid.
    pub fn run<E, FE, FA, A>(
        &self,
        agent_name: &str,
        grid: &HyperGrid,
        make_env: FE,
        make_agent: FA,
    ) -> Result<HalvingResult>
    where
        E: Environment + Clone + Send,
        A: Agent,
        FE: Fn() -> E + Sync,
        FA: Fn(&HyperMap, u64) -> Result<A> + Sync,
    {
        let mut candidates: Vec<HyperMap> = grid.iter().collect();
        if candidates.is_empty() {
            return Err(crate::error::ArchGymError::InvalidConfig(
                "successive halving needs a non-empty grid".into(),
            ));
        }
        let executor = Executor::new(self.jobs);
        let grid_size = candidates.len() as u64;
        let mut budget = self.initial_budget;
        let mut rounds = Vec::new();
        let mut total_samples = 0u64;
        let mut env_name = String::new();

        // Each iteration evaluates the surviving candidates at the
        // current budget and keeps the top 1/eta; the loop exits by
        // yielding the final round's best run directly.
        let (winner_hyper, winner_result) = loop {
            let round_config = RunConfig::with_budget(budget).record(false);
            let outcomes = executor.map(&candidates, |hyper| -> Result<(String, RunResult)> {
                let env = CachedEnv::with_cache(make_env(), self.cache.clone());
                let name = env.name().to_owned();
                let mut agent = make_agent(hyper, self.seed)?;
                let result = SearchLoop::new(round_config.clone()).run_pooled(&mut agent, env);
                Ok((name, result))
            });
            let mut scored: Vec<(HyperMap, RunResult)> = Vec::with_capacity(candidates.len());
            for (hyper, outcome) in candidates.iter().zip(outcomes) {
                let (name, result): (String, RunResult) = outcome?;
                env_name = name;
                total_samples += result.samples_used;
                scored.push((hyper.clone(), result));
            }
            scored.sort_by(|a, b| {
                b.1.best_reward
                    .partial_cmp(&a.1.best_reward)
                    .expect("NaN reward")
            });
            rounds.push(HalvingRound {
                budget,
                survivors: scored
                    .iter()
                    .map(|(h, r)| (h.clone(), r.best_reward))
                    .collect(),
            });
            scored.truncate(halving_keep(scored.len(), self.eta));
            if scored.len() <= 1 {
                break scored.remove(0);
            }
            budget *= self.eta as u64;
            candidates = scored.into_iter().map(|(h, _)| h).collect();
        };
        let final_budget = rounds.last().map_or(0, |r| r.budget);

        Ok(HalvingResult {
            agent: agent_name.to_owned(),
            env: env_name,
            winner_hyper,
            winner_result,
            rounds,
            total_samples,
            flat_sweep_samples: grid_size * final_budget,
        })
    }
}

/// Normalize each agent's mean best reward by the best mean across agents —
/// the y-axis of Fig. 7 ("mean normalized reward").
///
/// Returns `(agent, normalized mean)` pairs in the input order. An all-zero
/// or negative-best field normalizes against the maximum *absolute* mean to
/// keep the scale meaningful.
pub fn mean_normalized_rewards(sweeps: &[SweepResult]) -> Vec<(String, f64)> {
    let means: Vec<(String, f64)> = sweeps
        .iter()
        .map(|s| {
            let rewards = s.best_rewards();
            let mean = if rewards.is_empty() {
                0.0
            } else {
                rewards.iter().sum::<f64>() / rewards.len() as f64
            };
            (s.agent.clone(), mean)
        })
        .collect();
    let denom = means
        .iter()
        .map(|(_, m)| m.abs())
        .fold(0.0f64, f64::max)
        .max(f64::EPSILON);
    means.into_iter().map(|(a, m)| (a, m / denom)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::RandomWalker;
    use crate::toy::PeakEnv;

    fn peak_grid() -> HyperGrid {
        HyperGrid::new().axis("dummy", [1i64, 2, 3])
    }

    /// Everything but wall-clock must match point-for-point — the
    /// determinism contract of parallel sweeps.
    fn assert_points_identical(a: &SweepResult, b: &SweepResult) {
        assert_eq!(a.agent, b.agent);
        assert_eq!(a.env, b.env);
        assert_eq!(a.points.len(), b.points.len());
        for (pa, pb) in a.points.iter().zip(&b.points) {
            assert_eq!(pa.hyper, pb.hyper);
            assert_eq!(pa.seed, pb.seed);
            assert_eq!(pa.result.agent, pb.result.agent);
            assert_eq!(pa.result.env, pb.result.env);
            assert_eq!(pa.result.best_reward, pb.result.best_reward);
            assert_eq!(pa.result.best_action, pb.result.best_action);
            assert_eq!(pa.result.best_observation, pb.result.best_observation);
            assert_eq!(pa.result.samples_used, pb.result.samples_used);
            assert_eq!(pa.result.reward_history, pb.result.reward_history);
            assert_eq!(pa.result.dataset, pb.result.dataset);
        }
    }

    #[test]
    fn sweep_runs_grid_times_seeds() {
        let sweep = Sweep::new(RunConfig::with_budget(20)).seeds([1, 2]);
        let result = sweep
            .run(
                "rw",
                &peak_grid(),
                || PeakEnv::new(&[8, 8], vec![1, 6]),
                |_hyper, seed| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[8, 8], vec![1, 6]).space().clone(),
                        seed,
                    ))
                },
            )
            .unwrap();
        assert_eq!(result.points.len(), 6);
        assert_eq!(result.agent, "rw");
        assert_eq!(result.env, "peak");
        assert!(result.points.iter().all(|p| p.result.samples_used == 20));
    }

    #[test]
    fn parallel_sweep_is_point_identical_to_serial() {
        let run_at = |jobs: usize| {
            Sweep::new(RunConfig::with_budget(40))
                .seeds([1, 2, 3])
                .jobs(jobs)
                .run(
                    "rw",
                    &peak_grid(),
                    || PeakEnv::new(&[9, 9], vec![4, 7]),
                    |hyper, seed| {
                        let offset = hyper.int("dummy")? as u64;
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[9, 9], vec![4, 7]).space().clone(),
                            seed + offset * 100,
                        ))
                    },
                )
                .unwrap()
        };
        let serial = run_at(1);
        for jobs in [2, 4, 0] {
            assert_points_identical(&serial, &run_at(jobs));
        }
    }

    #[test]
    fn sweep_on_idle_cores_runs_on_two_threads_and_matches_serial() {
        use crate::executor::testing::{meet, private_budget};
        let seen = std::sync::Mutex::default();
        let run_at = |jobs: usize| {
            Sweep::new(RunConfig::with_budget(40))
                .seeds([1, 2, 3])
                .jobs(jobs)
                .run(
                    "rw",
                    &peak_grid(),
                    || {
                        if jobs > 1 {
                            meet(&seen, 2);
                        }
                        PeakEnv::new(&[9, 9], vec![4, 7])
                    },
                    |hyper, seed| {
                        let offset = hyper.int("dummy")? as u64;
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[9, 9], vec![4, 7]).space().clone(),
                            seed + offset * 100,
                        ))
                    },
                )
                .unwrap()
        };
        let serial = run_at(1);
        // The test thread's private budget has an idle core whatever else
        // the process runs, and the first run starts only once a second
        // thread has started one too.
        let _core = private_budget(2).hold();
        assert_points_identical(&serial, &run_at(2));
    }

    #[test]
    fn cached_sweep_is_point_identical_to_uncached() {
        let run = |cache: Option<Arc<EvalCache>>, jobs: usize| {
            let mut sweep = Sweep::new(RunConfig::with_budget(40))
                .seeds([1, 2, 3])
                .jobs(jobs);
            if let Some(cache) = cache {
                sweep = sweep.cache(cache);
            }
            sweep
                .run(
                    "rw",
                    &peak_grid(),
                    || PeakEnv::new(&[9, 9], vec![4, 7]),
                    |hyper, seed| {
                        let offset = hyper.int("dummy")? as u64;
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[9, 9], vec![4, 7]).space().clone(),
                            seed + offset * 100,
                        ))
                    },
                )
                .unwrap()
        };
        let uncached = run(None, 1);
        // Serial and parallel cached sweeps both match the uncached run.
        for jobs in [1, 4] {
            let cache = Arc::new(EvalCache::new());
            let cached = run(Some(cache.clone()), jobs);
            assert_points_identical(&uncached, &cached);
            let stats = cache.stats();
            // 9 runs × 40 samples over an 81-point space: revisits are
            // guaranteed, so the cache must have served hits.
            assert_eq!(stats.hits + stats.misses, 9 * 40, "jobs={jobs}");
            assert!(stats.hits > 0, "jobs={jobs}");
            assert!(stats.entries <= 81, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_cached_sweep_reports_the_serial_cache_stats() {
        use crate::executor::testing::{meet, private_budget};
        // Two runs on the same seed propose the same designs in the same
        // order, so at --jobs 2 they miss on each key at about the same
        // time. The later miss must wait for the first simulation and
        // count as a hit, exactly as the serial sweep's second run does.
        let stats_at = |jobs: usize| {
            let cache = Arc::new(EvalCache::new());
            let seen = std::sync::Mutex::default();
            Sweep::new(RunConfig::with_budget(120))
                .seeds([7, 7])
                .jobs(jobs)
                .cache(cache.clone())
                .run_assignments(
                    "rw",
                    &[HyperMap::new()],
                    || {
                        // The two runs start together, on two threads.
                        if jobs > 1 {
                            meet(&seen, 2);
                        }
                        PeakEnv::new(&[12, 12], vec![4, 7])
                    },
                    |_hyper, seed| {
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[12, 12], vec![4, 7]).space().clone(),
                            seed,
                        ))
                    },
                )
                .unwrap();
            cache.stats()
        };
        let serial = stats_at(1);
        assert_eq!(serial.inserts, serial.entries);
        // A private budget has an idle core for the second run whatever
        // else the process runs.
        let _core = private_budget(2).hold();
        for rep in 0..20 {
            assert_eq!(stats_at(2), serial, "repetition {rep}");
        }
    }

    #[test]
    fn cold_and_warm_cached_sweeps_produce_identical_csv() {
        let cache = Arc::new(EvalCache::new());
        let run = || {
            Sweep::new(RunConfig::with_budget(30))
                .seeds([5, 6])
                .cache(cache.clone())
                .run(
                    "rw",
                    &peak_grid(),
                    || PeakEnv::new(&[8, 8], vec![2, 6]),
                    |_h, seed| {
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[8, 8], vec![2, 6]).space().clone(),
                            seed,
                        ))
                    },
                )
                .unwrap()
        };
        let csv_of = |result: &SweepResult| {
            let mut buf = Vec::new();
            result.write_csv(&mut buf).unwrap();
            // Wall-clock differs run to run; the determinism contract
            // covers everything else, so strip the last CSV column.
            String::from_utf8(buf)
                .unwrap()
                .lines()
                .map(|l| l.rsplit_once(',').unwrap().0.to_owned())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let cold = run();
        let misses_after_cold = cache.stats().misses;
        let warm = run();
        assert_eq!(csv_of(&cold), csv_of(&warm));
        // The warm pass re-asks only already-seen points.
        assert_eq!(cache.stats().misses, misses_after_cold);
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn cached_halving_matches_uncached() {
        let grid = HyperGrid::new().axis("dummy", [1i64, 2, 3, 4]);
        let run = |cache: Option<Arc<EvalCache>>| {
            let mut tuner = SuccessiveHalving::new(8, 2).jobs(2);
            if let Some(cache) = cache {
                tuner = tuner.cache(cache);
            }
            tuner
                .run(
                    "rw",
                    &grid,
                    || PeakEnv::new(&[20, 20], vec![11, 6]),
                    |hyper, _seed| {
                        let seed = hyper.int("dummy")? as u64;
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[20, 20], vec![11, 6]).space().clone(),
                            seed,
                        ))
                    },
                )
                .unwrap()
        };
        let plain = run(None);
        let cache = Arc::new(EvalCache::new());
        let cached = run(Some(cache.clone()));
        assert_eq!(plain.winner_hyper, cached.winner_hyper);
        assert_eq!(
            plain.winner_result.best_reward,
            cached.winner_result.best_reward
        );
        assert_eq!(plain.rounds, cached.rounds);
        assert!(cache.stats().hits + cache.stats().misses > 0);
    }

    #[test]
    fn summary_identifies_winner() {
        let sweep = Sweep::new(RunConfig::with_budget(64));
        let result = sweep
            .run(
                "rw",
                &peak_grid(),
                || PeakEnv::new(&[4, 4], vec![3, 3]),
                |hyper, _seed| {
                    // Seed derived from the hyper so runs differ.
                    let seed = hyper.int("dummy")? as u64;
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[4, 4], vec![3, 3]).space().clone(),
                        seed,
                    ))
                },
            )
            .unwrap();
        let summary = result.summary();
        assert_eq!(summary.stats.count, 3);
        assert!(summary.stats.max >= summary.stats.median);
        assert_eq!(result.winner().result.best_reward, summary.stats.max);
        // 64 samples over a 16-point space: the peak is found.
        assert_eq!(summary.stats.max, 1.0);
    }

    #[test]
    fn merged_dataset_accumulates_all_runs() {
        let sweep = Sweep::new(RunConfig::with_budget(10));
        let result = sweep
            .run(
                "rw",
                &peak_grid(),
                || PeakEnv::new(&[5], vec![2]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[5], vec![2]).space().clone(),
                        s,
                    ))
                },
            )
            .unwrap();
        assert_eq!(result.merged_dataset().len(), 30);
    }

    #[test]
    fn run_assignments_matches_full_grid_prefix() {
        let grid = peak_grid();
        let assignments: Vec<HyperMap> = grid.iter().take(2).collect();
        let sweep = Sweep::new(RunConfig::with_budget(15)).seeds([4]);
        let make_env = || PeakEnv::new(&[7], vec![3]);
        let make_agent = |_h: &HyperMap, s: u64| {
            Ok(RandomWalker::new(
                PeakEnv::new(&[7], vec![3]).space().clone(),
                s,
            ))
        };
        let capped = sweep
            .run_assignments("rw", &assignments, make_env, make_agent)
            .unwrap();
        let full = sweep.run("rw", &grid, make_env, make_agent).unwrap();
        assert_eq!(capped.points.len(), 2);
        assert_points_identical(
            &capped,
            &SweepResult {
                agent: full.agent.clone(),
                env: full.env.clone(),
                points: full.points[..2].to_vec(),
            },
        );
    }

    #[test]
    fn mean_normalized_rewards_peak_at_one() {
        let sweep = Sweep::new(RunConfig::with_budget(30));
        let a = sweep
            .run(
                "rw-a",
                &peak_grid(),
                || PeakEnv::new(&[6], vec![5]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[6], vec![5]).space().clone(),
                        s,
                    ))
                },
            )
            .unwrap();
        let b = sweep
            .run(
                "rw-b",
                &peak_grid(),
                || PeakEnv::new(&[6], vec![5]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[6], vec![5]).space().clone(),
                        s + 10,
                    ))
                },
            )
            .unwrap();
        let normalized = mean_normalized_rewards(&[a, b]);
        assert_eq!(normalized.len(), 2);
        let max = normalized.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        assert!(normalized.iter().all(|(_, v)| *v <= 1.0 + 1e-12));
    }

    #[test]
    fn sweep_csv_export_has_one_row_per_run() {
        let sweep = Sweep::new(RunConfig::with_budget(10)).seeds([1, 2]);
        let result = sweep
            .run(
                "rw",
                &peak_grid(),
                || PeakEnv::new(&[5], vec![2]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[5], vec![2]).space().clone(),
                        s,
                    ))
                },
            )
            .unwrap();
        let mut buf = Vec::new();
        result.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + 6); // header + 3 assignments × 2 seeds
        assert!(lines[0].starts_with("agent,env,hyper"));
        assert!(lines[1].starts_with("rw,peak,"));
    }

    #[test]
    fn sweep_csv_escapes_embedded_quotes() {
        let mut sweep = Sweep::new(RunConfig::with_budget(5))
            .run(
                "rw",
                &peak_grid(),
                || PeakEnv::new(&[5], vec![2]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[5], vec![2]).space().clone(),
                        s,
                    ))
                },
            )
            .unwrap();
        sweep.points[0].hyper.set("label", "say \"hi\"");
        let mut buf = Vec::new();
        sweep.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let row = text.lines().nth(1).unwrap();
        // The embedded quotes are doubled, keeping the field well-formed.
        assert!(row.contains(r#"say ""hi"""#), "{row}");
        // An RFC 4180 parse of the row yields exactly 7 fields.
        let mut fields = 0;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert!(!in_quotes, "unbalanced quotes: {row}");
        assert_eq!(fields + 1, 7, "{row}");
    }

    #[test]
    fn successive_halving_eliminates_down_to_one_winner() {
        // A grid where the "dummy" hyperparameter is actually the seed,
        // so assignments genuinely differ in quality.
        let grid = HyperGrid::new().axis("dummy", [1i64, 2, 3, 4, 5, 6, 7, 8]);
        let tuner = SuccessiveHalving::new(8, 2);
        let result = tuner
            .run(
                "rw",
                &grid,
                || PeakEnv::new(&[30, 30], vec![17, 3]),
                |hyper, _seed| {
                    let seed = hyper.int("dummy")? as u64;
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[30, 30], vec![17, 3]).space().clone(),
                        seed,
                    ))
                },
            )
            .unwrap();
        // 8 → 4 → 2 → 1 candidates: three evaluation rounds.
        assert_eq!(result.rounds.len(), 3);
        assert_eq!(result.rounds[0].survivors.len(), 8);
        assert_eq!(result.rounds[1].survivors.len(), 4);
        assert_eq!(result.rounds[2].survivors.len(), 2);
        // Budgets escalate geometrically.
        assert_eq!(result.rounds[0].budget, 8);
        assert_eq!(result.rounds[2].budget, 32);
        // Total cost is below a flat final-budget sweep of all 8.
        assert!(result.total_samples < result.flat_sweep_samples);
        assert!(result.savings_factor() > 1.2);
        // The winner is the best of the final round.
        assert_eq!(
            result.winner_result.best_reward,
            result.rounds[2].survivors[0].1
        );
    }

    #[test]
    fn parallel_halving_matches_serial() {
        let grid = HyperGrid::new().axis("dummy", [1i64, 2, 3, 4, 5, 6]);
        let run_at = |jobs: usize| {
            SuccessiveHalving::new(8, 2)
                .jobs(jobs)
                .run(
                    "rw",
                    &grid,
                    || PeakEnv::new(&[20, 20], vec![11, 6]),
                    |hyper, _seed| {
                        let seed = hyper.int("dummy")? as u64;
                        Ok(RandomWalker::new(
                            PeakEnv::new(&[20, 20], vec![11, 6]).space().clone(),
                            seed,
                        ))
                    },
                )
                .unwrap()
        };
        let serial = run_at(1);
        let parallel = run_at(4);
        assert_eq!(serial.winner_hyper, parallel.winner_hyper);
        assert_eq!(
            serial.winner_result.best_reward,
            parallel.winner_result.best_reward
        );
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.total_samples, parallel.total_samples);
        assert_eq!(serial.flat_sweep_samples, parallel.flat_sweep_samples);
    }

    #[test]
    fn successive_halving_single_candidate_grid_still_reports_a_winner() {
        let grid = HyperGrid::new().axis("dummy", [7i64]);
        let result = SuccessiveHalving::new(16, 2)
            .run(
                "rw",
                &grid,
                || PeakEnv::new(&[10], vec![4]),
                |_h, s| {
                    Ok(RandomWalker::new(
                        PeakEnv::new(&[10], vec![4]).space().clone(),
                        s,
                    ))
                },
            )
            .unwrap();
        assert_eq!(result.rounds.len(), 1);
        assert_eq!(result.winner_hyper.int("dummy").unwrap(), 7);
        assert_eq!(
            result.winner_result.best_reward,
            result.rounds[0].survivors[0].1
        );
    }

    #[test]
    fn successive_halving_rejects_empty_grid_and_bad_eta() {
        let grid = HyperGrid::new().axis("x", Vec::<i64>::new());
        let tuner = SuccessiveHalving::new(4, 2);
        assert!(tuner
            .run(
                "rw",
                &grid,
                || PeakEnv::new(&[4], vec![1]),
                |_h, s| Ok(RandomWalker::new(
                    PeakEnv::new(&[4], vec![1]).space().clone(),
                    s
                )),
            )
            .is_err());
    }

    #[test]
    #[should_panic(expected = "eta must be at least 2")]
    fn successive_halving_panics_on_eta_one() {
        let _ = SuccessiveHalving::new(4, 1);
    }

    #[test]
    fn agent_factory_errors_propagate() {
        let sweep = Sweep::new(RunConfig::with_budget(10));
        let err = sweep.run(
            "rw",
            &peak_grid(),
            || PeakEnv::new(&[5], vec![2]),
            |hyper, _s| {
                hyper.float("missing")?; // always fails
                Ok(RandomWalker::new(
                    PeakEnv::new(&[5], vec![2]).space().clone(),
                    0,
                ))
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn parallel_agent_factory_errors_propagate() {
        let sweep = Sweep::new(RunConfig::with_budget(10)).jobs(4).seeds([1, 2]);
        let err = sweep.run(
            "rw",
            &peak_grid(),
            || PeakEnv::new(&[5], vec![2]),
            |hyper, _s| {
                hyper.float("missing")?; // always fails
                Ok(RandomWalker::new(
                    PeakEnv::new(&[5], vec![2]).space().clone(),
                    0,
                ))
            },
        );
        assert!(err.is_err());
    }
}
