//! One job path: a [`JobSpec`] in, the raw results out.
//!
//! The CLI's `search`, `compare`, `search --auto` and `sweep` and the
//! daemon's workers all run a spec through [`run`], so the same spec
//! builds the same environment, roster, screeners, `RunConfig`, `Race`
//! and `Sweep` on every surface. What really differs between the
//! surfaces comes in through [`Hooks`]: telemetry sinks, the daemon's
//! stop guard around each agent, where journals go, and the CLI-only
//! run inputs behind its flags.

use crate::spec::make_env;
use crate::store::JobStore;
use archgym_agents::factory::{build_agent, default_grid, race_roster, AgentKind, RosterEntry};
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::cache::EvalCache;
use archgym_core::env::CloneEnvironment;
use archgym_core::error::{ArchGymError, Result};
use archgym_core::fault::{FaultPlan, FaultStats, FaultyEnv};
use archgym_core::jobs::{JobId, JobKind, JobSpec};
use archgym_core::race::{Race, RaceLane, RaceResult};
use archgym_core::screen::Screener;
use archgym_core::search::{RetryPolicy, RunConfig, RunIo, RunResult, SearchLoop};
use archgym_core::space::ParamSpace;
use archgym_core::sweep::{Sweep, SweepResult};
use archgym_core::telemetry::Recorder;
use archgym_proxy::OnlineProxy;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Race elimination factor when [`JobSpec::race_eta`] is 0.
pub const RACE_ETA: usize = 3;
/// Race tickets per agent family when [`JobSpec::race_cap`] is 0.
pub const RACE_CAP: usize = 4;
/// Sweep grid assignments per family unless [`Hooks::grid`] says otherwise.
pub const GRID_CAP: usize = 9;

/// An agent as jobs build and race it.
pub type BoxedAgent = Box<dyn Agent + Send>;

/// Where a job's runs journal.
pub enum Journal<'a> {
    /// Nowhere.
    None,
    /// The file of a `search` job, or the lane-file prefix of a `race`
    /// job; the default store I/O and durability.
    Path(&'a Path),
    /// Job `id`'s files in the daemon's state directory, written through
    /// the store's I/O seam at its durability.
    Store(&'a JobStore, JobId),
}

/// What differs between the surfaces that run a job.
pub struct Hooks<'a> {
    /// A recorder for each search run, race or sweep (`None`: no telemetry).
    pub recorder: &'a dyn Fn() -> Option<Recorder>,
    /// Wraps every agent before it runs (the daemon's stop guard).
    pub wrap: &'a (dyn Fn(BoxedAgent) -> BoxedAgent + Sync),
    /// Where the runs journal.
    pub journal: Journal<'a>,
    /// Retry policy for failed evaluations.
    pub retry: RetryPolicy,
    /// Faults injected into each search run's environment.
    pub fault: Option<FaultPlan>,
    /// Keep each search run's transitions in its dataset.
    pub record: bool,
    /// Evaluation cache shared by a sweep's runs.
    pub cache: Option<Arc<EvalCache>>,
    /// Grid assignments a sweep takes from its family's default grid.
    pub grid: usize,
}

fn no_recorder() -> Option<Recorder> {
    None
}

fn unwrapped(agent: BoxedAgent) -> BoxedAgent {
    agent
}

impl Default for Hooks<'_> {
    /// No telemetry, journals, faults or cache; agents run as built.
    fn default() -> Self {
        Hooks {
            recorder: &no_recorder,
            wrap: &unwrapped,
            journal: Journal::None,
            retry: RetryPolicy::default(),
            fault: None,
            record: false,
            cache: None,
            grid: GRID_CAP,
        }
    }
}

/// One search run of a `search` or `compare` job.
pub struct Run {
    /// Its result.
    pub result: RunResult,
    /// The recorder [`Hooks::recorder`] gave it.
    pub telemetry: Option<Recorder>,
    /// Faults injected under [`Hooks::fault`].
    pub injected: Option<FaultStats>,
}

/// The raw results of a job.
pub enum Outcome {
    /// One run per roster agent (`search`: one; `compare`: the roster).
    Runs(Vec<Run>),
    /// The race of a `race` job.
    Race(Box<RaceResult>),
    /// The sweep of a `sweep` job.
    Sweep(SweepResult),
}

impl Outcome {
    /// The best reward over every run, and the samples they used.
    pub fn best_and_samples(&self) -> (Option<f64>, u64) {
        match self {
            Outcome::Runs(runs) => {
                let best = (runs.iter().map(|run| run.result.best_reward))
                    .reduce(|best, reward| if reward > best { reward } else { best });
                (best, runs.iter().map(|run| run.result.samples_used).sum())
            }
            Outcome::Race(race) => (Some(race.best_reward), race.samples_used),
            Outcome::Sweep(sweep) => (
                Some(sweep.winner().result.best_reward),
                sweep.points.iter().map(|p| p.result.samples_used).sum(),
            ),
        }
    }
}

/// The agents a spec runs, resolved without building any.
enum Roster {
    Runs(Vec<AgentKind>),
    Race(Vec<RosterEntry>),
    Sweep(AgentKind, Vec<HyperMap>),
}

fn roster(spec: &JobSpec, grid: usize) -> Result<Roster> {
    let agents = || spec.agents.iter().map(|name| AgentKind::parse(name));
    Ok(match spec.kind {
        JobKind::Search => Roster::Runs(vec![AgentKind::parse(&spec.agent)?]),
        JobKind::Compare if spec.agents.is_empty() => Roster::Runs(AgentKind::EXTENDED.to_vec()),
        JobKind::Compare => Roster::Runs(agents().collect::<Result<_>>()?),
        JobKind::Race => {
            let kinds = agents().collect::<Result<Vec<_>>>()?;
            let cap = Some(spec.race_cap).filter(|&cap| cap > 0);
            let mut lanes = race_roster(cap.unwrap_or(RACE_CAP));
            lanes.retain(|entry| kinds.is_empty() || kinds.contains(&entry.kind));
            if lanes.is_empty() {
                return Err(ArchGymError::InvalidConfig(
                    "the agents filter leaves no race lane (the roster races \
                     aco|bo|ga|rl|sa|ppo)"
                        .into(),
                ));
            }
            Roster::Race(lanes)
        }
        JobKind::Sweep => {
            let kind = AgentKind::parse(&spec.agent)?;
            if grid == 0 {
                return Err(ArchGymError::InvalidConfig("sweep grid is empty".into()));
            }
            Roster::Sweep(kind, default_grid(kind).iter().take(grid).collect())
        }
    })
}

/// The job's environment; an empty objective is the family default.
fn job_env(spec: &JobSpec) -> Result<Box<dyn CloneEnvironment>> {
    make_env(
        &spec.env,
        (!spec.objective.is_empty()).then_some(&*spec.objective),
    )
}

/// Check a spec as [`run`] would, building its environment but no agent.
///
/// # Errors
///
/// Returns [`ArchGymError::InvalidConfig`] for an invalid spec, an
/// unknown environment or agent, or a race roster the filter empties.
pub fn check(spec: &JobSpec) -> Result<()> {
    spec.validate()?;
    job_env(spec)?;
    roster(spec, GRID_CAP).map(drop)
}

/// A factory for `kind` agents on `space`, as sweeps and halving take it.
pub fn agent_factory(
    kind: AgentKind,
    space: &ParamSpace,
) -> impl Fn(&HyperMap, u64) -> Result<BoxedAgent> + Sync + '_ {
    move |hyper, seed| build_agent(kind, space, hyper, seed)
}

/// Run `spec` to its raw results. Also returns the job's environment,
/// for decoding and labelling the best design.
///
/// # Errors
///
/// Returns the first error of [`check`], of building an agent or
/// screener, or of the run itself.
pub fn run(spec: &JobSpec, hooks: &Hooks) -> Result<(Box<dyn CloneEnvironment>, Outcome)> {
    spec.validate()?;
    let env = job_env(spec)?;
    let outcome = match roster(spec, hooks.grid)? {
        Roster::Runs(kinds) => Outcome::Runs(
            kinds
                .into_iter()
                .map(|kind| search(spec, kind, env.clone(), hooks))
                .collect::<Result<_>>()?,
        ),
        Roster::Race(entries) => Outcome::Race(Box::new(race(spec, entries, env.clone(), hooks)?)),
        Roster::Sweep(kind, grid) => {
            let (make, wrap) = (agent_factory(kind, env.space()), hooks.wrap);
            let mut sweep = Sweep::new(RunConfig::with_budget(spec.budget).record(false))
                .seeds(spec.seed..spec.seed + spec.sweep_seeds)
                .jobs(spec.eval_jobs);
            if let Some(rec) = (hooks.recorder)() {
                sweep = sweep.telemetry(&rec);
            }
            if let Some(cache) = &hooks.cache {
                sweep = sweep.cache(Arc::clone(cache));
            }
            Outcome::Sweep(sweep.run_assignments(
                kind.name(),
                &grid,
                || env.clone(),
                |hyper, seed| Ok(wrap(make(hyper, seed)?)),
            )?)
        }
    };
    Ok((env, outcome))
}

/// One screener per search run or race lane, seeded like its agent.
fn screener(spec: &JobSpec) -> Result<Option<OnlineProxy>> {
    spec.proxy
        .map(|policy| OnlineProxy::with_defaults(policy, spec.seed))
        .transpose()
}

fn search(
    spec: &JobSpec,
    kind: AgentKind,
    env: Box<dyn CloneEnvironment>,
    hooks: &Hooks,
) -> Result<Run> {
    let mut agent = (hooks.wrap)(build_agent(kind, env.space(), &HyperMap::new(), spec.seed)?);
    let mut screener = screener(spec)?;
    let config = RunConfig::with_budget(spec.budget)
        .batch(spec.batch)
        .record(hooks.record)
        .jobs(spec.eval_jobs)
        .retry(hooks.retry);
    let mut driver = SearchLoop::new(config);
    let telemetry = (hooks.recorder)();
    if let Some(rec) = &telemetry {
        driver = driver.with_telemetry(rec.clone());
    }
    let journal: Option<PathBuf> = match hooks.journal {
        Journal::None => None,
        Journal::Path(path) => Some(path.to_owned()),
        Journal::Store(store, id) => {
            driver = driver
                .with_journal_io(Arc::clone(store.io()))
                .with_durability(store.durability());
            Some(match spec.kind {
                JobKind::Compare => store.agent_journal_path(id, kind.name()),
                _ => store.journal_path(id),
            })
        }
    };
    // Clones of a faulty env share its counters, so the kept one sees
    // the run's.
    let faulty = hooks.fault.map(|plan| FaultyEnv::new(env.clone(), plan));
    let run_env: Box<dyn CloneEnvironment> = match &faulty {
        Some(faulty) => Box::new(faulty.clone()),
        None => env,
    };
    let io = RunIo {
        journal: journal.as_deref(),
        screener: screener.as_mut().map(|s| s as &mut dyn Screener),
    };
    let result = driver.run_env_with(&mut agent, run_env, io)?;
    Ok(Run {
        result,
        telemetry,
        injected: faulty.map(|faulty| faulty.stats()),
    })
}

/// Race the roster under online successive halving on the job's budget;
/// every `(lane, rung)` slice journals under the prefix, so a resumed
/// race replays its finished slices bit-identically.
fn race(
    spec: &JobSpec,
    entries: Vec<RosterEntry>,
    env: Box<dyn CloneEnvironment>,
    hooks: &Hooks,
) -> Result<RaceResult> {
    let mut lanes = Vec::with_capacity(entries.len());
    for entry in entries {
        let agent = build_agent(entry.kind, env.space(), &entry.hyper, spec.seed)?;
        let mut lane = RaceLane::new(entry.name, (hooks.wrap)(agent));
        if let Some(screener) = screener(spec)? {
            lane = lane.screened(Box::new(screener));
        }
        lanes.push(lane);
    }
    let eta = Some(spec.race_eta).filter(|&eta| eta > 0);
    let mut race = Race::new(spec.budget, eta.unwrap_or(RACE_ETA))
        .batch(spec.batch)
        .jobs(spec.eval_jobs)
        .ensemble(spec.race_ensemble)
        .retry(hooks.retry);
    if let Some(rec) = (hooks.recorder)() {
        race = race.with_telemetry(rec);
    }
    match hooks.journal {
        Journal::None => {}
        Journal::Path(prefix) => race = race.with_journal_prefix(prefix),
        Journal::Store(store, id) => {
            race = race
                .with_journal_prefix(store.race_journal_prefix(id))
                .with_journal_io(Arc::clone(store.io()))
                .with_durability(store.durability());
        }
    }
    race.run(lanes, env)
}
