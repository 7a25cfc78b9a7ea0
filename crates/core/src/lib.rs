//! # archgym-core
//!
//! Core abstractions of **ArchGym**, an open-source gymnasium for
//! machine-learning-assisted architecture design space exploration
//! (Krishnan et al., ISCA 2023).
//!
//! ArchGym standardizes the interface between *search agents* (reinforcement
//! learning, Bayesian optimization, genetic algorithms, ant colony
//! optimization, random walkers, ...) and *architecture cost models*
//! (DRAM memory controllers, DNN accelerators, SoCs, DNN mappers, ...).
//! Everything flows through three signals — **action**, **observation**,
//! **reward** — mirroring the OpenAI gym `step()` protocol:
//!
//! ```text
//!           action (parameter indices)
//!   Agent  ---------------------------->  Environment (cost model + workload)
//!          <----------------------------
//!           observation + reward/fitness
//! ```
//!
//! The crate provides:
//!
//! * [`space`] — finite, index-encoded parameter spaces ([`ParamSpace`]).
//! * [`mod@env`] — the [`Environment`] trait and its signal types.
//! * [`cache`] — memoized design-point evaluation ([`EvalCache`]).
//! * [`codec`] — offline-safe JSON with bit-exact `f64` round-trips.
//! * [`reward`] — the reward/fitness formulations of the paper's Table 3.
//! * [`agent`] — the [`Agent`] trait plus hyperparameter plumbing.
//! * [`search`] — the agent↔environment driver ([`SearchLoop`]).
//! * [`screen`] — online proxy screening policy and interface
//!   ([`ScreenPolicy`]/[`Screener`]).
//! * [`executor`] — deterministic parallel fan-out of independent runs.
//! * [`pool`] — in-run parallel batch evaluation ([`EnvPool`]).
//! * [`fault`] — deterministic fault injection ([`FaultyEnv`]).
//! * [`storeio`] — checksummed, fsync-policied store I/O with seeded
//!   fault injection ([`StoreIo`]/[`FaultyIo`]).
//! * [`journal`] — crash-safe write-ahead run journaling ([`RunJournal`]).
//! * [`jobs`] — multi-tenant job scheduling for `archgymd` ([`Scheduler`]).
//! * [`trajectory`] — standardized exploration datasets (Section 3.4).
//! * [`bundle`] — self-describing dataset artifacts (schema + data).
//! * [`pareto`] — Pareto-front extraction for multi-objective datasets.
//! * [`sweep`] — hyperparameter sweeps for "lottery" studies (Section 6.1).
//! * [`stats`] — the summary statistics the paper reports (IQR, RMSE, ...).
//! * [`telemetry`] — run tracing and metrics ([`Recorder`]/[`RunReport`]).
//!
//! # Example
//!
//! Running a trivial random search against a quadratic toy environment:
//!
//! ```
//! use archgym_core::prelude::*;
//!
//! // A one-dimensional toy cost model: reward peaks at index 7.
//! struct Toy {
//!     space: ParamSpace,
//! }
//! impl Environment for Toy {
//!     fn name(&self) -> &str { "toy" }
//!     fn space(&self) -> &ParamSpace { &self.space }
//!     fn observation_labels(&self) -> Vec<String> { vec!["cost".into()] }
//!     fn step(&mut self, action: &Action) -> StepResult {
//!         let x = action.index(0) as f64;
//!         let cost = (x - 7.0).abs();
//!         StepResult::terminal(Observation::new(vec![cost]), 1.0 / (1.0 + cost))
//!     }
//! }
//!
//! let space = ParamSpace::builder()
//!     .int("x", 0, 15, 1)
//!     .build()
//!     .unwrap();
//! let mut env = Toy { space };
//! let mut best = f64::NEG_INFINITY;
//! let mut rng = seeded_rng(42);
//! for _ in 0..64 {
//!     let action = env.space().sample(&mut rng);
//!     let result = env.step(&action);
//!     best = best.max(result.reward);
//! }
//! assert!(best > 0.9);
//! ```

pub mod agent;
pub mod bundle;
pub mod cache;
pub mod codec;
pub mod env;
pub mod error;
pub mod executor;
pub mod fault;
pub mod jobs;
pub mod journal;
pub mod pareto;
pub mod pool;
pub mod race;
pub mod reward;
pub mod screen;
pub mod search;
pub mod space;
pub mod stats;
pub mod storeio;
pub mod sweep;
pub mod telemetry;
pub mod toy;
pub mod trajectory;

pub use agent::{warm_start, Agent, HyperGrid, HyperMap, HyperValue};
pub use bundle::DatasetBundle;
pub use cache::{CacheStats, CachedEnv, EvalCache};
pub use env::{CloneEnvironment, Environment, Info, Observation, StepResult, TwinSet};
pub use error::{ArchGymError, Result};
pub use executor::Executor;
pub use fault::{FaultKind, FaultPlan, FaultStats, FaultyEnv};
pub use jobs::{Admission, JobId, JobKind, JobSpec, JobState, QuotaPolicy, Scheduler, Watchdog};
pub use journal::{JournalHeader, JournalRecord, JournalStep, RunJournal};
pub use pool::{BatchEvaluator, EnvPool};
pub use race::{
    rank_lanes, rung_schedule, EnsembleAgent, EnsembleOutcome, LaneOutcome, Race, RaceLane,
    RaceResult, Rung, RungOutcome,
};
pub use reward::{BudgetTerm, Objective, RewardSpec};
pub use screen::{select_admitted, ScreenPolicy, Screener};
pub use search::{RetryPolicy, RunConfig, RunResult, SearchLoop};
pub use space::{Action, ParamDomain, ParamSpace, ParamValue, SpaceBuilder};
pub use storeio::{Durability, FaultyIo, IoFaultPlan, RealIo, StoreIo};
pub use telemetry::{Counter, Phase, PhaseSummary, Recorder, RunReport};
pub use trajectory::{Dataset, Transition};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Construct the deterministic RNG used throughout ArchGym.
///
/// Every stochastic component in the workspace receives an explicit `u64`
/// seed so that experiments are reproducible artifact-for-artifact.
///
/// ```
/// use rand::Rng;
/// let mut a = archgym_core::seeded_rng(7);
/// let mut b = archgym_core::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Commonly used items, re-exported for glob import.
pub mod prelude {
    pub use crate::agent::{warm_start, Agent, HyperGrid, HyperMap, HyperValue};
    pub use crate::cache::{CacheStats, CachedEnv, EvalCache};
    pub use crate::env::{CloneEnvironment, Environment, Observation, StepResult};
    pub use crate::error::{ArchGymError, Result};
    pub use crate::executor::Executor;
    pub use crate::fault::{FaultPlan, FaultStats, FaultyEnv};
    pub use crate::journal::RunJournal;
    pub use crate::pool::{BatchEvaluator, EnvPool};
    pub use crate::race::{Race, RaceLane, RaceResult};
    pub use crate::reward::{BudgetTerm, Objective, RewardSpec};
    pub use crate::screen::{ScreenPolicy, Screener};
    pub use crate::search::{RetryPolicy, RunConfig, RunResult, SearchLoop};
    pub use crate::seeded_rng;
    pub use crate::space::{Action, ParamDomain, ParamSpace, ParamValue};
    pub use crate::telemetry::{Counter, Phase, Recorder, RunReport};
    pub use crate::trajectory::{Dataset, Transition};
}
