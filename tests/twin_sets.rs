//! Twin sets on a real simulator: a DRAM sweep through a shared
//! [`EvalCache`] that answers lookups from twin sets runs exactly as an
//! uncached one, at one job and at two, while simulating fewer designs
//! than it looks up.

use std::sync::Arc;

use archgym_agents::factory::{build_agent, default_grid, AgentKind};
use archgym_core::agent::HyperMap;
use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::search::{RunConfig, SearchLoop};
use archgym_core::sweep::{Sweep, SweepResult};
use archgym_dram::{DramEnv, DramWorkload, Objective};

/// A two-assignment, two-seed sweep of `kind` on `workload`, with an
/// optional cache.
fn sweep(
    kind: AgentKind,
    workload: DramWorkload,
    jobs: usize,
    cache: Option<Arc<EvalCache>>,
) -> SweepResult {
    let env = DramEnv::new(workload, Objective::low_power(1.0));
    let space = env.space().clone();
    let assignments: Vec<HyperMap> = default_grid(kind).iter().take(2).collect();
    let mut sweep = Sweep::new(RunConfig::with_budget(150).batch(0))
        .seeds([3, 4])
        .jobs(jobs);
    if let Some(cache) = cache {
        sweep = sweep.cache(cache);
    }
    sweep
        .run_assignments(
            kind.name(),
            &assignments,
            || -> Box<dyn CloneEnvironment> { Box::new(env.clone()) },
            |hyper, seed| build_agent(kind, &space, hyper, seed),
        )
        .unwrap()
}

#[test]
fn cached_dram_sweeps_match_uncached_ones_at_one_and_two_jobs() {
    for workload in [DramWorkload::Stream, DramWorkload::Random] {
        for kind in [AgentKind::Ga, AgentKind::Sa] {
            let reference = sweep(kind, workload, 1, None);
            for jobs in [1, 2] {
                let cache = Arc::new(EvalCache::new());
                let cached = sweep(kind, workload, jobs, Some(cache.clone()));
                let label = format!("{} {} --jobs {jobs}", workload.name(), kind.name());
                assert_eq!(reference.points.len(), cached.points.len(), "{label}");
                for (a, b) in reference.points.iter().zip(&cached.points) {
                    assert_eq!(a.result.reward_history, b.result.reward_history, "{label}");
                    assert_eq!(a.result.best_action, b.result.best_action, "{label}");
                    assert_eq!(a.result.dataset, b.result.dataset, "{label}");
                }
                let stats = cache.stats();
                assert_eq!(stats.hits + stats.misses, 4 * 150, "{label}");
                assert!(stats.twin_hits <= stats.hits, "{label}");
                assert!(stats.entries <= stats.misses, "{label}");
            }
        }
    }
}

#[test]
fn twin_sets_answer_dram_lookups_that_canonical_keys_miss() {
    // The same GA run through two caches: one fed twin sets, one whose
    // environment keeps the default (no set). Both use canonical keys.
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let run = |cache: &Arc<EvalCache>, env: Box<dyn CloneEnvironment>| {
        let mut agent = build_agent(AgentKind::Ga, env.space(), &HyperMap::new(), 5).unwrap();
        let mut env = CachedEnv::new(env, cache.clone());
        SearchLoop::new(RunConfig::with_budget(500).batch(0)).run(&mut agent, &mut env)
    };
    let with_twins = Arc::new(EvalCache::new());
    let without = Arc::new(EvalCache::new());
    let a = run(&with_twins, Box::new(env.clone()));
    let b = run(&without, Box::new(Opaque(env)));
    assert_eq!(a.reward_history, b.reward_history);
    assert_eq!(a.dataset, b.dataset);
    let (t, o) = (with_twins.stats(), without.stats());
    assert_eq!(o.twin_hits, 0);
    assert!(t.twin_hits > 0, "{t:?}");
    assert!(t.misses < o.misses, "{t:?} {o:?}");
    assert_eq!(t.hits + t.misses, o.hits + o.misses);
    assert_eq!(t.entries, t.misses);
}

/// A DRAM env behind a wrapper that forwards `canonical` but keeps the
/// default twin set (none).
#[derive(Clone)]
struct Opaque(DramEnv);

impl Environment for Opaque {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn space(&self) -> &archgym_core::space::ParamSpace {
        self.0.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.0.observation_labels()
    }
    fn step(&mut self, action: &archgym_core::space::Action) -> archgym_core::env::StepResult {
        self.0.step(action)
    }
    fn canonical(
        &self,
        action: &archgym_core::space::Action,
    ) -> Option<archgym_core::space::Action> {
        self.0.canonical(action)
    }
}
