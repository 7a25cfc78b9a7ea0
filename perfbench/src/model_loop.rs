//! `model-loop`: searches whose host time goes to learned models. A
//! task is one search on one spec of each family, with one of four
//! setups: `ga` and `sa` screened by an `OnlineProxy`, and unscreened
//! `bo` and `ppo`. Two closed-loop clients each run one search at a
//! time, and every search evaluates through a one-replica `EnvPool`, so
//! both cores stay busy without a thread hand-off per batch. There is
//! no cache and no journal.

use crate::common::{default_objective, mix, Phase, Task};
use crate::layers::Extras;
use crate::lottery::requests_per_step;
use crate::trace::{Family, Layer, Tracer};
use crate::{wrap, Result, Workload};
use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::agent::HyperMap;
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::pool::{BatchEvaluator, EnvPool};
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::search::{RunConfig, RunResult, SearchLoop};
use archgym_proxy::OnlineProxy;
use archgymd::spec::make_env;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Samples per search.
pub const BUDGET: u64 = 128;
/// `EnvPool` replicas per search. The two clients already keep both
/// cores busy; a second replica would add a thread spawn and join per
/// small screened batch, whose scheduling delay on a shared host
/// swamps the models' own time.
const POOL_JOBS: usize = 1;
/// Seeds per spec and setup in one pass: 384 searches, about 22 s on
/// two cores. Fewer make the quality metrics depend on the seed more
/// than on the code.
const SEEDS_PER_PASS: u64 = 24;
/// One spec per family, with the reward target a search should reach:
/// about three searches in four reach it.
pub const SPECS: [(&str, f64); 4] = [
    ("dram/random", 300.0),
    ("timeloop/resnet50", 43.0),
    ("farsi/edge-detection", -0.6),
    ("maestro/resnet18/stage2", 8.5),
];
/// `(agent, screened)`.
pub const SETUPS: [(AgentKind, bool); 4] = [
    (AgentKind::Ga, true),
    (AgentKind::Sa, true),
    (AgentKind::Bo, false),
    (AgentKind::Ppo, false),
];

/// The screening policy: the default, warmed up and refitted sooner so
/// that the proxy screens most of a 128-sample budget.
pub fn screen_policy() -> ScreenPolicy {
    ScreenPolicy::default().warmup(32).refit_every(16)
}

/// One search as the library runs it, optionally traced.
pub fn search(
    env: &dyn CloneEnvironment,
    spec: &str,
    kind: AgentKind,
    screened: bool,
    seed: u64,
    budget: u64,
    tracer: Option<&Arc<Tracer>>,
) -> archgym_core::error::Result<RunResult> {
    let family = Family::of_spec(spec);
    let env = wrap::env(env.clone_env(), family, requests_per_step(spec), tracer);
    let mut agent = wrap::agent(
        build_agent(kind, env.space(), &HyperMap::new(), seed)?,
        tracer,
        false,
    );
    let pool = EnvPool::new(env, POOL_JOBS);
    let mut eval: Box<dyn BatchEvaluator> = match tracer {
        Some(t) => Box::new(wrap::TimedEval::new(pool, Arc::clone(t))),
        None => Box::new(pool),
    };
    let driver = SearchLoop::new(RunConfig::with_budget(budget).batch(0).jobs(POOL_JOBS));
    let start = tracer.map(|t| t.now());
    let result = if screened {
        let proxy: Box<dyn Screener + Send> =
            Box::new(OnlineProxy::with_defaults(screen_policy(), seed)?);
        let mut screener: Box<dyn Screener + Send> = match tracer {
            Some(t) => Box::new(wrap::TimedScreener::new(proxy, Arc::clone(t))),
            None => proxy,
        };
        driver.run_screened(&mut agent, eval.as_mut(), screener.as_mut())
    } else {
        driver.run(&mut agent, eval.as_mut())
    };
    if let (Some(t), Some(s)) = (tracer, start) {
        t.record(Layer::Search, 1, s, t.now());
    }
    Ok(result)
}

struct Item {
    spec: usize,
    setup: usize,
    seed: u64,
}

pub struct ModelLoop {
    envs: Vec<Box<dyn CloneEnvironment>>,
    items: Vec<Item>,
    /// Proxy funnel `(screened, admitted, refits)` of the current phase.
    funnel: Mutex<(u64, u64, u64)>,
}

impl ModelLoop {
    /// Build every env and the task list, and warm up.
    pub fn new(seed: u64) -> Result<ModelLoop> {
        let mut envs = Vec::new();
        for (spec, _) in SPECS {
            envs.push(make_env(spec, Some(&default_objective(spec)))?);
        }
        // Every search gets a seed of its own: searches that share a seed
        // share their random choices, so the quality metrics would rest
        // on 24 independent draws per pass instead of 384.
        let mut items = Vec::new();
        for _ in 0..SEEDS_PER_PASS {
            for spec in 0..SPECS.len() {
                for setup in 0..SETUPS.len() {
                    let n = items.len() as u64;
                    items.push(Item {
                        spec,
                        setup,
                        seed: mix(seed.wrapping_mul(1 << 16).wrapping_add(n)),
                    });
                }
            }
        }
        // Warm-up: a short search of every setup on every spec.
        for (env, (spec, _)) in envs.iter().zip(SPECS) {
            for (kind, screened) in SETUPS {
                let warm = search(env.as_ref(), spec, kind, screened, 0, 40, None)?;
                std::hint::black_box(warm);
            }
        }
        Ok(ModelLoop {
            envs,
            items,
            funnel: Mutex::new((0, 0, 0)),
        })
    }
}

impl Workload for ModelLoop {
    fn pass_len(&self) -> usize {
        self.items.len()
    }

    fn clients(&self) -> usize {
        2
    }

    fn begin(&mut self, _tracer: Option<&Arc<Tracer>>) -> Result<()> {
        *self.funnel.lock().expect("funnel poisoned") = (0, 0, 0);
        Ok(())
    }

    fn task(&self, index: usize, _client: usize, tracer: Option<&Arc<Tracer>>) -> Task {
        let item = &self.items[index % self.items.len()];
        let (spec, target) = SPECS[item.spec];
        let (kind, screened) = SETUPS[item.setup];
        let start_ns = tracer.map(|t| t.now());
        let start = Instant::now();
        let outcome = search(
            self.envs[item.spec].as_ref(),
            spec,
            kind,
            screened,
            item.seed,
            BUDGET,
            tracer,
        );
        let latency_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(s)) = (tracer, start_ns) {
            t.record(Layer::Task, 1, s, t.now());
        }
        let mut task = Task {
            index,
            spec: format!("{spec} {}", default_objective(spec)),
            agent: format!("{}{}", kind.name(), if screened { "+proxy" } else { "" }),
            seed: item.seed,
            best: f64::NAN,
            samples: 0,
            budget: BUDGET,
            latency_s,
            end_s: 0.0,
            failed: true,
            hit: false,
            evals_to_target: BUDGET + 1,
        };
        if let Ok(r) = outcome {
            let mut funnel = self.funnel.lock().expect("funnel poisoned");
            funnel.0 += r.proxy_screened;
            funnel.1 += r.proxy_admitted;
            funnel.2 += r.proxy_refits;
            task.failed = r.degraded_samples > 0;
            task.best = r.best_reward;
            task.samples = r.samples_used;
            task.hit = r.best_reward >= target;
            task.evals_to_target = r.samples_to_reach(target).unwrap_or(BUDGET + 1);
        }
        task
    }

    fn per_layer(&self, x: &mut Extras, _phase: &Phase) {
        (x.screened, x.admitted, x.refits) = *self.funnel.lock().expect("funnel poisoned");
    }
}
