//! `lottery`: the paper's hyperparameter lottery. A task is one ticket:
//! one assignment from the default grid of `ga`, `sa` or `rw`, run over
//! four seeds by `Sweep::run_assignments` at `.jobs(2)`. Each spec's
//! tickets share one `EvalCache`, fresh (empty) at the start of every
//! pass, so both cache reads and writes happen.

use crate::common::{default_objective, mix, Phase, Task};
use crate::layers::{CacheTotals, Extras};
use crate::trace::{Family, Layer, Tracer};
use crate::{wrap, Result, Workload};
use archgym_agents::factory::{build_agent, default_grid, AgentKind};
use archgym_core::agent::HyperMap;
use archgym_core::cache::EvalCache;
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::search::RunConfig;
use archgym_core::sweep::Sweep;
use archgymd::spec::make_env;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Samples per seed run.
pub const BUDGET: u64 = 500;
/// Seeds each ticket runs over; a ticket reports its best seed.
const SEEDS_PER_TICKET: usize = 4;
/// One spec per family, DRAM twice: a row-hit-heavy and a
/// conflict-heavy trace. Targets sit inside the spread of ticket best
/// rewards so that some tickets miss them.
pub const SPECS: [(&str, f64); 5] = [
    ("dram/stream", 1800.0),
    ("dram/random", 2700.0),
    ("timeloop/resnet50", 800.0),
    ("farsi/edge-detection", 0.0),
    ("maestro/resnet18/stage2", 8.75),
];
const KINDS: [AgentKind; 3] = [AgentKind::Ga, AgentKind::Sa, AgentKind::Rw];

struct Ticket {
    spec: usize,
    kind: AgentKind,
    hyper: HyperMap,
    /// Each ticket draws its own seeds from the run's seed.
    seeds: [u64; SEEDS_PER_TICKET],
    /// First ticket of its spec in the pass: starts a fresh cache.
    fresh_cache: bool,
}

pub struct Lottery {
    envs: Vec<(Box<dyn CloneEnvironment>, String)>,
    /// DRAM requests simulated per step, per spec (1 for other families).
    requests: Vec<usize>,
    tickets: Vec<Ticket>,
    caches: Mutex<Vec<Arc<EvalCache>>>,
    /// Stats of caches retired during the current phase.
    retired: Mutex<CacheTotals>,
}

/// DRAM requests one step of `spec` simulates (1 for other families).
pub fn requests_per_step(spec: &str) -> usize {
    if Family::of_spec(spec) != Family::Dram {
        return 1;
    }
    let name = spec.split('/').nth(1).unwrap_or("stream");
    let workload = archgym_dram::DramWorkload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or_else(|| panic!("unknown DRAM trace `{name}`"));
    archgym_dram::DramEnv::new(workload, archgym_dram::Objective::low_power(1.0))
        .trace()
        .len()
}

impl Lottery {
    /// Build every env and the ticket list, and warm up.
    pub fn new(seed: u64) -> Result<Lottery> {
        let mut envs = Vec::new();
        let mut requests = Vec::new();
        for (spec, _) in SPECS {
            let objective = default_objective(spec);
            envs.push((
                make_env(spec, Some(&objective))?,
                format!("{spec} {objective}"),
            ));
            requests.push(requests_per_step(spec));
        }
        let mut tickets = Vec::new();
        let base = mix(seed);
        for spec in 0..SPECS.len() {
            let mut fresh_cache = true;
            for kind in KINDS {
                for hyper in default_grid(kind).iter() {
                    let first = (SEEDS_PER_TICKET * tickets.len()) as u64;
                    tickets.push(Ticket {
                        spec,
                        kind,
                        hyper,
                        seeds: std::array::from_fn(|k| mix(base ^ (first + k as u64))),
                        fresh_cache,
                    });
                    fresh_cache = false;
                }
            }
        }
        let lottery = Lottery {
            envs,
            requests,
            tickets,
            caches: Mutex::new(Vec::new()),
            retired: Mutex::new(CacheTotals::default()),
        };
        // Warm-up: the first ticket of every spec, uncached, on fixed
        // seeds so that set-up does the same work for every run seed.
        for ticket in lottery.tickets.iter().filter(|t| t.fresh_cache) {
            let (env, _) = &lottery.envs[ticket.spec];
            let warm = Sweep::new(RunConfig::with_budget(BUDGET).batch(0))
                .seeds(0..SEEDS_PER_TICKET as u64)
                .jobs(2)
                .run_assignments(
                    ticket.kind.name(),
                    std::slice::from_ref(&ticket.hyper),
                    || env.clone(),
                    |hyper, s| build_agent(ticket.kind, env.space(), hyper, s),
                )?;
            std::hint::black_box(warm);
        }
        Ok(lottery)
    }

    fn cache_for(&self, ticket: &Ticket) -> Arc<EvalCache> {
        let mut caches = self.caches.lock().expect("cache table poisoned");
        if caches.len() < SPECS.len() {
            caches.resize_with(SPECS.len(), || Arc::new(EvalCache::new()));
        }
        if ticket.fresh_cache {
            let old = std::mem::replace(&mut caches[ticket.spec], Arc::new(EvalCache::new()));
            self.retired
                .lock()
                .expect("stats poisoned")
                .add(old.stats());
        }
        Arc::clone(&caches[ticket.spec])
    }
}

impl Workload for Lottery {
    fn pass_len(&self) -> usize {
        self.tickets.len()
    }

    fn begin(&mut self, _tracer: Option<&Arc<Tracer>>) -> Result<()> {
        self.caches.lock().expect("cache table poisoned").clear();
        *self.retired.lock().expect("stats poisoned") = CacheTotals::default();
        Ok(())
    }

    fn task(&self, index: usize, _client: usize, tracer: Option<&Arc<Tracer>>) -> Task {
        let ticket = &self.tickets[index % self.tickets.len()];
        let (spec, target) = SPECS[ticket.spec];
        let family = Family::of_spec(spec);
        let (env, label) = &self.envs[ticket.spec];
        let space = env.space().clone();
        let cache = self.cache_for(ticket);
        let requests = self.requests[ticket.spec];
        let start_ns = tracer.map(|t| t.now());
        let start = Instant::now();
        let outcome = Sweep::new(RunConfig::with_budget(BUDGET).batch(0))
            .seeds(ticket.seeds)
            .jobs(2)
            .cache(cache)
            .run_assignments(
                ticket.kind.name(),
                std::slice::from_ref(&ticket.hyper),
                || {
                    if let Some(t) = tracer {
                        t.unit_start();
                    }
                    wrap::env(env.clone(), family, requests, tracer)
                },
                |hyper, seed| {
                    Ok(wrap::agent(
                        build_agent(ticket.kind, &space, hyper, seed)?,
                        tracer,
                        true,
                    ))
                },
            );
        let latency_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(s)) = (tracer, start_ns) {
            t.record(Layer::Task, 1, s, t.now());
        }
        let mut task = Task {
            index,
            spec: label.clone(),
            agent: format!("{}[{}]", ticket.kind.name(), ticket.hyper.summary()),
            seed: ticket.seeds[0],
            best: f64::NAN,
            samples: 0,
            budget: BUDGET * ticket.seeds.len() as u64,
            latency_s,
            end_s: 0.0,
            failed: true,
            hit: false,
            evals_to_target: BUDGET + 1,
        };
        if let Ok(result) = outcome {
            task.failed = result.points.iter().any(|p| p.result.degraded_samples > 0);
            task.best = result
                .best_rewards()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max);
            task.samples = result.points.iter().map(|p| p.result.samples_used).sum();
            task.hit = task.best >= target;
            task.evals_to_target = result
                .points
                .iter()
                .filter_map(|p| p.result.samples_to_reach(target))
                .min()
                .unwrap_or(BUDGET + 1);
        }
        task
    }

    fn per_layer(&self, x: &mut Extras, _phase: &Phase) {
        x.cache = *self.retired.lock().expect("stats poisoned");
        for cache in self.caches.lock().expect("cache table poisoned").iter() {
            x.cache.add(cache.stats());
        }
    }
}
