//! The timing wrappers must not change what a run does: one task of each
//! workload, wrapped and unwrapped, gives a bit-identical reward history.

use crate::common::default_objective;
use crate::lottery::{requests_per_step, BUDGET as LOTTERY_BUDGET};
use crate::model_loop::search;
use crate::trace::{Family, Layer, SelfTimes, Tracer};
use crate::{out_dir, wrap};
use archgym_agents::factory::{build_agent, default_grid, AgentKind};
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::cache::EvalCache;
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::search::{RunConfig, RunResult, SearchLoop};
use archgym_core::storeio::{real_io, Durability, StoreIo};
use archgym_core::sweep::Sweep;
use archgymd::spec::make_env;
use std::sync::Arc;

fn env(spec: &str) -> Box<dyn CloneEnvironment> {
    make_env(spec, Some(&default_objective(spec))).expect("bundled spec")
}

fn histories(results: &[RunResult]) -> Vec<Vec<u64>> {
    results
        .iter()
        .map(|r| r.reward_history.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// One lottery ticket: GA (which advertises `batch_hint`) through a
/// shared cache on two workers.
fn ticket(tracer: Option<&Arc<Tracer>>) -> Vec<RunResult> {
    let spec = "dram/random";
    let proto = env(spec);
    let space = proto.space().clone();
    let hyper = default_grid(AgentKind::Ga)
        .iter()
        .nth(4)
        .expect("grid point");
    let result = Sweep::new(RunConfig::with_budget(LOTTERY_BUDGET).batch(0))
        .seeds([7, 8])
        .jobs(2)
        .cache(Arc::new(EvalCache::new()))
        .run_assignments(
            "ga",
            &[hyper],
            || {
                if let Some(t) = tracer {
                    t.unit_start();
                }
                wrap::env(proto.clone(), Family::Dram, requests_per_step(spec), tracer)
            },
            |hyper, seed| {
                Ok(wrap::agent(
                    build_agent(AgentKind::Ga, &space, hyper, seed)?,
                    tracer,
                    true,
                ))
            },
        )
        .expect("ticket runs");
    result.points.into_iter().map(|p| p.result).collect()
}

#[test]
fn lottery_ticket_is_bit_identical_under_tracing() {
    let tracer = Arc::new(Tracer::new());
    let plain = ticket(None);
    let traced = ticket(Some(&tracer));
    assert_eq!(histories(&plain), histories(&traced));
    assert!(plain
        .iter()
        .all(|r| r.reward_history.len() == LOTTERY_BUDGET as usize));
    let times = SelfTimes::compute(&tracer.spans());
    assert_eq!(times.get(Layer::Search).spans, 2, "one unit span per seed");
    assert!(times.get(Layer::Step(Family::Dram)).spans > 0);
}

#[test]
fn model_loop_searches_are_bit_identical_under_tracing() {
    for (spec, kind, screened) in [
        ("maestro/resnet18/stage2", AgentKind::Ga, true),
        ("timeloop/resnet50", AgentKind::Sa, true),
        ("farsi/edge-detection", AgentKind::Bo, false),
        ("dram/random", AgentKind::Ppo, false),
    ] {
        let proto = env(spec);
        let tracer = Arc::new(Tracer::new());
        let plain = search(proto.as_ref(), spec, kind, screened, 3, 96, None).expect("runs");
        let traced =
            search(proto.as_ref(), spec, kind, screened, 3, 96, Some(&tracer)).expect("runs");
        assert_eq!(
            histories(std::slice::from_ref(&plain)),
            histories(std::slice::from_ref(&traced)),
            "{spec} {kind:?}"
        );
        assert_eq!(plain.proxy_admitted, traced.proxy_admitted);
        let times = SelfTimes::compute(&tracer.spans());
        assert!(times.get(Layer::Pool).spans > 0);
        if screened {
            assert!(plain.proxy_screened > 0, "{spec}: the proxy never screened");
            assert!(times.get(Layer::ProxyPredict).spans > 0);
        }
    }
}

/// ACO learns once per batch, so its result depends on the batch size
/// `batch_hint` sets under `batch(0)`: the wrapper must forward it.
#[test]
fn wrapped_agents_keep_their_batch_hint() {
    let env = env("maestro/resnet18/stage2");
    let hyper = HyperMap::new().with("ants", 32i64);
    let run = |tracer: Option<&Arc<Tracer>>| {
        let mut agent = wrap::agent(
            build_agent(AgentKind::Aco, env.space(), &hyper, 11).expect("agent"),
            tracer,
            false,
        );
        assert_eq!(agent.batch_hint(), Some(32));
        SearchLoop::new(RunConfig::with_budget(256).batch(0)).run_pooled(&mut agent, env.clone())
    };
    let tracer = Arc::new(Tracer::new());
    assert_eq!(histories(&[run(None)]), histories(&[run(Some(&tracer))]));
    let times = SelfTimes::compute(&tracer.spans());
    assert_eq!(times.get(Layer::Propose(5)).spans, 256 / 32);
}

/// The service's seam is the journal/store I/O: a journaled run through
/// the timed seam matches one through the real filesystem.
#[test]
fn journaled_search_is_bit_identical_under_tracing() {
    let dir = out_dir()
        .expect("out dir")
        .join(format!("test-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    let run = |io: Arc<dyn StoreIo>, name: &str| {
        let env = env("dram/stream");
        let mut agent =
            build_agent(AgentKind::Ga, env.space(), &HyperMap::new(), 5).expect("agent");
        SearchLoop::new(RunConfig::with_budget(200).batch(0))
            .with_journal_io(io)
            .with_durability(Durability::Batch)
            .run_resumable_pooled(&mut agent, env, dir.join(name))
            .expect("journaled run")
    };
    let tracer = Arc::new(Tracer::new());
    let plain = run(real_io(), "plain.jsonl");
    let traced = run(
        Arc::new(wrap::TimedIo::new(real_io(), Arc::clone(&tracer))),
        "traced.jsonl",
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(histories(&[plain]), histories(&[traced]));
    let times = SelfTimes::compute(&tracer.spans());
    assert!(times.get(Layer::Append).spans > 0);
    assert!(times.get(Layer::Sync).spans > 0);
}
