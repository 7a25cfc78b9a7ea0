//! Integration tests: the dataset artifact pipeline — record, export,
//! re-import, merge, train a proxy (Sections 3.4 and 7 end to end).

use archgym::agents::factory::{build_agent, AgentKind};
use archgym::core::env::Environment;
use archgym::core::prelude::*;
use archgym::proxy::forest::ForestConfig;
use archgym::proxy::pipeline::{train_proxy_fixed, DatasetTiers};

fn explore(kind: AgentKind, budget: u64, seed: u64) -> Dataset {
    let mut env = archgym::dram::DramEnv::new(
        archgym::dram::DramWorkload::Random,
        archgym::dram::Objective::low_power(1.0),
    );
    let mut agent = build_agent(kind, env.space(), &HyperMap::new(), seed).unwrap();
    SearchLoop::new(RunConfig::with_budget(budget))
        .run(&mut agent, &mut env)
        .dataset
}

#[test]
fn jsonl_roundtrip_preserves_merged_multi_agent_datasets() {
    let mut pool = Dataset::new();
    for (i, kind) in AgentKind::ALL.into_iter().enumerate() {
        pool.merge(explore(kind, 40, i as u64));
    }
    assert_eq!(pool.len(), 200);
    assert_eq!(pool.composition().len(), 5);

    let mut bytes = Vec::new();
    pool.write_jsonl(&mut bytes).unwrap();
    let back = Dataset::read_jsonl(bytes.as_slice()).unwrap();
    assert_eq!(back, pool);
}

#[test]
fn csv_export_is_rectangular_for_real_exploration_data() {
    let pool = explore(AgentKind::Ga, 50, 9);
    let mut bytes = Vec::new();
    pool.write_csv(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    // env, agent, 10 action columns, 3 observation columns, reward, feasible.
    assert_eq!(header.split(',').count(), 2 + 10 + 3 + 2);
    let width = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), width);
    }
}

#[test]
fn pooled_dataset_trains_a_usable_power_proxy() {
    let mut pool = Dataset::new();
    for (i, kind) in AgentKind::ALL.into_iter().enumerate() {
        pool.merge(explore(kind, 160, 40 + i as u64));
    }
    let mut rng = archgym::core::seeded_rng(3);
    let (train, test) = pool.split(0.8, &mut rng);
    let proxy = train_proxy_fixed(&train, 1, &ForestConfig::default(), 5).unwrap();
    let report = proxy.report(&test).unwrap();
    assert!(
        report.relative_rmse < 0.10,
        "power proxy relative RMSE {:.3} too high",
        report.relative_rmse
    );
    assert!(
        report.correlation > 0.85,
        "power proxy correlation {:.3} too low",
        report.correlation
    );
}

#[test]
fn diversity_tiers_partition_by_source_agent() {
    let mut pool = Dataset::new();
    for (i, kind) in AgentKind::ALL.into_iter().enumerate() {
        pool.merge(explore(kind, 60, 80 + i as u64));
    }
    let mut rng = archgym::core::seeded_rng(4);
    let tiers = DatasetTiers::build(&pool, "rl", &[50], &mut rng).unwrap();
    let (_, single, diverse) = &tiers.tiers[0];
    assert!(single.iter().all(|t| &*t.agent == "rl"));
    assert!(diverse.composition().len() > 1);
    assert_eq!(single.len(), 50);
    assert_eq!(diverse.len(), 50);
}

#[test]
fn best_transition_matches_search_loop_best() {
    let mut env = archgym::dram::DramEnv::new(
        archgym::dram::DramWorkload::Cloud2,
        archgym::dram::Objective::low_power(1.0),
    );
    let mut agent = build_agent(AgentKind::Aco, env.space(), &HyperMap::new(), 6).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(120)).run(&mut agent, &mut env);
    let best = result.dataset.best().unwrap();
    assert_eq!(best.reward, result.best_reward);
    assert_eq!(best.action, result.best_action);
}
