//! Integration tests: every agent family runs end-to-end against every
//! environment through the one standardized interface — the paper's core
//! interoperability claim (Section 3).

use archgym::agents::factory::{build_agent, AgentKind};
use archgym::core::env::Environment;
use archgym::core::prelude::*;

fn environments() -> Vec<Box<dyn Environment>> {
    let net = archgym::models::resnet18();
    vec![
        Box::new(archgym::dram::DramEnv::new(
            archgym::dram::DramWorkload::Cloud1,
            archgym::dram::Objective::joint(30.0, 1.0),
        )),
        Box::new(archgym::accel::AccelEnv::new(
            archgym::models::alexnet(),
            archgym::accel::Objective::latency(2.0),
        )),
        Box::new(archgym::soc::SocEnv::new(
            archgym::soc::SocWorkload::EdgeDetection,
        )),
        Box::new(
            archgym::mapping::MappingEnv::for_layer(
                &net,
                "stage2",
                archgym::mapping::Objective::runtime(),
            )
            .unwrap(),
        ),
    ]
}

#[test]
fn every_agent_runs_on_every_environment() {
    for mut env in environments() {
        for kind in AgentKind::ALL {
            let mut agent = build_agent(kind, env.space(), &HyperMap::new(), 31)
                .unwrap_or_else(|e| panic!("{kind:?} on {}: {e}", env.name()));
            let result =
                SearchLoop::new(RunConfig::with_budget(96).batch(16)).run(&mut agent, &mut env);
            assert_eq!(
                result.samples_used,
                96,
                "{kind:?} under-sampled on {}",
                env.name()
            );
            assert!(
                result.best_reward.is_finite(),
                "{kind:?} produced a non-finite best reward on {}",
                env.name()
            );
            env.space()
                .validate(&result.best_action)
                .unwrap_or_else(|e| panic!("{kind:?} best action invalid on {}: {e}", env.name()));
        }
    }
}

#[test]
fn learned_agents_beat_random_on_a_large_dram_budget() {
    // Not a lottery claim — just a sanity check that feedback is wired:
    // with the same budget, at least two of the learning agents should
    // match or beat the random walker's median outcome on DRAM. The
    // 15 ns target sits below the device floor, so the target-ratio
    // reward is a smooth, monotone latency-minimization signal.
    let budget = 1_500;
    let run = |kind: AgentKind, seed: u64| {
        let mut env = archgym::dram::DramEnv::new(
            archgym::dram::DramWorkload::Random,
            archgym::dram::Objective::low_latency(15.0),
        );
        let mut agent = build_agent(kind, env.space(), &HyperMap::new(), seed).unwrap();
        SearchLoop::new(RunConfig::with_budget(budget))
            .run(&mut agent, &mut env)
            .best_reward
    };
    let rw: f64 = (0..3).map(|s| run(AgentKind::Rw, s)).sum::<f64>() / 3.0;
    let beat = [AgentKind::Ga, AgentKind::Aco, AgentKind::Bo, AgentKind::Rl]
        .into_iter()
        .filter(|&k| {
            let score: f64 = (0..3).map(|s| run(k, s)).sum::<f64>() / 3.0;
            score >= rw * 0.9
        })
        .count();
    assert!(
        beat >= 2,
        "only {beat} learning agents kept up with random search"
    );
}

#[test]
fn trajectories_are_recorded_identically_across_agents() {
    // Section 3.4: the standardized interface makes every agent's
    // exploration logging uniform.
    let mut widths = std::collections::BTreeSet::new();
    for kind in AgentKind::ALL {
        let mut env = archgym::dram::DramEnv::new(
            archgym::dram::DramWorkload::Stream,
            archgym::dram::Objective::low_power(1.0),
        );
        let mut agent = build_agent(kind, env.space(), &HyperMap::new(), 5).unwrap();
        let result = SearchLoop::new(RunConfig::with_budget(32)).run(&mut agent, &mut env);
        assert_eq!(result.dataset.len(), 32);
        for t in result.dataset.iter() {
            widths.insert((t.action.len(), t.observation.len()));
            assert_eq!(&*t.agent, kind.name());
            assert_eq!(&*t.env, "dram/stream");
        }
    }
    assert_eq!(
        widths.len(),
        1,
        "inconsistent transition shapes: {widths:?}"
    );
}

#[test]
fn counting_wrapper_normalizes_sample_budgets_across_agents() {
    use archgym::core::env::CountingEnv;
    for kind in AgentKind::ALL {
        let mut env = CountingEnv::new(archgym::soc::SocEnv::new(
            archgym::soc::SocWorkload::AudioDecoder,
        ));
        let mut agent = build_agent(kind, env.space(), &HyperMap::new(), 3).unwrap();
        let _ = SearchLoop::new(RunConfig::with_budget(64)).run(&mut agent, &mut env);
        assert_eq!(env.samples(), 64, "{kind:?} budget accounting broken");
    }
}

/// FNV-style fold of a reward history, so drift in any single reward
/// bit shows (the same fold `tests/proxy_loop.rs` pins).
fn fingerprint(history: &[f64]) -> u64 {
    history.iter().map(|r| r.to_bits()).fold(0u64, |acc, x| {
        acc.wrapping_mul(0x100000001B3).wrapping_add(x)
    })
}

#[test]
fn tabular_ppo_on_farsi_matches_the_pinned_fingerprint() {
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    let mut agent = build_agent(AgentKind::Ppo, env.space(), &HyperMap::new(), 7).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(128).batch(0)).run(&mut agent, &mut env);
    assert_eq!(result.reward_history.len(), 128);
    assert_eq!(
        fingerprint(&result.reward_history),
        8607867529481130510,
        "farsi/ppo (tabular) reward history drifted from the pinned capture"
    );
}

#[test]
fn mlp_ppo_on_a_peak_matches_the_pinned_fingerprint() {
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8], vec![5, 2, 6]);
    let hyper = HyperMap::new().with("policy", "mlp");
    let mut agent = build_agent(AgentKind::Ppo, env.space(), &hyper, 7).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(256).batch(0)).run(&mut agent, &mut env);
    assert_eq!(result.reward_history.len(), 256);
    assert_eq!(
        fingerprint(&result.reward_history),
        5796509289044806508,
        "peak/ppo (mlp) reward history drifted from the pinned capture"
    );
}

#[test]
fn tabular_rl_on_farsi_matches_the_pinned_fingerprint() {
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    let mut agent = build_agent(AgentKind::Rl, env.space(), &HyperMap::new(), 7).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(128).batch(0)).run(&mut agent, &mut env);
    assert_eq!(result.reward_history.len(), 128);
    assert_eq!(
        fingerprint(&result.reward_history),
        18096839820587609976,
        "farsi/rl (tabular) reward history drifted from the pinned capture"
    );
}

#[test]
fn mlp_rl_on_a_peak_matches_the_pinned_fingerprint() {
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8], vec![5, 2, 6]);
    let hyper = HyperMap::new().with("policy", "mlp");
    let mut agent = build_agent(AgentKind::Rl, env.space(), &hyper, 7).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(256).batch(0)).run(&mut agent, &mut env);
    assert_eq!(result.reward_history.len(), 256);
    assert_eq!(
        fingerprint(&result.reward_history),
        8620470902076377580,
        "peak/rl (mlp) reward history drifted from the pinned capture"
    );
}

/// Reward-history fingerprint of one seed-7, one-at-a-time search.
fn pinned_run(kind: AgentKind, hyper: &HyperMap, env: &mut dyn Environment, budget: u64) -> u64 {
    let mut agent = build_agent(kind, env.space(), hyper, 7).unwrap();
    let result = SearchLoop::new(RunConfig::with_budget(budget).batch(0)).run(&mut agent, env);
    assert_eq!(result.reward_history.len() as u64, budget);
    fingerprint(&result.reward_history)
}

#[test]
fn ei_bo_on_dram_matches_the_pinned_fingerprint() {
    let mut env = archgym::dram::DramEnv::new(
        archgym::dram::DramWorkload::Stream,
        archgym::dram::Objective::low_power(1.0),
    );
    assert_eq!(
        pinned_run(AgentKind::Bo, &HyperMap::new(), &mut env, 128),
        3467583948012299193,
        "dram/bo (ei) reward history drifted from the pinned capture"
    );
}

#[test]
fn ucb_bo_on_a_peak_matches_the_pinned_fingerprint() {
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8, 8], vec![5, 2, 6, 1]);
    let hyper = HyperMap::new().with("acquisition", "ucb");
    assert_eq!(
        pinned_run(AgentKind::Bo, &hyper, &mut env, 256),
        12055986944930133486,
        "peak/bo (ucb) reward history drifted from the pinned capture"
    );
}

#[test]
fn pi_bo_on_a_peak_matches_the_pinned_fingerprint() {
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8, 8], vec![5, 2, 6, 1]);
    let hyper = HyperMap::new().with("acquisition", "pi");
    assert_eq!(
        pinned_run(AgentKind::Bo, &hyper, &mut env, 128),
        13371040933629230989,
        "peak/bo (pi) reward history drifted from the pinned capture"
    );
}

#[test]
fn ei_bo_past_the_history_cap_matches_the_pinned_fingerprint() {
    // 320 samples cross BO's 192-observation cap, so eviction and the
    // surrogate rebuild after it are part of the pinned history.
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8, 8], vec![5, 2, 6, 1]);
    assert_eq!(
        pinned_run(AgentKind::Bo, &HyperMap::new(), &mut env, 320),
        10862049093824600835,
        "peak/bo (ei, evicting) reward history drifted from the pinned capture"
    );
}

#[test]
fn aco_on_farsi_matches_the_pinned_fingerprint() {
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    assert_eq!(
        pinned_run(AgentKind::Aco, &HyperMap::new(), &mut env, 128),
        867863588457605574,
        "farsi/aco reward history drifted from the pinned capture"
    );
}

#[test]
fn short_horizon_tabular_ppo_on_farsi_matches_the_pinned_fingerprint() {
    // 512 samples at a 16-sample horizon: 32 updates of 64 ascents each,
    // so FARSI's 65,536-value head holds hundreds of distinct logits.
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    let hyper = HyperMap::new().with("horizon", 16i64);
    assert_eq!(
        pinned_run(AgentKind::Ppo, &hyper, &mut env, 512),
        4437906781544127525,
        "farsi/ppo (tabular, horizon 16) reward history drifted from the pinned capture"
    );
}

#[test]
fn long_tabular_rl_on_farsi_matches_the_pinned_fingerprint() {
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    assert_eq!(
        pinned_run(AgentKind::Rl, &HyperMap::new(), &mut env, 512),
        2104612822297867014,
        "farsi/rl (tabular, 512 samples) reward history drifted from the pinned capture"
    );
}

#[test]
fn ei_bo_on_farsi_matches_the_pinned_fingerprint() {
    // 13 dimensions at a 0.25 length scale: most of each candidate pool
    // sits near the GP prior, so it is the shape where acquisition
    // pruning drops the most candidates.
    let mut env = archgym::soc::SocEnv::new(archgym::soc::SocWorkload::EdgeDetection);
    assert_eq!(
        pinned_run(AgentKind::Bo, &HyperMap::new(), &mut env, 128),
        17691450867020103660,
        "farsi/bo (ei) reward history drifted from the pinned capture"
    );
}

#[test]
fn falling_with_std_ucb_and_pi_bo_on_a_peak_match_the_pinned_fingerprints() {
    // A negative κ makes UCB, and a negative ξ makes PI wherever the
    // mean clears the incumbent, fall as the posterior std grows.
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8, 8], vec![5, 2, 6, 1]);
    let ucb = HyperMap::new()
        .with("acquisition", "ucb")
        .with("kappa", -1.0);
    assert_eq!(
        pinned_run(AgentKind::Bo, &ucb, &mut env, 128),
        16946745360139226528,
        "peak/bo (ucb, κ = -1) reward history drifted from the pinned capture"
    );
    let mut env = archgym::core::toy::PeakEnv::new(&[8, 8, 8, 8], vec![5, 2, 6, 1]);
    let pi = HyperMap::new().with("acquisition", "pi").with("xi", -1.0);
    assert_eq!(
        pinned_run(AgentKind::Bo, &pi, &mut env, 128),
        4005172380056394508,
        "peak/bo (pi, ξ = -1) reward history drifted from the pinned capture"
    );
}
