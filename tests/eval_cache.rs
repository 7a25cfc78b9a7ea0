//! A [`CachedEnv`] hit returns the simulator's own [`StepResult`], bit
//! for bit, on every env family: observation and reward bits, `done`,
//! `feasible`, and every info name and value. Infeasible designs are
//! included where the family has them.

use std::sync::Arc;

use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::{Environment, StepResult};
use archgym_core::seeded_rng;
use archgym_core::space::Action;

/// Everything a result carries, floats as their bits.
type Bits = (Vec<u64>, u64, bool, bool, Vec<(String, u64)>);

fn bits(result: &StepResult) -> Bits {
    (
        result
            .observation
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        result.reward.to_bits(),
        result.done,
        result.feasible,
        result
            .info
            .iter()
            .map(|(name, v)| (name.to_owned(), v.to_bits()))
            .collect(),
    )
}

/// Step `extra` and 12 sampled designs through a plain and a cached copy
/// of `env`, twice over so the second pass is served from the cache.
fn assert_hits_are_bit_identical<E: Environment + Clone>(env: E, extra: Vec<Action>) {
    let name = env.name().to_string();
    let mut plain = env.clone();
    let cache = Arc::new(EvalCache::new());
    let mut cached = CachedEnv::new(env, cache.clone());
    let mut rng = seeded_rng(31);
    let mut actions = extra;
    actions.extend((0..12).map(|_| plain.space().sample(&mut rng)));
    let distinct = actions.len() as u64;
    let mut infeasible = 0;
    for pass in 0..2 {
        for action in &actions {
            let simulated = plain.step(action);
            let served = if pass == 0 {
                cached.step(action)
            } else {
                cached.try_step(action).unwrap()
            };
            assert_eq!(bits(&simulated), bits(&served), "{name} {action:?}");
            infeasible += usize::from(!simulated.feasible);
        }
    }
    let stats = cache.stats();
    assert_eq!(stats.hits + stats.misses, 2 * distinct, "{name}");
    assert!(stats.hits >= distinct, "{name}: the second pass must hit");
    assert_eq!(stats.entries, stats.misses, "{name}");
    assert!(infeasible > 0, "{name}: no infeasible design was stepped");
}

/// The design with every dimension at its largest index.
fn maxed(env: &impl Environment) -> Action {
    Action::new(env.space().cardinalities().iter().map(|&c| c - 1).collect())
}

#[test]
fn cached_env_is_bit_identical_on_every_family() {
    use archgym_accel::{AccelEnv, Objective as AccelObjective};
    use archgym_mapping::{MappingEnv, Objective as MappingObjective};
    use archgym_soc::{SocEnv, SocWorkload};

    // A sample of 300 VGG16 designs holds infeasible ones; find one.
    let accel = AccelEnv::new(archgym_models::vgg16(), AccelObjective::latency(5.0));
    let mut rng = seeded_rng(2);
    let overflow = (0..300)
        .map(|_| accel.space().sample(&mut rng))
        .find(|a| !accel.clone().step(a).feasible)
        .expect("the accelerator space holds infeasible designs");
    assert_hits_are_bit_identical(accel, vec![overflow]);

    // A zero PE count (dimension 2, index 0) is infeasible.
    let soc = SocEnv::new(SocWorkload::EdgeDetection);
    let mut zero_pes = soc.space().sample(&mut seeded_rng(1));
    zero_pes.as_mut_slice()[2] = 0;
    assert_hits_are_bit_identical(soc, vec![zero_pes]);

    // Maximal tiles overflow the buffer on conv1_2.
    let net = archgym_models::vgg16();
    let mapping = MappingEnv::for_layer(&net, "conv1_2", MappingObjective::runtime()).unwrap();
    let maxed_tiles = maxed(&mapping);
    assert_hits_are_bit_identical(mapping, vec![maxed_tiles]);
}

#[test]
fn only_dram_declares_canonical_twins() {
    use archgym_accel::{AccelEnv, Objective as AccelObjective};
    use archgym_core::agent::RandomWalker;
    use archgym_core::search::{RunConfig, SearchLoop};
    use archgym_dram::{DramEnv, DramWorkload, Objective as DramObjective};
    use archgym_mapping::{MappingEnv, Objective as MappingObjective};
    use archgym_proxy::{ForestConfig, ProxyEnv};
    use archgym_soc::{SocEnv, SocWorkload};

    fn assert_all_canonical(env: &impl Environment) {
        let mut rng = seeded_rng(8);
        for _ in 0..32 {
            let action = env.space().sample(&mut rng);
            assert_eq!(env.canonical(&action), None, "{} {action:?}", env.name());
        }
        assert_eq!(env.canonical(&maxed(env)), None, "{}", env.name());
    }
    let net = archgym_models::vgg16();
    assert_all_canonical(&AccelEnv::new(net.clone(), AccelObjective::latency(5.0)));
    assert_all_canonical(&SocEnv::new(SocWorkload::EdgeDetection));
    assert_all_canonical(
        &MappingEnv::for_layer(&net, "conv1_2", MappingObjective::runtime()).unwrap(),
    );

    // A proxy of DRAMGym predicts from every raw index, so DRAM twins
    // differ there: it keeps the default.
    let mut dram = DramEnv::new(DramWorkload::Stream, DramObjective::low_power(1.0));
    let space = dram.space().clone();
    let mut twin = maxed(&dram);
    twin.as_mut_slice()[space.dim_of("RefreshMaxPulledIn").unwrap()] = 4;
    assert!(dram.canonical(&twin).is_some());
    let mut walker = RandomWalker::new(space.clone(), 3);
    let run = SearchLoop::new(RunConfig::with_budget(60)).run(&mut walker, &mut dram);
    let proxy = ProxyEnv::train(
        "dram",
        space,
        dram.observation_labels(),
        &run.dataset,
        dram.objective().spec().clone(),
        &ForestConfig::default(),
        1,
    )
    .unwrap();
    assert_eq!(proxy.canonical(&twin), None);
}
