//! Proxy screening determinism suite.
//!
//! Three guarantees, in order of importance:
//!
//! 1. **Proxy-off runs are bit-identical to the pre-proxy driver.** The
//!    fingerprints below were captured on this repo immediately before
//!    the screening layer landed; any drift means the unscreened path
//!    was not left alone.
//! 2. **Proxy-on runs are reproducible**: the same seed produces the
//!    same screened run serially, pooled at any job count, and across
//!    repeats, and that run matches a pinned fingerprint captured
//!    before the forest moved to flat node lanes, so a change to split
//!    choice, RNG draws or prediction order shows.
//! 3. **Screened runs resume bit-identically** after a crash at any
//!    journal prefix, including torn tails.

use archgym_accel::{AccelEnv, Objective as AccelObjective};
use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::agent::RandomWalker;
use archgym_core::env::Environment;
use archgym_core::screen::ScreenPolicy;
use archgym_core::search::{RunConfig, RunIo, RunResult, SearchLoop};
use archgym_core::toy::PeakEnv;
use archgym_dram::{DramEnv, DramWorkload, Objective};
use archgym_mapping::{MappingEnv, Objective as MappingObjective};
use archgym_proxy::{ForestConfig, OnlineProxy, RandomForest};
use archgym_soc::{SocEnv, SocWorkload};
use rand::Rng;
use std::fs;
use std::path::{Path, PathBuf};

/// FNV-style fold of the reward history — the same fingerprint the
/// pre-proxy captures used, so drift in any single reward bit shows.
fn fingerprint(history: &[f64]) -> u64 {
    history.iter().map(|r| r.to_bits()).fold(0u64, |acc, x| {
        acc.wrapping_mul(0x100000001B3).wrapping_add(x)
    })
}

fn fresh_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("archgym-proxy-loop-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
}

fn assert_identical(reference: &RunResult, candidate: &RunResult, label: &str) {
    assert_eq!(reference.best_reward, candidate.best_reward, "{label}");
    assert_eq!(reference.best_action, candidate.best_action, "{label}");
    assert_eq!(reference.samples_used, candidate.samples_used, "{label}");
    assert_eq!(
        reference.reward_history, candidate.reward_history,
        "{label}"
    );
}

// --- 1. proxy-off bit-identity against pre-proxy captures -------------

#[test]
fn proxy_off_peak_run_matches_the_pre_proxy_fingerprint() {
    for jobs in [1, 4] {
        let env = PeakEnv::new(&[12, 12], vec![4, 9]);
        let mut agent = RandomWalker::new(env.space().clone(), 5);
        let result =
            SearchLoop::new(RunConfig::with_budget(48).jobs(jobs)).run_pooled(&mut agent, env);
        assert_eq!(result.best_reward, 0.5, "jobs={jobs}");
        assert_eq!(result.best_action.as_slice(), &[4, 8], "jobs={jobs}");
        assert_eq!(
            fingerprint(&result.reward_history),
            3512112665090659720,
            "peak/rw reward history drifted from the pre-proxy capture at jobs={jobs}"
        );
    }
}

#[test]
fn proxy_off_dram_run_matches_the_pre_proxy_fingerprint() {
    for jobs in [1, 4] {
        let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
        let mut agent = build_agent(AgentKind::Ga, env.space(), &Default::default(), 0).unwrap();
        let result =
            SearchLoop::new(RunConfig::with_budget(64).jobs(jobs)).run_pooled(&mut *agent, env);
        assert_eq!(result.best_reward, 1440.5695009427427, "jobs={jobs}");
        assert_eq!(
            result.best_action.as_slice(),
            &[3, 2, 4, 1, 3, 1, 1, 1, 0, 1],
            "jobs={jobs}"
        );
        assert_eq!(
            fingerprint(&result.reward_history),
            1363372723125192059,
            "dram/ga reward history drifted from the pre-proxy capture at jobs={jobs}"
        );
    }
}

// --- 2. proxy-on reproducibility --------------------------------------

fn screened_dram_run(jobs: usize) -> RunResult {
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let mut agent = build_agent(AgentKind::Ga, env.space(), &Default::default(), 7).unwrap();
    let policy = ScreenPolicy::default().warmup(32).revalidate_every(4);
    let mut screener = OnlineProxy::with_defaults(policy, 7).unwrap();
    SearchLoop::new(RunConfig::with_budget(128).jobs(jobs))
        .run_env_with(&mut *agent, env, RunIo::screened(&mut screener))
        .unwrap()
}

#[test]
fn screened_runs_are_reproducible_serial_and_pooled() {
    let serial = screened_dram_run(1);
    assert_eq!(serial.samples_used, 128);
    // Screening actually engaged: the history is the admitted stream,
    // which a 128-budget run with warmup 32 fills exactly.
    assert_eq!(serial.reward_history.len(), 128);
    let repeat = screened_dram_run(1);
    assert_identical(&serial, &repeat, "serial repeat");
    for jobs in [2, 4] {
        let pooled = screened_dram_run(jobs);
        assert_identical(&serial, &pooled, &format!("pooled jobs={jobs}"));
    }
}

#[test]
fn screened_dram_run_matches_the_pinned_fingerprint() {
    let result = screened_dram_run(1);
    assert_eq!(
        fingerprint(&result.reward_history),
        665448964544412151,
        "dram/ga+proxy reward history drifted from the pinned capture"
    );
}

/// A screened run on `env` with a refit every 16 samples, so the forest
/// is regrown many times inside a 128-sample budget.
fn screened_refit_heavy_run<E: Environment + Clone + Send>(kind: AgentKind, env: E) -> RunResult {
    let mut agent = build_agent(kind, env.space(), &Default::default(), 7).unwrap();
    let policy = ScreenPolicy::default()
        .warmup(32)
        .refit_every(16)
        .revalidate_every(4);
    let mut screener = OnlineProxy::with_defaults(policy, 7).unwrap();
    SearchLoop::new(RunConfig::with_budget(128).batch(0))
        .run_env_with(&mut *agent, env, RunIo::screened(&mut screener))
        .unwrap()
}

#[test]
fn screened_farsi_run_matches_the_pinned_fingerprint() {
    // FARSI's 65k-value axis gives nearly every root row its own
    // threshold: the split search's widest candidate set.
    let env = SocEnv::new(SocWorkload::EdgeDetection);
    let result = screened_refit_heavy_run(AgentKind::Ga, env);
    assert_eq!(
        fingerprint(&result.reward_history),
        11146396040184615086,
        "soc/ga+proxy reward history drifted from the pinned capture"
    );
}

#[test]
fn screened_accel_run_matches_the_pinned_fingerprint() {
    let env = AccelEnv::new(archgym_models::resnet50(), AccelObjective::latency(15.0));
    let result = screened_refit_heavy_run(AgentKind::Sa, env);
    assert_eq!(
        fingerprint(&result.reward_history),
        3068288735324249870,
        "accel/sa+proxy reward history drifted from the pinned capture"
    );
}

#[test]
fn screened_mapping_run_matches_the_pinned_fingerprint() {
    let net = archgym_models::resnet18();
    let env = MappingEnv::for_layer(&net, "stage2", MappingObjective::runtime()).unwrap();
    let result = screened_refit_heavy_run(AgentKind::Ga, env);
    assert_eq!(
        fingerprint(&result.reward_history),
        5160531880815513166,
        "mapping/ga+proxy reward history drifted from the pinned capture"
    );
}

#[test]
fn large_offline_forest_matches_the_pinned_fingerprint() {
    // A Fig. 10-sized fit: 3,000 rows of integer features whose
    // cardinalities range from a binary flag to a 65k-value axis.
    let card = [4u64, 16, 65536, 3, 8, 2, 32, 5];
    let mut rng = archgym_core::seeded_rng(0xF0);
    let xs: Vec<Vec<f64>> = (0..3000)
        .map(|_| card.iter().map(|&c| rng.gen_range(0..c) as f64).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 1e3 + 3.0 * (x[2] / 6553.6).sin() + 0.25 * x[1] - (x[4] - 3.0).powi(2))
        .collect();
    let forest = RandomForest::fit(&xs, &ys, &ForestConfig::default(), 11).unwrap();
    let preds: Vec<f64> = xs[..500].iter().map(|x| forest.predict(x)).collect();
    assert_eq!(
        fingerprint(&preds),
        7537820078642139437,
        "offline forest predictions drifted from the pinned capture"
    );
}

// --- 3. screened resume after a crash ---------------------------------

fn screened_resumable_run(path: &Path) -> RunResult {
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let mut agent = build_agent(AgentKind::Ga, env.space(), &Default::default(), 9).unwrap();
    let policy = ScreenPolicy::default().warmup(24).revalidate_every(3);
    let mut screener = OnlineProxy::with_defaults(policy, 9).unwrap();
    SearchLoop::new(RunConfig::with_budget(96))
        .run_env_with(
            &mut *agent,
            env,
            RunIo {
                journal: Some(path),
                screener: Some(&mut screener),
            },
        )
        .unwrap()
}

#[test]
fn screened_resume_is_bit_identical_at_every_crash_prefix_class() {
    let path = fresh_path("screened-reference.jsonl");
    let reference = screened_resumable_run(&path);
    let full = fs::read_to_string(&path).unwrap();
    assert!(
        full.contains("\"type\":\"screen\""),
        "journal must record screening decisions"
    );
    let lines: Vec<&str> = full.lines().collect();

    // Whole-line crash prefixes: early (pre-warmup), mid-run (screening
    // active), and just before completion.
    for cut in [3, lines.len() / 2, lines.len() - 2] {
        let partial = fresh_path("screened-prefix.jsonl");
        fs::write(&partial, lines[..cut].join("\n") + "\n").unwrap();
        let resumed = screened_resumable_run(&partial);
        assert_identical(&reference, &resumed, &format!("cut after line {cut}"));
        cleanup(&partial);
    }

    // Torn tail: the partial last line a SIGKILL mid-write leaves.
    let bytes = fs::read(&path).unwrap();
    let torn = fresh_path("screened-torn.jsonl");
    fs::write(&torn, &bytes[..bytes.len() - 7]).unwrap();
    let resumed = screened_resumable_run(&torn);
    assert_identical(&reference, &resumed, "torn tail");
    cleanup(&torn);
    cleanup(&path);
}

#[test]
fn screened_journals_refuse_a_proxy_off_resume() {
    let path = fresh_path("screened-mismatch.jsonl");
    let _ = screened_resumable_run(&path);
    // Drop the completion marker so the journal looks like a crash, then
    // replay without a screener: the oversampled proposal batches cannot
    // match a plain run's, and the resume must fail loudly rather than
    // silently mix screened history into an unscreened run.
    let full = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let partial = fresh_path("screened-mismatch-cut.jsonl");
    fs::write(&partial, lines[..lines.len() / 2].join("\n") + "\n").unwrap();
    let env = DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let mut agent = build_agent(AgentKind::Ga, env.space(), &Default::default(), 9).unwrap();
    let err = SearchLoop::new(RunConfig::with_budget(96))
        .run_resumable_pooled(&mut *agent, env, &partial)
        .unwrap_err();
    assert!(
        err.to_string().contains("diverged") || err.to_string().contains("screen"),
        "unexpected error: {err}"
    );
    cleanup(&partial);
    cleanup(&path);
}
