//! Integration tests for crash-safe checkpoint/resume: a run killed at
//! *any* point of its write-ahead journal — including mid-line — must
//! resume to a report bit-identical to the uninterrupted reference.

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::agent::Agent;
use archgym_core::env::Environment;
use archgym_core::fault::{FaultPlan, FaultyEnv};
use archgym_core::search::{RetryPolicy, RunConfig, RunIo, RunResult, SearchLoop};
use archgym_core::space::ParamSpace;
use archgym_dram::{DramEnv, DramWorkload, Objective};
use std::fs;
use std::path::{Path, PathBuf};

fn dram() -> DramEnv {
    DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0))
}

fn config(budget: u64) -> RunConfig {
    RunConfig::with_budget(budget)
        .batch(8)
        .retry(RetryPolicy::new(3))
}

fn agent(space: &ParamSpace) -> Box<dyn Agent> {
    build_agent(AgentKind::Ga, space, &Default::default(), 11).unwrap()
}

/// A unique, clean path in the shared temp dir (no leftover journal
/// from an earlier test run).
fn fresh_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("archgym-journal-resume-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
}

/// The value fields every resumed run must reproduce exactly.
fn assert_identical(reference: &RunResult, resumed: &RunResult, label: &str) {
    assert_eq!(reference.best_reward, resumed.best_reward, "{label}");
    assert_eq!(reference.best_action, resumed.best_action, "{label}");
    assert_eq!(
        reference.best_observation, resumed.best_observation,
        "{label}"
    );
    assert_eq!(reference.samples_used, resumed.samples_used, "{label}");
    assert_eq!(reference.reward_history, resumed.reward_history, "{label}");
    assert_eq!(reference.dataset, resumed.dataset, "{label}");
}

#[test]
fn resuming_from_every_crash_prefix_is_bit_identical() {
    let budget = 32;
    let path = fresh_path("every-prefix.jsonl");
    let env = dram();
    let mut reference_agent = agent(env.space());
    let reference = SearchLoop::new(config(budget))
        .run_with(&mut *reference_agent, &mut dram(), RunIo::journaled(&path))
        .unwrap();
    let full = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert!(
        lines.len() > budget as usize,
        "journal must hold every step"
    );

    // Simulate a SIGKILL after each journal line (1 = header only) and
    // resume from that prefix.
    for cut in 1..=lines.len() {
        let partial = fresh_path("prefix.jsonl");
        fs::write(&partial, lines[..cut].join("\n") + "\n").unwrap();
        let mut resumed_agent = agent(env.space());
        let resumed = SearchLoop::new(config(budget))
            .run_with(&mut *resumed_agent, &mut dram(), RunIo::journaled(&partial))
            .unwrap();
        assert_identical(&reference, &resumed, &format!("cut after line {cut}"));
        cleanup(&partial);
    }
    cleanup(&path);
}

#[test]
fn resuming_a_mid_line_truncation_is_bit_identical() {
    let budget = 32;
    let path = fresh_path("midline-reference.jsonl");
    let env = dram();
    let mut reference_agent = agent(env.space());
    let reference = SearchLoop::new(config(budget))
        .run_with(&mut *reference_agent, &mut dram(), RunIo::journaled(&path))
        .unwrap();
    let full = fs::read(&path).unwrap();

    // Chop the journal mid-record — the torn write a crash leaves.
    for cut in [full.len() - 3, full.len() - 25, full.len() / 2] {
        let partial = fresh_path("midline.jsonl");
        fs::write(&partial, &full[..cut]).unwrap();
        let mut resumed_agent = agent(env.space());
        let resumed = SearchLoop::new(config(budget))
            .run_with(&mut *resumed_agent, &mut dram(), RunIo::journaled(&partial))
            .unwrap();
        assert_identical(&reference, &resumed, &format!("torn at byte {cut}"));
        cleanup(&partial);
    }
    cleanup(&path);
}

#[test]
fn resume_survives_injected_faults() {
    // A flaky simulator under a fixed fault seed: the interrupted-then-
    // resumed run must reproduce the reference's rewards exactly. (Fault
    // *counters* may legitimately differ across the crash boundary —
    // retry accounting is process-local — so only value fields are
    // compared, and the scenario is chosen so nothing degrades.)
    let budget = 32;
    let plan = FaultPlan::new(19).transient(0.10);
    let path = fresh_path("faulty-reference.jsonl");
    let env = FaultyEnv::new(dram(), plan);
    let mut reference_agent = agent(env.space());
    let reference = SearchLoop::new(config(budget))
        .run_with(
            &mut *reference_agent,
            &mut env.clone(),
            RunIo::journaled(&path),
        )
        .unwrap();
    assert!(reference.eval_failures > 0, "faults must fire");
    assert_eq!(reference.degraded_samples, 0, "scenario must not degrade");

    let full = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    for frac in [4, 2, 1] {
        let cut = (lines.len() / frac).max(1);
        let partial = fresh_path("faulty-prefix.jsonl");
        fs::write(&partial, lines[..cut].join("\n") + "\n").unwrap();
        let mut resumed_agent = agent(env.space());
        let mut resumed_env = FaultyEnv::new(dram(), plan);
        let resumed = SearchLoop::new(config(budget))
            .run_with(
                &mut *resumed_agent,
                &mut resumed_env,
                RunIo::journaled(&partial),
            )
            .unwrap();
        assert_identical(&reference, &resumed, &format!("faulty cut at {cut}"));
        cleanup(&partial);
    }
    cleanup(&path);
}

#[test]
fn a_journal_from_a_different_run_is_rejected() {
    let path = fresh_path("mismatch.jsonl");
    let env = dram();
    let mut a = agent(env.space());
    SearchLoop::new(config(32))
        .run_with(&mut *a, &mut dram(), RunIo::journaled(&path))
        .unwrap();
    // Same journal, different budget: refuse rather than silently mix.
    let mut b = agent(env.space());
    let err = SearchLoop::new(config(64))
        .run_with(&mut *b, &mut dram(), RunIo::journaled(&path))
        .unwrap_err();
    assert!(
        err.to_string().contains("different run"),
        "unexpected error: {err}"
    );
    cleanup(&path);
}

#[test]
fn a_finished_journal_replays_without_re_evaluating() {
    let budget = 32;
    let path = fresh_path("finished.jsonl");
    let env = dram();
    let mut a = agent(env.space());
    let reference = SearchLoop::new(config(budget))
        .run_with(&mut *a, &mut dram(), RunIo::journaled(&path))
        .unwrap();
    // Replaying the complete journal touches the simulator zero times.
    let mut b = agent(env.space());
    let mut counter = archgym_core::env::CountingEnv::new(dram());
    let replayed = SearchLoop::new(config(budget))
        .run_with(&mut *b, &mut counter, RunIo::journaled(&path))
        .unwrap();
    assert_identical(&reference, &replayed, "full replay");
    assert_eq!(counter.samples(), 0, "replay must not re-evaluate");
    cleanup(&path);
}
