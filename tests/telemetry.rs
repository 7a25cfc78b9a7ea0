//! Cross-layer telemetry invariants: the run recorder's accounting must
//! agree *exactly* with every other ledger in the system — the search
//! loop's `RunResult` counters, the cache's hit/miss arithmetic, the
//! fault injector's `FaultStats`, and the resume path's replay split —
//! whether batches are settled serially or fanned over an `EnvPool`.

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_core::agent::Agent;
use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::Environment;
use archgym_core::fault::{FaultPlan, FaultyEnv};
use archgym_core::search::{RetryPolicy, RunConfig, RunResult, SearchLoop};
use archgym_core::space::ParamSpace;
use archgym_core::telemetry::{Counter, Recorder, RunReport};
use archgym_core::toy::PeakEnv;
use archgym_dram::{DramEnv, DramWorkload, Objective};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const JOB_COUNTS: [usize; 2] = [1, 4];

fn dram() -> DramEnv {
    DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0))
}

fn peak() -> PeakEnv {
    PeakEnv::new(&[6, 6, 6], vec![2, 3, 4])
}

fn agent(space: &ParamSpace, seed: u64) -> Box<dyn Agent> {
    build_agent(AgentKind::Ga, space, &Default::default(), seed).unwrap()
}

/// Run `env` under a live recorder and return the result + snapshot.
fn observed_run<E>(env: E, budget: u64, jobs: usize, retries: u32) -> (RunResult, RunReport)
where
    E: Environment + Clone + Send,
{
    let rec = Recorder::new();
    let mut agent = agent(env.space(), 11);
    let config = RunConfig::with_budget(budget)
        .batch(8)
        .jobs(jobs)
        .retry(RetryPolicy::new(retries));
    let result = SearchLoop::new(config)
        .with_telemetry(rec.clone())
        .run_pooled(agent.as_mut(), env);
    let report = rec.report().expect("live recorder yields a report");
    (result, report)
}

fn counter(report: &RunReport, c: Counter) -> u64 {
    report.counters[c.name()]
}

/// A flaky-but-recoverable fault plan (transients only, so retries can
/// always settle every sample within the budget's retry allowance).
fn transient_plan() -> FaultPlan {
    FaultPlan::new(7).transient(0.2)
}

#[test]
fn cache_lookups_split_exactly_into_hits_and_misses() {
    for jobs in JOB_COUNTS {
        let (result, report) = observed_run(
            CachedEnv::with_cache(peak(), Some(Arc::new(EvalCache::new()))),
            96,
            jobs,
            2,
        );
        let lookups = counter(&report, Counter::CacheLookups);
        let hits = counter(&report, Counter::CacheHits);
        let misses = counter(&report, Counter::CacheMisses);
        assert_eq!(lookups, hits + misses, "jobs={jobs}: {report:?}");
        // Every settled sample probed the cache exactly once.
        assert_eq!(lookups, result.samples_used, "jobs={jobs}");
        // A deterministic pure env inserts at most once per miss, and a
        // GA revisits designs, so a 96-sample run must hit sometimes.
        assert!(hits > 0, "jobs={jobs}: GA revisits must hit the cache");
        assert!(
            counter(&report, Counter::CacheInserts) <= misses,
            "jobs={jobs}"
        );
    }
}

#[test]
fn fault_ledgers_agree_across_all_three_layers() {
    for jobs in JOB_COUNTS {
        for (label, result, report, stats) in [
            {
                let faulty = FaultyEnv::new(peak(), transient_plan());
                let handle = faulty.clone();
                let (result, report) = observed_run(faulty, 64, jobs, 3);
                ("peak", result, report, handle.stats())
            },
            {
                let faulty = FaultyEnv::new(dram(), transient_plan());
                let handle = faulty.clone();
                let (result, report) = observed_run(faulty, 64, jobs, 3);
                ("dram", result, report, handle.stats())
            },
        ] {
            let ctx = format!("{label} jobs={jobs}");
            assert!(result.eval_failures > 0, "{ctx}: 20% transients must fire");
            // RunResult, FaultStats, and the recorder: one ledger.
            assert_eq!(result.eval_failures, stats.total(), "{ctx}");
            assert_eq!(
                counter(&report, Counter::EvalFailures),
                result.eval_failures,
                "{ctx}"
            );
            assert_eq!(
                counter(&report, Counter::EvalRetries),
                result.eval_retries,
                "{ctx}"
            );
            assert_eq!(
                counter(&report, Counter::DegradedSamples),
                result.degraded_samples,
                "{ctx}"
            );
            // Per-mode recorder counters mirror FaultStats exactly.
            assert_eq!(
                counter(&report, Counter::FaultTransient),
                stats.transient,
                "{ctx}"
            );
            assert_eq!(
                counter(&report, Counter::FaultLatched),
                stats.latched,
                "{ctx}"
            );
            assert_eq!(
                counter(&report, Counter::FaultCorrupt),
                stats.corrupt,
                "{ctx}"
            );
            assert_eq!(counter(&report, Counter::FaultStall), stats.stall, "{ctx}");
            assert_eq!(
                counter(&report, Counter::FaultCrashedRejections),
                stats.crashed_rejections,
                "{ctx}"
            );
            assert_eq!(
                counter(&report, Counter::SamplesSettled),
                result.samples_used,
                "{ctx}"
            );
        }
    }
}

#[test]
fn pooled_and_serial_runs_record_identical_stable_counters() {
    let peak_reports: Vec<RunReport> = JOB_COUNTS
        .iter()
        .map(|&jobs| observed_run(peak(), 96, jobs, 2).1)
        .collect();
    assert_eq!(
        peak_reports[0].stable_json(),
        peak_reports[1].stable_json(),
        "peak: stable counters must not depend on the job count"
    );
    let dram_reports: Vec<RunReport> = JOB_COUNTS
        .iter()
        .map(|&jobs| observed_run(dram(), 48, jobs, 2).1)
        .collect();
    assert_eq!(
        dram_reports[0].stable_json(),
        dram_reports[1].stable_json(),
        "dram: stable counters must not depend on the job count"
    );
    // DRAM decisions decompose exactly into row outcomes, and fire for
    // every one of the 48 simulated samples.
    let report = &dram_reports[0];
    let decisions = counter(report, Counter::DramDecisions);
    assert!(decisions > 0);
    assert_eq!(
        decisions,
        counter(report, Counter::DramRowHits)
            + counter(report, Counter::DramRowMisses)
            + counter(report, Counter::DramRowConflicts)
    );
    assert_eq!(counter(report, Counter::SamplesSettled), 48);
}

/// A unique, clean path in the shared temp dir.
fn fresh_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("archgym-telemetry-tests");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = fs::remove_file(&path);
    path
}

fn cleanup(path: &Path) {
    let _ = fs::remove_file(path);
}

#[test]
fn resume_replays_are_split_out_and_never_double_counted() {
    let budget = 64;
    let path = fresh_path("replay-accounting.jsonl");
    let journal_path = path.to_str().unwrap();
    let run = |p: &str| -> (RunResult, RunReport) {
        let rec = Recorder::new();
        let env = FaultyEnv::new(dram(), transient_plan());
        let mut agent = agent(env.space(), 11);
        let config = RunConfig::with_budget(budget)
            .batch(8)
            .retry(RetryPolicy::new(3));
        let result = SearchLoop::new(config)
            .with_telemetry(rec.clone())
            .run_resumable_pooled(agent.as_mut(), env, p)
            .unwrap();
        (result, rec.report().unwrap())
    };

    let (original, first) = run(journal_path);
    assert_eq!(counter(&first, Counter::SamplesSettled), budget);
    assert_eq!(counter(&first, Counter::SamplesReplayed), 0);
    assert!(counter(&first, Counter::JournalAppends) > 0);
    assert!(counter(&first, Counter::EvalFailures) > 0);

    // Re-running against the completed journal absorbs every sample
    // from the log: nothing settles live, nothing is counted twice,
    // and the journaled retries/faults reproduce the original ledger.
    let (resumed, second) = run(journal_path);
    assert_eq!(counter(&second, Counter::SamplesReplayed), budget);
    assert_eq!(counter(&second, Counter::SamplesSettled), 0);
    assert_eq!(
        counter(&second, Counter::SamplesReplayed) + counter(&second, Counter::SamplesSettled),
        resumed.samples_used
    );
    assert_eq!(resumed.best_reward, original.best_reward);
    assert_eq!(resumed.samples_used, original.samples_used);
    assert_eq!(
        counter(&second, Counter::EvalFailures),
        counter(&first, Counter::EvalFailures),
        "replayed failure accounting must match the live run"
    );
    assert_eq!(
        counter(&second, Counter::EvalRetries),
        counter(&first, Counter::EvalRetries)
    );
    assert_eq!(
        counter(&second, Counter::Batches),
        counter(&first, Counter::Batches)
    );
    cleanup(&path);
}

#[test]
fn run_result_carries_the_report_only_when_telemetry_is_live() {
    let mut agent = agent(peak().space(), 11);
    let silent = SearchLoop::new(RunConfig::with_budget(16)).run_pooled(agent.as_mut(), peak());
    assert_eq!(silent.telemetry, None);

    let mut agent = agent_fresh();
    let observed = SearchLoop::new(RunConfig::with_budget(16))
        .with_telemetry(Recorder::new())
        .run_pooled(agent.as_mut(), peak());
    let report = observed.telemetry.expect("live recorder attaches a report");
    assert_eq!(report.counters["samples_settled"], 16);
    // The snapshot itself survives the repo's own codec byte-for-byte.
    assert_eq!(RunReport::parse(&report.encode()).unwrap(), report);
}

fn agent_fresh() -> Box<dyn Agent> {
    agent(peak().space(), 11)
}
