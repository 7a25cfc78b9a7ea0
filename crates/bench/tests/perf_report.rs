//! The quick `bench perf` report, end to end: every scenario and every
//! ratio check is present and measured.
//!
//! Timing bounds are not asserted here: they run once per CI build, in
//! `perf::gate` as applied by the `bench` binary in the bench-smoke job.
//! A test binary shares the cores with whatever else cargo runs, so a
//! timing assertion here would gate the load of the machine rather than
//! the code.

use archgym_bench::perf::{run, REPS};

#[test]
fn quick_report_covers_every_scenario_and_ratio() {
    let report = run(true).unwrap();
    let names: Vec<&str> = report.scenarios.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "simulate-only/default",
            "simulate-only/wide",
            "simulate-only/wide-linear-scan",
            "dram-engine/stream",
            "dram-engine/random",
            "dram-engine/mixed",
            "dram-engine/conflict",
            "batched-run/serial",
            "batched-run/jobs4",
            "telemetry/off",
            "telemetry/on",
            "cached-sweep/cold",
            "cached-sweep/warm",
            "cache-overhead/timeloop/uncached",
            "cache-overhead/timeloop/cached",
            "cache-overhead/farsi/uncached",
            "cache-overhead/farsi/cached",
            "cache-overhead/maestro/uncached",
            "cache-overhead/maestro/cached",
            "cache-overhead/dram/uncached",
            "cache-overhead/dram/cached",
            "teardown/dataset",
            "teardown/cache",
        ]
    );
    assert!(report
        .scenarios
        .iter()
        .all(|s| s.work_units > 0 && s.per_second.is_finite() && s.per_second > 0.0));
    assert!(report.cores >= 1);
    // The cache-overhead rows count their simulations: every sample
    // uncached, fewer cached.
    let overhead: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.name.starts_with("cache-overhead/"))
        .collect();
    assert_eq!(overhead.len(), 8);
    for pair in overhead.chunks(2) {
        let (uncached, cached) = (pair[0], pair[1]);
        assert_eq!(
            uncached.simulations,
            Some(uncached.work_units),
            "{uncached:?}"
        );
        assert!(
            cached.simulations.is_some_and(|n| n < uncached.work_units),
            "{cached:?}"
        );
    }

    let ratios: Vec<&str> = report.ratios.iter().map(|r| r.name).collect();
    assert_eq!(
        ratios,
        [
            "soa-vs-reference",
            "pooled-vs-serial",
            "telemetry-on-vs-off",
            "cache-cold-vs-warm",
        ]
    );
    for r in &report.ratios {
        assert!(
            [r.q1, r.median, r.q3]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0),
            "{r:?}"
        );
        assert!(r.q1 <= r.median && r.median <= r.q3, "{r:?}");
    }

    // Every cold rep fills a fresh cache that its warm rep then hits.
    assert!(report.cache_hit_rate > 0.0);
    assert!(report.cache_entries > 0);
    // The recorder's accounting must cover the runs it watched: the
    // evaluate phase fired once per batch, and simulate-level spans
    // once per sample of every telemetry-on rep.
    let phase = |name: &str| {
        report
            .phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    };
    assert!(phase("evaluate").is_some_and(|p| p.count > 0), "{report:?}");
    let simulate = phase("simulate").expect("simulate phase recorded");
    assert_eq!(simulate.count, 8 * 192 * REPS as u64, "{report:?}");
    assert!(simulate.total_ns > 0);
}
