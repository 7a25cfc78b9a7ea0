//! The quick `bench perf` report, end to end.
//!
//! This test is a binary of its own because it gates in-run timing
//! ratios (pooled vs serial, SoA vs linear scan, warm vs cold cache):
//! cargo runs test binaries one at a time, so no sibling test competes
//! for the cores while it measures. Inside the library's test binary the
//! other harness tests saturate both cores of a 2-core host, and a pooled
//! run measured next to them read 0.76–0.84× of serial.

use archgym_bench::perf::run;

#[test]
fn quick_report_covers_every_scenario_and_speeds_up() {
    let report = run(true, 2).unwrap();
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
            "sweep-serial",
            "sweep-parallel",
            "cached-sweep/cold",
            "cached-sweep/warm",
            "daemon/throughput",
            "daemon/p99",
            "proxy/fit",
            "proxy/predict",
            "proxy/screened-search",
            "race/wall-to-target"
        ]
    );
    assert!(report.scenarios.iter().all(|s| s.per_second > 0.0));
    assert!(report.cores >= 1);
    // The SoA engine must not lose to the linear-scan reference
    // (timer noise allowance only).
    assert!(
        report.scheduler_index_speedup > 0.9,
        "SoA engine only {:.2}x of linear scan",
        report.scheduler_index_speedup
    );
    // With fan-out clamped to real hardware parallelism, a pooled
    // run on any machine is at worst the serial run plus pool
    // setup — it must no longer lose meaningfully to serial. The
    // bound is loose enough for debug-build timer noise on loaded
    // shared hardware but still far above the 0.785x the unclamped
    // executor used to cost.
    assert!(
        report.batched_run_speedup > 0.85,
        "pooled batched run only {:.2}x of serial",
        report.batched_run_speedup
    );
    // A warm cache answers every lookup without simulating; even on
    // a loaded single-core machine that dwarfs 2x.
    assert!(
        report.cached_sweep_speedup >= 2.0,
        "cached sweep only {:.2}x faster",
        report.cached_sweep_speedup
    );
    assert!(report.cache_hit_rate > 0.0);
    assert!(report.cache_entries > 0);
    // The recorder's accounting must cover the run it watched: the
    // evaluate phase fired once per batch, and simulate-level spans
    // once per sample.
    assert!(report.telemetry_overhead > 0.0);
    let phase = |name: &str| {
        report
            .phases
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    };
    assert!(phase("evaluate").is_some_and(|p| p.count > 0), "{report:?}");
    assert!(
        phase("simulate").is_some_and(|p| p.count > 0 && p.total_ns > 0),
        "{report:?}"
    );
}
