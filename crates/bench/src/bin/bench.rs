//! Workspace performance benchmarks. Usage:
//!
//! ```text
//! bench perf [--quick] [--jobs=N] [--out=PATH] [--rev=SHA] [--date=YYYY-MM-DD] [--gate=PATH]
//! bench delta --baseline=PATH --current=PATH
//! ```
//!
//! `perf` times simulate-only (SoA and linear-scan reference engines),
//! batched-run (serial vs pooled), telemetry (recorder off vs on),
//! sweep-serial, sweep-parallel, cached-sweep, and daemon-load
//! scenarios, then **appends** the report to the history array in
//! `BENCH_perf.json` (override with `--out=`). `--quick` selects the
//! CI smoke sizes; `--jobs=N` sets the parallel scenario's worker
//! count (0 = all cores, the default). `--rev=`/`--date=` stamp the
//! entry so the history reads as a trajectory. `--gate=PATH` compares
//! the fresh numbers against the most recent entry in PATH with 30%
//! tolerance — and holds the live recorder to at most 5% overhead
//! over the no-op path — exiting nonzero on a regression.
//!
//! `delta` prints a markdown table comparing the newest entry of two
//! history files scenario by scenario (for CI step summaries).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(subcommand) = args.first() else {
        eprintln!("usage: bench perf [--quick] [--jobs=N] [--out=PATH] [--rev=SHA] [--date=DATE] [--gate=PATH]");
        eprintln!("       bench delta --baseline=PATH --current=PATH");
        return ExitCode::FAILURE;
    };
    if subcommand == "delta" {
        let flag = |prefix: &str| args.iter().find_map(|a| a.strip_prefix(prefix));
        let (Some(baseline), Some(current)) = (flag("--baseline="), flag("--current=")) else {
            eprintln!("usage: bench delta --baseline=PATH --current=PATH");
            return ExitCode::FAILURE;
        };
        let baseline = std::fs::read_to_string(baseline).expect("failed to read baseline history");
        let current = std::fs::read_to_string(current).expect("failed to read current history");
        print!("{}", archgym_bench::perf::delta_table(&baseline, &current));
        return ExitCode::SUCCESS;
    }
    if subcommand != "perf" {
        eprintln!("unknown subcommand `{subcommand}` (expected `perf` or `delta`)");
        return ExitCode::FAILURE;
    }

    let quick = args.iter().any(|a| a == "--quick");
    let jobs = args
        .iter()
        .find_map(|a| a.strip_prefix("--jobs="))
        .map_or(0, |v| v.parse().expect("--jobs expects an integer"));
    let flag = |prefix: &str| args.iter().find_map(|a| a.strip_prefix(prefix));
    let out = flag("--out=").unwrap_or("BENCH_perf.json").to_owned();

    eprintln!("running bench perf (quick={quick}, jobs={jobs}; 0 = all cores)...");
    let mut report = archgym_bench::perf::run(quick, jobs).expect("bench perf failed");
    if let Some(rev) = flag("--rev=") {
        report.rev = rev.to_owned();
    }
    if let Some(date) = flag("--date=") {
        report.date = date.to_owned();
    }
    archgym_bench::perf::print(&report);

    if let Some(gate_path) = flag("--gate=") {
        let baseline = std::fs::read_to_string(gate_path).expect("failed to read gate baseline");
        let failures = archgym_bench::perf::gate(&report, &baseline, 0.3);
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("perf regression: {failure}");
            }
            return ExitCode::FAILURE;
        }
        println!("perf gate passed against {gate_path} (30% tolerance)");
    }

    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let history = archgym_bench::perf::append_history(&existing, &report.to_json());
    std::fs::write(&out, history).expect("failed to write report");
    println!("appended run to {out}");
    ExitCode::SUCCESS
}
