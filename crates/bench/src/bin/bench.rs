//! Workspace microbenchmarks and their in-run ratio gate. Usage:
//!
//! ```text
//! bench perf [--quick] [--out=PATH] [--rev=SHA] [--date=YYYY-MM-DD]
//! ```
//!
//! `perf` times the DRAM engine (simulate-only and the `dram-engine/*`
//! access patterns) and four A/B pairs — SoA engine vs linear-scan
//! reference, pooled vs serial batched run, telemetry recorder on vs
//! off, cold vs warm cached sweep — each as the median of 11
//! interleaved reps, then **appends** the report to the history array
//! in `BENCH_perf.json` (override with `--out=`). `--quick` selects the
//! CI smoke sizes; `--rev=`/`--date=` stamp the entry.
//!
//! Every run then applies `perf::gate`: the four ratios must stay
//! within their bounds, or the binary exits nonzero. Absolute rates are
//! recorded for the history but never gated: they are not comparable
//! across hosts, nor stable enough between runs on one.

use std::process::ExitCode;

const USAGE: &str = "usage: bench perf [--quick] [--out=PATH] [--rev=SHA] [--date=DATE]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(("perf", flags)) = args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let known = ["--out=", "--rev=", "--date="];
    if let Some(bad) = flags
        .iter()
        .find(|a| *a != "--quick" && !known.iter().any(|k| a.starts_with(k)))
    {
        eprintln!("unknown argument `{bad}`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let flag = |prefix: &str| flags.iter().find_map(|a| a.strip_prefix(prefix));
    let quick = flags.iter().any(|a| a == "--quick");
    let out = flag("--out=").unwrap_or("BENCH_perf.json").to_owned();

    eprintln!("running bench perf (quick={quick})...");
    let mut report = archgym_bench::perf::run(quick).expect("bench perf failed");
    if let Some(rev) = flag("--rev=") {
        report.rev = rev.to_owned();
    }
    if let Some(date) = flag("--date=") {
        report.date = date.to_owned();
    }
    archgym_bench::perf::print(&report);

    let existing = std::fs::read_to_string(&out).unwrap_or_default();
    let history = archgym_bench::perf::append_history(&existing, &report.to_json());
    std::fs::write(&out, history).expect("failed to write report");
    println!("appended run to {out}");

    let failures = archgym_bench::perf::gate(&report);
    for failure in &failures {
        eprintln!("perf gate: {failure}");
    }
    if failures.is_empty() {
        println!("perf gate passed: every in-run ratio within its bound");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
