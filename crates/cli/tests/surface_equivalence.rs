//! One spec, every surface, one answer.
//!
//! The same search spec runs through the library
//! ([`SearchLoop::run_env_with`]), the in-process CLI (`archgym_cli::run`
//! on a `search` command line) and an in-process `archgymd` job over TCP.
//! All three must report the same best reward, bit for bit, and the same
//! number of samples — screened or not, on a DRAM and a non-DRAM family,
//! and with no objective given, where every surface must fall back to the
//! same family default. Compare specs (CLI `compare` against a daemon
//! compare job) and race specs (CLI `search --auto`, a daemon race job
//! and a library [`Race`]) are held to the same standard.

use archgym_agents::factory::{build_agent, race_roster, AgentKind};
use archgym_cli::spec::make_env;
use archgym_cli::Args;
use archgym_core::codec::{parse_json, Json};
use archgym_core::env::Environment;
use archgym_core::jobs::{JobKind, JobSpec, JobState};
use archgym_core::race::{Race, RaceLane};
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::search::{RunConfig, RunIo, SearchLoop};
use archgym_core::telemetry::RunReport;
use archgym_proxy::OnlineProxy;
use archgymd::client::{request_one, ConnectOptions, WatchStream};
use archgymd::protocol::{Request, Response};
use archgymd::server::{DaemonConfig, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const BUDGET: u64 = 200;
const SEED: u64 = 11;

/// One search spec: env, objective (`None` = the family default), and
/// whether `--proxy` screens it. The agent is `ga`, the batch its own
/// (`--batch 0`).
#[derive(Clone, Copy)]
struct Spec {
    env: &'static str,
    objective: Option<&'static str>,
    proxy: bool,
}

/// (best reward bits, samples used) of one run.
type Outcome = (u64, u64);

/// A fresh directory per call: the tests run in parallel threads of one
/// process, so the pid alone would hand two daemons one state directory.
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("archgym-surface-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn library(spec: Spec) -> Outcome {
    let env = make_env(spec.env, spec.objective).unwrap();
    let mut agent = build_agent(AgentKind::Ga, env.space(), &Default::default(), SEED).unwrap();
    let mut screener = spec
        .proxy
        .then(|| OnlineProxy::with_defaults(ScreenPolicy::default(), SEED).unwrap());
    let io = RunIo {
        journal: None,
        screener: screener.as_mut().map(|s| s as &mut dyn Screener),
    };
    let result = SearchLoop::new(RunConfig::with_budget(BUDGET).batch(0))
        .run_env_with(&mut agent, env, io)
        .unwrap();
    assert_eq!(result.proxy_screened > 0, spec.proxy, "screening engaged");
    (result.best_reward.to_bits(), result.samples_used)
}

fn cli(spec: Spec) -> Outcome {
    let dir = scratch("cli");
    let metrics = dir.join("metrics.json");
    let mut argv = vec![
        "search".to_owned(),
        "--env".into(),
        spec.env.into(),
        "--agent".into(),
        "ga".into(),
        "--budget".into(),
        BUDGET.to_string(),
        "--seed".into(),
        SEED.to_string(),
        "--batch".into(),
        "0".into(),
        "--metrics".into(),
        metrics.display().to_string(),
    ];
    if let Some(objective) = spec.objective {
        argv.extend(["--objective".into(), objective.into()]);
    }
    if spec.proxy {
        argv.extend(["--proxy".into(), "true".into()]);
    }
    let out = archgym_cli::run(&Args::parse(argv).unwrap()).unwrap();
    // First line: "<agent> on <env>: <n> samples in <t>s".
    let samples = out
        .lines()
        .next()
        .and_then(|line| line.split(": ").nth(1))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no sample count in CLI output:\n{out}"));
    let report = RunReport::parse(std::fs::read_to_string(&metrics).unwrap().trim()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (report.gauges["best_reward"].to_bits(), samples)
}

fn daemon(spec: Spec) -> Outcome {
    daemon_job(job_spec(JobKind::Search, spec, "ga"))
}

/// The spec as a daemon job of `kind`.
fn job_spec(kind: JobKind, spec: Spec, agent: &str) -> JobSpec {
    let mut job = JobSpec::search(spec.env, agent, BUDGET, SEED);
    job.kind = kind;
    // An empty objective on the wire means the family default.
    job.objective = spec.objective.unwrap_or_default().into();
    job.proxy = spec.proxy.then(ScreenPolicy::default);
    job
}

fn daemon_job(job: JobSpec) -> Outcome {
    let dir = scratch("daemon");
    let server = Server::bind(DaemonConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let request = Request::Submit {
        tenant: "ci".into(),
        name: None,
        spec: job,
    };
    let Response::Accepted { job, .. } = request_one(&addr, &request).unwrap() else {
        panic!("daemon refused the spec")
    };
    let status = WatchStream::open(addr.clone(), job, ConnectOptions::default(), 0, 3)
        .wait_done()
        .unwrap();
    assert_eq!(status.state, JobState::Done);

    let stop = Request::Shutdown {
        drain: false,
        deadline_ms: 0,
    };
    request_one(&addr, &stop).unwrap();
    thread.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (status.best_reward.unwrap().to_bits(), status.samples)
}

/// Run a CLI command line for `spec` with `--trace` and `--metrics`;
/// returns its report, the largest `best_reward` in the trace (bit
/// exact, unlike the report's six decimals) and the metrics' stable
/// counters.
fn cli_traced(mut argv: Vec<String>, spec: Spec) -> (String, f64, Json) {
    let dir = scratch("cli-traced");
    let (trace, metrics) = (dir.join("trace.jsonl"), dir.join("metrics.json"));
    argv.extend(["--env".into(), spec.env.into()]);
    argv.extend(["--budget".into(), BUDGET.to_string()]);
    argv.extend(["--seed".into(), SEED.to_string()]);
    argv.extend(["--trace".into(), trace.display().to_string()]);
    argv.extend(["--metrics".into(), metrics.display().to_string()]);
    if let Some(objective) = spec.objective {
        argv.extend(["--objective".into(), objective.into()]);
    }
    if spec.proxy {
        argv.extend(["--proxy".into(), "true".into()]);
    }
    let out = archgym_cli::run(&Args::parse(argv).unwrap()).unwrap();
    let best = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .filter_map(|line| {
            parse_json(line)
                .ok()?
                .field("best_reward")
                .ok()?
                .as_f64()
                .ok()
        })
        .fold(f64::NEG_INFINITY, f64::max);
    let metrics = parse_json(std::fs::read_to_string(&metrics).unwrap().trim()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    (out, best, metrics)
}

const COMPARE_AGENTS: [&str; 3] = ["rw", "ga", "sa"];

/// `compare --agents rw,ga,sa`: the roster-wide best and the samples of
/// every leaderboard row.
fn cli_compare(spec: Spec) -> Outcome {
    let argv = ["compare", "--agents", &COMPARE_AGENTS.join(",")];
    let (out, best, metrics) = cli_traced(argv.map(String::from).to_vec(), spec);
    // Rows: "   1. ga   best 1.234567 |    200 samples | 0.01s".
    let rows: Vec<u64> = out
        .lines()
        .filter_map(|line| line.split(" | ").nth(1)?.trim().strip_suffix(" samples"))
        .map(|n| n.trim().parse().unwrap())
        .collect();
    assert_eq!(rows.len(), COMPARE_AGENTS.len(), "{out}");
    for agent in COMPARE_AGENTS {
        let screened = metrics.field("agents").unwrap().field(agent).unwrap();
        assert_eq!(
            screened_counter(screened) > 0,
            spec.proxy,
            "{agent} screening"
        );
    }
    (best.to_bits(), rows.iter().sum())
}

fn screened_counter(report: &Json) -> u64 {
    (report.field("counters").unwrap())
        .field("proxy_screened")
        .unwrap()
        .as_u64()
        .unwrap()
}

/// Race lanes per family: one ticket each keeps the race small.
const ROSTER_CAP: usize = 1;

/// A race lane sees only a slice of the budget, so its proxy must warm
/// up on fewer samples than the default policy's to screen at all.
fn race_policy() -> ScreenPolicy {
    ScreenPolicy::default().warmup(8)
}

fn library_race(spec: Spec) -> Outcome {
    let env = make_env(spec.env, spec.objective).unwrap();
    let lanes = race_roster(ROSTER_CAP)
        .into_iter()
        .map(|entry| {
            let agent = build_agent(entry.kind, env.space(), &entry.hyper, SEED).unwrap();
            let lane = RaceLane::new(entry.name, agent);
            match spec.proxy {
                true => lane.screened(Box::new(
                    OnlineProxy::with_defaults(race_policy(), SEED).unwrap(),
                )),
                false => lane,
            }
        })
        .collect();
    let result = Race::new(BUDGET, 3).batch(0).run(lanes, env).unwrap();
    (result.best_reward.to_bits(), result.samples_used)
}

fn cli_race(spec: Spec) -> Outcome {
    let mut argv = [
        "search",
        "--auto",
        "true",
        "--batch",
        "0",
        "--roster-cap",
        "1",
    ]
    .map(String::from)
    .to_vec();
    if spec.proxy {
        argv.extend(["--proxy-warmup".into(), race_policy().warmup.to_string()]);
    }
    let (out, best, metrics) = cli_traced(argv, spec);
    assert_eq!(screened_counter(&metrics) > 0, spec.proxy, "race screening");
    // First line: "race on <env>: <n> lanes (eta 3), <s> samples in <t>s".
    let samples = out
        .lines()
        .next()
        .and_then(|line| line.split(", ").nth(1))
        .and_then(|rest| rest.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no sample count in CLI output:\n{out}"));
    (best.to_bits(), samples)
}

#[test]
fn library_cli_and_daemon_agree_bit_for_bit() {
    for (env, objective) in [
        ("dram/stream", Some("power:1.0")),
        ("timeloop/resnet50", Some("latency:15")),
        ("farsi/edge-detection", None),
    ] {
        for proxy in [false, true] {
            let spec = Spec {
                env,
                objective,
                proxy,
            };
            let reference = library(spec);
            assert_eq!(reference.1, BUDGET, "{env} proxy={proxy}");
            assert_eq!(cli(spec), reference, "CLI: {env} proxy={proxy}");
            assert_eq!(daemon(spec), reference, "daemon: {env} proxy={proxy}");
        }
    }
}

#[test]
fn cli_and_daemon_compare_agree_bit_for_bit() {
    for (env, objective) in [
        ("dram/stream", Some("power:1.0")),
        ("farsi/edge-detection", None),
    ] {
        for proxy in [false, true] {
            let spec = Spec {
                env,
                objective,
                proxy,
            };
            let cli = cli_compare(spec);
            assert_eq!(cli.1, 3 * BUDGET, "{env} proxy={proxy}");
            let mut job = job_spec(JobKind::Compare, spec, "");
            job.agents = COMPARE_AGENTS.map(String::from).to_vec();
            assert_eq!(daemon_job(job), cli, "daemon: {env} proxy={proxy}");
        }
    }
}

#[test]
fn library_cli_and_daemon_races_agree_bit_for_bit() {
    for (env, objective) in [
        ("dram/stream", Some("power:1.0")),
        ("farsi/edge-detection", None),
    ] {
        for proxy in [false, true] {
            let spec = Spec {
                env,
                objective,
                proxy,
            };
            let reference = library_race(spec);
            assert_eq!(reference.1, BUDGET, "{env} proxy={proxy}");
            assert_eq!(cli_race(spec), reference, "CLI: {env} proxy={proxy}");
            let mut job = job_spec(JobKind::Race, spec, "");
            job.race_cap = ROSTER_CAP;
            job.proxy = spec.proxy.then(race_policy);
            assert_eq!(daemon_job(job), reference, "daemon: {env} proxy={proxy}");
        }
    }
}
