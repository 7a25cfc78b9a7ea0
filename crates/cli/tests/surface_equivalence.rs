//! One search spec, three surfaces, one answer.
//!
//! The same spec runs through the library ([`SearchLoop::run_env_with`]),
//! the in-process CLI (`archgym_cli::run` on a `search` command line) and
//! an in-process `archgymd` job over TCP. All three must report the same
//! best reward, bit for bit, and the same number of samples — screened or
//! not, on a DRAM and a non-DRAM family, and with no objective given,
//! where every surface must fall back to the same family default.

use archgym_agents::factory::{build_agent, AgentKind};
use archgym_cli::spec::make_env;
use archgym_cli::Args;
use archgym_core::env::Environment;
use archgym_core::jobs::{JobSpec, JobState};
use archgym_core::screen::{ScreenPolicy, Screener};
use archgym_core::search::{RunConfig, RunIo, SearchLoop};
use archgym_core::telemetry::RunReport;
use archgym_proxy::OnlineProxy;
use archgymd::client::{request_one, ConnectOptions, WatchStream};
use archgymd::protocol::{Request, Response};
use archgymd::server::{DaemonConfig, Server};
use std::path::PathBuf;

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

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("archgym-surface-{tag}-{}", std::process::id()));
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
    let dir = scratch("daemon");
    let server = Server::bind(DaemonConfig::new("127.0.0.1:0", &dir)).unwrap();
    let addr = server.local_addr().to_string();
    let thread = std::thread::spawn(move || server.run().unwrap());

    let mut job_spec = JobSpec::search(spec.env, "ga", BUDGET, SEED);
    // An empty objective on the wire means the family default.
    job_spec.objective = spec.objective.unwrap_or_default().into();
    job_spec.proxy = spec.proxy.then(ScreenPolicy::default);
    let request = Request::Submit {
        tenant: "ci".into(),
        name: None,
        spec: job_spec,
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
