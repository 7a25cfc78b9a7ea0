//! `service`: the `archgymd` daemon in-process on `127.0.0.1:0`, with a
//! fresh state dir, 2 workers and `none` durability. Two closed-loop
//! clients each submit a job, watch it to its terminal status, and
//! submit the next. Most jobs are `search` jobs (`ga`/`sa` on all four
//! families); every ninth is a `race` job between one `ga` and one `sa`
//! configuration, on the DRAM or the MAESTRO spec.
//!
//! Every job computes for at most about 10 ms in-process, less than the
//! ~45 ms the daemon adds to each job. A job whose watch events spread
//! over tens of milliseconds, or come in larger numbers, waits a varying
//! number of times on the socket, and its latency then follows the
//! host's scheduling jitter more than the daemon's code.

use crate::common::{default_objective, median_f64, mix, Phase, Task};
use crate::layers::Extras;
use crate::trace::{Layer, Tracer};
use crate::{out_dir, wrap, Result, Workload};
use archgym_agents::factory::{build_agent, race_roster, AgentKind};
use archgym_core::agent::{Agent, HyperMap};
use archgym_core::env::Environment;
use archgym_core::jobs::{JobKind, JobSpec, JobState};
use archgym_core::race::{Race, RaceLane};
use archgym_core::search::{RunConfig, SearchLoop};
use archgym_core::storeio::{real_io, Durability, StoreIo};
use archgymd::spec::make_env;
use archgymd::{Client, DaemonConfig, ErrorCode, Request, Response, Server};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Samples per search job: about 10 ms of `dram/stream` simulation.
pub const SEARCH_BUDGET: u64 = 200;
/// Samples per race job.
pub const RACE_BUDGET: u64 = 300;
/// Race roster: this many configurations per agent family.
pub const RACE_CAP: usize = 1;
/// Race roster families. Two lanes keep a race's events few; with four
/// (`aco`, `ga`, `rl`, `sa`) a race's median latency was 1.5x a search
/// job's, and its p90 125 ms against 70 ms with two.
const RACE_AGENTS: [&str; 2] = ["ga", "sa"];
/// The daemon's default race elimination factor.
const RACE_ETA: usize = 3;
/// Proposals per batch in every job. Each batch ends with a journal
/// snapshot (tmp + rename) and a watch event; with the agents' own small
/// batches those file and socket round trips were most of a job's wall
/// time, and their latency follows the shared host's disk and scheduler.
pub const BATCH: usize = 64;
/// Job groups per pass; each submits 8 search jobs and 1 race job.
const GROUPS_PER_PASS: usize = 48;
/// One spec per family with its reward target.
pub const SPECS: [(&str, f64); 4] = [
    ("dram/stream", 800.0),
    ("timeloop/resnet50", 43.5),
    ("farsi/edge-detection", -0.2),
    ("maestro/resnet18/stage2", 8.55),
];
/// Specs that take turns, group by group, to get a race job as well.
const RACE_SPECS: [usize; 2] = [0, 3];

static STATE_DIRS: AtomicUsize = AtomicUsize::new(0);

/// A daemon serving on its own thread until [`Daemon::stop`].
struct Daemon {
    addr: String,
    dir: PathBuf,
    thread: Option<JoinHandle<archgym_core::error::Result<()>>>,
}

impl Daemon {
    /// Bind a daemon on a fresh state dir with the given store seam.
    fn start(io: Arc<dyn StoreIo>) -> Result<Daemon> {
        let n = STATE_DIRS.fetch_add(1, Ordering::SeqCst);
        let dir = out_dir()?.join(format!("state-{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        // No fsync: on a shared host its latency follows the neighbours'
        // disk traffic, not the daemon, and made runs of the same code
        // differ by up to 80%. Store and journal writes still reach the page cache
        // through tmp+rename and appends.
        let mut config = DaemonConfig::new("127.0.0.1:0", &dir);
        config.durability = Durability::None;
        let server = Server::bind_with_io(config, io)?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon {
            addr,
            dir,
            thread: Some(thread),
        })
    }

    fn stop(&mut self) -> Result<()> {
        if let Some(thread) = self.thread.take() {
            let mut client = Client::connect(&self.addr)?;
            client.round_trip(&Request::Shutdown {
                drain: false,
                deadline_ms: 0,
            })?;
            thread
                .join()
                .map_err(|_| "daemon thread panicked")?
                .map_err(|e| format!("daemon failed: {e}"))?;
            std::fs::remove_dir_all(&self.dir)?;
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(err) = self.stop() {
            eprintln!("perfbench: stopping daemon at {}: {err}", self.addr);
        }
    }
}

/// What a client saw of one job.
struct Seen {
    state: Option<JobState>,
    best: Option<f64>,
    samples: u64,
    events: u64,
    rejected: bool,
    submit_rtt_s: f64,
    first_event_s: Option<f64>,
}

/// Submit `spec` on a new connection and watch it to its terminal
/// status; the clock starts when the submit frame is sent.
fn submit_and_watch(
    addr: &str,
    tenant: &str,
    spec: &JobSpec,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Seen> {
    let mut client = Client::connect(addr)?;
    let start = Instant::now();
    let start_ns = tracer.map(|t| t.now());
    let mark = |layer: Layer| {
        if let (Some(t), Some(s)) = (tracer, start_ns) {
            t.record(layer, 1, s, t.now());
        }
    };
    client.send(&Request::Submit {
        tenant: tenant.to_owned(),
        name: None,
        spec: spec.clone(),
    })?;
    let mut seen = Seen {
        state: None,
        best: None,
        samples: 0,
        events: 0,
        rejected: false,
        submit_rtt_s: 0.0,
        first_event_s: None,
    };
    let job = match client.recv()? {
        Some(Response::Accepted { job, .. }) => job,
        Some(Response::Rejected { .. }) => {
            seen.rejected = true;
            return Ok(seen);
        }
        other => return Err(format!("submit answered with {other:?}").into()),
    };
    seen.submit_rtt_s = start.elapsed().as_secs_f64();
    mark(Layer::Submit);
    client.send(&Request::Watch { job })?;
    loop {
        match client.recv()? {
            Some(Response::Event { .. }) => {
                if seen.first_event_s.is_none() {
                    seen.first_event_s = Some(start.elapsed().as_secs_f64());
                    mark(Layer::FirstEvent);
                }
                seen.events += 1;
            }
            Some(Response::Done {
                state,
                best_reward,
                samples,
                ..
            }) => {
                seen.state = Some(state);
                seen.best = best_reward;
                seen.samples = samples;
                return Ok(seen);
            }
            Some(_) => {}
            None => return Err(format!("daemon closed the watch of {job}").into()),
        }
    }
}

/// The job a pass item submits.
fn job_spec(spec: usize, kind: Option<AgentKind>, seed: u64) -> JobSpec {
    let (env, _) = SPECS[spec];
    let mut job = match kind {
        Some(kind) => JobSpec::search(env, kind.name(), SEARCH_BUDGET, seed),
        None => {
            let mut job = JobSpec::race(env, RACE_BUDGET, seed);
            job.race_cap = RACE_CAP;
            job.agents = RACE_AGENTS.iter().map(|a| a.to_string()).collect();
            job
        }
    };
    job.objective = default_objective(env);
    job.batch = BATCH;
    job
}

/// The job run in-process through the library: `(best, samples,
/// samples to reach target)`.
fn in_process(job: &JobSpec, target: f64) -> archgym_core::error::Result<(f64, u64, Option<u64>)> {
    let env = make_env(&job.env, Some(&job.objective))?;
    let jobs = job.eval_jobs.max(1);
    Ok(match job.kind {
        JobKind::Race => {
            let mut lanes = Vec::new();
            let roster = race_roster(job.race_cap)
                .into_iter()
                .filter(|e| job.agents.iter().any(|a| a == e.kind.name()));
            for entry in roster {
                let agent = build_agent(entry.kind, env.space(), &entry.hyper, job.seed)?;
                lanes.push(RaceLane::new(entry.name, agent as Box<dyn Agent + Send>));
            }
            let r = Race::new(job.budget, RACE_ETA)
                .batch(job.batch)
                .jobs(jobs)
                .run(lanes, env)?;
            (r.best_reward, r.samples_used, r.samples_to_reach(target))
        }
        _ => {
            let kind = AgentKind::parse(&job.agent)?;
            let mut agent = build_agent(kind, env.space(), &HyperMap::new(), job.seed)?;
            let r = SearchLoop::new(
                RunConfig::with_budget(job.budget)
                    .batch(job.batch)
                    .jobs(jobs),
            )
            .run_pooled(&mut agent, env);
            (r.best_reward, r.samples_used, r.samples_to_reach(target))
        }
    })
}

#[derive(Default)]
struct ClientStats {
    submit_rtt_s: Vec<f64>,
    first_event_s: Vec<f64>,
    events: u64,
    rejections: u64,
}

pub struct Service {
    jobs: Vec<(JobSpec, f64)>,
    daemon: Daemon,
    default_objective_rejects: u64,
    stats: Mutex<ClientStats>,
}

impl Service {
    /// Bind the daemon, probe the default-objective defect, and warm up
    /// with one short job.
    pub fn new(seed: u64) -> Result<Service> {
        let mut jobs = Vec::new();
        // Every job gets a seed of its own, so that the quality metrics
        // rest on independent searches.
        let job_seed = |n: usize| mix(seed.wrapping_mul(1 << 16).wrapping_add(n as u64));
        for s in 0..GROUPS_PER_PASS {
            for (spec, &(_, target)) in SPECS.iter().enumerate() {
                for kind in [AgentKind::Ga, AgentKind::Sa] {
                    jobs.push((job_spec(spec, Some(kind), job_seed(jobs.len())), target));
                }
                if RACE_SPECS[s % RACE_SPECS.len()] == spec {
                    jobs.push((job_spec(spec, None, job_seed(jobs.len())), target));
                }
            }
        }
        let daemon = Daemon::start(real_io())?;
        let default_objective_rejects = probe_default_objectives(&daemon.addr)?;
        let mut warm = job_spec(0, Some(AgentKind::Ga), 0);
        warm.budget = 64;
        submit_and_watch(&daemon.addr, "warmup", &warm, None)?;
        Ok(Service {
            jobs,
            daemon,
            default_objective_rejects,
            stats: Mutex::new(ClientStats::default()),
        })
    }
}

/// Submit one job per family without an objective, as the CLI does
/// when `--objective` is left out, and count `bad-spec` rejections.
fn probe_default_objectives(addr: &str) -> Result<u64> {
    let mut client = Client::connect(addr)?;
    let mut rejects = 0;
    for (env, _) in SPECS {
        let spec = JobSpec::search(env, "ga", 64, 0);
        match client.round_trip(&Request::Submit {
            tenant: "probe".into(),
            name: None,
            spec,
        })? {
            Response::Error {
                code: ErrorCode::BadSpec,
                ..
            } => rejects += 1,
            Response::Accepted { job, .. } => {
                // Accepted once the defect is fixed: cancel it, so that
                // the fix does not show up as set-up time.
                client.round_trip(&Request::Cancel { job })?;
            }
            other => return Err(format!("probe submit answered with {other:?}").into()),
        }
    }
    Ok(rejects)
}

impl Workload for Service {
    fn pass_len(&self) -> usize {
        self.jobs.len()
    }

    fn clients(&self) -> usize {
        2
    }

    fn begin(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<()> {
        *self.stats.lock().expect("stats poisoned") = ClientStats::default();
        if let Some(t) = tracer {
            // The traced phase gets its own daemon, with the store seam
            // wrapped, on a fresh state dir.
            let io: Arc<dyn StoreIo> = Arc::new(wrap::TimedIo::new(real_io(), Arc::clone(t)));
            self.daemon = Daemon::start(io)?;
        }
        Ok(())
    }

    fn task(&self, index: usize, client: usize, tracer: Option<&Arc<Tracer>>) -> Task {
        let (job, target) = &self.jobs[index % self.jobs.len()];
        let start_ns = tracer.map(|t| t.now());
        let start = Instant::now();
        let outcome = submit_and_watch(&self.daemon.addr, &format!("client{client}"), job, tracer);
        let latency_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(s)) = (tracer, start_ns) {
            t.record(Layer::Task, 1, s, t.now());
        }
        let mut task = Task {
            index,
            spec: format!("{} {}", job.env, job.objective),
            agent: match job.kind {
                JobKind::Race => format!("race[cap={}]", job.race_cap),
                _ => format!("search[{}]", job.agent),
            },
            seed: job.seed,
            best: f64::NAN,
            samples: 0,
            budget: job.budget,
            latency_s,
            end_s: 0.0,
            failed: true,
            hit: false,
            evals_to_target: job.budget + 1,
        };
        match outcome {
            Ok(seen) => {
                let mut stats = self.stats.lock().expect("stats poisoned");
                stats.events += seen.events;
                if seen.rejected {
                    stats.rejections += 1;
                } else {
                    stats.submit_rtt_s.push(seen.submit_rtt_s);
                }
                stats.first_event_s.extend(seen.first_event_s);
                task.failed = seen.state != Some(JobState::Done);
                task.best = seen.best.unwrap_or(f64::NAN);
                task.samples = seen.samples;
                task.hit = task.best >= *target;
            }
            Err(err) => eprintln!("perfbench: job {index}: {err}"),
        }
        task
    }

    /// Re-run the pass's job specs in-process: each best reward must be
    /// bit-equal to the daemon's. Evals-to-target come from these runs,
    /// since the daemon does not stream the reward history.
    fn verify(&mut self, phase: &mut Phase) -> Result<bool> {
        let mut ok = true;
        let mut evals = Vec::with_capacity(self.jobs.len());
        for (i, (job, target)) in self.jobs.iter().enumerate() {
            let (best, samples, reach) = in_process(job, *target)?;
            let daemon = &phase.tasks[i];
            if best.to_bits() != daemon.best.to_bits() || samples != daemon.samples {
                println!(
                    "FAIL service job {i} ({} {}): daemon best {} / {} samples, in-process {best} / {samples}",
                    daemon.spec, daemon.agent, daemon.best, daemon.samples
                );
                ok = false;
            }
            evals.push(reach.unwrap_or(job.budget + 1));
        }
        for task in &mut phase.tasks {
            task.evals_to_target = evals[task.index % evals.len()];
        }
        Ok(ok)
    }

    fn per_layer(&self, x: &mut Extras, phase: &Phase) {
        let stats = self.stats.lock().expect("stats poisoned");
        let ms = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                median_f64(v) * 1e3
            }
        };
        let kind_p50 = |prefix: &str| {
            let v: Vec<f64> = phase
                .tasks
                .iter()
                .filter(|t| t.agent.starts_with(prefix))
                .map(|t| t.latency_s)
                .collect();
            ms(&v)
        };
        x.service.submit_rtt_ms = ms(&stats.submit_rtt_s);
        x.service.first_event_ms = ms(&stats.first_event_s);
        x.service.events = stats.events;
        x.service.rejections = stats.rejections;
        x.service.search_task_p50_ms = kind_p50("search");
        x.service.race_task_p50_ms = kind_p50("race");
        x.service.default_objective_rejects = self.default_objective_rejects;
    }

    fn finish(&mut self) -> Result<()> {
        self.daemon.stop()
    }
}
