//! The CLI subcommands. Each returns its report as a `String` so the
//! logic is unit-testable; the binary just prints it.

use crate::args::Args;
use crate::spec::{known_envs, make_env};
use archgym_agents::factory::{default_grid, AgentKind};
use archgym_core::cache::EvalCache;
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::error::{ArchGymError, Result};
use archgym_core::fault::{FaultPlan, FaultStats};
use archgym_core::jobs::{JobKind, JobSpec};
use archgym_core::race::lane_journal;
use archgym_core::screen::ScreenPolicy;
use archgym_core::search::{RetryPolicy, RunResult};
use archgym_core::seeded_rng;
use archgym_core::space::Action;
use archgym_core::stats::summarize;
use archgym_core::telemetry::Recorder;
use archgym_core::trajectory::Dataset;
use archgymd::job::{self, Hooks, Journal, Outcome};
use std::fmt::Write as _;
use std::fs::File;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Dispatch a parsed command line.
///
/// # Errors
///
/// Returns [`ArchGymError::InvalidConfig`] for unknown subcommands and
/// propagates each subcommand's errors.
pub fn run(args: &Args) -> Result<String> {
    match args.command() {
        "list" => Ok(list()),
        "search" => search(args),
        "compare" => compare(args),
        "sweep" => sweep(args),
        "halving" => halving(args),
        "trace" => trace(args),
        "proxy" => proxy(args),
        "serve" => serve(args),
        "submit" => submit(args),
        "status" => status(args),
        "watch" => watch(args),
        "cancel" => cancel(args),
        "ping" => ping(args),
        "shutdown" => shutdown(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(ArchGymError::InvalidConfig(format!(
            "unknown subcommand `{other}`\n\n{}",
            usage()
        ))),
    }
}

/// The help text.
pub fn usage() -> String {
    "archgym — ML-assisted architecture design space exploration

USAGE:
  archgym list
  archgym search --env <spec> --agent <aco|bo|ga|rl|rw|sa> [--objective <spec>]
                 [--budget N] [--seed N] [--batch N] [--jobs N] [--dataset out.jsonl] [--csv out.csv]
                 [--journal run.jsonl] [--resume true] [--retries N] [--backoff-ms N]
                 [--fault-seed N] [--fault-transient P] [--fault-latched P]
                 [--fault-corrupt P] [--fault-stall P]
                 [--proxy true] [--proxy-topk N] [--proxy-explore F] [--proxy-oversample N]
                 [--proxy-warmup N] [--proxy-refit N] [--proxy-revalidate N]
                 [--metrics out.json] [--trace out.jsonl] [--target R]
  archgym search --auto true --env <spec> [--objective <spec>] [--budget N] [--seed N]
                 [--batch N] [--jobs N] [--eta N] [--roster-cap N] [--ensemble true]
                 [--agents aco,ga,...] [--target R] [--journal PREFIX] [--resume true]
                 [--retries N] [--backoff-ms N] [--proxy true ...]
                 [--metrics out.json] [--trace out.jsonl]
  archgym compare --env <spec> [--agents aco,ga,sa,...] [--objective <spec>]
                 [--budget N] [--seed N] [--batch N] [--jobs N] [--retries N] [--backoff-ms N]
                 [--proxy true] [--proxy-topk N] [--proxy-explore F]
                 [--metrics out.json] [--trace out.jsonl]
  archgym sweep  --env <spec> --agent <kind> [--objective <spec>] [--budget N] [--seeds N] [--grid N] [--jobs N] [--cache true]
                 [--metrics out.json] [--trace out.jsonl]
  archgym halving --env <spec> --agent <kind> [--objective <spec>] [--budget N] [--eta N] [--jobs N] [--cache true]
  archgym trace  --workload <stream|random|cloud-1|cloud-2> [--length N] [--seed N] [--out file] [--stats true]
  archgym proxy  --dataset in.jsonl --metric N [--search N] [--seed N]
  archgym serve  [--addr HOST:PORT] [--state-dir DIR] [--workers N] [--port-file PATH]
                 [--max-running N] [--max-queued N] [--queue-capacity N] [--retry-after-ms MS]
                 [--durability none|batch|always] [--max-connections N] [--stall-after-ms MS]
  archgym submit --addr HOST:PORT --env <spec> [--kind search|sweep|compare|race] [--tenant NAME]
                 [--name JOB] [--agent <kind>] [--agents a,b,...] [--objective <spec>]
                 [--budget N] [--seed N] [--batch N] [--jobs N] [--seeds N] [--deadline-ms MS]
                 [--race-eta N] [--race-cap N] [--race-ensemble true]
                 [--proxy true] [--proxy-topk N] [--proxy-explore F]
  archgym status --addr HOST:PORT --job job-N
  archgym watch  --addr HOST:PORT --job job-N [--reconnect-attempts N] [--seed N]
  archgym cancel --addr HOST:PORT --job job-N
  archgym ping   --addr HOST:PORT
  archgym shutdown --addr HOST:PORT [--drain true] [--drain-deadline-ms MS]

For `sweep`/`halving`, `--jobs N` fans independent runs over N worker
threads (default: all cores; 1 = serial). For `search`/`compare`,
`--jobs N` fans each proposed batch across N environment replicas
inside a single run, and `--batch 0` lets the agent pick its natural
batch (GA population, ACO ant cohort). Results are deterministic and
bit-identical regardless of thread count.
`--cache true` memoizes design-point evaluations in a shared in-memory
cache, so configurations revisited by any run cost a hash lookup instead
of a simulation; results are identical with or without it.

TELEMETRY:
`--metrics FILE` enables the run recorder and writes a JSON snapshot of
every counter (samples, retries, cache traffic, DRAM row outcomes) and
per-phase latency histogram (p50/p95/p99) to FILE; the same data is
printed as a table. For `compare`, FILE holds per-agent stable counters
that are byte-identical across reruns and `--jobs` settings. `--trace
FILE` streams one JSON object per settled batch to FILE as the run
executes. Without either flag the recorder is a no-op and costs nothing.

RACING:
`search --auto true` skips picking an agent: it launches the full
agent × hyperparameter roster (up to `--roster-cap N` tickets per
family, default 4, from the lottery grids of aco|bo|ga|rl|sa|ppo) as
concurrent lanes on one `--budget` and eliminates the weakest
`1 - 1/eta` of lanes at successive-halving rung boundaries (`--eta N`,
default 3) until one survives; freed `--jobs` workers are reallocated
to the survivors. `--ensemble true` keeps the final rung's survivors
and races them as a reward-weighted voting committee instead of
eliminating down to one. `--agents a,b,...` restricts the roster to
those families; `--target R` reports how many true evaluations the
race needed to first reach reward R. With `--journal PREFIX` every
lane's every rung is write-ahead journaled (`PREFIX-lNNN-rNN.jsonl`);
rerunning with `--resume true` after a crash replays the finished
prefix and continues, bit-identical to an uninterrupted race. Races
compose with `--proxy` (each lane gets its own screener) and are
deterministic per seed regardless of `--jobs`.

PROXY SCREENING:
`--proxy true` puts a random-forest surrogate in the loop: after
`--proxy-warmup N` true samples (default 64) the proxy trains on the
run's own results, each proposal batch is over-sampled by
`--proxy-oversample N` (default 4), and only the `--proxy-topk N`
(default 4) candidates with the best predicted reward — plus an
exploration slice of `ceil(--proxy-explore F × topk)` high-uncertainty
picks (default 0.25) — are admitted to the true simulator. The model
refits every `--proxy-refit N` new samples (default 32); every
`--proxy-revalidate N`-th screened batch (default 8) bypasses the
screen to measure drift, which triggers refits and, if persistent,
disables screening. Screened runs are deterministic per seed and
journal/resume-safe; runs without `--proxy` are bit-identical to
builds without the feature.

FAILURE SEMANTICS:
Failed evaluations are retried up to `--retries N` times (default 2)
with exponential backoff starting at `--backoff-ms N` (default 0, i.e.
immediate); a design that keeps failing degrades to an infeasible
penalty instead of aborting the run. `search --journal run.jsonl`
write-ahead-logs every proposed batch and settled result; after a crash
or SIGKILL, rerunning the same command with `--resume true` replays the
journal and continues from the last completed evaluation, bit-identical
to an uninterrupted run. The `--fault-*` knobs inject seeded,
deterministic faults (transient errors, latched crashes needing reset,
NaN corruption, timeouts) for testing resilience.

ENVIRONMENT SPECS:
  dram/<trace>            objectives: power:<W> latency:<ns> joint:<ns>,<W>
  timeloop/<model>        objectives: latency:<ms> energy:<mJ> area:<mm2> joint:<ms>,<mJ>
  farsi/<workload>        objectives: budgets:<ms>,<mW>,<mm2> (default: built-in budgets)
  maestro/<model>/<layer> objectives: runtime energy
"
    .to_owned()
}

fn list() -> String {
    let mut out = String::from("environments:\n");
    for spec in known_envs() {
        let _ = writeln!(out, "  {spec}");
    }
    out.push_str("\nagents:\n");
    for kind in AgentKind::EXTENDED {
        let _ = writeln!(
            out,
            "  {:<4} (default grid: {} assignments)",
            kind.name(),
            default_grid(kind).len()
        );
    }
    out
}

/// A clonable trace sink: several recorders (one per `compare` roster
/// entry) append whole lines to the same `--trace` file.
#[derive(Clone)]
struct SharedSink(Arc<Mutex<File>>);

impl SharedSink {
    fn create(path: &str) -> Result<Self> {
        Ok(SharedSink(Arc::new(Mutex::new(File::create(path)?))))
    }
}

impl std::io::Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("trace sink poisoned").write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.lock().expect("trace sink poisoned").flush()
    }
}

/// The `--metrics`/`--trace` observability knobs: a factory of live
/// recorders when either flag is present, each with the one JSONL
/// event sink already attached, and of `None` — i.e. free no-op
/// telemetry — otherwise.
fn recorders(args: &Args) -> Result<impl Fn() -> Option<Recorder>> {
    let sink = args.get("trace").map(SharedSink::create).transpose()?;
    let observe = args.get("metrics").is_some() || sink.is_some();
    Ok(move || {
        observe.then(|| {
            let rec = Recorder::new();
            if let Some(sink) = &sink {
                rec.set_trace(sink.clone());
            }
            rec
        })
    })
}

/// Write the recorder's snapshot to `--metrics FILE` (canonical JSON, or
/// only the counters that are byte-identical across reruns and `--jobs`
/// settings when `stable`) and append the human-readable table plus file
/// pointers to the report.
fn write_metrics(out: &mut String, args: &Args, rec: &Recorder, stable: bool) -> Result<()> {
    if let Some(report) = rec.report() {
        if let Some(path) = args.get("metrics") {
            let body = if stable {
                report.stable_json()
            } else {
                report.encode()
            };
            std::fs::write(path, body + "\n")?;
            let _ = writeln!(out, "telemetry:\n{}", report.human_table());
            let _ = writeln!(out, "metrics: {path}");
        }
    }
    if let Some(path) = args.get("trace") {
        let _ = writeln!(out, "trace: {path}");
    }
    Ok(())
}

/// The `--retries`/`--backoff-ms` knobs shared by `search` and `compare`.
fn retry_policy(args: &Args) -> Result<RetryPolicy> {
    Ok(RetryPolicy::new(args.u64_or("retries", 2)? as u32)
        .backoff_ms(args.u64_or("backoff-ms", 0)?))
}

/// The `--fault-*` injection knobs: `None` when every rate is zero.
fn fault_plan(args: &Args, default_seed: u64) -> Result<Option<FaultPlan>> {
    let rates = [
        ("fault-transient", args.f64_or("fault-transient", 0.0)?),
        ("fault-latched", args.f64_or("fault-latched", 0.0)?),
        ("fault-corrupt", args.f64_or("fault-corrupt", 0.0)?),
        ("fault-stall", args.f64_or("fault-stall", 0.0)?),
    ];
    for (name, rate) in rates {
        if !(0.0..=1.0).contains(&rate) {
            return Err(ArchGymError::InvalidConfig(format!(
                "`--{name}` expects a probability in [0, 1], got `{rate}`"
            )));
        }
    }
    if rates.iter().all(|&(_, rate)| rate == 0.0) {
        return Ok(None);
    }
    let seed = args.u64_or("fault-seed", default_seed)?;
    Ok(Some(
        FaultPlan::new(seed)
            .transient(rates[0].1)
            .latched(rates[1].1)
            .corrupt(rates[2].1)
            .stall(rates[3].1),
    ))
}

/// The `--proxy*` screening knobs: `Some(policy)` when `--proxy true`.
/// Knob flags without `--proxy true` are an error, not silently inert.
fn screen_policy(args: &Args) -> Result<Option<ScreenPolicy>> {
    let knobs = [
        "proxy-topk",
        "proxy-explore",
        "proxy-oversample",
        "proxy-warmup",
        "proxy-refit",
        "proxy-revalidate",
    ];
    if !args.bool_or("proxy", false)? {
        if let Some(name) = knobs.iter().find(|name| args.get(name).is_some()) {
            return Err(ArchGymError::InvalidConfig(format!(
                "`--{name}` needs `--proxy true`"
            )));
        }
        return Ok(None);
    }
    let defaults = ScreenPolicy::default();
    let policy = ScreenPolicy::default()
        .top_k(args.u64_or("proxy-topk", defaults.top_k as u64)? as usize)
        .explore_frac(args.f64_or("proxy-explore", defaults.explore_frac)?)
        .oversample(args.u64_or("proxy-oversample", defaults.oversample as u64)? as usize)
        .warmup(args.u64_or("proxy-warmup", defaults.warmup)?)
        .refit_every(args.u64_or("proxy-refit", defaults.refit_every)?)
        .revalidate_every(args.u64_or("proxy-revalidate", defaults.revalidate_every)?);
    policy.validate().map_err(ArchGymError::InvalidConfig)?;
    Ok(Some(policy))
}

/// Append the proxy layer's accounting to a report when it screened.
fn write_proxy_line(out: &mut String, result: &RunResult) {
    if result.proxy_screened > 0 {
        let _ = writeln!(
            out,
            "proxy: {} candidates screened | {} admitted to simulation | {} model fits",
            result.proxy_screened, result.proxy_admitted, result.proxy_refits
        );
    }
}

/// The `--journal`/`--resume` knobs: a search's journal file, or with
/// `lanes` a race's prefix, whose first lane file is `{prefix}-l000-r00.jsonl`.
/// Refuses to silently extend an existing journal unless resuming was
/// requested explicitly.
fn journal_path(args: &Args, lanes: bool) -> Result<Option<&Path>> {
    let resume = args.bool_or("resume", false)?;
    match args.get("journal").map(Path::new) {
        Some(path) => {
            let first = match lanes {
                true => lane_journal(path, 0, 0),
                false => path.to_owned(),
            };
            if !resume && first.exists() {
                return Err(ArchGymError::InvalidConfig(format!(
                    "journal `{}` already exists; pass `--resume true` to \
                     continue it or remove its files to start fresh",
                    first.display()
                )));
            }
            Ok(Some(path))
        }
        None if resume => Err(ArchGymError::InvalidConfig(
            "`--resume true` needs `--journal <path>`".into(),
        )),
        None => Ok(None),
    }
}

/// Append the run's fault-recovery counters to a report, if any fired.
fn write_fault_lines(out: &mut String, result: &RunResult, injected: Option<&FaultStats>) {
    if result.eval_failures > 0 || result.eval_retries > 0 || result.degraded_samples > 0 {
        let _ = writeln!(
            out,
            "fault recovery: {} failures observed | {} retries | {} samples degraded",
            result.eval_failures, result.eval_retries, result.degraded_samples
        );
    }
    if let Some(stats) = injected {
        let _ = writeln!(
            out,
            "injected faults: {} transient | {} latched | {} corrupt | {} stall | {} crashed rejections",
            stats.transient, stats.latched, stats.corrupt, stats.stall, stats.crashed_rejections
        );
    }
}

/// Parse the flags every job command reads into a spec of `kind`:
/// `--env`, `--objective`, `--agent`, `--agents`, `--budget`, `--seed`,
/// `--batch`, `--jobs` and the `--proxy*` knobs. The rest are the
/// command's defaults; an `agent` of `None` makes `--agent` required.
/// `search`, `compare`, `sweep` and `submit` all read these flags here.
fn job_spec(
    args: &Args,
    kind: JobKind,
    agent: Option<&str>,
    budget: u64,
    batch: u64,
    jobs: u64,
) -> Result<JobSpec> {
    let agent = match agent {
        None => args.require("agent")?,
        Some(default) => args.get("agent").unwrap_or(default),
    };
    let mut spec = JobSpec::search(
        args.require("env")?,
        agent,
        args.u64_or("budget", budget)?,
        args.u64_or("seed", 0)?,
    );
    spec.kind = kind;
    spec.objective = args.get("objective").unwrap_or_default().to_owned();
    spec.batch = args.u64_or("batch", batch)? as usize;
    spec.eval_jobs = args.u64_or("jobs", jobs)? as usize;
    if let Some(list) = args.get("agents") {
        spec.agents = list.split(',').map(|name| name.trim().to_owned()).collect();
    }
    spec.proxy = screen_policy(args)?;
    Ok(spec)
}

/// Append the best design of a search or race: its reward, observation
/// and decoded parameters.
fn write_best(
    out: &mut String,
    env: &dyn CloneEnvironment,
    (reward, observation, action): (f64, &[f64], &Action),
) -> Result<()> {
    let _ = writeln!(out, "best reward: {reward:.6}");
    let labels = env.observation_labels();
    for (label, value) in labels.iter().zip(observation) {
        let _ = writeln!(out, "  {label:<20} = {value:.6}");
    }
    let _ = writeln!(out, "best design:");
    for (name, value) in env.space().decode(action)? {
        let _ = writeln!(out, "  {name:<34} = {value}");
    }
    Ok(())
}

fn search(args: &Args) -> Result<String> {
    if args.bool_or("auto", false)? {
        return search_auto(args);
    }
    // Racing knobs without `--auto true` are an error, not silently inert
    // (mirrors the `--proxy` knob guard above).
    for name in ["eta", "roster-cap", "ensemble"] {
        if args.get(name).is_some() {
            return Err(ArchGymError::InvalidConfig(format!(
                "`--{name}` needs `--auto true`"
            )));
        }
    }
    let spec = job_spec(args, JobKind::Search, None, 1_000, 16, 1)?;
    let journal = journal_path(args, false)?;
    let telemetry = recorders(args)?();
    let hooks = Hooks {
        recorder: &|| telemetry.clone(),
        journal: journal.map_or(Journal::None, Journal::Path),
        retry: retry_policy(args)?,
        fault: fault_plan(args, spec.seed)?,
        record: true,
        ..Hooks::default()
    };
    let (env, Outcome::Runs(runs)) = job::run(&spec, &hooks)? else {
        unreachable!("search jobs return their run")
    };
    let (result, injected) = (&runs[0].result, &runs[0].injected);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {}: {} samples in {:.2}s",
        result.agent, result.env, result.samples_used, result.wall_seconds
    );
    let best = (
        result.best_reward,
        &result.best_observation[..],
        &result.best_action,
    );
    write_best(&mut out, &*env, best)?;
    write_target_line(&mut out, args, |t| result.samples_to_reach(t))?;
    write_fault_lines(&mut out, result, injected.as_ref());
    write_proxy_line(&mut out, result);
    if let Some(path) = journal {
        let _ = writeln!(out, "journal: {}", path.display());
    }
    if let Some(path) = args.get("dataset") {
        result.dataset.write_jsonl(File::create(path)?)?;
        let _ = writeln!(out, "wrote {} transitions to {path}", result.dataset.len());
    }
    if let Some(path) = args.get("csv") {
        result.dataset.write_csv(File::create(path)?)?;
        let _ = writeln!(out, "wrote {} transitions to {path}", result.dataset.len());
    }
    if let Some(rec) = &telemetry {
        write_metrics(&mut out, args, rec, false)?;
    }
    Ok(out)
}

/// The `--target R` knob: report how many true evaluations a run needed
/// to first reach reward `R` (the wall-clock-to-target metric of the
/// racing experiments), or that it never got there.
fn write_target_line(
    out: &mut String,
    args: &Args,
    samples_to_reach: impl Fn(f64) -> Option<u64>,
) -> Result<()> {
    if args.get("target").is_none() {
        return Ok(());
    }
    let threshold = args.f64_or("target", 0.0)?;
    match samples_to_reach(threshold) {
        Some(n) => {
            let _ = writeln!(out, "samples to target {threshold}: {n}");
        }
        None => {
            let _ = writeln!(out, "target {threshold} not reached");
        }
    }
    Ok(())
}

/// `search --auto true`: race the full agent × hyperparameter roster
/// under one budget with successive-halving elimination
/// ([`archgym_core::race`]) instead of committing to a single `--agent`.
fn search_auto(args: &Args) -> Result<String> {
    if args.get("agent").is_some() {
        return Err(ArchGymError::InvalidConfig(
            "`--agent` conflicts with `--auto true` (the race runs the full \
             roster; restrict families with `--agents aco,ga,...`)"
                .into(),
        ));
    }
    let mut spec = job_spec(args, JobKind::Race, Some(""), 1_000, 16, 1)?;
    spec.race_eta = args.u64_or("eta", 0)? as usize;
    spec.race_cap = args.u64_or("roster-cap", 0)? as usize;
    spec.race_ensemble = args.bool_or("ensemble", false)?;
    let telemetry = recorders(args)?();

    // `--journal` names a *prefix* here: the race writes one journal per
    // lane per rung (`{prefix}-lNNN-rNN.jsonl`).
    let journal_prefix = journal_path(args, true)?;
    let hooks = Hooks {
        recorder: &|| telemetry.clone(),
        journal: journal_prefix.map_or(Journal::None, Journal::Path),
        retry: retry_policy(args)?,
        ..Hooks::default()
    };
    let (env, Outcome::Race(result)) = job::run(&spec, &hooks)? else {
        unreachable!("race jobs return their race")
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "race on {}: {} lanes (eta {}), {} samples in {:.2}s",
        result.env,
        result.lanes.len(),
        result.eta,
        result.samples_used,
        result.wall_seconds
    );
    for rung in &result.rungs {
        let _ = writeln!(
            out,
            "  rung {}: {} lanes × {} samples/lane ({} workers/lane), eliminated {}",
            rung.rung,
            rung.lanes,
            rung.slice,
            rung.workers_per_lane,
            rung.eliminated.len()
        );
    }
    if let Some(ensemble) = &result.ensemble {
        let members: Vec<&str> = ensemble
            .members
            .iter()
            .map(|&lane| result.lanes[lane].name.as_str())
            .collect();
        let _ = writeln!(
            out,
            "  ensemble rung: {} voting on {} samples (best {:.6})",
            members.join("+"),
            ensemble.samples_used,
            ensemble.best_reward
        );
    }
    let _ = writeln!(out, "winner: {}", result.winner);
    let best = (
        result.best_reward,
        &result.best_observation[..],
        &result.best_action,
    );
    write_best(&mut out, &*env, best)?;
    write_target_line(&mut out, args, |t| result.samples_to_reach(t))?;
    if let Some(prefix) = journal_prefix {
        let _ = writeln!(out, "journal prefix: {}", prefix.display());
    }
    if let Some(rec) = &telemetry {
        // Stable counters, same discipline as `compare`.
        write_metrics(&mut out, args, rec, true)?;
    }
    Ok(out)
}

/// Race several agents on one environment under a shared sample budget
/// and report a leaderboard (paper §6: no single agent dominates).
fn compare(args: &Args) -> Result<String> {
    let spec = job_spec(args, JobKind::Compare, Some(""), 500, 0, 1)?;
    // Each roster entry gets its own recorder so the metrics file breaks
    // counters down per agent; the trace sink is shared.
    let hooks = Hooks {
        recorder: &recorders(args)?,
        retry: retry_policy(args)?,
        ..Hooks::default()
    };
    let (env, Outcome::Runs(mut runs)) = job::run(&spec, &hooks)? else {
        unreachable!("compare jobs return their runs")
    };
    runs.sort_by(|a, b| {
        b.result
            .best_reward
            .partial_cmp(&a.result.best_reward)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let batch_label = match spec.batch {
        0 => "auto".to_owned(),
        batch => batch.to_string(),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} agents on {} ({} samples each, batch {batch_label}, jobs {}):",
        runs.len(),
        env.name(),
        spec.budget,
        spec.eval_jobs,
    );
    for (rank, run) in runs.iter().enumerate() {
        let (name, result) = (&run.result.agent, &run.result);
        let mut recovery = String::new();
        if result.eval_failures > 0 || result.degraded_samples > 0 {
            recovery = format!(
                " | {} failures / {} retries / {} degraded",
                result.eval_failures, result.eval_retries, result.degraded_samples
            );
        }
        if result.proxy_screened > 0 {
            let _ = write!(
                recovery,
                " | proxy {}→{}",
                result.proxy_screened, result.proxy_admitted
            );
        }
        let _ = writeln!(
            out,
            "  {:>2}. {name:<4} best {:.6} | {:>6} samples | {:.2}s{recovery}",
            rank + 1,
            result.best_reward,
            result.samples_used,
            result.wall_seconds
        );
    }
    if let Some(path) = args.get("metrics") {
        // Per-agent *stable* counters only (no timings, no job-dependent
        // cache traffic), keyed in roster-name order: the file is
        // byte-identical across reruns and `--jobs` settings.
        let mut reports: Vec<_> = runs
            .iter()
            .filter_map(|run| Some((&run.result.agent, run.telemetry.as_ref()?.report()?)))
            .collect();
        reports.sort_by(|a, b| a.0.cmp(b.0));
        let mut body = String::from("{\"agents\":{");
        for (i, (name, report)) in reports.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            archgym_core::codec::push_json_str(&mut body, name);
            body.push(':');
            body.push_str(&report.stable_json());
        }
        body.push_str("}}\n");
        std::fs::write(path, body)?;
        let _ = writeln!(out, "metrics: {path}");
    }
    if let Some(path) = args.get("trace") {
        let _ = writeln!(out, "trace: {path}");
    }
    Ok(out)
}

fn sweep(args: &Args) -> Result<String> {
    let mut spec = job_spec(args, JobKind::Sweep, None, 500, 0, 0)?;
    spec.sweep_seeds = args.u64_or("seeds", 2)?;
    let telemetry = recorders(args)?();
    let cache = args
        .bool_or("cache", false)?
        .then(|| Arc::new(EvalCache::new()));
    let hooks = Hooks {
        recorder: &|| telemetry.clone(),
        cache: cache.clone(),
        grid: args.u64_or("grid", job::GRID_CAP as u64)? as usize,
        ..Hooks::default()
    };
    let (_, Outcome::Sweep(result)) = job::run(&spec, &hooks)? else {
        unreachable!("sweep jobs return their sweep")
    };
    let rewards = result.best_rewards();
    let stats = summarize(&rewards);
    let winner = result.winner();
    let (best_reward, winning) = (winner.result.best_reward, winner.hyper.summary());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {}: {} runs × {} samples",
        result.agent,
        result.env,
        rewards.len(),
        spec.budget
    );
    let _ = writeln!(
        out,
        "best reward  min {:.4} | q1 {:.4} | median {:.4} | q3 {:.4} | max {:.4}",
        stats.min, stats.q1, stats.median, stats.q3, stats.max
    );
    let _ = writeln!(
        out,
        "IQR spread {:.1}% of max | winning ticket: {winning} (reward {best_reward:.4})",
        stats.relative_spread() * 100.0
    );
    if let Some(cache) = &cache {
        write_cache_line(&mut out, cache);
    }
    if let Some(rec) = &telemetry {
        write_metrics(&mut out, args, rec, false)?;
    }
    Ok(out)
}

/// Append a shared evaluation cache's traffic to a report.
fn write_cache_line(out: &mut String, cache: &EvalCache) {
    let s = cache.stats();
    let _ = writeln!(
        out,
        "cache: {} hits / {} lookups ({:.1}% hit rate, {} distinct designs), {} by twin sets",
        s.hits,
        s.hits + s.misses,
        s.hit_rate() * 100.0,
        s.entries,
        s.twin_hits
    );
}

fn halving(args: &Args) -> Result<String> {
    use archgym_core::sweep::SuccessiveHalving;
    let env_spec = args.require("env")?.to_owned();
    let objective = args.get("objective").map(str::to_owned);
    let kind = AgentKind::parse(args.require("agent")?)?;
    let initial_budget = args.u64_or("budget", 64)?;
    let eta = args.u64_or("eta", 2)? as usize;
    let seed = args.u64_or("seed", 0)?;
    let jobs = args.u64_or("jobs", 0)? as usize;
    let use_cache = args.bool_or("cache", false)?;

    // Build the environment once; the factory clones it per run, so a
    // bad spec fails here with an error instead of panicking mid-tune.
    let proto = make_env(&env_spec, objective.as_deref())?;
    let space = proto.space().clone();

    let mut tuner = SuccessiveHalving::new(initial_budget, eta)
        .seed(seed)
        .jobs(jobs);
    let cache = use_cache.then(|| Arc::new(EvalCache::new()));
    if let Some(cache) = &cache {
        tuner = tuner.cache(cache.clone());
    }
    let result = tuner.run(
        kind.name(),
        &default_grid(kind),
        || proto.clone(),
        job::agent_factory(kind, &space),
    )?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {}: successive halving over {} assignments",
        result.agent,
        result.env,
        result.rounds.first().map_or(0, |r| r.survivors.len())
    );
    for (i, round) in result.rounds.iter().enumerate() {
        let best = round.survivors.first().map(|(_, r)| *r).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  round {i}: {} candidates × {} samples, best reward {best:.4}",
            round.survivors.len(),
            round.budget
        );
    }
    let _ = writeln!(
        out,
        "winner: {} (reward {:.4})",
        result.winner_hyper.summary(),
        result.winner_result.best_reward
    );
    let _ = writeln!(
        out,
        "spent {} samples vs {} for a flat final-budget sweep ({:.1}× saving)",
        result.total_samples,
        result.flat_sweep_samples,
        result.savings_factor()
    );
    if let Some(cache) = &cache {
        write_cache_line(&mut out, cache);
    }
    Ok(out)
}

fn trace(args: &Args) -> Result<String> {
    use archgym_dram::{trace::generate, DramWorkload, TraceConfig};
    let name = args.require("workload")?;
    let workload = DramWorkload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| ArchGymError::InvalidConfig(format!("unknown workload `{name}`")))?;
    let config = TraceConfig {
        length: args.u64_or("length", 1_000)? as usize,
        ..TraceConfig::default()
    };
    let seed = args.u64_or("seed", 0)?;
    let trace = generate(workload, &config, &mut seeded_rng(seed));
    let mut out = String::new();
    if args.get("stats").is_some() {
        let stats = archgym_dram::characterize(&trace);
        let _ = writeln!(out, "trace `{name}` ({} requests):", stats.requests);
        let _ = writeln!(out, "  write fraction     {:.3}", stats.write_fraction);
        let _ = writeln!(out, "  mean gap (cycles)  {:.2}", stats.mean_gap_cycles);
        let _ = writeln!(out, "  row-hit potential  {:.3}", stats.row_hit_potential);
        let _ = writeln!(out, "  banks touched      {}", stats.banks_touched);
        let _ = writeln!(out, "  unique 64B lines   {}", stats.unique_lines);
        return Ok(out);
    }
    match args.get("out") {
        Some(path) => {
            archgym_dram::write_trace(&trace, File::create(path)?)?;
            let _ = writeln!(out, "wrote {} requests to {path}", trace.len());
        }
        None => {
            let mut bytes = Vec::new();
            archgym_dram::write_trace(&trace, &mut bytes)?;
            out.push_str(
                &String::from_utf8(bytes).map_err(|_| {
                    ArchGymError::Io("trace renderer produced non-UTF-8 text".into())
                })?,
            );
        }
    }
    Ok(out)
}

fn proxy(args: &Args) -> Result<String> {
    use archgym_proxy::pipeline::train_proxy;
    let path = args.require("dataset")?;
    let metric = args.u64_or("metric", 0)? as usize;
    let search_budget = args.u64_or("search", 6)? as usize;
    let seed = args.u64_or("seed", 0)?;
    let dataset = Dataset::read_jsonl(File::open(path)?)?;
    let mut rng = seeded_rng(seed);
    let (train, test) = dataset.split(0.8, &mut rng);
    let model = train_proxy(&train, metric, search_budget, seed)?;
    let report = model.report(&test)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trained on {} transitions, evaluated on {}",
        train.len(),
        test.len()
    );
    let _ = writeln!(
        out,
        "metric {metric}: RMSE {:.6} ({:.3}% of mean) | correlation {:.4}",
        report.rmse,
        report.relative_rmse * 100.0,
        report.correlation
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// archgymd daemon subcommands: `serve` hosts the service in-process;
// `submit`/`status`/`watch`/`cancel`/`ping` are thin protocol clients.

/// Map a daemon `error` frame (or an unexpected frame) to a CLI error.
fn unexpected(response: archgymd::protocol::Response) -> ArchGymError {
    use archgymd::protocol::Response;
    match response {
        Response::Error {
            code,
            message,
            retry_after_ms,
        } => {
            let hint = retry_after_ms
                .map(|ms| format!(" (retry after {ms}ms)"))
                .unwrap_or_default();
            ArchGymError::InvalidConfig(format!("daemon error [{}]: {message}{hint}", code.name()))
        }
        other => {
            ArchGymError::InvalidConfig(format!("unexpected daemon reply: {}", other.to_line()))
        }
    }
}

fn parse_job_id(args: &Args) -> Result<archgym_core::jobs::JobId> {
    let text = args.require("job")?;
    archgym_core::jobs::JobId::parse(text).ok_or_else(|| {
        ArchGymError::InvalidConfig(format!("`--job` expects `job-N`, got `{text}`"))
    })
}

/// Render a status frame the same way `search` reports a finished run,
/// so scripts can diff the two (`best reward: ...` lines match).
fn render_status(status: &archgymd::protocol::JobStatus) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({}): {} | {} / {} samples",
        status.job,
        status.tenant,
        status.state.name(),
        status.samples,
        status.budget
    );
    if let Some(best) = status.best_reward {
        let _ = writeln!(out, "best reward: {best:.6}");
    }
    if let Some(error) = &status.error {
        let _ = writeln!(out, "error: {error}");
    }
    out
}

/// Run the daemon in the foreground until a `shutdown` request.
fn serve(args: &Args) -> Result<String> {
    use archgymd::server::{DaemonConfig, Server};
    let mut config = DaemonConfig::new(
        args.get("addr").unwrap_or("127.0.0.1:7170"),
        args.get("state-dir").unwrap_or("archgymd-state"),
    );
    config.workers = args.u64_or("workers", 2)? as usize;
    config.quota.max_running_per_tenant =
        args.u64_or("max-running", config.quota.max_running_per_tenant as u64)? as usize;
    config.quota.max_queued_per_tenant =
        args.u64_or("max-queued", config.quota.max_queued_per_tenant as u64)? as usize;
    config.quota.queue_capacity =
        args.u64_or("queue-capacity", config.quota.queue_capacity as u64)? as usize;
    config.quota.retry_after_ms = args.u64_or("retry-after-ms", config.quota.retry_after_ms)?;
    if let Some(value) = args.get("durability") {
        config.durability = archgym_core::storeio::Durability::parse(value).ok_or_else(|| {
            ArchGymError::InvalidConfig(format!(
                "`--durability` expects none|batch|always, got `{value}`"
            ))
        })?;
    }
    config.max_connections =
        args.u64_or("max-connections", config.max_connections as u64)? as usize;
    config.stall_after_ms = args.u64_or("stall-after-ms", config.stall_after_ms)?;
    let server = Server::bind(config)?;
    let addr = server.local_addr();
    if let Some(path) = args.get("port-file") {
        // Write-then-rename so pollers never observe a half-written file.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, format!("{addr}\n"))?;
        std::fs::rename(&tmp, path)?;
    }
    // Print eagerly: the report string below is only shown on shutdown.
    println!("archgymd listening on {addr}");
    server.run()?;
    Ok(format!("archgymd on {addr} stopped\n"))
}

fn submit(args: &Args) -> Result<String> {
    use archgymd::protocol::{Request, Response};
    let addr = args.require("addr")?;
    let kind = JobKind::parse(args.get("kind").unwrap_or("search"))?;
    // A race has no single agent — the daemon builds the full roster.
    let agent = if kind == JobKind::Race { "" } else { "ga" };
    let mut spec = job_spec(args, kind, Some(agent), 1_000, 0, 1)?;
    spec.race_eta = args.u64_or("race-eta", 0)? as usize;
    spec.race_cap = args.u64_or("race-cap", 0)? as usize;
    spec.race_ensemble = args.bool_or("race-ensemble", false)?;
    spec.sweep_seeds = args.u64_or("seeds", spec.sweep_seeds)?;
    spec.deadline_ms = args.u64_or("deadline-ms", 0)?;
    let request = Request::Submit {
        tenant: args.get("tenant").unwrap_or("default").to_owned(),
        name: args.get("name").map(str::to_owned),
        spec,
    };
    match archgymd::client::request_one(addr, &request)? {
        Response::Accepted { job, position } => {
            Ok(format!("accepted {job} at queue position {position}\n"))
        }
        Response::Rejected {
            reason,
            retry_after_ms,
        } => Err(ArchGymError::InvalidConfig(format!(
            "rejected: {reason} (retry after {retry_after_ms}ms)"
        ))),
        other => Err(unexpected(other)),
    }
}

fn status(args: &Args) -> Result<String> {
    use archgymd::protocol::{Request, Response};
    let request = Request::Status {
        job: parse_job_id(args)?,
    };
    match archgymd::client::request_one(args.require("addr")?, &request)? {
        Response::Status(status) => Ok(render_status(&status)),
        other => Err(unexpected(other)),
    }
}

/// Stream a job's events to stdout as they arrive; returns once the job
/// reaches a terminal state. Rides out connection drops and daemon
/// restarts via [`archgymd::client::WatchStream`], which replays the
/// backlog on reconnect and deduplicates already-seen events.
fn watch(args: &Args) -> Result<String> {
    use archgymd::client::{ConnectOptions, WatchItem, WatchStream};
    let job = parse_job_id(args)?;
    let mut stream = WatchStream::open(
        args.require("addr")?,
        job,
        ConnectOptions::default(),
        args.u64_or("seed", 0)?,
        args.u64_or("reconnect-attempts", 8)? as u32,
    );
    loop {
        match stream.next_item()? {
            WatchItem::Event(data) => {
                println!("{}", data.encode());
            }
            WatchItem::Done {
                state,
                best_reward,
                samples,
            } => {
                let mut out = format!("{job} {}: {samples} samples\n", state.name());
                if let Some(best) = best_reward {
                    let _ = writeln!(out, "best reward: {best:.6}");
                }
                return Ok(out);
            }
        }
    }
}

fn cancel(args: &Args) -> Result<String> {
    use archgymd::protocol::{Request, Response};
    let request = Request::Cancel {
        job: parse_job_id(args)?,
    };
    match archgymd::client::request_one(args.require("addr")?, &request)? {
        Response::Status(status) => Ok(format!("cancelling:\n{}", render_status(&status))),
        other => Err(unexpected(other)),
    }
}

fn ping(args: &Args) -> Result<String> {
    use archgymd::protocol::{Request, Response};
    match archgymd::client::request_one(args.require("addr")?, &Request::Ping)? {
        Response::Pong { version } => Ok(format!("pong (protocol v{version})\n")),
        other => Err(unexpected(other)),
    }
}

/// Ask the daemon to stop. Plain shutdown interrupts in-flight jobs at
/// a batch boundary (they stay journaled and resume on the next
/// start); `--drain true` closes admission and waits for every
/// admitted job to finish (bounded by `--drain-deadline-ms`) before
/// stopping.
fn shutdown(args: &Args) -> Result<String> {
    use archgymd::protocol::{Request, Response};
    let drain = args.bool_or("drain", false)?;
    let request = Request::Shutdown {
        drain,
        deadline_ms: args.u64_or("drain-deadline-ms", 0)?,
    };
    match archgymd::client::request_one(args.require("addr")?, &request)? {
        Response::Stopping => Ok(if drain {
            "daemon drained and stopping\n".to_owned()
        } else {
            "daemon stopping\n".to_owned()
        }),
        other => Err(unexpected(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String> {
        run(&Args::parse(line.iter().copied())?)
    }

    #[test]
    fn list_names_every_family() {
        let out = run_line(&["list"]).unwrap();
        for needle in [
            "dram/stream",
            "timeloop/resnet50",
            "farsi/edge-detection",
            "aco",
            "sa",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn search_reports_a_decoded_design() {
        let out = run_line(&[
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "rw",
            "--objective",
            "power:1.0",
            "--budget",
            "32",
        ])
        .unwrap();
        assert!(out.contains("best reward"));
        assert!(out.contains("PagePolicy"));
        assert!(out.contains("power_w"));
    }

    #[test]
    fn search_with_jobs_matches_serial_bit_for_bit() {
        let line = |jobs: &str| {
            run_line(&[
                "search",
                "--env",
                "dram/stream",
                "--agent",
                "ga",
                "--objective",
                "power:1.0",
                "--budget",
                "48",
                "--jobs",
                jobs,
            ])
            .unwrap()
        };
        let serial = line("1");
        let pooled = line("4");
        // Everything but the wall-clock line must match exactly.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("samples in"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&serial), strip(&pooled));
    }

    #[test]
    fn compare_ranks_the_requested_agents() {
        let out = run_line(&[
            "compare",
            "--env",
            "dram/stream",
            "--agents",
            "rw,sa,ga",
            "--objective",
            "power:1.0",
            "--budget",
            "48",
            "--jobs",
            "2",
        ])
        .unwrap();
        assert!(out.contains("3 agents on dram"), "{out}");
        for agent in ["rw", "sa", "ga"] {
            assert!(out.contains(agent), "missing {agent} in:\n{out}");
        }
        assert!(out.contains(" 1. "), "{out}");
        // Leaderboard is sorted: first listed reward >= last listed.
        let rewards: Vec<f64> = out
            .lines()
            .filter_map(|l| l.split("best ").nth(1))
            .filter_map(|rest| rest.split_whitespace().next())
            .map(|v| v.parse().unwrap())
            .collect();
        assert_eq!(rewards.len(), 3, "{out}");
        assert!(rewards[0] >= rewards[2], "{out}");
    }

    #[test]
    fn compare_defaults_to_the_extended_roster() {
        let out = run_line(&[
            "compare",
            "--env",
            "maestro/resnet18/stage2",
            "--budget",
            "24",
        ])
        .unwrap();
        assert!(out.contains("7 agents on maestro"), "{out}");
        assert!(run_line(&["compare", "--env", "dram/stream", "--agents", "dqn"]).is_err());
    }

    #[test]
    fn sweep_reports_quartiles_and_ticket() {
        let out = run_line(&[
            "sweep",
            "--env",
            "maestro/resnet18/stage2",
            "--agent",
            "ga",
            "--budget",
            "64",
            "--seeds",
            "1",
            "--grid",
            "2",
        ])
        .unwrap();
        assert!(out.contains("median"));
        assert!(out.contains("winning ticket"));
    }

    #[test]
    fn sweep_rejects_a_proxy_or_a_batch() {
        let sweep = [
            "sweep",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--budget",
            "8",
        ];
        for (extra, field) in [
            (["--proxy", "true"], "`proxy`"),
            (["--batch", "8"], "`batch`"),
        ] {
            let line: Vec<&str> = sweep.iter().chain(&extra).copied().collect();
            let err = run_line(&line).expect_err("sweep accepted a field it ignores");
            assert!(matches!(err, ArchGymError::InvalidConfig(_)), "{err}");
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn cached_sweep_matches_uncached_and_reports_stats() {
        let line = |cache: &str| {
            run_line(&[
                "sweep",
                "--env",
                "dram/stream",
                "--agent",
                "ga",
                "--objective",
                "power:1.0",
                "--budget",
                "48",
                "--seeds",
                "1",
                "--grid",
                "2",
                "--jobs",
                "1",
                "--cache",
                cache,
            ])
            .unwrap()
        };
        let plain = line("false");
        let cached = line("true");
        assert!(!plain.contains("cache:"), "{plain}");
        assert!(cached.contains("cache:"), "{cached}");
        assert!(cached.contains("hit rate"), "{cached}");
        // Identical search outcome, cache or not.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("cache:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&plain), strip(&cached));
    }

    #[test]
    fn halving_reports_rounds_and_a_winner() {
        let out = run_line(&[
            "halving",
            "--env",
            "maestro/resnet18/stage4",
            "--agent",
            "sa",
            "--budget",
            "16",
            "--eta",
            "3",
        ])
        .unwrap();
        assert!(out.contains("round 0"), "{out}");
        assert!(out.contains("winner:"), "{out}");
        assert!(out.contains("saving"), "{out}");
    }

    #[test]
    fn trace_prints_requests_without_out_file() {
        let out = run_line(&["trace", "--workload", "random", "--length", "5"]).unwrap();
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains("read 0x"));
    }

    #[test]
    fn trace_stats_mode_characterizes() {
        let out = run_line(&[
            "trace",
            "--workload",
            "cloud-2",
            "--length",
            "500",
            "--stats",
            "true",
        ])
        .unwrap();
        assert!(out.contains("row-hit potential"), "{out}");
        assert!(out.contains("500 requests"), "{out}");
    }

    #[test]
    fn search_dataset_export_feeds_proxy_training() {
        let dir = std::env::temp_dir().join("archgym-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let path = path.to_str().unwrap();
        run_line(&[
            "search",
            "--env",
            "dram/random",
            "--agent",
            "ga",
            "--budget",
            "200",
            "--dataset",
            path,
        ])
        .unwrap();
        let out =
            run_line(&["proxy", "--dataset", path, "--metric", "1", "--search", "2"]).unwrap();
        assert!(out.contains("correlation"), "{out}");
    }

    #[test]
    fn proxy_rejects_ragged_and_zero_width_datasets() {
        let dir = std::env::temp_dir().join("archgym-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |action: &str| {
            format!(
                "{{\"env\":\"dram/random\",\"agent\":\"ga\",\"action\":{action},\
                 \"observation\":[1.0,2.0],\"reward\":1.0,\"feasible\":true}}\n"
            )
        };
        let ragged: String = (0..24)
            .map(|i| line(if i % 2 == 0 { "[1,2]" } else { "[3]" }))
            .collect();
        let empty: String = (0..24).map(|_| line("[]")).collect();
        for (name, body) in [("ragged.jsonl", ragged), ("zero-width.jsonl", empty)] {
            let path = dir.join(name);
            std::fs::write(&path, body).unwrap();
            let err = run_line(&["proxy", "--dataset", path.to_str().unwrap()]).unwrap_err();
            assert!(matches!(err, ArchGymError::Dataset(_)), "{name}: {err}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn helpful_errors() {
        assert!(run_line(&["destroy"]).is_err());
        assert!(run_line(&["search", "--agent", "ga"]).is_err()); // missing env
        assert!(run_line(&["search", "--env", "dram/stream", "--agent", "dqn"]).is_err());
        assert!(run_line(&["trace", "--workload", "spec2017"]).is_err());
        let help = run_line(&["help"]).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn bad_inputs_are_errors_not_panics() {
        // Unknown environment name.
        let err = run_line(&["search", "--env", "gem5/spec2006", "--agent", "ga"]).unwrap_err();
        assert!(
            err.to_string().contains("unknown environment family"),
            "{err}"
        );
        // Malformed option values.
        let base = ["search", "--env", "dram/stream", "--agent", "ga"];
        let with = |extra: &[&str]| {
            let mut line = base.to_vec();
            line.extend_from_slice(extra);
            run_line(&line)
        };
        assert!(with(&["--budget", "many"]).is_err());
        assert!(with(&["--fault-transient", "1.5"]).is_err());
        assert!(with(&["--fault-latched", "-0.1"]).is_err());
        assert!(with(&["--fault-corrupt", "lots"]).is_err());
        assert!(with(&["--resume", "maybe"]).is_err());
        // --resume without a journal path is a usage error.
        assert!(with(&["--resume", "true"]).is_err());
        // A sweep with no grid cell or no seed has no winner to report.
        let sweep = [
            "sweep",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--budget",
            "8",
        ];
        for extra in [["--grid", "0"], ["--seeds", "0"]] {
            let line: Vec<&str> = sweep.iter().chain(&extra).copied().collect();
            assert!(run_line(&line).is_err(), "{extra:?}");
        }
        // Unreadable input file.
        let err = run_line(&["proxy", "--dataset", "/no/such/dir/run.jsonl"]).unwrap_err();
        assert!(matches!(err, ArchGymError::Io(_)), "{err}");
    }

    #[test]
    fn screened_search_reports_proxy_accounting() {
        let out = run_line(&[
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--objective",
            "power:1.0",
            "--budget",
            "96",
            "--proxy",
            "true",
            "--proxy-warmup",
            "32",
        ])
        .unwrap();
        assert!(out.contains("best reward"), "{out}");
        assert!(out.contains("proxy: "), "{out}");
        assert!(out.contains("candidates screened"), "{out}");
        let grab = |tag: &str| -> u64 {
            out.lines()
                .find(|l| l.starts_with("proxy: "))
                .and_then(|l| l.split(" | ").find(|part| part.contains(tag)))
                .and_then(|part| part.split_whitespace().find_map(|w| w.parse().ok()))
                .unwrap_or_else(|| panic!("no `{tag}` in:\n{out}"))
        };
        let screened = grab("screened");
        let admitted = grab("admitted");
        assert!(screened > 0, "{out}");
        assert!(admitted < screened, "{out}");
    }

    #[test]
    fn screened_search_is_deterministic_across_job_counts() {
        let line = |jobs: &str| {
            run_line(&[
                "search",
                "--env",
                "dram/stream",
                "--agent",
                "ga",
                "--objective",
                "power:1.0",
                "--budget",
                "80",
                "--proxy",
                "true",
                "--proxy-warmup",
                "32",
                "--jobs",
                jobs,
            ])
            .unwrap()
        };
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("samples in"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&line("1")), strip(&line("4")));
    }

    #[test]
    fn unscreened_search_output_has_no_proxy_line() {
        let out = run_line(&[
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "sa",
            "--objective",
            "power:1.0",
            "--budget",
            "32",
        ])
        .unwrap();
        assert!(!out.contains("proxy:"), "{out}");
    }

    #[test]
    fn proxy_knobs_require_the_proxy_flag_and_sane_values() {
        let base = [
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--budget",
            "32",
        ];
        let with = |extra: &[&str]| {
            let mut line = base.to_vec();
            line.extend_from_slice(extra);
            run_line(&line)
        };
        let err = with(&["--proxy-topk", "8"]).unwrap_err();
        assert!(err.to_string().contains("--proxy true"), "{err}");
        let err = with(&["--proxy", "true", "--proxy-explore", "1.5"]).unwrap_err();
        assert!(err.to_string().contains("explore_frac"), "{err}");
        assert!(with(&["--proxy", "true", "--proxy-oversample", "1"]).is_err());
    }

    #[test]
    fn screened_compare_marks_every_row() {
        let out = run_line(&[
            "compare",
            "--env",
            "dram/stream",
            "--agents",
            "rw,ga",
            "--objective",
            "power:1.0",
            "--budget",
            "80",
            "--proxy",
            "true",
            "--proxy-warmup",
            "32",
        ])
        .unwrap();
        assert!(out.contains("2 agents on dram"), "{out}");
        let marked = out.lines().filter(|l| l.contains("| proxy ")).count();
        assert_eq!(marked, 2, "{out}");
    }

    #[test]
    fn search_survives_injected_faults_and_reports_them() {
        let out = run_line(&[
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--objective",
            "power:1.0",
            "--budget",
            "48",
            "--fault-transient",
            "0.2",
            "--fault-seed",
            "7",
            "--retries",
            "3",
        ])
        .unwrap();
        assert!(out.contains("best reward"), "{out}");
        assert!(out.contains("fault recovery:"), "{out}");
        assert!(out.contains("injected faults:"), "{out}");
    }

    #[test]
    fn faultless_search_output_is_unchanged_by_fault_flags_at_zero() {
        let line = |extra: &[&str]| {
            let mut cmd = vec![
                "search",
                "--env",
                "dram/stream",
                "--agent",
                "sa",
                "--objective",
                "power:1.0",
                "--budget",
                "32",
            ];
            cmd.extend_from_slice(extra);
            run_line(&cmd).unwrap()
        };
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("samples in"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let plain = line(&[]);
        let zeroed = line(&["--fault-transient", "0.0", "--retries", "5"]);
        assert_eq!(strip(&plain), strip(&zeroed));
        assert!(!plain.contains("fault recovery:"), "{plain}");
    }

    #[test]
    fn search_metrics_and_trace_files_hold_the_run_accounting() {
        let dir = std::env::temp_dir().join("archgym-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("run-metrics.json");
        let trace = dir.join("run-trace.jsonl");
        let out = run_line(&[
            "search",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--objective",
            "power:1.0",
            "--budget",
            "48",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("telemetry:"), "{out}");
        assert!(out.contains("metrics: "), "{out}");
        assert!(out.contains("trace: "), "{out}");
        let report =
            archgym_core::telemetry::RunReport::parse(&std::fs::read_to_string(&metrics).unwrap())
                .unwrap();
        assert_eq!(report.counters["samples_settled"], 48);
        assert_eq!(report.counters["dram_decisions"] % 48, 0);
        assert!(report.phases.contains_key("simulate"), "{report:?}");
        let trace_lines = std::fs::read_to_string(&trace).unwrap();
        let batches: Vec<_> = trace_lines.lines().collect();
        assert_eq!(batches.len() as u64, report.counters["batches"]);
        assert!(batches[0].contains("\"event\":\"batch\""), "{trace_lines}");
        let _ = std::fs::remove_file(&metrics);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn compare_metrics_are_stable_across_job_counts() {
        let dir = std::env::temp_dir().join("archgym-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let run = |jobs: &str, file: &str| {
            let path = dir.join(file);
            run_line(&[
                "compare",
                "--env",
                "dram/stream",
                "--agents",
                "rw,sa",
                "--objective",
                "power:1.0",
                "--budget",
                "32",
                "--jobs",
                jobs,
                "--metrics",
                path.to_str().unwrap(),
            ])
            .unwrap();
            let body = std::fs::read_to_string(&path).unwrap();
            let _ = std::fs::remove_file(&path);
            body
        };
        let serial = run("1", "cmp-serial.json");
        let pooled = run("4", "cmp-pooled.json");
        assert_eq!(serial, pooled);
        assert!(serial.contains("\"rw\""), "{serial}");
        assert!(serial.contains("\"samples_settled\":32"), "{serial}");
    }

    #[test]
    fn sweep_metrics_aggregate_every_run() {
        let dir = std::env::temp_dir().join("archgym-cli-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sweep-metrics.json");
        run_line(&[
            "sweep",
            "--env",
            "dram/stream",
            "--agent",
            "ga",
            "--objective",
            "power:1.0",
            "--budget",
            "24",
            "--seeds",
            "2",
            "--grid",
            "2",
            "--jobs",
            "1",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .unwrap();
        let report =
            archgym_core::telemetry::RunReport::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap();
        // 2 assignments × 2 seeds × 24 samples, summed into one recorder.
        assert_eq!(report.counters["samples_settled"], 2 * 2 * 24);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shutdown_drain_flag_must_be_a_boolean() {
        // Rejected while parsing, before any connection is made.
        let err = run_line(&["shutdown", "--addr", "127.0.0.1:1", "--drain", "maybe"]).unwrap_err();
        assert!(err.to_string().contains("`--drain` expects"), "{err}");
    }

    #[test]
    fn journaled_search_matches_plain_and_refuses_stale_journals() {
        let dir = std::env::temp_dir().join("archgym-cli-journal-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap();
        let line = |extra: &[&str]| {
            let mut cmd = vec![
                "search",
                "--env",
                "dram/stream",
                "--agent",
                "ga",
                "--objective",
                "power:1.0",
                "--budget",
                "48",
            ];
            cmd.extend_from_slice(extra);
            run_line(&cmd)
        };
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("samples in") && !l.starts_with("journal:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let plain = line(&[]).unwrap();
        let journaled = line(&["--journal", path]).unwrap();
        assert!(journaled.contains("journal: "), "{journaled}");
        assert_eq!(strip(&plain), strip(&journaled));
        // A second run against the finished journal must not silently
        // extend it...
        let err = line(&["--journal", path]).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        // ...but an explicit resume replays it to the same report.
        let resumed = line(&["--journal", path, "--resume", "true"]).unwrap();
        assert_eq!(strip(&plain), strip(&resumed));
        let _ = std::fs::remove_file(path);
    }
}
