//! End-to-end and per-layer benchmark for archgym.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lottery|model-loop|service> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `S` seconds with no
//! wrappers installed. `--trace 1` runs `S/2` seconds untraced, then
//! `S/2` seconds with timing wrappers on every public seam, and reports
//! the per-layer metrics. Either way the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod common;
mod layers;
mod lottery;
mod model_loop;
mod service;
#[cfg(test)]
mod tests;
mod trace;
mod wrap;

use common::{closed_loop, digest, end_to_end, timed_setup, Phase, Task};
use std::path::PathBuf;
use std::sync::Arc;
use trace::{SelfTimes, Tracer};

/// Tasks an end-to-end run completes at least, so the p95 latency has
/// ten samples beyond it.
const MIN_TASKS: usize = 200;
/// Set-up repetitions behind the `setup_s` median.
const SETUP_REPS: usize = 7;

type Error = Box<dyn std::error::Error + Send + Sync>;
type Result<T> = std::result::Result<T, Error>;

/// One benchmark workload: a task list cycled by closed-loop clients.
pub trait Workload: Sync {
    /// Tasks in one pass over the task list.
    fn pass_len(&self) -> usize;
    /// Closed-loop clients issuing tasks concurrently.
    fn clients(&self) -> usize {
        1
    }
    /// Prepare a timed phase; `tracer` is set for the traced phase.
    fn begin(&mut self, _tracer: Option<&Arc<Tracer>>) -> Result<()> {
        Ok(())
    }
    /// Run task `index` (item `index % pass_len`) from client `client`.
    fn task(&self, index: usize, client: usize, tracer: Option<&Arc<Tracer>>) -> Task;
    /// Workload-specific correctness checks after a phase.
    fn verify(&mut self, _phase: &mut Phase) -> Result<bool> {
        Ok(true)
    }
    /// Layer counts of the traced phase the spans cannot give.
    fn per_layer(&self, _x: &mut layers::Extras, _phase: &Phase) {}
    /// Release what set-up acquired (daemons, state directories).
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Opts> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse()?,
            "--seconds" => opts.seconds = value.parse()?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Scratch space for state directories and span dumps, inside the
/// benchmark's own directory of the checkout it was built in.
pub fn out_dir() -> Result<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Settlement and repeatability checks shared by every workload.
fn check_phase(label: &str, phase: &Phase) -> bool {
    let unsettled: Vec<&Task> = phase.tasks.iter().filter(|t| !t.settled()).collect();
    for t in unsettled.iter().take(5) {
        println!(
            "FAIL {label}: task {} ({} {} seed {}) settled {}/{} samples, best {}, failed {}",
            t.index, t.spec, t.agent, t.seed, t.samples, t.budget, t.best, t.failed
        );
    }
    let digests = phase.pass_digests();
    let repeatable = digests.windows(2).all(|w| w[0] == w[1]);
    if !repeatable {
        println!("FAIL {label}: pass digests differ across repetitions: {digests:x?}");
    }
    println!(
        "{label}: {} tasks ({} full passes of {}) in {:.3} s, result_digest {:016x}",
        phase.tasks.len(),
        digests.len(),
        phase.pass_len,
        phase.wall_s,
        digests[0]
    );
    unsettled.is_empty() && repeatable
}

fn run<W: Workload>(opts: &Opts, mut setup: impl FnMut() -> Result<W>) -> Result<()> {
    let (setup_s, workload) = timed_setup(SETUP_REPS, &mut setup);
    let mut w = workload?;
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let min_tasks = if opts.trace { 0 } else { MIN_TASKS };

    w.begin(None)?;
    let (steal0, total0) = common::cpu_jiffies();
    let mut untraced = closed_loop(w.pass_len(), seconds, min_tasks, w.clients(), |i, c| {
        w.task(i, c, None)
    });
    let (steal1, total1) = common::cpu_jiffies();
    println!(
        "host CPU steal during the untraced phase: {:.1}% of all CPU time ({} cores available)",
        100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut correct = check_phase("untraced", &untraced) & w.verify(&mut untraced)?;
    let mut attempted = untraced.tasks.len();
    let mut failed = untraced.tasks.iter().filter(|t| t.failed).count();

    let metrics = if opts.trace {
        let tracer = Arc::new(Tracer::new());
        w.begin(Some(&tracer))?;
        let mut traced = closed_loop(w.pass_len(), seconds, 0, w.clients(), |i, c| {
            w.task(i, c, Some(&tracer))
        });
        correct &= check_phase("traced", &traced) & w.verify(&mut traced)?;
        attempted += traced.tasks.len();
        failed += traced.tasks.iter().filter(|t| t.failed).count();
        let (du, dt) = (digest(untraced.first_pass()), digest(traced.first_pass()));
        if du != dt {
            println!("FAIL traced result_digest {dt:016x} != untraced {du:016x}");
            correct = false;
        }
        let spans = tracer.spans();
        let times = SelfTimes::compute(&spans);
        let path = out_dir()?.join(format!("spans-{}.txt", opts.workload));
        tracer.write(&path)?;
        println!(
            "traced phase: {} spans written to {}\n{}",
            spans.len(),
            path.display(),
            times.table()
        );
        let mut extras = layers::Extras::default();
        w.per_layer(&mut extras, &traced);
        let mut m = layers::metrics(&times, &extras);
        m.put(
            "trace.uncovered_frac",
            times.uncovered_s / times.task_s,
            "frac",
        );
        m.put(
            "trace.overhead_frac",
            1.0 - traced.samples_per_s() / untraced.samples_per_s(),
            "frac",
        );
        m
    } else {
        print!(
            "first pass by spec:\n{}",
            common::spec_table(untraced.first_pass())
        );
        print!(
            "task latency by agent:\n{}",
            common::agent_table(&untraced.tasks)
        );
        println!(
            "end-to-end over {} tasks (task_p95_ms from {} latencies) in {:.3} s:",
            untraced.tasks.len(),
            untraced.tasks.len(),
            untraced.wall_s
        );
        end_to_end(&untraced, setup_s)
    };
    w.finish()?;
    println!("workload {} seed {}:", opts.workload, opts.seed);
    print!("{}", metrics.text());
    println!("{}", metrics.result_line(correct, attempted, failed));
    Ok(())
}

fn main() {
    let outcome = parse_args().and_then(|opts| match opts.workload.as_str() {
        "lottery" => run(&opts, || lottery::Lottery::new(opts.seed)),
        "model-loop" => run(&opts, || model_loop::ModelLoop::new(opts.seed)),
        "service" => run(&opts, || service::Service::new(opts.seed)),
        other => Err(format!("unknown workload `{other}` (lottery|model-loop|service)").into()),
    });
    if let Err(err) = outcome {
        eprintln!("perfbench: {err}");
        std::process::exit(1);
    }
}
