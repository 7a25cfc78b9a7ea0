//! Shared pieces: task records, the closed-loop phase driver, order
//! statistics, the result digest and the result line.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The CLI's default objective for each env family, spelled out so the
/// same string reaches the library and the daemon. FARSI's default is
/// the workload's built-in budgets.
pub fn default_objective(spec: &str) -> String {
    match spec.split('/').next().unwrap_or_default() {
        "dram" | "dramx" => "power:1.0".into(),
        "timeloop" => "latency:15".into(),
        "maestro" => "runtime".into(),
        "farsi" => {
            let name = spec.split('/').nth(1).unwrap_or("edge-detection");
            let workload = archgym_soc::SocWorkload::ALL
                .into_iter()
                .find(|w| w.name() == name)
                .unwrap_or_else(|| panic!("unknown FARSI workload `{name}`"));
            let (lat, pow, area) = workload.budgets();
            format!("budgets:{lat},{pow},{area}")
        }
        other => panic!("no default objective for `{other}`"),
    }
}

/// One finished task as the benchmark saw it.
#[derive(Debug, Clone)]
pub struct Task {
    /// Position in issue order.
    pub index: usize,
    /// Env spec and objective.
    pub spec: String,
    /// Agent (and hyperparameters, or job kind).
    pub agent: String,
    pub seed: u64,
    pub best: f64,
    /// Budget samples settled.
    pub samples: u64,
    pub budget: u64,
    pub latency_s: f64,
    /// Completion time since the phase started (set by [`closed_loop`]).
    pub end_s: f64,
    /// Errored, rejected, or had degraded samples.
    pub failed: bool,
    /// Whether `best` reached the spec's target.
    pub hit: bool,
    /// Samples to reach the target, `budget + 1` when missed.
    pub evals_to_target: u64,
}

impl Task {
    /// Every task must settle exactly its budget with a finite best.
    pub fn settled(&self) -> bool {
        !self.failed && self.samples == self.budget && self.best.is_finite()
    }
}

/// FNV-1a over each task's spec, agent, seed, best-reward bits and
/// samples, in issue order.
pub fn digest<'a>(tasks: impl IntoIterator<Item = &'a Task>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in tasks {
        eat(t.spec.as_bytes());
        eat(&[0]);
        eat(t.agent.as_bytes());
        eat(&[0]);
        eat(&t.seed.to_le_bytes());
        eat(&t.best.to_bits().to_le_bytes());
        eat(&t.samples.to_le_bytes());
    }
    h
}

/// A splitmix64 step: derives per-task seeds from the run's `--seed`.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile<T: Copy + PartialOrd>(values: &[T], q: f64) -> T {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median_f64(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// All tasks of one timed phase.
#[derive(Debug)]
pub struct Phase {
    pub tasks: Vec<Task>,
    pub wall_s: f64,
    /// Length of one pass over the task list.
    pub pass_len: usize,
    /// Peak resident memory in MiB when the first `pass_len` tasks had
    /// completed: a fixed amount of work, however fast the host ran.
    pub rss_mb: f64,
}

impl Phase {
    /// Samples settled per second over the whole phase. A mean, not a
    /// median over slices of the phase: a workload whose tasks differ
    /// in cost by 100x (a PPO search on FARSI against a screened GA one)
    /// gives slices whose mix, and so whose rate, depends on which tasks
    /// the two clients happened to finish in them.
    pub fn samples_per_s(&self) -> f64 {
        self.tasks.iter().map(|t| t.samples).sum::<u64>() as f64 / self.wall_s
    }

    /// Tasks of the first pass, in issue order.
    pub fn first_pass(&self) -> &[Task] {
        &self.tasks[..self.pass_len]
    }

    /// Digest of every complete pass; all must agree.
    pub fn pass_digests(&self) -> Vec<u64> {
        self.tasks
            .chunks(self.pass_len)
            .filter(|c| c.len() == self.pass_len)
            .map(digest)
            .collect()
    }
}

/// Run tasks `0, 1, 2, ...` (task `i` is item `i % pass_len` of the
/// task list) on `clients` closed-loop threads: each issues its next
/// task when the previous one completes. Issuing stops once `seconds`
/// have passed and at least one full pass (and `min_tasks`) has been
/// issued. Tasks come back sorted by issue order.
pub fn closed_loop<F>(
    pass_len: usize,
    seconds: f64,
    min_tasks: usize,
    clients: usize,
    run: F,
) -> Phase
where
    F: Fn(usize, usize) -> Task + Sync,
{
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let next = AtomicUsize::new(0);
    let floor = pass_len.max(min_tasks);
    let done = Mutex::new(Vec::new());
    let rss_mb = Mutex::new(f64::NAN);
    std::thread::scope(|scope| {
        for client in 0..clients {
            let (next, done, run, rss_mb) = (&next, &done, &run, &rss_mb);
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::SeqCst);
                if index >= floor && Instant::now() >= deadline {
                    break;
                }
                let mut task = run(index, client);
                task.end_s = start.elapsed().as_secs_f64();
                let mut done = done.lock().expect("task list poisoned");
                done.push(task);
                if done.len() == pass_len {
                    *rss_mb.lock().expect("rss poisoned") = peak_rss_mb();
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut tasks = done.into_inner().expect("task list poisoned");
    tasks.sort_by_key(|t| t.index);
    Phase {
        tasks,
        wall_s,
        pass_len,
        rss_mb: rss_mb.into_inner().expect("rss poisoned"),
    }
}

/// Host-wide `(steal, total)` CPU jiffies from `/proc/stat`, to show how
/// much CPU a virtualized host withheld during a phase.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Median of `reps` timed calls of `f`; returns it with the last
/// call's value.
pub fn timed_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let value = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median_f64(&times), last.expect("at least one set-up"))
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn text(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    pub fn result_line(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Per-spec quality of one pass: hit fraction, evals-to-target and best
/// reward quartiles.
pub fn spec_table(pass: &[Task]) -> String {
    let mut specs: Vec<&str> = pass.iter().map(|t| t.spec.as_str()).collect();
    specs.sort_unstable();
    specs.dedup();
    let mut out = String::new();
    for spec in specs {
        let tasks: Vec<&Task> = pass.iter().filter(|t| t.spec == spec).collect();
        let hits = tasks.iter().filter(|t| t.hit).count();
        let evals: Vec<u64> = tasks.iter().map(|t| t.evals_to_target).collect();
        let best: Vec<f64> = tasks.iter().map(|t| t.best).collect();
        let _ = writeln!(
            out,
            "  {spec:<48} tasks {:>3} hit {:.3} evals q1/q2/q3 {}/{}/{} best q1/q2/q3 {:.4}/{:.4}/{:.4}",
            tasks.len(),
            hits as f64 / tasks.len() as f64,
            quantile(&evals, 0.25),
            quantile(&evals, 0.5),
            quantile(&evals, 0.75),
            quantile(&best, 0.25),
            quantile(&best, 0.5),
            quantile(&best, 0.75),
        );
    }
    out
}

/// Task latency quartiles per agent (the part of `agent` before `[`).
pub fn agent_table(tasks: &[Task]) -> String {
    let kind = |t: &Task| t.agent.split('[').next().unwrap_or_default().to_owned();
    let mut kinds: Vec<String> = tasks.iter().map(kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let mut out = String::new();
    for k in kinds {
        let ms: Vec<f64> = tasks
            .iter()
            .filter(|t| kind(t) == k)
            .map(|t| t.latency_s * 1e3)
            .collect();
        let _ = writeln!(
            out,
            "  {k:<16} tasks {:>5} latency q1/q2/q3 {:.2}/{:.2}/{:.2} ms",
            ms.len(),
            quantile(&ms, 0.25),
            quantile(&ms, 0.5),
            quantile(&ms, 0.75)
        );
    }
    out
}

/// End-to-end metrics every workload reports from its untraced phase.
pub fn end_to_end(phase: &Phase, setup_s: f64) -> Metrics {
    let latencies_ms: Vec<f64> = phase.tasks.iter().map(|t| t.latency_s * 1e3).collect();
    let pass = phase.first_pass();
    let hits = pass.iter().filter(|t| t.hit).count();
    let evals: Vec<u64> = pass.iter().map(|t| t.evals_to_target).collect();
    let ok = phase.tasks.iter().filter(|t| !t.failed).count();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("samples_per_s", phase.samples_per_s(), "1/s");
    m.put("task_p50_ms", quantile(&latencies_ms, 0.5), "ms");
    m.put("task_p95_ms", quantile(&latencies_ms, 0.95), "ms");
    m.put("target_hit_frac", hits as f64 / pass.len() as f64, "frac");
    m.put("evals_to_target_p50", quantile(&evals, 0.5) as f64, "count");
    m.put("ok_frac", ok as f64 / phase.tasks.len() as f64, "frac");
    m.put("peak_rss_mb", phase.rss_mb, "MiB");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.95), 5.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
    }

    #[test]
    fn farsi_default_objective_round_trips_the_builtin_budgets() {
        assert_eq!(
            default_objective("farsi/edge-detection"),
            "budgets:8,300,10"
        );
        assert_eq!(default_objective("dram/random"), "power:1.0");
    }
}
