//! In-memory span recorder for the traced run.
//!
//! Every span names the layer it times, the thread it ran on, an item
//! count (actions proposed, candidates predicted, bytes appended, ...)
//! and its start and end in nanoseconds since the tracer was created.
//! Spans stay in memory while the workload runs; [`Tracer::write`]
//! dumps them at exit and [`SelfTimes::compute`] derives per-layer self
//! time: a span's duration minus the union of the child spans it covers.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The agent kinds the benchmark times, in report order.
pub const AGENT_KINDS: [&str; 7] = ["ga", "sa", "rw", "bo", "ppo", "aco", "rl"];

/// The four simulator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Dram,
    Accel,
    Soc,
    Mapping,
}

impl Family {
    pub const ALL: [Family; 4] = [Family::Dram, Family::Accel, Family::Soc, Family::Mapping];

    /// The family of an environment spec such as `dram/stream`.
    pub fn of_spec(spec: &str) -> Family {
        match spec.split('/').next().unwrap_or_default() {
            "dram" | "dramx" => Family::Dram,
            "timeloop" => Family::Accel,
            "farsi" => Family::Soc,
            "maestro" => Family::Mapping,
            other => panic!("no simulator family for env spec `{other}`"),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Family::Dram => "dram",
            Family::Accel => "accel",
            Family::Soc => "soc",
            Family::Mapping => "mapping",
        }
    }
}

/// What a span times. `Propose`/`Observe` carry an index into
/// [`AGENT_KINDS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One benchmark task (lottery ticket, search, or daemon job).
    Task,
    /// One search-driver run (`SearchLoop` call or sweep unit).
    Search,
    /// One `BatchEvaluator::{eval_batch,try_eval_batch}` call on the pool.
    Pool,
    /// One `Environment::{step,try_step}` call.
    Step(Family),
    Propose(u8),
    Observe(u8),
    /// A `Screener::observe` call during which the model refitted.
    ProxyRefit,
    /// A `Screener::observe` call without a refit.
    ProxyObserve,
    ProxyPredict,
    ProxyRevalidate,
    Append,
    Sync,
    WriteFile,
    Rename,
    /// Reads, existence checks, removes and truncates on the store seam.
    OtherIo,
    /// Client side: submit frame sent until the `accepted` reply.
    Submit,
    /// Client side: submit frame sent until the first job event.
    FirstEvent,
}

impl Layer {
    pub fn name(self) -> String {
        match self {
            Layer::Task => "task".into(),
            Layer::Search => "search".into(),
            Layer::Pool => "pool.eval_batch".into(),
            Layer::Step(f) => format!("{}.step", f.name()),
            Layer::Propose(k) => format!("agents.{}.propose", AGENT_KINDS[k as usize]),
            Layer::Observe(k) => format!("agents.{}.observe", AGENT_KINDS[k as usize]),
            Layer::ProxyRefit => "proxy.refit".into(),
            Layer::ProxyObserve => "proxy.observe".into(),
            Layer::ProxyPredict => "proxy.predict".into(),
            Layer::ProxyRevalidate => "proxy.revalidate".into(),
            Layer::Append => "journal.append".into(),
            Layer::Sync => "journal.sync".into(),
            Layer::WriteFile => "journal.write_file".into(),
            Layer::Rename => "journal.rename".into(),
            Layer::OtherIo => "journal.other_io".into(),
            Layer::Submit => "service.submit_rtt".into(),
            Layer::FirstEvent => "service.first_event".into(),
        }
    }

    /// Client-side service spans overlap the job they belong to and are
    /// reported on their own, never subtracted as children.
    fn is_client_marker(self) -> bool {
        matches!(self, Layer::Submit | Layer::FirstEvent)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub thread: u32,
    pub items: u32,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Start of the sweep unit running on this thread (see
    /// [`Tracer::unit_start`]).
    static UNIT_START: Cell<Option<u64>> = const { Cell::new(None) };
}

fn thread_index() -> u32 {
    THREAD.with(|t| *t)
}

/// The span recorder shared by every timing wrapper of one traced phase.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn record(&self, layer: Layer, items: usize, start: u64, end: u64) {
        let span = Span {
            layer,
            thread: thread_index(),
            items: items.min(u32::MAX as usize) as u32,
            start,
            end,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Time `f` as one span of `layer`; `items` reads the item count off
    /// the result.
    pub fn time<R>(&self, layer: Layer, f: impl FnOnce() -> R, items: impl Fn(&R) -> usize) -> R {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(layer, items(&out), start, end);
        out
    }

    /// Mark the start of a sweep unit on the calling thread. The sweep
    /// builds a unit's environment first, so the benchmark's env factory
    /// calls this; the unit's agent wrapper closes the span when the
    /// sweep drops it at the end of the unit.
    pub fn unit_start(&self) {
        let now = self.now();
        UNIT_START.with(|c| c.set(Some(now)));
    }

    /// Close the sweep unit opened on this thread, if any.
    pub fn unit_end(&self) {
        if let Some(start) = UNIT_START.with(|c| c.take()) {
            let end = self.now();
            self.record(Layer::Search, 1, start, end);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write every span as `layer thread items start_ns end_ns` lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# layer thread items start_ns end_ns")?;
        for s in &spans {
            writeln!(
                out,
                "{} {} {} {} {}",
                s.layer.name(),
                s.thread,
                s.items,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

/// Covered length of `[start, end)` by `children` (sorted by start,
/// possibly overlapping across threads), optionally restricted to one
/// thread.
fn covered(start: u64, end: u64, thread: Option<u32>, children: &[Span]) -> u64 {
    // Children never start before a parent that contains them, so scan
    // from the first child starting inside the interval.
    let first = children.partition_point(|c| c.start < start);
    let mut total = 0u64;
    let mut run: Option<(u64, u64)> = None;
    for c in &children[first..] {
        if c.start >= end {
            break;
        }
        if thread.is_some_and(|t| t != c.thread) {
            continue;
        }
        let (s, e) = (c.start, c.end.min(end));
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        total += re - rs;
    }
    total
}

/// Totals of one layer over a traced phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub spans: u64,
    pub items: u64,
    /// Span time minus the child spans it covers.
    pub self_s: f64,
    /// Plain span time.
    pub span_s: f64,
}

/// Per-layer totals of one traced phase.
#[derive(Debug, Default)]
pub struct SelfTimes {
    /// In first-seen order.
    pub layers: Vec<(Layer, LayerTotal)>,
    /// Summed task wall time.
    pub task_s: f64,
    /// Task wall time no named layer covers.
    pub uncovered_s: f64,
}

impl SelfTimes {
    pub fn compute(spans: &[Span]) -> SelfTimes {
        let mut sorted = spans.to_vec();
        sorted.sort_by_key(|s| (s.start, s.end));
        let pick = |f: &dyn Fn(Layer) -> bool| -> Vec<Span> {
            sorted.iter().filter(|s| f(s.layer)).copied().collect()
        };
        // Direct children of a search run: everything it calls into.
        let search_children = pick(&|l| {
            matches!(
                l,
                Layer::Pool
                    | Layer::Step(_)
                    | Layer::Propose(_)
                    | Layer::Observe(_)
                    | Layer::ProxyRefit
                    | Layer::ProxyObserve
                    | Layer::ProxyPredict
                    | Layer::ProxyRevalidate
            )
        });
        let steps = pick(&|l| matches!(l, Layer::Step(_)));
        let named = pick(&|l| l != Layer::Task && !l.is_client_marker());

        let mut out = SelfTimes::default();
        for s in &sorted {
            let self_ns = match s.layer {
                // Sweep units run on worker threads, so only children on
                // the unit's own thread belong to it; a pool's replicas
                // step on other threads.
                Layer::Search => {
                    s.dur() - covered(s.start, s.end, Some(s.thread), &search_children)
                }
                Layer::Pool => s.dur() - covered(s.start, s.end, None, &steps),
                Layer::Task => {
                    let uncovered = s.dur() - covered(s.start, s.end, None, &named);
                    out.task_s += s.dur() as f64 * 1e-9;
                    out.uncovered_s += uncovered as f64 * 1e-9;
                    uncovered
                }
                _ => s.dur(),
            };
            let total = match out.layers.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, total)) => total,
                None => {
                    out.layers.push((s.layer, LayerTotal::default()));
                    &mut out.layers.last_mut().expect("just pushed").1
                }
            };
            total.spans += 1;
            total.items += s.items as u64;
            total.self_s += self_ns as f64 * 1e-9;
            total.span_s += s.dur() as f64 * 1e-9;
        }
        out
    }

    /// Totals of one layer, zero when absent.
    pub fn get(&self, layer: Layer) -> LayerTotal {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or_else(LayerTotal::default, |(_, t)| *t)
    }

    /// The self-time table printed by a traced run. Shares are of the
    /// summed task wall time.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>12} {:>12} {:>12} {:>9}",
            "layer", "spans", "items", "span_s", "self_s", "share"
        );
        let task = self.task_s.max(f64::MIN_POSITIVE);
        for (layer, t) in &self.layers {
            let _ = writeln!(
                out,
                "{:<28} {:>10} {:>12} {:>12.6} {:>12.6} {:>8.2}%",
                layer.name(),
                t.spans,
                t.items,
                t.span_s,
                t.self_s,
                100.0 * t.self_s / task
            );
        }
        let _ = writeln!(
            out,
            "no named layer covers {:.6} s = {:.2}% of task wall time {:.6} s (task self_s above)",
            self.uncovered_s,
            100.0 * self.uncovered_s / task,
            self.task_s
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, thread: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            thread,
            items: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(Layer::Task, 0, 0, 100),
            span(Layer::Search, 0, 0, 100),
            span(Layer::Pool, 0, 10, 60),
            // Two replicas stepping concurrently inside the pool call.
            span(Layer::Step(Family::Dram), 1, 12, 40),
            span(Layer::Step(Family::Dram), 2, 20, 50),
            span(Layer::Propose(0), 0, 70, 80),
            // A sweep unit on another thread is not the search's child.
            span(Layer::Propose(1), 5, 85, 95),
        ];
        let t = SelfTimes::compute(&spans);
        assert!((t.get(Layer::Pool).self_s - 12e-9).abs() < 1e-15); // 50 - union[12,50)
        assert!((t.get(Layer::Search).self_s - 40e-9).abs() < 1e-15); // 100 - 50 - 10
        assert!((t.uncovered_s - 0.0).abs() < 1e-15);
        assert!((t.task_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn uncovered_task_time_counts_gaps_between_layers() {
        let spans = vec![
            span(Layer::Task, 0, 0, 100),
            span(Layer::Step(Family::Soc), 1, 10, 30),
            span(Layer::Step(Family::Soc), 2, 20, 40),
            span(Layer::Submit, 0, 0, 5),
        ];
        let t = SelfTimes::compute(&spans);
        assert!((t.uncovered_s - 70e-9).abs() < 1e-15);
    }
}
