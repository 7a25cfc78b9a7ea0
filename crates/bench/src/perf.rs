//! `bench perf` — the microbenchmarks nothing else in the repo measures,
//! and the four in-run ratio checks that gate them.
//!
//! The end-to-end layers (daemon, race, sweep, proxy) are measured by
//! the `perfbench/` package, the benchmark of record; this module times
//! what lies below them:
//!
//! * the raw `MemoryController::simulate` inner loop (`simulate-only/*`),
//!   the SoA engine's request throughput across four access patterns
//!   (`dram-engine/*`), and fixed GA work with and without a fresh
//!   [`EvalCache`] on the timeloop, FARSI and MAESTRO families
//!   (`cache-overhead/*`), and the drop of a recorded sweep's datasets
//!   and of a filled cache (`teardown/*`) — absolute rates, recorded but
//!   never compared in code: they swing by more than any fixed tolerance
//!   between runs, even on one host;
//! * four A/B pairs whose ratio is gated by [`gate`]: the SoA engine vs
//!   the linear-scan reference, a pooled (jobs 4) run vs the same run
//!   serially, a live telemetry recorder vs the no-op one, and a cold
//!   [`EvalCache`] sweep vs the same sweep answered warm.
//!
//! Every check times [`REPS`] reps of its two sides — within a rep,
//! side A then side B, once or in a few short alternating runs per
//! side — and gates the median of the per-rep ratios A/B, recording the
//! quartiles as its spread. Both sides must compute the same result in
//! every run, or the run panics: the engine, pooled and telemetry
//! checks compare against a plain serial computation, so they double as
//! determinism checks. The cache check compares a cold cached sweep
//! with the warm one that follows it; that a cached sweep matches an
//! uncached one point for point is held by the core sweep tests
//! (`cached_sweep_is_point_identical_to_uncached`).

use archgym_agents::factory::{build_agent, default_grid, AgentKind};
use archgym_core::agent::HyperMap;
use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::{CloneEnvironment, Environment};
use archgym_core::error::Result;
use archgym_core::executor::Executor;
use archgym_core::search::{RunConfig, RunResult, SearchLoop};
use archgym_core::seeded_rng;
use archgym_core::stats::summarize;
use archgym_core::sweep::{Sweep, SweepResult};
use archgym_core::telemetry::{PhaseSummary, Recorder};
use archgym_dram::controller::{ControllerConfig, MemoryController};
use archgym_dram::trace::generate;
use archgym_dram::{DramEnv, DramWorkload, Objective, TraceConfig};
use std::cell::RefCell;
use std::fmt;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Timed reps per scenario and per side of every ratio check.
pub const REPS: usize = 11;

/// One timed scenario: the median of [`REPS`] reps.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario identifier, e.g. `"simulate-only/default"`.
    pub name: String,
    /// Work units in one rep (simulations, requests or samples).
    pub work_units: u64,
    /// Median wall-clock seconds of one rep.
    pub wall_seconds: f64,
    /// Work units per second at the median rep.
    pub per_second: f64,
    /// Simulations one rep ran, where the scenario counts them (the
    /// `cache-overhead/*` rows: cache misses, or every sample uncached).
    pub simulations: Option<u64>,
}

impl ScenarioResult {
    fn new(name: impl Into<String>, work_units: u64, wall_seconds: f64) -> Self {
        Self {
            name: name.into(),
            work_units,
            wall_seconds,
            per_second: work_units as f64 / wall_seconds,
            simulations: None,
        }
    }
}

/// The side of its bound a ratio must stay on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The median must be at least this.
    AtLeast(f64),
    /// The median must be at most this.
    AtMost(f64),
}

impl Bound {
    /// Whether `value` lies within the bound (a NaN never does).
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::AtLeast(floor) => value >= floor,
            Bound::AtMost(ceiling) => value <= ceiling,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::AtLeast(floor) => write!(f, ">= {floor}"),
            Bound::AtMost(ceiling) => write!(f, "<= {ceiling}"),
        }
    }
}

/// One in-run ratio check: side A's seconds over side B's, per rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Ratio {
    /// Check identifier, e.g. `"soa-vs-reference"`.
    pub name: &'static str,
    /// Median of the per-rep ratios — the gated value.
    pub median: f64,
    /// First quartile of the per-rep ratios.
    pub q1: f64,
    /// Third quartile of the per-rep ratios.
    pub q3: f64,
    /// The bound [`gate`] holds the median to.
    pub bound: Bound,
}

/// The full `bench perf` report.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Git revision this run measured (`"unknown"` unless the binary
    /// was told via `--rev=`).
    pub rev: String,
    /// Date of the run (`"unknown"` unless the binary was told via
    /// `--date=`).
    pub date: String,
    /// Hardware threads available on the machine that produced the
    /// numbers — parallel speedups are meaningless without it.
    pub cores: usize,
    /// Whether the quick (CI smoke) workload sizes were used.
    pub quick: bool,
    /// Every timed scenario, in execution order.
    pub scenarios: Vec<ScenarioResult>,
    /// The four gated ratio checks, in execution order.
    pub ratios: Vec<Ratio>,
    /// Cache hit rate over the last rep's cold+warm sweeps.
    pub cache_hit_rate: f64,
    /// Distinct design points the last rep's cache ended up holding.
    pub cache_entries: u64,
    /// Per-phase latency summaries from the telemetry-on runs, straight
    /// from the run recorder rather than ad-hoc `Instant` bookkeeping.
    pub phases: Vec<(String, PhaseSummary)>,
}

impl PerfReport {
    /// Serialize the report as JSON.
    ///
    /// Hand-rolled: every field is a number, bool or known-safe string,
    /// and hand-rolling keeps the binary independent of a JSON crate.
    pub fn to_json(&self) -> String {
        fn array<T>(out: &mut String, key: &str, items: &[T], line: impl Fn(&T) -> String) {
            let _ = writeln!(out, "  \"{key}\": [");
            for (i, item) in items.iter().enumerate() {
                let comma = if i + 1 < items.len() { "," } else { "" };
                let _ = writeln!(out, "    {}{comma}", line(item));
            }
            out.push_str("  ],\n");
        }
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"perf\",");
        let _ = writeln!(out, "  \"rev\": \"{}\",", self.rev);
        let _ = writeln!(out, "  \"date\": \"{}\",", self.date);
        let _ = writeln!(out, "  \"cores\": {},", self.cores);
        let _ = writeln!(out, "  \"quick\": {},", self.quick);
        let _ = writeln!(out, "  \"reps\": {REPS},");
        array(&mut out, "scenarios", &self.scenarios, |s| {
            let simulations = s
                .simulations
                .map(|n| format!(", \"simulations\": {n}"))
                .unwrap_or_default();
            format!(
                "{{\"name\": \"{}\", \"work_units\": {}, \"wall_seconds\": {:.6}, \"per_second\": {:.3}{simulations}}}",
                s.name, s.work_units, s.wall_seconds, s.per_second
            )
        });
        array(&mut out, "ratios", &self.ratios, |r| {
            let (side, limit) = match r.bound {
                Bound::AtLeast(v) => ("at_least", v),
                Bound::AtMost(v) => ("at_most", v),
            };
            format!(
                "{{\"name\": \"{}\", \"median\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}, \"{side}\": {limit}}}",
                r.name, r.median, r.q1, r.q3
            )
        });
        array(&mut out, "phases", &self.phases, |(name, p)| {
            format!(
                "{{\"name\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
                p.count, p.total_ns, p.p50_ns, p.p95_ns, p.p99_ns, p.max_ns
            )
        });
        let _ = writeln!(out, "  \"cache_hit_rate\": {:.4},", self.cache_hit_rate);
        let _ = writeln!(out, "  \"cache_entries\": {}", self.cache_entries);
        out.push_str("}\n");
        out
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64().max(1e-9), result)
}

/// Median seconds over [`REPS`] timed runs of `f`.
fn median_seconds(mut f: impl FnMut()) -> f64 {
    let seconds: Vec<f64> = (0..REPS).map(|_| timed(&mut f).0).collect();
    summarize(&seconds).median
}

/// Time [`REPS`] reps of the A/B pair, each rep running `a` then `b`
/// `runs` times alternately and summing each side's seconds; assert
/// that both sides computed the `same` result in every run, and
/// summarize the per-rep ratios of `a`'s seconds over `b`'s. Also
/// returns each side's median rep seconds, for the scenario rows.
fn ab<T>(
    name: &'static str,
    bound: Bound,
    runs: u64,
    mut a: impl FnMut() -> Result<T>,
    mut b: impl FnMut() -> Result<T>,
    same: impl Fn(&T, &T) -> bool,
) -> Result<(Ratio, f64, f64)> {
    let (mut a_seconds, mut b_seconds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut ta, mut tb) = (0.0, 0.0);
        for _ in 0..runs {
            let (sa, ra) = timed(&mut a);
            let (sb, rb) = timed(&mut b);
            assert!(same(&ra?, &rb?), "{name}: the two sides diverged");
            ta += sa;
            tb += sb;
        }
        a_seconds.push(ta);
        b_seconds.push(tb);
        ratios.push(ta / tb);
    }
    let s = summarize(&ratios);
    let ratio = Ratio {
        name,
        median: s.median,
        q1: s.q1,
        q3: s.q3,
        bound,
    };
    Ok((
        ratio,
        summarize(&a_seconds).median,
        summarize(&b_seconds).median,
    ))
}

/// Two runs found the same design the same way.
fn same_run(a: &RunResult, b: &RunResult) -> bool {
    a.best_reward == b.best_reward
        && a.best_action == b.best_action
        && a.reward_history == b.reward_history
}

/// Two sweeps match point for point — a cache that changed any result
/// would have corrupted the search.
fn same_sweep(a: &SweepResult, b: &SweepResult) -> bool {
    a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(a, b)| {
            a.hyper == b.hyper
                && a.seed == b.seed
                && a.result.samples_used == b.result.samples_used
                && same_run(&a.result, &b.result)
        })
}

/// Run every scenario and assemble the report.
///
/// `quick` selects CI-smoke workload sizes.
///
/// # Errors
///
/// Propagates agent-construction failures.
///
/// # Panics
///
/// Panics if the two sides of a ratio check compute different results.
pub fn run(quick: bool) -> Result<PerfReport> {
    let mut scenarios = Vec::new();
    let mut ratios = Vec::new();

    // --- simulate-only: the raw controller inner loop -----------------
    // The controller is built once outside the window: the scenario is
    // named simulate-only, so only `simulate` is on the clock.
    let default_trace = generate(
        DramWorkload::Cloud2,
        &TraceConfig::default(),
        &mut seeded_rng(0xD7A3),
    );
    let controller = MemoryController::new(ControllerConfig::default());
    let calls: u64 = if quick { 20 } else { 200 };
    let seconds = median_seconds(|| {
        for _ in 0..calls {
            black_box(controller.simulate(&default_trace));
        }
    });
    scenarios.push(ScenarioResult::new("simulate-only/default", calls, seconds));

    // --- SoA engine vs the linear-scan reference on a wide buffer -----
    // Same workload through the O(buffer)-per-decision reference, so the
    // SoA engine's algorithmic win stays measured (and bit-identical).
    let wide_trace = generate(
        DramWorkload::Cloud2,
        &TraceConfig {
            length: 8_192,
            ..TraceConfig::default()
        },
        &mut seeded_rng(0xD7A3),
    );
    let wide_controller = MemoryController::new(ControllerConfig {
        request_buffer_size: 8,
        max_active_transactions: 64,
        ..ControllerConfig::default()
    });
    let calls: u64 = if quick { 2 } else { 10 };
    let (ratio, reference_seconds, soa_seconds) = ab(
        "soa-vs-reference",
        Bound::AtLeast(1.5),
        calls,
        || Ok(wide_controller.simulate_linear_scan(&wide_trace)),
        || Ok(wide_controller.simulate(&wide_trace)),
        |a, b| a == b,
    )?;
    ratios.push(ratio);
    scenarios.push(ScenarioResult::new(
        "simulate-only/wide",
        calls,
        soa_seconds,
    ));
    scenarios.push(ScenarioResult::new(
        "simulate-only/wide-linear-scan",
        calls,
        reference_seconds,
    ));

    // --- dram-engine: the SoA engine across access patterns -----------
    // Four traces spanning the engine's behavioral corners — streaming
    // (row-hit heavy), pointer-chase (row-miss heavy), mixed read/write
    // bursts, and a crafted same-bank alternating-row conflict storm
    // (every access closes the previous row). Work units are *requests*,
    // so per_second is request throughput, comparable across traces of
    // different lengths.
    let conflict_trace: Vec<archgym_dram::MemoryRequest> = (0..TraceConfig::default().length)
        .map(|i| archgym_dram::MemoryRequest {
            arrival: i as u64 * 4,
            // Alternate between two rows of bank 0: offset 6 bits,
            // column 7 bits, bank 3 bits, row above — every request
            // conflicts with the previously open row.
            addr: ((i as u64) & 1) << (6 + 7 + 3),
            is_write: i % 3 == 0,
        })
        .collect();
    let trace_of = |workload| generate(workload, &TraceConfig::default(), &mut seeded_rng(0xD7A3));
    let calls: u64 = if quick { 10 } else { 100 };
    for (label, trace) in [
        ("stream", trace_of(DramWorkload::Stream)),
        ("random", trace_of(DramWorkload::Random)),
        ("mixed", trace_of(DramWorkload::Cloud1)),
        ("conflict", conflict_trace),
    ] {
        let seconds = median_seconds(|| {
            for _ in 0..calls {
                black_box(controller.simulate(&trace));
            }
        });
        scenarios.push(ScenarioResult::new(
            format!("dram-engine/{label}"),
            calls * trace.len() as u64,
            seconds,
        ));
    }

    // --- batched-run: in-run parallel evaluation ----------------------
    // GA runs with auto batch (= its population) evaluated serially,
    // then fanned over a 4-replica EnvPool (≈1 on a single-core machine
    // — `cores` in the report says which). Like the telemetry pair
    // below, each rep alternates eight short runs per side rather than
    // one long one, so load that comes and goes during a rep charges
    // both sides alike; a rep's `run_budget` samples per side keep it
    // tens of milliseconds long, well above timer and scheduler noise.
    let run_budget: u64 = if quick { 1_536 } else { 3_072 };
    let short_budget = run_budget / 8;
    let make_env = || DramEnv::new(DramWorkload::Stream, Objective::low_power(1.0));
    let space = make_env().space().clone();
    let ga_run =
        |seed: u64, config: RunConfig, telemetry: Option<&Recorder>| -> Result<RunResult> {
            let mut agent = build_agent(AgentKind::Ga, &space, &HyperMap::new(), seed)?;
            let mut driver = SearchLoop::new(config.batch(0).record(false));
            if let Some(rec) = telemetry {
                driver = driver.with_telemetry(rec.clone());
            }
            Ok(driver.run_pooled(&mut agent, make_env()))
        };
    let (ratio, serial_seconds, pooled_seconds) = ab(
        "pooled-vs-serial",
        Bound::AtLeast(0.85),
        8,
        || ga_run(7, RunConfig::with_budget(short_budget).jobs(1), None),
        || ga_run(7, RunConfig::with_budget(short_budget).jobs(4), None),
        same_run,
    )?;
    ratios.push(ratio);
    scenarios.push(ScenarioResult::new(
        "batched-run/serial",
        run_budget,
        serial_seconds,
    ));
    scenarios.push(ScenarioResult::new(
        "batched-run/jobs4",
        run_budget,
        pooled_seconds,
    ));

    // --- telemetry overhead: the recorder must be (nearly) free -------
    // The same short serial GA runs with a live recorder and with the
    // default no-op one, eight alternating per side per rep; phase
    // timings come from the live recorder itself.
    let live = Recorder::new();
    let (ratio, on_seconds, off_seconds) = ab(
        "telemetry-on-vs-off",
        Bound::AtMost(1.05),
        8,
        || ga_run(11, RunConfig::with_budget(short_budget), Some(&live)),
        || ga_run(11, RunConfig::with_budget(short_budget), None),
        same_run,
    )?;
    ratios.push(ratio);
    scenarios.push(ScenarioResult::new(
        "telemetry/off",
        run_budget,
        off_seconds,
    ));
    scenarios.push(ScenarioResult::new("telemetry/on", run_budget, on_seconds));
    let phases: Vec<(String, PhaseSummary)> = live
        .report()
        .map(|r| r.phases.into_iter().collect())
        .unwrap_or_default();

    // --- cached-sweep: a fresh cache filled cold, then answered warm --
    // Serial, so both the ratio and the hit rate are one fixed,
    // deterministic configuration whatever the host's core count.
    let kind = AgentKind::Ga;
    let budget: u64 = if quick { 48 } else { 300 };
    let assignments: Vec<HyperMap> = default_grid(kind)
        .iter()
        .take(if quick { 4 } else { 8 })
        .collect();
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2] };
    let run_sweep = |cache: Arc<EvalCache>| -> Result<SweepResult> {
        Sweep::new(RunConfig::with_budget(budget).record(false))
            .seeds(seeds.iter().copied())
            .jobs(1)
            .cache(cache)
            .run_assignments(kind.name(), &assignments, make_env, |hyper, seed| {
                build_agent(kind, &space, hyper, seed)
            })
    };
    let runs = (assignments.len() * seeds.len()) as u64;
    let cache = RefCell::new(Arc::new(EvalCache::new()));
    let (ratio, cold_seconds, warm_seconds) = ab(
        "cache-cold-vs-warm",
        Bound::AtLeast(2.0),
        1,
        || {
            let fresh = Arc::new(EvalCache::new());
            *cache.borrow_mut() = fresh.clone();
            run_sweep(fresh)
        },
        || run_sweep(cache.borrow().clone()),
        same_sweep,
    )?;
    ratios.push(ratio);
    scenarios.push(ScenarioResult::new("cached-sweep/cold", runs, cold_seconds));
    scenarios.push(ScenarioResult::new("cached-sweep/warm", runs, warm_seconds));
    let stats = cache.borrow().stats();

    // --- cache-overhead: what a cache costs GA on fixed work ----------
    // Default GA (auto batch), budget 500, on the three families whose
    // steps cost microseconds, so the cache path is a visible share of
    // a sample, and on `dram/stream`, whose cached side is answered by
    // twin sets too. Each seed's run gets a fresh cache, so its hits are
    // the run's own revisits. A rep times every seed uncached, then every
    // seed cached, and the two must find the same designs the same way.
    // Each row counts the simulations of one rep. Recorded, never gated,
    // like `dram-engine/*`.
    let seeds: u64 = if quick { 10 } else { 40 };
    let network = |name| archgym_models::by_name(name).expect("bundled model");
    let families: [(&str, Box<dyn CloneEnvironment>); 4] = [
        (
            "timeloop",
            Box::new(archgym_accel::AccelEnv::new(
                network("resnet50"),
                archgym_accel::Objective::latency(15.0),
            )),
        ),
        (
            "farsi",
            Box::new(archgym_soc::SocEnv::new(
                archgym_soc::SocWorkload::EdgeDetection,
            )),
        ),
        (
            "maestro",
            Box::new(archgym_mapping::MappingEnv::for_layer(
                &network("resnet18"),
                "stage2",
                archgym_mapping::Objective::runtime(),
            )?),
        ),
        (
            "dram",
            Box::new(DramEnv::new(
                DramWorkload::Stream,
                Objective::low_power(1.0),
            )),
        ),
    ];
    for (family, env) in families {
        // Every seed's run, and the simulations they took: each sample
        // uncached, each miss cached.
        let ga_runs = |cached: bool| -> Result<(Vec<RunResult>, u64)> {
            let mut simulations = 0;
            let runs = (0..seeds)
                .map(|seed| {
                    let mut agent =
                        build_agent(AgentKind::Ga, env.space(), &HyperMap::new(), seed)?;
                    let cache = cached.then(|| Arc::new(EvalCache::new()));
                    let mut env = CachedEnv::with_cache(env.clone(), cache.clone());
                    let driver = SearchLoop::new(RunConfig::with_budget(500).batch(0));
                    let run = driver.run(&mut agent, &mut env);
                    simulations += cache.map_or(run.samples_used, |c| c.stats().misses);
                    Ok(run)
                })
                .collect::<Result<_>>()?;
            Ok((runs, simulations))
        };
        let (mut uncached_seconds, mut cached_seconds) = (Vec::new(), Vec::new());
        let mut simulations = (0, 0);
        for _ in 0..REPS {
            let (uncached_s, uncached) = timed(|| ga_runs(false));
            let (cached_s, cached) = timed(|| ga_runs(true));
            let ((uncached, uncached_sims), (cached, cached_sims)) = (uncached?, cached?);
            assert!(
                uncached.iter().zip(&cached).all(|(a, b)| same_run(a, b)),
                "cache-overhead/{family}: the cached runs diverged"
            );
            uncached_seconds.push(uncached_s);
            cached_seconds.push(cached_s);
            simulations = (uncached_sims, cached_sims);
        }
        for (side, seconds, sims) in [
            ("uncached", uncached_seconds, simulations.0),
            ("cached", cached_seconds, simulations.1),
        ] {
            scenarios.push(ScenarioResult {
                simulations: Some(sims),
                ..ScenarioResult::new(
                    format!("cache-overhead/{family}/{side}"),
                    seeds * 500,
                    summarize(&seconds).median,
                )
            });
        }
    }

    // --- teardown: what freeing a run's samples and a cache costs -----
    // `lottery` drops every ticket's sweep and retires its caches on one
    // thread, after other threads wrote them. Each rep builds its subject
    // on two threads off the clock, then times only the drop. Work units
    // are the rows or entries freed. Recorded, never gated.
    let farsi = || archgym_soc::SocEnv::new(archgym_soc::SocWorkload::EdgeDetection);
    let farsi_space = farsi().space().clone();
    let ga_sweep = |sweep: Sweep, assignments: &[HyperMap]| {
        sweep
            .seeds(0..4)
            .jobs(2)
            .run_assignments("ga", assignments, farsi, |hyper, seed| {
                build_agent(AgentKind::Ga, &farsi_space, hyper, seed)
            })
    };
    let mut teardown = |name: &str, build: &dyn Fn() -> Result<(u64, Box<dyn Send>)>| {
        let mut seconds = Vec::new();
        let mut units = 0;
        for _ in 0..REPS {
            let (n, subject) = build()?;
            units = n;
            seconds.push(timed(|| drop(black_box(subject))).0);
        }
        scenarios.push(ScenarioResult::new(name, units, summarize(&seconds).median));
        Result::Ok(())
    };
    // Four 500-sample GA runs, recorded: a lottery ticket's datasets.
    teardown("teardown/dataset", &|| {
        let sweep = ga_sweep(
            Sweep::new(RunConfig::with_budget(500).batch(0)),
            &[HyperMap::new()],
        )?;
        let rows: usize = sweep.points.iter().map(|p| p.result.dataset.len()).sum();
        Ok((rows as u64, Box::new(sweep)))
    })?;
    // A cache filled by one pass of the GA grid over four seeds (the
    // grid's first nine assignments in a quick run).
    let grid: Vec<HyperMap> = default_grid(AgentKind::Ga)
        .iter()
        .take(if quick { 9 } else { usize::MAX })
        .collect();
    teardown("teardown/cache", &|| {
        let cache = Arc::new(EvalCache::new());
        let config = RunConfig::with_budget(500).batch(0).record(false);
        ga_sweep(Sweep::new(config).cache(Arc::clone(&cache)), &grid)?;
        let cache = Arc::try_unwrap(cache).expect("the sweep released its cache");
        Ok((cache.len() as u64, Box::new(cache)))
    })?;

    Ok(PerfReport {
        rev: "unknown".into(),
        date: "unknown".into(),
        cores: Executor::available_parallelism(),
        quick,
        scenarios,
        ratios,
        cache_hit_rate: stats.hit_rate(),
        cache_entries: stats.entries,
        phases,
    })
}

/// One message per ratio check whose median lies outside its bound;
/// empty when the run passes. The `bench` binary applies this to every
/// run and exits nonzero on any failure. The median is printed in full
/// (shortest round-trip form), so a failing value never reads as equal
/// to its bound.
pub fn gate(report: &PerfReport) -> Vec<String> {
    report
        .ratios
        .iter()
        .filter(|r| !r.bound.holds(r.median))
        .map(|r| {
            format!(
                "{}: median {} over {REPS} reps (q1 {:.3}, q3 {:.3}) is not {}",
                r.name, r.median, r.q1, r.q3, r.bound
            )
        })
        .collect()
}

/// Append `entry` (one run's JSON object) to a history file's contents,
/// returning the new file body — always a JSON array of run objects.
///
/// Accepts three prior states: an existing history array (insert before
/// the closing bracket), a legacy single-object report (wrap both into
/// an array), or an empty/missing file (start a fresh array).
pub fn append_history(existing: &str, entry: &str) -> String {
    let old = existing.trim();
    let entry = entry.trim();
    if let Some(body) = old.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
        let body = body.trim().trim_end_matches(',').trim();
        if body.is_empty() {
            format!("[\n{entry}\n]\n")
        } else {
            format!("[\n{body},\n{entry}\n]\n")
        }
    } else if old.starts_with('{') {
        format!("[\n{old},\n{entry}\n]\n")
    } else {
        format!("[\n{entry}\n]\n")
    }
}

/// Print the report: the scenario table, the gated ratios, the phases.
pub fn print(report: &PerfReport) {
    println!("\n=== bench perf ===");
    println!(
        "rev {} | date {} | {} core(s) | quick {} | median of {REPS} reps",
        report.rev, report.date, report.cores, report.quick
    );
    println!(
        "{:<30} {:>12} {:>14} {:>14} {:>12}",
        "scenario", "work units", "rep seconds", "per second", "simulations"
    );
    for s in &report.scenarios {
        let simulations = s.simulations.map(|n| n.to_string()).unwrap_or_default();
        println!(
            "{:<30} {:>12} {:>14.6} {:>14.1} {:>12}",
            s.name, s.work_units, s.wall_seconds, s.per_second, simulations
        );
    }
    println!(
        "{:<22} {:>8} {:>8} {:>8}   bound",
        "ratio check", "median", "q1", "q3"
    );
    for r in &report.ratios {
        println!(
            "{:<22} {:>8.3} {:>8.3} {:>8.3}   {}{}",
            r.name,
            r.median,
            r.q1,
            r.q3,
            r.bound,
            if r.bound.holds(r.median) {
                ""
            } else {
                "  FAIL"
            }
        );
    }
    println!(
        "cache: {:.1}% hit rate over cold+warm, {} entries",
        report.cache_hit_rate * 100.0,
        report.cache_entries
    );
    if !report.phases.is_empty() {
        println!(
            "{:<16} {:>10} {:>14} {:>12} {:>12}",
            "phase", "count", "total ms", "p50 us", "p95 us"
        );
        for (name, p) in &report.phases {
            println!(
                "{:<16} {:>10} {:>14.3} {:>12.1} {:>12.1}",
                name,
                p.count,
                p.total_ns as f64 / 1e6,
                p.p50_ns as f64 / 1e3,
                p.p95_ns as f64 / 1e3
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ratio(name: &'static str, median: f64, bound: Bound) -> Ratio {
        Ratio {
            name,
            median,
            q1: median * 0.9,
            q3: median * 1.1,
            bound,
        }
    }

    /// A report whose four checks all pass comfortably.
    fn sample_report() -> PerfReport {
        PerfReport {
            rev: "abc1234".into(),
            date: "2026-08-07".into(),
            cores: 1,
            quick: true,
            scenarios: vec![ScenarioResult::new("simulate-only/default", 10, 0.5)],
            ratios: vec![
                ratio("soa-vs-reference", 2.5, Bound::AtLeast(1.5)),
                ratio("pooled-vs-serial", 1.0, Bound::AtLeast(0.85)),
                ratio("telemetry-on-vs-off", 1.01, Bound::AtMost(1.05)),
                ratio("cache-cold-vs-warm", 20.0, Bound::AtLeast(2.0)),
            ],
            cache_hit_rate: 0.75,
            cache_entries: 42,
            phases: vec![(
                "simulate".into(),
                PhaseSummary {
                    count: 10,
                    total_ns: 1_000,
                    p50_ns: 127,
                    p95_ns: 255,
                    p99_ns: 255,
                    max_ns: 200,
                },
            )],
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let json = sample_report().to_json();
        for needle in [
            "\"bench\": \"perf\"",
            "\"rev\": \"abc1234\"",
            "\"date\": \"2026-08-07\"",
            "\"cores\": 1",
            "\"quick\": true",
            "\"reps\": 11",
            "{\"name\": \"simulate-only/default\", \"work_units\": 10, \"wall_seconds\": 0.500000, \"per_second\": 20.000}",
            "{\"name\": \"soa-vs-reference\", \"median\": 2.5000, \"q1\": 2.2500, \"q3\": 2.7500, \"at_least\": 1.5}",
            "{\"name\": \"telemetry-on-vs-off\", \"median\": 1.0100, \"q1\": 0.9090, \"q3\": 1.1110, \"at_most\": 1.05}",
            "\"cache_entries\": 42",
            "\"name\": \"simulate\", \"count\": 10",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Balanced braces/brackets — a cheap structural check that
        // stays dependency-free under the offline stub build.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn history_grows_through_every_prior_state() {
        let entry = sample_report().to_json();
        // Empty file → fresh single-entry array.
        let first = append_history("", &entry);
        assert!(first.trim_start().starts_with('['));
        assert_eq!(first.matches("\"bench\": \"perf\"").count(), 1);
        // Legacy single-object report → wrapped two-entry array.
        let wrapped = append_history(&entry, &entry);
        assert!(wrapped.trim_start().starts_with('['));
        assert_eq!(wrapped.matches("\"bench\": \"perf\"").count(), 2);
        // Existing array → appended, earlier entries kept byte for byte.
        let third = append_history(&wrapped, &entry);
        assert_eq!(third.matches("\"bench\": \"perf\"").count(), 3);
        assert!(third.starts_with(wrapped.trim_end().trim_end_matches(']').trim_end()));
        assert_eq!(third.matches('[').count(), third.matches(']').count());
        assert_eq!(third.matches('{').count(), third.matches('}').count());
    }

    #[test]
    fn gate_names_exactly_the_ratio_outside_its_bound() {
        assert!(gate(&sample_report()).is_empty(), "passing report failed");
        // (check, a median just outside its bound, one just inside).
        let cases = [
            ("soa-vs-reference", 1.49, 1.5),
            ("pooled-vs-serial", 0.8496, 0.85),
            ("telemetry-on-vs-off", 1.06, 1.05),
            ("cache-cold-vs-warm", 1.99, 2.0),
        ];
        for (name, outside, inside) in cases {
            for (median, failures) in [(outside, 1), (inside, 0), (f64::NAN, 1)] {
                let mut report = sample_report();
                let r = report.ratios.iter_mut().find(|r| r.name == name).unwrap();
                r.median = median;
                let found = gate(&report);
                assert_eq!(found.len(), failures, "{name} at {median}: {found:?}");
                assert!(found.iter().all(|f| f.starts_with(name)), "{found:?}");
                // The failing median is printed in full, never rounded
                // onto its bound.
                let shown = format!("median {median} ");
                assert!(found.iter().all(|f| f.contains(&shown)), "{found:?}");
            }
        }
        // Every check failing at once reports each of them.
        let mut report = sample_report();
        for (r, (_, outside, _)) in report.ratios.iter_mut().zip(cases) {
            r.median = outside;
        }
        assert_eq!(gate(&report).len(), 4);
    }
}
