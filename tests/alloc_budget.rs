//! Allocation budgets of the per-sample paths: a recorded sample, a
//! cached miss, a cache hit, and the teardown of a cache.
//!
//! A counting global allocator counts the allocations and frees of the
//! current thread only, while a test turns it on, so tests running in
//! parallel do not see each other's blocks. A reallocation counts as an
//! allocation: growing a vector is a block the sample path asked for.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use archgym_core::agent::RandomWalker;
use archgym_core::cache::{CachedEnv, EvalCache};
use archgym_core::env::{Environment, Observation, StepResult, TwinSet};
use archgym_core::error::Result;
use archgym_core::search::{RunConfig, SearchLoop};
use archgym_core::space::{Action, ParamSpace};
use archgym_core::toy::PeakEnv;

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Add one to `counter` if this thread is counting.
fn tally(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(&ALLOCS);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, returning its result and the allocations and frees this
/// thread made meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    ALLOCS.with(|n| n.set(0));
    FREES.with(|n| n.set(0));
    ON.with(|on| on.set(true));
    let result = f();
    ON.with(|on| on.set(false));
    (result, ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

fn log2(n: usize) -> u64 {
    u64::from(usize::BITS - n.leading_zeros())
}

/// A deterministic simulator over a `[n, 4]` grid that names two info
/// values with literals. Its second dimension is inert: with `twins`,
/// each fallible step reports it free in a twin set.
#[derive(Debug, Clone)]
struct Grid {
    peak: PeakEnv,
    twins: bool,
}

impl Grid {
    fn new(n: usize, twins: bool) -> Self {
        Grid {
            peak: PeakEnv::new(&[n, 4], vec![n / 2, 0]),
            twins,
        }
    }

    /// `n` distinct designs, none inside another's twin set.
    fn designs(n: usize) -> Vec<Action> {
        (0..n).map(|i| Action::new(vec![i, i % 4])).collect()
    }
}

impl Environment for Grid {
    fn name(&self) -> &str {
        "grid"
    }
    fn space(&self) -> &ParamSpace {
        self.peak.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        vec!["distance".into(), "area".into()]
    }
    fn step(&mut self, action: &Action) -> StepResult {
        let first = action.index(0) as f64;
        StepResult::terminal(
            Observation::new(vec![first, 2.0 * first]),
            1.0 / (1.0 + first),
        )
        .with_info("energy", first)
        .with_info("area", 3.0)
    }
    fn try_step_with_twins(&mut self, action: &Action) -> Result<(StepResult, Option<TwinSet>)> {
        let set = self
            .twins
            .then(|| TwinSet::new(action.clone(), [(1, 0b1111)]));
        Ok((self.step(action), set))
    }
}

/// Step every design through `env` with `try_step`.
fn step_all(env: &mut impl Environment, designs: &[Action]) {
    for design in designs {
        let _ = env.try_step(design).unwrap();
    }
}

/// Allocations `n` misses through a fresh single-shard cache make
/// beyond what the bare simulator makes for the same steps.
fn miss_overhead(n: usize, twins: bool) -> u64 {
    let designs = Grid::designs(n);
    let mut plain = Grid::new(n, twins);
    let mut cached = CachedEnv::new(Grid::new(n, twins), Arc::new(EvalCache::with_shards(1)));
    // The thread handle a lookup reads is made on first use.
    let _ = std::thread::current();
    let ((), bare, _) = counted(|| {
        for design in &designs {
            let _ = plain.try_step_with_twins(design).unwrap();
        }
    });
    let ((), with_cache, _) = counted(|| step_all(&mut cached, &designs));
    with_cache - bare
}

#[test]
fn a_cached_miss_stores_no_block_of_its_own() {
    for twins in [false, true] {
        let small = miss_overhead(1_000, twins);
        let large = miss_overhead(16_000, twins);
        // Each of the shard's (and twin index's) few vectors grows by
        // doubling: O(log n) blocks in all, never one per miss.
        let vectors = if twins { 9 } else { 5 };
        assert!(
            large <= vectors * (log2(16_000) + 2),
            "twins={twins}: {large} blocks for 16,000 misses"
        );
        assert!(
            large - small <= vectors * 5,
            "twins={twins}: {small} blocks for 1,000 misses, {large} for 16,000"
        );
    }
}

#[test]
fn a_hit_allocates_at_most_its_step_results_two_blocks() {
    let n = 2_000;
    for twins in [false, true] {
        let designs = Grid::designs(n);
        let mut env = CachedEnv::new(Grid::new(n, twins), Arc::new(EvalCache::new()));
        step_all(&mut env, &designs);
        // Exact hits, then (with twins) hits on each set's other members.
        let members: Vec<Action> = designs
            .iter()
            .map(|d| Action::new(vec![d.index(0), (d.index(1) + 1) % 4]))
            .collect();
        let ((), allocs, _) = counted(|| step_all(&mut env, &designs));
        assert!(
            allocs <= 2 * n as u64,
            "twins={twins}: {allocs} for {n} hits"
        );
        let stats = env.cache().unwrap().stats();
        assert_eq!(stats.hits, n as u64);
        if twins {
            let ((), allocs, _) = counted(|| step_all(&mut env, &members));
            assert!(allocs <= 2 * n as u64, "{allocs} for {n} twin hits");
            assert_eq!(env.cache().unwrap().stats().twin_hits, n as u64);
        }
    }
}

/// Frees made while dropping a cache filled by `n` misses.
fn teardown_frees(n: usize, twins: bool) -> u64 {
    let cache = Arc::new(EvalCache::new());
    let mut env = CachedEnv::new(Grid::new(n, twins), Arc::clone(&cache));
    step_all(&mut env, &Grid::designs(n));
    drop(env);
    assert_eq!(cache.len(), n);
    let ((), _, frees) = counted(|| drop(cache));
    frees
}

#[test]
fn dropping_a_cache_frees_blocks_independent_of_its_entries() {
    for twins in [false, true] {
        let small = teardown_frees(1_000, twins);
        let large = teardown_frees(16_000, twins);
        assert_eq!(small, large, "twins={twins}");
        // A few vectors per shard, whatever the entry count.
        assert!(large <= 16 * 8 + 16, "twins={twins}: {large} frees");
    }
}

/// Allocations a recorded `n`-sample run makes beyond the same run
/// unrecorded.
fn recording_overhead(n: u64) -> u64 {
    let run = |record: bool| {
        let mut env = PeakEnv::new(&[64, 64, 8], vec![3, 60, 5]);
        let mut agent = RandomWalker::new(env.space().clone(), 9);
        let config = RunConfig::with_budget(n).record(record);
        counted(|| SearchLoop::new(config).run(&mut agent, &mut env)).1
    };
    run(true) - run(false)
}

#[test]
fn recording_a_run_allocates_logarithmically_many_dataset_blocks() {
    let small = recording_overhead(1_000);
    let large = recording_overhead(16_000);
    // The dataset's columns and the reward history each grow by
    // doubling, plus one label pair per run: O(log n), never one block
    // per sample.
    assert!(
        large <= 10 * (log2(16_000) + 2),
        "{large} blocks for 16,000 samples"
    );
    assert!(
        large - small <= 10 * 5,
        "{small} blocks for 1,000 samples, {large} for 16,000"
    );
}
