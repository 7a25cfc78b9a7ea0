//! Memoized design-point evaluation — [`EvalCache`] and [`CachedEnv`].
//!
//! Search agents revisit configurations constantly: a GA's crossover
//! re-produces elite genomes, ACO's pheromone trails concentrate on a
//! few paths, SA re-proposes neighbors near its current point. ArchGym
//! environments are *deterministic* one-shot cost models — the same
//! action always yields the same [`StepResult`] — so a revisit can be
//! answered from a hash map instead of a full simulation.
//!
//! [`EvalCache`] is a sharded, lock-striped map from the canonical
//! action encoding (the per-dimension index vector) to the full step
//! result (cost-vector observation, reward, feasibility and diagnostic
//! stats). Sharding keeps lock contention negligible when a parallel
//! [`Executor`](crate::executor::Executor) sweep shares one cache across
//! workers. [`CachedEnv`] wraps any [`Environment`] to consult the cache
//! on every step; built without a cache it is a zero-cost passthrough,
//! which lets sweep infrastructure keep a single code path.
//!
//! Misses are *single-flight*: [`EvalCache::lookup`] marks a missed key
//! as in flight, and a concurrent lookup of that key waits for the first
//! simulation and counts as a hit. So a parallel sweep simulates each
//! design point once and reports the same [`CacheStats`] as a serial
//! one. A simulation that fails, yields an uncacheable result or unwinds
//! clears the mark; one waiter then simulates the key, and the others
//! wait for it in turn.
//!
//! Caching is only sound for environments whose `step` is a pure
//! function of the action — true for every bundled ArchGym cost model.
//! Do not share one cache across *different* environments or workloads;
//! key collisions would silently return the wrong cost.
//!
//! ```
//! use archgym_core::cache::{CachedEnv, EvalCache};
//! use archgym_core::prelude::*;
//! use archgym_core::toy::PeakEnv;
//! use std::sync::Arc;
//!
//! let cache = Arc::new(EvalCache::new());
//! let mut env = CachedEnv::new(PeakEnv::new(&[8], vec![3]), cache.clone());
//! let action = Action::new(vec![3]);
//! let first = env.step(&action); // simulated, inserted
//! let second = env.step(&action); // served from the cache
//! assert_eq!(first, second);
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

use crate::env::{Environment, Observation, StepResult};
use crate::space::{Action, ParamSpace};
use crate::telemetry::{Counter, Phase, Recorder};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::ThreadId;

/// Default shard count — enough stripes that a handful of sweep workers
/// rarely collide on a lock, small enough to stay cache-friendly.
const DEFAULT_SHARDS: usize = 16;

/// Counter snapshot of an [`EvalCache`].
///
/// `hits + misses` equals the number of lookups issued. Concurrent
/// misses on one key simulate it once (the later lookups wait and count
/// as hits), so `inserts == entries`, except when one cache is wrapped
/// twice: the inner and the outer fill of a key then both count an
/// insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a simulation.
    pub misses: u64,
    /// Results written into the cache.
    pub inserts: u64,
    /// Distinct design points currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when none).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One lock stripe: the stored results, plus the keys being simulated
/// now and the thread simulating each.
#[derive(Debug, Default)]
struct Shard {
    done: HashMap<Vec<usize>, StepResult>,
    in_flight: HashMap<Vec<usize>, ThreadId>,
}

/// A sharded, lock-striped memo table: canonical action encoding →
/// evaluated [`StepResult`].
///
/// All methods take `&self`, so one cache behind an [`Arc`] can be
/// shared freely across sweep workers.
#[derive(Debug)]
pub struct EvalCache {
    /// Each stripe's condition variable wakes the lookups waiting for
    /// one of its in-flight keys.
    shards: Vec<(Mutex<Shard>, Condvar)>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
}

impl EvalCache {
    /// A cache with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache striped over `shards` independent locks.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "cache needs at least one shard");
        EvalCache {
            shards: (0..shards)
                .map(|_| (Mutex::default(), Condvar::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    /// FNV-1a over the index vector — deterministic across processes
    /// (unlike `DefaultHasher`'s randomized state) and plenty uniform
    /// for shard selection.
    fn shard_of(&self, key: &[usize]) -> usize {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &index in key {
            let mut value = index as u64;
            // Hash each index one byte at a time, LSB first.
            for _ in 0..8 {
                hash ^= value & 0xff;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                value >>= 8;
            }
        }
        (hash % self.shards.len() as u64) as usize
    }

    /// Look up a design point for evaluation. A stored result is a hit.
    /// If another thread is simulating the key, wait for it: its result
    /// is a hit too. Otherwise the lookup is a miss, and the key stays
    /// in flight until the returned [`Fill`] completes or drops.
    pub fn lookup(&self, action: &Action) -> Lookup<'_> {
        let key = action.as_slice();
        let index = self.shard_of(key);
        let (lock, filled) = &self.shards[index];
        let mut shard = lock.lock().expect("cache shard poisoned");
        let me = std::thread::current().id();
        loop {
            if let Some(result) = shard.done.get(key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(result.clone());
            }
            // A thread that meets its own in-flight key (one cache
            // wrapped twice) simulates it again rather than wait for
            // itself.
            match shard.in_flight.get(key) {
                Some(&owner) if owner != me => {
                    shard = filled.wait(shard).expect("cache shard poisoned");
                }
                _ => break,
            }
        }
        shard.in_flight.insert(key.to_vec(), me);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Lookup::Miss(Fill {
            cache: self,
            shard: index,
            key: Some(key.to_vec()),
        })
    }

    /// Clear `key`'s in-flight mark, storing `result` if there is one,
    /// and wake the lookups waiting on the shard.
    fn settle(&self, index: usize, key: Vec<usize>, result: Option<StepResult>) {
        let (lock, filled) = &self.shards[index];
        // Never panic here: this runs from `Fill::drop`, on unwind too.
        let mut shard = lock.lock().unwrap_or_else(PoisonError::into_inner);
        shard.in_flight.remove(&key);
        if let Some(result) = result {
            shard.done.insert(key, result);
            self.inserts.fetch_add(1, Ordering::Relaxed);
        }
        drop(shard);
        filled.notify_all();
    }

    /// Number of distinct design points stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|(s, _)| s.lock().expect("cache shard poisoned").done.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the hit/miss/insert counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        EvalCache::new()
    }
}

/// The outcome of [`EvalCache::lookup`].
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The stored result, possibly after waiting for another thread's
    /// simulation of the same key.
    Hit(StepResult),
    /// Not stored: the caller simulates the key and completes the fill.
    Miss(Fill<'a>),
}

/// A missed key's in-flight mark. [`Fill::complete`] stores the result
/// and wakes the waiting lookups; dropping the fill instead (after a
/// failed or uncacheable simulation, or on unwind) clears the mark, and
/// the next lookup of the key, waiting or new, becomes its miss.
#[must_use = "dropping a fill abandons the key"]
#[derive(Debug)]
pub struct Fill<'a> {
    cache: &'a EvalCache,
    shard: usize,
    /// `None` once completed.
    key: Option<Vec<usize>>,
}

impl Fill<'_> {
    /// Store the key's simulated result.
    pub fn complete(mut self, result: StepResult) {
        let key = self.key.take().expect("a fill completes once");
        self.cache.settle(self.shard, key, Some(result));
    }
}

impl Drop for Fill<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.settle(self.shard, key, None);
        }
    }
}

/// An [`Environment`] wrapper that answers repeated design points from
/// an [`EvalCache`].
///
/// Built with [`CachedEnv::uncached`] the wrapper is a passthrough, so
/// callers like [`Sweep`](crate::sweep::Sweep) can always wrap and let
/// the optional cache decide whether memoization happens.
#[derive(Debug, Clone)]
pub struct CachedEnv<E> {
    inner: E,
    cache: Option<Arc<EvalCache>>,
    telemetry: Recorder,
}

impl<E: Environment> CachedEnv<E> {
    /// Wrap `inner`, memoizing through `cache`.
    pub fn new(inner: E, cache: Arc<EvalCache>) -> Self {
        Self::with_cache(inner, Some(cache))
    }

    /// Wrap `inner` with no cache — every step hits the simulator.
    pub fn uncached(inner: E) -> Self {
        Self::with_cache(inner, None)
    }

    /// Wrap `inner` with an optional cache (the sweep plumbing form).
    pub fn with_cache(inner: E, cache: Option<Arc<EvalCache>>) -> Self {
        CachedEnv {
            inner,
            cache,
            telemetry: Recorder::default(),
        }
    }

    /// Look `action` up in the cache, mirroring the outcome into the
    /// telemetry recorder (`lookups == hits + misses` holds exactly
    /// because each probe counts one lookup and exactly one of the
    /// two outcomes). The span includes any wait for another thread's
    /// simulation of the same key.
    fn probe<'c>(&self, cache: &'c EvalCache, action: &Action) -> Lookup<'c> {
        let _span = self.telemetry.span(Phase::CacheLookup);
        let found = cache.lookup(action);
        self.telemetry.incr(Counter::CacheLookups);
        self.telemetry.incr(match found {
            Lookup::Hit(_) => Counter::CacheHits,
            Lookup::Miss(_) => Counter::CacheMisses,
        });
        found
    }

    /// Complete a miss with its settled result, mirroring the write into
    /// telemetry; an uncacheable result abandons the fill instead.
    fn remember(&self, fill: Fill<'_>, result: &StepResult) {
        if cacheable(result) {
            fill.complete(result.clone());
            self.telemetry.incr(Counter::CacheInserts);
        }
    }

    /// The wrapped environment.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The shared cache, if memoization is enabled.
    pub fn cache(&self) -> Option<&Arc<EvalCache>> {
        self.cache.as_ref()
    }

    /// Unwrap, discarding the cache handle.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: Environment> Environment for CachedEnv<E> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn space(&self) -> &ParamSpace {
        self.inner.space()
    }
    fn observation_labels(&self) -> Vec<String> {
        self.inner.observation_labels()
    }
    fn reset(&mut self) -> Observation {
        self.inner.reset()
    }
    fn step(&mut self, action: &Action) -> StepResult {
        let Some(cache) = self.cache.clone() else {
            return self.inner.step(action);
        };
        let fill = match self.probe(&cache, action) {
            Lookup::Hit(memoized) => return memoized,
            Lookup::Miss(fill) => fill,
        };
        let result = self.inner.step(action);
        self.remember(fill, &result);
        result
    }
    fn try_step(&mut self, action: &Action) -> crate::error::Result<StepResult> {
        let Some(cache) = self.cache.clone() else {
            return self.inner.try_step(action);
        };
        let fill = match self.probe(&cache, action) {
            Lookup::Hit(memoized) => return Ok(memoized),
            Lookup::Miss(fill) => fill,
        };
        // A failed attempt must never poison the memo: errors propagate
        // uncached (the `?` drops the fill, and the retry machinery will
        // probe again), and corrupted non-finite results are likewise
        // not worth remembering.
        let result = self.inner.try_step(action)?;
        self.remember(fill, &result);
        Ok(result)
    }
    fn set_telemetry(&mut self, recorder: &Recorder) {
        self.telemetry = recorder.clone();
        self.inner.set_telemetry(recorder);
    }
}

/// Only clean evaluations belong in the memo: a NaN/Inf reward or
/// metric is a corrupted report (a transient simulator fault), and a
/// degraded penalty placeholder (marked by the retry machinery via the
/// `degraded`/`eval_degraded` info keys) is a verdict about this run's
/// retry budget, not about the design point. Caching either would
/// replay the fault on every future visit.
fn cacheable(result: &StepResult) -> bool {
    result.reward.is_finite()
        && result.observation.as_slice().iter().all(|v| v.is_finite())
        && !result.info.contains_key("degraded")
        && !result.info.contains_key("eval_degraded")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::toy::PeakEnv;

    fn action(i: usize) -> Action {
        Action::new(vec![i])
    }

    #[test]
    fn hit_returns_identical_result_without_resimulating() {
        let cache = Arc::new(EvalCache::new());
        let mut env = CachedEnv::new(
            crate::env::CountingEnv::new(PeakEnv::new(&[8], vec![5])),
            cache.clone(),
        );
        let first = env.step(&action(5));
        let second = env.step(&action(5));
        assert_eq!(first, second);
        // The inner simulator ran exactly once.
        assert_eq!(env.inner().samples(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn uncached_wrapper_is_a_passthrough() {
        let mut plain = PeakEnv::new(&[8], vec![2]);
        let mut wrapped = CachedEnv::uncached(PeakEnv::new(&[8], vec![2]));
        for i in 0..8 {
            assert_eq!(plain.step(&action(i)), wrapped.step(&action(i)));
        }
        assert!(wrapped.cache().is_none());
        assert_eq!(wrapped.name(), "peak");
    }

    #[test]
    fn distinct_actions_occupy_distinct_entries() {
        let cache = EvalCache::with_shards(4);
        for i in 0..32 {
            miss(&cache, i).complete(StepResult::terminal(Observation::new(vec![i as f64]), 0.0));
        }
        assert_eq!(cache.len(), 32);
        assert!(!cache.is_empty());
        for i in 0..32 {
            let Lookup::Hit(got) = cache.lookup(&action(i)) else {
                panic!("{i} was stored");
            };
            assert_eq!(got.observation.get(0), i as f64);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 32);
        assert_eq!(stats.misses, 32);
        assert_eq!(stats.inserts, 32);
    }

    #[test]
    fn counters_are_exact_under_executor_parallelism() {
        // Fill every key, then issue a known number of parallel
        // lookups: with no fill races, hits must count exactly.
        let cache = Arc::new(EvalCache::new());
        for i in 0..16 {
            miss(&cache, i).complete(StepResult::terminal(Observation::new(vec![0.0]), 0.0));
        }
        let lookups: Vec<usize> = (0..400).map(|k| k % 16).collect();
        let results = Executor::new(4).map(&lookups, |&i| {
            matches!(cache.lookup(&action(i)), Lookup::Hit(_))
        });
        assert!(results.into_iter().all(|hit| hit));
        let stats = cache.stats();
        assert_eq!(stats.hits, 400);
        assert_eq!(stats.misses, 16); // the fills' own lookups
        assert_eq!(stats.inserts, 16);
        assert_eq!(stats.entries, 16);
    }

    #[test]
    fn shard_of_is_deterministic_and_in_range() {
        let cache = EvalCache::with_shards(7);
        for i in 0..100 {
            let key = vec![i, i * 3, 12];
            let a = cache.shard_of(&key);
            let b = cache.shard_of(&key);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = EvalCache::with_shards(0);
    }

    #[test]
    fn failed_evaluations_are_never_cached() {
        use crate::fault::{FaultPlan, FaultyEnv};
        // Find an action that fails on attempt 0 and succeeds on attempt 1.
        let plan = FaultPlan::new(5).transient(0.5);
        let probe = (0..64)
            .find(|&i| {
                use crate::fault::FaultKind;
                plan.decide(&action(i), 0) == FaultKind::Transient
                    && plan.decide(&action(i), 1) == FaultKind::None
            })
            .expect("some action faults once then clears");
        let cache = Arc::new(EvalCache::new());
        let mut env = CachedEnv::new(
            FaultyEnv::new(
                crate::env::CountingEnv::new(PeakEnv::new(&[64], vec![3])),
                plan,
            ),
            cache.clone(),
        );
        // Attempt 0 fails: the miss is counted, nothing is inserted.
        assert!(env.try_step(&action(probe)).is_err());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (0, 1, 0, 0),
            "a transient EvalFailed must not poison the memo"
        );
        // The retry (attempt 1) succeeds and fills the cache...
        let settled = env.try_step(&action(probe)).unwrap();
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (0, 2, 1, 1)
        );
        // ...and the next visit is a pure hit: no simulation, no fault
        // roll (the FaultyEnv is never consulted again).
        let revisit = env.try_step(&action(probe)).unwrap();
        assert_eq!(revisit, settled);
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 2, 1, 1)
        );
        assert_eq!(env.inner().inner().samples(), 1, "simulated exactly once");
    }

    #[test]
    fn corrupted_results_are_never_cached() {
        use crate::fault::{FaultPlan, FaultyEnv};
        let plan = FaultPlan::new(3).corrupt(1.0);
        let cache = Arc::new(EvalCache::new());
        let mut env = CachedEnv::new(
            FaultyEnv::new(PeakEnv::new(&[8], vec![3]), plan),
            cache.clone(),
        );
        // Corrupt evaluations are Ok(..) but non-finite: the fallible
        // path must not memoize them. The infallible path degrades the
        // corruption to a *finite* penalty — equally uncacheable (it
        // reflects this run's retry budget, not the design point).
        let corrupt = env.try_step(&action(2)).unwrap();
        assert!(!corrupt.reward.is_finite());
        let degraded = env.step(&action(4));
        assert!(degraded.reward.is_finite());
        assert!(degraded.info.contains_key("eval_degraded"));
        let stats = cache.stats();
        assert_eq!((stats.inserts, stats.entries), (0, 0));
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
    }

    /// Miss on `action(i)` through `lookup`, returning the fill.
    fn miss(cache: &EvalCache, i: usize) -> Fill<'_> {
        match cache.lookup(&action(i)) {
            Lookup::Miss(fill) => fill,
            Lookup::Hit(_) => panic!("expected a miss on {i}"),
        }
    }

    #[test]
    fn a_concurrent_miss_waits_for_the_first_simulation() {
        let cache = EvalCache::new();
        let fill = miss(&cache, 3);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.lookup(&action(3)));
            // Give the waiter time to find the key in flight.
            std::thread::sleep(std::time::Duration::from_millis(50));
            fill.complete(StepResult::terminal(Observation::new(vec![3.0]), 1.0));
            match waiter.join().unwrap() {
                Lookup::Hit(result) => assert_eq!(result.reward, 1.0),
                Lookup::Miss(_) => panic!("the waiter simulated the key again"),
            }
        });
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.inserts, stats.entries),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn an_abandoned_fill_hands_the_key_to_a_waiter() {
        let cache = EvalCache::new();
        let fill = miss(&cache, 5);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| matches!(cache.lookup(&action(5)), Lookup::Miss(_)));
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(fill);
            assert!(waiter.join().unwrap(), "the waiter must simulate the key");
        });
        // A fill dropped by unwinding clears the mark too.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _fill = miss(&cache, 6);
            panic!("simulator crashed");
        }));
        assert!(unwound.is_err());
        drop(miss(&cache, 6));
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.inserts, stats.entries), (4, 0, 0));
    }

    #[test]
    fn a_thread_never_waits_for_its_own_fill() {
        let cache = EvalCache::new();
        let outer = miss(&cache, 1);
        let inner = miss(&cache, 1);
        inner.complete(StepResult::terminal(Observation::new(vec![1.0]), 0.5));
        drop(outer);
        assert!(matches!(cache.lookup(&action(1)), Lookup::Hit(_)));
    }
}
